"""Two-party state machines for the bit-escrow and coin-flip games.

Four games are enumerated exactly, branch by branch:

* ``run_escrow``      -- deposit a qubit, then either reveal the classical
                         bits to the receiver or return the qubit for a check.
* ``run_escrow_reveal_then_return`` -- the return check, with the bit revealed
                         before the qubit comes back.
* ``run_coinflip``    -- the biased coin flip built on the escrow encoding
                         (deposit angle fixed to pi/8).
* ``run_weak_commitment`` -- deposit, reveal the bit, play the embedded coin
                         flip, then challenge the loser.

Each game is a ``_Game`` value: its wires, its phase map and a tuple of
steps (play a phase, read a message, check a deposit, set an honest party's
own result, reject, branch on a challenge).  One function, ``_batch``, plays a
game on N runs, each a (depositor, receiver, seeded bit) triple, and a
runner is its batch of one.  Runs whose strategies have one shape
(``StrategySpec.shape``: all but the gate and basis matrices) form a group
that goes through one stack; ``_batch`` compiles (and so checks) every
group's shape pair before any branch runs.  The ``*_batch`` entry points
return results in input order.  ``run_escrow_batch`` hands each run's
reduced deposit, off its rows right after the deposit phase, to a caller's
check before the rest plays; ``deposit_reduced_state`` is its batch of one.

A game runs in two stages.  ``_compile`` resolves it, once per (game, Alice
shape, Bob shape) and kept in a bounded cache, into a program: a tuple of
(step function, arguments) pairs that ends in ``_end`` or ``_challenge``,
whose branches are programs too.  Everything the two shapes fix is decided
there: whether the pair is legal in the game, the wires of the stack, the
table column of every value, each branch's transcript header and the order
of its verdict columns, whether a read is a table write, a
renormalization and a table write, or a ``measure``, whether a write is an
XOR of a column or an X gate, whether a check builds post-states, the
challenge's judge, and the steps that are no-ops for a dishonest party.
Running a group is then ``_start``, which builds one root row per run, and
``_play``, which calls the steps in order; what is left for them is what the
data decides: the kernel calls, the runs' operators (stacked when they
differ), the record reads that may find an unset key, and the challenge
split.  An honest depositor's deposit is played once per (program, spec,
seeded bit) and its rows kept (``_honest_deposit``), so a group against it
starts from those rows.  A kernel wrapper sees the calls that a run makes,
and a cached deposit makes none.  ``_assemble`` merges the leaves into one
distribution per run.

The branches of a group are rows (``_Rows``): one ``qmath.StateStack`` holds
every branch's amplitudes on the run's quantum wires, next to one probability
array and one small-integer table, whose columns the program placed: the
row's run index, the bit of each message wire, one column per (party, key)
of the records and one per transcript entry.  A record value is a bit, an
outcome index or a verdict code.  A run's seeded bit is its rows' value in
Alice's ``b`` column.  Each round is one kernel call for all rows: a draw
repeats rows, a gate is one ``apply_unitary``, a measurement or deposit check
is one ``qmath.measure`` whose surviving outcomes follow their parent row in
outcome order, and its record is one column of the children's table.  A
gate, table or basis that every run of the group holds is applied as one; one
that differs between runs becomes a stack of the runs' matrices, each row
taking its run's entry.  Rows stay in branch order, so each run's rows stay
together and in the order that run alone would give them: ``_assemble`` sums
each leaf of each run over the same rows in the same order as
branch-by-branch enumeration of that run, and builds the leaf objects only
for distinct rows of verdict and transcript codes.

Classical messages are carried on qubit wires that an honest recipient
measures in the computational basis on receipt; a dishonest sender is free to
put superpositions on them.  Each program fixes its stack once, from the two
shapes, in the layout's wire order: the parties' ancillas, the deposits, and
each message wire (``_MESSAGES``) that a gate or ``MeasureRecord`` of either
shape names in a phase that the game plays.  Every other message wire is a
classical bit per row for the whole run, a column of the table.  A write XORs
a classical wire's column and is an X gate on a quantum one; a read of a quantum wire is
a ``measure``, and a read of a classical one has one outcome, the row's bit.
Rounding is divided out where a measurement would divide it out: every
``measure`` post-state is divided by the square root of its probability, and
the first read of a classical wire after a gate takes its probability and
post-state from ``qmath.renormalize``.  A draw, an X and a row selection only
move amplitudes, so rows stay normalized until the next other gate, and a
read of a classical wire from normalized rows is a table write: the bit goes
to the reader's record column and the transcript.  A check that closes its
branch (only own results and rejections follow it) builds no post-states.  A
challenge branch that no row reaches is not played.  In honest play no
message wire is in the stack.
Honest randomness is expanded into explicit branch weights, never sampled,
so honest/honest runs have *exactly* zero error branches.

Wire layout (a run holds Alice's ancillas, then the game's wires, then Bob's
ancillas, at most ``MAX_TOTAL_WIRES`` = 9 in all):

    a0..a3   Alice's private ancillas      dep   the deposited qubit
    c0..c3   Bob's private ancillas        dep2  the embedded coin deposit
    rb, rx   Alice's revealed bit/basis    bp    Bob's announced coin bit
    rb2, rx2 reveal wires of the embedded coin

Strategies are data: per-phase lists of rounds (unitaries, or tables of them
indexed by record bits, on held wires; orthogonal measurements; fair-coin
draws; message bits that are constants or record keys).  Each round checks
itself once, when it is built: distinct non-empty ``str`` wires, unitaries
of the right shape, a measurement of the right dimension, non-empty ``str``
record keys, bit sources that are 0, 1 or a key.  A batch checks that its
runs pair up (or raises ``ProtocolError``), that every seeded bit is 0, 1
or None and every seat holds a ``StrategySpec``; compiling a shape pair
checks what the game adds: each spec sits in its own party's seat, every
phase is known, every round touches only wires the party holds in it, the
run fits the wire budget, and in the coin flip and the composed game one
party is honest.  Every violation raises ``MalformedStrategy`` before any
branch runs, except a record key that is unset or not a bit, which raises
it when the step that reads it plays (for the whole batch).  A party with
no verdict reports the other's, and against a cheater both report the
honest party's where it has one: a cheater's verdict means nothing.
Runners are pure functions from strategies to outcome distributions;
concurrent runs share only caches of checked or derived values.
"""

from __future__ import annotations

import functools
import math
import numbers
from dataclasses import dataclass, field
from enum import Enum
from typing import Callable, Mapping, Sequence

import numpy as np

from . import qmath
from .qmath import (
    DensityMatrix,
    OrthogonalMeasurement,
    StateStack,
    StateVector,
    Unitary,
    apply_unitary,
    partial_trace,
)

THETA_DEFAULT = math.pi / 8
COIN_THETA = math.pi / 8
MAX_TOTAL_WIRES = 9
# Wires that carry classical messages; one is quantum in a program only if a gate or a
# measurement of either shape acts on it in a played phase.  Every other wire is quantum.
_MESSAGES = frozenset({"rb", "rx", "bp", "rb2", "rx2"})

_COMP1 = OrthogonalMeasurement.computational(1)
_FLIP = Unitary(np.array([[[1, 0], [0, 1]], [[0, 1], [1, 0]]]))   # I and X, taken by a flip bit


class ProtocolError(Exception):
    pass


class MalformedStrategy(ProtocolError):
    pass


class Challenge(Enum):
    REVEAL_TO_BOB = "reveal"
    RETURN_TO_ALICE = "return"


class Verdict(Enum):
    ZERO = "0"
    ONE = "1"
    ERR = "err"

    @classmethod
    def of_bit(cls, b: int) -> "Verdict":
        return cls.ONE if b else cls.ZERO


@dataclass(frozen=True)
class EscrowParams:
    """Encoding angle of the escrow states; must lie in (0, pi/8]."""

    theta: float = THETA_DEFAULT

    def __post_init__(self):
        if not (isinstance(self.theta, numbers.Real) and 0.0 < self.theta <= math.pi / 8 + 1e-12):
            raise ProtocolError(f"theta {self.theta!r} outside (0, pi/8]")


# ---------------------------------------------------------------------------
# Encoding states


def rotation(alpha: float) -> np.ndarray:
    c, s = math.cos(alpha), math.sin(alpha)
    return np.array([[c, -s], [s, c]], dtype=complex)


def phi_vec(alpha: float) -> np.ndarray:
    return np.array([math.cos(alpha), math.sin(alpha)], dtype=complex)


def bx_angle(b: int, x: int, theta: float) -> float:
    """Encoding angle for (b, x): -theta, theta, pi/2-theta, pi/2+theta."""
    return (0.0 if b == 0 else math.pi / 2) + (theta if x else -theta)


def _theta_of(params: EscrowParams) -> float:
    """The escrow angle of ``params``, which must be an ``EscrowParams``."""
    if not isinstance(params, EscrowParams):
        raise ProtocolError(f"params {params!r} are not an EscrowParams")
    return params.theta


def _bit(value, what: str) -> int:
    if not _is_bit(value):
        raise ProtocolError(f"{what} {value!r} is not a bit (0 or 1)")
    return value


def escrow_encoding(theta: float) -> np.ndarray:
    """The read-only complex (2, 2, 2) table of phi_{b,x} at a finite real ``theta``, cached."""
    if not (isinstance(theta, numbers.Real) and math.isfinite(theta)):
        raise ProtocolError(f"theta {theta!r} is not a finite real number")
    return _encoding(theta)


@functools.lru_cache(maxsize=256)
def _encoding(theta: float) -> np.ndarray:
    table = np.array([[phi_vec(bx_angle(b, x, theta)) for x in (0, 1)] for b in (0, 1)])
    table.setflags(write=False)
    return table


def bit_density(encoding: np.ndarray, b: int) -> DensityMatrix:
    """Bit b's deposit on ``dep``: the uniform mixture over row b of an encoding table."""
    m = sum(0.5 * np.outer(phi, phi.conj()) for phi in encoding[_bit(b, "bit")])
    return DensityMatrix(("dep",), m)


def escrow_bit_density(b: int, theta: float) -> DensityMatrix:
    """Honest depositor's view of bit b on ``dep``: uniform over the two x encodings."""
    return bit_density(escrow_encoding(theta), b)


def escrow_basis(x: int, theta: float) -> OrthogonalMeasurement:
    """The check basis {phi_{0,x}, phi_{1,x}}; the outcome index is the bit b."""
    return OrthogonalMeasurement(escrow_encoding(theta)[:, _bit(x, "basis")].T)


@functools.lru_cache(maxsize=256)
def _check_bases(theta: float) -> OrthogonalMeasurement:
    """Both check bases as one stack indexed by x, cached per theta: every check shares it."""
    return OrthogonalMeasurement(escrow_encoding(theta).transpose(1, 2, 0))


# ---------------------------------------------------------------------------
# Strategy rounds


@dataclass(frozen=True)
class Draw:
    """A fair coin: branch on record[name] = 0 and 1, each with weight 1/2."""

    name: str

    def __post_init__(self):
        _check_keys((self.name,))


def _is_bit(value) -> bool:
    """A bit is an int 0 or 1 (a numpy integer too); a float or a string is not."""
    return isinstance(value, (int, np.integer)) and value in (0, 1)


def _check_keys(keys) -> None:
    if not (isinstance(keys, (tuple, list)) and all(isinstance(k, str) and k for k in keys)):
        raise MalformedStrategy(f"record keys {keys!r} are not a tuple or list of non-empty str")


def _check_wires(wires) -> tuple[str, ...]:
    """A round's wires as a tuple: a tuple or list of distinct non-empty ``str``, as qmath says."""
    try:
        return qmath._check_wires(wires)
    except qmath.WireMismatch as exc:
        raise MalformedStrategy(str(exc)) from None


@dataclass(frozen=True)
class Apply:
    """Unitary on distinct held wires, fixed or chosen by bits of the party's record.

    With no ``keys`` the gate is one (d, d) matrix.  With k record keys it is
    a (2^k, d, d) table, and a row applies the entry its bits under the keys
    index, the first key most significant.  The gate or whole table is
    checked once, when the round is built, and kept checked in ``unitary``.
    """

    wires: tuple[str, ...]
    gate: np.ndarray
    keys: tuple[str, ...] = ()
    unitary: Unitary = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "wires", _check_wires(self.wires))
        _check_keys(self.keys)
        object.__setattr__(self, "keys", tuple(self.keys))
        dim = 2 ** len(self.wires)
        shape = (2 ** len(self.keys), dim, dim) if self.keys else (dim, dim)
        try:
            matrix = np.asarray(self.gate, dtype=complex)
            if matrix.shape != shape:
                raise MalformedStrategy(f"gate of shape {matrix.shape} needs shape {shape}")
            object.__setattr__(self, "unitary", Unitary(matrix))
        except (TypeError, ValueError, qmath.NotUnitary) as exc:
            raise MalformedStrategy(f"gate on {self.wires} is not a unitary: {exc}") from None


@dataclass(frozen=True)
class MeasureRecord:
    """Orthogonal measurement on distinct held wires, outcome index stored in the record."""

    wires: tuple[str, ...]
    measurement: OrthogonalMeasurement
    name: str

    def __post_init__(self):
        object.__setattr__(self, "wires", _check_wires(self.wires))
        _check_keys((self.name,))
        dim = 2 ** len(self.wires)
        m = self.measurement
        if not isinstance(m, OrthogonalMeasurement) or m.matrix.shape != (dim, dim):
            raise MalformedStrategy(f"{self.wires} need one OrthogonalMeasurement of dim {dim}")


@dataclass(frozen=True)
class SetBits:
    """Write classical bits onto wires (X^bit per wire; an X gate on a quantum wire).

    Each source, checked when the round is built, is a constant 0 or 1 or a
    record key whose bit is copied: the classical rule mapping measurement
    outcomes to the next message bits.
    """

    assignments: Mapping[str, int | str]

    def __post_init__(self):
        if not isinstance(self.assignments, Mapping):
            raise MalformedStrategy(f"bit sources {self.assignments!r} are not a map from wires")
        for wire, src in self.assignments.items():
            if not (isinstance(src, str) and src != "" or _is_bit(src)):
                raise MalformedStrategy(f"bit source {src!r} for {wire!r} is not 0, 1 or a key")


Round = Draw | Apply | MeasureRecord | SetBits


@dataclass(frozen=True, eq=False)
class StrategySpec:
    """A party's program: private ancilla count plus per-phase round lists.

    ``honest`` marks parties that follow the protocol's classical conventions
    (incoming message wires are measured on receipt, verdicts computed by the
    honest rules).  Phase names are documented per runner.

    ``shape``, computed once when the spec is built, is all of the spec but
    its gate and basis matrices, so specs of one shape run as one stack: the
    party, the ancilla count, the honest flag and, per phase in program
    order, each round's signature (its type, the wires it touches, and its
    keys, record name or bit sources).  A spec hashes and compares by
    identity, so it can key a cache.
    """

    party: str
    ancilla_count: int
    programs: Mapping[str, tuple[Round, ...]]
    honest: bool = False
    label: str = ""
    shape: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.party not in ("alice", "bob"):
            raise MalformedStrategy(f"unknown party {self.party!r}")
        if not isinstance(self.honest, bool):
            raise MalformedStrategy(f"honest flag {self.honest!r} is not a bool")
        count = self.ancilla_count
        if not (isinstance(count, (int, np.integer)) and not isinstance(count, bool)
                and 0 <= count <= 4):
            raise MalformedStrategy(f"ancilla count {count!r} is not an integer in [0, 4]")
        try:
            programs = {k: tuple(v) for k, v in dict(self.programs).items()}
        except (TypeError, ValueError):
            raise MalformedStrategy(
                f"programs {self.programs!r} are not a map from phases to rounds") from None
        object.__setattr__(self, "programs", programs)
        object.__setattr__(self, "shape", (
            self.party, self.ancilla_count, self.honest,
            tuple((phase, tuple(map(_signature, rounds))) for phase, rounds in programs.items())))

    @functools.cached_property
    def ancillas(self) -> tuple[str, ...]:
        return _ancilla_wires(self.party, self.ancilla_count)


def _ancilla_wires(party: str, count: int) -> tuple[str, ...]:
    prefix = "a" if party == "alice" else "c"
    return tuple(f"{prefix}{i}" for i in range(count))


def _signature(rnd: Round) -> tuple:
    """A round's (type, wires it touches, keys or record name or bit sources)."""
    if isinstance(rnd, Draw):
        return Draw, (), rnd.name
    if isinstance(rnd, Apply):
        return Apply, rnd.wires, rnd.keys
    if isinstance(rnd, MeasureRecord):
        return MeasureRecord, rnd.wires, rnd.name
    if isinstance(rnd, SetBits):
        return SetBits, tuple(rnd.assignments), tuple(rnd.assignments.values())
    raise MalformedStrategy(f"unknown round type {type(rnd).__name__}")


def validate_strategy(shape: tuple, phase_wires: Mapping[str, tuple[str, ...]]) -> None:
    """Check a strategy ``shape`` (``StrategySpec.shape``) against a game's phase map.

    Raises ``MalformedStrategy`` unless every phase is one of the game's and
    every round touches only the party's ancillas and the phase's wires.
    The rounds checked everything else when they were built.  ``_compile``
    calls it once per shape pair.
    """
    party, count, _, phases = shape
    for phase, rounds in phases:
        if phase not in phase_wires:
            raise MalformedStrategy(f"{party} has a program for unknown phase {phase!r}")
        allowed = set(_ancilla_wires(party, count)) | set(phase_wires[phase])
        for _, wires, _ in rounds:
            if not allowed.issuperset(wires):
                raise MalformedStrategy(
                    f"{party} touches {set(wires) - allowed} in phase {phase!r}")


# ---------------------------------------------------------------------------
# Branch-tree execution

# Every classical value of a row is a small integer.  A bit or an outcome
# index is itself; these codes mark a value no step has set and the three
# verdicts.  A run index is an integer too, so the code type holds any batch.
_CODE = np.int32
_UNSET, _ZERO, _ONE, _ERR = -1, -2, -3, -4   # the verdict of bit b is _ZERO - b
_RUN, _SEED = 0, 1   # the table columns of each row's run index and of Alice's seeded b
_VERDICTS = {_ZERO: Verdict.ZERO, _ONE: Verdict.ONE, _ERR: Verdict.ERR}
_SAID = {_ZERO: 0, _ONE: 1, _ERR: Verdict.ERR.value}   # a verdict in a transcript


@dataclass(slots=True)
class _Rows:
    """The branches of a shape group's runs, one row each: probability, state and small integers.

    The state of a row is its amplitudes on the wires of the stack, which
    the compiled program fixes, times one definite bit on each classical
    message wire.  Every classical value of a row sits in ``table``, in the
    columns that the program placed: the row's run index (``_RUN``), Alice's
    seeded ``b`` (``_SEED``), the bit of each classical message wire, one
    column per (party, key) of the records and one per transcript position.
    A record value is a bit, an outcome index or a verdict code, and
    ``_UNSET`` marks a value no step has set.  Rows are branch-major: a
    row's children follow it in outcome order, so each run's rows stay
    together, in run order, and in the order that run alone would give them.
    No two ``_Rows`` share a table, so a step may update its rows in place.
    After a closing check, which nothing reads the state of, ``states`` is
    None.
    """

    probs: np.ndarray
    states: StateStack | None
    table: np.ndarray

    def take(self, rows: np.ndarray) -> "_Rows":
        """The given rows (indices), each at most once."""
        return _Rows(self.probs[rows], self.states.take(rows), self.table[rows])

    def split(self, parents: np.ndarray, probs, states: StateStack | None, column: int,
              values) -> "_Rows":
        """Children of ``parents`` (row indices, in order) with their probabilities and states.

        Each child's ``column`` is set to the matching entry of ``values``.
        """
        table = self.table[parents]
        table[:, column] = values
        return _Rows(self.probs[parents] * probs, states, table)


# The steps of a compiled program.  A step takes the rows, each party's specs
# (one per run of the group), the runs' escrow angle and the arguments that
# ``_Compiler`` fixed, and returns the rows it leaves.  It reaches the kernels
# through ``qmath`` and this module's ``apply_unitary`` alias when it runs, so
# a wrapper installed after a program was compiled sees every call.


def _record_bits(rows: _Rows, party: str, keys: tuple[str, ...], columns: np.ndarray
                 ) -> np.ndarray:
    """The bits ``party``'s record holds under ``keys``, at ``columns``: a (rows, keys) array.

    This is the one place that reads a record as bits.  A key that is not
    set, or holds something other than 0 or 1, raises ``MalformedStrategy``.
    """
    values = rows.table.take(columns, axis=1)
    if not set(values.ravel().tolist()) <= {0, 1}:
        for key, column in zip(keys, values.T.tolist()):
            if _UNSET in column:
                raise MalformedStrategy(f"{party} reads key {key!r} before it is set")
        raise MalformedStrategy(f"{party}'s record holds a value that is not a bit under {keys}")
    return values


def _row_operator(rows: _Rows, ops: list[Unitary], party: str, keys: tuple[str, ...],
                  columns: np.ndarray, weights: np.ndarray) -> Unitary:
    """A row's operator: the runs' shared one or its own run's, at its bits under ``keys``."""
    op, index = ops[0], None
    if keys:  # a row's table index: its bits under the keys, the first most significant
        index = _record_bits(rows, party, keys, columns) @ weights
    if any(o is not op for o in ops):   # the runs' operators, stacked run after run
        op, index = type(op).stack(ops), (rows.table[:, _RUN] << len(keys)) + (
            0 if index is None else index)
    return op if index is None else op.take(index)


def _draw(rows, specs, theta, column):
    """A ``Draw``: every row splits into children with the bit 0 and 1 in ``column``."""
    children = np.arange(2 * len(rows.probs))
    parents = children >> 1
    return rows.split(parents, 0.5, rows.states.take(parents), column, children & 1)


def _gate(rows, specs, theta, party, phase, position, wires, keys, columns, weights):
    """An ``Apply``: round ``position`` of each run's ``phase`` program, one ``apply_unitary``."""
    gate = _row_operator(rows, [spec.programs[phase][position].unitary for spec in specs[party]],
                         party, keys, columns, weights)
    try:
        rows.states = apply_unitary(rows.states, gate, wires)
    except qmath.QMathError as exc:
        raise MalformedStrategy(f"bad gate in phase {phase!r}: {exc!r}") from exc
    return rows


def _measure(rows, specs, theta, party, phase, position, wires, column):
    """A ``MeasureRecord``: one ``qmath.measure``, whose outcome indices go to ``column``."""
    measurement = _row_operator(
        rows, [spec.programs[phase][position].measurement for spec in specs[party]], party,
        (), (), ())
    parents, outcomes, probs, states = qmath.measure(rows.states, measurement, wires)
    return rows.split(parents, probs, states, column, outcomes)


def _set_bits(rows, specs, theta, party, keys, columns, writes):
    """A ``SetBits``: per (source, column, wire) of ``writes``, flip the target where the bit is 1.

    A classical target XORs its ``column``; a target in the stack is an X
    gate on its ``wire``, one ``apply_unitary`` call, and none when no row
    flips.  A source is a constant or one of ``keys``.
    """
    bits = dict(zip(keys, _record_bits(rows, party, keys, columns).T == 1)) if keys else {}
    for source, column, wire in writes:
        flips = bits[source] if isinstance(source, str) else np.full(len(rows.probs), bool(source))
        if wire is None:
            rows.table[:, column] ^= flips
        elif flips.any():
            rows.states = apply_unitary(rows.states, _FLIP.take(flips), (wire,))
    return rows


def _read_column(rows, specs, theta, wire_column, column, said):
    """Read a classical message wire of normalized rows: a copy of its bit to two columns.

    The bit goes to the reader's record ``column`` and to the transcript
    position ``said``; the probabilities and states stay as they are.
    """
    bits = rows.table[:, wire_column]
    rows.table[:, column] = bits
    rows.table[:, said] = bits
    return rows


def _read_renormalized(rows, specs, theta, wire_column, column, said):
    """Read a classical message wire after a gate: ``qmath.renormalize`` first.

    The read's one outcome takes its probability and post-state from the
    rows' norms, which divides the gate's rounding out.
    """
    probs, rows.states = qmath.renormalize(rows.states)
    rows.probs = rows.probs * probs
    return _read_column(rows, specs, theta, wire_column, column, said)


def _read_measured(rows, specs, theta, wire, column, said):
    """Read a message wire in the stack: measure it in the computational basis."""
    parents, bits, probs, states = qmath.measure(rows.states, _COMP1, (wire,))  # index = bit
    rows = rows.split(parents, probs, states, column, bits)
    rows.table[:, said] = bits
    return rows


def _check(rows, specs, theta, wire, coin, checker, keys, columns, xor, column, post):
    """Project the deposit on ``wire`` on the encoding (b, x) that the checker's record claims.

    ``keys`` are the checker's b and x keys, then its xor key when ``xor``
    is True.  A failed projection sets the result ``column`` to ERR.  A
    passing one sets it to the claimed bit, XOR the xor key's bit when
    ``xor`` is True (the coin check, where the passing result is b xor b');
    when ``xor`` is False the checker never recorded its xor key and gets no
    result.  Each row is measured in the basis of its own claimed x, at
    ``COIN_THETA`` if ``coin`` and else at ``theta``, all rows in one call.
    Without ``post`` the check closes its branch: ``measure`` computes only
    the outcomes' probabilities, and the rows it returns hold no states.
    """
    claims = _record_bits(rows, checker, keys, columns)
    b = claims[:, 0]
    if xor is None:
        passed = _ZERO - b
    elif xor:
        passed = _ZERO - (b ^ claims[:, 2])
    else:
        passed = np.full(len(b), _UNSET)
    bases = _check_bases(COIN_THETA if coin else theta).take(claims[:, 1])
    parents, outcomes, probs, states = qmath.measure(rows.states, bases, (wire,), post=post)
    verdicts = np.where(outcomes == b[parents], passed[parents], _ERR)  # the outcome index is b
    return rows.split(parents, probs, states, column, verdicts)


def _own(rows, specs, theta, party, keys, columns, column):
    """An honest party's own result: the XOR of its bits under ``keys``, as a verdict code."""
    bits = _record_bits(rows, party, keys, columns)
    rows.table[:, column] = _ZERO - np.bitwise_xor.reduce(bits, axis=1)
    return rows


def _reject(rows, specs, theta, columns):
    """Both verdicts are ERR."""
    rows.table[:, columns] = _ERR
    return rows


# A program ends in ``_end`` or ``_challenge``, which return the parts its
# branches end on: each part is (rows, its ``_LEAVES`` key, the columns of its
# verdicts and transcript).


def _end(rows, specs, theta, leaves, columns) -> list[tuple]:
    return [(rows, leaves, columns)]


def _challenge(rows, specs, theta, judge, key, column, said, branches) -> list[tuple]:
    """The judge's result under ``key`` goes to the transcript and picks each row's branch.

    Each (code, program) of ``branches`` plays on the rows with that
    result, if there are any; a branch no row reaches is not played.
    """
    codes = rows.table[:, column]
    if _UNSET in codes.tolist():
        raise MalformedStrategy(f"{judge} has no {key} result to choose the challenge")
    rows.table[:, said] = codes
    chosen = [(np.flatnonzero(codes == code), branch) for code, branch in branches]
    return [part for members, branch in chosen if len(members)
            for part in _play(rows.take(members), specs, theta, *branch)]


def _steps(rows: _Rows, specs: Mapping[str, Sequence[StrategySpec]], theta: float,
           steps: tuple) -> _Rows:
    """Run compiled ``steps``, each a (step function, arguments) pair, on ``rows``."""
    for step, args in steps:
        rows = step(rows, specs, theta, *args)
    return rows


def _play(rows: _Rows, specs: Mapping[str, Sequence[StrategySpec]], theta: float,
          steps: tuple, end: tuple) -> list[tuple]:
    """Run a program, its ``steps`` and then its ``end``: the parts its branches end on, in order."""
    step, args = end
    return step(_steps(rows, specs, theta, steps), specs, theta, *args)


@dataclass(frozen=True, eq=False)
class _Game:
    """A game as data: its wires, its phase map and its steps.

    ``wires`` is the game's part of the layout; it fixes the amplitude order,
    so it is stated rather than derived from the steps.  ``steps`` is what
    ``_compile`` resolves for a pair of shapes:

    * ``("play", party, phase)``: the party's program for the phase;
    * ``("read", wire, reader, key)``: the reader measures the other party's
      message into its record and the transcript; ``"receive"`` reads only
      for an honest reader;
    * ``("check", wire, checker, b_key, x_key, result, xor_key, coin)``:
      ``_check`` at ``COIN_THETA`` if ``coin``, else at the run's angle; it
      closes its branch when every later step is ``own`` or ``reject``;
    * ``("own", party, result, *bit_keys)``: an honest party's own result,
      the XOR of its bits under ``bit_keys``;
    * ``("reject",)``: both verdicts are ERR;
    * ``("challenge", key, branches)``, last: the honest judge's (Alice when
      she is honest) result under ``key`` goes to the transcript, and each
      (code, steps) of ``branches`` plays on the rows with that result, if any.

    ``one_honest``: at least one party must be honest.  A game is compared by
    identity, so it keys the program cache.
    """

    wires: tuple[str, ...]
    phases: Mapping[str, Mapping[str, tuple[str, ...]]]
    steps: tuple[tuple, ...]
    one_honest: bool


@dataclass(frozen=True, eq=False)
class _Program:
    """A game compiled for one pair of shapes: what ``_batch`` runs on each of its groups.

    ``quantum`` names the stack's wires, which no step changes, and ``root``
    is a root row of the table before its run index and seed are set.
    ``steps`` and ``end`` are the program; the first ``handover`` steps play
    up to the end of the deposit phase, and ``cached_deposit`` says that the
    depositor is honest, so ``_deposit`` takes those steps' rows from cache.
    """

    quantum: tuple[str, ...]
    root: np.ndarray
    steps: tuple
    end: tuple
    handover: int
    cached_deposit: bool


class _Compiler:
    """Resolves a game's steps, for one (Alice shape, Bob shape) pair, to the step functions.

    It checks the pair first, or raises ``MalformedStrategy``: in order, each
    shape's seat and ``validate_strategy``, the wire budget and the
    honest-party rule.  It then fixes the stack: every wire of the layout except the message
    wires that no ``Apply`` or ``MeasureRecord`` names in a phase the game
    plays (``_played``: its ``play`` steps, challenge branches included),
    and each of those gets a table column.  A round of a phase the game
    never plays puts no wire in the stack.  It then walks the steps as every
    run of the pair plays them, and tracks what they change: whether the
    rows are normalized, the record keys some step has set, and the
    transcript header.  It places a table column for each value it meets, and it drops
    the steps that the shapes make no-ops: a dishonest reader's ``receive``
    and a dishonest party's ``own``.  A key counts as set once a step writes
    it; no check's xor key is the seeded ``b``.  What only the data shows
    (a record key unset or not a bit) is found by the step that reads it,
    when it runs.
    """

    def __init__(self, game: _Game, alice: tuple, bob: tuple):
        self.shapes = {"alice": alice, "bob": bob}
        for seat, shape in self.shapes.items():
            if shape[0] != seat:
                raise MalformedStrategy(f"{seat}'s seat holds a {shape[0]!r} strategy")
            validate_strategy(shape, game.phases[seat])
        layout = _ancilla_wires(*alice[:2]) + game.wires + _ancilla_wires(*bob[:2])
        if len(layout) > MAX_TOTAL_WIRES:
            raise MalformedStrategy(
                f"{len(layout)} wires exceed the {MAX_TOTAL_WIRES}-qubit budget")
        if game.one_honest and not (self.honest("alice") or self.honest("bob")):
            raise MalformedStrategy("at least one party must be honest")
        played = _played(game.steps)
        acted = {wire for party, (*_, phases) in self.shapes.items() for phase, rounds in phases
                 if (party, phase) in played for kind, wires, _ in rounds
                 if kind is Apply or kind is MeasureRecord for wire in wires}
        self.stack = tuple(w for w in layout if w not in _MESSAGES or w in acted)
        self.columns: dict = {("", "run"): _RUN, ("alice", "b"): _SEED}   # no party is named ""
        self.messages = [self.column(w) for w in layout if w not in self.stack]
        self.normalized = True
        self.recorded: frozenset = frozenset()
        self.entries: tuple[tuple[str, str], ...] = ()
        self.handover = 0

    def column(self, name) -> int:
        """The column of a classical message wire, a (party, key) or a transcript position."""
        return self.columns.setdefault(name, len(self.columns))

    def reads(self, party: str, keys) -> np.ndarray:
        """The columns of a step that reads ``party``'s ``keys``."""
        return np.array([self.column((party, key)) for key in keys], dtype=np.intp)

    def record(self, party: str, key: str) -> int:
        self.recorded |= {(party, key)}
        return self.column((party, key))

    def tell(self, sender: str, key: str) -> int:
        """The column of a new transcript entry (sender, key)."""
        self.entries += ((sender, key),)
        return self.column(len(self.entries) - 1)

    def honest(self, party: str) -> bool:
        return self.shapes[party][2]

    def program(self, steps: tuple[tuple, ...]) -> tuple[tuple, tuple]:
        """The (steps, end) of a game's step tuple, or of a challenge branch's."""
        out = []
        for i, (op, *args) in enumerate(steps):
            if op == "play":
                out += self.play(*args)
                if steps[i] == _DEPOSIT_STEP:
                    self.handover = len(out)
            elif op == "read" or op == "receive":
                wire, reader, key = args
                if op == "read" or self.honest(reader):
                    out.append(self.read(wire, reader, key))
            elif op == "check":
                closing = all(later[0] in ("own", "reject") for later in steps[i + 1:])
                out.append(self.check(*args, closing))
            elif op == "own":
                party, result, *keys = args
                if self.honest(party):
                    out.append((_own, (party, tuple(keys), self.reads(party, keys),
                                       self.record(party, result))))
            elif op == "reject":
                out.append((_reject, (np.array([self.record(party, "verdict")
                                                for party in ("alice", "bob")]),)))
            else:  # "challenge", the last step
                return tuple(out), self.challenge(*args)
        # Alice's two verdict columns, then Bob's; ``_leaf`` takes the first set one of each
        # two: a party's own, except that against a cheater both read the honest party's
        a, b = (self.column((party, "verdict")) for party in ("alice", "bob"))
        verdicts = {(True, False): [a, b, a, b], (False, True): [b, a, b, a]}.get(
            (self.honest("alice"), self.honest("bob")), [a, b, b, a])
        said = [self.column(i) for i in range(len(self.entries))]
        return tuple(out), (_end, (self.entries, np.array(verdicts + said, dtype=np.intp)))

    def play(self, party: str, phase: str) -> list:
        out = []
        *_, phases = self.shapes[party]
        for position, (kind, wires, keys) in enumerate(dict(phases).get(phase, ())):
            if kind is Draw:   # its signature's keys are its name
                out.append((_draw, (self.record(party, keys),)))
            elif kind is Apply:
                weights = 1 << np.arange(len(keys))[::-1]
                out.append((_gate, (party, phase, position, wires, keys,
                                    self.reads(party, keys), weights)))
                self.normalized = False
            elif kind is MeasureRecord:
                out.append((_measure, (party, phase, position, wires,
                                       self.record(party, keys))))
                self.normalized = True
            else:  # SetBits: its signature's wires are the targets, its keys the sources
                names = tuple(source for source in keys if isinstance(source, str))
                writes = tuple((source, None, wire) if wire in self.stack
                               else (source, self.columns[wire], None)
                               for wire, source in zip(wires, keys))
                out.append((_set_bits, (party, names, self.reads(party, names), writes)))
        return out

    def read(self, wire: str, reader: str, key: str) -> tuple:
        column = self.record(reader, key)
        said = self.tell("alice" if reader == "bob" else "bob", key)
        if wire in self.stack:
            step = _read_measured, (wire, column, said)
        elif self.normalized:
            step = _read_column, (self.columns[wire], column, said)
        else:
            step = _read_renormalized, (self.columns[wire], column, said)
        self.normalized = True
        return step

    def check(self, wire: str, checker: str, b_key: str, x_key: str, result: str,
              xor_key: str | None, coin: bool, closing: bool) -> tuple:
        xor = None if xor_key is None else (checker, xor_key) in self.recorded
        keys = (b_key, x_key, xor_key) if xor else (b_key, x_key)
        self.normalized = True
        return _check, (wire, coin, checker, keys, self.reads(checker, keys), xor,
                        self.record(checker, result), not closing)

    def challenge(self, key: str, branches: tuple) -> tuple:
        judge = "alice" if self.honest("alice") else "bob"
        column, said = self.column((judge, key)), self.tell(key, "result")
        fork = self.normalized, self.recorded, self.entries
        compiled = []
        for code, steps in branches:
            self.normalized, self.recorded, self.entries = fork
            compiled.append((code, self.program(steps)))
        return _challenge, (judge, key, column, said, tuple(compiled))


def _played(steps: tuple[tuple, ...]) -> set[tuple[str, str]]:
    """The (party, phase) pairs that a game's ``steps`` play, challenge branches included."""
    return {tuple(args) for op, *args in steps if op == "play"}.union(*(
        _played(branch) for op, *args in steps if op == "challenge" for _, branch in args[1]))


@functools.lru_cache(maxsize=256)
def _compile(game: _Game, alice: tuple, bob: tuple) -> _Program:
    """``game`` compiled for Alice's and Bob's strategy ``shape``, once per (game, shape pair)."""
    compiler = _Compiler(game, alice, bob)
    quantum = compiler.stack
    steps, end = compiler.program(game.steps)
    root = np.full(len(compiler.columns), _UNSET, dtype=_CODE)
    root[compiler.messages] = 0
    root.setflags(write=False)
    return _Program(quantum, root, steps, end, compiler.handover, compiler.honest("alice"))


def _start(program: _Program, bits: Sequence[int | None]) -> _Rows:
    """The root rows of a shape group: one row per run, in input order.

    Every wire is in |0>: the stack holds the program's quantum wires, and
    each classical message wire's column holds bit 0.  Row r holds its run
    index r, and Alice's record is seeded with ``b = bits[r]`` where that is
    not None.
    """
    amps = np.zeros(2 ** len(program.quantum), dtype=complex)
    amps[0] = 1.0
    n = len(bits)
    # Built through a validated StateVector, so the benchmark's tracer counts each root
    # built: a group with a dishonest depositor, or an honest deposit not yet cached.
    root = StateStack.of(StateVector(program.quantum, amps)).take(np.zeros(n, dtype=np.intp))
    table = np.repeat(program.root[None], n, axis=0)
    table[:, _RUN] = np.arange(n)
    table[:, _SEED] = [_UNSET if b is None else b for b in bits]
    return _Rows(np.ones(n), root, table)


@functools.lru_cache(maxsize=256)
def _honest_deposit(program: _Program, alice: StrategySpec, bit: int | None) -> _Rows:
    """One run's rows at the end of an honest depositor's deposit phase, cached.

    The deposit steps read only the depositor's spec, the seeded bit and the
    program's root row, never the escrow angle (None here) or the receiver.
    A spec is a key by identity, and the entry holds it, so no other spec
    can take its key.  A deposit that raises is not cached, and the arrays
    are read-only.  An entry holds one row per deposit branch (2 for the
    library's honest escrow and composed depositors, 4 for the coin flip's)
    of at most 2^9 amplitudes: at most 32 kB, and 8 MB for 256 entries.
    """
    rows = _steps(_start(program, [bit]), {"alice": [alice]}, None,
                  program.steps[:program.handover])
    rows.probs.setflags(write=False)
    rows.table.setflags(write=False)
    return rows


def _deposit(program: _Program, specs: Mapping[str, Sequence[StrategySpec]], theta: float,
             bits: Sequence[int | None]) -> _Rows:
    """A group's rows at the end of the deposit phase, in run order.

    A group with an honest depositor joins each run's ``_honest_deposit``
    and numbers its rows' runs anew; any other plays from ``_start``.
    """
    if not program.cached_deposit:
        return _steps(_start(program, bits), specs, theta, program.steps[:program.handover])
    parts = [_honest_deposit(program, alice, b) for alice, b in zip(specs["alice"], bits)]
    if len(parts) == 1:   # a run of its own: only the table, which steps write, is copied
        return _Rows(parts[0].probs, parts[0].states, parts[0].table.copy())
    table = np.concatenate([rows.table for rows in parts])
    table[:, _RUN] = np.repeat(np.arange(len(parts)), [len(rows.probs) for rows in parts])
    states = qmath._trusted(program.quantum,
                            np.concatenate([rows.states.amplitudes for rows in parts]))
    return _Rows(np.concatenate([rows.probs for rows in parts]), states, table)


def _seeds(alices: Sequence[StrategySpec], bobs: Sequence[StrategySpec],
           bits: Sequence[int | None] | None) -> Sequence[int | None]:
    """The runs' seeded bits (None for each run when ``bits`` is None), once the runs pair up.

    The depositors, receivers and bits must be sequences of one length, or
    ``ProtocolError`` is raised; each bit must be 0, 1 or None, or
    ``MalformedStrategy`` is.
    """
    if bits is None and hasattr(alices, "__len__"):   # the coin flip seeds no run
        bits = [None] * len(alices)
    for what, runs in (("depositors", alices), ("receivers", bobs), ("seeded bits", bits)):
        if not hasattr(runs, "__len__"):
            raise ProtocolError(f"the {what} are a {type(runs).__name__}, not a sequence of runs")
    if not len(alices) == len(bobs) == len(bits):
        raise ProtocolError(f"{len(alices)} depositors, {len(bobs)} receivers and "
                            f"{len(bits)} seeded bits do not pair up")
    for b in bits:
        if not (b is None or _is_bit(b)):
            raise MalformedStrategy(f"seed {b!r} is not a bit (0 or 1) or None")
    return bits


def _batch(game: _Game, alices: Sequence[StrategySpec], bobs: Sequence[StrategySpec],
           bits: Sequence[int | None] | None, theta: float,
           deposited: Callable[[list[DensityMatrix]], None] | None = None) -> list:
    """``game`` on every run (alices[i], bobs[i], bits[i]), with one stack per shape group.

    The runs whose two specs have the same ``shape`` form a group.  Before any
    branch of any group runs, the runs must pair up and every seed be 0, 1 or
    None (``_seeds``), every seat must hold a ``StrategySpec``, and every
    group's shape pair is compiled (``_compile``), which checks the pair
    against the game.  Each group then plays its program from its rows at
    the end of the deposit phase (``_deposit``), and ``_assemble`` gives one
    distribution per run.  The results come back
    in input order; a run that raises raises for the whole batch.  Every
    runner is its batch of one.

    With ``deposited``, every group first plays up to the end of the deposit
    phase, and ``deposited`` gets each run's reduced state on ``dep`` there,
    in input order, before any group plays on; it may raise.
    """
    bits = _seeds(alices, bobs, bits)
    groups: dict[tuple, list[int]] = {}
    for i, (alice, bob) in enumerate(zip(alices, bobs)):
        if not (isinstance(alice, StrategySpec) and isinstance(bob, StrategySpec)):
            seat, spec = ("bob", bob) if isinstance(alice, StrategySpec) else ("alice", alice)
            raise MalformedStrategy(f"{seat}'s seat holds {spec!r}, not a StrategySpec")
        groups.setdefault((alice.shape, bob.shape), []).append(i)
    programs = [_compile(game, *shapes) for shapes in groups]   # a bad pair stops all groups
    heads, deposits, results = [], {}, [None] * len(bits)
    for program, members in zip(programs, groups.values()):
        specs = {"alice": [alices[i] for i in members], "bob": [bobs[i] for i in members]}
        rows = None
        if deposited:
            rows = _deposit(program, specs, theta, [bits[i] for i in members])
            deposits.update(zip(members, _reduced_deposits(rows, len(members))))
        heads.append((program, members, specs, rows))
    if deposited:
        deposited([deposits[i] for i in range(len(bits))])
    for program, members, specs, rows in heads:
        if rows is None:
            rows = _deposit(program, specs, theta, [bits[i] for i in members])
        parts = _play(rows, specs, theta, program.steps[program.handover:], program.end)
        for i, result in zip(members, _assemble(parts, len(members))):
            results[i] = result
    return results


# ---------------------------------------------------------------------------
# Outcome distributions


@dataclass(frozen=True)
class OutcomeBranch:
    probability: float
    alice_verdict: Verdict
    bob_verdict: Verdict
    transcript: tuple


@dataclass(frozen=True)
class OutcomeDistribution:
    """One leaf per distinct (verdicts, transcript); probabilities sum to 1."""

    branches: tuple[OutcomeBranch, ...]

    def __post_init__(self):
        total = sum(b.probability for b in self.branches)
        if abs(total - 1.0) > 1e-9:
            raise ProtocolError(f"branch probabilities sum to {total}")

    def verdict_probability(self, party: str, verdict: Verdict) -> float:
        if not isinstance(verdict, Verdict):
            raise ProtocolError(f"verdict {verdict!r} is not a Verdict")
        if party == "alice":
            return sum(b.probability for b in self.branches if b.alice_verdict is verdict)
        if party == "bob":
            return sum(b.probability for b in self.branches if b.bob_verdict is verdict)
        raise ProtocolError(f"unknown party {party!r}")

    def transcript_probability(self, entry: tuple) -> float:
        if not (isinstance(entry, tuple) and len(entry) == 3):
            raise ProtocolError(f"transcript entry {entry!r} is not a (sender, key, value) tuple")
        return sum(b.probability for b in self.branches if entry in b.transcript)

    def sample(self, n: int, rng: np.random.Generator) -> dict[tuple[Verdict, Verdict], int]:
        """Multinomial draw of n runs over the enumerated leaves, keyed by verdict pair."""
        probs = np.array([b.probability for b in self.branches])
        counts = rng.multinomial(n, probs / probs.sum())
        out: dict[tuple[Verdict, Verdict], int] = {}
        for b, c in zip(self.branches, counts):
            key = (b.alice_verdict, b.bob_verdict)
            out[key] = out.get(key, 0) + int(c)
        return out


def _leaf(entries: tuple[tuple[str, str], ...], codes: bytes) -> tuple[str, tuple]:
    """The leaf that a row's verdict and transcript codes spell, and its ``repr``.

    The leaf is (Alice's verdict, Bob's verdict, transcript); each verdict
    is the first set code of the party's two verdict columns.
    """
    a, a_else, b, b_else, *said = np.frombuffer(codes, dtype=_CODE).tolist()
    av, bv = a_else if a == _UNSET else a, b_else if b == _UNSET else b
    if av == _UNSET:   # both parties' columns are unset
        raise MalformedStrategy("no verdict was produced on some branch")
    leaf = (_VERDICTS.get(av, av), _VERDICTS.get(bv, bv),
            tuple((sender, key, _SAID.get(v, v)) for (sender, key), v in zip(entries, said)))
    return repr(leaf), leaf


# The ``_leaf`` of each row codes met so far, per transcript header, filled
# by ``_assemble``; a compiled program names each branch's header.  The
# games fix every header, and each value is a bit or a verdict, so the
# games have few distinct leaves.
_LEAVES: dict[tuple, dict[bytes, tuple[str, tuple]]] = {}


def _assemble(parts: list[tuple], runs: int) -> list[OutcomeDistribution]:
    """Each of ``runs`` runs' distribution: a leaf per distinct (verdicts, transcript), in ``repr`` order.

    Each part (rows, ``_LEAVES`` key, columns) reads its rows' verdict and
    transcript codes as one matrix, and
    a dict keyed by each row's bytes keeps every distinct row once, so only
    distinct rows are looked up in the part's ``_LEAVES`` entry.  One
    ``np.bincount`` over (run, leaf) sums the probabilities over every row in
    part and row order, so each run's sums add its rows in the order that run
    alone would, as a branch-by-branch merge would.  A run holds the leaves
    its rows reach.
    """
    leaves: dict[str, tuple[int, tuple]] = {}   # repr -> (index, leaf)
    ids: list[int] = []
    for rows, header, columns in parts:
        codes = rows.table.take(columns, axis=1)
        keys = codes.view(np.dtype((np.void, codes.itemsize * codes.shape[1]))).ravel().tolist()
        known = _LEAVES.setdefault(header, {})
        distinct = dict.fromkeys(keys)   # in the order of first rows
        for key in distinct:
            if key not in known:
                known[key] = _leaf(header, key)
            text, leaf = known[key]
            distinct[key] = leaves.setdefault(text, (len(leaves), leaf))[0]
        ids += map(distinct.__getitem__, keys)
    width = len(leaves)
    run = np.concatenate([rows.table[:, _RUN] for rows, _, _ in parts], dtype=np.intp)
    bins = run * width + np.array(ids, dtype=np.intp)   # (run, leaf)
    sums = np.bincount(bins, np.concatenate([rows.probs for rows, _, _ in parts]),
                       runs * width)
    reached = np.zeros(len(sums), dtype=bool)
    reached[bins] = True
    sums, reached = sums.tolist(), reached.tolist()
    order = [entry for _, entry in sorted(leaves.items())]
    return [OutcomeDistribution(tuple(OutcomeBranch(sums[run + i], *leaf)
                                      for i, leaf in order if reached[run + i]))
            for run in range(0, len(sums), width)]


# ---------------------------------------------------------------------------
# Honest parties: each factory is cached (on the angle it reads from ``params``,
# which raises ``ProtocolError`` on any other type), since a spec is immutable;
# every caller of one shares one spec, so its rounds are built and checked, and
# its shape and ancillas computed, once.


def _encoder(wire: str, theta: float, b_key: str, x_key: str) -> Apply:
    """The table of four rotations, keyed on (b, x), taking |0> on ``wire`` to phi_{b,x}."""
    table = [rotation(bx_angle(b, x, theta)) for b in (0, 1) for x in (0, 1)]
    return Apply((wire,), np.stack(table), keys=(b_key, x_key))


def honest_alice_escrow(params: EscrowParams = EscrowParams()) -> StrategySpec:
    """Deposit phi_{b,x} for the instructed bit b (record-seeded) and random x."""
    return _honest_alice_escrow(_theta_of(params))


@functools.lru_cache(maxsize=256)
def _honest_alice_escrow(theta: float) -> StrategySpec:
    return StrategySpec(
        party="alice", ancilla_count=0, honest=True, label="honest-alice-escrow",
        programs={
            "deposit": (Draw("x"), _encoder("dep", theta, "b", "x")),
            "reveal": (SetBits({"rb": "b", "rx": "x"}),),
            "reveal_bit": (SetBits({"rb": "b"}),),
        },
    )


@functools.lru_cache(maxsize=256)
def honest_bob_escrow() -> StrategySpec:
    return StrategySpec(party="bob", ancilla_count=0, honest=True,
                        label="honest-bob-escrow", programs={})


@functools.lru_cache(maxsize=256)
def honest_alice_coinflip() -> StrategySpec:
    return StrategySpec(
        party="alice", ancilla_count=0, honest=True, label="honest-alice-coinflip",
        programs={
            "deposit": (Draw("b"), Draw("x"), _encoder("dep", COIN_THETA, "b", "x")),
            "reveal": (SetBits({"rb": "b", "rx": "x"}),),
        },
    )


@functools.lru_cache(maxsize=256)
def honest_bob_coinflip() -> StrategySpec:
    return StrategySpec(
        party="bob", ancilla_count=0, honest=True, label="honest-bob-coinflip",
        programs={"choose": (Draw("bprime"), SetBits({"bp": "bprime"}))},
    )


def honest_alice_weak(params: EscrowParams = EscrowParams()) -> StrategySpec:
    return _honest_alice_weak(_theta_of(params))


@functools.lru_cache(maxsize=256)
def _honest_alice_weak(theta: float) -> StrategySpec:
    return StrategySpec(
        party="alice", ancilla_count=0, honest=True, label="honest-alice-weak",
        programs={
            "deposit": (Draw("x"), _encoder("dep", theta, "b", "x")),
            "reveal_bit": (SetBits({"rb": "b"}),),
            "coin_deposit": (Draw("b2"), Draw("x2"), _encoder("dep2", COIN_THETA, "b2", "x2")),
            "coin_reveal": (SetBits({"rb2": "b2", "rx2": "x2"}),),
            "reveal_x": (SetBits({"rx": "x"}),),
        },
    )


@functools.lru_cache(maxsize=256)
def honest_bob_weak() -> StrategySpec:
    return StrategySpec(
        party="bob", ancilla_count=0, honest=True, label="honest-bob-weak",
        programs={"coin_choose": (Draw("bprime"), SetBits({"bp": "bprime"}))},
    )


# ---------------------------------------------------------------------------
# Runners

_ESCROW_PHASES = {
    "alice": {"deposit": ("dep",), "reveal": ("rb", "rx"), "reveal_bit": ("rb",)},
    "bob": {"receive": ("dep",), "return": ("dep",)},
}

_COINFLIP_PHASES = {
    "alice": {"deposit": ("dep",), "reveal": ("bp", "rb", "rx")},
    "bob": {"choose": ("dep", "bp")},
}

_WEAK_PHASES = {
    "alice": {"deposit": ("dep",), "reveal_bit": ("rb",), "coin_deposit": ("dep2",),
              "coin_reveal": ("bp", "rb2", "rx2"), "reveal_x": ("rx",)},
    "bob": {"receive": ("dep",), "coin_choose": ("dep2", "bp"), "return": ("dep",)},
}


def _coin(prefix: str, suffix: str, result: str) -> tuple[tuple, ...]:
    """The coin flip's steps on ``"dep" + suffix``; its phases are ``prefix`` + the coin's.

    Alice deposits, Bob announces b' on ``bp``, Alice claims (b, x) on the
    ``rb``/``rx`` wires with the same suffix.  Bob's deposit check and an
    honest Alice's b xor b' land under ``result``.
    """
    return (("play", "alice", prefix + "deposit"), ("play", "bob", prefix + "choose"),
            ("receive", "bp", "alice", "bprime"), ("play", "alice", prefix + "reveal"),
            ("read", "rb" + suffix, "bob", "b_coin"), ("read", "rx" + suffix, "bob", "x_coin"),
            ("check", "dep" + suffix, "bob", "b_coin", "x_coin", result, "bprime", True),
            ("own", "alice", result, "b" + suffix, "bprime"))


def _reduced_deposits(rows: _Rows, n: int) -> list[DensityMatrix]:
    """Each of ``n`` runs' reduced state on ``dep``: its rows' states, summed in its own order."""
    probs = rows.probs.tolist()
    reduced = partial_trace(rows.states, ("dep",))
    ends = np.searchsorted(rows.table[:, _RUN], np.arange(1, n + 1)).tolist()
    out, start = [], 0
    for end in ends:
        total = sum(probs[start:end])
        m = sum(p / total * r for p, r in zip(probs[start:end], reduced[start:end]))
        out.append(qmath._derived_density(("dep",), m))
        start = end
    return out


_DEPOSIT_STEP = ("play", "alice", "deposit")
_ESCROW_START = (_DEPOSIT_STEP, ("play", "bob", "receive"))
# Alice checks the qubit Bob returned against her own record.
_ALICE_CHECK = ("check", "dep", "alice", "b", "x", "verdict", None, False)

_ESCROW = {
    Challenge.REVEAL_TO_BOB: _Game(("dep", "rb", "rx"), _ESCROW_PHASES, (
        *_ESCROW_START, ("play", "alice", "reveal"), ("read", "rb", "bob", "b"),
        ("read", "rx", "bob", "x"), ("check", "dep", "bob", "b", "x", "verdict", None, False),
        ("own", "alice", "verdict", "b")), False),
    Challenge.RETURN_TO_ALICE: _Game(("dep",), _ESCROW_PHASES, (
        *_ESCROW_START, ("play", "bob", "return"), _ALICE_CHECK), False),
}
_REVEAL_FIRST = _Game(("dep", "rb"), _ESCROW_PHASES, (
    *_ESCROW_START, ("play", "alice", "reveal_bit"), ("read", "rb", "bob", "b_claim"),
    ("play", "bob", "return"), _ALICE_CHECK), False)
_COINFLIP = _Game(("dep", "bp", "rb", "rx"), _COINFLIP_PHASES, _coin("", "", "verdict"), True)
# Coin result 1 challenges Alice to reveal x, 0 challenges Bob to return the
# qubit, and err rejects; the parts in the order err, 1, 0 fix each leaf's sum order.
_WEAK = _Game(("dep", "rb", "rx", "dep2", "bp", "rb2", "rx2"), _WEAK_PHASES, (
    *_ESCROW_START, ("play", "alice", "reveal_bit"), ("read", "rb", "bob", "b_claim"),
    *_coin("coin_", "2", "coin"),
    ("challenge", "coin", (
        (_ERR, (("reject",),)),
        (_ONE, (("play", "alice", "reveal_x"), ("read", "rx", "bob", "x_claim"),
                ("check", "dep", "bob", "b_claim", "x_claim", "verdict", None, False),
                ("own", "alice", "verdict", "b"))),
        (_ZERO, (("play", "bob", "return"), _ALICE_CHECK,
                 ("own", "bob", "verdict", "b_claim")))))), True)


def _escrow_game(challenge: Challenge) -> _Game:
    if not isinstance(challenge, Challenge):
        raise ProtocolError(f"challenge {challenge!r} is not a Challenge")
    return _ESCROW[challenge]


def run_escrow(alice: StrategySpec, bob: StrategySpec, challenge: Challenge,
               claimed_bit: int | None = None,
               params: EscrowParams = EscrowParams()) -> OutcomeDistribution:
    """Exact outcome distribution of the escrow game under one fixed challenge.

    ``claimed_bit`` seeds the depositor's classical record with ``b``; the
    honest strategy reads it, a dishonest one may ignore it.  The challenge is
    an external input because the two verification games are analyzed
    separately; challenge selection only becomes part of the composed game in
    ``run_weak_commitment``.  In the return challenge the depositor's record
    must contain ``b`` and ``x`` (honest strategies record them) or the run
    fails with ``MalformedStrategy``.
    """
    return _batch(_escrow_game(challenge), [alice], [bob], [claimed_bit], _theta_of(params))[0]


def run_escrow_batch(alices: Sequence[StrategySpec], bobs: Sequence[StrategySpec],
                     challenge: Challenge, claimed_bits: Sequence[int | None],
                     params: EscrowParams,
                     deposited: Callable[[list[DensityMatrix]], None] | None = None
                     ) -> list[OutcomeDistribution]:
    """``run_escrow`` of each (alices[i], bobs[i], claimed_bits[i]), in input order (``_batch``).

    ``deposited`` gets each run's reduced deposit as ``_batch`` says: for an
    unseeded run against the honest receiver, its ``deposit_reduced_state``.
    """
    return _batch(_escrow_game(challenge), alices, bobs, claimed_bits, _theta_of(params),
                  deposited)


def run_escrow_reveal_then_return(alice: StrategySpec, bob: StrategySpec,
                                  claimed_bit: int | None = None,
                                  params: EscrowParams = EscrowParams()
                                  ) -> OutcomeDistribution:
    """Modified return game: the bit is revealed before the qubit comes back.

    Bob may condition the unitary in his ``return`` program on the revealed
    bit, which lands in his record under ``b_claim``.
    """
    return _batch(_REVEAL_FIRST, [alice], [bob], [claimed_bit], _theta_of(params))[0]


def run_escrow_reveal_then_return_batch(alices: Sequence[StrategySpec],
                                        bobs: Sequence[StrategySpec],
                                        claimed_bits: Sequence[int | None],
                                        params: EscrowParams) -> list[OutcomeDistribution]:
    """``run_escrow_reveal_then_return`` of each run, in input order (``_batch``)."""
    return _batch(_REVEAL_FIRST, alices, bobs, claimed_bits, _theta_of(params))


def run_coinflip(alice: StrategySpec, bob: StrategySpec) -> OutcomeDistribution:
    """Exact outcome distribution of the biased coin flip (theta = pi/8).

    Alice deposits phi_{b,x} with b, x uniform; Bob announces b'; Alice
    reveals (b, x); Bob checks the deposit against the claim.  The result is
    err if the check catches the revealer and b xor b' otherwise; an honest
    revealer is never caught, so her result is always b xor b'.
    """
    return _batch(_COINFLIP, [alice], [bob], None, COIN_THETA)[0]


def run_coinflip_batch(alices: Sequence[StrategySpec], bobs: Sequence[StrategySpec]
                       ) -> list[OutcomeDistribution]:
    """``run_coinflip`` of each (alices[i], bobs[i]), in input order (``_batch``)."""
    return _batch(_COINFLIP, alices, bobs, None, COIN_THETA)


def run_weak_commitment(alice: StrategySpec, bob: StrategySpec, deposited_bit: int,
                        params: EscrowParams = EscrowParams()) -> OutcomeDistribution:
    """Deposit, reveal the bit, play the embedded coin flip, challenge the loser.

    Coin result 1 sends the depositor to the reveal-x check, coin result 0
    sends the receiver to the return-the-qubit check; a coin result of err
    rejects outright.  The coin result is the honest party's own.  This runner
    provides the mechanics of the composition only; no security property is
    claimed for it.
    """
    return _batch(_WEAK, [alice], [bob], [deposited_bit], _theta_of(params))[0]


def deposit_reduced_state(alice: StrategySpec) -> DensityMatrix:
    """Reduced density matrix on the deposit wire right after the deposit phase.

    Whatever the depositor later does cannot change this state, so it is the
    object that binds her; strategy pairs must agree on it to be comparable.
    It is ``run_escrow_batch``'s hand-over in a batch of one: the reveal game
    against the honest receiver, no bit seeded.  The opening plays too, so a
    deposit or opening that raises there raises here, as in ``binding_metrics``.
    ``escrow_bit_density`` is the honest deposit's state.
    """
    out: list[DensityMatrix] = []
    run_escrow_batch([alice], [honest_bob_escrow()], Challenge.REVEAL_TO_BOB, [None],
                     EscrowParams(), deposited=out.extend)
    return out[0]
