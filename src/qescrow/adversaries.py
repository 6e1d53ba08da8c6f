"""Cheating strategies: explicit constructions and a seeded optimizer.

Two closed-form attacks are built here:

* ``alice_quadratic`` -- the depositor delays her choice by escrowing half of
  an entangled superposition of two maximally parallel purifications, then
  decides the bit by measuring her control qubit in a rotated basis.  It
  takes one encoding table, ``escrow_encoding(theta)`` or a caller's: the bit
  densities and the claimed realizations both come from it.  With
  fidelity f between the two bit encodings this buys advantage
  sqrt(f) sin(2a)/2 at detection probability (1-f) sin^2(a), half of which
  sits on each of the two claim branches.

* ``bob_weak_measurement`` -- the receiver couples the deposit to a one-qubit
  ancilla, writing sqrt(1-p)|0> + sqrt(p)|1> on the negative eigenspace of
  the encoding difference.  His kept ancilla then carries trace distance
  t sqrt(p) (t = full trace distance) while the return check catches him with
  probability at most (1 - sqrt(1-p))/2.

The rest of the module is a parameterized adversary space (two-level Euler
angles), strategy factories for seeded random sweeps, and a derivative-free
optimizer (coarse grid seeding + Nelder-Mead refinement) whose trace log
records every evaluated point, so identical seeds give identical logs.
"""

from __future__ import annotations

import itertools
import math
import numbers
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from . import qmath
from .qmath import (
    DensityMatrix,
    OrthogonalMeasurement,
    StateVector,
    hermitian_eig,
    maximally_parallel_purifications,
    local_purification_transform,
    optimal_distinguishing_measurement,
    state_preparation_unitary,
)
from .protocols import (
    COIN_THETA,
    Apply,
    EscrowParams,
    MalformedStrategy,
    MeasureRecord,
    OutcomeDistribution,
    SetBits,
    StrategySpec,
    Verdict,
    _is_bit,
    _theta_of,
    bit_density,
    escrow_bit_density,
    escrow_encoding,
    rotation,
)

_COMP1 = OrthogonalMeasurement.computational(1)
# The sweep builders' fixed rounds, each built and checked once and shared by
# every strategy that plays it: a batch applies one shared gate, not N copies.
_CNOT_BP_RB = Apply(("bp", "rb"), np.eye(4)[[0, 1, 3, 2]].astype(complex))   # rb ^= bp
_CLAIM_X = (MeasureRecord(("a0",), _COMP1, "mx"), SetBits({"rx": "mx"}))
_ANNOUNCE_GUESS = SetBits({"bp": "guess"})
_GUESS_FROM_C0 = MeasureRecord(("c0",), _COMP1, "guess")
_CLAIM_BX = (MeasureRecord(("a0",), _COMP1, "mb"), MeasureRecord(("a1",), _COMP1, "mx"),
             SetBits({"rb": "mb", "rx": "mx"}))


class AdversaryError(Exception):
    pass


class BadParameterCount(AdversaryError):
    pass


# ---------------------------------------------------------------------------
# The depositor's quadratic strategy


@dataclass(frozen=True)
class AliceQuadraticParams:
    """Control-basis angle in [0, pi/4] and the bit the strategy biases toward.

    ``target_bit=0`` measures the control in the rotated {phi_a, phi_a-perp}
    basis; ``target_bit=1`` is the honest delayed choice (computational
    basis).  At alpha=0 the two coincide.
    """

    alpha: float
    target_bit: int = 0

    def __post_init__(self):
        alpha = self.alpha
        if not (isinstance(alpha, numbers.Real) and 0.0 <= alpha <= math.pi / 4 + 1e-12):
            raise AdversaryError(f"alpha {alpha!r} outside [0, pi/4]")
        if not _is_bit(self.target_bit):
            raise AdversaryError(f"target_bit {self.target_bit!r} is not 0 or 1")


def alice_quadratic(params: AliceQuadraticParams, encoding: np.ndarray) -> StrategySpec:
    """Delayed-choice depositor with a rotated control measurement, for an encoding table.

    Deposits register B of |beta> = (|0>|psi0> + |1>|psi1>)/sqrt(2), where
    psi0, psi1 are maximally parallel purifications of r0, r1 (``bit_density``
    of the table) on (control, work, deposit) wires (a0, a1, dep).  At reveal
    time the control is measured (rotated basis for the zero strategy), the
    work register is rotated onto the claimed row of the table, and the
    outcome pair is sent as the claim (b, x).  The table, checked once, is
    (2, 2, 2) with finite states of norm 1 within 1e-10, or ``AdversaryError``.
    """
    try:
        table = np.asarray(encoding, dtype=complex)
        if table.shape != (2, 2, 2):
            raise AdversaryError(f"an encoding table has shape (2, 2, 2), not {table.shape}")
        qmath._check_norms(table.reshape(4, 2))   # a NaN or infinite entry fails too
    except (TypeError, ValueError, qmath.QMathError) as exc:
        raise AdversaryError(f"bad encoding table: {exc}") from None
    psi0, psi1 = (StateVector(("a1", "dep"), psi.amplitudes) for psi in
                  maximally_parallel_purifications(bit_density(table, 0), bit_density(table, 1)))

    def realization_target(row: np.ndarray) -> StateVector:
        amps = math.sqrt(0.5) * row.reshape(-1)   # (x, dep): each state of the row at weight 1/2
        return StateVector(("a1", "dep"), amps / np.linalg.norm(amps))

    u_open = [local_purification_transform(psi, realization_target(row), ("a1",))
              for psi, row in zip((psi0, psi1), table)]
    beta = (np.kron([1, 0], psi0.amplitudes) + np.kron([0, 1], psi1.amplitudes)) / math.sqrt(2)
    prep = state_preparation_unitary(beta)

    # Control rotated so the claim basis becomes computational, then the
    # claim-controlled opening rotation, then both registers are read out.
    basis_fix = rotation(params.alpha).conj().T if params.target_bit == 0 else np.eye(2)
    ctrl_open = np.zeros((4, 4), dtype=complex)
    ctrl_open[:2, :2] = u_open[0]
    ctrl_open[2:, 2:] = u_open[1]
    return StrategySpec(
        party="alice", ancilla_count=2,
        label=f"alice-quadratic(alpha={params.alpha:.6g},target={params.target_bit})",
        programs={
            "deposit": (Apply(("a0", "a1", "dep"), prep),),
            "reveal": (
                Apply(("a0",), basis_fix),
                Apply(("a0", "a1"), ctrl_open),
                MeasureRecord(("a0",), _COMP1, "claim_b"),
                MeasureRecord(("a1",), _COMP1, "claim_x"),
                SetBits({"rb": "claim_b", "rx": "claim_x"}),
            ),
        },
    )


def protocol_quadratic_pair(alpha: float, params: EscrowParams = EscrowParams()
                            ) -> tuple[StrategySpec, StrategySpec]:
    """(zero strategy at alpha, honest delayed one strategy) for the escrow encoding."""
    table = escrow_encoding(_theta_of(params))
    return (alice_quadratic(AliceQuadraticParams(alpha, 0), table),
            alice_quadratic(AliceQuadraticParams(alpha, 1), table))


# ---------------------------------------------------------------------------
# The receiver's weak measurement


@dataclass(frozen=True)
class BobWeakParams:
    """Measurement strength p in [0, 1]; p=1 is the full eigenbasis measurement."""

    p: float

    def __post_init__(self):
        if not (isinstance(self.p, numbers.Real) and 0.0 <= self.p <= 1.0):
            raise AdversaryError(f"p {self.p!r} outside [0, 1]")


def weak_measurement_unitary(r0: DensityMatrix, r1: DensityMatrix, p: float) -> np.ndarray:
    """U on (message x one-qubit ancilla): identity on the nonnegative eigenspace
    of r0 - r1, ancilla write sqrt(1-p)|0> + sqrt(p)|1> on the negative one.

    The never-reached |e,1> fibers are completed by a reflection; any other
    unitary completion gives the same amplitudes on every reachable branch.
    """
    if r0.wires != r1.wires:
        raise qmath.WireMismatch("attack targets live on different wires")
    p = BobWeakParams(p).p   # a strength in [0, 1], or AdversaryError
    vals, vecs = hermitian_eig(r0.matrix - r1.matrix)
    sp, sq = math.sqrt(1.0 - p), math.sqrt(p)
    anc = np.array([[sp, sq], [sq, -sp]], dtype=complex)
    u = np.zeros((2 * r0.dim, 2 * r0.dim), dtype=complex)
    for i in range(r0.dim):
        e = vecs[:, i]
        block = np.eye(2) if vals[i] >= 0 else anc
        u += np.kron(np.outer(e, e.conj()), block)
    return u


def bob_weak_measurement(params: BobWeakParams, r0: DensityMatrix, r1: DensityMatrix
                         ) -> StrategySpec:
    """Receiver strategy: couple the deposit to ancilla c0 on receipt, return it."""
    if r0.dim != 2:
        raise AdversaryError("the escrow game deposits a single qubit")
    u = weak_measurement_unitary(r0, r1, params.p)
    return StrategySpec(
        party="bob", ancilla_count=1, label=f"bob-weak(p={params.p:.6g})",
        programs={"receive": (Apply(("dep", "c0"), u),)},
    )


def full_measurement_bob() -> StrategySpec:
    """Coin-flip receiver who measures the deposit in the eigenbasis of the
    encoding difference and announces the maximum-likelihood guess."""
    # the eigenvalues come in descending order, so outcome 0 (guess 0) is the
    # nonnegative one and outcome 1 the negative one: outcome index = guess
    meas, _ = optimal_distinguishing_measurement(
        escrow_bit_density(0, COIN_THETA), escrow_bit_density(1, COIN_THETA))
    return StrategySpec(
        party="bob", ancilla_count=0, label="bob-full-measurement",
        programs={"choose": (MeasureRecord(("dep",), meas, "guess"), _ANNOUNCE_GUESS)},
    )


# ---------------------------------------------------------------------------
# Angle parameterizations


def _angles(angles: Sequence[float]) -> np.ndarray:
    """Angles as a float array; a value that is not a real number raises ``AdversaryError``."""
    try:
        values = np.asarray(angles)
        if values.dtype.kind in "iuf":
            return values.astype(float, copy=False)
    except ValueError:   # a ragged sequence
        pass
    raise AdversaryError(f"angles {angles!r} are not real numbers")


def unitary_from_angles(dim: int, angles: Sequence[float]) -> np.ndarray:
    """Euler-style product of two-level rotations; 3 angles per index pair.

    Each pair (i, j) contributes a Givens rotation by the first angle with
    the two row phases given by the other two; all-zero angles give the
    identity and (t, 0, 0) on dim 2 is the plane rotation by t.
    """
    angles = _angles(angles)
    expected = 3 * dim * (dim - 1) // 2
    if angles.shape != (expected,):
        raise BadParameterCount(f"dim {dim} needs {expected} angles, got {angles.shape}")
    u = np.eye(dim, dtype=complex)
    k = 0
    for i in range(dim):
        for j in range(i + 1, dim):
            t, ph_i, ph_j = angles[k:k + 3]
            k += 3
            g = np.eye(dim, dtype=complex)
            c, s = math.cos(t), math.sin(t)
            g[i, i] = c * np.exp(1j * ph_i)
            g[i, j] = -s * np.exp(1j * ph_i)
            g[j, i] = s * np.exp(1j * ph_j)
            g[j, j] = c * np.exp(1j * ph_j)
            u = g @ u
    return u


def state_from_angles(dim: int, angles: Sequence[float]) -> np.ndarray:
    """Unit vector from 2(dim-1) hyperspherical angles (component 0 real)."""
    angles = _angles(angles)
    if angles.shape != (2 * (dim - 1),):
        raise BadParameterCount(f"dim {dim} needs {2 * (dim - 1)} angles")
    thetas, phases = angles[:dim - 1], angles[dim - 1:]
    amps = np.zeros(dim, dtype=complex)
    rest = 1.0
    for k in range(dim - 1):
        phase = 1.0 if k == 0 else np.exp(1j * phases[k - 1])
        amps[k] = rest * math.cos(thetas[k]) * phase
        rest *= math.sin(thetas[k])
    amps[dim - 1] = rest * np.exp(1j * phases[dim - 2])
    return amps


# ---------------------------------------------------------------------------
# Strategy factories for sweeps


def constant_bob(bit: int) -> StrategySpec:
    """Coin-flip receiver who always announces the same bit: 0 or 1, by the seed rule."""
    if not _is_bit(bit):
        raise MalformedStrategy(f"a constant receiver announces 0 or 1, not {bit!r}")
    return StrategySpec(
        party="bob", ancilla_count=0, label=f"bob-constant-{bit}",
        programs={"choose": (SetBits({"bp": bit}),)},
    )


def bob_measure_coinflip(u2: np.ndarray) -> StrategySpec:
    """Coin-flip receiver measuring the deposit in the basis given by u2's columns."""
    return StrategySpec(
        party="bob", ancilla_count=0, label="bob-basis-measurement",
        programs={"choose": (MeasureRecord(("dep",), OrthogonalMeasurement(u2), "guess"),
                             _ANNOUNCE_GUESS)},
    )


def bob_entangling_coinflip(u8: np.ndarray) -> StrategySpec:
    """Coin-flip receiver coupling the deposit to two ancillas, guessing from c0."""
    return StrategySpec(
        party="bob", ancilla_count=2, label="bob-entangling",
        programs={"choose": (Apply(("dep", "c0", "c1"), u8), _GUESS_FROM_C0, _ANNOUNCE_GUESS)},
    )


def alice_coinflip_from_angles(angles: Sequence[float]) -> StrategySpec:
    """12-angle coin-flip depositor: 6 angles prepare the (a0, dep) state, then
    per received coin bit a 3-angle basis measurement of a0 picks the claimed x;
    the claimed bit is the received bit."""
    angles = _angles(angles)
    if angles.shape != (12,):
        raise BadParameterCount("the coin-flip depositor space has 12 angles")
    prep = state_preparation_unitary(state_from_angles(4, angles[:6]))
    v0 = unitary_from_angles(2, angles[6:9])
    v1 = unitary_from_angles(2, angles[9:12])
    ctrl_basis = np.zeros((4, 4), dtype=complex)
    ctrl_basis[:2, :2] = v0.conj().T
    ctrl_basis[2:, 2:] = v1.conj().T
    return StrategySpec(
        party="alice", ancilla_count=1, label="alice-angles",
        programs={
            "deposit": (Apply(("a0", "dep"), prep),),
            "reveal": (_CNOT_BP_RB, Apply(("bp", "a0"), ctrl_basis), *_CLAIM_X),
        },
    )


# Deposit |0>|phi_{pi/4}> and claim (b', x=1-b'); the best product-state cheat.
ALICE_SEED_POINT = (math.pi / 4, 0.0, 0.0, 0.0, 0.0, 0.0,
                    math.pi / 2, 0.0, 0.0, 0.0, 0.0, 0.0)


def random_binding_pair(rng: np.random.Generator) -> tuple[StrategySpec, StrategySpec]:
    """Two depositor strategies sharing one deposit but opening differently.

    The shared deposit is a Haar-random pure state on (a0, a1, dep), one
    round that both sides hold; each side of the pair rotates the private
    registers by its own random unitary before reading the claim bits off them.
    """
    deposit = (Apply(("a0", "a1", "dep"), state_preparation_unitary(
        qmath.random_state(("a0", "a1", "dep"), rng).amplitudes)),)

    def one_side(u4: np.ndarray) -> StrategySpec:
        return StrategySpec(
            party="alice", ancilla_count=2, label="alice-random-opening",
            programs={
                "deposit": deposit,
                "reveal": (Apply(("a0", "a1"), u4), *_CLAIM_BX),
            },
        )

    return one_side(qmath.random_unitary(4, rng)), one_side(qmath.random_unitary(4, rng))


def random_return_attack(rng: np.random.Generator, ancillas: int = 2) -> StrategySpec:
    """Haar-random unitary coupling the deposit to `ancillas` fresh qubits."""
    wires = ("dep",) + tuple(f"c{i}" for i in range(ancillas))
    u = qmath.random_unitary(2 ** len(wires), rng)
    return StrategySpec(
        party="bob", ancilla_count=ancillas, label="bob-random-return",
        programs={"receive": (Apply(wires, u),)},
    )


# ---------------------------------------------------------------------------
# Derivative-free optimizer


@dataclass(frozen=True)
class ParameterSpace:
    """A continuous family of strategies: a builder of ``dim`` angles, each in [0, pi]."""

    dim: int
    build: Callable[[np.ndarray], StrategySpec]


def bob_coinflip_space() -> ParameterSpace:
    """A receiver measuring the deposit in the basis ``unitary_from_angles(2, x)``.

    Only the first angle moves the objective.  The other two are phases that
    leave the outcome probabilities, and so the win probability, unchanged up
    to round-off.  Nelder-Mead's comparisons between vertices that differ
    only in those angles are therefore ties decided by round-off.
    """
    return ParameterSpace(3, lambda x: bob_measure_coinflip(unitary_from_angles(2, x)))


def alice_coinflip_space() -> ParameterSpace:
    return ParameterSpace(12, alice_coinflip_from_angles)


@dataclass(frozen=True)
class OptimizerConfig:
    """Search budget; everything downstream of `seed` is deterministic.

    The objective is the adversary's win probability: the larger of the honest
    party's probabilities of verdict 0 and verdict 1.
    """

    honest_party: str = "alice"      # whose verdict defines the win
    grid_resolution: int = 3
    simplex_iterations: int = 200
    n_starts: int = 3
    seed: int = 0


@dataclass(frozen=True)
class OptimizeResult:
    best_params: tuple[float, ...]
    best_value: float
    trace: tuple[tuple[tuple[float, ...], float], ...]


def _objective_value(dist: OutcomeDistribution, config: OptimizerConfig) -> float:
    party = config.honest_party
    return max(dist.verdict_probability(party, Verdict.ZERO),
               dist.verdict_probability(party, Verdict.ONE))


class _BudgetSpent(Exception):
    """The search asked for one evaluation more than its budget."""


def _nelder_mead(func: Callable[[np.ndarray], float], x0: np.ndarray,
                 maxfev: int) -> tuple[np.ndarray, float]:
    """Minimize ``func`` from ``x0`` within ``maxfev`` evaluations; returns ``(x, f(x))``.

    This is SciPy's ``minimize(method="Nelder-Mead")`` with ``xatol`` 1e-7
    and ``fatol`` 1e-12 (non-adaptive, unbounded), reproduced operation for
    operation: the same initial simplex (each entry scaled by 1.05, or
    0.00025 for a zero entry), the same reflection, expansion, contraction
    and shrink arithmetic, the same ``argsort`` re-sorts, and a budget that
    ends the search mid-iteration.  It evaluates exactly the points SciPy
    does, in the same order, and returns the same bits.  That bit identity
    is what keeps the search path, and with it the trace, stable: the
    receiver objective is flat in two of its three angles (see
    `bob_coinflip_space`), so ties between vertices are decided by
    round-off, and any other arithmetic would take another path.  The
    equivalence with SciPy is tested in ``tests/test_adversaries.py``.
    """
    n = len(x0)
    sim = np.tile(x0, (n + 1, 1))
    for k in range(n):
        sim[k + 1, k] = 1.05 * x0[k] if x0[k] != 0 else 0.00025
    fsim = np.full(n + 1, np.inf)
    calls = 0

    def f(x: np.ndarray) -> float:
        nonlocal calls
        if calls >= maxfev:
            raise _BudgetSpent
        calls += 1
        return func(np.copy(x))

    def ordered(sim, fsim):
        ind = np.argsort(fsim)
        return np.take(sim, ind, 0), np.take(fsim, ind, 0)

    try:
        for k in range(n + 1):
            fsim[k] = f(sim[k])
    except _BudgetSpent:
        pass
    # Sorted twice, as SciPy does: argsort is not stable, so a second sort
    # may reorder tied vertices.
    sim, fsim = ordered(*ordered(sim, fsim))

    while calls < maxfev:
        try:
            if (np.max(np.abs(sim[1:] - sim[0])) <= 1e-7
                    and np.max(np.abs(fsim[0] - fsim[1:])) <= 1e-12):
                break
            xbar = np.add.reduce(sim[:-1], 0) / n
            xr = 2 * xbar - sim[-1]
            fxr = f(xr)
            shrink = False
            if fxr < fsim[0]:
                xe = 3 * xbar - 2 * sim[-1]
                fxe = f(xe)
                sim[-1], fsim[-1] = (xe, fxe) if fxe < fxr else (xr, fxr)
            elif fxr < fsim[-2]:
                sim[-1], fsim[-1] = xr, fxr
            elif fxr < fsim[-1]:
                xc = 1.5 * xbar - 0.5 * sim[-1]
                fxc = f(xc)
                if fxc <= fxr:
                    sim[-1], fsim[-1] = xc, fxc
                else:
                    shrink = True
            else:
                xcc = 0.5 * xbar + 0.5 * sim[-1]
                fxcc = f(xcc)
                if fxcc < fsim[-1]:
                    sim[-1], fsim[-1] = xcc, fxcc
                else:
                    shrink = True
            if shrink:
                for j in range(1, n + 1):
                    sim[j] = sim[0] + 0.5 * (sim[j] - sim[0])
                    fsim[j] = f(sim[j])
        except _BudgetSpent:
            pass
        sim, fsim = ordered(sim, fsim)
    return sim[0], np.min(fsim)


def optimize(space: ParameterSpace, config: OptimizerConfig,
             evaluator: Callable[[StrategySpec], OutcomeDistribution],
             extra_seeds: Sequence[Sequence[float]] = ()) -> OptimizeResult:
    """Grid-seeded Nelder-Mead maximization over a strategy space, seeded in [0, pi]^dim.

    Every evaluated point is appended to the trace in evaluation order; ties
    in the best value are broken toward the lexicographically smaller
    parameter vector, so results are seed-stable regardless of refinements.
    """
    trace: list[tuple[tuple[float, ...], float]] = []

    def evaluate(x: np.ndarray) -> float:
        v = _objective_value(evaluator(space.build(np.asarray(x, dtype=float))), config)
        trace.append((tuple(float(t) for t in x), float(v)))
        return v

    g = max(config.grid_resolution, 1)
    if g ** space.dim <= 729:
        axes = [np.linspace(0.0, math.pi, g)] * space.dim
        seeds = [np.array(pt) for pt in itertools.product(*axes)]
    else:
        rng = np.random.default_rng(config.seed)
        seeds = [rng.uniform(0.0, math.pi, space.dim) for _ in range(128)]
    seeds += [np.asarray(s, dtype=float) for s in extra_seeds]

    scored = [(evaluate(x), tuple(float(t) for t in x)) for x in seeds]
    scored.sort(key=lambda sv: (-sv[0], sv[1]))
    best_value, best_params = scored[0]

    for _, start in scored[:max(config.n_starts, 1)]:
        x, fun = _nelder_mead(lambda x: -evaluate(x), np.array(start), config.simplex_iterations)
        value, params = -float(fun), tuple(float(t) for t in x)
        if value > best_value + 1e-15 or (abs(value - best_value) <= 1e-15
                                          and params < best_params):
            best_value, best_params = value, params
    return OptimizeResult(best_params, best_value, tuple(trace))

