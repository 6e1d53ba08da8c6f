"""The executor reaches the kernels through the module attributes that wrappers can replace.

A profiler or tracer that wraps ``qmath.measure`` and ``qmath.apply_unitary``
(and the ``protocols`` aliases of ``apply_unitary`` and ``partial_trace``)
must see every run's kernel calls, and must not change any outcome.  The
same kind of wrapper on ``qmath.is_unitary`` shows that a run does not check a
gate, or a record-dependent table of gates, again once its round is built, nor
a batch the stack of its runs' gates and bases.  On ``qmath.renormalize`` it
shows that only a read after a gate renormalizes, on
``protocols.validate_strategy`` that a pair of shapes is checked once per
batch, and on ``qmath.measure`` that a batch's strategies and seeds are all
checked before any branch runs.  The kernel calls of the composed game show
that a challenge branch that no row reaches is not played, and those of a
binding pair that its deposit is played once.  A classical write on a wire
in the stack is one ``apply_unitary`` call, and like any move of amplitudes
it leaves the rows normalized.  Every kernel call of a run sees one stack,
which its program fixed: a message wire that a round acts on is in it from
the root row on, at its layout position.  A game is compiled once per pair
of shapes, and its program reaches the kernels through the module
attributes, so a wrapper installed after the pair was compiled sees every
call.
"""

import numpy as np
import pytest

from helpers import weak_alice_every_coin_err
from qescrow import adversaries, analysis, protocols, qmath
from qescrow.protocols import (
    COIN_THETA,
    Apply,
    Challenge,
    Draw,
    EscrowParams,
    MeasureRecord,
    SetBits,
    StrategySpec,
    honest_alice_coinflip,
    honest_alice_escrow,
    honest_alice_weak,
    honest_bob_coinflip,
    honest_bob_escrow,
    honest_bob_weak,
    rotation,
)

RUNS = {
    "escrow": lambda: protocols.run_escrow(honest_alice_escrow(), honest_bob_escrow(),
                                           Challenge.REVEAL_TO_BOB, 1),
    "reveal_then_return": lambda: protocols.run_escrow_reveal_then_return(
        honest_alice_escrow(), honest_bob_escrow(), 0),
    "coinflip": lambda: protocols.run_coinflip(honest_alice_coinflip(), honest_bob_coinflip()),
    "weak_commitment": lambda: protocols.run_weak_commitment(honest_alice_weak(),
                                                             honest_bob_weak(), 1),
}


def test_protocols_aliases_are_the_kernels():
    assert protocols.apply_unitary is qmath.apply_unitary
    assert protocols.partial_trace is qmath.partial_trace


@pytest.mark.parametrize("runner", sorted(RUNS))
def test_wrapped_kernels_see_every_runner(runner, monkeypatch):
    unwrapped = RUNS[runner]()
    calls = {"measure": 0, "apply_unitary": 0}

    def counting(name, kernel):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return kernel(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(qmath, "measure", counting("measure", qmath.measure))
    apply_unitary = counting("apply_unitary", qmath.apply_unitary)
    monkeypatch.setattr(qmath, "apply_unitary", apply_unitary)
    monkeypatch.setattr(protocols, "apply_unitary", apply_unitary)
    assert RUNS[runner]() == unwrapped
    assert calls["measure"] > 0 and calls["apply_unitary"] > 0


@pytest.mark.parametrize("runner", sorted(RUNS))
def test_wrappers_installed_after_a_pair_compiled_see_every_kernel_call(runner, monkeypatch):
    # a compiled program looks each kernel up when it runs, so it holds none of them
    protocols._compile.cache_clear()
    while_compiling = _record_kernel_calls(monkeypatch)
    unwrapped = RUNS[runner]()   # compiles the pair with the wrappers in place
    monkeypatch.undo()
    RUNS[runner]()
    after = _record_kernel_calls(monkeypatch)
    assert RUNS[runner]() == unwrapped
    assert after == while_compiling != []


def test_a_shape_pair_compiles_once():
    protocols._compile.cache_clear()
    rng = np.random.default_rng(13)
    for _ in range(100):   # single runs of one shape pair
        protocols.run_coinflip(honest_alice_coinflip(),
                               _receiver(Apply(("dep",), qmath.random_unitary(2, rng))))
    assert protocols._compile.cache_info()[:2] == (99, 1)   # (hits, misses)
    protocols.run_coinflip(honest_alice_coinflip(), _receiver())   # a second shape
    assert protocols._compile.cache_info()[:2] == (99, 2)
    assert protocols._compile.cache_info().maxsize is not None   # the cache is bounded


@pytest.mark.parametrize("runner", sorted(RUNS))
def test_honest_messages_stay_out_of_the_kernels(runner, monkeypatch):
    # honest parties only write and read the message wires, so those stay classical bits
    seen = _record_stack_wires(monkeypatch)
    RUNS[runner]()
    assert "dep" in set().union(*seen)
    assert not set().union(*seen) & {"rb", "rx", "bp", "rb2", "rx2"}


_HADAMARD = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)


def _hadamard_reveal_weak() -> StrategySpec:
    """The honest composed-game depositor, but its bit reveal is a Hadamard on ``rb``."""
    return StrategySpec("alice", 0, dict(honest_alice_weak().programs,
                                         reveal_bit=(Apply(("rb",), _HADAMARD),)))


def test_a_message_wire_enters_at_its_layout_position(monkeypatch):
    # the depositor's gate on rb puts it in the root stack between dep and dep2,
    # so every kernel call of the run, the deposit's first gate too, sees it there
    seen = _record_stack_wires(monkeypatch)
    protocols.run_weak_commitment(_hadamard_reveal_weak(), honest_bob_weak(), 1)
    assert seen and all(wires == ("dep", "rb", "dep2") for wires in seen)


def test_a_round_of_a_phase_the_game_never_plays_puts_no_wire_in_the_stack(monkeypatch):
    # the reveal game plays "reveal", not "reveal_bit", so the Hadamard on rb never plays:
    # rb stays a table column, and the one measure call is the check on dep
    programs = honest_alice_escrow().programs
    plain = StrategySpec("alice", 0, programs)
    unplayed = StrategySpec("alice", 0, dict(programs, reveal_bit=(Apply(("rb",), _HADAMARD),)))
    run = lambda alice: protocols.run_escrow(alice, honest_bob_escrow(), Challenge.REVEAL_TO_BOB, 0)
    seen = _record_kernel_calls(monkeypatch)
    stacks = _record_stack_wires(monkeypatch)
    assert run(unplayed) == run(plain)
    assert [call for call in seen if call[0] == "measure"] == [("measure", ("dep",), 2)] * 2
    assert set(stacks) == {("dep",)}


def _angle_depositor():
    return adversaries.alice_coinflip_from_angles(np.linspace(0.1, 1.2, 12))


# Each run has a dishonest party that acts on a message wire after other
# kernel calls, and the stack its program fixes.
_FIXED_STACKS = {
    "escrow": (lambda: protocols.run_escrow(
        StrategySpec("alice", 0, dict(honest_alice_escrow().programs, reveal=(
            SetBits({"rb": "b", "rx": "x"}), Apply(("rx",), _HADAMARD)))),
        honest_bob_escrow(), Challenge.REVEAL_TO_BOB, 0), ("dep", "rx")),
    "reveal_then_return": (lambda: protocols.run_escrow_reveal_then_return(
        StrategySpec("alice", 0, dict(honest_alice_escrow().programs, reveal_bit=(
            SetBits({"rb": "b"}), MeasureRecord(("rb",), qmath.OrthogonalMeasurement(
                _HADAMARD), "h")))), honest_bob_escrow(), 1), ("dep", "rb")),
    "coinflip": (lambda: protocols.run_coinflip(honest_alice_coinflip(), StrategySpec(
        "bob", 0, {"choose": (Draw("g"), SetBits({"bp": "g"}), Apply(("bp",), _HADAMARD))})),
        ("dep", "bp")),
    "weak_commitment": (lambda: protocols.run_weak_commitment(
        _hadamard_reveal_weak(), honest_bob_weak(), 0), ("dep", "rb", "dep2")),
    # its reveal gates act on bp and rb; it only writes rx, which stays a table column
    "angle-depositor": (lambda: protocols.run_coinflip(_angle_depositor(),
                                                       honest_bob_coinflip()),
                        ("a0", "dep", "bp", "rb")),
}


@pytest.mark.parametrize("case", sorted(_FIXED_STACKS))
def test_every_kernel_call_of_a_run_sees_one_stack(case, monkeypatch):
    # a message wire that any round acts on is in the stack from the root row on,
    # so no call of the run sees a stack that a later call's wire is missing from
    run, stack = _FIXED_STACKS[case]
    seen = _record_stack_wires(monkeypatch)
    run()
    assert len(seen) > 1 and set(seen) == {stack}


def _record_stack_wires(monkeypatch) -> list:
    """The wire tuple of every stack the wrapped kernels receive, in call order."""
    seen = []

    def recording(kernel):
        def wrapper(states, *args, **kwargs):
            seen.append(states.wires)
            return kernel(states, *args, **kwargs)
        return wrapper

    for name in ("apply_unitary", "measure", "renormalize", "partial_trace"):
        wrapper = recording(getattr(qmath, name))
        monkeypatch.setattr(qmath, name, wrapper)
        if hasattr(protocols, name):
            monkeypatch.setattr(protocols, name, wrapper)
    return seen


def _fixed_gate_coinflip():
    # the depositor's one gate is fixed and the honest receiver applies none
    alice = StrategySpec("alice", 0, {"deposit": (Apply(("dep",), rotation(0.3)),),
                                      "reveal": (SetBits({"rb": 0, "rx": 1}),)})
    return lambda: protocols.run_coinflip(alice, honest_bob_coinflip())


def _honest_coinflip():
    # the honest depositor's encoder is a table of four rotations keyed on (b, x)
    alice, bob = honest_alice_coinflip(), honest_bob_coinflip()
    return lambda: protocols.run_coinflip(alice, bob)


def _conditional_receiver():
    # the receiver's return unitary is a table keyed on the revealed bit
    rng = np.random.default_rng(5)
    table = np.stack([qmath.random_unitary(4, rng) for _ in range(2)])
    bob = StrategySpec("bob", 1, {"return": (Apply(("dep", "c0"), table, keys=("b_claim",)),)})
    alice = honest_alice_escrow()
    return lambda: protocols.run_escrow_reveal_then_return(alice, bob, 1)


def _batched_receivers():
    # each receiver's gate, basis and keyed table differ, so the batch stacks them per run
    rng = np.random.default_rng(7)

    def receiver():
        table = np.stack([qmath.random_unitary(2, rng) for _ in range(2)])
        return StrategySpec("bob", 1, {
            "receive": (Apply(("dep", "c0"), qmath.random_unitary(4, rng)),),
            "return": (MeasureRecord(("c0",), qmath.random_basis_measurement(2, rng), "g"),
                       Apply(("dep",), table, keys=("g",)))})

    bobs = [receiver() for _ in range(3)]
    alice = honest_alice_escrow()
    return lambda: protocols.run_escrow_batch([alice] * 3, bobs, Challenge.RETURN_TO_ALICE,
                                              [0, 1, 1], EscrowParams())


@pytest.mark.parametrize("build", [_fixed_gate_coinflip, _honest_coinflip,
                                   _conditional_receiver, _batched_receivers],
                         ids=["fixed-gate", "honest-coinflip", "conditional-receiver",
                              "batched-receivers"])
def test_a_built_gate_is_not_checked_again_by_its_runs(build, monkeypatch):
    # every gate and table is checked when its round is built, before the
    # wrapper is in place, so any unitarity check during the runs would re-check one
    run = build()
    protocols._check_bases(COIN_THETA)   # the check bases are cached on first use: build them now
    checks = []

    def counting(m):
        checks.append(m)
        return is_unitary(m)

    is_unitary = qmath.is_unitary
    monkeypatch.setattr(qmath, "is_unitary", counting)
    for _ in range(2):
        run()
    assert checks == []


def _counting(calls: list, kernel):
    def wrapper(*args, **kwargs):
        calls.append(args)
        return kernel(*args, **kwargs)
    return wrapper


def _unflagged(spec: StrategySpec) -> StrategySpec:
    """The same programs, flagged dishonest."""
    return StrategySpec(spec.party, spec.ancilla_count, spec.programs)


@pytest.mark.parametrize("run", [
    lambda: protocols.run_coinflip_batch(
        [honest_alice_coinflip(), _unflagged(honest_alice_coinflip())],
        [honest_bob_coinflip(), _unflagged(honest_bob_coinflip())]),
    lambda: protocols.run_weak_commitment(_unflagged(honest_alice_weak()),
                                          _unflagged(honest_bob_weak()), 1),
], ids=["coinflip-batch", "weak-commitment"])
def test_the_honest_party_rule_fires_before_any_branch_runs(run, monkeypatch):
    # the batch's honest group comes first, yet the dishonest pair stops it before a kernel runs
    calls = []
    monkeypatch.setattr(qmath, "measure", _counting(calls, qmath.measure))
    with pytest.raises(protocols.MalformedStrategy, match="at least one party must be honest"):
        run()
    assert calls == []


def _receiver(*rounds):
    # measures the deposit, then plays the given rounds before announcing its guess
    return StrategySpec("bob", 0, {"choose": (
        MeasureRecord(("dep",), qmath.OrthogonalMeasurement(rotation(0.4)), "guess"),
        *rounds, SetBits({"bp": "guess"}))})


@pytest.mark.parametrize("run, renormalized", [
    (lambda: protocols.run_coinflip(honest_alice_coinflip(), _receiver()), 0),
    (lambda: protocols.run_coinflip(honest_alice_coinflip(), _receiver(
        Apply(("dep",), rotation(0.2)))), 1),
    (lambda: protocols.run_weak_commitment(honest_alice_weak(), honest_bob_weak(), 0), 2),
    (lambda: protocols.run_weak_commitment(honest_alice_weak(), honest_bob_weak(), 1), 2),
], ids=["basis-receiver", "gate-after-measurement", "composed-0", "composed-1"])
def test_only_a_read_after_a_gate_renormalizes(run, renormalized, monkeypatch):
    # a measurement leaves its rows normalized, so reading a classical bit
    # from them writes a column; a gate since the last normalization makes
    # the next read divide its rounding out, and that read normalizes the rows again
    unwrapped = run()
    calls = []
    monkeypatch.setattr(qmath, "renormalize", _counting(calls, qmath.renormalize))
    assert run() == unwrapped
    assert len(calls) == renormalized


def test_a_shape_pair_is_checked_once_per_batch(monkeypatch):
    rng = np.random.default_rng(11)
    bobs = [_receiver(Apply(("dep",), qmath.random_unitary(2, rng))) for _ in range(100)]
    alices = [honest_alice_coinflip()] * len(bobs)
    calls = []
    monkeypatch.setattr(protocols, "validate_strategy",
                        _counting(calls, protocols.validate_strategy))
    protocols.run_coinflip_batch(alices, bobs)   # one shape group: its first pair is checked
    assert len(calls) == 2
    for alice, bob in zip(alices, bobs):   # each run is a batch of its own
        protocols.run_coinflip(alice, bob)
    assert len(calls) == 2 + 200
    bad = StrategySpec("bob", 0, {"choose": (SetBits({"rb": 1}),)})   # rb is not Bob's wire
    for _ in range(2):
        with pytest.raises(protocols.MalformedStrategy, match="touches"):
            protocols.run_coinflip(honest_alice_coinflip(), bad)
    assert len(calls) == 202 + 4


def _record_kernel_calls(monkeypatch) -> list:
    """(kernel, wires it acts on, rows) of every kernel call, in call order."""
    seen = []

    def recording(name, kernel):
        def wrapper(states, *args, **kwargs):
            seen.append((name, tuple(args[-1]) if args else (), len(states.amplitudes)))
            return kernel(states, *args, **kwargs)
        return wrapper

    for name in ("apply_unitary", "measure", "renormalize", "partial_trace"):
        wrapper = recording(name, getattr(qmath, name))
        monkeypatch.setattr(qmath, name, wrapper)
        if hasattr(protocols, name):
            monkeypatch.setattr(protocols, name, wrapper)
    return seen


@pytest.mark.parametrize("alice, calls", [
    # an honest coin is never err: both checks run, on the 8 rows of each coin result
    (honest_alice_weak, [
        ("apply_unitary", ("dep",), 2), ("renormalize", (), 2),
        ("apply_unitary", ("dep2",), 8), ("renormalize", (), 16), ("measure", ("dep2",), 16),
        ("measure", ("dep",), 8), ("measure", ("dep",), 8)]),
    # every coin is err (the golden weak-every-coin-err-b1 case): no check runs on no rows
    (lambda: weak_alice_every_coin_err(COIN_THETA), [
        ("apply_unitary", ("a0",), 2), ("measure", ("a0",), 2),
        ("apply_unitary", ("dep",), 4), ("renormalize", (), 4),
        ("apply_unitary", ("dep2",), 8), ("renormalize", (), 16), ("measure", ("dep2",), 16)]),
], ids=["honest", "every-coin-err"])
def test_a_challenge_branch_that_no_row_reaches_is_not_played(alice, calls, monkeypatch):
    alice = alice()
    unwrapped = protocols.run_weak_commitment(alice, honest_bob_weak(), 1)
    seen = _record_kernel_calls(monkeypatch)
    assert protocols.run_weak_commitment(alice, honest_bob_weak(), 1) == unwrapped
    assert seen == calls


def test_a_binding_pair_plays_its_deposit_once(monkeypatch):
    # the reveal game's rows right after the deposit give both reduced deposits,
    # so the pair's one shape group applies the deposit gate once, to both runs
    pair = adversaries.random_binding_pair(np.random.default_rng(12))
    unwrapped = analysis.binding_metrics(*pair)
    seen = _record_kernel_calls(monkeypatch)
    checks = []
    monkeypatch.setattr(protocols, "validate_strategy",
                        _counting(checks, protocols.validate_strategy))
    assert analysis.binding_metrics(*pair) == unwrapped
    assert [call for call in seen if call[1] == ("a0", "a1", "dep")] == [
        ("apply_unitary", ("a0", "a1", "dep"), 2)]
    assert [call[0] for call in seen].count("partial_trace") == 1
    assert len(checks) == 2   # one shape pair, checked once


def test_a_write_on_a_quantum_wire_is_one_gate(monkeypatch):
    # the depositor flips dep on a drawn bit: an X on the rows that drew 1, an I on the
    # others, and the reads that follow need no renormalization
    alice = StrategySpec("alice", 0, {"deposit": (Draw("x"), SetBits({"dep": "x"})),
                                      "reveal": (SetBits({"rb": 0, "rx": "x"}),)})
    run = lambda: protocols.run_escrow(alice, honest_bob_escrow(), Challenge.REVEAL_TO_BOB)
    unwrapped = run()
    seen = _record_kernel_calls(monkeypatch)
    assert run() == unwrapped
    assert seen == [("apply_unitary", ("dep",), 2), ("measure", ("dep",), 2)]


@pytest.mark.parametrize("seed", [0.5, 1.9, -0.3, "1", 2])
@pytest.mark.parametrize("run", [
    lambda b: protocols.run_escrow(honest_alice_escrow(), honest_bob_escrow(),
                                   Challenge.REVEAL_TO_BOB, b),
    lambda b: protocols.run_escrow_reveal_then_return(honest_alice_escrow(),
                                                      honest_bob_escrow(), b),
    lambda b: protocols.run_weak_commitment(honest_alice_weak(), honest_bob_weak(), b),
    lambda b: protocols.run_escrow_batch([honest_alice_escrow()] * 2, [honest_bob_escrow()] * 2,
                                         Challenge.RETURN_TO_ALICE, [0, b], EscrowParams()),
], ids=["escrow", "reveal-then-return", "weak-commitment", "escrow-batch"])
def test_a_seed_that_is_not_a_bit_fails_before_any_branch_runs(run, seed, monkeypatch):
    # a seed is 0, 1 or None, by SetBits' rule; nothing truncates 0.5 to 0 or "1" to 1
    calls = []
    monkeypatch.setattr(qmath, "measure", _counting(calls, qmath.measure))
    with pytest.raises(protocols.MalformedStrategy, match="not a bit"):
        run(seed)
    assert calls == []
