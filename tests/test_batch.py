"""Batched runs: N runs of one shape go through one stack and equal their N = 1 runs bit for bit.

Each batched entry point is compared with its scalar runner on random
batches: every probability as ``float.hex``, the branch order, both verdicts
and the transcript.  The batches hold per-run gates, keyed gate tables,
measurements and seeded bits, so every stacked path of the executor runs.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qescrow import adversaries as adv
from qescrow import analysis as ana
from qescrow import protocols, qmath
from qescrow.protocols import (
    Apply,
    Challenge,
    Draw,
    EscrowParams,
    MalformedStrategy,
    MeasureRecord,
    ProtocolError,
    SetBits,
    StrategySpec,
    deposit_reduced_state,
    honest_alice_coinflip,
    honest_alice_escrow,
    honest_bob_coinflip,
    honest_bob_escrow,
    run_coinflip,
    run_coinflip_batch,
    run_escrow,
    run_escrow_batch,
    run_escrow_reveal_then_return,
    run_escrow_reveal_then_return_batch,
)

PARAMS = EscrowParams(math.pi / 10)


def exact(dist) -> list:
    """A distribution as exact values: each branch's probability in hex, verdicts, transcript."""
    return [(b.probability.hex(), b.alice_verdict, b.bob_verdict, b.transcript)
            for b in dist.branches]


def _depositor(rng) -> StrategySpec:
    """A random depositor: a keyed deposit table, a random basis on a0, and the seeded b."""
    table = np.stack([qmath.random_unitary(4, rng) for _ in range(2)])
    return StrategySpec("alice", 1, {
        "deposit": (Draw("x"), Apply(("a0", "dep"), table, keys=("x",))),
        "reveal": (MeasureRecord(("a0",), qmath.random_basis_measurement(2, rng), "m"),
                   SetBits({"rb": "m", "rx": "x"})),
        "reveal_bit": (SetBits({"rb": "b"}),)})


def _returner(rng) -> StrategySpec:
    """A random receiver: a coupling, a random basis on c0, and a return table keyed on it."""
    return StrategySpec("bob", 1, {
        "receive": (Apply(("dep", "c0"), qmath.random_unitary(4, rng)),),
        "return": (MeasureRecord(("c0",), qmath.random_basis_measurement(2, rng), "g"),
                   Apply(("dep",), np.stack([qmath.random_unitary(2, rng) for _ in range(2)]),
                         keys=("g",)))})


def _conditional(rng) -> StrategySpec:
    """A receiver whose return unitary on (dep, c0) is chosen by the revealed bit."""
    table = np.stack([qmath.random_unitary(4, rng) for _ in range(2)])
    return StrategySpec("bob", 1, {"return": (Apply(("dep", "c0"), table, keys=("b_claim",)),)})


def _basis_bob(rng) -> StrategySpec:
    return adv.bob_measure_coinflip(adv.unitary_from_angles(2, rng.uniform(0, math.pi, 3)))


def _entangling_bob(rng) -> StrategySpec:
    return adv.bob_entangling_coinflip(qmath.random_unitary(8, rng))


def _angles_alice(rng) -> StrategySpec:
    return adv.alice_coinflip_from_angles(rng.uniform(0, math.pi, 12))


def test_escrow_reveal_batch_equals_its_runs():
    rng = np.random.default_rng(1)
    alices = [_depositor(rng) for _ in range(5)]
    bobs = [honest_bob_escrow()] * 5
    bits = [0, 1, 0, None, 1]   # the depositor never reads b here
    batch = run_escrow_batch(alices, bobs, Challenge.REVEAL_TO_BOB, bits, PARAMS)
    assert [exact(d) for d in batch] == [
        exact(run_escrow(a, b, Challenge.REVEAL_TO_BOB, bit, PARAMS))
        for a, b, bit in zip(alices, bobs, bits)]


def test_escrow_return_batch_equals_its_runs():
    rng = np.random.default_rng(2)
    bobs = [_returner(rng) for _ in range(6)]
    alices = [honest_alice_escrow(PARAMS)] * 6
    bits = [0, 1, 1, 0, 1, 0]
    batch = run_escrow_batch(alices, bobs, Challenge.RETURN_TO_ALICE, bits, PARAMS)
    assert [exact(d) for d in batch] == [
        exact(run_escrow(a, b, Challenge.RETURN_TO_ALICE, bit, PARAMS))
        for a, b, bit in zip(alices, bobs, bits)]


def test_reveal_then_return_batch_equals_its_runs():
    rng = np.random.default_rng(3)
    bobs = [_conditional(rng) for _ in range(4)]
    alices = [honest_alice_escrow(PARAMS)] * 4
    bits = [1, 0, 0, 1]
    batch = run_escrow_reveal_then_return_batch(alices, bobs, bits, PARAMS)
    assert [exact(d) for d in batch] == [
        exact(run_escrow_reveal_then_return(a, b, bit, PARAMS))
        for a, b, bit in zip(alices, bobs, bits)]


@pytest.mark.parametrize("draw", [_basis_bob, _entangling_bob, _angles_alice],
                         ids=["basis-receivers", "entangling-receivers", "angle-depositors"])
def test_coinflip_batch_equals_its_runs(draw):
    rng = np.random.default_rng(4)
    adversaries = [draw(rng) for _ in range(6)]
    if adversaries[0].party == "bob":
        alices, bobs = [honest_alice_coinflip()] * 6, adversaries
    else:
        alices, bobs = adversaries, [honest_bob_coinflip()] * 6
    batch = run_coinflip_batch(alices, bobs)
    assert [exact(d) for d in batch] == [exact(run_coinflip(a, b)) for a, b in zip(alices, bobs)]


@pytest.mark.parametrize("honest", list(ana.HonestParty))
def test_coinflip_bias_batch_equals_its_reports(honest):
    rng = np.random.default_rng(5)
    draw = _basis_bob if honest is ana.HonestParty.ALICE_HONEST else _angles_alice
    adversaries = [draw(rng) for _ in range(5)]
    assert ana.coinflip_bias_batch(honest, adversaries) == [
        ana.coinflip_bias(honest, a) for a in adversaries]


def test_deposit_batch_equals_its_runs():
    # the reduced deposits a reveal batch hands over are each run's own deposit
    # state, and reading them leaves the batch's outcomes as they were
    rng = np.random.default_rng(6)
    alices = [_depositor(rng) for _ in range(3)] + list(adv.random_binding_pair(rng))
    bobs, seeds = [honest_bob_escrow()] * len(alices), [None] * len(alices)
    batch = []
    dists = run_escrow_batch(alices, bobs, Challenge.REVEAL_TO_BOB, seeds, PARAMS,
                             deposited=batch.extend)
    assert [exact(d) for d in dists] == [
        exact(d) for d in run_escrow_batch(alices, bobs, Challenge.REVEAL_TO_BOB, seeds, PARAMS)]
    assert len(batch) == len(alices)
    for got, alice in zip(batch, alices):
        want = deposit_reduced_state(alice)
        assert got.wires == want.wires
        assert got.matrix.tobytes() == want.matrix.tobytes()


def test_a_mixed_batch_comes_back_in_input_order():
    rng = np.random.default_rng(7)
    draws = [_basis_bob, _entangling_bob, lambda rng: adv.constant_bob(1), _basis_bob,
             lambda rng: adv.full_measurement_bob(), _entangling_bob, _basis_bob]
    bobs = [draw(rng) for draw in draws]
    alices = [honest_alice_coinflip()] * len(bobs)
    batch = run_coinflip_batch(alices, bobs)
    assert [exact(d) for d in batch] == [exact(run_coinflip(a, b)) for a, b in zip(alices, bobs)]


def test_a_non_bit_seed_that_is_read_fails_the_batch_as_it_fails_its_run():
    alice, bob = honest_alice_escrow(PARAMS), honest_bob_escrow()
    with pytest.raises(MalformedStrategy, match="not a bit"):
        run_escrow(alice, bob, Challenge.RETURN_TO_ALICE, 2, PARAMS)
    with pytest.raises(MalformedStrategy, match="not a bit"):
        run_escrow_batch([alice] * 3, [bob] * 3, Challenge.RETURN_TO_ALICE, [0, 2, 1], PARAMS)


def test_a_malformed_member_fails_before_any_branch_runs(monkeypatch):
    rng = np.random.default_rng(8)
    bad = StrategySpec("bob", 0, {"choose": (SetBits({"rb": 1}),)})   # rb is not Bob's wire
    bobs = [_basis_bob(rng), _entangling_bob(rng), bad, _basis_bob(rng)]
    calls = []

    def counting(kernel):
        def wrapper(*args, **kwargs):
            calls.append(kernel)
            return kernel(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(qmath, "measure", counting(qmath.measure))
    monkeypatch.setattr(protocols, "apply_unitary", counting(qmath.apply_unitary))
    monkeypatch.setattr(qmath, "renormalize", counting(qmath.renormalize))
    with pytest.raises(MalformedStrategy, match="touches"):
        run_coinflip_batch([honest_alice_coinflip()] * len(bobs), bobs)
    assert calls == []


def test_batch_inputs_must_pair_up():
    alice, bob = honest_alice_escrow(PARAMS), honest_bob_escrow()
    with pytest.raises(ProtocolError, match="do not pair up"):
        run_escrow_batch([alice, alice], [bob], Challenge.RETURN_TO_ALICE, [0, 1], PARAMS)


def test_specs_that_differ_only_in_matrices_share_a_shape():
    rng = np.random.default_rng(9)
    assert _basis_bob(rng).shape == _basis_bob(rng).shape
    assert _depositor(rng).shape == _depositor(rng).shape
    assert _basis_bob(rng).shape != _entangling_bob(rng).shape
    honest = honest_alice_escrow(PARAMS)
    dishonest = StrategySpec("alice", 0, honest.programs)
    assert honest.shape != dishonest.shape


def test_a_large_batch_reuses_the_leaves_of_one_run(monkeypatch):
    rng = np.random.default_rng(10)
    bobs = [_basis_bob(rng) for _ in range(10 ** 4)]
    alice = honest_alice_coinflip()
    built = []
    leaf = protocols._leaf
    monkeypatch.setattr(protocols, "_leaf", lambda *args: built.append(args) or leaf(*args))
    protocols._LEAVES.clear()
    run_coinflip(alice, bobs[0])
    one = len(built)
    protocols._LEAVES.clear()
    batch = run_coinflip_batch([alice] * len(bobs), bobs)
    assert 0 < one == len(built) - one
    assert len(batch) == len(bobs)
    assert exact(batch[-1]) == exact(run_coinflip(alice, bobs[-1]))


_KINDS = {
    "basis": lambda rng: (honest_alice_coinflip(), _basis_bob(rng)),
    "entangling": lambda rng: (honest_alice_coinflip(), _entangling_bob(rng)),
    "angles": lambda rng: (_angles_alice(rng), honest_bob_coinflip()),
    "constant": lambda rng: (honest_alice_coinflip(), adv.constant_bob(int(rng.integers(2)))),
}


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10 ** 6), st.lists(st.sampled_from(sorted(_KINDS)), min_size=1, max_size=8))
def test_batched_runs_equal_single_runs(seed, kinds):
    rng = np.random.default_rng(seed)
    alices, bobs = zip(*(_KINDS[kind](rng) for kind in kinds))
    batch = run_coinflip_batch(alices, bobs)
    assert [exact(d) for d in batch] == [exact(run_coinflip(a, b)) for a, b in zip(alices, bobs)]
