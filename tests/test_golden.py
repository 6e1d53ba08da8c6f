"""Golden outcomes: fixed games whose every leaf is pinned in ``golden_outcomes.json``.

Each case runs one of the four runners, or ``deposit_reduced_state``, on
fixed or seeded-random strategies.  The leaf order, both verdicts and every
transcript must match the fixture exactly, and each probability (each density
matrix entry) to 1e-12.  ``python tests/test_golden.py`` rewrites the fixture
from the current library; do that only for a change that is meant to move
these numbers, and say so.
"""

import json
import math
import pathlib

import numpy as np
import pytest

from helpers import fixed_bit_alice, weak_alice_every_coin_err
from qescrow import adversaries as adv
from qescrow import qmath
from qescrow.protocols import (
    Apply,
    Challenge,
    EscrowParams,
    MeasureRecord,
    SetBits,
    StrategySpec,
    deposit_reduced_state,
    honest_alice_coinflip,
    honest_alice_escrow,
    honest_alice_weak,
    honest_bob_coinflip,
    honest_bob_escrow,
    honest_bob_weak,
    run_coinflip,
    run_escrow,
    run_escrow_reveal_then_return,
    run_weak_commitment,
)

FIXTURE = pathlib.Path(__file__).resolve().parent / "golden_outcomes.json"
TOL = 1e-12
COMP1 = qmath.OrthogonalMeasurement.computational(1)


def _keyed_receiver(seed: int) -> StrategySpec:
    """A receiver whose return unitary on (dep, c0) is chosen by the revealed bit."""
    rng = np.random.default_rng(seed)
    table = np.stack([qmath.random_unitary(4, rng) for _ in range(2)])
    return StrategySpec("bob", 1, {"return": (Apply(("dep", "c0"), table, keys=("b_claim",)),)})


def _weak_random_receiver(seed: int) -> StrategySpec:
    rng = np.random.default_rng(seed)
    receive = adv.random_return_attack(rng, ancillas=2).programs["receive"]
    back = (Apply(("dep", "c0", "c1"), qmath.random_unitary(8, rng)),)
    return StrategySpec("bob", 2, {"receive": receive, "return": back,
                                   "coin_choose": honest_bob_weak().programs["coin_choose"]})


def _weak_cross_component_receiver(seed: int) -> StrategySpec:
    u = qmath.random_unitary(4, np.random.default_rng(seed))
    return StrategySpec("bob", 1, {
        "receive": (Apply(("dep", "c0"), u),),
        "coin_choose": (MeasureRecord(("c0",), COMP1, "guess"), SetBits({"bp": "guess"}))})


def _flipping_receiver(seed: int) -> StrategySpec:
    """A receiver that entangles dep with c0, measures c0 and flips dep on the outcome."""
    u = qmath.random_unitary(4, np.random.default_rng(seed))
    return StrategySpec("bob", 1, {"receive": (
        Apply(("dep", "c0"), u), MeasureRecord(("c0",), COMP1, "g"), SetBits({"dep": "g"}))})


def _dishonest(spec: StrategySpec) -> StrategySpec:
    return StrategySpec(spec.party, spec.ancilla_count, spec.programs)


def _cases() -> dict:
    """Case id -> a thunk giving an OutcomeDistribution or a DensityMatrix."""
    p16 = EscrowParams(math.pi / 16)
    rng = np.random.default_rng
    angles = rng(5).uniform(0, math.pi, 12)
    return {
        "escrow-reveal-honest-b0": lambda: run_escrow(
            honest_alice_escrow(), honest_bob_escrow(), Challenge.REVEAL_TO_BOB, 0),
        "escrow-return-honest-b1-pi16": lambda: run_escrow(
            honest_alice_escrow(p16), honest_bob_escrow(), Challenge.RETURN_TO_ALICE, 1, p16),
        "escrow-return-random-receiver-b0": lambda: run_escrow(
            honest_alice_escrow(), adv.random_return_attack(rng(3), ancillas=2),
            Challenge.RETURN_TO_ALICE, 0),
        "escrow-reveal-random-opening": lambda: run_escrow(
            adv.random_binding_pair(rng(4))[1], honest_bob_escrow(), Challenge.REVEAL_TO_BOB),
        "escrow-reveal-fixed-bit-1": lambda: run_escrow(
            fixed_bit_alice(1), honest_bob_escrow(), Challenge.REVEAL_TO_BOB),
        "escrow-return-flipping-receiver-b1": lambda: run_escrow(
            honest_alice_escrow(), _flipping_receiver(11), Challenge.RETURN_TO_ALICE, 1),
        "reveal-then-return-keyed-b0": lambda: run_escrow_reveal_then_return(
            honest_alice_escrow(), _keyed_receiver(6), 0),
        "reveal-then-return-keyed-b1": lambda: run_escrow_reveal_then_return(
            honest_alice_escrow(), _keyed_receiver(6), 1),
        "coinflip-honest": lambda: run_coinflip(honest_alice_coinflip(), honest_bob_coinflip()),
        "coinflip-full-measurement-bob": lambda: run_coinflip(
            honest_alice_coinflip(), adv.full_measurement_bob()),
        "coinflip-random-basis-bob": lambda: run_coinflip(
            honest_alice_coinflip(),
            adv.bob_measure_coinflip(adv.unitary_from_angles(2, rng(7).uniform(0, math.pi, 3)))),
        "coinflip-entangling-bob": lambda: run_coinflip(
            honest_alice_coinflip(), adv.bob_entangling_coinflip(qmath.random_unitary(8, rng(8)))),
        "coinflip-angles-alice": lambda: run_coinflip(
            adv.alice_coinflip_from_angles(angles), honest_bob_coinflip()),
        "coinflip-seed-point-alice": lambda: run_coinflip(
            adv.alice_coinflip_from_angles(adv.ALICE_SEED_POINT), honest_bob_coinflip()),
        "weak-honest-b1-pi16": lambda: run_weak_commitment(
            honest_alice_weak(p16), honest_bob_weak(), 1, p16),
        "weak-dishonest-depositor-b0": lambda: run_weak_commitment(
            _dishonest(honest_alice_weak()), honest_bob_weak(), 0),
        "weak-random-receiver-b1": lambda: run_weak_commitment(
            honest_alice_weak(), _weak_random_receiver(9), 1),
        "weak-cross-component-receiver-b0": lambda: run_weak_commitment(
            honest_alice_weak(), _weak_cross_component_receiver(10), 0),
        "weak-every-coin-err-b1": lambda: run_weak_commitment(
            weak_alice_every_coin_err(math.pi / 8), honest_bob_weak(), 1),
        "deposit-fixed-bit-0": lambda: deposit_reduced_state(fixed_bit_alice(0)),
        "deposit-random-opening": lambda: deposit_reduced_state(
            adv.random_binding_pair(rng(4))[0]),
        "deposit-angles-alice": lambda: deposit_reduced_state(StrategySpec(
            "alice", 1, {"deposit": adv.alice_coinflip_from_angles(angles).programs["deposit"]})),
    }


def _encode(result) -> dict:
    if isinstance(result, qmath.DensityMatrix):
        m = result.matrix
        return {"wires": list(result.wires), "real": m.real.tolist(), "imag": m.imag.tolist()}
    return {"branches": [[b.probability, b.alice_verdict.value, b.bob_verdict.value,
                          [list(entry) for entry in b.transcript]] for b in result.branches]}


def _golden() -> dict:
    return json.loads(FIXTURE.read_text())


@pytest.mark.parametrize("case", sorted(_cases()))
def test_outcomes_match_the_golden_fixture(case):
    got, want = _encode(_cases()[case]()), _golden()[case]
    if "wires" in want:
        assert got["wires"] == want["wires"]
        for part in ("real", "imag"):
            assert np.max(np.abs(np.array(got[part]) - np.array(want[part]))) <= TOL
        return
    assert [b[1:] for b in got["branches"]] == [b[1:] for b in want["branches"]]
    probs = np.array([b[0] for b in got["branches"]])
    assert np.max(np.abs(probs - [b[0] for b in want["branches"]])) <= TOL


def test_the_fixture_covers_every_case():
    assert sorted(_golden()) == sorted(_cases())


if __name__ == "__main__":  # one case per line
    FIXTURE.write_text("{\n" + ",\n".join(f"{json.dumps(case)}: {json.dumps(_encode(run()))}"
                                          for case, run in sorted(_cases().items())) + "\n}\n")
