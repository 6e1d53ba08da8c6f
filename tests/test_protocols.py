"""Protocol state-machine tests: honest play is exact, cheats enumerate correctly."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import fixed_bit_alice, weak_alice_every_coin_err
from qescrow.adversaries import random_return_attack
from qescrow import protocols, qmath
from qescrow.protocols import (
    Apply,
    Challenge,
    Draw,
    EscrowParams,
    MalformedStrategy,
    MeasureRecord,
    OutcomeDistribution,
    ProtocolError,
    SetBits,
    StrategySpec,
    Verdict,
    bx_angle,
    deposit_reduced_state,
    escrow_basis,
    escrow_bit_density,
    escrow_encoding,
    honest_alice_coinflip,
    honest_alice_escrow,
    honest_alice_weak,
    honest_bob_coinflip,
    honest_bob_escrow,
    honest_bob_weak,
    phi_vec,
    rotation,
    run_coinflip,
    run_escrow,
    run_escrow_reveal_then_return,
    run_weak_commitment,
)

THETA = math.pi / 8
THETA_GRID = (math.pi / 16, math.pi / 12, math.pi / 8)


# ---------------------------------------------------------------------------
# encoding states


def test_phi_endpoints():
    assert np.allclose(phi_vec(0.0), [1, 0])
    assert np.allclose(phi_vec(math.pi / 2), [0, 1])


def test_phi_pi8_amplitudes():
    assert np.allclose(phi_vec(math.pi / 8), [0.9238795325112867, 0.3826834323650898],
                       atol=1e-12)


def test_phi_bx_table():
    assert bx_angle(0, 0, THETA) == -THETA
    assert bx_angle(0, 1, THETA) == THETA
    assert bx_angle(1, 0, THETA) == math.pi / 2 - THETA
    assert bx_angle(1, 1, THETA) == math.pi / 2 + THETA
    # the encoding table's first entry is phi_{0,0} = phi_{-pi/8}
    assert abs(np.vdot(escrow_encoding(THETA)[0, 0], phi_vec(-math.pi / 8)) - 1) < 1e-12


@pytest.mark.parametrize("theta", THETA_GRID)
def test_phi_bx_inner_products(theta):
    same_bit = np.vdot(phi_vec(bx_angle(0, 0, theta)), phi_vec(bx_angle(0, 1, theta)))
    assert abs(same_bit.real - math.cos(2 * theta)) < 1e-12
    cross = np.vdot(phi_vec(bx_angle(0, 0, theta)), phi_vec(bx_angle(1, 0, theta)))
    assert abs(cross) < 1e-12  # angle difference pi/2


def test_escrow_params_range():
    EscrowParams(math.pi / 8)
    EscrowParams(0.01)
    with pytest.raises(ProtocolError):
        EscrowParams(0.0)
    with pytest.raises(ProtocolError):
        EscrowParams(math.pi / 4)


@pytest.mark.parametrize("build, error, named", [
    (lambda: StrategySpec("bob", 0, None), MalformedStrategy, "None"),
    (lambda: StrategySpec("bob", 0, [1, 2]), MalformedStrategy, "[1, 2]"),
    (lambda: StrategySpec("bob", 0, {"receive": 3}), MalformedStrategy, "{'receive': 3}"),
    (lambda: SetBits(None), MalformedStrategy, "None"),
    (lambda: EscrowParams("a"), ProtocolError, "'a'"),
], ids=["programs-none", "programs-list", "phase-not-rounds", "bit-sources-none", "theta-str"])
def test_a_malformed_spec_raises_a_typed_error_naming_the_value(build, error, named):
    with pytest.raises(error) as caught:
        build()
    assert named in str(caught.value)


_COMP = qmath.OrthogonalMeasurement.computational(1)
_TABLE = np.stack((np.eye(2),) * 2)


@pytest.mark.parametrize("build, error, named", [
    (lambda: run_escrow(honest_alice_escrow(), honest_bob_escrow(), "reveal", 0),
     ProtocolError, "'reveal'"),
    (lambda: protocols.run_escrow_batch([honest_alice_escrow()], [honest_bob_escrow()], "return",
                                        [0], EscrowParams()), ProtocolError, "'return'"),
    (lambda: Apply(("dep",), np.eye(2), keys=5), MalformedStrategy, "5"),
    (lambda: Apply(("dep",), _TABLE, keys="b"), MalformedStrategy, "'b'"),
    (lambda: Apply(("dep",), _TABLE, keys=(1,)), MalformedStrategy, "(1,)"),
    (lambda: Apply(("dep",), _TABLE, keys=("",)), MalformedStrategy, "('',)"),
    (lambda: MeasureRecord(("dep",), _COMP, 1), MalformedStrategy, "(1,)"),
    (lambda: MeasureRecord(("dep",), _COMP, ""), MalformedStrategy, "('',)"),
    (lambda: Draw(None), MalformedStrategy, "(None,)"),
], ids=["challenge-str", "batch-challenge-str", "keys-int", "keys-bare-str", "key-int",
        "key-empty", "record-name-int", "record-name-empty", "draw-name-none"])
def test_a_malformed_challenge_or_record_key_raises_a_typed_error(build, error, named):
    # a record name 1 would otherwise be read back by SetBits({"bp": 1}) as the constant 1
    with pytest.raises(error) as caught:
        build()
    assert named in str(caught.value)


@pytest.mark.parametrize("build, error, named", [
    (lambda: SetBits({"bp": ""}), MalformedStrategy, "''"),
    (lambda: run_coinflip(honest_alice_coinflip(), None), MalformedStrategy,
     "bob's seat holds None"),
    (lambda: run_escrow(honest_alice_escrow(), "bob", Challenge.REVEAL_TO_BOB, 0),
     MalformedStrategy, "bob's seat holds 'bob'"),
    (lambda: protocols.run_escrow_batch([honest_alice_escrow(), 3], [honest_bob_escrow()] * 2,
                                        Challenge.REVEAL_TO_BOB, [0, 1], EscrowParams()),
     MalformedStrategy, "alice's seat holds 3"),
    (lambda: Apply("dep", np.eye(2)), MalformedStrategy, "'dep'"),
    (lambda: MeasureRecord("dep", _COMP, "m"), MalformedStrategy, "'dep'"),
    (lambda: Apply(("dep", ""), np.eye(4)), MalformedStrategy, "('dep', '')"),
    (lambda: protocols.run_coinflip_batch(honest_alice_coinflip(), [honest_bob_coinflip()]),
     ProtocolError, "depositors are a StrategySpec, not a sequence"),
    (lambda: protocols.run_coinflip_batch([honest_alice_coinflip()], None),
     ProtocolError, "receivers are a NoneType, not a sequence"),
], ids=["bit-source-empty", "seat-none", "seat-str", "batch-seat-int", "apply-wires-str",
        "measure-wires-str", "wire-empty", "batch-not-a-sequence", "batch-receivers-none"])
def test_a_malformed_seat_wire_or_batch_raises_a_typed_error(build, error, named):
    # at the parent these built, raised AttributeError or TypeError, or named no value
    with pytest.raises(error) as caught:
        build()
    assert named in str(caught.value)


def _unseeded_weak_alice(coin_err: bool) -> StrategySpec:
    """A composed-game depositor that reads no ``b`` except in Alice's return check.

    Her deposit is a fixed rotation and she reveals 0.  With ``coin_err``
    she reveals the wrong coin bit, so every coin is err and only the
    rejecting branch plays; otherwise both other branches play.
    """
    programs = dict(weak_alice_every_coin_err(THETA).programs)
    programs["deposit"] = programs["deposit"][:4] + (Apply(("dep",), rotation(0.3)),)
    programs["reveal_bit"] = (SetBits({"rb": 0}),)
    if not coin_err:
        programs["coin_reveal"] = (SetBits({"rb2": "b2", "rx2": "x2"}),)
    return StrategySpec("alice", 1, programs)


def test_an_unset_key_in_a_branch_no_row_reaches_raises_nothing():
    dist = run_weak_commitment(_unseeded_weak_alice(coin_err=True), honest_bob_weak(), None)
    assert dist.verdict_probability("alice", Verdict.ERR) == 1.0


@pytest.mark.parametrize("run", [
    lambda b: run_weak_commitment(_unseeded_weak_alice(coin_err=False), honest_bob_weak(), b),
    lambda b: run_escrow(StrategySpec("alice", 0, {"deposit": (
        Draw("x"), Apply(("dep",), rotation(0.3)))}), honest_bob_escrow(),
        Challenge.RETURN_TO_ALICE, b),
], ids=["weak-commitment", "escrow-return"])
def test_a_none_seed_that_a_check_reads_raises_when_the_check_plays(run):
    for b in (0, 1):
        run(b)
    with pytest.raises(MalformedStrategy) as caught:
        run(None)
    assert str(caught.value) == "alice reads key 'b' before it is set"


def test_escrow_bit_density():
    r0 = escrow_bit_density(0, THETA)
    c2, s2 = math.cos(THETA) ** 2, math.sin(THETA) ** 2
    assert np.allclose(r0.matrix, np.diag([c2, s2]), atol=1e-12)
    assert np.allclose(escrow_bit_density(1, THETA).matrix, np.diag([s2, c2]), atol=1e-12)


# ---------------------------------------------------------------------------
# honest escrow


@pytest.mark.parametrize("theta", THETA_GRID)
@pytest.mark.parametrize("challenge", list(Challenge))
@pytest.mark.parametrize("bit", (0, 1))
def test_honest_escrow_is_exact(theta, challenge, bit):
    params = EscrowParams(theta)
    dist = run_escrow(honest_alice_escrow(params), honest_bob_escrow(), challenge,
                      claimed_bit=bit, params=params)
    assert abs(sum(br.probability for br in dist.branches) - 1.0) < 1e-12
    # exactly zero error branches, not merely small mass
    assert all(br.bob_verdict is not Verdict.ERR for br in dist.branches)
    assert all(br.alice_verdict is not Verdict.ERR for br in dist.branches)
    assert abs(dist.verdict_probability("bob", Verdict.of_bit(bit)) - 1.0) < 1e-12
    assert all(br.alice_verdict is br.bob_verdict for br in dist.branches)


def test_honest_deposit_reduced_state():
    for bit in (0, 1):
        rho = deposit_reduced_state(fixed_bit_alice(bit))
        assert np.max(np.abs(rho.matrix - escrow_bit_density(bit, THETA).matrix)) < 1e-12


def test_identity_receiver_return_check_passes():
    dist = run_escrow(honest_alice_escrow(), honest_bob_escrow(),
                      Challenge.RETURN_TO_ALICE, claimed_bit=1)
    assert abs(dist.verdict_probability("alice", Verdict.ONE) - 1.0) < 1e-12


def test_wrong_claim_rejected_with_half_probability():
    # deposit phi_{0,1} but claim (b,x) = (1,0): the check projects phi_{0,1}
    # onto {phi_{0,0}, phi_{1,0}} and accepts "1" with |<phi_{1,0}|phi_{0,1}>|^2
    alice = StrategySpec(
        party="alice", ancilla_count=0, label="claim-flipper",
        programs={
            "deposit": (Apply(("dep",), rotation(bx_angle(0, 1, THETA))),),
            "reveal": (SetBits({"rb": 1, "rx": 0}),),
        },
    )
    dist = run_escrow(alice, honest_bob_escrow(), Challenge.REVEAL_TO_BOB)
    accept = abs(np.vdot(phi_vec(bx_angle(1, 0, THETA)), phi_vec(bx_angle(0, 1, THETA)))) ** 2
    assert abs(accept - 0.5) < 1e-12
    assert abs(dist.verdict_probability("bob", Verdict.ERR) - (1 - accept)) < 1e-12
    assert abs(dist.verdict_probability("bob", Verdict.ONE) - accept) < 1e-12


# ---------------------------------------------------------------------------
# coin flip


def test_honest_coinflip_exact():
    dist = run_coinflip(honest_alice_coinflip(), honest_bob_coinflip())
    assert dist.verdict_probability("alice", Verdict.ZERO) == 0.5
    assert dist.verdict_probability("alice", Verdict.ONE) == 0.5
    assert dist.verdict_probability("alice", Verdict.ERR) == 0.0
    assert all(br.alice_verdict is br.bob_verdict for br in dist.branches)


def test_constant_receiver_keeps_result_uniform():
    from qescrow.adversaries import constant_bob

    for bit in (0, 1):
        dist = run_coinflip(honest_alice_coinflip(), constant_bob(bit))
        assert abs(dist.verdict_probability("alice", Verdict.ZERO) - 0.5) < 1e-12
        assert dist.verdict_probability("alice", Verdict.ERR) == 0.0


def test_measuring_receiver_wins_at_cap():
    from qescrow.adversaries import full_measurement_bob

    dist = run_coinflip(honest_alice_coinflip(), full_measurement_bob())
    want = math.cos(math.pi / 8) ** 2
    assert abs(dist.verdict_probability("alice", Verdict.ZERO) - want) < 1e-12


def test_coinflip_rejects_two_cheaters():
    from qescrow.adversaries import constant_bob

    with pytest.raises(MalformedStrategy):
        run_coinflip(fixed_bit_alice(0), constant_bob(0))


# ---------------------------------------------------------------------------
# composed commitment


@pytest.mark.parametrize("theta", THETA_GRID)
@pytest.mark.parametrize("bit", (0, 1))
def test_honest_weak_commitment(theta, bit):
    params = EscrowParams(theta)
    dist = run_weak_commitment(honest_alice_weak(params), honest_bob_weak(), bit, params)
    assert abs(sum(br.probability for br in dist.branches) - 1.0) < 1e-12
    assert dist.verdict_probability("bob", Verdict.ERR) == 0.0
    assert abs(dist.verdict_probability("bob", Verdict.of_bit(bit)) - 1.0) < 1e-12
    assert abs(dist.verdict_probability("alice", Verdict.of_bit(bit)) - 1.0) < 1e-12
    # the embedded coin splits the two challenges evenly
    assert abs(dist.transcript_probability(("coin", "result", 1)) - 0.5) < 1e-12
    assert abs(dist.transcript_probability(("coin", "result", 0)) - 0.5) < 1e-12


def test_weak_commitment_challenge_split_matches_embedded_coin():
    # with an honest depositor and a measuring receiver, the coin distribution
    # inside the composition equals the standalone coin-flip distribution
    from qescrow.adversaries import full_measurement_bob

    delta = (escrow_bit_density(0, THETA).matrix - escrow_bit_density(1, THETA).matrix)
    vals, vecs = qmath.hermitian_eig(delta)
    meas = qmath.OrthogonalMeasurement(np.column_stack([vecs[:, 0], vecs[:, 1]]))
    bob = StrategySpec(
        party="bob", ancilla_count=0, honest=False, label="coin-measurer",
        programs={"coin_choose": (MeasureRecord(("dep2",), meas, "guess"),
                                  SetBits({"bp": "guess"}))},
    )
    dist = run_weak_commitment(honest_alice_weak(), bob, 0)
    standalone = run_coinflip(honest_alice_coinflip(), full_measurement_bob())
    want_one = standalone.verdict_probability("alice", Verdict.ONE)
    got_one = dist.transcript_probability(("coin", "result", 1))
    assert abs(got_one - want_one) < 1e-12


@pytest.mark.parametrize("theta", (math.pi / 16, math.pi / 8))
@pytest.mark.parametrize("bit", (0, 1))
def test_weak_commitment_dishonest_depositor(theta, bit):
    # a depositor flagged dishonest has no coin result of her own, so the
    # challenge follows the receiver's coin result; she plays honestly here
    params = EscrowParams(theta)
    alice = StrategySpec("alice", 0, honest_alice_weak(params).programs, honest=False)
    dist = run_weak_commitment(alice, honest_bob_weak(), bit, params)
    assert abs(dist.verdict_probability("bob", Verdict.of_bit(bit)) - 1.0) < 1e-12
    assert dist.verdict_probability("bob", Verdict.ERR) == 0.0
    for coin in (0, 1):
        assert abs(dist.transcript_probability(("coin", "result", coin)) - 0.5) < 1e-12


@pytest.mark.parametrize("theta", (math.pi / 16, math.pi / 8))
@pytest.mark.parametrize("bit", (0, 1))
def test_weak_commitment_with_every_coin_result_err(theta, bit):
    # the depositor reveals the wrong coin bit, so every coin result is err and
    # both challenge partitions are empty: zero-row stacks run every later step.
    # She draws her coin bit b2 first and writes 1 - b2 onto her ancilla with a
    # b2-keyed (X, I) table, where the state is still exactly |0...0>, so that
    # reading it back leaves every probability exact.
    params = EscrowParams(theta)
    programs = dict(honest_alice_weak(params).programs)
    not_b2 = np.stack((np.array([[0, 1], [1, 0]]), np.eye(2)))
    programs["deposit"] = (
        Draw("b2"),
        Apply(("a0",), not_b2, keys=("b2",)),
        MeasureRecord(("a0",), qmath.OrthogonalMeasurement.computational(1), "not_b2"),
    ) + programs["deposit"]
    assert programs["coin_deposit"][0] == Draw("b2")
    programs["coin_deposit"] = programs["coin_deposit"][1:]
    programs["coin_reveal"] = (SetBits({"rb2": "not_b2", "rx2": "x2"}),)
    alice = StrategySpec("alice", 1, programs, honest=False)
    dist = run_weak_commitment(alice, honest_bob_weak(), bit, params)
    assert dist.verdict_probability("bob", Verdict.ERR) == 1.0
    assert len(dist.branches) == 4
    assert dist.transcript_probability(("coin", "result", "err")) == 1.0


def test_weak_commitment_needs_the_judges_coin_result():
    # an honest-flagged receiver who never records b' leaves his coin check
    # without a result, so no challenge can be chosen
    alice = StrategySpec("alice", 0, honest_alice_weak().programs)
    bob = StrategySpec("bob", 0, {"coin_choose": (SetBits({"bp": 0}),)}, honest=True)
    with pytest.raises(MalformedStrategy):
        run_weak_commitment(alice, bob, 0)


def test_weak_commitment_entangled_adversary_distribution():
    # receiver couples the deposit to an ancilla, then derives his coin bit
    # from that same ancilla: wires entangled across the two components
    rng = np.random.default_rng(99)
    u = qmath.random_unitary(4, rng)
    bob = StrategySpec(
        party="bob", ancilla_count=1, label="cross-component",
        programs={
            "receive": (Apply(("dep", "c0"), u),),
            "coin_choose": (MeasureRecord(("c0",), qmath.OrthogonalMeasurement.computational(1),
                                          "guess"),
                            SetBits({"bp": "guess"})),
        },
    )
    dist = run_weak_commitment(honest_alice_weak(), bob, 1)
    assert abs(sum(br.probability for br in dist.branches) - 1.0) < 1e-9
    again = run_weak_commitment(honest_alice_weak(), bob, 1)
    assert dist == again  # exact reproducibility
    counts = dist.sample(10 ** 6, np.random.default_rng(7))
    for verdict in (Verdict.ZERO, Verdict.ONE, Verdict.ERR):
        p = dist.verdict_probability("alice", verdict)
        got = sum(c for (av, _), c in counts.items() if av is verdict) / 10 ** 6
        sigma = math.sqrt(max(p * (1 - p), 1e-12) / 10 ** 6)
        assert abs(got - p) <= 4 * sigma + 1e-9


# ---------------------------------------------------------------------------
# strategy validation and runner errors


def test_strategy_rejects_foreign_wires():
    alice = StrategySpec("alice", 0, {"deposit": (Apply(("c0",), np.eye(2, dtype=complex)),)})
    with pytest.raises(MalformedStrategy):
        run_escrow(alice, honest_bob_escrow(), Challenge.REVEAL_TO_BOB, 0)


def _receiver_in_alices_seat():
    # it writes its outcome into the depositor's x: the revealed x would read 0 w.p. 0.85
    return StrategySpec("alice", 0, {"receive": (MeasureRecord(("dep",), _COMP, "x"),)})


@pytest.mark.parametrize("run, message", [
    (lambda: run_escrow(honest_alice_escrow(), _receiver_in_alices_seat(),
                        Challenge.REVEAL_TO_BOB, 0), "bob's seat holds a 'alice' strategy"),
    (lambda: run_escrow(StrategySpec("bob", 2, {}), random_return_attack(
        np.random.default_rng(2), 2), Challenge.REVEAL_TO_BOB, 0),
     "alice's seat holds a 'bob' strategy"),
    (lambda: protocols.run_escrow_batch(
        [honest_alice_escrow()] * 2, [honest_bob_escrow(), _receiver_in_alices_seat()],
        Challenge.REVEAL_TO_BOB, [0, 1], EscrowParams()), "bob's seat holds a 'alice' strategy"),
], ids=["receiver-as-alice", "depositor-as-bob", "batch"])
def test_a_spec_in_the_other_partys_seat_is_malformed(run, message, monkeypatch):
    calls = []
    monkeypatch.setattr(qmath, "measure", lambda *a, **k: calls.append(a))
    with pytest.raises(MalformedStrategy, match=message):
        run()
    assert calls == []   # before any branch runs


def test_strategy_rejects_non_unitary_gate():
    bad = np.array([[1.0, 1.0], [0.0, 1.0]], dtype=complex)
    with pytest.raises(MalformedStrategy):
        Apply(("dep",), bad)


def _bob_choosing(*rounds):
    return StrategySpec("bob", 1, {"choose": rounds + (SetBits({"bp": 0}),)})


_NOT_UNITARY = np.array([[1.0, 1.0], [0.0, 1.0]], dtype=complex)


@pytest.mark.parametrize("build", [
    lambda: MeasureRecord(("dep", "c0"), qmath.OrthogonalMeasurement.computational(1), "m"),
    lambda: MeasureRecord(("dep",), np.eye(2), "m"),
    lambda: MeasureRecord(("dep", "dep"), qmath.OrthogonalMeasurement.computational(2), "m"),
    lambda: Apply(("dep", "dep"), np.eye(4)),
    lambda: Apply(("dep",), np.eye(4)),
    lambda: Apply(("dep", "c0"), np.eye(2)),
    lambda: Apply(("dep",), qmath.Unitary(np.eye(2))),
    lambda: _bob_choosing("not a round"),
    lambda: Apply(("dep",), np.stack((np.eye(2),) * 3), keys=("b",)),
    lambda: Apply(("dep",), np.stack((np.eye(2), _NOT_UNITARY)), keys=("b",)),
    lambda: Apply(("dep",), np.eye(2), keys=("b",)),
    lambda: SetBits({"bp": 2}),
    lambda: Apply(("dep",), lambda rec: np.eye(2)),
    lambda: SetBits({"bp": lambda rec: 0}),
    lambda: MeasureRecord(("dep",), qmath.OrthogonalMeasurement(np.stack((np.eye(2),) * 2)),
                          "m"),
], ids=["measurement-dim", "not-a-measurement", "measure-repeated-wire",
        "apply-repeated-wire", "gate-shape", "gate-too-small", "gate-not-a-matrix",
        "unknown-round-type", "table-length", "table-entry-not-unitary", "gate-with-keys",
        "bit-source-2", "callable-gate", "callable-source", "stacked-measurement"])
def test_malformed_round_fails_at_compile_time(build):
    # a round checks itself when it is built, before any strategy or run holds it
    with pytest.raises(MalformedStrategy):
        build()


def test_built_apply_holds_its_checked_unitary():
    eye4 = np.eye(4)
    fixed = Apply(("dep", "c0"), eye4)
    assert fixed.gate is eye4   # kept as given
    assert isinstance(fixed.unitary, qmath.Unitary)
    assert np.array_equal(fixed.unitary.matrix, eye4)
    table = np.stack((np.eye(2), np.array([[0, 1], [1, 0]])))
    keyed = Apply(("c0",), table, keys=("m",))
    assert keyed.gate is table   # record-dependent: the whole table is checked once, when built
    assert isinstance(keyed.unitary, qmath.Unitary)
    assert np.array_equal(keyed.unitary.matrix, table)
    assert np.array_equal(keyed.unitary.take([1, 0, 1]).matrix, table[[1, 0, 1]])


def test_record_dependent_gate_table_is_checked_when_built():
    with pytest.raises(MalformedStrategy):
        run_coinflip(honest_alice_coinflip(), _bob_choosing(
            Apply(("c0",), np.stack((np.eye(2), _NOT_UNITARY)), keys=("m",))))


def test_record_dependent_gate_that_is_not_a_matrix_is_malformed():
    gate = qmath.Unitary(np.eye(2))
    with pytest.raises(MalformedStrategy):
        run_coinflip(honest_alice_coinflip(),
                     _bob_choosing(Apply(("c0",), [gate, gate], keys=("m",))))


def test_record_key_that_is_unset_or_not_a_bit_is_malformed():
    # a table and a bit source read the record through the same reader
    for rnd in (Apply(("c0",), np.stack((np.eye(2),) * 2), keys=("m",)), SetBits({"bp": "m"})):
        with pytest.raises(MalformedStrategy, match="before it is set"):
            run_coinflip(honest_alice_coinflip(), _bob_choosing(rnd))
    four = MeasureRecord(("dep", "c0"), qmath.OrthogonalMeasurement.computational(2), "m")
    with pytest.raises(MalformedStrategy, match="not a bit"):
        run_coinflip(honest_alice_coinflip(), _bob_choosing(four, SetBits({"bp": "m"})))


def test_a_run_records_more_keys_than_its_first_table_holds():
    # forty record keys outgrow a run's first record table; the run must still
    # match the receiver that measures his ancilla once
    comp = qmath.OrthogonalMeasurement.computational(1)
    u = qmath.random_unitary(4, np.random.default_rng(3))

    def receiver(names):
        measures = tuple(MeasureRecord(("c0",), comp, name) for name in names)
        return StrategySpec("bob", 1, {"choose": (Apply(("dep", "c0"), u),) + measures
                                       + (SetBits({"bp": names[-1]}),)})

    many = run_coinflip(honest_alice_coinflip(), receiver([f"m{i}" for i in range(40)]))
    once = run_coinflip(honest_alice_coinflip(), receiver(["m"]))
    leaves = [[(b.alice_verdict, b.bob_verdict, b.transcript) for b in d.branches]
              for d in (many, once)]
    assert leaves[0] == leaves[1]
    assert max(abs(a.probability - b.probability)
               for a, b in zip(many.branches, once.branches)) <= 1e-12


@pytest.mark.parametrize("source, message", [
    ("coin", "not a bit"),
    ("never_set", "before it is set"),
], ids=["verdict", "unset"])
def test_weak_commitment_reads_only_bits_as_bits(source, message):
    # an honest depositor's record holds her coin result under "coin", a
    # verdict and not a bit, so revealing x from it is malformed, as is
    # revealing it from a key that nothing sets
    programs = dict(honest_alice_weak().programs, reveal_x=(SetBits({"rx": source}),))
    alice = StrategySpec("alice", 0, programs, honest=True)
    with pytest.raises(MalformedStrategy, match=message):
        run_weak_commitment(alice, honest_bob_weak(), 0)


_HONEST_ALICE_WITHOUT_B = StrategySpec(
    "alice", 0, {"deposit": (Apply(("dep",), np.eye(2)),),
                 "reveal": (SetBits({"rb": 0, "rx": 0}),)}, honest=True)


@pytest.mark.parametrize("run", [
    lambda alice: run_coinflip(alice, honest_bob_coinflip()),
    lambda alice: run_escrow(alice, honest_bob_escrow(), Challenge.REVEAL_TO_BOB),
], ids=["coinflip", "escrow-reveal"])
def test_honest_party_without_its_result_bits_is_malformed(run):
    # an honest-flagged depositor who never records b has no result of her own
    with pytest.raises(MalformedStrategy):
        run(_HONEST_ALICE_WITHOUT_B)


TABLE_THETAS = (math.pi / 16, math.pi / 12, math.pi / 8, 0.3)


def _same_floats(a, b) -> bool:
    """Whether two complex arrays hold the same floats: ``np.array_equal`` on the float view."""
    return np.array_equal(np.ascontiguousarray(a).view(float), np.ascontiguousarray(b).view(float))


@pytest.mark.parametrize("theta", TABLE_THETAS)
def test_the_encoding_table_holds_the_four_states(theta):
    table = escrow_encoding(theta)
    assert table.shape == (2, 2, 2) and table.dtype == complex
    assert table is escrow_encoding(theta)   # cached per angle
    for b, x in itertools.product((0, 1), repeat=2):
        assert [v.hex() for v in table[b, x].view(float)] == [
            v.hex() for v in phi_vec(bx_angle(b, x, theta)).view(float)]
    with pytest.raises(ValueError):
        table[0, 0, 0] = 1.0


@pytest.mark.parametrize("theta", TABLE_THETAS)
def test_check_bases_and_bit_densities_read_the_table(theta):
    table = escrow_encoding(theta)
    for x in (0, 1):   # column b of the basis for x is phi_{b,x}
        assert _same_floats(escrow_basis(x, theta).matrix, table[:, x].T)
        assert _same_floats(protocols._check_bases(theta).matrix[x], table[:, x].T)
    for b in (0, 1):
        phis = [phi_vec(bx_angle(b, x, theta)) for x in (0, 1)]
        mixture = 0.5 * np.outer(phis[0], phis[0].conj()) + 0.5 * np.outer(phis[1], phis[1].conj())
        assert _same_floats(escrow_bit_density(b, theta).matrix, mixture)


def test_checks_share_one_stacked_basis():
    bases = protocols._check_bases(THETA)
    assert bases is protocols._check_bases(THETA)
    assert bases.matrix.shape == (2, 2, 2)
    for x in (0, 1):
        assert np.array_equal(bases.matrix[x], escrow_basis(x, THETA).matrix)


@pytest.mark.parametrize("count", [1.5, "1", None, -1, 5, True, False])
def test_ancilla_count_must_be_an_integer_from_0_to_4(count):
    with pytest.raises(MalformedStrategy, match="ancilla count"):
        StrategySpec("bob", count, {"receive": (Apply(("dep",), np.eye(2)),)})


def test_a_deposit_that_reads_its_seeded_bit_has_no_reduced_state():
    # the reduced deposit's run seeds no bit, and the honest encoder is keyed on (b, x)
    with pytest.raises(MalformedStrategy, match="reads key 'b' before it is set"):
        deposit_reduced_state(honest_alice_escrow())


def _random_depositor(rng: np.random.Generator, ancillas: int) -> StrategySpec:
    """A deposit that entangles ``dep`` with the ancillas, then may measure the first of them."""
    wires = tuple(f"a{i}" for i in range(ancillas)) + ("dep",)
    rounds = (Apply(wires, qmath.random_unitary(2 ** len(wires), rng)),)
    if ancillas:
        rounds += (MeasureRecord(("a0",), qmath.random_basis_measurement(2, rng), "m"),)
    return StrategySpec("alice", ancillas, {"deposit": rounds})


@pytest.mark.parametrize("ancillas", [0, 1, 2])
def test_a_reduced_deposit_passes_the_full_density_matrix_check(ancillas):
    # a reduced deposit is checked only for its trace; the rest holds by construction
    from qescrow.adversaries import random_binding_pair
    rng = np.random.default_rng(30 + ancillas)
    alices = [_random_depositor(rng, ancillas) for _ in range(20)]
    alices += [alice for _ in range(5) for alice in random_binding_pair(rng)]
    deposits = []   # batched, as a binding pair's reveal runs read them, and single
    protocols.run_escrow_batch(alices, [honest_bob_escrow()] * len(alices),
                               Challenge.REVEAL_TO_BOB, [None] * len(alices), EscrowParams(),
                               deposited=deposits.extend)
    deposits += [deposit_reduced_state(alice) for alice in alices[::4]]
    for d in deposits:
        full = qmath.DensityMatrix(d.wires, d.matrix)   # Hermitian, trace 1 and PSD
        assert d.wires == ("dep",) and np.array_equal(full.matrix, d.matrix)
        assert not d.matrix.flags.writeable


def test_strategy_rejects_unknown_phase():
    alice = StrategySpec("alice", 0, {"banana": (Draw("b"),)})
    with pytest.raises(MalformedStrategy):
        run_escrow(alice, honest_bob_escrow(), Challenge.REVEAL_TO_BOB, 0)


def test_return_challenge_needs_depositor_records():
    alice = StrategySpec("alice", 0, {"deposit": (Apply(("dep",), rotation(0.3)),)})
    with pytest.raises(MalformedStrategy):
        run_escrow(alice, honest_bob_escrow(), Challenge.RETURN_TO_ALICE)


def test_ancilla_budget_enforced():
    with pytest.raises(MalformedStrategy):
        StrategySpec("alice", 5, {})
    big_alice = StrategySpec("alice", 2, dict(honest_alice_weak().programs), honest=True)
    big_bob = StrategySpec("bob", 1, dict(honest_bob_weak().programs), honest=True)
    with pytest.raises(MalformedStrategy):
        run_weak_commitment(big_alice, big_bob, 0)


@pytest.mark.parametrize("deposit", [
    SetBits({"rb": 1}),
    MeasureRecord(("rb",), qmath.OrthogonalMeasurement.computational(1), "m"),
], ids=["writes-message-wire", "measures-message-wire"])
def test_deposit_reduced_state_compiles_the_deposit(deposit):
    with pytest.raises(MalformedStrategy):
        deposit_reduced_state(StrategySpec("alice", 0, {"deposit": (deposit,)}))


# Each game's layout; the order of its wires fixes the amplitude order.
_LAYOUTS = {
    "escrow-reveal": ("dep", "rb", "rx"),
    "escrow-return": ("dep",),
    "reveal-first": ("dep", "rb"),
    "coinflip": ("dep", "bp", "rb", "rx"),
    "weak-commitment": ("dep", "rb", "rx", "dep2", "bp", "rb2", "rx2"),
}
_GAMES = {
    "escrow-reveal": protocols._ESCROW[Challenge.REVEAL_TO_BOB],
    "escrow-return": protocols._ESCROW[Challenge.RETURN_TO_ALICE],
    "reveal-first": protocols._REVEAL_FIRST,
    "coinflip": protocols._COINFLIP,
    "weak-commitment": protocols._WEAK,
}


def test_an_opening_that_raises_raises_for_the_reduced_deposit_too():
    # deposit_reduced_state plays the opening, as binding_metrics does for the same depositor
    from qescrow.analysis import binding_metrics
    alice = StrategySpec("alice", 0, {"deposit": (Apply(("dep",), rotation(0.3)),),
                                      "reveal": (SetBits({"rb": "unset"}),)})
    with pytest.raises(MalformedStrategy) as direct:
        deposit_reduced_state(alice)
    with pytest.raises(MalformedStrategy) as paired:
        binding_metrics(alice, alice)
    assert str(direct.value) == str(paired.value) == "alice reads key 'unset' before it is set"


def _all_steps(steps):
    """Every step of a table, and of each branch of its challenge."""
    for step in steps:
        yield step
        if step[0] == "challenge":
            for _, branch in step[2]:
                yield from _all_steps(branch)


def test_every_game_is_tabled():
    games = [v for v in vars(protocols).values() if isinstance(v, protocols._Game)]
    games += [v for v in protocols._ESCROW.values()]
    assert {id(g) for g in games} == {id(g) for g in _GAMES.values()}


@pytest.mark.parametrize("name", sorted(_LAYOUTS))
def test_a_game_table_names_only_its_own_phases_and_wires(name):
    game = _GAMES[name]
    assert game.wires == _LAYOUTS[name]
    for op, *args in _all_steps(game.steps):
        assert op in {"play", "read", "receive", "check", "own", "reject", "challenge"}
        if op == "play":
            party, phase = args
            assert phase in game.phases[party]
        elif op in ("read", "receive", "check"):
            assert args[0] in game.wires


def _check_posts(steps):
    """Each check's ``post`` in play order (challenge branches err, 1, 0): False when it closes.

    A check closes its branch when no later step of its tuple plays, reads,
    checks or branches.
    """
    for i, step in enumerate(steps):
        if step[0] == "check":
            yield any(later[0] not in ("own", "reject") for later in steps[i + 1:])
        elif step[0] == "challenge":
            for _, branch in step[2]:
                yield from _check_posts(branch)


_HONEST_RUNS = {
    "escrow-reveal": lambda: run_escrow(honest_alice_escrow(), honest_bob_escrow(),
                                        Challenge.REVEAL_TO_BOB, 0),
    "escrow-return": lambda: run_escrow(honest_alice_escrow(), honest_bob_escrow(),
                                        Challenge.RETURN_TO_ALICE, 1),
    "reveal-first": lambda: run_escrow_reveal_then_return(honest_alice_escrow(),
                                                          honest_bob_escrow(), 0),
    "coinflip": lambda: run_coinflip(honest_alice_coinflip(), honest_bob_coinflip()),
    "weak-commitment": lambda: run_weak_commitment(honest_alice_weak(), honest_bob_weak(), 1),
}


@pytest.mark.parametrize("name", sorted(_HONEST_RUNS))
def test_a_check_builds_post_states_only_when_a_later_step_needs_them(name, monkeypatch):
    # honest runs reach every check: an honest coin is never err, so both challenges play
    posts = []

    def measure(*args, **kwargs):
        if "post" in kwargs:   # only a deposit check passes it
            posts.append(kwargs["post"])
        return kernel(*args, **kwargs)

    kernel = qmath.measure
    monkeypatch.setattr(qmath, "measure", measure)
    _HONEST_RUNS[name]()
    assert posts == list(_check_posts(_GAMES[name].steps))
    assert posts == ([True, False, False] if name == "weak-commitment" else [False])


def test_distribution_requires_unit_mass():
    from qescrow.protocols import OutcomeBranch

    with pytest.raises(ProtocolError):
        OutcomeDistribution((OutcomeBranch(0.5, Verdict.ZERO, Verdict.ZERO, ()),))


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 10 ** 6))
def test_arbitrary_receiver_distribution_sums_to_one(seed):
    rng = np.random.default_rng(seed)
    from qescrow.adversaries import random_return_attack

    bob = random_return_attack(rng, ancillas=int(rng.integers(0, 3)))
    for challenge in Challenge:
        dist = run_escrow(honest_alice_escrow(), bob, challenge,
                          claimed_bit=int(rng.integers(0, 2)))
        assert abs(sum(br.probability for br in dist.branches) - 1.0) < 1e-9


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 10 ** 6))
def test_arbitrary_depositor_distribution_sums_to_one(seed):
    rng = np.random.default_rng(seed)
    from qescrow.adversaries import random_binding_pair

    alice, _ = random_binding_pair(rng)
    dist = run_escrow(alice, honest_bob_escrow(), Challenge.REVEAL_TO_BOB)
    assert abs(sum(br.probability for br in dist.branches) - 1.0) < 1e-9
    claims = (dist.transcript_probability(("alice", "b", 0))
              + dist.transcript_probability(("alice", "b", 1)))
    assert abs(claims - 1.0) < 1e-9


def test_reveal_then_return_variant_honest():
    dist = run_escrow_reveal_then_return(honest_alice_escrow(), honest_bob_escrow(),
                                         claimed_bit=0)
    assert dist.verdict_probability("alice", Verdict.ERR) == 0.0
    assert abs(dist.verdict_probability("alice", Verdict.ZERO) - 1.0) < 1e-12


def test_monte_carlo_sampling_matches_enumeration():
    rng = np.random.default_rng(2024)
    dist = run_coinflip(honest_alice_coinflip(), honest_bob_coinflip())
    counts = dist.sample(10 ** 6, rng)
    assert sum(counts.values()) == 10 ** 6
    for verdict in (Verdict.ZERO, Verdict.ONE):
        got = sum(c for (av, _), c in counts.items() if av is verdict) / 10 ** 6
        sigma = math.sqrt(0.25 / 10 ** 6)
        assert abs(got - 0.5) <= 4 * sigma


# ---------------------------------------------------------------------------
# dishonest parties on the message wires, against a dense plain-numpy reference

X2 = np.array([[0, 1], [1, 0]], dtype=complex)


def _dense_op(psi, layout, matrix, on):
    """``matrix`` on the wires ``on`` of the dense state ``psi`` on ``layout``."""
    k, axes = len(on), [layout.index(w) for w in on]
    t = np.tensordot(np.asarray(matrix).reshape((2,) * 2 * k), psi.reshape((2,) * len(layout)),
                     axes=(list(range(k, 2 * k)), axes))
    return np.moveaxis(t, list(range(k)), axes).reshape(-1)


def _dense_checks(layout, branches, theta, keys):
    """Honest Bob reads rb and rx and checks the deposit, on every dense branch.

    ``branches`` are (unnormalized state, b') pairs whose squared norms are
    their probabilities; a passing check's result is b xor b'.  Leaves are
    keyed by (verdict, transcript).
    """
    ket, out = np.eye(2), {}
    for psi, bprime in branches:
        for b, x, c in itertools.product((0, 1), repeat=3):
            phi_c = phi_vec(bx_angle(c, x, theta))
            v = _dense_op(psi, layout, np.outer(ket[b], ket[b]), ("rb",))
            v = _dense_op(v, layout, np.outer(ket[x], ket[x]), ("rx",))
            v = _dense_op(v, layout, np.outer(phi_c, phi_c.conj()), ("dep",))
            key = (Verdict.of_bit(b ^ bprime) if c == b else Verdict.ERR,
                   (("alice", keys[0], b), ("alice", keys[1], x)))
            out[key] = out.get(key, 0.0) + np.vdot(v, v).real
    return out


def _message_wire_case(case, rng):
    """(outcome distribution, dense reference) of one dishonest depositor on the message wires."""
    u_dep = qmath.random_unitary(4, rng)
    deposit = (Apply(("a0", "dep"), u_dep),)
    layout = ("a0", "dep") + (("bp",) if case == "coin-bp-rb-rx" else ()) + ("rb", "rx")
    root = np.zeros(2 ** len(layout), dtype=complex)
    root[0] = 1.0
    psi = _dense_op(root, layout, u_dep, ("a0", "dep"))
    if case == "coin-bp-rb-rx":
        u = qmath.random_unitary(8, rng)
        alice = StrategySpec("alice", 1, {"deposit": deposit,
                                          "reveal": (Apply(("bp", "rb", "rx"), u),)})
        announced = (psi, _dense_op(psi, layout, X2, ("bp",)))  # b' = 0, 1 on the bp wire
        branches = [(_dense_op(math.sqrt(0.5) * announced[bp], layout, u, ("bp", "rb", "rx")), bp)
                    for bp in (0, 1)]
        return (run_coinflip(alice, honest_bob_coinflip()),
                _dense_checks(layout, branches, THETA, ("b_coin", "x_coin")))
    if case in ("gate-rb-rx", "gate-a0-rb"):
        on = ("rb", "rx") if case == "gate-rb-rx" else ("a0", "rb")
        u = qmath.random_unitary(4, rng)
        reveal = (SetBits({"rb": 1}), Apply(on, u))
        branches = [(_dense_op(_dense_op(psi, layout, X2, ("rb",)), layout, u, on), 0)]
    elif case == "measure-rb":
        m = qmath.random_basis_measurement(2, rng)
        reveal = (MeasureRecord(("rb",), m, "m"), SetBits({"rx": "m"}))
        branches = []
        for k in (0, 1):
            v = m.matrix[:, k]
            branch = _dense_op(psi, layout, np.outer(v, v.conj()), ("rb",))
            branches.append((_dense_op(branch, layout, X2, ("rx",)) if k else branch, 0))
    else:  # "set-after-gate": a gate makes rb quantum, then the classical write flips it
        u = qmath.random_unitary(2, rng)
        reveal = (Apply(("rb",), u), SetBits({"rb": 1, "rx": 1}))
        v = _dense_op(_dense_op(psi, layout, u, ("rb",)), layout, X2, ("rb",))
        branches = [(_dense_op(v, layout, X2, ("rx",)), 0)]
    alice = StrategySpec("alice", 1, {"deposit": deposit, "reveal": reveal})
    return (run_escrow(alice, honest_bob_escrow(), Challenge.REVEAL_TO_BOB),
            _dense_checks(layout, branches, THETA, ("b", "x")))


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("case", ["gate-rb-rx", "gate-a0-rb", "coin-bp-rb-rx", "measure-rb",
                                  "set-after-gate"])
def test_dishonest_message_wires_match_the_dense_reference(case, seed):
    dist, ref = _message_wire_case(case, np.random.default_rng(seed))
    got = {(br.bob_verdict, br.transcript): br.probability for br in dist.branches}
    assert len(got) == len(dist.branches)
    assert all(br.alice_verdict is br.bob_verdict for br in dist.branches)
    for key in set(got) | set(ref):
        assert abs(got.get(key, 0.0) - ref.get(key, 0.0)) <= 1e-12, key
    assert sum(ref.values()) == pytest.approx(1.0, abs=1e-12)
