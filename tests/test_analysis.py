"""Metric-extraction and bound-checking tests."""

import math

import numpy as np
import pytest

from helpers import fixed_bit_alice
from qescrow import adversaries as adv
from qescrow import analysis as ana
from qescrow import protocols, qmath
from qescrow.analysis import (
    BiasReport,
    BindingReport,
    DepositMismatch,
    HonestParty,
    NotUnitaryAttack,
    SealingReport,
    binding_metrics,
    check_binding_bound,
    check_sealing_bound,
    coinflip_bias,
    enumerated_return_error,
    modified_sealing_check,
    sealing_bound_rhs,
    sealing_metrics,
    w_decomposition,
)
from qescrow.protocols import (
    Apply,
    EscrowParams,
    MalformedStrategy,
    MeasureRecord,
    ProtocolError,
    SetBits,
    StrategySpec,
    bx_angle,
    deposit_reduced_state,
    escrow_bit_density,
    honest_bob_coinflip,
    phi_vec,
    rotation,
)

THETA = math.pi / 8


# ---------------------------------------------------------------------------
# binding


def test_binding_rejects_mismatched_deposits():
    with pytest.raises(DepositMismatch):
        binding_metrics(fixed_bit_alice(0), fixed_bit_alice(1))


def test_binding_delayed_pair():
    _, one = adv.protocol_quadratic_pair(0.0)
    rep = binding_metrics(one, one)
    assert rep.p_err < 1e-12 and rep.q_err < 1e-12
    assert abs(rep.p0 - 0.5) < 1e-12 and abs(rep.q0 - 0.5) < 1e-12
    assert rep.gamma_observed < 1e-12
    assert check_binding_bound(rep)


def test_binding_quadratic_pair_quarter_pi():
    zero, one = adv.protocol_quadratic_pair(math.pi / 4)
    rep = binding_metrics(zero, one)
    assert abs(rep.gamma_observed - 0.35355339059327373) < 1e-8
    assert check_binding_bound(rep)
    assert rep.gamma_observed <= rep.bound


def test_binding_bound_formula():
    rep = BindingReport(THETA, 0.6, 0.4, 0.04, 0.5, 0.5, 0.09)
    want = (math.sqrt(0.04) + math.sqrt(0.09)) / math.cos(2 * THETA)
    assert abs(rep.bound - want) < 1e-12
    assert abs(rep.gamma_observed - 0.1) < 1e-12
    assert check_binding_bound(rep)


def test_binding_synthetic_violation_fails():
    rep = BindingReport(THETA, 0.9, 0.1, 0.0, 0.1, 0.9, 0.0)
    assert not check_binding_bound(rep)


def test_binding_report_validates_probabilities():
    with pytest.raises(ana.AnalysisError):
        BindingReport(THETA, 1.5, 0.0, 0.0, 0.5, 0.5, 0.0)
    with pytest.raises(ana.AnalysisError):
        BindingReport(THETA, 0.8, 0.8, 0.0, 0.5, 0.5, 0.0)


def _pair_with_deposits(rng, ancillas, epsilon, reveal=None):
    """Two depositors whose deposit gates differ by a rotation of ``epsilon`` on ``dep``."""
    wires = tuple(f"a{i}" for i in range(ancillas)) + ("dep",)
    u = qmath.random_unitary(2 ** len(wires), rng)
    nudged = np.kron(np.eye(2 ** ancillas), rotation(epsilon)) @ u
    claim = reveal or (SetBits({"rb": 0, "rx": 1}),)
    return tuple(StrategySpec("alice", ancillas, {"deposit": (Apply(wires, gate),),
                                                  "reveal": claim})
                 for gate in (u, nudged))


def test_binding_mismatch_is_exactly_a_deposit_gap_above_1e_9():
    # the deposits read off the reveal game's rows are compared as the
    # separate deposit states would be: DepositMismatch iff they differ by > 1e-9
    rng = np.random.default_rng(61)
    raised = []
    for epsilon in (0.0, 1e-12, 1e-10, 3e-10, 1e-9, 3e-9, 1e-8, 1e-4, 0.3):
        for ancillas in (0, 1, 2):
            for _ in range(4):
                pair = _pair_with_deposits(rng, ancillas, epsilon)
                d0, d1 = (deposit_reduced_state(alice).matrix for alice in pair)
                gap = np.max(np.abs(d0 - d1)) > 1e-9
                try:
                    binding_metrics(*pair)
                    raised.append((gap, False))
                except DepositMismatch:
                    raised.append((gap, True))
    assert all(gap == mismatch for gap, mismatch in raised)
    assert {True, False} == {gap for gap, _ in raised}   # the corpus has both sides


def test_a_deposit_mismatch_precedes_an_opening_that_reads_an_unset_key():
    # one pass compares the deposits before either opening plays
    rng = np.random.default_rng(62)
    unset = (SetBits({"rb": "nokey", "rx": 0}),)
    with pytest.raises(DepositMismatch):
        binding_metrics(*_pair_with_deposits(rng, 1, 0.3, unset))
    with pytest.raises(MalformedStrategy, match="'nokey' before it is set"):
        binding_metrics(*_pair_with_deposits(rng, 1, 0.0, unset))
    reads_b = StrategySpec("alice", 0, {"deposit": (
        Apply(("dep",), np.stack((np.eye(2), rotation(0.4))), keys=("b",)),)})
    with pytest.raises(MalformedStrategy, match="'b' before it is set"):
        binding_metrics(reads_b, fixed_bit_alice(1))   # the deposit itself fails first


def test_binding_frontier_on_random_pairs():
    rng = np.random.default_rng(101)
    for _ in range(100):
        rep = binding_metrics(*adv.random_binding_pair(rng))
        assert check_binding_bound(rep)


# ---------------------------------------------------------------------------
# sealing


def identity_bob(ancillas=1):
    wires = ("dep",) + tuple(f"c{i}" for i in range(ancillas))
    return StrategySpec("bob", ancillas,
                        {"receive": (Apply(wires, np.eye(2 ** len(wires), dtype=complex)),)})


def test_sealing_identity_receiver():
    rep = sealing_metrics(identity_bob())
    assert rep.advantage_eps < 1e-12
    assert rep.detection_p < 1e-12
    assert all(w < 1e-12 for w in rep.w_norms)


def test_sealing_quarter_strength_numbers():
    r0, r1 = escrow_bit_density(0, THETA), escrow_bit_density(1, THETA)
    bob = adv.bob_weak_measurement(adv.BobWeakParams(0.25), r0, r1)
    rep = sealing_metrics(bob)
    assert abs(rep.advantage_eps - 0.17677669529663687) < 1e-9
    assert rep.detection_p <= 0.0669872981077807 + 1e-9
    assert check_sealing_bound(rep)


def test_sealing_full_strength_extraction_vs_enumeration():
    r0, r1 = escrow_bit_density(0, THETA), escrow_bit_density(1, THETA)
    bob = adv.bob_weak_measurement(adv.BobWeakParams(1.0), r0, r1)
    rep = sealing_metrics(bob)
    assert abs(rep.advantage_eps - math.sqrt(2) / 4) < 1e-9
    assert abs(rep.detection_p - 0.25 * sum(rep.w_norms)) < 1e-12
    assert abs(enumerated_return_error(bob) - rep.detection_p) < 1e-9


def test_sealing_rejects_non_unitary_attacks():
    meas_bob = StrategySpec("bob", 1, {"receive": (
        MeasureRecord(("dep",), qmath.OrthogonalMeasurement.computational(1), "m"),)})
    with pytest.raises(NotUnitaryAttack):
        sealing_metrics(meas_bob)
    wrong_order = StrategySpec("bob", 1, {"receive": (
        Apply(("c0", "dep"), np.eye(4, dtype=complex)),)})
    with pytest.raises(NotUnitaryAttack):
        sealing_metrics(wrong_order)
    two_rounds = StrategySpec("bob", 1, {"receive": (
        Apply(("dep", "c0"), np.eye(4, dtype=complex)),
        Apply(("dep", "c0"), np.eye(4, dtype=complex)))})
    with pytest.raises(NotUnitaryAttack):
        sealing_metrics(two_rounds)


def test_w_decomposition_unitarity_relations():
    rng = np.random.default_rng(31)
    for _ in range(50):
        u = qmath.random_unitary(8, rng)
        dec = w_decomposition(u, THETA)
        for x in (0, 1):
            resid = (np.vdot(dec[(0, x)][0], dec[(1, x)][1])
                     + np.vdot(dec[(0, x)][1], dec[(1, x)][0]))
            assert abs(resid) < 1e-9
        # component masses per case sum to 1
        for key, (w, w_bad) in dec.items():
            assert abs(np.linalg.norm(w) ** 2 + np.linalg.norm(w_bad) ** 2 - 1.0) < 1e-12


def test_sealing_detection_identity_and_frontier_random():
    rng = np.random.default_rng(37)
    for _ in range(100):
        bob = adv.random_return_attack(rng, 2)
        rep = sealing_metrics(bob)
        assert abs(enumerated_return_error(bob) - rep.detection_p) < 1e-9
        assert check_sealing_bound(rep)


def _loop_w_decomposition(u, theta):
    """The decomposition as a plain loop over (b, x), each encoding built where it is used."""
    anc_dim = u.shape[0] // 2
    out = {}
    for b in (0, 1):
        for x in (0, 1):
            phi = phi_vec(bx_angle(b, x, theta))
            start = np.zeros(2 * anc_dim, dtype=complex)
            start[::anc_dim] = phi
            attacked = (u @ start).reshape(2, anc_dim)
            out[(b, x)] = (phi.conj() @ attacked,
                           phi_vec(bx_angle(1 - b, x, theta)).conj() @ attacked)
    return out


def _loop_sealing(u, theta):
    """(advantage, detection, w' masses, kept trace distance), each kept state summed in a loop."""
    dec = _loop_w_decomposition(u, theta)
    w_norms = tuple(float(np.linalg.norm(dec[(b, x)][1]) ** 2) for b in (0, 1) for x in (0, 1))
    anc_dim = u.shape[0] // 2
    kept = []
    for b in (0, 1):
        rho = np.zeros((anc_dim, anc_dim), dtype=complex)
        for x in (0, 1):
            w, w_bad = dec[(b, x)]
            rho += 0.5 * (np.outer(w, w.conj()) + np.outer(w_bad, w_bad.conj()))
        kept.append(rho)
    distance = qmath.trace_norm(kept[0] - kept[1])
    return distance / 4.0, 0.25 * sum(w_norms), w_norms, distance


def _hex(values) -> list[str]:
    return [v.hex() for v in np.asarray(values, dtype=complex).view(float).ravel().tolist()]


@pytest.mark.parametrize("theta", [math.pi / 16, math.pi / 12, math.pi / 8])
@pytest.mark.parametrize("ancillas", [0, 1, 2])
def test_sealing_metrics_are_the_plain_loops_to_the_bit(ancillas, theta):
    # the encodings are cached per (theta, ancilla dimension), the kept
    # states are one broadcast product, and each w' mass is np.linalg.norm's
    # arithmetic without its dispatch: none may move a float
    rng = np.random.default_rng(100 + ancillas)
    for _ in range(20):
        bob = adv.random_return_attack(rng, ancillas)
        u, _ = ana.extract_attack_unitary(bob)
        dec, want = w_decomposition(u, theta), _loop_w_decomposition(u, theta)
        assert list(dec) == list(want)
        assert all(_hex(dec[k][i]) == _hex(want[k][i]) for k in want for i in (0, 1))
        rep = sealing_metrics(bob, EscrowParams(theta))
        advantage, detection, w_norms, distance = _loop_sealing(u, theta)
        assert _hex([rep.advantage_eps, rep.detection_p, *rep.w_norms, rep.kept_trace_distance]) \
            == _hex([advantage, detection, *w_norms, distance])


@pytest.mark.parametrize("theta", [math.pi / 16, math.pi / 12, math.pi / 8])
@pytest.mark.parametrize("ancillas", [0, 1, 2])
def test_a_conditional_pair_reports_each_action_as_sealing_metrics(ancillas, theta):
    # the pair's two reports come from one stacked decomposition, bit for bit
    rng = np.random.default_rng(300 + ancillas)
    params = EscrowParams(theta)
    def floats(r):
        return _hex([r.advantage_eps, r.detection_p, *r.w_norms, r.bound_rhs,
                     r.kept_trace_distance])

    for _ in range(10):
        pair = (adv.random_return_attack(rng, ancillas), adv.random_return_attack(rng, ancillas))
        single = [sealing_metrics(bob, params) for bob in pair]
        stack = np.stack([ana.extract_attack_unitary(bob)[0] for bob in pair])
        assert [floats(r) for r in ana._sealing_reports(stack, theta)] == list(map(floats, single))
        rep = modified_sealing_check(pair, params)
        assert _hex([rep.detection_b0, rep.detection_b1]) == _hex(
            [0.5 * (r.w_norms[2 * b] + r.w_norms[2 * b + 1]) for b, r in enumerate(single)])


def test_sealing_bound_rhs_shape():
    # (2^7 cot(2t) + sqrt(2)) sqrt(p) + p/2
    p = 0.04
    want = (2 ** 7 / math.tan(2 * THETA) + math.sqrt(2)) * 0.2 + 0.02
    assert abs(sealing_bound_rhs(THETA, p) - want) < 1e-12
    assert sealing_bound_rhs(THETA, 0.0) == 0.0


def test_sealing_report_checks_detection_identity():
    with pytest.raises(ana.AnalysisError):
        SealingReport(THETA, 0.1, 0.5, (0.1, 0.1, 0.1, 0.1), 1.0, 0.4)


# ---------------------------------------------------------------------------
# coin-flip bias


def test_bias_honest_adversaries():
    rep = coinflip_bias(HonestParty.ALICE_HONEST, honest_bob_coinflip())
    assert rep.delta_observed < 1e-12
    assert rep.err_prob == 0.0


def test_bias_full_measurement_receiver():
    rep = coinflip_bias(HonestParty.ALICE_HONEST, adv.full_measurement_bob())
    assert abs(rep.win_prob_0 - 0.8535533905932737) < 1e-9
    assert rep.err_prob == 0.0


def test_bias_constant_receiver():
    rep = coinflip_bias(HonestParty.ALICE_HONEST, adv.constant_bob(1))
    assert rep.delta_observed < 1e-12


def test_bias_depositor_cheat_below_cap():
    rep = coinflip_bias(HonestParty.BOB_HONEST,
                        adv.alice_coinflip_from_angles(adv.ALICE_SEED_POINT))
    assert max(rep.win_prob_0, rep.win_prob_1) <= ana.ALICE_WIN_CAP
    assert rep.err_prob > 0.14  # the cheat runs real detection risk


def test_bias_report_mass_check():
    with pytest.raises(ana.AnalysisError):
        BiasReport(0.6, 0.6, 0.0)


def test_caps_are_the_expected_constants():
    assert abs(ana.BOB_WIN_CAP - 0.8535533905932737) < 1e-15
    assert abs(ana.ALICE_WIN_CAP - 0.9142135623730951) < 1e-15
    assert ana.ALICE_WIN_CAP <= 0.9143


# ---------------------------------------------------------------------------
# modified (reveal-bit-first) variant


def test_modified_identity_pair_passes():
    pair = (identity_bob(), identity_bob())
    rep = modified_sealing_check(pair)
    assert rep.passed
    assert rep.detection_total < 1e-12


def test_modified_unconditional_pair_matches_sealing_metrics():
    r0, r1 = escrow_bit_density(0, THETA), escrow_bit_density(1, THETA)
    bob = adv.bob_weak_measurement(adv.BobWeakParams(0.4), r0, r1)
    rep = modified_sealing_check((bob, bob))
    base = sealing_metrics(bob)
    assert abs(rep.detection_total - base.detection_p) < 1e-12
    assert abs(rep.enumerated_total - rep.detection_total) < 1e-9
    assert rep.passed


def test_modified_random_conditional_pairs():
    rng = np.random.default_rng(43)
    for _ in range(50):
        pair = (adv.random_return_attack(rng, 1), adv.random_return_attack(rng, 1))
        rep = modified_sealing_check(pair)
        assert rep.passed
        assert abs(rep.enumerated_total - rep.detection_total) < 1e-9


def test_modified_rejects_mismatched_registers():
    with pytest.raises(NotUnitaryAttack):
        modified_sealing_check((identity_bob(1), identity_bob(2)))


_AMPS4 = np.array([1, 0, 0, 0], dtype=complex)
_ALICE, _BOB = protocols.honest_alice_escrow(), protocols.honest_bob_escrow()
_REVEAL = protocols.Challenge.REVEAL_TO_BOB


def _nan_table():
    """The escrow encoding table at pi/8, with a NaN in phi_{0,1}."""
    table = np.array(protocols.escrow_encoding(THETA))
    table[0, 1, 0] = math.nan
    return table


def _quadratic(table):
    return adv.alice_quadratic(adv.AliceQuadraticParams(0.1), table)


# id: (build, error type, text the message must hold)
_TYPED_ERRORS = {
    "state-wires-str": (lambda: qmath.StateVector("ab", _AMPS4), qmath.WireMismatch, "'ab'"),
    "density-wires-str": (lambda: qmath.DensityMatrix("ab", np.eye(4) / 4), qmath.WireMismatch,
                          "'ab'"),
    "random-state-wires-str": (lambda: qmath.random_state("ab", np.random.default_rng(0)),
                               qmath.WireMismatch, "'ab'"),
    "random-density-wires-str": (lambda: qmath.random_density("ab", np.random.default_rng(0)),
                                 qmath.WireMismatch, "'ab'"),
    "honest-flag-str": (lambda: StrategySpec("alice", 0, {}, honest="yes"), MalformedStrategy,
                        "'yes'"),
    "unitary-angles-str": (lambda: adv.unitary_from_angles(2, ("a", "b", "c")),
                           adv.AdversaryError, "'a'"),
    "state-angles-str": (lambda: adv.state_from_angles(2, (0.1, "x")), adv.AdversaryError,
                         "'x'"),
    "depositor-angles-str": (lambda: adv.alice_coinflip_from_angles(["t"] * 12),
                             adv.AdversaryError, "'t'"),
    "bias-party-str": (lambda: coinflip_bias("bob", adv.constant_bob(0)), ana.AnalysisError,
                       "'bob'"),
    "bias-batch-party-str": (lambda: ana.coinflip_bias_batch("alice", [adv.constant_bob(0)]),
                             ana.AnalysisError, "'alice'"),
    # params that are not an EscrowParams
    "run-escrow-params": (lambda: protocols.run_escrow(_ALICE, _BOB, _REVEAL, 0, 0.3),
                          ProtocolError, "0.3"),
    "run-escrow-batch-params": (lambda: protocols.run_escrow_batch([_ALICE], [_BOB], _REVEAL,
                                                                   [0], 0.3), ProtocolError, "0.3"),
    "reveal-then-return-params": (lambda: protocols.run_escrow_reveal_then_return(
        _ALICE, _BOB, 0, 0.3), ProtocolError, "0.3"),
    "reveal-then-return-batch-params": (lambda: protocols.run_escrow_reveal_then_return_batch(
        [_ALICE], [_BOB], [0], 0.3), ProtocolError, "0.3"),
    "weak-commitment-params": (lambda: protocols.run_weak_commitment(
        protocols.honest_alice_weak(), protocols.honest_bob_weak(), 0, 0.3), ProtocolError, "0.3"),
    "honest-escrow-params": (lambda: protocols.honest_alice_escrow(0.3), ProtocolError, "0.3"),
    "honest-weak-params": (lambda: protocols.honest_alice_weak(0.3), ProtocolError, "0.3"),
    "binding-params": (lambda: binding_metrics(_ALICE, _ALICE, 0.3), ProtocolError, "0.3"),
    "sealing-params": (lambda: sealing_metrics(identity_bob(), 0.3), ProtocolError, "0.3"),
    "return-error-params": (lambda: enumerated_return_error(identity_bob(), 0.3), ProtocolError,
                            "0.3"),
    "modified-params": (lambda: modified_sealing_check((identity_bob(), identity_bob()), 0.3),
                        ProtocolError, "0.3"),
    "quadratic-pair-params": (lambda: adv.protocol_quadratic_pair(0.1, 0.3), ProtocolError,
                              "0.3"),
    # queries that would match nothing
    "verdict-str": (lambda: protocols.run_coinflip(
        protocols.honest_alice_coinflip(), honest_bob_coinflip()).verdict_probability("alice", "0"),
        ProtocolError, "'0'"),
    "transcript-entry-str": (lambda: protocols.run_coinflip(
        protocols.honest_alice_coinflip(), honest_bob_coinflip()).transcript_probability("x"),
        ProtocolError, "'x'"),
    "quadratic-alpha-str": (lambda: adv.AliceQuadraticParams("a"), adv.AdversaryError, "'a'"),
    "weak-strength-str": (lambda: adv.BobWeakParams("a"), adv.AdversaryError, "'a'"),
    "weak-unitary-strength": (lambda: adv.weak_measurement_unitary(
        escrow_bit_density(0, THETA), escrow_bit_density(1, THETA), 2.0), adv.AdversaryError,
        "2.0"),
    "modified-not-a-pair": (lambda: modified_sealing_check((identity_bob(),)), ana.AnalysisError,
                            "needs a pair"),
    "trace-norm-vector": (lambda: qmath.trace_norm(np.ones(3)), qmath.QMathError, "(3,)"),
    # the encoding table: a finite real angle, bits, and a caller's table
    "encoding-theta-list": (lambda: protocols.escrow_encoding([0.3]), ProtocolError, "[0.3]"),
    "encoding-theta-nan": (lambda: protocols.escrow_encoding(math.nan), ProtocolError, "nan"),
    "bit-density-theta-str": (lambda: escrow_bit_density(0, "a"), ProtocolError, "'a'"),
    "bit-density-bit-2": (lambda: escrow_bit_density(2, THETA), ProtocolError, "bit 2"),
    "table-density-bit-2": (lambda: protocols.bit_density(protocols.escrow_encoding(THETA), 2),
                            ProtocolError, "bit 2"),
    "basis-2": (lambda: protocols.escrow_basis(2, THETA), ProtocolError, "basis 2"),
    "basis-str": (lambda: protocols.escrow_basis("a", THETA), ProtocolError, "'a'"),
    "quadratic-table-shape": (lambda: _quadratic(np.ones((3, 2, 2))), adv.AdversaryError,
                              "(3, 2, 2)"),
    "quadratic-table-nan": (lambda: _quadratic(_nan_table()), adv.AdversaryError, "nan"),
    "quadratic-table-norm-2": (lambda: _quadratic(2 * protocols.escrow_encoding(THETA)),
                               adv.AdversaryError, "norm 2.0"),
}


@pytest.mark.parametrize("build, error, named", _TYPED_ERRORS.values(), ids=list(_TYPED_ERRORS))
def test_a_malformed_state_flag_angle_or_party_raises_a_typed_error(build, error, named):
    # each raised a raw exception or gave a wrong answer before it was checked: a bare str
    # became one wire per character, "yes" ran as honest, a text angle or a float params
    # raised a raw error, a str party took the depositor branch, a str verdict matched
    # nothing, and bit 2 read as bit 1
    with pytest.raises(error) as caught:
        build()
    assert named in str(caught.value)
