"""Cheating-strategy tests: closed forms, parameterizations, optimizer behavior."""

import math
import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest
from scipy.optimize import minimize

from helpers import fixed_bit_alice
from qescrow import adversaries as adv
from qescrow import analysis as ana
from qescrow import qmath
from qescrow.protocols import (
    Challenge,
    MalformedStrategy,
    Verdict,
    escrow_bit_density,
    honest_alice_coinflip,
    honest_bob_coinflip,
    honest_bob_escrow,
    run_coinflip,
    run_escrow,
    validate_strategy,
)

THETA = math.pi / 8
ALPHA_GRID = (0.0, math.pi / 16, math.pi / 8, 3 * math.pi / 16, math.pi / 4)
F_PROTOCOL = 0.5  # fidelity of the two bit encodings at theta = pi/8


def protocol_densities():
    return escrow_bit_density(0, THETA), escrow_bit_density(1, THETA)


# ---------------------------------------------------------------------------
# quadratic depositor


def test_quadratic_params_validation():
    adv.AliceQuadraticParams(0.0)
    adv.AliceQuadraticParams(math.pi / 4, 1)
    with pytest.raises(adv.AdversaryError):
        adv.AliceQuadraticParams(1.0)
    with pytest.raises(adv.AdversaryError):
        adv.AliceQuadraticParams(0.1, 2)


def test_quadratic_alpha_zero_is_delayed_choice():
    zero, one = adv.protocol_quadratic_pair(0.0)
    bob = honest_bob_escrow()
    d0 = run_escrow(zero, bob, Challenge.REVEAL_TO_BOB)
    d1 = run_escrow(one, bob, Challenge.REVEAL_TO_BOB)
    for d in (d0, d1):
        assert abs(d.transcript_probability(("alice", "b", 0)) - 0.5) < 1e-12
        assert d.verdict_probability("bob", Verdict.ERR) < 1e-12
    assert abs(d0.verdict_probability("bob", Verdict.ZERO)
               - d1.verdict_probability("bob", Verdict.ZERO)) < 1e-12


@pytest.mark.parametrize("alpha", ALPHA_GRID)
def test_quadratic_closed_forms_on_grid(alpha):
    """The construction's exact behavior: advantage sqrt(f) sin(2a)/2 and
    detection (1-f) sin^2(a) (per claim branch it is half that)."""
    zero, one = adv.protocol_quadratic_pair(alpha)
    rep = ana.binding_metrics(zero, one)
    assert abs((rep.p0 - 0.5) - math.sqrt(F_PROTOCOL) * math.sin(2 * alpha) / 2) < 1e-8
    assert abs(rep.p_err - (1 - F_PROTOCOL) * math.sin(alpha) ** 2) < 1e-9
    assert rep.q_err < 1e-12  # the honest-delayed side is never caught
    assert abs(rep.q0 - 0.5) < 1e-9
    assert ana.check_binding_bound(rep)


def test_quadratic_orthogonal_pure_states_give_no_advantage():
    # f = 0: the sqrt(f) factor kills the advantage at every alpha
    table = np.array([[[1, 0], [1, 0]], [[0, 1], [0, 1]]], dtype=complex)   # |0>, |0>; |1>, |1>
    for alpha in (0.0, math.pi / 8, math.pi / 4):
        spec = adv.alice_quadratic(adv.AliceQuadraticParams(alpha, 0), table)
        dist = run_escrow(spec, honest_bob_escrow(), Challenge.REVEAL_TO_BOB)
        p0 = dist.transcript_probability(("alice", "b", 0))
        assert abs(p0 - 0.5) < 1e-9


def test_quadratic_strategies_validate():
    for alpha in ALPHA_GRID:
        for spec in adv.protocol_quadratic_pair(alpha):
            assert validate_strategy(spec.shape, {"deposit": ("dep",), "reveal": ("rb", "rx")}) is None


# ---------------------------------------------------------------------------
# weak measurement receiver


def test_weak_params_validation():
    adv.BobWeakParams(0.0)
    adv.BobWeakParams(1.0)
    with pytest.raises(adv.AdversaryError):
        adv.BobWeakParams(1.5)


def test_weak_p0_is_inert():
    r0, r1 = protocol_densities()
    bob = adv.bob_weak_measurement(adv.BobWeakParams(0.0), r0, r1)
    rep = ana.sealing_metrics(bob)
    assert rep.kept_trace_distance < 1e-12
    assert rep.detection_p < 1e-12
    u, _ = ana.extract_attack_unitary(bob)
    # identity on the reachable |e,0> fibers
    for vec in (np.kron([1, 0], [1, 0]), np.kron([0, 1], [1, 0])):
        assert np.max(np.abs(u @ vec - vec)) < 1e-12


@pytest.mark.parametrize("p", [i / 10 for i in range(11)])
def test_weak_closed_forms_on_grid(p):
    r0, r1 = protocol_densities()
    t = qmath.trace_norm(r0.matrix - r1.matrix)
    bob = adv.bob_weak_measurement(adv.BobWeakParams(p), r0, r1)
    rep = ana.sealing_metrics(bob)
    assert abs(rep.kept_trace_distance - t * math.sqrt(p)) < 1e-8
    assert rep.detection_p <= 0.5 * (1 - math.sqrt(1 - p)) + 1e-9
    # for this protocol the detection is exactly sin^2(2 theta)/2 (1 - sqrt(1-p))
    assert abs(rep.detection_p - 0.25 * (1 - math.sqrt(1 - p))) < 1e-10
    assert abs(ana.enumerated_return_error(bob) - rep.detection_p) < 1e-9


def test_weak_p1_equals_full_measurement():
    r0, r1 = protocol_densities()
    bob = adv.bob_weak_measurement(adv.BobWeakParams(1.0), r0, r1)
    rep = ana.sealing_metrics(bob)
    t = qmath.trace_norm(r0.matrix - r1.matrix)
    assert abs(rep.kept_trace_distance - t) < 1e-10  # ancilla carries everything
    assert abs(rep.kept_trace_distance - math.sqrt(2)) < 1e-10
    assert abs(rep.advantage_eps - math.sqrt(2) / 4) < 1e-10


def test_weak_p_quarter_reference_numbers():
    r0, r1 = protocol_densities()
    bob = adv.bob_weak_measurement(adv.BobWeakParams(0.25), r0, r1)
    rep = ana.sealing_metrics(bob)
    assert abs(rep.kept_trace_distance - 0.7071067811865476) < 1e-9
    assert abs(rep.advantage_eps - 0.17677669529663687) < 1e-9
    assert rep.detection_p <= 0.0669872981077807 + 1e-9


# ---------------------------------------------------------------------------
# fixed strategies and parameterization


def test_always_claim_0_alice_runs():
    dist = run_escrow(fixed_bit_alice(0), honest_bob_escrow(), Challenge.REVEAL_TO_BOB)
    assert abs(dist.transcript_probability(("alice", "b", 0)) - 1.0) < 1e-12
    assert dist.verdict_probability("bob", Verdict.ERR) < 1e-12


def test_full_measurement_bob_attains_cap():
    rep = ana.coinflip_bias(ana.HonestParty.ALICE_HONEST, adv.full_measurement_bob())
    assert abs(rep.win_prob_0 - math.cos(math.pi / 8) ** 2) < 1e-12


def test_basis_receiver_measures_in_its_matrix_columns():
    # the matrix is taken whole: the same basis, bit for bit, as stacking its two columns
    u2 = adv.unitary_from_angles(2, (0.3, 1.1, 2.7))
    measurement = adv.bob_measure_coinflip(u2).programs["choose"][0].measurement
    columns = qmath.OrthogonalMeasurement(np.column_stack([u2[:, 0], u2[:, 1]]))
    assert measurement.matrix.tobytes() == columns.matrix.tobytes()
    assert measurement.adjoint.tobytes() == columns.adjoint.tobytes()


def test_delayed_alice_binding_baseline():
    zero, one = adv.protocol_quadratic_pair(0.0)
    rep = ana.binding_metrics(one, one)
    assert rep.p_err < 1e-12 and rep.q_err < 1e-12
    assert abs(rep.p0 - rep.q0) < 1e-12


def test_parameterize_identity_at_zero():
    for dim in (2, 4, 8):
        u = adv.unitary_from_angles(dim, np.zeros(3 * dim * (dim - 1) // 2))
        assert np.max(np.abs(u - np.eye(dim))) < 1e-12


def test_parameterize_single_qubit_rotation():
    u = adv.unitary_from_angles(2, (0.3, 0.0, 0.0))
    want = np.array([[math.cos(0.3), -math.sin(0.3)], [math.sin(0.3), math.cos(0.3)]])
    assert np.max(np.abs(u - want)) < 1e-12


def test_parameterize_random_angles_unitary():
    rng = np.random.default_rng(11)
    for dim in (2, 4, 8):
        angles = rng.uniform(0, 2 * math.pi, 3 * dim * (dim - 1) // 2)
        assert qmath.is_unitary(adv.unitary_from_angles(dim, angles))


def test_parameterize_rejects_bad_counts():
    with pytest.raises(adv.BadParameterCount):
        adv.unitary_from_angles(4, (0.1, 0.2))
    with pytest.raises(adv.BadParameterCount):
        adv.state_from_angles(4, (0.1,))


def test_state_from_angles_unit_norm():
    rng = np.random.default_rng(3)
    for _ in range(20):
        v = adv.state_from_angles(4, rng.uniform(-4, 4, 6))
        assert abs(np.linalg.norm(v) - 1.0) < 1e-12


def test_alice_seed_point_wins_at_product_cheat_value():
    rep = ana.coinflip_bias(ana.HonestParty.BOB_HONEST,
                            adv.alice_coinflip_from_angles(adv.ALICE_SEED_POINT))
    assert abs(max(rep.win_prob_0, rep.win_prob_1) - math.cos(math.pi / 8) ** 2) < 1e-12


def test_depositor_builds_share_their_fixed_rounds():
    # the CNOT, the readout of a0 and the claim of x are built and checked once
    rng = np.random.default_rng(4)
    one, two = (adv.alice_coinflip_from_angles(rng.uniform(0, math.pi, 12)) for _ in range(2))
    (cnot, basis, *fixed), (cnot2, basis2, *fixed2) = (s.programs["reveal"] for s in (one, two))
    assert cnot is cnot2 and basis is not basis2
    assert len(fixed) == 2 and all(a is b for a, b in zip(fixed, fixed2))


@pytest.mark.parametrize("bit", [0.7, "1"])
def test_a_constant_receiver_announces_a_bit_or_fails(bit):
    # 0.7 is no bit source; "1" is a record key that the receiver never sets
    with pytest.raises(MalformedStrategy):
        run_coinflip(honest_alice_coinflip(), adv.constant_bob(bit))


@pytest.mark.parametrize("bit", ["1", 0.7, 2, None])
def test_a_constant_receiver_of_a_non_bit_is_not_built(bit):
    # the label would name an announcement that the built receiver never makes
    with pytest.raises(MalformedStrategy, match="announces 0 or 1"):
        adv.constant_bob(bit)


@pytest.mark.parametrize("bit", [1, np.int64(0)])
def test_a_constant_receiver_of_a_bit_announces_it(bit):
    dist = run_coinflip(honest_alice_coinflip(), adv.constant_bob(bit))
    assert dist.transcript_probability(("bob", "bprime", int(bit))) == pytest.approx(1.0)


# ---------------------------------------------------------------------------
# optimizer


def bob_evaluator(spec):
    return run_coinflip(honest_alice_coinflip(), spec)


def alice_evaluator(spec):
    return run_coinflip(spec, honest_bob_coinflip())


def test_optimizer_receiver_converges_to_cap_and_respects_it():
    cfg = adv.OptimizerConfig(honest_party="alice", grid_resolution=5,
                              simplex_iterations=120, seed=7)
    res = adv.optimize(adv.bob_coinflip_space(), cfg, bob_evaluator)
    cap = math.cos(math.pi / 8) ** 2
    assert res.best_value <= cap + 1e-9
    assert res.best_value >= cap - 1e-6
    assert all(v <= cap + 1e-9 for _, v in res.trace)


def test_optimizer_depositor_respects_cap():
    cfg = adv.OptimizerConfig(honest_party="bob", grid_resolution=2,
                              simplex_iterations=120, seed=7)
    res = adv.optimize(adv.alice_coinflip_space(), cfg, alice_evaluator,
                       extra_seeds=[adv.ALICE_SEED_POINT])
    assert res.best_value <= ana.ALICE_WIN_CAP + 1e-9
    assert res.best_value >= math.cos(math.pi / 8) ** 2 - 1e-9  # seeded known point


def test_optimizer_trace_is_seed_stable():
    cfg = adv.OptimizerConfig(honest_party="alice", grid_resolution=3,
                              simplex_iterations=40, seed=21)
    r1 = adv.optimize(adv.bob_coinflip_space(), cfg, bob_evaluator)
    r2 = adv.optimize(adv.bob_coinflip_space(), cfg, bob_evaluator)
    assert r1.trace == r2.trace
    assert r1.best_params == r2.best_params and r1.best_value == r2.best_value


def _receiver_loss(x):
    spec = adv.bob_coinflip_space().build(x)
    return -adv._objective_value(bob_evaluator(spec), adv.OptimizerConfig(honest_party="alice"))


def _recording(func, points):
    def f(x):
        points.append(x.tobytes())
        return func(x)
    return f


# name -> (objective, dimensions searched)
NELDER_MEAD_OBJECTIVES = {
    "quadratic": (lambda x: float(np.sum((x - 0.3) ** 2)), (1, 3, 12)),
    "constant": (lambda x: 1.0, (1, 3, 12)),
    "rounded": (lambda x: round(float(np.sum(np.cos(3 * x))), 2), (1, 3, 12)),
    "receiver": (_receiver_loss, (3,)),
}


@pytest.mark.parametrize("maxfev", [5, 37, 150])
@pytest.mark.parametrize("objective", sorted(NELDER_MEAD_OBJECTIVES))
def test_nelder_mead_is_scipys_bit_for_bit(objective, maxfev):
    """Same evaluated points in the same order, same x and f(x), to the bit.

    Between them the cases end every way a search can: the budget runs out
    mid-iteration or between iterations (every search at budget 5 or 37), or
    the tolerance test stops it (at budget 150, every search in dimension 1
    and most in dimension 3).
    """
    func, dims = NELDER_MEAD_OBJECTIVES[objective]
    rng = np.random.default_rng(maxfev)
    for dim in dims:
        with_zeros = np.where(np.arange(dim) % 2 == 0, 0.0, 1.0)
        for x0 in (rng.uniform(0.0, math.pi, dim), with_zeros):
            ref_points, points = [], []
            ref = minimize(_recording(func, ref_points), x0.copy(), method="Nelder-Mead",
                           options={"maxfev": maxfev, "xatol": 1e-7, "fatol": 1e-12})
            x, fun = adv._nelder_mead(_recording(func, points), x0.copy(), maxfev)
            assert points == ref_points and 0 < len(points) <= maxfev
            assert x.tobytes() == ref.x.tobytes()
            assert float.hex(float(fun)) == float.hex(float(ref.fun))


def test_searches_and_the_coinflip_command_import_no_scipy(tmp_path):
    code = """
import sys
from qescrow import adversaries as adv, cli
from qescrow.protocols import honest_alice_coinflip, honest_bob_coinflip, run_coinflip
adv.optimize(adv.bob_coinflip_space(),
             adv.OptimizerConfig(honest_party="alice", simplex_iterations=20),
             lambda s: run_coinflip(honest_alice_coinflip(), s))
adv.optimize(adv.alice_coinflip_space(),
             adv.OptimizerConfig(honest_party="bob", grid_resolution=2, simplex_iterations=20),
             lambda s: run_coinflip(s, honest_bob_coinflip()))
assert cli.main(["coinflip", "--seed", "7", "--samples", "2", "--out", sys.argv[1]]) == 0
print(sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy.")))
"""
    env = dict(os.environ, PYTHONPATH=str(pathlib.Path(__file__).resolve().parents[1] / "src"))
    proc = subprocess.run([sys.executable, "-c", code, str(tmp_path / "cf.csv")],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "[]"


# ---------------------------------------------------------------------------
# random strategy factories


def test_random_binding_pair_shares_deposit():
    rng = np.random.default_rng(17)
    from qescrow.protocols import deposit_reduced_state

    a0, a1 = adv.random_binding_pair(rng)
    d0 = deposit_reduced_state(a0)
    d1 = deposit_reduced_state(a1)
    assert np.max(np.abs(d0.matrix - d1.matrix)) < 1e-12


def test_random_return_attack_is_extractable():
    rng = np.random.default_rng(19)
    for ancillas in (0, 1, 2):
        bob = adv.random_return_attack(rng, ancillas)
        u, k = ana.extract_attack_unitary(bob)
        assert k == ancillas and u.shape == (2 ** (ancillas + 1),) * 2
