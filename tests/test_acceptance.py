"""Acceptance suite: every quantitative target, one pass/fail line per criterion.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.

Criterion 4's detection clause is expected to fail: the delayed-choice
depositor's enumerated detection is exactly (1-f) sin^2(alpha), twice the
stated cap (1-f) sin^2(alpha)/2.  The cap is provably unattainable at the
stated advantage (see README "Known discrepancy"); the criterion is asserted
as stated rather than weakened, so this suite reports it honestly as red.
"""

import math

import numpy as np

from helpers import apply_to_state
from qescrow import adversaries as adv
from qescrow import analysis as ana
from qescrow import qmath
from qescrow.protocols import (
    Challenge,
    Verdict,
    escrow_bit_density,
    honest_alice_coinflip,
    honest_alice_escrow,
    honest_bob_coinflip,
    honest_bob_escrow,
    run_coinflip,
    run_escrow,
)

THETA = math.pi / 8
ALPHA_GRID = (0.0, math.pi / 16, math.pi / 8, 3 * math.pi / 16, math.pi / 4)
P_GRID = tuple(i / 10 for i in range(11))


def report(number: int, ok: bool, detail: str) -> None:
    print(f"{'PASS' if ok else 'FAIL'}  criterion {number}: {detail}")


def test_criterion_1_honest_coinflip_exact():
    dist = run_coinflip(honest_alice_coinflip(), honest_bob_coinflip())
    p0 = dist.verdict_probability("alice", Verdict.ZERO)
    p1 = dist.verdict_probability("alice", Verdict.ONE)
    perr = dist.verdict_probability("alice", Verdict.ERR)
    ok = abs(p0 - 0.5) <= 1e-12 and abs(p1 - 0.5) <= 1e-12 and perr == 0.0
    report(1, ok, f"honest coin flip P(0)={p0} P(1)={p1} P(err)={perr}")
    assert ok


def test_criterion_2_receiver_cap_attained_and_never_exceeded():
    cap = 0.8535533905932737  # cos^2(pi/8)
    full = ana.coinflip_bias(ana.HonestParty.ALICE_HONEST, adv.full_measurement_bob())
    attained = abs(full.win_prob_0 - cap) <= 1e-9

    rng = np.random.default_rng(20260811)
    worst = full.win_prob_0
    basis = [adv.bob_measure_coinflip(adv.unitary_from_angles(2, rng.uniform(0, math.pi, 3)))
             for _ in range(8000)]
    entangling = [adv.bob_entangling_coinflip(qmath.random_unitary(8, rng)) for _ in range(2000)]
    for bobs in (basis, entangling):
        for rep in ana.coinflip_bias_batch(ana.HonestParty.ALICE_HONEST, bobs):
            worst = max(worst, rep.win_prob_0, rep.win_prob_1)

    cfg = adv.OptimizerConfig(honest_party="alice", grid_resolution=5,
                              simplex_iterations=150, seed=20260811)
    res = adv.optimize(adv.bob_coinflip_space(), cfg,
                       lambda s: run_coinflip(honest_alice_coinflip(), s))
    worst = max(worst, res.best_value, max(v for _, v in res.trace))

    ok = attained and worst <= cap + 1e-9
    report(2, ok, f"receiver max win {worst:.12f} vs cap {cap:.10f} "
                  f"(full measurement attains: {attained})")
    assert ok


def test_criterion_3_depositor_cap_never_exceeded():
    cap = 0.9143
    cfg = adv.OptimizerConfig(honest_party="bob", grid_resolution=2,
                              simplex_iterations=150, seed=20260811, n_starts=3)
    res = adv.optimize(adv.alice_coinflip_space(), cfg,
                       lambda s: run_coinflip(s, honest_bob_coinflip()),
                       extra_seeds=[adv.ALICE_SEED_POINT])
    worst = max(res.best_value, max(v for _, v in res.trace))
    ok = worst <= cap + 1e-9
    report(3, ok, f"depositor optimizer best {res.best_value:.12f}, "
                  f"worst evaluated {worst:.12f}, cap {cap}")
    assert ok


def test_criterion_4_quadratic_depositor_closed_forms():
    f = 0.5
    rows = []
    adv_ok = det_ok = True
    for alpha in ALPHA_GRID:
        zero, one = adv.protocol_quadratic_pair(alpha)
        rep = ana.binding_metrics(zero, one)
        advantage = rep.p0 - 0.5
        want_adv = math.sqrt(f) * math.sin(2 * alpha) / 2
        det_cap = 0.25 * math.sin(alpha) ** 2
        adv_ok &= abs(advantage - want_adv) <= 1e-8
        det_ok &= rep.p_err <= det_cap + 1e-9
        rows.append((alpha, advantage, rep.p_err, det_cap))
    ok = adv_ok and det_ok
    detail = ("advantage clause " + ("holds" if adv_ok else "fails")
              + "; detection clause " + ("holds" if det_ok else "fails: ")
              + ("" if det_ok else ", ".join(
                  f"a={a:.3f}: {p:.6f}>{c:.6f}" for a, _, p, c in rows if p > c + 1e-9)))
    report(4, ok, detail)
    assert adv_ok, "advantage must equal sqrt(f) sin(2a)/2 exactly"
    assert det_ok, (
        "enumerated detection exceeds the stated cap (1-f) sin^2(a)/2 by exactly 2x; "
        "the construction's true detection is (1-f) sin^2(a) and the stated "
        "(advantage, detection) point is infeasible -- see README 'Known discrepancy'")


def test_criterion_5_weak_measurement_closed_forms():
    r0, r1 = escrow_bit_density(0, THETA), escrow_bit_density(1, THETA)
    t_full = qmath.trace_norm(r0.matrix - r1.matrix)
    ok = True
    worst_dist = 0.0
    for p in P_GRID:
        bob = adv.bob_weak_measurement(adv.BobWeakParams(p), r0, r1)
        rep = ana.sealing_metrics(bob)
        worst_dist = max(worst_dist, abs(rep.kept_trace_distance - math.sqrt(2) * math.sqrt(p)))
        ok &= abs(rep.kept_trace_distance - math.sqrt(2) * math.sqrt(p)) <= 1e-8
        ok &= rep.detection_p <= 0.5 * (1 - math.sqrt(1 - p)) + 1e-9
        ok &= abs(ana.enumerated_return_error(bob) - rep.detection_p) <= 1e-9
    bob1 = adv.bob_weak_measurement(adv.BobWeakParams(1.0), r0, r1)
    ok &= abs(ana.sealing_metrics(bob1).kept_trace_distance - t_full) <= 1e-8
    report(5, ok, f"kept distance = sqrt(2) sqrt(p) (max dev {worst_dist:.2e}), "
                  f"detection within (1-sqrt(1-p))/2, p=1 distance = full sqrt(2)")
    assert ok


def test_criterion_6_binding_frontier_500_pairs():
    rng = np.random.default_rng(606)
    worst_margin = math.inf
    ok = True
    for _ in range(500):
        rep = ana.binding_metrics(*adv.random_binding_pair(rng))
        bound = (math.sqrt(rep.p_err) + math.sqrt(rep.q_err)) / math.cos(math.pi / 4)
        ok &= rep.gamma_observed <= bound + 1e-9
        worst_margin = min(worst_margin, bound - rep.gamma_observed)
    report(6, ok, f"500 shared-deposit pairs inside the frontier "
                  f"(smallest slack {worst_margin:.6f})")
    assert ok


def test_criterion_7_sealing_frontier_500_attacks():
    rng = np.random.default_rng(707)
    ok = True
    worst_id = 0.0
    for _ in range(500):
        bob = adv.random_return_attack(rng, ancillas=2)
        rep = ana.sealing_metrics(bob)
        ident = abs(ana.enumerated_return_error(bob) - rep.detection_p)
        worst_id = max(worst_id, ident)
        ok &= ident <= 1e-9
        ok &= ana.check_sealing_bound(rep)
        u, _ = ana.extract_attack_unitary(bob)
        dec = ana.w_decomposition(u, THETA)
        for x in (0, 1):
            resid = (np.vdot(dec[(0, x)][0], dec[(1, x)][1])
                     + np.vdot(dec[(0, x)][1], dec[(1, x)][0]))
            ok &= abs(resid) <= 1e-9
    report(7, ok, f"500 random attacks: detection identity (max dev {worst_id:.2e}), "
                  f"explicit-constant frontier, orthogonality relations")
    assert ok


def test_criterion_8_qmath_oracle_suite():
    rng = np.random.default_rng(808)
    ok = True
    # pure-state trace-distance law, 200 pairs at 1e-9
    for _ in range(200):
        a, b = qmath.random_state(("q",), rng), qmath.random_state(("q",), rng)
        lhs = qmath.trace_norm(a.density().matrix - b.density().matrix)
        rhs = 2 * math.sqrt(max(1 - abs(qmath.overlap(a, b)) ** 2, 0.0))
        ok &= abs(lhs - rhs) <= 1e-9
    # tensor multiplicativity at 1e-8
    for _ in range(50):
        z1 = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        z2 = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        h1, h2 = z1 + z1.conj().T, z2 + z2.conj().T
        ok &= abs(qmath.trace_norm(np.kron(h1, h2))
                  - qmath.trace_norm(h1) * qmath.trace_norm(h2)) <= 1e-8
    # fidelity pure-state formula at 1e-9
    for _ in range(50):
        a = qmath.random_state(("q",), rng)
        rho = qmath.random_density(("q",), rng)
        want = float((a.amplitudes.conj() @ rho.matrix @ a.amplitudes).real)
        ok &= abs(qmath.fidelity(a.density(), rho) - want) <= 1e-9
    # purification round trip at 1e-9
    for _ in range(50):
        rho = qmath.random_density(("q", "r"), rng)
        back = qmath.partial_trace(qmath.StateStack.of(qmath.purify(rho)), ("q", "r"))[0]
        ok &= float(np.max(np.abs(back - rho.matrix))) <= 1e-9
    # eigenbasis measurement dominates 100 random measurements per instance
    for _ in range(10):
        r0, r1 = qmath.random_density(("q",), rng), qmath.random_density(("q",), rng)
        _, l1 = qmath.optimal_distinguishing_measurement(r0, r1)
        for _ in range(100):
            ok &= qmath.measurement_l1_distance(
                r0, r1, qmath.random_basis_measurement(2, rng)) <= l1 + 1e-8
    # local transform maps source to target up to phase at 1e-8
    for _ in range(50):
        psi = qmath.random_state(("a", "b"), rng)
        target = apply_to_state(psi, qmath.random_unitary(2, rng), ("a",))
        u = qmath.local_purification_transform(psi, target, ("a",))
        out = apply_to_state(psi, u, ("a",))
        ok &= abs(abs(qmath.overlap(out, target)) - 1.0) <= 1e-8
    report(8, ok, "distance law, tensor multiplicativity, pure fidelity rule, "
                  "purification round trip, measurement dominance, local transform")
    assert ok


def test_criterion_9_monte_carlo_three_configurations():
    n = 10 ** 6
    rng = np.random.default_rng(909)
    configs = [
        ("measuring receiver in the coin flip",
         run_coinflip(honest_alice_coinflip(), adv.full_measurement_bob()), "alice"),
        ("quadratic depositor revealing",
         run_escrow(adv.protocol_quadratic_pair(math.pi / 4)[0], honest_bob_escrow(),
                    Challenge.REVEAL_TO_BOB), "bob"),
        ("half-strength weak measurement returning",
         run_escrow(honest_alice_escrow(),
                    adv.bob_weak_measurement(adv.BobWeakParams(0.5),
                                             escrow_bit_density(0, THETA),
                                             escrow_bit_density(1, THETA)),
                    Challenge.RETURN_TO_ALICE, claimed_bit=0), "alice"),
    ]
    ok = True
    for label, dist, party in configs:
        counts = dist.sample(n, rng)
        for verdict in (Verdict.ZERO, Verdict.ONE, Verdict.ERR):
            p = dist.verdict_probability(party, verdict)
            idx = 0 if party == "alice" else 1
            got = sum(c for key, c in counts.items() if key[idx] is verdict) / n
            sigma = math.sqrt(max(p * (1 - p), 1e-12) / n)
            ok &= abs(got - p) <= 4 * sigma + 1e-12
    report(9, ok, f"sampled verdict frequencies (N={n}) within 4 standard errors "
                  f"on 3 adversarial configurations")
    assert ok
