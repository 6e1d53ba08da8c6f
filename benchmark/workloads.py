"""The four benchmark workloads and the independent reference each evaluation is checked against.

A workload is built from a seed and then run one *block* at a time.  A block
is the workload's fixed mix of evaluations (one cycle of its ratio; for the
optimizer, one receiver search and two depositor searches).  Every
evaluation builds its strategy or strategy pair, runs it through the
library, and checks the result; ``timed_evaluation`` times that whole span
and reports it to the caller's ``record(seconds, ok, outcome)`` callback.
``outcome`` is a tuple of the numbers the evaluation produced, so a traced
and an untraced run of the same seed can be compared.

The library is only ever reached through module attributes (``proto.run_coinflip``,
never a name imported from it), so the tracer's patches see every call.
"""

from __future__ import annotations

import dataclasses
import math
import sys
import time
import traceback

import numpy as np

from qescrow import adversaries as adv
from qescrow import analysis as ana
from qescrow import protocols as proto
from qescrow import qmath

COIN_THETA = math.pi / 8
COMPOSED_THETAS = (math.pi / 16, math.pi / 12, math.pi / 8)
REF_TOL = 1e-10     # closed form vs enumeration
BOUND_TOL = 1e-9    # frontier and cap checks, as in the acceptance suite


class CheckFailed(Exception):
    """An evaluation's result disagrees with its reference or breaks a proved bound."""


def require(ok: bool, what: str) -> None:
    if not ok:
        raise CheckFailed(what)


def timed_evaluation(record, evaluate, *args):
    """Run one evaluation (build, run, check), time it and report it.

    Any exception is the evaluation's failure: it is counted, its traceback
    goes to stderr, and the run goes on with the next evaluation.
    """
    t0 = time.perf_counter()
    try:
        outcome = evaluate(*args)
    except Exception:  # evaluation boundary: count every failure, keep measuring
        traceback.print_exc(file=sys.stderr)
        record(time.perf_counter() - t0, False, None)
        return None
    record(time.perf_counter() - t0, True, outcome)
    return outcome


# ---------------------------------------------------------------------------
# Plain-numpy closed forms.  They share no code with the branch enumerator:
# the encoding is written out here and only the strategies' defining
# matrices are read.


def encoding(b: int, x: int, theta: float) -> np.ndarray:
    """phi_{b,x}: angle b*pi/2 -/+ theta (x = 0/1), real amplitudes."""
    a = b * math.pi / 2 + (theta if x else -theta)
    return np.array([math.cos(a), math.sin(a)])


def bit_density(b: int, theta: float) -> np.ndarray:
    return 0.5 * sum(np.outer(encoding(b, x, theta), encoding(b, x, theta)) for x in (0, 1))


def receiver_basis_win0(rho: tuple[np.ndarray, np.ndarray], u2: np.ndarray) -> float:
    """Honest depositor's P(result 0) against a receiver announcing the measured column index."""
    return 0.5 * sum(float((u2[:, b].conj() @ rho[b] @ u2[:, b]).real) for b in (0, 1))


def receiver_entangling_win0(rho: tuple[np.ndarray, np.ndarray], u8: np.ndarray) -> float:
    """Same, for U on (dep, c0, c1) followed by announcing the c0 outcome."""
    anc = np.zeros((4, 4))
    anc[0, 0] = 1.0
    win = 0.0
    for b in (0, 1):
        sigma = u8 @ np.kron(rho[b], anc) @ u8.conj().T
        diag = np.diagonal(sigma).real.reshape(2, 2, 2)   # (dep, c0, c1)
        win += 0.5 * float(diag[:, b, :].sum())
    return win


def depositor_win0(angles: np.ndarray) -> float:
    """Honest receiver's P(result 0) against the 12-angle depositor (target 0).

    The depositor prepares psi on (a0, dep), claims b = b' and x = the outcome
    of measuring a0 in the basis v_{b'}; the receiver's check passes with
    |<x| v_{b'}^dag (x) <phi_{b',x}| psi>|^2, and every pass reads 0.
    """
    psi = adv.state_from_angles(4, angles[:6]).reshape(2, 2)   # psi[a0, dep]
    vs = (adv.unitary_from_angles(2, angles[6:9]), adv.unitary_from_angles(2, angles[9:12]))
    win = 0.0
    for bp, v in enumerate(vs):
        rotated = v.conj().T @ psi
        win += 0.5 * sum(abs(rotated[x] @ encoding(bp, x, COIN_THETA)) ** 2 for x in (0, 1))
    return float(win)


def binding_claims(alice: proto.StrategySpec, theta: float) -> tuple[float, float, float]:
    """(P(claim 0), P(claim 1), P(check fails)) of a random-opening depositor."""
    psi = np.asarray(alice.programs["deposit"][0].gate)[:, 0].reshape(4, 2)  # [(a0 a1), dep]
    opened = np.asarray(alice.programs["reveal"][0].gate) @ psi
    claims = np.sum(np.abs(opened) ** 2, axis=1).reshape(2, 2)             # [b, x]
    err = sum(abs(opened[2 * b + x] @ encoding(1 - b, x, theta)) ** 2
              for b in (0, 1) for x in (0, 1))
    return float(claims[0].sum()), float(claims[1].sum()), float(err)


def return_error(u_receive: np.ndarray, u_return: np.ndarray, b: int, theta: float) -> float:
    """Return-challenge error mass for claimed bit b: U on (dep, c0, c1), then back."""
    u = u_return @ u_receive
    err = 0.0
    for x in (0, 1):
        out = (u @ np.kron(encoding(b, x, theta), np.eye(4)[0])).reshape(2, 4)
        err += 0.5 * float(np.sum(np.abs(encoding(1 - b, x, theta) @ out) ** 2))
    return err


# ---------------------------------------------------------------------------
# Workloads


class Workload:
    """Fixed inputs built once from the seed, then a stream of blocks."""

    name = ""
    warmup_blocks = 1

    def __init__(self, seed: int):
        self.rng = np.random.default_rng(seed)

    def block(self, record) -> None:
        raise NotImplementedError

    def warm_up(self) -> None:
        for _ in range(self.warmup_blocks):
            self.block(lambda seconds, ok, outcome: None)


class CoinflipSweep(Workload):
    """Criterion 2/3 inner loop: random receivers (4 basis : 1 entangling) and depositors."""

    name = "coinflip-sweep"
    warmup_blocks = 10

    def __init__(self, seed: int):
        super().__init__(seed)
        rho = tuple(proto.escrow_bit_density(b, COIN_THETA).matrix for b in (0, 1))
        for b in (0, 1):
            require(np.max(np.abs(rho[b] - bit_density(b, COIN_THETA))) <= 1e-12,
                    "escrow_bit_density disagrees with the closed-form encoding")
        self.rho = rho

    def _receiver(self, build, u, win0):
        rep = ana.coinflip_bias(ana.HonestParty.ALICE_HONEST, build(u))
        out = (rep.win_prob_0, rep.win_prob_1, rep.err_prob)
        require(max(abs(a - b) for a, b in zip(out, (win0, 1.0 - win0, 0.0))) <= REF_TOL,
                f"receiver masses {out} vs closed form {win0}")
        require(max(out[0], out[1]) <= ana.BOB_WIN_CAP + BOUND_TOL, "receiver beats the cap")
        return out

    def _basis(self, angles):
        u2 = adv.unitary_from_angles(2, angles)
        return self._receiver(adv.bob_measure_coinflip, u2, receiver_basis_win0(self.rho, u2))

    def _entangling(self, u8):
        return self._receiver(adv.bob_entangling_coinflip, u8,
                              receiver_entangling_win0(self.rho, u8))

    def _depositor(self, angles):
        rep = ana.coinflip_bias(ana.HonestParty.BOB_HONEST, adv.alice_coinflip_from_angles(angles))
        out = (rep.win_prob_0, rep.win_prob_1, rep.err_prob)
        win0 = depositor_win0(angles)
        require(max(abs(a - b) for a, b in zip(out, (win0, 0.0, 1.0 - win0))) <= REF_TOL,
                f"depositor masses {out} vs closed form {win0}")
        require(max(out[0], out[1]) <= ana.ALICE_WIN_CAP + BOUND_TOL, "depositor beats the cap")
        return out

    def block(self, record) -> None:
        rng = self.rng
        for _ in range(4):
            timed_evaluation(record, self._basis, rng.uniform(0, math.pi, 3))
        timed_evaluation(record, self._entangling, qmath.random_unitary(8, rng))
        timed_evaluation(record, self._depositor, rng.uniform(0, math.pi, 12))


class EscrowFrontier(Workload):
    """Criteria 6/7 and the reveal-first game: binding pair : return attack : conditional pair = 1:1:1."""

    name = "escrow-frontier"
    warmup_blocks = 10
    theta = math.pi / 8

    def _binding(self):
        a0, a1 = adv.random_binding_pair(self.rng)
        rep = ana.binding_metrics(a0, a1)
        out = (rep.p0, rep.p1, rep.p_err, rep.q0, rep.q1, rep.q_err)
        want = binding_claims(a0, self.theta) + binding_claims(a1, self.theta)
        require(max(abs(a - b) for a, b in zip(out, want)) <= REF_TOL,
                f"binding masses {out} vs closed form {want}")
        frontier = (math.sqrt(rep.p_err) + math.sqrt(rep.q_err)) / math.cos(2 * self.theta)
        require(rep.gamma_observed <= frontier + BOUND_TOL, "binding frontier violated")
        return out

    def _sealing(self):
        bob = adv.random_return_attack(self.rng, ancillas=2)
        rep = ana.sealing_metrics(bob)
        enumerated = ana.enumerated_return_error(bob)
        require(abs(enumerated - rep.detection_p) <= BOUND_TOL, "detection identity violated")
        cot = 1.0 / math.tan(2 * self.theta)
        rhs = (2.0 ** 7 * cot + math.sqrt(2.0)) * math.sqrt(rep.detection_p) + rep.detection_p / 2
        require(rep.advantage_eps <= rhs + BOUND_TOL, "sealing frontier violated")
        u, _ = ana.extract_attack_unitary(bob)
        dec = ana.w_decomposition(u, self.theta)
        for x in (0, 1):
            resid = (np.vdot(dec[(0, x)][0], dec[(1, x)][1])
                     + np.vdot(dec[(0, x)][1], dec[(1, x)][0]))
            require(abs(resid) <= BOUND_TOL, "criterion-7 orthogonality relation violated")
        return (rep.advantage_eps, rep.detection_p, enumerated, rep.kept_trace_distance)

    def _conditional(self):
        pair = (adv.random_return_attack(self.rng, ancillas=1),
                adv.random_return_attack(self.rng, ancillas=1))
        rep = ana.modified_sealing_check(pair)
        require(rep.passed, "modified sealing check did not pass")
        return (rep.detection_b0, rep.detection_b1, rep.detection_total, rep.enumerated_total)

    def block(self, record) -> None:
        timed_evaluation(record, self._binding)
        timed_evaluation(record, self._sealing)
        timed_evaluation(record, self._conditional)


class Optimizer(Workload):
    """Criteria 2/3 searches: grid-seeded Nelder-Mead over both coin-flip strategy spaces."""

    name = "optimizer"

    def __init__(self, seed: int):
        super().__init__(seed)
        self.honest_alice = proto.honest_alice_coinflip()
        self.honest_bob = proto.honest_bob_coinflip()
        self.rho = tuple(bit_density(b, COIN_THETA) for b in (0, 1))
        self.bob_config = adv.OptimizerConfig(honest_party="alice", grid_resolution=5,
                                              simplex_iterations=150)
        self.alice_config = adv.OptimizerConfig(honest_party="bob", grid_resolution=2,
                                                simplex_iterations=150, n_starts=3)

    def warm_up(self) -> None:
        cfg = dataclasses.replace(self.bob_config, grid_resolution=2, simplex_iterations=40,
                                  n_starts=1)
        self._search(adv.bob_coinflip_space(), cfg, self._receiver_eval,
                     lambda seconds, ok, outcome: None)

    def _receiver_eval(self, x, spec):
        dist = proto.run_coinflip(self.honest_alice, spec)
        win0 = receiver_basis_win0(self.rho, adv.unitary_from_angles(2, x))
        return dist, "alice", (win0, 1.0 - win0, 0.0), ana.BOB_WIN_CAP

    def _depositor_eval(self, x, spec):
        dist = proto.run_coinflip(spec, self.honest_bob)
        win0 = depositor_win0(x)
        return dist, "bob", (win0, 0.0, 1.0 - win0), ana.ALICE_WIN_CAP

    def _search(self, space, config, run, record, extra_seeds=()):
        """One ``adversaries.optimize`` call; each objective evaluation is timed and checked."""
        pending = []
        build = space.build

        def capture(x):
            pending.append(np.array(x, dtype=float))
            return build(x)

        def evaluate(spec):
            holder = []

            def one():
                dist, party, want, cap = run(pending.pop(), spec)
                holder.append(dist)
                out = tuple(dist.verdict_probability(party, v)
                            for v in (proto.Verdict.ZERO, proto.Verdict.ONE, proto.Verdict.ERR))
                require(max(abs(a - b) for a, b in zip(out, want)) <= REF_TOL,
                        f"{party} masses {out} vs closed form {want}")
                require(max(out[0], out[1]) <= cap + BOUND_TOL, "optimizer point beats the cap")
                return out

            timed_evaluation(record, one)
            if not holder:
                raise CheckFailed("evaluation raised; the search cannot continue")
            return holder[0]

        adv.optimize(dataclasses.replace(space, build=capture), config, evaluate,
                     extra_seeds=extra_seeds)

    def block(self, record) -> None:
        """One receiver search and two depositor searches.

        The receiver search does not depend on the seed (its grid covers the
        whole space); each depositor search draws its random grid from its
        own seed.  Two depositor searches per receiver search keep the median
        evaluation inside the depositor cost cluster.
        """
        self._search(adv.bob_coinflip_space(), self.bob_config, self._receiver_eval, record)
        for _ in range(2):
            config = dataclasses.replace(self.alice_config, seed=int(self.rng.integers(2 ** 31)))
            self._search(adv.alice_coinflip_space(), config, self._depositor_eval, record,
                         extra_seeds=[adv.ALICE_SEED_POINT])


class Composed9q(Workload):
    """The weak commitment at the 9-qubit budget: 6 honest games : 12 random receivers.

    Twice as many random receivers as honest games keeps the median
    evaluation inside one cost cluster instead of in the gap between two.
    """

    name = "composed-9q"
    warmup_blocks = 2

    def __init__(self, seed: int):
        super().__init__(seed)
        self.params = tuple(proto.EscrowParams(t) for t in COMPOSED_THETAS)
        self.honest_alice = tuple(proto.honest_alice_weak(p) for p in self.params)
        self.honest_alice_escrow = tuple(proto.honest_alice_escrow(p) for p in self.params)
        self.honest_bob = proto.honest_bob_weak()

    def _honest(self, i, b):
        dist = proto.run_weak_commitment(self.honest_alice[i], self.honest_bob, b, self.params[i])
        for party in ("alice", "bob"):
            require(dist.verdict_probability(party, proto.Verdict.ERR) == 0.0,
                    f"honest composed game has error mass for {party}")
            require(abs(dist.verdict_probability(party, proto.Verdict.of_bit(b)) - 1.0) <= REF_TOL,
                    f"honest composed game does not open to {b} for {party}")
        return tuple(br.probability for br in dist.branches)

    def _receiver(self, i, b, u_return):
        attack = adv.random_return_attack(self.rng, ancillas=2)
        receive = attack.programs["receive"]
        back = (proto.Apply(("dep", "c0", "c1"), u_return),)
        bob = proto.StrategySpec(
            party="bob", ancilla_count=2, label="bob-random-composed",
            programs={"receive": receive, "return": back,
                      "coin_choose": self.honest_bob.programs["coin_choose"]})
        bob_escrow = proto.StrategySpec(party="bob", ancilla_count=2, label="bob-random-return",
                                        programs={"receive": receive, "return": back})
        params = self.params[i]
        composed = proto.run_weak_commitment(self.honest_alice[i], bob, b, params
                                             ).verdict_probability("alice", proto.Verdict.ERR)
        escrow = proto.run_escrow(self.honest_alice_escrow[i], bob_escrow,
                                  proto.Challenge.RETURN_TO_ALICE, claimed_bit=b, params=params
                                  ).verdict_probability("alice", proto.Verdict.ERR)
        want = return_error(receive[0].gate, u_return, b, params.theta)
        require(abs(escrow - want) <= REF_TOL, f"return-challenge error {escrow} vs closed form {want}")
        require(abs(composed - 0.5 * escrow) <= REF_TOL,
                f"composed error {composed} is not half the return-challenge error {escrow}")
        return (composed, escrow)

    def block(self, record) -> None:
        for i in range(len(self.params)):
            for b in (0, 1):
                timed_evaluation(record, self._honest, i, b)
        for _ in range(2):
            for i in range(len(self.params)):
                for b in (0, 1):
                    timed_evaluation(record, self._receiver, i, b,
                                     qmath.random_unitary(8, self.rng))


WORKLOADS = {cls.name: cls for cls in (CoinflipSweep, EscrowFrontier, Optimizer, Composed9q)}
