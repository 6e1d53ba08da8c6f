"""Binding, sealing, and coin-flip bias metrics with their proved frontiers.

Conventions pinned here once:

* Binding claims p0, p1 (q0, q1) count what the depositor announces, whether
  or not the check then rejects; p_err (q_err) is the checker's error verdict
  mass.  The frontier is  |p0 - q0| <= (sqrt(p_err) + sqrt(q_err)) / cos(2t).
  The two-parameter form gamma <= 2 sqrt(eps) / cos(2t) with
  eps = max(p_err, q_err) needs no check of its own: sqrt(p) + sqrt(q) <=
  2 sqrt(max(p, q)), so the sharp frontier implies it.

* Sealing advantage is the optimal-guess success minus 1/2 over the
  receiver's kept wires, i.e. a quarter of the kept trace distance; the kept
  trace distance itself is reported alongside because the two conventions
  differ by that factor of four.  Detection is the return-check error mass,
  identically 1/4 of the summed squared off-claim components (the w' of the
  attack decomposition).  The explicit-constant frontier is

      advantage <= (2^7 cot(2t) + sqrt(2)) sqrt(p) + p/2,

  obtained by chaining |<w00|w11>| >= 1 - (2^15 cot^2(2t) + 4) p through the
  triangle inequality; it is deliberately loose, so every report also carries
  the observed advantage next to the bound to keep the slack visible.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from enum import Enum
from typing import Sequence

import numpy as np

from .qmath import DensityMatrix, trace_norm
from .protocols import (
    Apply,
    Challenge,
    EscrowParams,
    OutcomeDistribution,
    StrategySpec,
    Verdict,
    honest_alice_coinflip,
    honest_alice_escrow,
    honest_bob_coinflip,
    honest_bob_escrow,
    _theta_of,
    escrow_encoding,
    run_coinflip,
    run_coinflip_batch,
    run_escrow_batch,
    run_escrow_reveal_then_return_batch,
)

BOUND_TOL = 1e-9
_BX = ((0, 0), (0, 1), (1, 0), (1, 1))   # the four encodings (b, x), in report order

# Coin-flip caps at the protocol angle pi/8: the receiver cannot push the
# honest side's result past cos^2(pi/8), the depositor not past (sqrt(8)-1)/2.
BOB_WIN_CAP = math.cos(math.pi / 8) ** 2
ALICE_WIN_CAP = (math.sqrt(8.0) - 1.0) / 2.0


class AnalysisError(Exception):
    pass


class DepositMismatch(AnalysisError):
    pass


class NotUnitaryAttack(AnalysisError):
    pass


# ---------------------------------------------------------------------------
# Binding


@dataclass(frozen=True)
class BindingReport:
    theta: float
    p0: float
    p1: float
    p_err: float
    q0: float
    q1: float
    q_err: float

    def __post_init__(self):
        for name in ("p0", "p1", "p_err", "q0", "q1", "q_err"):
            v = getattr(self, name)
            if not -BOUND_TOL <= v <= 1.0 + BOUND_TOL:
                raise AnalysisError(f"{name}={v} is not a probability")
        if self.p0 + self.p1 > 1.0 + 1e-9 or self.q0 + self.q1 > 1.0 + 1e-9:
            raise AnalysisError("claim masses exceed 1")

    @property
    def gamma_observed(self) -> float:
        return max(abs(self.p0 - self.q0), abs(self.p1 - self.q1))

    @property
    def bound(self) -> float:
        return (math.sqrt(self.p_err) + math.sqrt(self.q_err)) / math.cos(2 * self.theta)


def _claim_probabilities(dist: OutcomeDistribution) -> tuple[float, float, float]:
    p0 = dist.transcript_probability(("alice", "b", 0))
    p1 = dist.transcript_probability(("alice", "b", 1))
    return p0, p1, dist.verdict_probability("bob", Verdict.ERR)


def binding_metrics(alice0: StrategySpec, alice1: StrategySpec,
                    params: EscrowParams = EscrowParams()) -> BindingReport:
    """Claim/error masses of a zero-vs-one strategy pair under the reveal challenge.

    The two strategies must share a deposit: equality is checked on the
    reduced density matrix of the deposit wire, since nothing the depositor
    does afterwards can change it.  Both runs play the reveal game in one
    pass, and the deposits are compared on its rows right after the deposit
    phase, before either opening plays: a mismatch raises ``DepositMismatch``
    even where an opening would fail too.
    """
    theta, bob = _theta_of(params), honest_bob_escrow()
    d0, d1 = run_escrow_batch([alice0, alice1], [bob, bob], Challenge.REVEAL_TO_BOB,
                              [None, None], params, deposited=_same_deposit)
    p0, p1, perr = _claim_probabilities(d0)
    q0, q1, qerr = _claim_probabilities(d1)
    return BindingReport(theta, p0, p1, perr, q0, q1, qerr)


def _same_deposit(deposits: list[DensityMatrix]) -> None:
    dep0, dep1 = deposits
    if np.max(np.abs(dep0.matrix - dep1.matrix)) > 1e-9:
        raise DepositMismatch("the two strategies deposit different reduced states")


def check_binding_bound(report: BindingReport) -> bool:
    """Sharp per-run frontier: gamma <= (sqrt(p_err)+sqrt(q_err))/cos(2 theta)."""
    return report.gamma_observed <= report.bound + BOUND_TOL


# ---------------------------------------------------------------------------
# Sealing


@dataclass(frozen=True)
class SealingReport:
    theta: float
    advantage_eps: float
    detection_p: float
    w_norms: tuple[float, float, float, float]  # ||w'_{b,x}||^2 for (0,0),(0,1),(1,0),(1,1)
    bound_rhs: float
    kept_trace_distance: float

    def __post_init__(self):
        if not -BOUND_TOL <= self.advantage_eps <= 0.5 + BOUND_TOL:
            raise AnalysisError(f"advantage {self.advantage_eps} outside [0, 1/2]")
        if abs(self.detection_p - 0.25 * sum(self.w_norms)) > BOUND_TOL:
            raise AnalysisError("detection mass disagrees with the w' component masses")


def extract_attack_unitary(bob: StrategySpec) -> tuple[np.ndarray, int]:
    """The receiver's single attack unitary on (dep, ancillas), plus ancilla count."""
    rounds = bob.programs.get("receive", ())
    if len(rounds) != 1 or not isinstance(rounds[0], Apply):
        raise NotUnitaryAttack("attack must be a single unitary round in phase 'receive'")
    rnd = rounds[0]
    if rnd.wires != ("dep",) + bob.ancillas:
        raise NotUnitaryAttack("attack must act on (dep, ancillas) in that order")
    if rnd.keys:
        raise NotUnitaryAttack("attack unitary must be a fixed matrix")
    return rnd.unitary.matrix, bob.ancilla_count


@functools.lru_cache(maxsize=64)
def _encodings(theta: float, anc_dim: int) -> tuple[tuple[np.ndarray, ...], ...]:
    """Per (b, x) of ``_BX``: phi_{b,x} (x) |0..0>, conj phi_{b,x} and conj phi_{not b,x}.

    The states are ``escrow_encoding(theta)``'s.  Read-only, and cached per
    (theta, ancilla dimension) as the check bases are.
    """
    table = escrow_encoding(theta)
    out = []
    for b, x in _BX:
        start = np.zeros(2 * anc_dim, dtype=complex)
        start[::anc_dim] = table[b, x]  # phi_{b,x} (x) |0..0>
        out.append((start, table[b, x].conj(), table[1 - b, x].conj()))
        for a in out[-1]:
            a.setflags(write=False)
    return tuple(out)


def _decompose(us: np.ndarray, theta: float) -> list[np.ndarray]:
    """w, then w', per (b, x) of ``_BX``: each an (attack, entry) array over the stack ``us``."""
    anc_dim = us.shape[-1] // 2
    parts = []
    for start, claimed, opposite in _encodings(theta, anc_dim):
        attacked = (us @ start).reshape(-1, 2, anc_dim)   # one product for every attack
        parts += (claimed @ attacked, opposite @ attacked)
    return parts


def w_decomposition(u: np.ndarray, theta: float) -> dict[tuple[int, int], tuple[np.ndarray, np.ndarray]]:
    """Per (b, x): kept-register components along the claimed and opposite encodings.

    U (phi_{b,x} (x) |0..0>) = phi_{b,x} (x) w_{b,x} + phi_{not b,x} (x) w'_{b,x};
    the w' masses are exactly the per-case check-failure probabilities.
    """
    parts = _decompose(u[None], theta)
    return {bx: (parts[2 * i][0], parts[2 * i + 1][0]) for i, bx in enumerate(_BX)}


def sealing_bound_rhs(theta: float, detection_p: float) -> float:
    """Explicit-constant frontier (2^7 cot(2t) + sqrt(2)) sqrt(p) + p/2."""
    cot = 1.0 / math.tan(2 * theta)
    return (2.0 ** 7 * cot + math.sqrt(2.0)) * math.sqrt(max(detection_p, 0.0)) \
        + detection_p / 2.0


def sealing_metrics(bob: StrategySpec, params: EscrowParams = EscrowParams()
                    ) -> SealingReport:
    """Advantage/detection of a unitary return-challenge attack, by decomposition.

    Detection is the mean squared off-claim mass (one quarter of the sum over
    the four encodings); advantage is the optimal-guess edge over the kept
    ancilla states, a quarter of their trace distance.
    """
    theta = _theta_of(params)
    u, _ = extract_attack_unitary(bob)
    return _sealing_reports(u[None], theta)[0]


def _sealing_reports(us: np.ndarray, theta: float) -> list[SealingReport]:
    """``sealing_metrics`` of each attack of the stack ``us``, from one decomposition.

    Each w' mass is ``np.linalg.norm(w') ** 2`` by numpy's own arithmetic.
    """
    vecs = np.array(_decompose(us, theta)).reshape(2, 2, 2, len(us), -1)   # b, x, w/w', attack
    outer = vecs[..., :, None] * vecs.conj()[..., None, :]
    half = 0.5 * (outer[:, :, 0] + outer[:, :, 1])
    kept = 0.0 + half[:, 0] + half[:, 1]   # per b, summed from zero over x as a loop sums it
    reports = []
    for j in range(len(us)):
        w_norms = tuple(math.sqrt(w.real.dot(w.real) + w.imag.dot(w.imag)) ** 2
                        for w in vecs[:, :, 1, j].reshape(4, -1))
        detection = 0.25 * sum(w_norms)
        distance = trace_norm(kept[0, j] - kept[1, j])
        reports.append(SealingReport(theta, distance / 4.0, detection, w_norms,
                                     sealing_bound_rhs(theta, detection), distance))
    return reports


def check_sealing_bound(report: SealingReport) -> bool:
    return report.advantage_eps <= report.bound_rhs + BOUND_TOL


def enumerated_return_error(bob: StrategySpec, params: EscrowParams = EscrowParams()
                            ) -> float:
    """Return-challenge error mass by exact protocol enumeration (uniform bit, both in one pass)."""
    alice = honest_alice_escrow(params)
    return 0.5 * sum(
        dist.verdict_probability("alice", Verdict.ERR)
        for dist in run_escrow_batch([alice, alice], [bob, bob], Challenge.RETURN_TO_ALICE,
                                     [0, 1], params))


# ---------------------------------------------------------------------------
# Coin-flip bias


class HonestParty(Enum):
    ALICE_HONEST = "alice"
    BOB_HONEST = "bob"


@dataclass(frozen=True)
class BiasReport:
    win_prob_0: float
    win_prob_1: float
    err_prob: float

    def __post_init__(self):
        total = self.win_prob_0 + self.win_prob_1 + self.err_prob
        if abs(total - 1.0) > 1e-9:
            raise AnalysisError(f"verdict masses sum to {total}")

    @property
    def delta_observed(self) -> float:
        return max(self.win_prob_0, self.win_prob_1) - 0.5


def _check_honest(honest: HonestParty) -> None:
    if not isinstance(honest, HonestParty):
        raise AnalysisError(f"honest party {honest!r} is not a HonestParty")


def coinflip_bias(honest: HonestParty, adversary: StrategySpec) -> BiasReport:
    """Exact distribution of the honest player's coin verdict against an adversary."""
    _check_honest(honest)
    if honest is HonestParty.ALICE_HONEST:
        dist = run_coinflip(honest_alice_coinflip(), adversary)
    else:
        dist = run_coinflip(adversary, honest_bob_coinflip())
    return _bias_report(honest, dist)


def coinflip_bias_batch(honest: HonestParty, adversaries: Sequence[StrategySpec]
                        ) -> list[BiasReport]:
    """``coinflip_bias`` against each adversary, in order; those of one shape run as one stack."""
    _check_honest(honest)
    adversaries = list(adversaries)
    if honest is HonestParty.ALICE_HONEST:
        dists = run_coinflip_batch([honest_alice_coinflip()] * len(adversaries), adversaries)
    else:
        dists = run_coinflip_batch(adversaries, [honest_bob_coinflip()] * len(adversaries))
    return [_bias_report(honest, dist) for dist in dists]


def _bias_report(honest: HonestParty, dist: OutcomeDistribution) -> BiasReport:
    party = honest.value
    return BiasReport(
        dist.verdict_probability(party, Verdict.ZERO),
        dist.verdict_probability(party, Verdict.ONE),
        dist.verdict_probability(party, Verdict.ERR),
    )


# ---------------------------------------------------------------------------
# The modified (reveal-bit-first) return game


@dataclass(frozen=True)
class ModifiedSealingReport:
    theta: float
    detection_b0: float
    detection_b1: float
    detection_total: float
    enumerated_total: float
    passed: bool


def modified_sealing_check(bob_pair: tuple[StrategySpec, StrategySpec],
                           params: EscrowParams = EscrowParams()
                           ) -> ModifiedSealingReport:
    """Evaluate the variant where the bit is revealed before the qubit returns.

    The pair gives the receiver's conditional action per revealed bit (by
    convention the first entry is what he does on 0).  The check passes iff
    both conditional actions, taken as unconditional attacks, sit inside the
    sealing frontier and the conditional game's total detection matches the
    decomposition identity.  The two actions' unitaries, as one stack, are
    the conditional game's table and give both ``sealing_metrics`` reports
    from one decomposition.  The detection on bit b is read off the report
    of the action on b, and the game runs both bits in one pass.
    """
    theta = _theta_of(params)
    if not (isinstance(bob_pair, (tuple, list)) and len(bob_pair) == 2):
        raise AnalysisError(f"the modified check needs a pair of receivers, not {bob_pair!r}")
    u0, n0 = extract_attack_unitary(bob_pair[0])
    u1, n1 = extract_attack_unitary(bob_pair[1])
    if n0 != n1:
        raise NotUnitaryAttack("conditional actions must use the same ancilla register")
    actions = np.stack((u0, u1))
    reports = _sealing_reports(actions, theta)
    d0, d1 = (0.5 * (r.w_norms[2 * b] + r.w_norms[2 * b + 1]) for b, r in enumerate(reports))
    total = 0.5 * (d0 + d1)

    conditional_bob = StrategySpec(
        party="bob", ancilla_count=n0, label="bob-conditional-return",
        programs={"return": (Apply(("dep",) + bob_pair[0].ancillas, actions,
                                   keys=("b_claim",)),)},
    )
    alice = honest_alice_escrow(params)
    enumerated = 0.5 * sum(
        dist.verdict_probability("alice", Verdict.ERR)
        for dist in run_escrow_reveal_then_return_batch(
            [alice, alice], [conditional_bob, conditional_bob], [0, 1], params))
    passed = (all(check_sealing_bound(r) for r in reports)
              and abs(enumerated - total) <= BOUND_TOL)
    return ModifiedSealingReport(theta, d0, d1, total, enumerated, passed)
