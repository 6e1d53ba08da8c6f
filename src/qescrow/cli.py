"""Reproducible experiment runner.

Subcommands sweep protocol parameters, verify the proved bounds, and emit
diff-able CSV/JSON artifacts:

    qescrow coinflip        honest play, named cheats, random sweeps, optimizer probes
    qescrow escrow-binding  alpha sweep of the quadratic depositor + random pairs
    qescrow escrow-sealing  p sweep of the weak measurement + random attacks
    qescrow selftest        the full invariant checklist, one line per check

Identical (config, seed) runs produce byte-identical artifacts: floats are
fixed to 12 significant digits, rows keep grid order, and all randomness flows
from the --seed.  Wall time goes to the console only.  Exit codes: 0 success,
2 config error, 3 a row failing its bound or closed form (a counterexample
stops the build by design; see README for the one known stated-constant
erratum, which is reported as data rather than treated as a violation).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import time
from dataclasses import dataclass, field

import numpy as np

from . import adversaries as adv
from . import analysis as ana
from . import qmath
from .protocols import (
    COIN_THETA,
    Challenge,
    EscrowParams,
    Verdict,
    escrow_bit_density,
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

DEFAULT_ALPHA_GRID = (0.0, math.pi / 16, math.pi / 8, 3 * math.pi / 16, math.pi / 4)
DEFAULT_P_GRID = tuple(i / 10 for i in range(11))
# The detection identity is exact, so its residual is round-off and its last
# bits move with any correct change of summation order.  The artifact reports
# it to this many decimal places (absolute resolution 1e-12); ``seal_pass``
# still tests the unrounded residual against 1e-9.
IDENTITY_ERROR_DECIMALS = 12


class ConfigError(Exception):
    pass


# The settings each command reads; its artifact echoes exactly these.
READS = {
    "coinflip": ("theta", "seed", "samples", "format"),
    "escrow-binding": ("theta", "alpha_grid", "seed", "samples", "format"),
    "escrow-sealing": ("theta", "p_grid", "seed", "samples", "format"),
    "selftest": ("theta", "alpha_grid", "p_grid", "seed", "format"),
}


@dataclass(frozen=True)
class RunConfig:
    command: str
    theta: float = math.pi / 8
    alpha_grid: tuple[float, ...] = DEFAULT_ALPHA_GRID
    p_grid: tuple[float, ...] = DEFAULT_P_GRID
    seed: int = 0
    samples: int = 200
    out: str | None = None
    format: str = "csv"
    config_echo: dict = field(default_factory=dict)

    def echo(self) -> dict:
        d = {"command": self.command}
        for key in READS[self.command]:
            value = getattr(self, key)
            if isinstance(value, tuple):
                value = [_round12(v) for v in value]
            d[key] = _round12(value) if isinstance(value, float) else value
        if self.config_echo:
            d["config_file"] = dict(self.config_echo)
        return d


@dataclass
class RunSummary:
    """A subcommand's rows; a row passes when its ``pass_column`` is true."""

    config: dict
    columns: tuple[str, ...]
    rows: list[dict]
    pass_column: str

    @property
    def passed(self) -> int:
        return sum(bool(row[self.pass_column]) for row in self.rows)

    @property
    def failed(self) -> int:
        return len(self.rows) - self.passed


def _fmt(v) -> str:
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, float):
        return format(v, ".12g")
    return str(v)


def _round12(v: float) -> float:
    return float(format(float(v), ".12g"))


def _json_value(v):
    if isinstance(v, float):
        return None if math.isnan(v) else _round12(v)
    return v


def write_summary(summary: RunSummary, path: str, fmt: str) -> None:
    if fmt == "csv":
        lines = [",".join(summary.columns)]
        for row in summary.rows:
            lines.append(",".join(_fmt(row[c]) for c in summary.columns))
        text = "\n".join(lines) + "\n"
    else:
        payload = {
            "config": summary.config,
            "rows": [{c: _json_value(row[c]) for c in summary.columns}
                     for row in summary.rows],
            "tallies": {"passed": summary.passed, "failed": summary.failed},
        }
        text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    with open(path, "w") as fh:
        fh.write(text)


# ---------------------------------------------------------------------------
# coinflip

ALICE_HONEST = ana.HonestParty.ALICE_HONEST
BOB_HONEST = ana.HonestParty.BOB_HONEST

COINFLIP_COLUMNS = ("strategy", "win_prob_0", "win_prob_1", "err_prob",
                    "delta_observed", "cap", "within_cap")


def _bias_row(label: str, report: ana.BiasReport, cap: float) -> dict:
    return {
        "strategy": label,
        "win_prob_0": report.win_prob_0,
        "win_prob_1": report.win_prob_1,
        "err_prob": report.err_prob,
        "delta_observed": report.delta_observed,
        "cap": cap,
        "within_cap": max(report.win_prob_0, report.win_prob_1) <= cap + 1e-9,
    }


def _best_row(label: str, honest: ana.HonestParty, cap: float, n: int, draw) -> dict:
    """The row of the most biased of ``n`` adversaries ``draw()`` returns (the first on ties).

    All ``n`` are drawn first and then run as one batch.
    """
    reports = ana.coinflip_bias_batch(honest, [draw() for _ in range(n)])
    return max((_bias_row(f"{label}-best-of-{n}", report, cap) for report in reports),
               key=lambda row: row["delta_observed"])


def _optimized_row(label: str, honest: ana.HonestParty, space: adv.ParameterSpace, cap: float,
                   config: adv.OptimizerConfig, evaluator, extra_seeds=()) -> dict:
    best = adv.optimize(space, config, evaluator, extra_seeds=extra_seeds).best_params
    return _bias_row(label, ana.coinflip_bias(honest, space.build(np.array(best))), cap)


def cmd_coinflip(cfg: RunConfig) -> RunSummary:
    rng = np.random.default_rng(cfg.seed)
    n = max(cfg.samples // 2, 1)
    rows = [
        _bias_row("honest-honest", ana.coinflip_bias(ALICE_HONEST, honest_bob_coinflip()), 0.5),
        _bias_row("bob-constant-0", ana.coinflip_bias(ALICE_HONEST, adv.constant_bob(0)), 0.5),
        _bias_row("bob-full-measurement",
                  ana.coinflip_bias(ALICE_HONEST, adv.full_measurement_bob()), ana.BOB_WIN_CAP),
        _best_row("bob-random-basis", ALICE_HONEST, ana.BOB_WIN_CAP, n,
                  lambda: adv.bob_measure_coinflip(
                      adv.unitary_from_angles(2, rng.uniform(0, math.pi, 3)))),
        _best_row("bob-random-entangling", ALICE_HONEST, ana.BOB_WIN_CAP, n,
                  lambda: adv.bob_entangling_coinflip(qmath.random_unitary(8, rng))),
        _optimized_row("bob-optimized", ALICE_HONEST, adv.bob_coinflip_space(), ana.BOB_WIN_CAP,
                       adv.OptimizerConfig(honest_party="alice", grid_resolution=5,
                                           simplex_iterations=120, seed=cfg.seed),
                       lambda s: run_coinflip(honest_alice_coinflip(), s)),
        _bias_row("alice-delayed-choice",
                  ana.coinflip_bias(BOB_HONEST, adv.protocol_quadratic_pair(0.0)[1]),
                  ana.ALICE_WIN_CAP),
        _best_row("alice-random", BOB_HONEST, ana.ALICE_WIN_CAP, n,
                  lambda: adv.alice_coinflip_from_angles(rng.uniform(0, math.pi, 12))),
        _optimized_row("alice-optimized", BOB_HONEST, adv.alice_coinflip_space(), ana.ALICE_WIN_CAP,
                       adv.OptimizerConfig(honest_party="bob", grid_resolution=2,
                                           simplex_iterations=150, seed=cfg.seed),
                       lambda s: run_coinflip(s, honest_bob_coinflip()),
                       extra_seeds=[adv.ALICE_SEED_POINT]),
    ]
    return RunSummary(cfg.echo(), COINFLIP_COLUMNS, rows, "within_cap")


# ---------------------------------------------------------------------------
# escrow-binding


BINDING_COLUMNS = ("label", "alpha", "advantage", "advantage_closed_form",
                   "detection", "detection_construction_form", "detection_theorem_cap",
                   "detection_within_theorem_cap", "p0", "q0", "p_err", "q_err",
                   "gamma_observed", "gamma_bound", "binding_pass")


def _binding_row(label: str, alpha: float, pair, params: EscrowParams) -> dict:
    """One pair's binding row.  A quadratic-depositor row (``alpha`` not NaN) passes
    only if both of its closed forms also agree with the enumeration."""
    rep = ana.binding_metrics(*pair, params)
    passed = ana.check_binding_bound(rep)
    nan = float("nan")
    advantage = advantage_form = detection = detection_form = theorem_cap = nan
    within_theorem_cap = True
    if not math.isnan(alpha):
        f = qmath.fidelity(escrow_bit_density(0, params.theta),
                           escrow_bit_density(1, params.theta))
        advantage, detection = rep.p0 - 0.5, rep.p_err
        advantage_form = math.sqrt(f) * math.sin(2 * alpha) / 2
        detection_form = (1 - f) * math.sin(alpha) ** 2
        theorem_cap = detection_form / 2
        within_theorem_cap = detection <= theorem_cap + 1e-9
        passed = (passed and abs(advantage - advantage_form) <= 1e-8
                  and abs(detection - detection_form) <= 1e-9)
    return {
        "label": label,
        "alpha": alpha,
        "advantage": advantage, "advantage_closed_form": advantage_form,
        "detection": detection, "detection_construction_form": detection_form,
        "detection_theorem_cap": theorem_cap,
        "detection_within_theorem_cap": within_theorem_cap,
        "p0": rep.p0, "q0": rep.q0, "p_err": rep.p_err, "q_err": rep.q_err,
        "gamma_observed": rep.gamma_observed, "gamma_bound": rep.bound,
        "binding_pass": passed,
    }


def _quadratic_rows(alpha_grid, params: EscrowParams) -> list[dict]:
    return [_binding_row("quadratic", alpha, adv.protocol_quadratic_pair(alpha, params), params)
            for alpha in alpha_grid]


def _random_pair_rows(n: int, rng: np.random.Generator, params: EscrowParams) -> list[dict]:
    return [_binding_row(f"random-pair-{i}", float("nan"), adv.random_binding_pair(rng), params)
            for i in range(n)]


def cmd_escrow_binding(cfg: RunConfig) -> RunSummary:
    params = EscrowParams(cfg.theta)
    rows = (_quadratic_rows(cfg.alpha_grid, params)
            + _random_pair_rows(cfg.samples, np.random.default_rng(cfg.seed), params))
    return RunSummary(cfg.echo(), BINDING_COLUMNS, rows, "binding_pass")


# ---------------------------------------------------------------------------
# escrow-sealing


SEALING_COLUMNS = ("label", "p", "advantage_eps", "detection_p", "kept_trace_distance",
                   "predicted_distance", "detection_cap", "w2_00", "w2_01", "w2_10", "w2_11",
                   "bound_rhs", "detection_identity_error", "seal_pass")


def _sealing_row(label: str, p: float, bob, params: EscrowParams) -> dict:
    """One attack's sealing row.  A weak-measurement row (``p`` not NaN) passes only
    if its kept distance is t sqrt(p) and its detection is within (1-sqrt(1-p))/2."""
    rep = ana.sealing_metrics(bob, params)
    identity_error = abs(ana.enumerated_return_error(bob, params) - rep.detection_p)
    passed = ana.check_sealing_bound(rep) and identity_error <= 1e-9
    predicted = cap = float("nan")
    if not math.isnan(p):
        t = qmath.trace_norm(escrow_bit_density(0, params.theta).matrix
                             - escrow_bit_density(1, params.theta).matrix)
        predicted = t * math.sqrt(p)
        cap = 0.5 * (1 - math.sqrt(1 - p))
        passed = (passed and abs(rep.kept_trace_distance - predicted) <= 1e-8
                  and rep.detection_p <= cap + 1e-9)
    return {
        "label": label,
        "p": p,
        "advantage_eps": rep.advantage_eps,
        "detection_p": rep.detection_p,
        "kept_trace_distance": rep.kept_trace_distance,
        "predicted_distance": predicted,
        "detection_cap": cap,
        "w2_00": rep.w_norms[0], "w2_01": rep.w_norms[1],
        "w2_10": rep.w_norms[2], "w2_11": rep.w_norms[3],
        "bound_rhs": rep.bound_rhs,
        "detection_identity_error": round(identity_error, IDENTITY_ERROR_DECIMALS),
        "seal_pass": passed,
    }


def _weak_rows(p_grid, params: EscrowParams) -> list[dict]:
    r0, r1 = escrow_bit_density(0, params.theta), escrow_bit_density(1, params.theta)
    return [_sealing_row(f"weak-p-{format(p, '.12g')}", p,
                         adv.bob_weak_measurement(adv.BobWeakParams(p), r0, r1), params)
            for p in p_grid]


def _random_attack_rows(n: int, rng: np.random.Generator, params: EscrowParams) -> list[dict]:
    return [_sealing_row(f"random-attack-{i}", float("nan"), adv.random_return_attack(rng, 2),
                         params)
            for i in range(n)]


def cmd_escrow_sealing(cfg: RunConfig) -> RunSummary:
    params = EscrowParams(cfg.theta)
    rows = (_weak_rows(cfg.p_grid, params)
            + _random_attack_rows(cfg.samples, np.random.default_rng(cfg.seed), params))
    return RunSummary(cfg.echo(), SEALING_COLUMNS, rows, "seal_pass")


# ---------------------------------------------------------------------------
# selftest


def _all_pass(rows: list[dict], pass_column: str, key: tuple[str, ...], detail: str):
    """(ok, detail) for a selftest check: the first failing row's key columns, if any."""
    for row in rows:
        if not row[pass_column]:
            return False, " ".join(f"{c}={_fmt(row[c])}" for c in key) + f" fails {pass_column}"
    return True, detail


def _selftest_checks(cfg: RunConfig):
    """(name, callable) pairs; each callable returns (ok, detail)."""
    params = EscrowParams(cfg.theta)
    rng_master = np.random.default_rng(cfg.seed)

    def child_rng():
        return np.random.default_rng(rng_master.integers(2 ** 32))

    def check_pure_distance_law():
        rng = child_rng()
        worst = 0.0
        for _ in range(50):
            a, b = qmath.random_state(("q",), rng), qmath.random_state(("q",), rng)
            lhs = qmath.trace_norm(a.density().matrix - b.density().matrix)
            rhs = 2 * math.sqrt(max(1 - abs(qmath.overlap(a, b)) ** 2, 0.0))
            worst = max(worst, abs(lhs - rhs))
        return worst < 1e-9, f"max deviation {worst:.2e}"

    def check_tensor_multiplicativity():
        rng = child_rng()
        worst = 0.0
        for _ in range(20):
            z1 = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
            z2 = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
            a, b = z1 + z1.conj().T, z2 + z2.conj().T
            worst = max(worst, abs(qmath.trace_norm(np.kron(a, b))
                                   - qmath.trace_norm(a) * qmath.trace_norm(b)))
        return worst < 1e-8, f"max deviation {worst:.2e}"

    def check_purify_round_trip():
        rng = child_rng()
        worst = 0.0
        for _ in range(20):
            rho = qmath.random_density(("q",), rng)
            back = qmath.partial_trace(qmath.StateStack.of(qmath.purify(rho)), ("q",))[0]
            worst = max(worst, float(np.max(np.abs(back - rho.matrix))))
        return worst < 1e-9, f"max deviation {worst:.2e}"

    def check_measurement_dominance():
        rng = child_rng()
        for _ in range(5):
            r0, r1 = qmath.random_density(("q",), rng), qmath.random_density(("q",), rng)
            _, l1 = qmath.optimal_distinguishing_measurement(r0, r1)
            for _ in range(50):
                if qmath.measurement_l1_distance(
                        r0, r1, qmath.random_basis_measurement(2, rng)) > l1 + 1e-8:
                    return False, "a sampled measurement beat the eigenbasis one"
        return True, "eigenbasis measurement dominated all samples"

    def check_honest_runs():
        for th in (math.pi / 16, math.pi / 12, math.pi / 8):
            pp = EscrowParams(th)
            for ch in Challenge:
                for b in (0, 1):
                    d = run_escrow(honest_alice_escrow(pp), honest_bob_escrow(), ch,
                                   claimed_bit=b, params=pp)
                    if d.verdict_probability("bob", Verdict.ERR) != 0.0:
                        return False, f"escrow err at theta={th}"
            for b in (0, 1):
                d = run_escrow_reveal_then_return(honest_alice_escrow(pp), honest_bob_escrow(),
                                                  claimed_bit=b, params=pp)
                if d.verdict_probability("alice", Verdict.ERR) != 0.0:
                    return False, f"reveal-first return err at theta={th}"
            dw = run_weak_commitment(honest_alice_weak(pp), honest_bob_weak(), 0, pp)
            if dw.verdict_probability("bob", Verdict.ERR) != 0.0:
                return False, f"composed err at theta={th}"
        d = run_coinflip(honest_alice_coinflip(), honest_bob_coinflip())
        ok = (abs(d.verdict_probability("alice", Verdict.ZERO) - 0.5) < 1e-12
              and d.verdict_probability("alice", Verdict.ERR) == 0.0
              and all(br.alice_verdict is br.bob_verdict for br in d.branches))
        return ok, "honest runs exact"

    def check_monte_carlo():
        rng = child_rng()
        d = run_coinflip(honest_alice_coinflip(), adv.full_measurement_bob())
        counts = d.sample(100_000, rng)
        p = d.verdict_probability("alice", Verdict.ZERO)
        got = sum(c for (av, _), c in counts.items() if av is Verdict.ZERO) / 100_000
        sigma = math.sqrt(p * (1 - p) / 100_000)
        return abs(got - p) <= 4 * sigma, f"|{got:.5f} - {p:.5f}| vs 4 sigma {4*sigma:.5f}"

    def check_coinflip_caps():
        rng = child_rng()
        full = _bias_row("bob-full-measurement",
                         ana.coinflip_bias(ALICE_HONEST, adv.full_measurement_bob()),
                         ana.BOB_WIN_CAP)
        if abs(max(full["win_prob_0"], full["win_prob_1"]) - ana.BOB_WIN_CAP) > 1e-9:
            return False, "full measurement does not attain the receiver cap"
        rows = [
            full,
            _best_row("bob-random-basis", ALICE_HONEST, ana.BOB_WIN_CAP, 100,
                      lambda: adv.bob_measure_coinflip(
                          adv.unitary_from_angles(2, rng.uniform(0, math.pi, 3)))),
            _best_row("alice-random", BOB_HONEST, ana.ALICE_WIN_CAP, 50,
                      lambda: adv.alice_coinflip_from_angles(rng.uniform(0, math.pi, 12))),
        ]
        return _all_pass(rows, "within_cap", ("strategy",),
                         "caps hold; full measurement attains the receiver cap")

    def check_modified_sealing():
        rng = child_rng()
        for i in range(20):
            pair = (adv.random_return_attack(rng, 1), adv.random_return_attack(rng, 1))
            if not ana.modified_sealing_check(pair, params).passed:
                return False, f"conditional pair {i} failed"
        return True, "20 conditional pairs pass the reveal-first variant"

    return [
        ("pure-state-distance-law", check_pure_distance_law),
        ("trace-norm-tensor-multiplicativity", check_tensor_multiplicativity),
        ("purify-round-trip", check_purify_round_trip),
        ("distinguishing-measurement-dominance", check_measurement_dominance),
        ("honest-runs-exact", check_honest_runs),
        ("monte-carlo-consistency", check_monte_carlo),
        ("quadratic-depositor-closed-forms", lambda: _all_pass(
            _quadratic_rows(cfg.alpha_grid, params), "binding_pass", ("label", "alpha"),
            "advantage sqrt(f)sin(2a)/2, detection (1-f)sin^2(a), frontier holds")),
        ("weak-measurement-closed-forms", lambda: _all_pass(
            _weak_rows(cfg.p_grid, params), "seal_pass", ("label", "p"),
            "kept distance t sqrt(p), detection <= (1-sqrt(1-p))/2, identity holds")),
        ("binding-frontier-random-pairs", lambda: _all_pass(
            _random_pair_rows(50, child_rng(), params), "binding_pass", ("label",),
            "50 random shared-deposit pairs inside the frontier")),
        ("sealing-frontier-random-attacks", lambda: _all_pass(
            _random_attack_rows(50, child_rng(), params), "seal_pass", ("label",),
            "50 random attacks inside the frontier with the detection identity")),
        ("coinflip-caps", check_coinflip_caps),
        ("modified-return-variant", check_modified_sealing),
    ]


SELFTEST_COLUMNS = ("check", "passed", "detail")


def cmd_selftest(cfg: RunConfig) -> RunSummary:
    rows = []
    for name, fn in _selftest_checks(cfg):
        ok, detail = fn()
        rows.append({"check": name, "passed": ok, "detail": detail})
        print(f"{'PASS' if ok else 'FAIL'}  {name}: {detail}")
    return RunSummary(cfg.echo(), SELFTEST_COLUMNS, rows, "passed")


# ---------------------------------------------------------------------------
# argument handling


def _parse_grid(text: str) -> tuple[float, ...]:
    grid = tuple(float(tok) for tok in text.split(",") if tok.strip())
    if not grid:
        raise ValueError("grid must be nonempty")
    return grid


def _read_config_file(path: str) -> dict:
    echo = {}
    try:
        with open(path) as fh:
            for line in fh:
                line = line.split("#", 1)[0].strip()
                if not line:
                    continue
                if "=" not in line:
                    raise ConfigError(f"bad config line {line!r}")
                key, value = (part.strip() for part in line.split("=", 1))
                if key not in SETTINGS:
                    raise ConfigError(f"unknown config key {key!r}; known: {', '.join(SETTINGS)}")
                echo[key] = value
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    return echo


# Each setting: its parser, its valid values and their description, which is
# also the flag's help.  A flag wins over a config file line of the same name.
SETTINGS = {
    "theta": (float, lambda v: 0.0 < v <= math.pi / 8 + 1e-12,
              "escrow angle in (0, pi/8]; coinflip runs at pi/8 only"),
    "alpha_grid": (_parse_grid, lambda g: all(0.0 <= a <= math.pi / 4 + 1e-12 for a in g),
                   "comma-separated angles in [0, pi/4]"),
    "p_grid": (_parse_grid, lambda g: all(0.0 <= p <= 1.0 for p in g),
               "comma-separated strengths in [0, 1]"),
    "seed": (int, lambda v: v >= 0, "nonnegative integer"),
    "samples": (int, lambda v: v >= 0, "nonnegative integer"),
    "format": (str, lambda v: v in ("csv", "json"), "csv or json"),
}


def build_config(args: argparse.Namespace) -> RunConfig:
    if args.out and (os.path.isdir(args.out)
                     or not os.path.isdir(os.path.dirname(os.path.abspath(args.out)))):
        raise ConfigError(f"--out {args.out!r} is a directory or its directory does not exist")
    echo = _read_config_file(args.config) if args.config else {}
    kwargs = {"command": args.command, "config_echo": echo, "out": args.out}
    for key, (parse, valid, description) in SETTINGS.items():
        raw = getattr(args, key)
        if raw is None:
            raw = echo.get(key)
        if raw is None:
            continue
        try:
            value = parse(raw)
        except ValueError as exc:
            raise ConfigError(f"bad {key} {raw!r}: {exc}") from exc
        if not valid(value):
            raise ConfigError(f"{key} {raw!r}: expected {description}")
        kwargs[key] = value
    if args.command == "coinflip" and abs(kwargs.get("theta", COIN_THETA) - COIN_THETA) > 1e-12:
        raise ConfigError(f"theta {kwargs['theta']!r}: coinflip runs at the fixed angle pi/8")
    return RunConfig(**kwargs)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="qescrow", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        p = sub.add_parser(name)
        for key, (_, _, description) in SETTINGS.items():
            p.add_argument("--" + key.replace("_", "-"), default=None, help=description)
        p.add_argument("--out", default=None)
        p.add_argument("--config", default=None, help="optional key=value config file")
    return parser


COMMANDS = {
    "coinflip": cmd_coinflip,
    "escrow-binding": cmd_escrow_binding,
    "escrow-sealing": cmd_escrow_sealing,
    "selftest": cmd_selftest,
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = build_config(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    t0 = time.perf_counter()
    summary = COMMANDS[cfg.command](cfg)
    wall_time = time.perf_counter() - t0
    if cfg.out:
        write_summary(summary, cfg.out, cfg.format)
    print(f"{cfg.command}: {summary.passed} passed, {summary.failed} failed "
          f"({wall_time:.2f}s)")
    return 0 if summary.failed == 0 else 3


if __name__ == "__main__":
    raise SystemExit(main())
