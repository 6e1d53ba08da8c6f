#!/usr/bin/env python3
"""Run every benchmark workload over a few seeds and record the numbers in BENCH_<pr>.json.

Usage: python scripts/bench.py --pr N [--repo DIR] [--out PATH]

For each workload that BENCHMARK.json declares, ``benchmark/run.py`` of the
checkout ``--repo`` (default: this one) runs for the file's ``run_seconds``
once per seed in ``SEEDS`` with ``--trace 0`` and once, at the first seed,
with ``--trace 1``, each in a fresh process.
The file holds, per workload, the median and quartiles of every end-to-end
metric over the seeds, the attempted and failed evaluation counts (attempted
also per seed, so a peak_rss_mb value can be set against the evaluations that
grew it), the environment line of the first run and the traced run's
per-layer counters.

It also records each CLI subcommand of that checkout at ``CLI_ARGS``: the
wall seconds and the peak RSS of the ``qescrow`` process, median and
quartiles over ``CLI_RUNS`` runs.  Each run is timed by a fresh wrapper
process, because ``RUSAGE_CHILDREN`` reports the largest peak of all the
children a process has waited for.

Last, it runs the checkout's tier-1 test command ``TIER1_RUNS`` times, each
with a JUnit XML report, and records the exit codes and the passed and
failed counts as sorted sets, and the wall seconds and the call seconds of
each ``tests/test_acceptance.py`` test as median and quartiles over the runs.

Wall seconds follow the host's load, so every CLI and tier-1 run is
calibrated as the workloads' set-up is: ``setup_scale()`` of the checkout's
``benchmark/calibration.py`` is read right before and right after the run,
both readings are kept under ``scales``, and ``seconds_calibrated`` is the
run's seconds times their mean (median and quartiles over the runs, beside
the raw ``seconds``).

The numbers are a record, not a gate: the script exits 0 whatever they are,
and nonzero only if a run crashes or prints no result.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import os
import pathlib
import statistics
import subprocess
import sys
import tempfile
import time
import xml.etree.ElementTree as ET
from typing import Callable

ROOT = pathlib.Path(__file__).resolve().parent.parent
SEEDS = (1, 2, 3)
CLI_COMMANDS = ("coinflip", "escrow-binding", "escrow-sealing", "selftest")
CLI_ARGS = ("--seed", "7", "--samples", "20")
CLI_RUNS = 3
TIER1_RUNS = 3
# Runs the command in argv[1:] and prints its exit code, wall seconds and peak RSS.
CLI_WRAPPER = """
import json, resource, subprocess, sys, time
t0 = time.perf_counter()
code = subprocess.run(sys.argv[1:], stdout=subprocess.DEVNULL).returncode
seconds = time.perf_counter() - t0
peak_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
print(json.dumps({"exit": code, "seconds": seconds, "peak_rss_mb": peak_kb / 1024}))
"""

# The tier-1 command, with each test's time in the JUnit XML being its call phase.
TIER1_ARGS = ("-m", "pytest", "-q", "--continue-on-collection-errors",
              "-o", "junit_duration_report=call")
ACCEPTANCE = "tests.test_acceptance"

# runner(workload, seed, trace) -> (environment-and-details line, result line)
Runner = Callable[[str, int, int], tuple[dict, dict]]
# cli_runner(command) -> {"exit": code, "seconds": wall, "peak_rss_mb": peak}
CliRunner = Callable[[str], dict]
# tier1_runner() -> (exit code, wall seconds, JUnit XML text)
Tier1Runner = Callable[[], tuple[int, float, str]]
# scale() -> the machine's speed now, as NOMINAL_S / the calibration kernel's time
Scale = Callable[[], float]


def spread(values: list[float]) -> dict:
    """Median and quartiles (inclusive method) of one metric over the seeds."""
    q1, median, q3 = (statistics.quantiles(values, n=4, method="inclusive")
                      if len(values) > 1 else values * 3)
    return {"median": median, "q1": q1, "q3": q3, "values": list(values)}


def summarize(workloads: list[str], seeds: list[int], runner: Runner) -> dict:
    out = {}
    for name in workloads:
        runs = [runner(name, seed, 0) for seed in seeds]
        _, traced = runner(name, seeds[0], 1)
        metrics = {}
        for _, result in runs:
            for key, m in result["metrics"].items():
                metrics.setdefault(key, []).append(m["value"])
        out[name] = {
            "end_to_end": {key: spread(values) for key, values in metrics.items()},
            "attempted": sum(result["attempted"] for _, result in runs),
            # one per seed, aligned with each metric's "values"
            "attempted_per_seed": [result["attempted"] for _, result in runs],
            "failed": sum(result["failed"] for _, result in runs),
            "correct": all(result["correct"] for _, result in runs) and traced["correct"],
            "environment": runs[0][0]["environment"],
            "per_layer": {key: m["value"] for key, m in traced["metrics"].items()},
        }
    return out


def _calibrated(run: Callable[[], dict], scale: Scale) -> dict:
    """The result of ``run()`` with the two scales read right before and right after it."""
    before = scale()
    return {**run(), "scales": [before, scale()]}


def _seconds(results: list[dict]) -> dict:
    """Raw and calibrated (seconds times the mean of the run's two scales) seconds of the runs."""
    return {"seconds": spread([r["seconds"] for r in results]),
            "seconds_calibrated": spread([r["seconds"] * statistics.mean(r["scales"])
                                          for r in results]),
            "scales": [r["scales"] for r in results]}


def summarize_cli(commands: list[str], runs: int, runner: CliRunner, scale: Scale) -> dict:
    out = {}
    for command in commands:
        results = [_calibrated(lambda: runner(command), scale) for _ in range(runs)]
        out[command] = {"exit": sorted({r["exit"] for r in results}), **_seconds(results),
                        "peak_rss_mb": spread([r["peak_rss_mb"] for r in results])}
    return out


def _tier1_run(code: int, seconds: float, report: str) -> dict:
    """One tier-1 run: exit code, wall seconds, counts, acceptance call seconds."""
    suite = ET.fromstring(report)
    if suite.tag != "testsuite":
        suite = suite.find("testsuite")
    counts = {k: int(suite.get(k, 0)) for k in ("tests", "failures", "errors", "skipped")}
    return {"exit": code, "seconds": seconds,
            "passed": counts["tests"] - counts["failures"] - counts["errors"] - counts["skipped"],
            "failed": counts["failures"] + counts["errors"],
            "acceptance_call_s": {case.get("name"): float(case.get("time"))
                                  for case in suite.iter("testcase")
                                  if case.get("classname") == ACCEPTANCE}}


def summarize_tier1(runs: int, runner: Tier1Runner, scale: Scale) -> dict:
    results = [_calibrated(lambda: _tier1_run(*runner()), scale) for _ in range(runs)]
    calls = {}
    for r in results:
        for name, seconds in r["acceptance_call_s"].items():
            calls.setdefault(name, []).append(seconds)
    return {**{key: sorted({r[key] for r in results}) for key in ("exit", "passed", "failed")},
            **_seconds(results),
            "acceptance_call_s": {name: spread(values) for name, values in calls.items()}}


def checkout_scale(repo: pathlib.Path) -> Scale:
    """``setup_scale`` of the checkout's ``benchmark/calibration.py``, loaded by its path."""
    spec = importlib.util.spec_from_file_location(
        "calibration", repo / "benchmark" / "calibration.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.setup_scale


def subprocess_runner(repo: pathlib.Path, seconds: float) -> Runner:
    def run(workload: str, seed: int, trace: int) -> tuple[dict, dict]:
        proc = subprocess.run(
            [sys.executable, str(repo / "benchmark" / "run.py"), "--workload", workload,
             "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
            capture_output=True, text=True, cwd=repo)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or len(lines) < 2:
            raise SystemExit(f"{workload} seed {seed} trace {trace} failed "
                             f"(exit {proc.returncode}):\n{proc.stderr}")
        print(f"{workload} seed {seed} trace {trace}: {lines[-1][:120]}", file=sys.stderr)
        return json.loads(lines[-2]), json.loads(lines[-1])
    return run


def cli_subprocess_runner(repo: pathlib.Path) -> CliRunner:
    env = dict(os.environ, PYTHONPATH=str(repo / "src"))

    def run(command: str) -> dict:
        proc = subprocess.run(
            [sys.executable, "-c", CLI_WRAPPER, sys.executable, "-m", "qescrow", command,
             *CLI_ARGS], capture_output=True, text=True, cwd=repo, env=env)
        lines = proc.stdout.strip().splitlines()
        result = json.loads(lines[-1]) if proc.returncode == 0 and lines else None
        # Exit 3 is a row failing its bound: a result, not a crash.
        if result is None or result["exit"] not in (0, 3):
            raise SystemExit(f"qescrow {command} failed:\n{proc.stdout}{proc.stderr}")
        print(f"qescrow {command}: {lines[-1]}", file=sys.stderr)
        return result
    return run


def tier1_subprocess_runner(repo: pathlib.Path) -> Tier1Runner:
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (str(repo / "src"), os.environ.get("PYTHONPATH")) if p))

    def run() -> tuple[int, float, str]:
        with tempfile.TemporaryDirectory() as tmp:
            report = pathlib.Path(tmp) / "tier1.xml"
            t0 = time.perf_counter()
            proc = subprocess.run([sys.executable, *TIER1_ARGS, f"--junitxml={report}"],
                                  capture_output=True, text=True, cwd=repo, env=env)
            seconds = time.perf_counter() - t0
            # Exit 1 is a failing test: a result, not a crash.
            if proc.returncode not in (0, 1) or not report.exists():
                raise SystemExit(f"tier-1 failed (exit {proc.returncode}):\n"
                                 f"{proc.stdout[-2000:]}{proc.stderr}")
            print(f"tier-1: exit {proc.returncode} in {seconds:.1f} s", file=sys.stderr)
            return proc.returncode, seconds, report.read_text()
    return run


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--pr", type=int, required=True)
    p.add_argument("--repo", type=pathlib.Path, default=ROOT)
    p.add_argument("--out", type=pathlib.Path, default=None)
    args = p.parse_args(argv)
    repo = args.repo.resolve()
    declared = json.loads((repo / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in declared["workloads"]]
    seconds = declared["run_seconds"]
    scale = checkout_scale(repo)
    doc = {"pr": args.pr, "seeds": list(SEEDS), "seconds": seconds,
           "workloads": summarize(workloads, list(SEEDS), subprocess_runner(repo, seconds)),
           "cli": {"args": list(CLI_ARGS),
                   "commands": summarize_cli(list(CLI_COMMANDS), CLI_RUNS,
                                             cli_subprocess_runner(repo), scale)},
           "tier1": summarize_tier1(TIER1_RUNS, tier1_subprocess_runner(repo), scale)}
    out = args.out or ROOT / f"BENCH_{args.pr}.json"
    out.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    print(f"wrote {out}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
