#!/usr/bin/env python3
"""qescrow benchmark: run one seeded workload and print its metrics.

    python3 benchmark/run.py --workload coinflip-sweep --seed 1 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics for ``--seconds`` seconds.
``--trace 1`` runs a fixed number of blocks untraced, then the same blocks
traced, and prints the per-layer metrics; its spans go to
``.bench_out/trace-<workload>-seed<seed>.json.gz``.  The last line of
standard output is the result object; the line before it records the
environment and the details behind the numbers.  The library is imported
from ``src/`` next to this directory; without it the run exits with code 2.
"""

import os

# One BLAS/OpenMP thread, pinned before anything can import numpy.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import importlib.util  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import pathlib  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKLOAD_NAMES = ("coinflip-sweep", "escrow-frontier", "optimizer", "composed-9q")
SETUP_RUNS = 5          # setup_s is the median over this many fresh processes
TAIL_PERCENTILE = 95    # eval_tail_ms; every workload has >= 1000 evaluations, so >= 50 lie beyond it
TRACE_BLOCKS = {"coinflip-sweep": 100, "escrow-frontier": 150, "optimizer": 1, "composed-9q": 10}
OUTCOME_TOL = 1e-12     # traced and untraced outcomes must agree this closely
CALIBRATE_EVERY_S = 0.02  # timed runs run the calibration kernel at most this often


def setup(workload: str, seed: int):
    """Import the library, build the workload's fixed inputs and warm it up.

    Returns the workload, the set-up's wall time and that time calibrated
    to the nominal machine speed.
    """
    t0 = time.perf_counter()
    import workloads
    wl = workloads.WORKLOADS[workload](seed)
    wl.warm_up()
    seconds = time.perf_counter() - t0
    import calibration
    return wl, seconds, seconds * calibration.setup_scale()


def probe_setup(args) -> tuple[float, float]:
    """(wall, calibrated) set-up time of a fresh process, imports and lazy caches included."""
    cmd = [sys.executable, __file__, "--workload", args.workload, "--seed", str(args.seed),
           "--setup-probe"]
    out = subprocess.run(cmd, capture_output=True, text=True, timeout=150, check=True)
    return tuple(json.loads(out.stdout.strip().splitlines()[-1]))


class Counter:
    """Per-evaluation record shared by the timed and the traced modes.

    With ``calibrate`` set, the calibration kernel runs after an evaluation
    whenever CALIBRATE_EVERY_S has passed since its last run.
    """

    def __init__(self, calibrate: bool = False):
        self.latencies: list[float] = []
        self.outcomes: list = []
        self.done: list[float] = []          # completion time of each evaluation
        self.kernel_after: list[float] = []  # kernel seconds spent right after it (0: none)
        self.attempted = 0
        self.failed = 0
        self.aborted_blocks = 0
        self._calibrate = calibrate
        self._last_kernel = -math.inf

    def record(self, seconds: float, ok: bool, outcome) -> None:
        now = time.perf_counter()
        self.attempted += 1
        self.failed += not ok
        self.latencies.append(seconds)
        self.outcomes.append(outcome)
        self.done.append(now)
        kernel = 0.0
        if self._calibrate and now - self._last_kernel >= CALIBRATE_EVERY_S:
            import calibration
            kernel = calibration.kernel_seconds()
            self._last_kernel = now
        self.kernel_after.append(kernel)

    def run_block(self, wl) -> None:
        try:
            wl.block(self.record)
        except Exception:  # a block that cannot finish is reported, the run goes on
            traceback.print_exc(file=sys.stderr)
            self.aborted_blocks += 1


def percentiles_ms(latencies: list[float]) -> dict:
    import numpy as np
    return {f"p{q}": 1000 * float(np.percentile(latencies, q)) for q in (50, TAIL_PERCENTILE, 99)}


def measure(wl, seconds: float) -> tuple[Counter, float]:
    """Closed loop: whole blocks until ``seconds`` have passed.  Returns the counter and start time."""
    counter = Counter(calibrate=True)
    start = time.perf_counter()
    while time.perf_counter() - start < seconds:
        counter.run_block(wl)
    return counter, start


def calibrated(counter: Counter, start: float) -> tuple[float, list[float], float]:
    """(verified evaluations per second, evaluation times, busy seconds), all at nominal speed.

    Each evaluation's time, and the wall time since the previous evaluation
    ended (less any kernel run in between), is scaled by the local
    calibration factor.
    """
    import calibration
    runs = [(t, k) for t, k in zip(counter.done, counter.kernel_after) if k > 0]
    scales = calibration.local_scales(counter.done, [t for t, _ in runs], [k for _, k in runs])
    busy, prev, prev_kernel = 0.0, start, 0.0
    for t, kernel, scale in zip(counter.done, counter.kernel_after, scales):
        busy += (t - prev - prev_kernel) * scale
        prev, prev_kernel = t, kernel
    latencies = [t * s for t, s in zip(counter.latencies, scales)]
    return (counter.attempted - counter.failed) / busy, latencies, busy


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def environment() -> dict:
    import platform

    import numpy
    import scipy
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), "unknown")
    except OSError:
        cpu = "unknown"
    return {
        "python": platform.python_version(), "numpy": numpy.__version__, "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}", "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)), "cpu": cpu,
        "blas_threads": {v: os.environ[v] for v in THREAD_VARS},
    }


def run_timed(args) -> tuple[dict, dict, int, int, bool]:
    setups = [probe_setup(args) for _ in range(SETUP_RUNS - 1)]
    wl, own_wall, own_calibrated = setup(args.workload, args.seed)
    setups.append((own_wall, own_calibrated))
    counter, start = measure(wl, args.seconds)
    wall = counter.done[-1] - start - sum(counter.kernel_after[:-1])
    rate, latencies, busy = calibrated(counter, start)
    scaled = percentiles_ms(latencies)
    metrics = {
        "evals_per_s": (rate, "1/s"),
        "eval_p50_ms": (scaled["p50"], "ms"),
        "eval_tail_ms": (scaled[f"p{TAIL_PERCENTILE}"], "ms"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
        "setup_s": (statistics.median(c for _, c in setups), "s"),
    }
    details = {"evaluations": counter.attempted, "tail_percentile": TAIL_PERCENTILE,
               "machine_scale": busy / wall, "calibrated_eval_ms": scaled,
               "wall_clock": {"seconds": wall,
                              "evals_per_s": (counter.attempted - counter.failed) / wall,
                              "eval_ms": percentiles_ms(counter.latencies),
                              "setup_s": statistics.median(w for w, _ in setups)},
               "setup_samples_s": setups, "aborted_blocks": counter.aborted_blocks}
    correct = counter.failed == 0 and counter.aborted_blocks == 0
    return metrics, details, counter.attempted, counter.failed, correct


def traced_pass(workload: str, seed: int, tracer=None) -> tuple[Counter, float]:
    """TRACE_BLOCKS[workload] blocks of a fresh workload instance, optionally under a tracer."""
    import workloads
    wl = workloads.WORKLOADS[workload](seed)
    counter = Counter()
    t0 = time.perf_counter()
    with tracer if tracer is not None else contextlib.nullcontext():
        for _ in range(TRACE_BLOCKS[workload]):
            counter.run_block(wl)
    return counter, time.perf_counter() - t0


def outcomes_agree(a: list, b: list) -> bool:
    if len(a) != len(b):
        return False
    for x, y in zip(a, b):
        if x is None or y is None or len(x) != len(y):
            return False
        if any(abs(u - v) > OUTCOME_TOL for u, v in zip(x, y)):
            return False
    return True


def layer_metrics(tr, traced_wall: float, untraced_wall: float) -> dict:
    import tracer
    metrics = {}
    for group in tracer.GROUPS:
        if group.startswith("harness."):
            continue
        count = ("constructed" if group in tracer.CLASSES.values()
                 else "evals" if group == "adversaries.optimize" else "calls")
        value = tr.optimize_evals if count == "evals" else tr.calls[group]
        metrics[f"{group}.{count}"] = (value, "count")
        metrics[f"{group}.self_s"] = (tr.self_s[group], "s")
    metrics.update({
        "qmath.amplitude_bytes": (tr.amplitude_bytes, "B"),
        "qmath.max_wires": (tr.max_wires, "count"),
        "protocols.leaves": (tr.leaves, "count"),
        "trace.overhead": (traced_wall / untraced_wall, "ratio"),
        "trace.coverage": (tr.library_self_s() / traced_wall, "ratio"),
    })
    return metrics


def run_traced(args) -> tuple[dict, dict, int, int, bool]:
    import tracer
    setup(args.workload, args.seed)
    plain, plain_wall = traced_pass(args.workload, args.seed)
    tr = tracer.Tracer()
    traced, traced_wall = traced_pass(args.workload, args.seed, tr)
    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    spans_path = out_dir / f"trace-{args.workload}-seed{args.seed}.json.gz"
    tr.write(spans_path)
    agree = outcomes_agree(plain.outcomes, traced.outcomes)
    metrics = layer_metrics(tr, traced_wall, plain_wall)
    details = {"blocks": TRACE_BLOCKS[args.workload], "evaluations": traced.attempted,
               "untraced_wall_s": plain_wall,
               "traced_wall_s": traced_wall, "spans": len(tr.spans),
               "spans_file": str(spans_path.relative_to(ROOT)),
               "outcomes_agree": agree}
    attempted = plain.attempted + traced.attempted
    failed = plain.failed + traced.failed
    correct = (agree and failed == 0 and plain.aborted_blocks + traced.aborted_blocks == 0)
    return metrics, details, attempted, failed, correct


def parse_args(argv=None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true",
                   help="only set up, then print the set-up time (used for setup_s)")
    args = p.parse_args(argv)
    if args.seconds <= 0:
        p.error("--seconds must be positive")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "qescrow" / "__init__.py").is_file():
        print(f"benchmark: no library source at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.setup_probe:
        print(json.dumps(setup(args.workload, args.seed)[1:]))
        return 0
    origin = importlib.util.find_spec("qescrow").origin   # locates without importing
    if pathlib.Path(origin).resolve().parent != SRC / "qescrow":
        print(f"benchmark: qescrow resolves to {origin}, not {SRC}", file=sys.stderr)
        return 2
    metrics, details, attempted, failed, correct = (run_traced if args.trace else run_timed)(args)
    print(json.dumps({"workload": args.workload, "seed": args.seed, "trace": args.trace,
                      "environment": environment(), "details": details}))
    print(json.dumps({"correct": bool(correct and attempted > 0), "attempted": attempted,
                      "failed": failed,
                      "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
