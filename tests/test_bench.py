"""scripts/bench.py: the aggregation of benchmark runs into BENCH_<pr>.json, with a fake runner."""

import importlib.util
import pathlib

import pytest

_SPEC = importlib.util.spec_from_file_location(
    "bench", pathlib.Path(__file__).resolve().parents[1] / "scripts" / "bench.py")
bench = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench)


def fake_runner(calls):
    def run(workload, seed, trace):
        calls.append((workload, seed, trace))
        if trace:
            return ({"environment": {"traced": True}},
                    {"correct": True, "attempted": 5, "failed": 0,
                     "metrics": {"qmath.max_wires": {"value": 4, "unit": "count"}}})
        return ({"environment": {"python": "3.x", "seed": seed}},
                {"correct": seed != 13, "attempted": 10 * seed, "failed": seed % 2,
                 "metrics": {"evals_per_s": {"value": 100.0 * seed, "unit": "1/s"},
                             "setup_s": {"value": 0.5, "unit": "s"}}})
    return run


def test_summarize_takes_median_and_quartiles_per_metric():
    calls = []
    out = bench.summarize(["w"], [1, 2, 4], fake_runner(calls))
    assert calls == [("w", 1, 0), ("w", 2, 0), ("w", 4, 0), ("w", 1, 1)]
    w = out["w"]
    assert w["end_to_end"]["evals_per_s"] == {"median": 200.0, "q1": 150.0, "q3": 300.0,
                                              "values": [100.0, 200.0, 400.0]}
    assert w["end_to_end"]["setup_s"]["median"] == 0.5
    assert (w["attempted"], w["failed"], w["correct"]) == (70, 1, True)
    assert w["attempted_per_seed"] == [10, 20, 40]   # aligned with each metric's values
    assert w["environment"] == {"python": "3.x", "seed": 1}
    assert w["per_layer"] == {"qmath.max_wires": 4}


def test_summarize_reports_a_failed_check_and_a_single_seed():
    out = bench.summarize(["a", "b"], [13], fake_runner([]))
    assert set(out) == {"a", "b"}
    assert out["a"]["correct"] is False
    assert out["a"]["attempted_per_seed"] == [130]
    assert out["a"]["end_to_end"]["evals_per_s"] == pytest.approx(
        {"median": 1300.0, "q1": 1300.0, "q3": 1300.0, "values": [1300.0]})


def test_summarize_cli_runs_each_command_and_takes_the_median():
    calls = []

    def run(command):
        calls.append(command)
        k = len(calls)
        return {"exit": 3 if k == 5 else 0, "seconds": float(k), "peak_rss_mb": 40.0 + k % 3}

    scales = iter([1.0, 1.0, 0.5, 1.5] + [1.0] * 8)
    out = bench.summarize_cli(["coinflip", "selftest"], 3, run, lambda: next(scales))
    assert calls == ["coinflip"] * 3 + ["selftest"] * 3
    assert out["coinflip"]["seconds"] == {"median": 2.0, "q1": 1.5, "q3": 2.5,
                                          "values": [1.0, 2.0, 3.0]}
    assert out["coinflip"]["peak_rss_mb"]["values"] == [41.0, 42.0, 40.0]
    assert out["coinflip"]["peak_rss_mb"]["median"] == 41.0
    assert out["coinflip"]["exit"] == [0]
    # each run is read between its own two scales: seconds times their mean
    assert out["coinflip"]["scales"] == [[1.0, 1.0], [0.5, 1.5], [1.0, 1.0]]
    assert out["coinflip"]["seconds_calibrated"]["values"] == [1.0, 2.0, 3.0]
    assert out["selftest"]["exit"] == [0, 3]
    assert out["selftest"]["seconds"]["median"] == 5.0


def _tier1_report(failures: int, criterion_1_s: float) -> str:
    return f"""<?xml version="1.0" encoding="utf-8"?><testsuites><testsuite name="pytest"
        errors="1" failures="{failures}" skipped="1" tests="10" time="30.0">
      <testcase classname="tests.test_acceptance" name="test_criterion_1" time="{criterion_1_s}"/>
      <testcase classname="tests.test_acceptance" name="test_criterion_4_x" time="1.25">
        <failure message="red"/></testcase>
      <testcase classname="tests.test_cli" name="test_criterion_1" time="7.0"/>
    </testsuite></testsuites>"""


def test_summarize_tier1_counts_tests_and_times_each_criterion():
    runs = iter([(1, 31.5, _tier1_report(2, 0.5)), (1, 29.0, _tier1_report(2, 0.75)),
                 (0, 30.0, _tier1_report(0, 0.25))])
    scales = iter([1.0, 1.0, 0.5, 0.5, 1.0, 2.0])
    out = bench.summarize_tier1(3, lambda: next(runs), lambda: next(scales))
    assert out == {"exit": [0, 1], "passed": [6, 8], "failed": [1, 3],
                   "seconds": {"median": 30.0, "q1": 29.5, "q3": 30.75,
                               "values": [31.5, 29.0, 30.0]},
                   "seconds_calibrated": {"median": 31.5, "q1": 23.0, "q3": 38.25,
                                          "values": [31.5, 14.5, 45.0]},
                   "scales": [[1.0, 1.0], [0.5, 0.5], [1.0, 2.0]],
                   "acceptance_call_s": {
                       "test_criterion_1": {"median": 0.5, "q1": 0.375, "q3": 0.625,
                                            "values": [0.5, 0.75, 0.25]},
                       "test_criterion_4_x": {"median": 1.25, "q1": 1.25, "q3": 1.25,
                                              "values": [1.25, 1.25, 1.25]}}}


def test_scales_are_read_right_before_and_right_after_each_run():
    events = []

    def scale():
        events.append("scale")
        return 1.0

    def run(command):
        events.append(command)
        return {"exit": 0, "seconds": 1.0, "peak_rss_mb": 40.0}

    def tier1():
        events.append("tier-1")
        return 0, 2.0, _tier1_report(0, 0.5)

    bench.summarize_cli(["coinflip"], 2, run, scale)
    bench.summarize_tier1(1, tier1, scale)
    assert events == ["scale", "coinflip", "scale"] * 2 + ["scale", "tier-1", "scale"]


def test_the_checkout_scale_is_its_calibration_kernel():
    scale = bench.checkout_scale(bench.ROOT)
    assert scale.__name__ == "setup_scale"
    assert scale.__module__ == "calibration"
    assert 0.0 < scale() < float("inf")
