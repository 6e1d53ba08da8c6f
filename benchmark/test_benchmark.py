"""Tests of the benchmark itself (not part of the library's tier-1 suite).

    PYTHONPATH=src python -m pytest -q benchmark/test_benchmark.py
"""

import json
import pathlib
import shutil
import subprocess
import sys

import pytest

import run

sys.path.insert(0, str(run.SRC))

import tracer  # noqa: E402
import workloads  # noqa: E402
from qescrow import analysis as ana  # noqa: E402
from qescrow import protocols as proto  # noqa: E402
from qescrow import qmath  # noqa: E402

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())
SMALL_BLOCKS = {"coinflip-sweep": 3, "escrow-frontier": 3, "optimizer": 1, "composed-9q": 1}


@pytest.fixture(scope="module", params=run.WORKLOAD_NAMES)
def passes(request):
    """One untraced and two traced passes of the same seed, on a few blocks."""
    name = request.param
    saved = dict(run.TRACE_BLOCKS)
    run.TRACE_BLOCKS.update(SMALL_BLOCKS)
    try:
        plain, _ = run.traced_pass(name, 11)
        traced = []
        for _ in range(2):
            tr = tracer.Tracer()
            counter, _ = run.traced_pass(name, 11, tr)
            traced.append((counter, tr))
    finally:
        run.TRACE_BLOCKS.update(saved)
    return plain, traced


def test_tracing_leaves_outcomes_unchanged(passes):
    plain, traced = passes
    assert plain.attempted > 0 and plain.failed == 0
    for counter, _ in traced:
        assert counter.failed == 0
        assert run.outcomes_agree(plain.outcomes, counter.outcomes)


def test_traced_counts_repeat_exactly(passes):
    _, ((_, a), (_, b)) = passes
    assert a.calls == b.calls
    assert (a.leaves, a.optimize_evals, a.amplitude_bytes, a.max_wires) == \
        (b.leaves, b.optimize_evals, b.amplitude_bytes, b.max_wires)
    assert a.calls["protocols.run"] > 0 and a.leaves > 0


def test_tracer_patches_every_alias_and_restores_them():
    measure, post_init = qmath.measure, qmath.StateVector.__post_init__
    with tracer.Tracer() as tr:
        assert tracer.unpatched_references() == []
        assert qmath.measure is not measure
        assert proto.apply_unitary is qmath.apply_unitary      # the alias is wrapped too
        proto.run_coinflip(proto.honest_alice_coinflip(), proto.honest_bob_coinflip())
    assert qmath.measure is measure
    assert qmath.StateVector.__post_init__ is post_init
    assert proto.apply_unitary is qmath.apply_unitary
    assert ana.trace_norm is qmath.trace_norm
    assert tr.calls["protocols.run"] == 1 and tr.calls["qmath.measure"] > 0
    assert tr.calls["qmath.StateVector"] > 0


def test_failure_counter_counts_a_corrupted_evaluation(monkeypatch):
    honest = ana.coinflip_bias
    calls = []

    def corrupted(party, adversary):
        rep = honest(party, adversary)
        calls.append(party)
        if len(calls) == 2:   # shift mass between the two results, keeping the total at 1
            return ana.BiasReport(rep.win_prob_0 + 1e-6, rep.win_prob_1 - 1e-6, rep.err_prob)
        return rep

    monkeypatch.setattr(ana, "coinflip_bias", corrupted)
    counter = run.Counter()
    counter.run_block(workloads.CoinflipSweep(5))
    assert (counter.attempted, counter.failed, counter.aborted_blocks) == (6, 1, 0)
    assert counter.outcomes[1] is None


def test_calibration_scales_times_by_the_local_kernel_speed():
    import calibration
    counter = run.Counter()
    for i in range(40):   # 10 ms evaluations back to back; the kernel took 2x nominal
        counter.record(0.010, True, (i,))
    counter.done = [0.010 * (i + 1) for i in range(40)]
    counter.kernel_after = [2 * calibration.NOMINAL_S if i % 5 == 0 else 0.0 for i in range(40)]
    for i in range(1, 40):   # each kernel run delays the next evaluation's completion
        counter.done[i] += sum(counter.kernel_after[:i])
    rate, latencies, busy = run.calibrated(counter, 0.0)
    assert latencies == pytest.approx([0.005] * 40)
    assert busy == pytest.approx(0.2)
    assert rate == pytest.approx(200.0)


def test_result_line_names_every_declared_metric(monkeypatch, capsys):
    monkeypatch.setattr(run, "SETUP_RUNS", 1)
    monkeypatch.setitem(run.TRACE_BLOCKS, "escrow-frontier", 1)
    for trace, section in ((0, "end_to_end"), (1, "per_layer")):
        assert run.main(["--workload", "escrow-frontier", "--seed", "2", "--seconds", "0.3",
                         "--trace", str(trace)]) == 0
        result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0
        declared = {m["name"]: m["unit"] for m in SPEC[section]}
        assert {k: v["unit"] for k, v in result["metrics"].items()} == declared


def test_run_without_library_source_fails(tmp_path):
    shutil.copytree(run.ROOT / "benchmark", tmp_path / "benchmark",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    out = subprocess.run([sys.executable, "benchmark/run.py", "--workload", "optimizer",
                          "--seed", "1", "--seconds", "1", "--trace", "0"],
                         cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert out.returncode != 0 and out.stdout == ""
    assert not pathlib.Path(tmp_path, "src").exists()
