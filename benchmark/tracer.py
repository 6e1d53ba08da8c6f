"""Outside-in tracer: per-layer call counts and self times without touching the library.

``Tracer`` replaces the public functions the benchmark measures with timing
wrappers, in every module that holds a reference to them (``protocols``
imports ``apply_unitary`` and ``partial_trace`` by name, ``analysis`` imports
``trace_norm``), and counts constructions of the state and measurement
classes by wrapping their ``__post_init__``.  Each call becomes a span
(name, start, end, parent) kept in memory; a span's self time is its
duration minus the durations of its direct children.  Leaving the ``with``
block restores every original object.
"""

from __future__ import annotations

import functools
import gzip
import json
import sys
import time

from qescrow import adversaries as adv
from qescrow import analysis as ana
from qescrow import protocols as proto
from qescrow import qmath

import workloads

# Metric group of each traced function.  The four runners share one group,
# and so do the strategy factories.
FUNCTIONS = {
    qmath.measure: "qmath.measure",
    qmath.apply_unitary: "qmath.apply_unitary",
    qmath.is_unitary: "qmath.is_unitary",
    qmath.partial_trace: "qmath.partial_trace",
    qmath.trace_norm: "qmath.trace_norm",
    proto.run_escrow: "protocols.run",
    proto.run_escrow_reveal_then_return: "protocols.run",
    proto.run_coinflip: "protocols.run",
    proto.run_weak_commitment: "protocols.run",
    proto.validate_strategy: "protocols.validate_strategy",
    proto.escrow_basis: "protocols.escrow_basis",
    proto.deposit_reduced_state: "protocols.deposit_reduced_state",
    adv.bob_measure_coinflip: "adversaries.build",
    adv.bob_entangling_coinflip: "adversaries.build",
    adv.alice_coinflip_from_angles: "adversaries.build",
    adv.random_binding_pair: "adversaries.build",
    adv.random_return_attack: "adversaries.build",
    adv.optimize: "adversaries.optimize",
    ana.binding_metrics: "analysis.binding_metrics",
    ana.sealing_metrics: "analysis.sealing_metrics",
    ana.enumerated_return_error: "analysis.enumerated_return_error",
    ana.modified_sealing_check: "analysis.modified_sealing_check",
    ana.coinflip_bias: "analysis.coinflip_bias",
    # The benchmark's own evaluation span: it keeps the checking code out of
    # the optimizer's self time and out of trace.coverage.
    workloads.timed_evaluation: "harness.evaluation",
}
CLASSES = {
    qmath.StateVector: "qmath.StateVector",
    qmath.DensityMatrix: "qmath.DensityMatrix",
    qmath.OrthogonalMeasurement: "qmath.OrthogonalMeasurement",
}
GROUPS = sorted(set(FUNCTIONS.values()) | set(CLASSES.values()))


class Tracer:
    def __init__(self):
        self.spans: list[tuple[str, float, float, int] | None] = []
        self.calls = {g: 0 for g in GROUPS}
        self.self_s = {g: 0.0 for g in GROUPS}
        self.amplitude_bytes = 0   # computed: 16 B x 2^wires per apply_unitary/measure call
        self.max_wires = 0
        self.leaves = 0
        self.optimize_evals = 0
        self._stack: list[list] = []   # [span index, child seconds] per open span
        self._patches: list[tuple[object, str, object]] = []

    def _wrap(self, fn, group: str):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        calls, self_s = self.calls, self.self_s
        after = {
            "qmath.measure": self._count_amplitudes,
            "qmath.apply_unitary": self._count_amplitudes,
            "protocols.run": self._count_leaves,
            "adversaries.optimize": self._count_evals,
        }.get(group)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1][0] if stack else -1
            frame = [len(spans), 0.0]
            spans.append(None)
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                calls[group] += 1
                self_s[group] += duration - frame[1]
                if stack:
                    stack[-1][1] += duration
                spans[frame[0]] = (fn.__qualname__, start, end, parent)
            if after is not None:
                after(args, result)
            return result

        return wrapper

    def _count_amplitudes(self, args, result) -> None:
        n = len(args[0].wires)
        self.amplitude_bytes += 16 * 2 ** n
        self.max_wires = max(self.max_wires, n)

    def _count_leaves(self, args, result) -> None:
        self.leaves += len(result.branches)

    def _count_evals(self, args, result) -> None:
        self.optimize_evals += len(result.trace)

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def __enter__(self) -> "Tracer":
        wrappers = {id(fn): (fn, self._wrap(fn, group)) for fn, group in FUNCTIONS.items()}
        for module in _modules():
            for attr, value in list(vars(module).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    self._patch(module, attr, hit[1])
        for cls, group in CLASSES.items():
            self._patch(cls, "__post_init__", self._wrap(cls.__post_init__, group))
        return self

    def __exit__(self, *exc) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def library_self_s(self) -> float:
        """Seconds spent inside library code (every traced group but the harness's own)."""
        return sum(v for g, v in self.self_s.items() if not g.startswith("harness."))

    def write(self, path) -> None:
        """Spans as gzip'd JSON columns: name, start, end (seconds) and parent span index."""
        names = sorted({s[0] for s in self.spans})
        code = {n: i for i, n in enumerate(names)}
        doc = {"names": names,
               "name": [code[s[0]] for s in self.spans],
               "start": [s[1] for s in self.spans],
               "end": [s[2] for s in self.spans],
               "parent": [s[3] for s in self.spans]}
        with gzip.open(path, "wt") as fh:
            json.dump(doc, fh)


def _modules():
    return [m for m in list(sys.modules.values()) if isinstance(getattr(m, "__dict__", None), dict)]


def unpatched_references() -> list[str]:
    """Module attributes that still hold an original traced function (none while tracing)."""
    originals = {id(fn) for fn in FUNCTIONS}
    return [f"{module.__name__}.{attr}"
            for module in _modules()
            for attr, value in list(vars(module).items())
            if id(value) in originals]
