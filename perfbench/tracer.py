"""Span tracer wrapped around qpflow's public functions from the outside.

The wrappers replace the module attributes that callers look up at call
time (``hhl.run_qpe``, ``statevector.apply_gate``, ...) and one class
method, so qpflow's own source stays untouched. Every call records one
span: name index, start and end (ns), parent span id and operation id.
Spans of the first ``window`` operations stay in memory; ``per_layer``
folds them into per-operation calls, total time and self time, and
``dump`` writes them out when the run ends.

This module is stdlib-only: run.py reads the layer tables from it
without importing numpy or qpflow.
"""

from __future__ import annotations

import functools
import json
import time
from pathlib import Path

# Traced functions per qpflow module; a dotted entry is a class method.
LAYERS = {
    "statevector": (
        "apply_gate",
        "apply_qft",
        "apply_inverse_qft",
        "init_state",
        "measure_qubit",
        "extract_register",
    ),
    "hhl": (
        "prepare_system",
        "solve",
        "run_qpe",
        "apply_reciprocal_rotation",
        "run_inverse_qpe",
    ),
    "linalg": ("solve_direct", "validate_hermitian", "hermitian_eigendecomposition", "cholesky"),
    "network": (
        "build_ybus",
        "build_b_matrices",
        "compute_mismatch",
        "NetworkCase.with_scheduled_injection",
    ),
    "solvers": ("solve_qpf", "solve_fast_decoupled", "branch_flows"),
    "stochastic": ("sample_injections", "run_monte_carlo"),
    "caseio": ("parse_document", "emit_report", "emit_monte_carlo"),
}
SPANS = tuple(f"{module}.{fn}" for module, fns in LAYERS.items() for fn in fns)

# Counters read off return values, with their units.
COUNTERS = {
    "hhl.success_probability_mean": "ratio",
    "solvers.iterations": "count",
    "solvers.hhl_invocations": "count",
    "stochastic.converged_ratio": "ratio",
}
OVERHEAD = {"trace.overhead_s": "s", "trace.overhead_ratio": "ratio"}

# Metrics that must repeat exactly between two traced runs with one seed.
COUNT_METRICS = tuple(f"{span}.calls" for span in SPANS) + tuple(COUNTERS)

QPF_WORKLOADS = ("qpf-chain16", "mc-qpf")
MC_WORKLOADS = ("mc-fd", "mc-qpf")
ALL_WORKLOADS = ("qpf-chain16", "mc-fd", "mc-qpf")

# Workloads on which each span and counter fires; it reads zero on the rest.
FIRES_ON = {
    **{f"statevector.{fn}": QPF_WORKLOADS for fn in LAYERS["statevector"]},
    **{f"hhl.{fn}": QPF_WORKLOADS for fn in LAYERS["hhl"]},
    "linalg.solve_direct": ("mc-fd",),
    "linalg.validate_hermitian": ALL_WORKLOADS,
    "linalg.hermitian_eigendecomposition": QPF_WORKLOADS,
    "linalg.cholesky": MC_WORKLOADS,
    "network.build_ybus": ALL_WORKLOADS,
    "network.build_b_matrices": ALL_WORKLOADS,
    "network.compute_mismatch": ALL_WORKLOADS,
    "network.NetworkCase.with_scheduled_injection": MC_WORKLOADS,
    "solvers.solve_qpf": QPF_WORKLOADS,
    "solvers.solve_fast_decoupled": ("mc-fd",),
    "solvers.branch_flows": ALL_WORKLOADS,
    "stochastic.sample_injections": MC_WORKLOADS,
    "stochastic.run_monte_carlo": MC_WORKLOADS,
    "caseio.parse_document": ("qpf-chain16",),
    "caseio.emit_report": ("qpf-chain16",),
    "caseio.emit_monte_carlo": MC_WORKLOADS,
    "hhl.success_probability_mean": QPF_WORKLOADS,
    "solvers.iterations": ALL_WORKLOADS,
    "solvers.hhl_invocations": QPF_WORKLOADS,
    "stochastic.converged_ratio": MC_WORKLOADS,
}


def metric_units() -> dict[str, str]:
    """Every per-layer metric name with its unit, in report order."""
    units = {}
    for span in SPANS:
        units[f"{span}.calls"] = "count"
        units[f"{span}.s"] = "s"
        units[f"{span}.self_s"] = "s"
    units.update(COUNTERS)
    units.update(OVERHEAD)
    return units


class Tracer:
    """Wrappers for every span in SPANS plus the spans they record.

    ``op`` is the operation id stamped on new spans. Counters are kept for
    operations below ``window`` only, so they cover a fixed prefix of the
    run and repeat exactly for a given seed.
    """

    def __init__(self, modules: dict, window: int):
        self.window = window
        self.op = -1
        self.spans: list = []
        self._kept = 0
        self._stack: list[int] = []
        self._sums = dict.fromkeys(
            ("success", "hhl_solves", "iterations", "hhl_invocations", "converged", "samples"), 0
        )
        observers = {
            "hhl.solve": self._observe_hhl,
            "solvers.solve_qpf": self._observe_solve,
            "solvers.solve_fast_decoupled": self._observe_solve,
            "stochastic.run_monte_carlo": self._observe_study,
        }
        self._targets = []
        for idx, span in enumerate(SPANS):
            module, _, path = span.partition(".")
            owner = modules[module]
            if "." in path:
                cls, path = path.split(".")
                owner = getattr(owner, cls)
                original = owner.__dict__[path]
            else:
                original = getattr(owner, path)
            wrapped = self._wrap(original, idx, observers.get(span))
            self._targets.append((owner, path, original, wrapped))

    def _wrap(self, fn, idx: int, observe):
        spans, stack, clock, tracer = self.spans, self._stack, time.perf_counter_ns, self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(sid)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[sid] = (idx, start, end, parent, tracer.op)
            if observe is not None and tracer.op < tracer.window:
                observe(result)
            return result

        return traced

    def _observe_hhl(self, solution):
        self._sums["success"] += solution.success_probability
        self._sums["hhl_solves"] += 1

    def _observe_solve(self, report):
        self._sums["iterations"] += report.iterations
        if report.resource is not None:
            self._sums["hhl_invocations"] += report.resource.hhl_invocations

    def _observe_study(self, result):
        self._sums["converged"] += result.n_converged
        self._sums["samples"] += result.n_samples

    def end_op(self):
        """Close operation ``op``: past the window its spans are dropped.

        Later operations still record spans, so the tracing overhead stays
        measured, but memory does not grow with the run's operation count.
        """
        if self.op == self.window - 1:
            self._kept = len(self.spans)
        elif self.op >= self.window:
            del self.spans[self._kept:]

    def install(self):
        for owner, attr, _, wrapped in self._targets:
            setattr(owner, attr, wrapped)

    def uninstall(self):
        for owner, attr, original, _ in self._targets:
            setattr(owner, attr, original)

    def per_layer(self) -> dict[str, float]:
        """Calls, seconds and self seconds per operation over the window.

        Self time is a span's duration minus the durations of its direct
        children. Ratios read 0 where their layer never runs.
        """
        child_ns = [0] * len(self.spans)
        for _, start, end, parent, op in self.spans:
            if parent >= 0 and op < self.window:
                child_ns[parent] += end - start
        calls = [0] * len(SPANS)
        total_ns = [0] * len(SPANS)
        self_ns = [0] * len(SPANS)
        for sid, (idx, start, end, _, op) in enumerate(self.spans):
            if op < self.window:
                calls[idx] += 1
                total_ns[idx] += end - start
                self_ns[idx] += end - start - child_ns[sid]
        out = {}
        for idx, span in enumerate(SPANS):
            out[f"{span}.calls"] = calls[idx] / self.window
            out[f"{span}.s"] = total_ns[idx] * 1e-9 / self.window
            out[f"{span}.self_s"] = self_ns[idx] * 1e-9 / self.window
        sums = self._sums
        out["hhl.success_probability_mean"] = (
            sums["success"] / sums["hhl_solves"] if sums["hhl_solves"] else 0.0
        )
        out["solvers.iterations"] = sums["iterations"] / self.window
        out["solvers.hhl_invocations"] = sums["hhl_invocations"] / self.window
        out["stochastic.converged_ratio"] = (
            sums["converged"] / sums["samples"] if sums["samples"] else 0.0
        )
        return out

    def dump(self, path: Path, meta: dict):
        """Write every recorded span as compact JSON rows."""
        path.parent.mkdir(parents=True, exist_ok=True)
        payload = {
            **meta,
            "names": list(SPANS),
            "fields": ["name", "start_ns", "end_ns", "parent", "op"],
            "spans": self.spans,
        }
        path.write_text(json.dumps(payload, separators=(",", ":")) + "\n")
