"""One workload in one process: set up, run the timed loop, check, report.

    python3 perfbench/worker.py --workload mc-fd --seed 1 --seconds 38 --trace 0
    python3 perfbench/worker.py --workload mc-fd --seed 1 --setup-only

run.py starts this process and reads the JSON object on the
last line of its standard output. The loop is closed with one client:
operations run back to back in this process, on no extra threads, with
BLAS at its default thread count. qpflow is imported from ``src`` of the
checkout that holds this file, never from an installed copy.
"""

from __future__ import annotations

import argparse
import ctypes
import importlib
import json
import math
import os
import platform
import statistics
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
TRACE_DIR = HERE / "out"
TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0)
# Nominal length of one calibration pass: timings are reported in seconds of
# a host on which ``Calibration.run`` takes this long (see ``timed_loop``).
CALIBRATION_REF_S = 3.0e-3


def import_qpflow():
    """Put the checkout's ``src`` first on the path and import qpflow from it."""
    package = SRC / "qpflow"
    if not (package / "__init__.py").is_file():
        raise SystemExit(f"error: qpflow sources not found at {package}")
    sys.path.insert(0, str(SRC))
    import qpflow

    if Path(qpflow.__file__).resolve().parent != package:
        raise SystemExit(f"error: imported qpflow from {qpflow.__file__}, not {package}")


def run_op(workload, i: int):
    """Operation ``i``; an exception is reported and yields no record."""
    try:
        return workload.run(i)
    except Exception:
        traceback.print_exc()
        return None


class Calibration:
    """A fixed amount of work that shares no code with qpflow.

    It mixes what the workloads spend their time on: interpreter work
    (dicts, lists, float arithmetic), small LAPACK solves, numpy calls on
    128-element arrays and element-wise arithmetic on a 16,384-amplitude
    complex array, about a quarter each. None of it starts BLAS threads,
    which would spin next to the operation that follows. Its duration
    measures how fast the host runs at that moment.
    """

    def __init__(self):
        import numpy as np

        rng = np.random.default_rng(0)
        self.np = np
        self.a = rng.standard_normal((8, 8)) + 8.0 * np.eye(8)
        self.b = rng.standard_normal(8)
        self.state = np.exp(1j * rng.standard_normal(1 << 14))
        for _ in range(3):  # warm up
            self.run()

    def run(self) -> float:
        """Time one pass, in seconds."""
        np = self.np
        t0 = time.perf_counter()
        acc = 0.0
        for k in range(1500):
            d = {"k": k, "acc": acc, "pair": [k, k + 1]}
            acc += sum(d["pair"]) * 1e-9 + len(d)
        for _ in range(150):
            acc += float(np.linalg.solve(self.a, self.b)[0])
        small = self.state[:128]
        for _ in range(300):
            acc += float((small * 0.5).sum().real)
        for _ in range(12):
            acc += float(np.abs(self.state * 0.5).max())
        return time.perf_counter() - t0


def timed_loop(workload, calibration: Calibration, seconds: float,
               min_ops: int) -> tuple[list[float], list[float]]:
    """Run operations until they took ``seconds`` in total and ``min_ops`` ran.

    The host's speed drifts by a quarter and more over tens of seconds, and
    raw durations drift with it. So a calibration pass runs right before and
    right after every operation; the operation's duration divided by the
    mean of the two is its cost in calibration passes, which the host's
    speed cancels out of. Each result is checked right after its
    operation, outside the timed span. Returns each operation's raw
    duration and its calibrated duration: the cost times
    ``CALIBRATION_REF_S``.
    """
    raw, calibrated = [], []
    busy = 0.0
    while True:
        i = len(raw)
        before = calibration.run()
        t0 = time.perf_counter()
        record = run_op(workload, i)
        raw.append(time.perf_counter() - t0)
        after = calibration.run()
        calibrated.append(raw[-1] * CALIBRATION_REF_S * 2.0 / (before + after))
        busy += raw[-1]
        workload.check(i, record)
        if busy >= seconds and len(raw) >= min_ops:
            return raw, calibrated


def traced_loop(workload, tracer, seconds: float) -> list[tuple[float, float]]:
    """Run each input untraced and traced, alternating which goes first.

    Keeps going until the operations took ``seconds`` in total and the
    tracer's window of traced operations is complete; results are checked
    as in ``timed_loop``. Returns (untraced, traced) duration pairs.
    """
    pairs = []
    busy = 0.0
    while True:
        i = len(pairs)
        took = {}
        for traced in (False, True) if i % 2 == 0 else (True, False):
            if traced:
                tracer.op = i
                tracer.install()
            try:
                t0 = time.perf_counter()
                record = run_op(workload, i)
                took[traced] = time.perf_counter() - t0
            finally:
                if traced:
                    tracer.uninstall()
                    tracer.end_op()
            workload.check(2 * i + traced, record)
        pairs.append((took[False], took[True]))
        busy += took[False] + took[True]
        if busy >= seconds and len(pairs) >= tracer.window:
            return pairs


def peak_rss_mib() -> float:
    import resource

    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return peak / (1 << 20) if sys.platform == "darwin" else peak / 1024  # bytes vs KiB


def tail_percentile(values: list[float]) -> tuple[float, float] | None:
    """Highest percentile in TAIL_PERCENTILES with at least ten samples beyond it."""
    ordered = sorted(values)
    n = len(ordered)
    for p in TAIL_PERCENTILES:
        rank = math.ceil(p / 100.0 * n)
        if n - rank >= 10:
            return p, ordered[rank - 1]
    return None


def blas_threads():
    """Thread count of numpy's bundled OpenBLAS, when it can be asked."""
    import numpy as np

    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in sorted(libs.glob("*openblas*")):
        lib = ctypes.CDLL(str(path))
        for symbol in (
            "scipy_openblas_get_num_threads64_",
            "openblas_get_num_threads64_",
            "openblas_get_num_threads",
        ):
            getter = getattr(lib, symbol, None)
            if getter is not None:
                getter.restype = ctypes.c_int
                return getter()
    return os.environ.get("OPENBLAS_NUM_THREADS", "unknown")


def host_facts() -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas['name']} {blas.get('version', '')}".strip()
    except (KeyError, TypeError):
        blas_name = "unknown"
    affinity = getattr(os, "sched_getaffinity", None)
    return {
        "cpu_count": os.cpu_count(),
        "cpus_usable": len(affinity(0)) if affinity else os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_name,
        "blas_threads": blas_threads(),
        "platform": platform.platform(),
    }


def measure(workload, calibration: Calibration, seconds: float, min_ops: int) -> dict:
    raw, durations = timed_loop(workload, calibration, seconds, min_ops)
    rss = peak_rss_mib()
    attempted = len(durations) * workload.samples_per_op
    check = workload.result(attempted)
    report = {
        "ops": len(durations),
        "error_rate": check.failed / attempted,
        "raw_solve_s_p50": statistics.median(raw),
        "raw_samples_per_s": attempted / sum(raw),
    }
    tail = tail_percentile(durations)
    if tail is not None:
        report[f"solve_s_p{tail[0]:g}"] = tail[1]
    return {
        "attempted": attempted,
        "check": check,
        "metrics": {
            "solve_s_p50": statistics.median(durations),
            "samples_per_s": attempted / sum(durations),
            "max_dev_pu": check.max_dev_pu,
            "peak_rss_mb": rss,
        },
        "report": report,
    }


def measure_traced(workload, seconds: float) -> dict:
    import tracer as tracing

    modules = {name: importlib.import_module(f"qpflow.{name}") for name in tracing.LAYERS}
    tracer = tracing.Tracer(modules, window=workload.trace_window)
    pairs = traced_loop(workload, tracer, seconds)
    metrics = tracer.per_layer()
    untraced = statistics.median(plain for plain, _ in pairs)
    overhead = statistics.median(traced - plain for plain, traced in pairs)
    metrics["trace.overhead_s"] = overhead
    metrics["trace.overhead_ratio"] = overhead / untraced
    path = TRACE_DIR / f"trace-{workload.name}.json"
    tracer.dump(path, {"workload": workload.name, "window": tracer.window, "span_id": "row index"})
    attempted = 2 * len(pairs) * workload.samples_per_op
    return {
        "attempted": attempted,
        "check": workload.result(attempted),
        "metrics": metrics,
        "report": {"pairs": len(pairs), "spans": len(tracer.spans), "trace_file": str(path)},
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=38.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    import_qpflow()
    import workloads

    workload = workloads.build(args.workload, args.seed)
    ready = time.monotonic()
    calibration = Calibration()
    # Host speed right after set-up, as the factor that turns set-up seconds
    # into calibrated seconds (see timed_loop).
    speed = CALIBRATION_REF_S / statistics.median(calibration.run() for _ in range(5))
    if args.setup_only:
        print(json.dumps({"ready": ready, "speed": speed}))
        return 0

    if args.trace:
        out = measure_traced(workload, args.seconds)
    else:
        out = measure(workload, calibration, args.seconds, workload.reference_ops)
    check = out["check"]
    for problem in check.problems:
        print(f"check failed: {problem}", file=sys.stderr)
    facts = {
        **host_facts(),
        "workload": workload.name,
        **workload.facts(),
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "trace_window_ops": workload.trace_window if args.trace else None,
        "calibration_ref_s": CALIBRATION_REF_S,
        "load": "closed loop, 1 client, operations back to back in one process",
    }
    result = {
        "ready": ready,
        "speed": speed,
        "correct": not check.problems,
        "attempted": out["attempted"],
        "failed": check.failed,
        "metrics": out["metrics"],
        "report": out["report"],
        "facts": facts,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
