"""qpflow benchmark: each workload in its own process, metrics printed as JSON.

    python3 perfbench/run.py --workload qpf-chain16 --seed 1 --seconds 38 --trace 0
    python3 perfbench/run.py --workload all --seed 1
    python3 perfbench/run.py --self-check

Run from the root of a checkout. Untraced, a run prints the end-to-end
metrics: ``setup_s`` is the median of SETUP_SAMPLES fresh processes, timed
from their start until the workload is ready. It, ``solve_s_p50`` and
``samples_per_s`` are in calibrated seconds, which the host's drifting speed
cancels out of (see ``worker.timed_loop``); the raw figures are printed
too. Traced (``--trace 1``), it
prints the per-layer metrics and the tracing overhead. The last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``; the lines before it repeat the metrics by name
with units, together with host and run facts. The exit code is 0 only
when every correctness check passed. ``--self-check`` traces every
workload twice with one seed and fails when a count differs between the
two runs or a span fires on other workloads than the layer table says.

This runner is stdlib-only; numpy and qpflow load in the worker processes.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

import tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
SETUP_SAMPLES = 5  # setup_s is the median over this many fresh processes
DEADLINE_S = 170.0  # a run ends within 180 s
END_TO_END = {
    "setup_s": "s",
    "solve_s_p50": "s",
    "samples_per_s": "1/s",
    "max_dev_pu": "pu",
    "peak_rss_mb": "MiB",
}
REPORT_UNITS = {
    "ops": "count",
    "error_rate": "ratio",
    "raw_setup_s": "s",
    "raw_solve_s_p50": "s",
    "raw_samples_per_s": "1/s",
    "pairs": "count",
    "spans": "count",
}


class BenchError(RuntimeError):
    pass


def run_worker(workload: str, seed: int, seconds: float, trace: int, deadline: float,
               setup_only: bool = False) -> tuple[dict, float]:
    """Start one worker; returns its result and the monotonic start time.

    The worker stamps ``ready`` with the same system-wide monotonic clock,
    so ready minus start is its set-up time including interpreter start.
    """
    cmd = [sys.executable, str(WORKER), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    if setup_only:
        cmd.append("--setup-only")
    started = time.monotonic()
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                              timeout=max(1.0, deadline - started))
    except subprocess.TimeoutExpired as exc:  # run() has killed and reaped the worker
        raise BenchError(f"{workload}: worker exceeded the time limit") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"{workload}: worker exited with code {proc.returncode}")
    return json.loads(lines[-1]), started


def run_workload(workload: str, seed: int, seconds: float, trace: int) -> dict:
    """One benchmark run: the measuring worker, between set-up probes when untraced.

    Half the probes run before the measuring worker and half after it, so
    the set-up median samples the host at both ends of the run.
    """
    deadline = time.monotonic() + DEADLINE_S

    def setup(result: dict, started: float) -> tuple[float, float]:
        """Raw and calibrated set-up seconds of one worker."""
        raw = result["ready"] - started
        return raw, raw * result["speed"]

    def probe() -> tuple[float, float]:
        return setup(*run_worker(workload, seed, 0, 0, deadline, setup_only=True))

    probes = 0 if trace else SETUP_SAMPLES - 1
    setups = [probe() for _ in range(probes // 2)]
    result, started = run_worker(workload, seed, seconds, trace, deadline)
    if trace:
        units = tracer.metric_units()
    else:
        setups.append(setup(result, started))
        setups += [probe() for _ in range(probes - probes // 2)]
        result["metrics"]["setup_s"] = statistics.median(c for _, c in setups)
        result["report"]["raw_setup_s"] = statistics.median(r for r, _ in setups)
        result["report"]["setup_samples_s"] = [c for _, c in setups]
        units = END_TO_END
    result["metrics"] = {
        name: {"value": result["metrics"][name], "unit": unit} for name, unit in units.items()
    }
    return result


def print_run(workload: str, result: dict):
    """Facts, then one line per metric and run figure: name, value, unit."""
    print(f"# {workload} facts {json.dumps(result['facts'])}")
    print(f"# {workload} run {json.dumps(result['report'])}")
    rows = [(name, m["value"], m["unit"]) for name, m in result["metrics"].items()]
    for name, value in result["report"].items():
        if isinstance(value, (int, float)):
            rows.append((name, value, "s" if name.startswith("solve_s_p") else REPORT_UNITS[name]))
    rows += [("attempted", result["attempted"], "count"), ("failed", result["failed"], "count")]
    for name, value, unit in rows:
        print(f"{workload:<12} {name:<52} {value:>14.6g} {unit}")
    print(f"{workload:<12} {'correct':<52} {str(result['correct']):>14}")


def self_check(seed: int) -> bool:
    """Counts repeat exactly, and each span fires exactly where the table says."""
    ok = True
    for workload in tracer.ALL_WORKLOADS:
        runs = [
            run_workload(workload, seed, 0, 1)["metrics"] for _ in range(2)
        ]
        for name in tracer.COUNT_METRICS:
            first, second = runs[0][name]["value"], runs[1][name]["value"]
            fires = workload in tracer.FIRES_ON[name.removesuffix(".calls")]
            problems = []
            if first != second:
                problems.append(f"differs between runs: {first} vs {second}")
            if (first > 0) != fires:
                problems.append(f"reads {first}, expected {'> 0' if fires else '0'}")
            for problem in problems:
                print(f"FAIL {workload} {name} {problem}")
            ok = ok and not problems
        print(f"{'PASS' if ok else 'FAIL'} {workload}: {len(tracer.COUNT_METRICS)} counts checked")
    return ok


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=tracer.ALL_WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=38.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-check", action="store_true")
    args = parser.parse_args(argv)
    if not args.self_check and args.workload is None:
        parser.error("--workload is required")
    if not (ROOT / "src" / "qpflow" / "__init__.py").is_file():
        print(f"error: no qpflow sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    try:
        if args.self_check:
            return 0 if self_check(args.seed) else 1
        workloads = tracer.ALL_WORKLOADS if args.workload == "all" else (args.workload,)
        results = {}
        for workload in workloads:
            results[workload] = run_workload(workload, args.seed, args.seconds, args.trace)
            print_run(workload, results[workload])
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    if len(results) == 1:
        (result,) = results.values()
        metrics = result["metrics"]
    else:
        metrics = {f"{w}.{name}": m for w, r in results.items() for name, m in r["metrics"].items()}
    correct = all(r["correct"] for r in results.values())
    print(json.dumps({
        "correct": correct,
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    raise SystemExit(main())
