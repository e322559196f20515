"""Run the benchmark over several seeds and summarise each metric's spread.

    python3 perfbench/spread.py --workloads qpf-chain16,mc-fd,mc-qpf --seeds 1-10 --out perfbench/baseline.json

For every workload and end-to-end metric it prints the median, the first
and third quartiles (``statistics.quantiles(values, n=4)``) and the spread
(third minus first quartile, as a share of the median), next to the
metric's bound from BENCHMARK.json. Each run is a separate ``run.py``
invocation, exactly as the benchmark is run one seed at a time.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def seed_list(text: str) -> list[int]:
    if "-" in text:
        first, last = text.split("-")
        return list(range(int(first), int(last) + 1))
    return [int(s) for s in text.split(",")]


def summarise(values: list[float]) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median, "values": values}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", required=True, help="comma-separated workload names")
    parser.add_argument("--seeds", required=True, help="'1-10' or '3,5,8'")
    parser.add_argument("--out", help="write the summary as JSON to this path")
    args = parser.parse_args(argv)

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    summary = {}
    for workload in args.workloads.split(","):
        values: dict[str, list[float]] = {}
        walls = []
        for seed in seed_list(args.seeds):
            start = time.monotonic()
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
                 "--seconds", str(bench["run_seconds"]), "--trace", "0"],
                cwd=ROOT, stdout=subprocess.PIPE, text=True,
            )
            walls.append(time.monotonic() - start)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines or not json.loads(lines[-1])["correct"]:
                print(f"{workload} seed {seed}: run failed", file=sys.stderr)
                return 1
            result = json.loads(lines[-1])
            facts_line = next(line for line in lines if line.startswith(f"# {workload} facts "))
            facts = json.loads(facts_line.split(" facts ", 1)[1])
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
            run_line = next(line for line in lines if line.startswith(f"# {workload} run "))
            for name, value in json.loads(run_line.split(" run ", 1)[1]).items():
                if name.startswith("raw_"):  # uncalibrated timings, for comparison
                    values.setdefault(name, []).append(value)
            print(f"{workload} seed {seed}: {walls[-1]:.1f} s", flush=True)
        summary[workload] = {name: summarise(v) for name, v in values.items()}
        summary[workload]["run_wall_s"] = summarise(walls)
        for name, s in summary[workload].items():
            bound = bounds.get(name)
            print(f"{workload:<12} {name:<17} median {s['median']:<12.6g} q1 {s['q1']:<12.6g} "
                  f"q3 {s['q3']:<12.6g} spread {s['spread']:.4f}"
                  + (f" bound {bound}" if bound is not None else ""))
        facts.pop("seed")
        summary[workload]["facts"] = {**facts, "seeds": seed_list(args.seeds)}
    if args.out:
        Path(args.out).write_text(json.dumps(summary, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
