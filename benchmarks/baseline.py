"""Repeat the benchmark over seeds and summarise each metric: median, IQR, spread.

    python3 benchmarks/baseline.py --runs 10 --trace-runs 3 --out benchmarks/baseline.json
    python3 benchmarks/baseline.py --workloads trajectories --runs 5 --trace-runs 0

Runs ``run.py`` once per seed (1..runs) and workload with tracing off, then
once per seed (1..trace-runs) with tracing on, one process at a time, with
``run_seconds`` from BENCHMARK.json.
Spread is the interquartile range as a share of the median, the quantity
BENCHMARK.json bounds; each end-to-end spread is printed next to its bound.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def summarise(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (values[0],) * 3
    return {
        "median": median,
        "q1": q1,
        "q3": q3,
        "iqr": q3 - q1,
        "spread": (q3 - q1) / median if median else None,
        "runs": len(values),
        "values": values,
    }


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", nargs="+", default=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--trace-runs", type=int, default=3)
    parser.add_argument("--out", default=None, help="write the summary as JSON here")
    args = parser.parse_args()
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    seconds = spec["run_seconds"]
    summary = {"seconds": seconds, "end_to_end": {}, "per_layer": {}}
    failed = False
    for trace, runs, part in ((0, args.runs, "end_to_end"), (1, args.trace_runs, "per_layer")):
        for workload in args.workloads if runs else []:
            values: dict[str, list[float]] = {}
            units: dict[str, str] = {}
            for seed in range(1, runs + 1):
                command = [sys.executable, str(ROOT / "benchmarks" / "run.py"), "--workload", workload,
                           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
                done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, timeout=900)
                lines = done.stdout.strip().splitlines()
                result = json.loads(lines[-1]) if lines else {}
                if done.returncode != 0 or not result.get("correct"):
                    failed = True
                    print(f"{workload} seed {seed}: exit {done.returncode}\n{done.stderr[-2000:]}", file=sys.stderr)
                    continue
                summary.setdefault("environment", json.loads(lines[-2])["details"]["environment"])
                for name, metric in result["metrics"].items():
                    values.setdefault(name, []).append(metric["value"])
                    units[name] = metric["unit"]
            stats = {name: {"unit": units[name], **summarise(v)} for name, v in values.items()}
            summary[part][workload] = stats
            for name, s in stats.items():
                if trace or name in bounds:
                    spread = "n/a" if s["spread"] is None else f"{s['spread']:.4f}"
                    bound = f"  bound {bounds[name]}" if name in bounds else ""
                    print(f"{workload:14} {name:48} median {s['median']:.6g} {s['unit']:6} spread {spread}{bound}", flush=True)
    if args.out:
        Path(args.out).write_text(json.dumps(summary, indent=1) + "\n")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
