"""Repeat the benchmark over seeds and summarise each metric's spread.

    python3 perfbench/collect.py --seeds 1-10 [--workloads a,b] [--trace 0|1]
                                 [--out FILE]

Runs perfbench/run.py once per (workload, seed), with the run length
from BENCHMARK.json, and prints for every metric the median, the
quartiles (statistics.quantiles, n=4) and the spread, the distance
between the quartiles as a share of the median. --out writes every run
record and result plus the summary as one JSON file.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def seed_list(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def summary(values: list[float]) -> dict:
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 \
        else (med, med, med)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else 0.0, "n": len(values)}


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser()
    parser.add_argument("--seeds", required=True, help="e.g. 1-10 or 3,5,8")
    parser.add_argument("--workloads",
                        default=",".join(w["name"] for w in bench["workloads"]))
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--out")
    args = parser.parse_args()
    runs = []
    for workload in args.workloads.split(","):
        for seed in seed_list(args.seeds):
            cmd = [sys.executable, *bench["command"][1:], "--workload",
                   workload, "--seed", str(seed), "--seconds",
                   str(bench["run_seconds"]), "--trace", str(args.trace)]
            proc = subprocess.run(cmd, capture_output=True, text=True,
                                  cwd=ROOT, timeout=200)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or len(lines) < 2:
                print(f"{workload} seed {seed}: exit {proc.returncode}\n"
                      f"{proc.stderr[-1500:]}", file=sys.stderr)
                return 1
            record = json.loads(lines[-2])["run_record"]
            result = json.loads(lines[-1])
            runs.append({"workload": workload, "seed": seed,
                         "record": record, "result": result})
            shown = {k: round(v["value"], 4)
                     for k, v in result["metrics"].items()
                     if args.trace == 0 or k in ("trace_overhead",)}
            print(f"{workload} seed {seed}: correct={result['correct']} "
                  f"attempted={result['attempted']} failed={result['failed']} "
                  f"{shown}", flush=True)
    table = {}
    for workload in args.workloads.split(","):
        mine = [r["result"] for r in runs if r["workload"] == workload]
        table[workload] = {
            name: summary([m["metrics"][name]["value"] for m in mine])
            for name in mine[0]["metrics"]}
        if args.trace == 0:
            for name, s in table[workload].items():
                print(f"{workload:18s} {name:12s} median {s['median']:.4f} "
                      f"spread {s['spread']:.4f}")
    if args.out:
        Path(args.out).write_text(json.dumps(
            {"benchmark": bench, "trace": args.trace, "summary": table,
             "runs": runs}, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
