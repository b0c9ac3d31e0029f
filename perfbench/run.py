"""Benchmark of the branchgroups engine, end to end and layer by layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. Every repetition of the workload runs
in a fresh single-threaded Python process (perfbench/child.py), so each
pays interpreter start, imports and the lazy fill of the program's
caches, as every CLI invocation does. Repetitions continue until the
next one would end after S seconds; there is always at least one.

--trace 0 reports the end-to-end metrics, as medians over repetitions:
wall_s, setup_s (also sampled by set-up-only processes) and peak_rss_mb.
--trace 1 alternates untraced and traced repetitions and reports the
per-layer metrics of the traced ones plus trace_overhead, the ratio of
traced to untraced wall_s. Every answer of every repetition is checked.

The last stdout line is the result object; the line before it is the
run record (versions, machine, commit, seed, samples).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import subprocess
import sys
import time
from pathlib import Path
from statistics import median, median_low

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("verify-fg3", "verify-grigorchuk", "census-w2")
SETUP_PROBES = 5          # set-up-only processes per run, besides the reps
DEADLINE_S = 170          # the whole run, children included
THREAD_ENV = {name: "1" for name in (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")}
NOT_MEASURED = {
    "wait time per layer": "each workload runs in one thread with run_all "
                           "at --jobs 1, so no layer waits on another",
    "trees.compose.bytes": "computed from array sizes and dtypes, not read "
                           "from hardware counters",
}


class ChildError(RuntimeError):
    pass


class Runner:
    def __init__(self, workload: str, seed: int):
        self.workload = workload
        self.seed = seed
        self.start = time.monotonic()
        self.env = dict(os.environ, PYTHONHASHSEED="0", **THREAD_ENV)

    def child(self, mode: str, spans: Path | None = None) -> dict:
        cmd = [sys.executable, str(HERE / "child.py"), "--workload",
               self.workload, "--seed", str(self.seed), "--mode", mode]
        if spans is not None:
            cmd += ["--spans", str(spans)]
        timeout = DEADLINE_S - (time.monotonic() - self.start)
        if timeout <= 0:
            raise ChildError("time budget exhausted")
        spawned = time.monotonic()
        try:
            proc = subprocess.run(cmd, capture_output=True, text=True,
                                  cwd=ROOT, env=self.env, timeout=timeout)
        except subprocess.TimeoutExpired as exc:
            raise ChildError(f"{mode} repetition exceeded the time budget") from exc
        if proc.returncode != 0:
            raise ChildError(f"{mode} repetition exited {proc.returncode}:\n"
                             f"{proc.stderr[-2000:]}")
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        result["setup_raw_s"] = result["ready"] - spawned
        result["setup_s"] = result["setup_raw_s"] * result["setup_speed"]
        if "wall_raw_s" in result:
            result["wall_s"] = result["wall_raw_s"] * result["run_speed"]
        return result

    def repeat(self, seconds: float, step) -> list:
        """Call step() until the next call would end after `seconds`."""
        out = []
        begun = time.monotonic()
        while True:
            out.append(step())
            elapsed = time.monotonic() - begun
            if elapsed + elapsed / len(out) > seconds:
                return out


def run_record(args, samples: dict) -> dict:
    cpu = None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            cpu = next((line.split(":", 1)[1].strip() for line in handle
                        if line.startswith("model name")), None)
    except OSError:
        pass
    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True)
        commit = proc.stdout.strip() or None
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "branchgroups").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    try:
        from importlib.metadata import version
        numpy_version = version("numpy")
    except ImportError:
        numpy_version = None
    return {"workload": args.workload, "seed": args.seed,
            "seconds": args.seconds, "trace": args.trace,
            "python": platform.python_version(), "numpy": numpy_version,
            "nproc": os.cpu_count(), "cpu_model": cpu, "git_commit": commit,
            "source_sha256": digest.hexdigest(), "threads": THREAD_ENV,
            "samples": samples}


def measure(runner: Runner, seconds: float) -> tuple[dict, list, dict]:
    setups = [runner.child("setup")["setup_s"] for _ in range(SETUP_PROBES)]
    reps = runner.repeat(seconds, lambda: runner.child("run"))
    setups += [r["setup_s"] for r in reps]
    metrics = {
        "wall_s": (median([r["wall_s"] for r in reps]), "s"),
        "setup_s": (median(setups), "s"),
        "peak_rss_mb": (median([r["peak_rss_mb"] for r in reps]), "MB"),
    }
    samples = {"wall_s": [r["wall_s"] for r in reps], "setup_s": setups,
               "peak_rss_mb": [r["peak_rss_mb"] for r in reps],
               "wall_raw_s": [r["wall_raw_s"] for r in reps],
               "run_speed": [r["run_speed"] for r in reps]}
    return metrics, reps, samples


def trace(runner: Runner, seconds: float) -> tuple[dict, list, dict]:
    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    spans = out_dir / f"trace-{runner.workload}-seed{runner.seed}.json"

    pairs: list = []

    def pair():
        plain = runner.child("run")
        traced = runner.child("trace", spans if not pairs else None)
        pairs.append((plain, traced))
    runner.repeat(seconds, pair)
    traced = [t for _, t in pairs]
    metrics = {}
    for name, (_value, unit) in traced[0]["layers"].items():
        # layer times are scaled to the reference speed like wall_s;
        # median_low keeps counts whole
        scale = [t["run_speed"] if unit in ("s", "us") else 1 for t in traced]
        metrics[name] = (median_low(
            [t["layers"][name][0] * k for t, k in zip(traced, scale)]), unit)
    untraced_wall = median([p["wall_s"] for p, _ in pairs])
    traced_wall = median([t["wall_s"] for t in traced])
    metrics["trace_overhead"] = (traced_wall / untraced_wall, "ratio")
    samples = {"untraced_wall_s": [p["wall_s"] for p, _ in pairs],
               "traced_wall_s": [t["wall_s"] for t in traced],
               "traced_wall_raw_s": [t["wall_raw_s"] for t in traced],
               "spans_file": str(spans.relative_to(ROOT)),
               "not_measured": {**NOT_MEASURED, **{
                   name: "not found in this version of branchgroups"
                   for name in traced[0]["unmeasured"]}}}
    return metrics, [r for p in pairs for r in p], samples


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "branchgroups" / "__init__.py").is_file():
        print(f"error: no branchgroups sources under {ROOT / 'src'}; run from "
              "the root of a checkout", file=sys.stderr)
        return 2
    runner = Runner(args.workload, args.seed)
    try:
        metrics, reps, samples = (trace if args.trace else measure)(
            runner, args.seconds)
    except ChildError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    attempted = sum(r["answers_checked"] for r in reps)
    failed = sum(r["answers_wrong"] for r in reps)
    for wrong in sorted({w for r in reps for w in r["wrong"]}):
        print(f"wrong answer: {wrong}", file=sys.stderr)
    samples["repetitions"] = len(reps)
    print(json.dumps({"run_record": run_record(args, samples)}, sort_keys=True))
    print(json.dumps({
        "correct": failed == 0 and attempted > 0,
        "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
