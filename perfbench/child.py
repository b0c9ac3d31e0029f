"""One workload repetition in a fresh process.

    python3 perfbench/child.py --workload NAME --seed S --mode MODE [--spans FILE]

MODE is `setup` (stop once the inputs exist), `run` (the timed work) or
`trace` (the timed work with the layer tracer installed). The last line
of stdout is a JSON object: `ready` is the CLOCK_MONOTONIC time at which
set-up ended, so the parent can add interpreter start-up to it;
`wall_raw_s` runs from the first call into branchgroups to the last
checked answer, less the time of the speed probes taken meanwhile.
`setup_speed` and `run_speed` scale those seconds to the reference host
speed (see speed.py).
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", choices=["setup", "run", "trace"],
                        required=True)
    parser.add_argument("--spans", help="write trace spans to this file")
    args = parser.parse_args()

    sys.path.insert(0, str(SRC))
    import branchgroups
    if Path(branchgroups.__file__).resolve().parent.parent != SRC.resolve():
        raise SystemExit(f"imported branchgroups from {branchgroups.__file__}, "
                         f"not from {SRC}")
    import speed
    from workloads import WORKLOADS, Answers
    workload = WORKLOADS[args.workload]
    inputs = workload.setup(args.seed)
    ready = time.monotonic()
    setup_speed = speed.factor(speed.burst())
    if args.mode == "setup":
        print(json.dumps({"ready": ready, "setup_speed": setup_speed}))
        return 0

    tracer = None
    if args.mode == "trace":
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()
    answers = Answers()
    with speed.Sampler() as sampler:
        t0 = time.perf_counter()
        workload.run(inputs, answers)
        wall = time.perf_counter() - t0
    probes = sampler.samples or speed.burst()

    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    out = {"ready": ready, "setup_speed": setup_speed,
           "wall_raw_s": wall - sampler.spent,
           "run_speed": speed.factor(probes), "probes": len(sampler.samples),
           "peak_rss_mb": rss_kb / 1024,
           "answers_checked": answers.checked,
           "answers_wrong": len(answers.wrong), "wrong": answers.wrong}
    if tracer is not None:
        out["layers"] = tracer.metrics()
        out["unmeasured"] = tracer.missing
        if args.spans:
            Path(args.spans).write_text(json.dumps(
                {"workload": args.workload, "seed": args.seed,
                 "spans": tracer.spans,
                 "functions": {k: {"calls": s[0], "incl_s": s[1], "self_s": s[2]}
                               for k, s in tracer.stats.items() if s[0]}},
                indent=1) + "\n", encoding="utf-8")
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
