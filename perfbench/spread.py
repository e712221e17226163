#!/usr/bin/env python3
"""Runs the benchmark on several seeds and prints each metric's spread.

    python3 perfbench/spread.py --workload W [--seeds 1,2,3,4,5]
        [--seconds S] [--trace 0|1]

Run from the root of the repository. For every metric it prints the
median of the runs and the distance between the first and third quartile
(statistics.quantiles(values, n=4)) as a share of the median — the figure
each end-to-end metric's bound in BENCHMARK.json is compared with — and
whether the records digests and allocation counts repeat exactly.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys


def main() -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True)
    p.add_argument("--seeds", default="1,2,3,4,5")
    p.add_argument("--seconds", type=int)
    p.add_argument("--trace", default="0")
    args = p.parse_args()
    here = os.path.dirname(os.path.abspath(__file__))
    with open(os.path.join(here, "..", "BENCHMARK.json")) as f:
        bench = json.load(f)
    seconds = args.seconds or bench["run_seconds"]
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}
    listed = bench["per_layer" if args.trace == "1" else "end_to_end"]
    units = {m["name"]: m["unit"] for m in listed}
    values = {}
    exact = {}
    for seed in args.seeds.split(","):
        out = subprocess.run(
            [sys.executable, os.path.join(here, "run.py"), "--workload", args.workload,
             "--seed", seed, "--seconds", str(seconds), "--trace", args.trace],
            stdout=subprocess.PIPE, text=True,
        )
        lines = out.stdout.strip().splitlines()
        result = json.loads(lines[-1])
        for line in lines:
            if "records digest" in line:
                exact.setdefault(line.split(":")[0] + " digest", set()).add(line.split()[-1])
            elif "allocations over" in line:
                name, count = line.split(": ", 1)
                exact.setdefault(name, set()).add(count)
        print(f"seed {seed}: exit {out.returncode} correct {result['correct']} "
              f"failed {result['failed']}/{result['attempted']}", flush=True)
        got = {name: m["unit"] for name, m in result["metrics"].items()}
        if got != units:
            print(f"  metrics differ from BENCHMARK.json: {sorted(set(got.items()) ^ set(units.items()))}")
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
    for name, vs in values.items():
        med = statistics.median(vs)
        q1, _, q3 = statistics.quantiles(vs, n=4)
        spread = (q3 - q1) / med if med else float("nan")
        bound = bounds.get(name)
        note = f"bound {bound}" if bound is not None else ""
        print(f"{name:<40} median {med:>12.4f}  spread {spread:7.4f}  {note}  "
              f"[{', '.join(f'{v:.4g}' for v in vs)}]")
    for key, seen in exact.items():
        state = "identical" if len(seen) == 1 else "DIFFERENT"
        print(f"{key}: {state} across runs: {', '.join(sorted(seen))}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
