#!/usr/bin/env python3
"""A/A check: run the benchmark on one checkout in N alternating sets and
show that the sets agree within the benchmark's own bounds.

    python bench/aa.py --sets 2 --runs 10 > bench/AA.md

Run ``i`` of every set uses seed ``i``, as the driver does.  For each
``<workload>/<metric>`` the report gives each set's median and the distance
between its quartiles as a share of that median (the spread), how much worse
the last set's median is than the first's, and whether all of them sit
inside the metric's bound.
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
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def run_once(workload: str, seed: int, seconds: int) -> dict[str, float]:
    command = SPEC["command"] + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(command, cwd=HERE.parent, stdout=subprocess.PIPE,
                          text=True, check=True)
    result = json.loads(done.stdout.splitlines()[-1])
    if not result["correct"]:
        raise SystemExit(f"{workload} seed {seed}: {result['failed']} failed")
    return {name: m["value"] for name, m in result["metrics"].items()}


def spread(values: list[float]) -> float:
    first, _, third = statistics.quantiles(values, n=4)
    return (third - first) / statistics.median(values)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--sets", type=int, default=2)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seconds", type=int, default=SPEC["run_seconds"])
    args = parser.parse_args()
    workloads = [w["name"] for w in SPEC["workloads"]]
    # values[set][workload][metric] -> one value per run
    values = [{w: {} for w in workloads} for _ in range(args.sets)]
    began = time.time()
    for run in range(args.runs):
        order = list(range(args.sets))
        if run % 2:
            order.reverse()
        for which in order:
            for workload in workloads:
                metrics = run_once(workload, run, args.seconds)
                for name, value in metrics.items():
                    values[which][workload].setdefault(name, []).append(value)
                print(f"run {run} set {which} {workload} "
                      f"({time.time() - began:.0f} s)", file=sys.stderr)

    print(f"# A/A: {args.sets} sets x {args.runs} runs, alternating, "
          f"{args.seconds} s per run, seeds 0..{args.runs - 1}\n")
    sets = " | ".join(f"median {i} | spread {i}" for i in range(args.sets))
    print(f"| workload/metric | bound | {sets} | last vs first | verdict |")
    print("|---|---|" + "---|---|" * args.sets + "---|---|")
    all_inside = True
    for workload in workloads:
        for metric in SPEC["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            per_set = [values[i][workload][name] for i in range(args.sets)]
            medians = [statistics.median(v) for v in per_set]
            spreads = [spread(v) for v in per_set]
            worse = medians[-1] / medians[0] - 1.0
            if metric["better"] == "higher":
                worse = medians[0] / medians[-1] - 1.0
            # The driver exempts set-up time from the spread check only.
            inside = worse <= bound and (
                name == "setup_s" or max(spreads) <= bound)
            all_inside &= inside
            cells = " | ".join(f"{m:.5g} | {s:.1%}"
                               for m, s in zip(medians, spreads))
            print(f"| {workload}/{name} | {bound:.0%} | {cells} | "
                  f"{worse:+.1%} | {'inside' if inside else 'OUTSIDE'} |")
    print(f"\nEvery metric inside its bound: {'yes' if all_inside else 'NO'}")
    print("\n## Every run made\n\n```json")
    print(json.dumps(values, indent=1))
    print("```")
    return 0 if all_inside else 1


if __name__ == "__main__":
    sys.exit(main())
