#!/usr/bin/env python3
"""The repo's end-to-end benchmark.

    python bench/run.py --seed 0            every workload, each in a fresh
                                            subprocess; end-to-end metrics
    python bench/run.py --trace             the same, traced: per-layer metrics
    python bench/run.py --workload W ...    one workload in this process; the
                                            last line is the driver's JSON

A workload is set up, runs one unmeasured warm-up round, then identical
measured rounds of fixed work until ``--seconds`` have passed (never fewer
than ``MIN_ROUNDS``).  Rounds are cut into blocks at fixed op counts; block
``p`` does the same work in every round, and its time is taken as the
favourable quartile across rounds.  See README.md for why.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import importlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
UNITS = {m["name"]: m["unit"] for m in SPEC["end_to_end"] + SPEC["per_layer"]}

MIN_ROUNDS = 8
MAX_ROUNDS = 40
SETUPS = 3
TRACED_ROUNDS = 3


class Timed:
    """Marks wall and CPU time around the part of a round the workload wraps
    in ``with timed:`` and, inside it, after every ``every``-th ``tick()``
    (the workload ticks once per op; several threads may).  The marks cut
    the round into blocks; a latency sample handed to ``tick`` is filed
    under the block it completed in.  In a traced run the timed part is
    also the round's span."""

    def __init__(self, every: int, span=None) -> None:
        self._every = every
        self._span = span or contextlib.nullcontext()
        self._lock = threading.Lock()
        self._ticks = 0
        self.marks: list[tuple[float, float]] = []
        self.samples: list[list[float]] = []

    def _mark(self) -> None:
        self.marks.append((time.perf_counter(), time.process_time()))
        self.samples.append([])

    def __enter__(self):
        self._span.__enter__()
        self._mark()
        return self

    def tick(self, latency: float | None = None) -> None:
        with self._lock:
            if latency is not None:
                self.samples[-1].append(latency)
            self._ticks += 1
            if self._ticks % self._every == 0:
                self._mark()

    def __exit__(self, *exc_info):
        self._mark()
        return self._span.__exit__(*exc_info)

    def blocks(self, clock: int) -> list[float]:
        """Seconds between consecutive marks: wall (0) or CPU (1)."""
        return [after[clock] - before[clock]
                for before, after in zip(self.marks, self.marks[1:])]

    def latencies(self) -> list[float]:
        """Every latency sample, sorted within its block: entry ``i`` is
        then the same order statistic of the same block in every round."""
        return [s for block in self.samples for s in sorted(block)]

    @property
    def wall(self) -> float:
        return self.marks[-1][0] - self.marks[0][0]

    @property
    def cpu(self) -> float:
        return self.marks[-1][1] - self.marks[0][1]


def set_up(name: str, seed: int, quick: bool):
    """One full set-up, from nothing imported to ready for round 1.  Returns
    the workload and the seconds each phase took: importing the program,
    building corpus and oracle, building the runtime plus one warm-up op.

    The program (and ``workloads``, which imports it) is unloaded first, so
    a repeated set-up repeats the program's import-time work too.
    """
    stamps = [time.perf_counter()]
    for module in list(sys.modules):
        if module.split(".")[0] in ("repro", "workloads"):
            del sys.modules[module]
    workloads = importlib.import_module("workloads")
    stamps.append(time.perf_counter())
    workload = workloads.WORKLOADS[name](seed, quick)
    stamps.append(time.perf_counter())
    workload.start()
    stamps.append(time.perf_counter())
    return workload, [b - a for a, b in zip(stamps, stamps[1:])]


def run_rounds(workload, seconds: float, min_rounds: int, tracer=None):
    """The warm-up round, then measured rounds: ``[(Round, Timed)]``."""
    workload.run_round(-1, Timed(workload.mark_every))
    if tracer is not None:
        tracer.spans.clear()
    rounds = []
    measured = 0.0
    while len(rounds) < min_rounds or (
            measured < seconds and len(rounds) < MAX_ROUNDS):
        timed = Timed(workload.mark_every,
                      tracer.round(len(rounds)) if tracer else None)
        rounds.append((workload.run_round(len(rounds), timed), timed))
        measured += timed.wall
    return rounds


def quartile(values, which: int) -> float:
    """Quartile 1, 2 or 3 of ``values`` (the value itself when alone)."""
    values = list(values)
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=4, method="inclusive")[which - 1]


def favourable(repeats: list[list[float]]) -> list[float]:
    """Position by position, the lower quartile across repeats of one
    sequence of timings: ``repeats[r][p]`` timed the same work for every
    ``r``, and noise from the host only ever adds to it."""
    return [quartile(at_position, 1) for at_position in zip(*repeats)]


def host_speed() -> float:
    """Passes per second of a fixed reference loop (best of 3).  Reported so
    a noisy host can be recognised; never used to rescale a metric."""
    best = float("inf")
    for _ in range(3):
        start = time.perf_counter()
        total = 0
        for i in range(200_000):
            total += i * i
        best = min(best, time.perf_counter() - start)
    return 1.0 / best


def provenance(args) -> dict:
    import numpy
    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10).stdout.strip() or None
    except (OSError, subprocess.TimeoutExpired):
        sha = None
    return {
        "git_sha": sha,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas_threads_env": {
            key: os.environ.get(key)
            for key in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                        "MKL_NUM_THREADS")},
        "seed": args.seed,
        "seconds": args.seconds,
        "quick": args.quick,
    }


# ---------------------------------------------------------------------------
# One workload, in this process
# ---------------------------------------------------------------------------
def run_end_to_end(args) -> tuple[dict, dict, list]:
    """The untraced run: every end-to-end metric."""
    import numpy

    phases = []
    workload = None
    for _ in range(1 if args.quick else SETUPS):
        if workload is not None:
            workload.stop()
            workload = None
            gc.collect()
        workload, seconds = set_up(args.workload, args.seed, args.quick)
        phases.append(seconds)
    gc.collect()
    gc.freeze()
    rounds = run_rounds(workload, args.seconds,
                        1 if args.quick else MIN_ROUNDS)
    workload.stop()
    ops = rounds[0][0].ops
    wall_s = sum(favourable([t.blocks(0) for _, t in rounds]))
    cpu_s = sum(favourable([t.blocks(1) for _, t in rounds]))
    samples = [t.latencies() for _, t in rounds]
    # A round without latency samples is itself the op its caller waits
    # for (one engine call): its latency is the round's time.
    latencies = favourable(samples) or [wall_s]
    metrics = {
        "setup_s": sum(favourable(phases)),
        "ops_per_s": ops / wall_s,
        "cpu_ms_per_op": cpu_s * 1000.0 / ops,
        "latency_p50_ms": float(numpy.percentile(latencies, 50)) * 1000.0,
        "latency_p90_ms": float(numpy.percentile(latencies, 90)) * 1000.0,
        "peak_rss_mb":
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    detail = {
        "rounds": len(rounds),
        "ops_per_round": ops,
        "blocks_per_round": len(rounds[0][1].marks) - 1,
        "latency_samples_per_round": len(samples[0]),
        "setup_phases_s": phases,
        "per_round": {
            "wall_s": [t.wall for _, t in rounds],
            "cpu_s": [t.cpu for _, t in rounds],
            "latency_p50_ms": [float(numpy.percentile(s, 50)) * 1000.0
                               for s in samples if s],
            "latency_p90_ms": [float(numpy.percentile(s, 90)) * 1000.0
                               for s in samples if s],
        },
        "counts_per_round": {key: [r.counts[key] for r, _ in rounds]
                             for key in rounds[0][0].counts},
    }
    return metrics, detail, rounds


def run_traced(args) -> tuple[dict, dict, list]:
    """The traced run: untraced rounds, then the same rounds with proxies at
    the layer boundaries, then an uncontended serial probe."""
    from tracing import Tracer

    count = 1 if args.quick else TRACED_ROUNDS
    workload, (import_s, _, _) = set_up(args.workload, args.seed, args.quick)
    speed_before = host_speed()
    untraced = run_rounds(workload, 0, count)
    workload.stop()
    tracer = Tracer()
    workload.start(tracer)
    traced = run_rounds(workload, 0, count, tracer)
    workload.stop()
    probe = workload.probe()
    speed_after = host_speed()

    def ops_per_s(rounds) -> float:
        return sum(r.ops for r, _ in rounds) / sum(t.wall for _, t in rounds)

    metrics = dict.fromkeys((m["name"] for m in SPEC["per_layer"]), 0.0)
    metrics.update(workload.layer_metrics(
        tracer, probe, [r for r, _ in traced],
        [s for _, t in untraced for s in t.latencies()],
        ops_per_s(untraced)))
    metrics.update({
        "inference.cpu_parallelism": sum(t.cpu for _, t in untraced)
        / sum(t.wall for _, t in untraced),
        "harness.import_s": import_s,
        "harness.self_s": sum(s.self_time()
                              for s in tracer.named("harness.round")),
        "harness.trace_overhead_share":
            1.0 - ops_per_s(traced) / ops_per_s(untraced),
        "harness.host_speed_index": (speed_before + speed_after) / 2.0,
        "harness.loadavg_1m": os.getloadavg()[0],
    })
    trace_path = (HERE / "out"
                  / f"trace-{args.workload}-seed{args.seed}.json")
    tracer.write_chrome(trace_path)
    detail = {
        "rounds": count,
        "ops_per_round": traced[0][0].ops,
        "spans": len(tracer.spans),
        "chrome_trace": str(trace_path.relative_to(ROOT)),
        "round_wall_s": sum(t.wall for _, t in traced),
        "host_speed_index": [speed_before, speed_after],
        "probe_ms_per_image": probe,
    }
    return metrics, detail, untraced + traced


def run_one(args) -> int:
    load_start = os.getloadavg()[0]
    run = run_traced if args.trace else run_end_to_end
    metrics, detail, rounds = run(args)
    attempted = sum(r.ops for r, _ in rounds)
    failed = sum(r.failed for r, _ in rounds)
    unknown = sorted(set(metrics) - set(UNITS))
    if unknown:
        raise SystemExit(f"metrics missing from BENCHMARK.json: {unknown}")
    for name, value in metrics.items():
        print(f"{args.workload}/{name} {value:.6g} {UNITS[name]}")
    print(f"{args.workload}/failed_share {failed / attempted:.6g} share")
    detail["provenance"] = provenance(args) | {
        "loadavg_1m": [load_start, os.getloadavg()[0]]}
    print(json.dumps({"detail": detail}))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": UNITS[name]}
                    for name, value in metrics.items()},
    }))
    return 0 if failed == 0 else 1


# ---------------------------------------------------------------------------
# Every workload, each in a fresh subprocess
# ---------------------------------------------------------------------------
def run_all(args) -> int:
    results = {}
    status = 0
    for name in WORKLOADS:
        command = [sys.executable, str(HERE / "run.py"), "--workload", name,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(args.trace)]
        if args.quick:
            command.append("--quick")
        done = subprocess.run(command, stdout=subprocess.PIPE, text=True)
        lines = done.stdout.splitlines()
        if done.returncode not in (0, 1) or len(lines) < 2:
            print(done.stdout, end="")
            print(f"{name}: exited with {done.returncode}", file=sys.stderr)
            return 2
        status = max(status, done.returncode)
        print("\n".join(lines[:-2]))
        results[name] = json.loads(lines[-1]) | json.loads(lines[-2])
    print(json.dumps({"workloads": results}))
    return status


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS,
                        help="run one workload in this process "
                             "(default: all, one subprocess each)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=26.0,
                        help="measure rounds for at least this long")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1),
                        help="traced run: per-layer metrics")
    parser.add_argument("--quick", action="store_true",
                        help="smoke test: one round of tiny workloads")
    args = parser.parse_args()
    if args.quick:
        args.seconds = 0.0
    if not (ROOT / "src" / "repro").is_dir():
        print(f"no program to measure: {ROOT / 'src' / 'repro'} is missing",
              file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src")]
    return run_one(args) if args.workload else run_all(args)


if __name__ == "__main__":
    sys.exit(main())
