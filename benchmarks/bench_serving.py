"""Serving-layer latency/throughput benchmark.

Not a paper figure: this benchmarks the Smol-Serve subsystem the repo adds on
top of the paper's offline engine.  The same open-loop Poisson trace is
replayed against the server under the two standard micro-batching policies,
reporting achieved request rate and p50/p95/p99 latency for each.  The
server executes batches inline on its lanes (one per stream the session
declares), each asking only when idle, so the presets differ only in
``max_batch_size``; both must keep up with the offered rate.

The scorecard is also recorded as ``BENCH_serving.json`` at the repo root
so the performance trajectory is machine-trackable.
"""

from pathlib import Path

from benchlib import emit

from repro.codecs.formats import THUMB_JPEG_161_Q75
from repro.inference.perfmodel import PerformanceModel
from repro.nn.zoo import get_model_profile
from repro.serving import (
    BatchPolicy,
    LoadGenerator,
    SmolServer,
    simulated_session_for_format,
)
from repro.utils.benchio import write_bench_json
from repro.utils.tables import Table

OFFERED_RATE = 4000.0
DURATION_S = 0.25
POOL_SIZE = 48
BENCH_PATH = Path(__file__).resolve().parent.parent / "BENCH_serving.json"


def run_policies(perf_model: PerformanceModel) -> Table:
    session = simulated_session_for_format(
        get_model_profile("resnet-18"), THUMB_JPEG_161_Q75, perf_model
    )
    pool = [(f"img-{i}", None) for i in range(POOL_SIZE)]
    table = Table(
        "Smol-Serve: micro-batching policy comparison (simulated session)",
        ["Policy", "Batch", "Req/s", "p50 (ms)", "p95 (ms)",
         "p99 (ms)", "Cache hit %"],
    )
    for policy in (BatchPolicy.latency(), BatchPolicy.throughput()):
        with SmolServer(session, policy=policy) as server:
            generator = LoadGenerator(server, pool, seed=7)
            report = generator.run(rate_per_s=OFFERED_RATE,
                                   duration_s=DURATION_S, pattern="poisson")
            stats = server.stats()
        table.add_row(
            policy.name, policy.max_batch_size,
            round(report.throughput),
            round(report.latency.p50_ms, 3), round(report.latency.p95_ms, 3),
            round(report.latency.p99_ms, 3),
            round(stats.cache.hit_rate * 100, 1),
        )
    return table


def test_serving_policy_latency_throughput(benchmark, perf_model):
    table = benchmark(run_policies, perf_model)
    emit(table)
    write_bench_json(
        BENCH_PATH, "serving-policies",
        [dict(zip(("policy", "max_batch_size",
                   "throughput_rps", "p50_ms", "p95_ms", "p99_ms",
                   "cache_hit_pct"), row))
         for row in table.rows],
        meta={"offered_rate_per_s": OFFERED_RATE, "duration_s": DURATION_S,
              "pool_size": POOL_SIZE},
    )
    rows = dict(zip(table.column("Policy"),
                    zip(table.column("p50 (ms)"), table.column("p95 (ms)"),
                        table.column("p99 (ms)"), table.column("Req/s"))))
    assert set(rows) == {"latency", "throughput"}
    for p50, p95, p99, achieved in rows.values():
        assert 0 <= p50 <= p95 <= p99
        assert achieved > 0
