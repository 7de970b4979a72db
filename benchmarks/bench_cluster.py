"""Smol-Cluster scaling study: sharded throughput vs. worker count.

Not a paper figure: this benchmarks the sharded multi-worker runtime the
repo adds on top of the paper's single-process engine.  The same labeled
corpus is executed at 1/2/4/8 replicas, reporting the modelled (simulated
accelerator) throughput of the busiest replica -- the honest parallel
makespan -- plus the online latency scorecard under Poisson and burst
arrivals at each pool size, served by a ``SmolServer`` whose session is
the pool (``ClusterSession``: one serving lane per replica).  Near-linear
scaling is the acceptance bar: two workers must deliver at least 1.7x the
single-worker throughput.

The sweep is also recorded as ``BENCH_cluster.json`` at the repo root so
the performance trajectory is machine-trackable.
"""

from pathlib import Path

from benchlib import emit

from repro.cluster import (
    ClusterSession,
    Dispatcher,
    LabeledExample,
    ShardedCorpusRunner,
    ThreadWorker,
)
from repro.codecs.formats import THUMB_JPEG_161_Q75
from repro.hardware import get_instance
from repro.inference.perfmodel import PerformanceModel
from repro.nn.zoo import get_model_profile
from repro.serving import (
    BatchPolicy,
    LoadGenerator,
    SmolServer,
    simulated_session_for_format,
)
from repro.utils.benchio import latency_metrics, write_bench_json
from repro.utils.tables import Table

WORKER_COUNTS = (1, 2, 4, 8)
IMAGES = 1024
NUM_CLASSES = 8
BATCH_SIZE = 32
ONLINE_RATE = 3000.0
ONLINE_DURATION_S = 0.1
BENCH_PATH = Path(__file__).resolve().parent.parent / "BENCH_cluster.json"


def _factory(worker_id, results):
    session = simulated_session_for_format(
        get_model_profile("resnet-18"), THUMB_JPEG_161_Q75,
        PerformanceModel(get_instance("g4dn.xlarge")),
        num_classes=NUM_CLASSES)
    return ThreadWorker(worker_id, session, results)


def run_scaling() -> tuple[Table, list[dict]]:
    examples = [LabeledExample(image_id=f"img-{i}", label=i % NUM_CLASSES)
                for i in range(IMAGES)]
    pool = [(f"img-{i}", None) for i in range(48)]
    table = Table(
        f"Smol-Cluster scaling ({IMAGES} images, round-robin shards)",
        ["Workers", "Shard im/s", "Speedup", "Poisson req/s", "p95 (ms)",
         "Burst req/s", "p95 (ms)"],
    )
    rows: list[dict] = []
    baseline = None
    for count in WORKER_COUNTS:
        with Dispatcher(_factory, num_workers=count) as dispatcher:
            runner = ShardedCorpusRunner(
                _factory, num_workers=count, num_classes=NUM_CLASSES,
                batch_size=BATCH_SIZE,
            )
            corpus = runner.run(examples, dispatcher=dispatcher)
            online = {}
            for pattern in ("poisson", "burst"):
                with SmolServer(ClusterSession(dispatcher),
                                policy=BatchPolicy.latency(),
                                cache_capacity=0) as server:
                    generator = LoadGenerator(server, pool, seed=11)
                    online[pattern] = generator.run(
                        rate_per_s=ONLINE_RATE,
                        duration_s=ONLINE_DURATION_S,
                        pattern=pattern, burst_size=16,
                    )
        if baseline is None:
            baseline = corpus.simulated_throughput
        speedup = corpus.simulated_throughput / baseline
        table.add_row(
            count, round(corpus.simulated_throughput), round(speedup, 2),
            round(online["poisson"].throughput),
            round(online["poisson"].latency.p95_ms, 3),
            round(online["burst"].throughput),
            round(online["burst"].latency.p95_ms, 3),
        )
        row = {
            "workers": count,
            "simulated_throughput": round(corpus.simulated_throughput, 2),
            "speedup": round(speedup, 3),
            "corpus_images": corpus.total.count,
            "corpus_accuracy": round(corpus.total.accuracy, 4),
        }
        for pattern in ("poisson", "burst"):
            row.update({
                f"{pattern}_{key}": value
                for key, value in latency_metrics(online[pattern]).items()
            })
        rows.append(row)
    return table, rows


def test_cluster_scaling(benchmark):
    table, rows = benchmark(run_scaling)
    emit(table)
    write_bench_json(
        BENCH_PATH, "cluster-scaling", rows,
        meta={"images": IMAGES, "worker_counts": list(WORKER_COUNTS),
              "online_rate_per_s": ONLINE_RATE,
              "online_duration_s": ONLINE_DURATION_S},
    )
    by_workers = {row["workers"]: row for row in rows}
    # Every sweep point completed the full corpus with identical analytics.
    assert all(row["corpus_images"] == IMAGES for row in rows)
    assert len({row["corpus_accuracy"] for row in rows}) == 1
    # Near-linear scaling: the acceptance bar is >= 1.7x at two workers.
    assert by_workers[2]["speedup"] >= 1.7
    assert by_workers[4]["speedup"] >= 3.0
    assert by_workers[8]["speedup"] >= 5.0
    # Online path keeps up with the offered rate at every pool size.
    for row in rows:
        assert row["poisson_completed"] > 0
        assert row["burst_completed"] > 0
        assert row["poisson_p50_ms"] <= row["poisson_p95_ms"] \
            <= row["poisson_p99_ms"]
