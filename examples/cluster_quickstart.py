#!/usr/bin/env python3
"""Smol-Cluster walkthrough: shard, survive failures, autoscale.

Smol-Serve (see ``online_serving.py``) executes every micro-batch on one
session in one process.  This walkthrough shows the cluster runtime that
lifts that cap:

1. Build a replica pool: a worker factory wrapping plan-warmed sessions,
   managed by a :class:`Dispatcher` with consistent-hash routing.
2. Submit work directly to the dispatcher and read its provenance
   (which replica served what, after how many attempts).
3. Kill a replica mid-run and watch failover finish every request.
4. Let the queue-depth autoscaler grow and shrink the pool.
5. Shard an offline labeled corpus across the pool and verify the merged
   aggregates match a single-process run exactly.
6. Serve the pool online: :class:`SmolServer` runs a
   :class:`ClusterSession` like any other session, one lane per replica.

Run with:  python examples/cluster_quickstart.py
"""

from __future__ import annotations

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import numpy as np

from repro import (
    AutoscalePolicy,
    Autoscaler,
    ClusterSession,
    Dispatcher,
    InferenceRequest,
    LabeledExample,
    ShardedCorpusRunner,
    SmolServer,
    ThreadWorker,
)
from repro.cluster import run_single_process
from repro.codecs.formats import get_input_format
from repro.hardware import get_instance
from repro.inference import PerformanceModel
from repro.nn import get_model_profile
from repro.serving import simulated_session_for_format

NUM_CLASSES = 8


def simulated_session():
    """A warmed simulated session: ResNet-18 on 161-px JPEG, g4dn.xlarge."""
    return simulated_session_for_format(
        get_model_profile("resnet-18"), get_input_format("161-jpeg-q75"),
        PerformanceModel(get_instance("g4dn.xlarge")),
        num_classes=NUM_CLASSES)


def worker_factory(worker_id: str, results) -> ThreadWorker:
    """One warmed simulated replica per call (all on the same plan)."""
    return ThreadWorker(worker_id, simulated_session(), results)


def main() -> None:
    # 1-2. A four-replica pool with consistent-hash routing: the same image
    #      id lands on the same replica while it stays healthy.
    with Dispatcher(worker_factory, num_workers=4,
                    router="consistent-hash") as cluster:
        futures = [cluster.submit([InferenceRequest(image_id=f"img-{i}")])
                   for i in range(8)]
        for future in futures[:3]:
            result = future.result(timeout=10.0)
            print(f"prediction {result.predictions[0]} from "
                  f"{result.worker_id} (attempt {result.attempts})")
        print()

        # 3. Failover: kill one replica while 200 requests are in flight.
        futures = [cluster.submit([InferenceRequest(image_id=f"img-{i}")])
                   for i in range(200)]
        victim = cluster.live_workers()[0]
        cluster.worker(victim).kill()
        results = [future.result(timeout=10.0) for future in futures]
        print(f"killed {victim}; all {len(results)} requests still "
              "completed")
        print(cluster.stats().describe())
        print()

    # 4. Autoscaling: a one-replica pool under a backlog grows toward the
    #    max bound, then shrinks once the queue drains.
    with Dispatcher(worker_factory, num_workers=1,
                    monitor_interval_s=0) as cluster:
        autoscaler = Autoscaler(cluster, AutoscalePolicy(
            min_workers=1, max_workers=4,
            scale_up_depth=2.0, scale_down_depth=0.25, cooldown_s=0.0,
        ))
        futures = [cluster.submit([InferenceRequest(image_id=f"x-{i}")])
                   for i in range(64)]
        backlog = cluster.backlog()
        grew = autoscaler.evaluate()
        print(f"backlog {backlog} -> scale decision {grew:+d} "
              f"({len(cluster.live_workers())} live)")
        for future in futures:
            future.result(timeout=10.0)
        cluster.drain()
        shrank = autoscaler.evaluate()
        print(f"drained -> scale decision {shrank:+d} "
              f"({len(cluster.live_workers())} live)")
        print()

    # 5. Sharded offline corpus: counts, means, and the confusion matrix
    #    merge to exactly the single-process numbers.
    examples = [LabeledExample(image_id=f"img-{i}", label=i % NUM_CLASSES)
                for i in range(2000)]
    runner = ShardedCorpusRunner(worker_factory, num_workers=4,
                                 num_classes=NUM_CLASSES, batch_size=64)
    sharded = runner.run(examples)
    single = run_single_process(examples, simulated_session(),
                                num_classes=NUM_CLASSES, batch_size=64)
    assert np.array_equal(sharded.total.confusion, single.total.confusion)
    assert sharded.total.correct == single.total.correct
    print(sharded.describe())
    print(f"single-process makespan: {single.makespan_seconds:.3f}s -> "
          f"{sharded.makespan_seconds:.3f}s sharded "
          f"({single.makespan_seconds / sharded.makespan_seconds:.1f}x)")
    print()

    # 6. The pool as a SmolServer session: same submit() -> Future API,
    #    one serving lane per replica, micro-batches fan out across the pool.
    with Dispatcher(worker_factory, num_workers=4) as cluster:
        with SmolServer(ClusterSession(cluster),
                        cache_capacity=256) as server:
            futures = [server.submit(InferenceRequest(image_id=f"img-{i % 16}"))
                       for i in range(200)]
            responses = [future.result(timeout=10.0) for future in futures]
            stats = server.stats()
        print(f"served {len(responses)} requests through the cluster "
              f"({stats.cache_hits} cache hits)")
        print(stats.latency.describe())


if __name__ == "__main__":
    main()
