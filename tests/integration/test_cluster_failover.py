"""Integration: cluster failover under live traffic and sharded corpus runs.

The acceptance bar for the cluster runtime: killing one of N replicas
mid-run still completes every submitted request with correct results, and a
sharded offline run over the simulated engine produces aggregates identical
to the single-process path.
"""

import threading

import numpy as np
import pytest

from cluster_testlib import ScriptedSession, simulated_session
from repro.cluster import (
    ClusterSession,
    Dispatcher,
    LabeledExample,
    ShardedCorpusRunner,
    ThreadWorker,
    run_single_process,
)
from repro.serving import BatchPolicy, InferenceRequest, LoadGenerator, SmolServer
from repro.utils.rng import stable_hash

NUM_CLASSES = 8


def _factory(worker_id, results):
    return ThreadWorker(worker_id, simulated_session(NUM_CLASSES), results)


@pytest.fixture(scope="module")
def plan_key():
    return simulated_session(NUM_CLASSES).plan_key


class TestFailoverUnderTraffic:
    def test_loadgen_traffic_survives_a_replica_death(self, plan_key):
        with Dispatcher(_factory, num_workers=3,
                        heartbeat_timeout_s=0.5) as dispatcher:
            with SmolServer(ClusterSession(dispatcher), cache_capacity=0,
                            policy=BatchPolicy.latency()) as server:
                pool = [(f"img-{i}", None) for i in range(24)]
                generator = LoadGenerator(server, pool, seed=13)
                killer = threading.Timer(
                    0.05,
                    lambda: dispatcher.worker(
                        dispatcher.live_workers()[0]).kill(),
                )
                killer.start()
                report = generator.run(rate_per_s=1500.0, duration_s=0.3,
                                       pattern="poisson")
                killer.join()
                stats = dispatcher.stats()
        assert report.completed == report.offered
        assert report.rejected == 0
        assert stats.worker_deaths == 1
        assert stats.live_workers == 2

    def test_predictions_remain_plan_deterministic_after_failover(self,
                                                                  plan_key):
        with Dispatcher(_factory, num_workers=3,
                        heartbeat_timeout_s=0.5) as dispatcher:
            with SmolServer(ClusterSession(dispatcher), cache_capacity=0) as server:
                futures = [
                    server.submit(InferenceRequest(image_id=f"img-{i}"))
                    for i in range(150)
                ]
                dispatcher.worker(dispatcher.live_workers()[1]).kill()
                responses = [f.result(timeout=15.0) for f in futures]
        for i, response in enumerate(responses):
            expected = stable_hash(f"img-{i}", plan_key) % NUM_CLASSES
            assert response.prediction == expected


class TestShardedOfflineEquality:
    def test_sharded_simulated_run_matches_single_process(self):
        corpus = [LabeledExample(image_id=f"img-{i}", label=i % NUM_CLASSES)
                  for i in range(600)]
        runner = ShardedCorpusRunner(_factory, num_workers=4,
                                     num_classes=NUM_CLASSES, batch_size=32)
        sharded = runner.run(corpus)
        single = run_single_process(corpus, simulated_session(NUM_CLASSES),
                                    num_classes=NUM_CLASSES, batch_size=32)
        assert sharded.total.count == single.total.count
        assert sharded.total.correct == single.total.correct
        assert sharded.total.prediction_sum == single.total.prediction_sum
        assert np.array_equal(sharded.total.confusion, single.total.confusion)
        assert sharded.total.accuracy == single.total.accuracy

    def test_sharded_run_with_mid_run_death_matches_single_process(
            self, plan_key):
        corpus = [LabeledExample(image_id=f"img-{i}", label=i % NUM_CLASSES)
                  for i in range(600)]
        single = run_single_process(corpus, simulated_session(NUM_CLASSES),
                                    num_classes=NUM_CLASSES, batch_size=32)

        # Slowed replicas (each batch occupies its worker for ~50ms of wall
        # time) so the kill deterministically lands mid-run; a scripted
        # session on the simulated plan key predicts what it predicts.
        def slow_factory(worker_id, results):
            return ThreadWorker(worker_id, ScriptedSession(
                plan_key, num_classes=NUM_CLASSES, delay_s=0.05), results)

        runner = ShardedCorpusRunner(slow_factory, num_workers=4,
                                     num_classes=NUM_CLASSES, batch_size=32)
        dispatcher = Dispatcher(slow_factory, num_workers=4,
                                heartbeat_timeout_s=0.5)
        try:
            killer = threading.Timer(
                0.05,
                lambda: dispatcher.worker(
                    dispatcher.live_workers()[-1]).kill(),
            )
            killer.start()
            sharded = runner.run(corpus, dispatcher=dispatcher)
            killer.join()
            assert dispatcher.stats().worker_deaths == 1
        finally:
            dispatcher.close()
        assert sharded.total.count == single.total.count
        assert sharded.total.correct == single.total.correct
        assert np.array_equal(sharded.total.confusion, single.total.confusion)
