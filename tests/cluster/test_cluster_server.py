"""Tests for SmolServer's cluster-backed submit path."""

import time

import pytest

from repro.cluster import Dispatcher, ThreadWorker
from repro.errors import ServingError
from repro.serving import BatchPolicy, InferenceRequest, SmolServer

from cluster_testlib import (
    GatedSession,
    ScriptedSession,
    expected_prediction,
)


class TestClusterBackedServer:
    def test_requires_exactly_one_backend(self, scripted_factory):
        with pytest.raises(ServingError):
            SmolServer()
        with Dispatcher(scripted_factory, num_workers=1) as dispatcher:
            with pytest.raises(ServingError):
                SmolServer(session=ScriptedSession(), cluster=dispatcher)

    def test_submit_resolves_through_the_cluster(self, scripted_factory):
        with Dispatcher(scripted_factory, num_workers=3) as dispatcher:
            with SmolServer(cluster=dispatcher,
                            cache_capacity=0) as server:
                assert server.clustered
                futures = [server.submit(InferenceRequest(image_id=f"i-{n}"))
                           for n in range(40)]
                responses = [f.result(timeout=10.0) for f in futures]
                stats = server.stats()
        for n, response in enumerate(responses):
            assert response.prediction == expected_prediction(f"i-{n}")
            assert response.plan_key == "test-plan"
        assert stats.completed == 40
        assert stats.errors == 0
        assert dispatcher.stats().completed >= 1

    def test_cache_hits_short_circuit_the_cluster(self, scripted_factory):
        with Dispatcher(scripted_factory, num_workers=2) as dispatcher:
            with SmolServer(cluster=dispatcher,
                            cache_capacity=64) as server:
                first = server.submit(
                    InferenceRequest(image_id="hot")).result(timeout=10.0)
                # Wait until resolved, then resubmit: must hit the cache.
                second = server.submit(
                    InferenceRequest(image_id="hot")).result(timeout=10.0)
                stats = server.stats()
        assert first.prediction == second.prediction
        assert second.cached
        assert stats.cache_hits >= 1

    def test_failover_is_invisible_to_clients(self, scripted_factory):
        with Dispatcher(scripted_factory, num_workers=3,
                        heartbeat_timeout_s=0.5) as dispatcher:
            with SmolServer(cluster=dispatcher, cache_capacity=0,
                            policy=BatchPolicy(name="t", max_batch_size=4,
                                               max_wait_ms=1.0)) as server:
                futures = [server.submit(InferenceRequest(image_id=f"i-{n}"))
                           for n in range(120)]
                dispatcher.worker(dispatcher.live_workers()[0]).kill()
                responses = [f.result(timeout=15.0) for f in futures]
        assert len(responses) == 120
        for n, response in enumerate(responses):
            assert response.prediction == expected_prediction(f"i-{n}")

    def test_session_features_rejected_in_cluster_mode(self, scripted_factory):
        with Dispatcher(scripted_factory, num_workers=1) as dispatcher:
            with SmolServer(cluster=dispatcher) as server:
                with pytest.raises(ServingError):
                    server.sessions
                with pytest.raises(ServingError):
                    server.swap_plan(ScriptedSession())
                assert server.stats().plan_swaps == 0

    def test_close_waits_for_outstanding_cluster_batches(self,
                                                         scripted_factory):
        with Dispatcher(scripted_factory, num_workers=2) as dispatcher:
            server = SmolServer(cluster=dispatcher, cache_capacity=0)
            futures = [server.submit(InferenceRequest(image_id=f"i-{n}"))
                       for n in range(50)]
            server.close()
            # Every future resolved by the time close() returned.
            assert all(f.done() for f in futures)

    def test_held_batch_ships_when_a_replica_frees_not_at_the_bound(self):
        # One gated replica.  The first request ships alone to the idle
        # replica; the next three are held because it is busy, under a
        # 60 s bound that would time the test out -- they must ship as one
        # batch the moment the replica frees.  queue_capacity=1 makes each
        # submit return only once the previous request was dequeued, so
        # held-0 is provably in the open batch before the gate opens.
        session = GatedSession()

        def factory(worker_id, results):
            return ThreadWorker(worker_id, session, results)

        policy = BatchPolicy(name="hold", max_batch_size=64,
                             max_wait_ms=60_000.0)
        with Dispatcher(factory, num_workers=1) as dispatcher:
            with SmolServer(cluster=dispatcher, cache_capacity=0,
                            queue_capacity=1, policy=policy) as server:
                first = server.submit(InferenceRequest(image_id="first"))
                assert session.started.wait(10.0)
                held = [server.submit(InferenceRequest(image_id=f"held-{n}"))
                        for n in range(3)]
                assert dispatcher.stats().submitted == 1
                begin = time.monotonic()
                session.release.set()
                responses = [f.result(timeout=10.0) for f in [first] + held]
                elapsed = time.monotonic() - begin
                stats = server.stats().batcher
        assert [r.batch_size for r in responses] == [1, 3, 3, 3]
        assert elapsed < 10.0
        assert stats.timeout_batches == 0 and stats.full_batches == 0
        assert stats.hold_s > 0.0
