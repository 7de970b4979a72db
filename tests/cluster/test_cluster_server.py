"""Tests for a SmolServer serving a replica pool through a ClusterSession."""

import threading

import pytest

from repro.cluster import ClusterSession, Dispatcher, ThreadWorker
from repro.errors import ServingError
from repro.obs import Observability, SloSpec, SloWindow
from repro.obs.slo import SloEngine
from repro.serving import BatchPolicy, InferenceRequest, SmolServer
from repro.tenant import ClassPolicy, TenantConfig, TenantSpec

from cluster_testlib import (
    GatedSession,
    ScriptedSession,
    expected_prediction,
    simulated_session,
    wait_until,
)


def gated_pool(session: GatedSession) -> Dispatcher:
    """A one-replica dispatcher running ``session``."""
    return Dispatcher(
        lambda worker_id, results: ThreadWorker(worker_id, session, results),
        num_workers=1)


class TestClusterBackedServer:
    def test_submit_resolves_through_the_cluster(self, scripted_factory):
        with Dispatcher(scripted_factory, num_workers=3) as dispatcher:
            with SmolServer(ClusterSession(dispatcher),
                            cache_capacity=0) as server:
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

    def test_one_lane_per_replica(self, scripted_factory):
        with Dispatcher(scripted_factory, num_workers=3) as dispatcher:
            session = ClusterSession(dispatcher)
            with SmolServer(session, cache_capacity=0) as server:
                names = sorted(thread.name for thread in threading.enumerate()
                               if thread.name.startswith("smol-serve-"))
                server.submit(InferenceRequest(image_id="x")).result(10.0)
        assert session.streams == 3
        assert names == ["smol-serve-0", "smol-serve-1", "smol-serve-2"]

    def test_stage_costs_are_published_once_under_cluster(self):
        def factory(worker_id, results):
            return ThreadWorker(worker_id, simulated_session(), results)

        obs = Observability()
        events = []
        obs.add_stage_listener(events.append)
        with Dispatcher(factory, num_workers=2, obs=obs) as dispatcher:
            with SmolServer(ClusterSession(dispatcher), cache_capacity=0,
                            obs=obs) as server:
                futures = [server.submit(InferenceRequest(image_id=f"i-{n}"))
                           for n in range(24)]
                for future in futures:
                    future.result(timeout=10.0)
                batches = server.stats().batcher.batches
        assert {event.source for event in events} == {"cluster"}
        stages = {event.stage for event in events}
        assert len(events) == batches * len(stages)
        for stage in stages:
            assert sum(event.images for event in events
                       if event.stage == stage) == 24

    def test_cache_hits_short_circuit_the_cluster(self, scripted_factory):
        with Dispatcher(scripted_factory, num_workers=2) as dispatcher:
            with SmolServer(ClusterSession(dispatcher),
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
            with SmolServer(ClusterSession(dispatcher), cache_capacity=0,
                            policy=BatchPolicy(name="t",
                                               max_batch_size=4)) as server:
                futures = [server.submit(InferenceRequest(image_id=f"i-{n}"))
                           for n in range(120)]
                dispatcher.worker(dispatcher.live_workers()[0]).kill()
                responses = [f.result(timeout=15.0) for f in futures]
        assert len(responses) == 120
        for n, response in enumerate(responses):
            assert response.prediction == expected_prediction(f"i-{n}")

    def test_a_plan_swap_moves_the_server_off_the_cluster(
            self, scripted_factory):
        with Dispatcher(scripted_factory, num_workers=1) as dispatcher:
            with SmolServer(ClusterSession(dispatcher)) as server:
                server.swap_plan(ScriptedSession("local-plan"))
                response = server.submit(
                    InferenceRequest(image_id="x")).result(timeout=10.0)
                assert server.stats().plan_swaps == 1
        assert response.plan_key == "local-plan"
        assert dispatcher.stats().submitted == 0

    def test_close_returns_once_every_batch_resolved(self, scripted_factory):
        with Dispatcher(scripted_factory, num_workers=2) as dispatcher:
            server = SmolServer(ClusterSession(dispatcher), cache_capacity=0)
            futures = [server.submit(InferenceRequest(image_id=f"i-{n}"))
                       for n in range(50)]
            server.close()
            # Every future resolved by the time close() returned.
            assert all(f.done() for f in futures)

    def test_an_idle_lane_takes_what_queued_while_the_replica_was_busy(self):
        # One gated replica, so one lane.  The first request ships alone;
        # the next three queue while the lane waits on the replica, and the
        # lane, idle again, takes all three as one batch.
        session = GatedSession()
        with gated_pool(session) as dispatcher:
            with SmolServer(ClusterSession(dispatcher), cache_capacity=0,
                            policy=BatchPolicy("t", 64)) as server:
                first = server.submit(InferenceRequest(image_id="first"))
                assert session.started.wait(10.0)
                queued = [server.submit(
                    InferenceRequest(image_id=f"queued-{n}"))
                    for n in range(3)]
                assert dispatcher.stats().submitted == 1
                session.release.set()
                responses = [f.result(timeout=10.0)
                             for f in [first] + queued]
                stats = server.stats().batcher
        assert [r.batch_size for r in responses] == [1, 3, 3, 3]
        assert (stats.batches, stats.full_batches) == (2, 0)

    def test_a_dispatcher_closed_under_a_live_server_fails_its_batches(self):
        # The replica holds "running" past the dispatcher's drain bound;
        # it is released only once the closing dispatcher has given up on
        # it, so both requests the server holds fail, and close() returns.
        session = GatedSession()
        dispatcher = gated_pool(session)
        server = SmolServer(ClusterSession(dispatcher), cache_capacity=0)
        closer = threading.Thread(target=dispatcher.close,
                                  kwargs={"timeout": 0.2}, daemon=True)
        try:
            running = server.submit(InferenceRequest(image_id="running"))
            assert session.started.wait(10.0)
            queued = server.submit(InferenceRequest(image_id="queued"))
            closer.start()
            wait_until(lambda: dispatcher.stats().inflight == 0,
                       message="the closing dispatcher to drop its items")
            session.release.set()
            closer.join(10.0)
            assert not closer.is_alive()
            errors = [future.exception(timeout=10.0)
                      for future in (running, queued)]
            server.close(timeout=10.0)
        finally:
            session.release.set()
        assert all(isinstance(error, ServingError) for error in errors)
        assert "dispatcher closed before the item resolved" in str(errors[0])
        assert "cannot submit to a closed dispatcher" in str(errors[1])
        assert server.stats().errors == 2

    def test_tenant_classes_share_the_pool(self, scripted_factory):
        config = TenantConfig(
            tenants=(TenantSpec(name="dashboard", priority="interactive"),
                     TenantSpec(name="backfill", priority="batch")),
            classes=(ClassPolicy("interactive", weight=8.0, rank=0),
                     ClassPolicy("batch", weight=1.0, rank=1)),
            default_spec=TenantSpec(name="*", priority="batch"),
        )
        with Dispatcher(scripted_factory, num_workers=2) as dispatcher:
            with SmolServer(ClusterSession(dispatcher), cache_capacity=0,
                            tenants=config) as server:
                futures = [server.submit(InferenceRequest(
                    image_id=f"i-{n}",
                    tenant=("dashboard", "backfill")[n % 2]))
                    for n in range(30)]
                responses = [f.result(timeout=10.0) for f in futures]
                tenants = server.tenant_stats()
        assert [r.prediction for r in responses] == [
            expected_prediction(f"i-{n}") for n in range(30)]
        assert tenants.class_served == {"interactive": 15, "batch": 15}
        assert all(q.in_flight == 0 for q in tenants.quotas.values())

    def test_a_batch_whose_attempts_are_spent_fails_its_requests(self):
        def factory(worker_id, results):
            return ThreadWorker(worker_id, ScriptedSession(fail_times=100),
                                results)

        with Dispatcher(factory, num_workers=2, max_attempts=2,
                        breaker_threshold=100) as dispatcher:
            with SmolServer(ClusterSession(dispatcher),
                            cache_capacity=0) as server:
                future = server.submit(InferenceRequest(image_id="doomed"))
                with pytest.raises(ServingError,
                                   match="failed after 2 attempts"):
                    future.result(timeout=10.0)
                stats = server.stats()
        assert (stats.errors, stats.completed) == (1, 0)

    def test_the_slo_engine_observes_cluster_served_requests(
            self, scripted_factory):
        engine = SloEngine([SloSpec(
            name="latency", latency_target_s=10.0, objective=0.9,
            windows=(SloWindow(seconds=60.0, max_burn_rate=1.0),),
            min_events=1)])
        with Dispatcher(scripted_factory, num_workers=2) as dispatcher:
            with SmolServer(ClusterSession(dispatcher), cache_capacity=0,
                            slo=engine) as server:
                for future in [server.submit(
                        InferenceRequest(image_id=f"i-{n}"))
                        for n in range(12)]:
                    future.result(timeout=10.0)
        (status,) = engine.evaluate()
        assert (status.windows[0].events, status.windows[0].bad) == (12, 0)

    def test_a_swap_to_fewer_streams_than_replicas_is_refused(
            self, scripted_factory):
        with Dispatcher(scripted_factory, num_workers=3) as dispatcher:
            with SmolServer(ClusterSession(dispatcher)) as server:
                with pytest.raises(ServingError,
                                   match="2 stream\\(s\\) for 3 serving"):
                    server.swap_plan(ScriptedSession("one-stream"))
                assert server.sessions.current().plan_key == "test-plan"
                assert server.stats().plan_swaps == 0

    def test_a_swap_back_onto_the_pool_serves_through_it(
            self, scripted_factory):
        with Dispatcher(scripted_factory, num_workers=1) as dispatcher:
            pool = ClusterSession(dispatcher)
            with SmolServer(pool, cache_capacity=0) as server:
                server.swap_plan(ScriptedSession("local-plan"))
                local = server.submit(
                    InferenceRequest(image_id="x")).result(timeout=10.0)
                server.swap_plan(pool)
                clustered = server.submit(
                    InferenceRequest(image_id="x")).result(timeout=10.0)
        assert (local.plan_key, clustered.plan_key) == (
            "local-plan", "test-plan")
        assert clustered.prediction == expected_prediction("x")
        assert dispatcher.stats().submitted == 1

    def test_a_traced_batch_parents_its_cluster_item(self):
        def factory(worker_id, results):
            return ThreadWorker(worker_id, simulated_session(), results)

        obs = Observability()
        with Dispatcher(factory, num_workers=1, obs=obs) as dispatcher:
            with SmolServer(ClusterSession(dispatcher), cache_capacity=0,
                            obs=obs) as server:
                server.submit(
                    InferenceRequest(image_id="traced")).result(timeout=10.0)
        spans = obs.spans()
        (request,) = [s for s in spans if s.name == "serving.request"]
        (item,) = [s for s in spans if s.name == "cluster.item"]
        (batch,) = [s for s in spans if s.name == "serving.batch"]
        assert item.parent_id == batch.parent_id == request.span_id
        assert {s.trace_id for s in spans} == {request.trace_id}
        # Stage spans hang only under the replica's execution, never under
        # the serving batch: the lane publishes no stage costs of its own.
        stage_parents = {s.parent_id for s in spans
                         if s.name.startswith("stage.")}
        execute_ids = {s.span_id for s in spans
                       if s.name == "cluster.execute"}
        assert stage_parents and stage_parents <= execute_ids
