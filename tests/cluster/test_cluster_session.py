"""Unit tests for ClusterSession: a dispatcher's replica pool as one engine
session, exercised directly rather than through a server."""

import numpy as np
import pytest

from repro.cluster import ClusterSession, Dispatcher, ThreadWorker
from repro.cluster.dispatcher import ClusterResult
from repro.errors import ClusterError
from repro.serving import InferenceRequest
from repro.serving.session import EngineSession

from cluster_testlib import (
    ScriptedSession,
    expected_prediction,
    simulated_session,
)


def requests(count: int, prefix: str = "i") -> list[InferenceRequest]:
    return [InferenceRequest(image_id=f"{prefix}-{n}") for n in range(count)]


class TestShape:
    @pytest.mark.parametrize("replicas", [1, 2, 4])
    def test_streams_count_the_live_replicas(self, scripted_factory,
                                             replicas):
        with Dispatcher(scripted_factory, num_workers=replicas,
                        monitor_interval_s=0) as dispatcher:
            assert ClusterSession(dispatcher).streams == replicas

    def test_streams_are_fixed_when_the_session_is_built(
            self, scripted_factory):
        # The server sizes its lanes from streams once, so the session must
        # not follow later pool changes in either direction.
        with Dispatcher(scripted_factory, num_workers=2,
                        monitor_interval_s=0) as dispatcher:
            session = ClusterSession(dispatcher)
            dispatcher.add_worker()
            assert len(dispatcher.live_workers()) == 3
            assert session.streams == 2
            dispatcher.retire_worker()
            dispatcher.retire_worker()
            assert len(dispatcher.live_workers()) == 1
            assert session.streams == 2

    def test_a_pool_with_no_live_replica_still_gets_one_stream(
            self, scripted_factory):
        with Dispatcher(scripted_factory, num_workers=2,
                        monitor_interval_s=0) as dispatcher:
            for worker_id in dispatcher.live_workers():
                dispatcher.worker(worker_id).kill()
            assert dispatcher.live_workers() == []
            assert ClusterSession(dispatcher).streams == 1

    def test_plan_key_is_the_dispatchers(self):
        def factory(worker_id, results):
            return ThreadWorker(worker_id, ScriptedSession("pool-plan"),
                                results)

        with Dispatcher(factory, num_workers=2) as dispatcher:
            session = ClusterSession(dispatcher)
            assert isinstance(session, EngineSession)
            assert session.plan_key == dispatcher.plan_key == "pool-plan"


class TestExecute:
    def test_execute_returns_the_replicas_predictions(self,
                                                      scripted_factory):
        with Dispatcher(scripted_factory, num_workers=2) as dispatcher:
            result = ClusterSession(dispatcher).execute(requests(5))
        assert isinstance(result, ClusterResult)
        assert result.predictions.tolist() == [
            expected_prediction(f"i-{n}") for n in range(5)]
        assert result.modelled_seconds == pytest.approx(5e-3)
        assert result.attempts == 1

    def test_one_batch_is_one_dispatcher_item(self, scripted_factory):
        with Dispatcher(scripted_factory, num_workers=3) as dispatcher:
            session = ClusterSession(dispatcher)
            session.execute(requests(7, "a"))
            session.execute(requests(2, "b"))
            stats = dispatcher.stats()
        assert (stats.submitted, stats.completed, stats.failed) == (2, 2, 0)
        assert sum(s.executed_batches
                   for s in scripted_factory.sessions) == 2

    def test_a_failed_attempt_is_retried_on_another_replica(self):
        def factory(worker_id, results):
            fails = 1 if worker_id == "worker-0" else 0
            return ThreadWorker(worker_id, ScriptedSession(fail_times=fails),
                                results)

        with Dispatcher(factory, num_workers=2, router="round-robin",
                        max_attempts=3) as dispatcher:
            session = ClusterSession(dispatcher)
            results = [session.execute(requests(1, f"r{n}"))
                       for n in range(2)]
        retried = [r for r in results if r.attempts > 1]
        assert len(retried) == 1 and retried[0].worker_id == "worker-1"
        assert [int(r.predictions[0]) for r in results] == [
            expected_prediction(f"r{n}-0") for n in range(2)]

    def test_spent_attempts_raise_cluster_error(self):
        def factory(worker_id, results):
            return ThreadWorker(worker_id, ScriptedSession(fail_times=100),
                                results)

        with Dispatcher(factory, num_workers=2, max_attempts=2,
                        breaker_threshold=100) as dispatcher:
            with pytest.raises(ClusterError, match="failed after 2 attempts"):
                ClusterSession(dispatcher).execute(requests(3))
            assert dispatcher.stats().failed == 1

    def test_a_closed_dispatcher_refuses_the_batch(self, scripted_factory):
        dispatcher = Dispatcher(scripted_factory, num_workers=1)
        session = ClusterSession(dispatcher)
        dispatcher.close()
        with pytest.raises(ClusterError,
                           match="cannot submit to a closed dispatcher"):
            session.execute(requests(1))

    def test_stage_events_are_empty_even_when_the_result_has_costs(self):
        # The dispatcher publishes a batch's costs as it resolves; the
        # serving lane must not publish them a second time.
        def factory(worker_id, results):
            return ThreadWorker(worker_id, simulated_session(), results)

        with Dispatcher(factory, num_workers=1) as dispatcher:
            session = ClusterSession(dispatcher)
            result = session.execute(requests(4))
        assert result.modelled_seconds > 0
        assert np.all(result.predictions >= 0)
        assert session.stage_events(result, 4, "serving") == ()
