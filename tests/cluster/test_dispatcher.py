"""Tests for the replica-aware dispatcher: routing, retries, failover."""

import threading

import pytest

from repro.chaos.faults import Fault, FaultHook, FaultInjector, FaultPlan
from repro.cluster import BreakerState, Dispatcher, ThreadWorker
from repro.cluster.worker import Worker, WorkOutcome
from repro.errors import ClusterError, WorkerCrashedError
from repro.serving.request import InferenceRequest

from cluster_testlib import (
    ScriptedSession,
    expected_prediction,
    replica_threads,
    wait_until,
)


def _requests(*image_ids):
    return [InferenceRequest(image_id=i) for i in image_ids]


class TestDispatchBasics:
    def test_results_match_the_plan_deterministically(self, scripted_factory):
        with Dispatcher(scripted_factory, num_workers=3) as dispatcher:
            futures = [dispatcher.submit(_requests(f"img-{i}"))
                       for i in range(24)]
            for i, future in enumerate(futures):
                result = future.result(timeout=10.0)
                assert result.predictions[0] == expected_prediction(f"img-{i}")
                assert result.attempts == 1
            stats = dispatcher.stats()
        assert stats.submitted == stats.completed == 24
        assert stats.failed == stats.retried == 0

    def test_round_robin_spreads_items_over_replicas(self, scripted_factory):
        with Dispatcher(scripted_factory, num_workers=3,
                        router="round-robin") as dispatcher:
            futures = [dispatcher.submit(_requests(f"img-{i}"))
                       for i in range(30)]
            owners = {future.result(timeout=10.0).worker_id
                      for future in futures}
        assert owners == {"worker-0", "worker-1", "worker-2"}

    def test_consistent_hash_is_sticky_per_image(self, scripted_factory):
        with Dispatcher(scripted_factory, num_workers=3,
                        router="consistent-hash") as dispatcher:
            owners = set()
            for _ in range(6):
                future = dispatcher.submit(_requests("img-42"))
                owners.add(future.result(timeout=10.0).worker_id)
        assert len(owners) == 1

    def test_empty_batch_rejected(self, scripted_factory):
        with Dispatcher(scripted_factory, num_workers=1) as dispatcher:
            with pytest.raises(ClusterError):
                dispatcher.submit([])

    def test_submit_after_close_rejected(self, scripted_factory):
        dispatcher = Dispatcher(scripted_factory, num_workers=1)
        dispatcher.close()
        with pytest.raises(ClusterError):
            dispatcher.submit(_requests("img-0"))

    def test_plan_key_comes_from_the_replicas(self, scripted_factory):
        with Dispatcher(scripted_factory, num_workers=2) as dispatcher:
            assert dispatcher.plan_key == "test-plan"

    def test_invalid_parameters_rejected(self, scripted_factory):
        with pytest.raises(ClusterError):
            Dispatcher(scripted_factory, num_workers=0)
        with pytest.raises(ClusterError):
            Dispatcher(scripted_factory, num_workers=1, max_attempts=0)


class TestRetriesAndCircuits:
    def test_transient_failure_retries_on_another_replica(self):
        def factory(worker_id, results):
            fails = 1 if worker_id == "worker-0" else 0
            return ThreadWorker(worker_id,
                                ScriptedSession(fail_times=fails), results)

        with Dispatcher(factory, num_workers=2, router="round-robin",
                        max_attempts=3) as dispatcher:
            futures = [dispatcher.submit(_requests(f"img-{i}"))
                       for i in range(8)]
            results = [future.result(timeout=10.0) for future in futures]
            stats = dispatcher.stats()
        assert all(
            r.predictions[0] == expected_prediction(f"img-{i}")
            for i, r in enumerate(results)
        )
        assert stats.retried >= 1
        assert max(r.attempts for r in results) >= 2

    def test_exhausted_attempts_fail_the_future(self):
        def factory(worker_id, results):
            return ThreadWorker(worker_id,
                                ScriptedSession(fail_times=10_000), results)

        with Dispatcher(factory, num_workers=2, max_attempts=2,
                        breaker_threshold=100) as dispatcher:
            future = dispatcher.submit(_requests("img-0"))
            with pytest.raises(ClusterError, match="after 2 attempts"):
                future.result(timeout=10.0)
            assert dispatcher.stats().failed == 1

    def test_failure_streak_opens_the_circuit(self):
        def factory(worker_id, results):
            fails = 10_000 if worker_id == "worker-0" else 0
            return ThreadWorker(worker_id,
                                ScriptedSession(fail_times=fails), results)

        with Dispatcher(factory, num_workers=2, router="round-robin",
                        max_attempts=4, breaker_threshold=3,
                        breaker_cooldown_s=60.0) as dispatcher:
            futures = [dispatcher.submit(_requests(f"img-{i}"))
                       for i in range(20)]
            for future in futures:
                future.result(timeout=10.0)  # all succeed via worker-1
            snapshot = dispatcher.stats().breakers["worker-0"]
            assert snapshot.state is BreakerState.OPEN
            # With the circuit open, new work routes straight to worker-1.
            result = dispatcher.submit(_requests("probe")).result(timeout=10.0)
            assert result.worker_id == "worker-1"
            assert result.attempts == 1


class TestFailureTrips:
    """Failures must leave flight-recorder evidence (Smol-Sentinel)."""

    def _trip_reasons(self, recorder):
        return [event["reason"] for _, event in recorder.ring_events()
                if event.get("kind") == "trip"]

    def test_exhausted_item_trips_the_recorder(self):
        from repro.obs import FlightRecorder, Observability

        def factory(worker_id, results):
            return ThreadWorker(worker_id,
                                ScriptedSession(fail_times=10_000), results)

        recorder = FlightRecorder()  # no root: trips ring, nothing dumps
        obs = Observability(recorder=recorder)
        with Dispatcher(factory, num_workers=2, max_attempts=2,
                        breaker_threshold=100, obs=obs) as dispatcher:
            future = dispatcher.submit(_requests("img-0"))
            with pytest.raises(ClusterError):
                future.result(timeout=10.0)
        reasons = self._trip_reasons(recorder)
        assert "item_failed" in reasons
        failed = next(event for _, event in recorder.ring_events()
                      if event.get("reason") == "item_failed")
        assert failed["attempts"] == 2
        assert failed["trace_id"] is not None

    def test_circuit_open_trips_exactly_once_per_streak(self):
        from repro.obs import FlightRecorder, Observability

        def factory(worker_id, results):
            fails = 10_000 if worker_id == "worker-0" else 0
            return ThreadWorker(worker_id,
                                ScriptedSession(fail_times=fails), results)

        recorder = FlightRecorder()
        obs = Observability(recorder=recorder)
        with Dispatcher(factory, num_workers=2, router="round-robin",
                        max_attempts=4, breaker_threshold=3,
                        breaker_cooldown_s=60.0, obs=obs) as dispatcher:
            futures = [dispatcher.submit(_requests(f"img-{i}"))
                       for i in range(20)]
            for future in futures:
                future.result(timeout=10.0)
            snapshot = dispatcher.stats().breakers["worker-0"]
            assert snapshot.state is BreakerState.OPEN
        reasons = self._trip_reasons(recorder)
        # The breaker opened once, so exactly one circuit_open trip --
        # subsequent failures while open must not re-trip.
        assert reasons.count("circuit_open") == 1
        tripped = next(event for _, event in recorder.ring_events()
                       if event.get("reason") == "circuit_open")
        assert tripped["worker_id"] == "worker-0"


class TestFailover:
    def test_killing_one_replica_completes_every_request(self,
                                                         scripted_factory):
        with Dispatcher(scripted_factory, num_workers=3,
                        heartbeat_timeout_s=0.5) as dispatcher:
            futures = [dispatcher.submit(_requests(f"img-{i}"))
                       for i in range(150)]
            dispatcher.worker("worker-1").kill()
            results = [future.result(timeout=15.0) for future in futures]
            stats = dispatcher.stats()
        assert len(results) == 150
        for i, result in enumerate(results):
            assert result.predictions[0] == expected_prediction(f"img-{i}")
            assert result.worker_id != "worker-1" or result.attempts == 1
        assert stats.worker_deaths == 1
        assert stats.live_workers == 2
        assert stats.completed == 150

    def test_dead_replica_is_buried_with_its_breaker(self, scripted_factory):
        with Dispatcher(scripted_factory, num_workers=2) as dispatcher:
            dispatcher.worker("worker-0").kill()
            # A killed worker is not alive, so one synchronous health pass
            # buries it deterministically -- no waiting on the monitor.
            dispatcher.check_workers()
            stats = dispatcher.stats()
            assert stats.worker_deaths == 1
            assert "worker-0" not in stats.breakers
            assert dispatcher.live_workers() == ["worker-1"]

    def test_work_parks_until_a_replica_appears(self, scripted_factory):
        dispatcher = Dispatcher(scripted_factory, num_workers=2,
                                heartbeat_timeout_s=0.2)
        try:
            for worker_id in list(dispatcher.live_workers()):
                dispatcher.worker(worker_id).kill()
            dispatcher.check_workers()
            future = dispatcher.submit(_requests("img-7"))
            assert dispatcher.stats().parked == 1
            dispatcher.add_worker()
            result = future.result(timeout=10.0)
            assert result.predictions[0] == expected_prediction("img-7")
        finally:
            dispatcher.close()

    def test_manual_check_workers_reports_the_dead(self, scripted_factory):
        dispatcher = Dispatcher(scripted_factory, num_workers=2,
                                monitor_interval_s=0,
                                heartbeat_timeout_s=10.0)
        try:
            dispatcher.worker("worker-0").kill()
            assert dispatcher.check_workers() == ["worker-0"]
            assert dispatcher.check_workers() == []
        finally:
            dispatcher.close()


class TestPoolManagement:
    def test_add_worker_grows_the_pool(self, scripted_factory):
        with Dispatcher(scripted_factory, num_workers=1) as dispatcher:
            new_id = dispatcher.add_worker()
            assert new_id in dispatcher.live_workers()
            assert len(dispatcher.live_workers()) == 2

    def test_retire_worker_drains_then_removes(self, scripted_factory):
        dispatcher = Dispatcher(scripted_factory, num_workers=2,
                                monitor_interval_s=0)
        try:
            retired = dispatcher.retire_worker()
            assert retired == "worker-1"
            assert retired not in dispatcher.live_workers()
            dispatcher.check_workers()
            assert len(dispatcher.live_workers()) == 1
            # Work still completes on the survivor.
            result = dispatcher.submit(_requests("img-0")).result(timeout=10.0)
            assert result.worker_id == "worker-0"
        finally:
            dispatcher.close()

    def test_last_worker_cannot_be_retired(self, scripted_factory):
        with Dispatcher(scripted_factory, num_workers=1) as dispatcher:
            assert dispatcher.retire_worker() is None

    def test_queue_depths_and_backlog_shapes(self, scripted_factory):
        with Dispatcher(scripted_factory, num_workers=2) as dispatcher:
            depths = dispatcher.queue_depths()
            assert set(depths) == {"worker-0", "worker-1"}
            assert dispatcher.backlog() >= 0

    def test_describe_mentions_key_counters(self, scripted_factory):
        with Dispatcher(scripted_factory, num_workers=1) as dispatcher:
            dispatcher.submit(_requests("img-0")).result(timeout=10.0)
            text = dispatcher.stats().describe()
        assert "submitted" in text
        assert "live" in text


class _ParkedWorker(Worker):
    """A controllable fake replica: accepted items stay pending forever.

    The duplicate-outcome race test forges the worker's outcome onto the
    results queue itself, so it controls exactly when the item is
    "delivered" vs. when the worker is declared dead.
    """

    def __init__(self, worker_id: str) -> None:
        super().__init__(worker_id)
        self.dead = False
        self._pending: dict[int, object] = {}

    @property
    def plan_key(self) -> str:
        return "test-plan"

    @property
    def alive(self) -> bool:
        return not self.dead

    def heartbeat_age(self, now=None) -> float:
        return 0.0

    def submit(self, item) -> None:
        self._pending[item.item_id] = item

    def queue_depth(self) -> int:
        return len(self._pending)

    def pending_items(self):
        return sorted(self._pending.values(), key=lambda i: i.item_id)

    def kill(self) -> None:
        self.dead = True

    def close(self, timeout: float = 5.0) -> None:
        self.dead = True


class _CollectorGate(FaultHook):
    """Parks the collector at the ``dispatcher.outcome`` seam."""

    def __init__(self) -> None:
        self.reached = threading.Event()
        self.release = threading.Event()

    def hit(self, site: str, **ctx) -> None:
        if site == "dispatcher.outcome":
            self.reached.set()
            assert self.release.wait(10.0), "gate never released"


class TestDuplicateOutcomeRace:
    """Regression net for the double-retire bug (chaos seed 14).

    A worker that crashes *after* delivering an outcome but *before*
    acknowledging it leaves the item both on the results queue and in its
    pending set.  The collector then races the monitor's orphan path;
    pre-fix, ``_handle_outcome`` fetched the in-flight entry and later
    popped it unconditionally, so the losing side still bumped counters
    and resolved the future a second time.  The fix pops and rechecks
    atomically: only the winner retires the item.
    """

    def test_late_outcome_after_orphan_failure_is_dropped(self):
        gate = _CollectorGate()
        workers: dict[str, _ParkedWorker] = {}

        def factory(worker_id, results):
            worker = _ParkedWorker(worker_id)
            workers[worker_id] = worker
            return worker

        dispatcher = Dispatcher(factory, num_workers=1, max_attempts=1,
                                monitor_interval_s=0.0, faults=gate)
        try:
            future = dispatcher.submit(_requests("img-0"))
            worker = workers["worker-0"]
            item = worker.pending_items()[0]
            # The crashed worker's parting gift: a success outcome on the
            # results queue while the item is still in its pending set.
            dispatcher.results_queue.put(WorkOutcome(
                item_id=item.item_id, worker_id="worker-0",
                attempts=item.attempts,
                predictions=(expected_prediction("img-0"),),
            ))
            assert gate.reached.wait(10.0)  # collector holds the outcome
            worker.dead = True
            assert dispatcher.check_workers() == ["worker-0"]
            # max_attempts=1: the orphan path already failed the item.
            with pytest.raises(WorkerCrashedError):
                future.result(timeout=10.0)
            gate.release.set()
            dispatcher.drain(timeout=10.0)
        finally:
            gate.release.set()
            dispatcher.close(timeout=10.0)
        stats = dispatcher.stats()
        assert stats.submitted == 1
        assert stats.completed == 0, "late duplicate outcome was counted"
        assert stats.failed == 1
        assert stats.completed + stats.failed == stats.submitted
        assert stats.inflight == 0

    def test_late_failure_outcome_after_orphan_failure_is_dropped(self):
        # Same torn window, error flavor: the in-hand outcome is a final
        # failure (attempts exhausted), and the orphan path wins the race.
        gate = _CollectorGate()
        workers: dict[str, _ParkedWorker] = {}

        def factory(worker_id, results):
            worker = _ParkedWorker(worker_id)
            workers[worker_id] = worker
            return worker

        dispatcher = Dispatcher(factory, num_workers=1, max_attempts=1,
                                monitor_interval_s=0.0, faults=gate)
        try:
            future = dispatcher.submit(_requests("img-0"))
            worker = workers["worker-0"]
            item = worker.pending_items()[0]
            dispatcher.results_queue.put(WorkOutcome(
                item_id=item.item_id, worker_id="worker-0",
                attempts=item.attempts, error="SessionError: boom",
            ))
            assert gate.reached.wait(10.0)
            worker.dead = True
            dispatcher.check_workers()
            with pytest.raises(WorkerCrashedError):
                future.result(timeout=10.0)
            gate.release.set()
            dispatcher.drain(timeout=10.0)
        finally:
            gate.release.set()
            dispatcher.close(timeout=10.0)
        stats = dispatcher.stats()
        assert stats.submitted == 1
        assert stats.failed == 1, "item failed twice (double-retired)"
        assert stats.completed == 0

    def test_ack_window_kill_is_absorbed_end_to_end(self):
        # The chaos-native flavor with a real ThreadWorker: a kill at the
        # worker.ack seam crashes the replica after the outcome posted
        # but while the item is still pending, so the monitor re-
        # dispatches work the dispatcher may already have resolved.
        # Whichever side wins, resolution must be exactly-once.
        injector = FaultInjector(FaultPlan(faults=(
            Fault(site="worker.ack", action="kill", at_hit=1),
        )))

        def factory(worker_id, results):
            return ThreadWorker(worker_id, ScriptedSession(), results,
                                faults=injector)

        dispatcher = Dispatcher(factory, num_workers=2, max_attempts=3,
                                monitor_interval_s=0.0, faults=injector)
        try:
            future = dispatcher.submit(_requests("img-0"))
            dispatcher.drain(timeout=10.0)
            result = future.result(timeout=10.0)
            assert result.predictions[0] == expected_prediction("img-0")
        finally:
            dispatcher.close(timeout=10.0)
        assert [f.fault.site for f in injector.fired] == ["worker.ack"]
        stats = dispatcher.stats()
        assert stats.submitted == 1
        assert stats.completed == 1
        assert stats.failed == 0
        assert stats.completed + stats.failed == stats.submitted
        assert stats.worker_deaths == 1


class _BackedUpCollector(_CollectorGate):
    """A collector gate that also counts every attempt to post to the
    results queue (``queue.put`` fires on entry, before a full queue
    blocks the poster)."""

    def __init__(self) -> None:
        super().__init__()
        self.posts = 0

    def hit(self, site: str, **ctx) -> None:
        if site == "queue.put":
            self.posts += 1
        super().hit(site, **ctx)


class TestKillWhileResultsBackedUp:
    """A replica killed holding an outcome it could not post loses no item.

    With the collector behind and the results queue full, the third
    outcome is computed but blocked at the post.  Killing the replica
    there must leave the item where the health pass finds it: the future
    resolves by failover (or fails as crashed) at once, not at the drain
    timeout -- for either replica kind.
    """

    def test_future_resolves_by_failover_not_by_timeout(self,
                                                        replica_factory):
        hook = _BackedUpCollector()
        dispatcher = Dispatcher(replica_factory, num_workers=1,
                                results_capacity=1, monitor_interval_s=0.0,
                                heartbeat_timeout_s=60.0, faults=hook)
        try:
            first = dispatcher.submit(_requests("img-a"))
            assert hook.reached.wait(20.0)  # the collector holds outcome 1
            second = dispatcher.submit(_requests("img-b"))
            wait_until(lambda: len(dispatcher.results_queue) == 1,
                       message="outcome 2 to fill the results queue")
            third = dispatcher.submit(_requests("img-c"))
            wait_until(lambda: hook.posts >= 3,
                       message="outcome 3 to block at the post")
            dispatcher.worker("worker-0").kill()
            wait_until(lambda: not replica_threads("worker-0"),
                       timeout=10.0, message="the killed replica to stop")
            dispatcher.add_worker()
            hook.release.set()
            assert dispatcher.check_workers() == ["worker-0"]
            assert first.result(timeout=10.0).worker_id == "worker-0"
            assert second.result(timeout=10.0).worker_id == "worker-0"
            try:
                assert third.result(timeout=10.0).worker_id == "worker-1"
            except WorkerCrashedError:
                pass  # also a prompt resolution
        finally:
            hook.release.set()
            dispatcher.close(timeout=10.0)
        stats = dispatcher.stats()
        assert stats.completed + stats.failed == stats.submitted == 3
