"""Tests for cluster stage costs reaching the stage bus as batches resolve.

A replica builds each batch's ``cluster`` stage events where the session
ran (``WorkOutcome.stages``); the dispatcher publishes them when that
outcome resolves its item -- once per batch, whatever later happens to the
replica that ran it.
"""

import threading

import numpy as np
import pytest

from cluster_testlib import ScriptedSession, simulated_session, wait_until
from repro.chaos.faults import NULL_FAULTS
from repro.cluster.dispatcher import Dispatcher
from repro.cluster.worker import ProcessWorker, ThreadWorker, WorkItem
from repro.errors import ClusterError
from repro.inference.mpmc import MpmcQueue
from repro.obs import FlightRecorder, Observability
from repro.serving.request import InferenceRequest
from repro.serving.session import BatchResult, EngineSession

SUBJECTS = {("decode", "161-jpeg-q75"), ("preprocess", "161-jpeg-q75"),
            ("inference", "resnet-18")}


def item(item_id: int, count: int = 4) -> WorkItem:
    return WorkItem(
        item_id=item_id,
        requests=tuple(InferenceRequest(image_id=f"img-{item_id}-{i}")
                       for i in range(count)),
    )


def batch(tag: str, count: int = 4) -> tuple[InferenceRequest, ...]:
    return tuple(InferenceRequest(image_id=f"{tag}-{j}") for j in range(count))


def stage_images(events, stage: str) -> int:
    return sum(event.images for event in events if event.stage == stage)


def bus():
    obs = Observability()
    events = []
    obs.add_stage_listener(events.append)
    return obs, events


def bus_dispatcher(obs, num_workers=1, faults=NULL_FAULTS,
                   worker_faults=NULL_FAULTS):
    return Dispatcher(
        lambda wid, results: ThreadWorker(wid, simulated_session(), results,
                                          faults=worker_faults),
        num_workers=num_workers, monitor_interval_s=0, obs=obs,
        faults=faults,
    )


def run_eight_batches(dispatcher) -> None:
    """8 items x 4 images, split between the pool's replicas."""
    futures = [dispatcher.submit(batch(f"b{i}")) for i in range(8)]
    for future in futures:
        future.result(timeout=10.0)
    wait_until(lambda: dispatcher.backlog() == 0,
               message="every replica to acknowledge its items")


class TestReplicaStages:
    def test_outcome_carries_the_batch_events_and_names_subjects(self):
        results: MpmcQueue = MpmcQueue(64)
        worker = ThreadWorker("w0", simulated_session(), results)
        try:
            worker.submit(item(0, count=4))
            outcome = results.get(timeout=5.0)
            assert {(e.stage, e.subject) for e in outcome.stages} == SUBJECTS
            assert {(e.images, e.source) for e in outcome.stages} == {
                (4, "cluster")}
            assert all(event.seconds > 0 for event in outcome.stages)
        finally:
            worker.close()

    def test_stage_free_sessions_carry_no_events(self):
        results: MpmcQueue = MpmcQueue(64)
        worker = ThreadWorker("w0", ScriptedSession(), results)
        try:
            worker.submit(item(0))
            assert results.get(timeout=5.0).stages == ()
        finally:
            worker.close()


class SwappingSession(EngineSession):
    """Charges 'decode' for the first batches, 'read' after a swap --
    models a pace hot-swap landing between two batches."""

    def __init__(self):
        super().__init__("swapping-plan")
        self.format_name = "480p-h264"
        self.model_name = "specialized-nn"
        self.warm = False

    def execute(self, requests):
        n = len(requests)
        stage = "read" if self.warm else "decode"
        per_image = 1e-4 if self.warm else 4e-4
        return BatchResult(
            predictions=np.zeros(n, dtype=np.int64),
            modelled_seconds=n * per_image,
            stage_seconds={stage: n * per_image},
        )


class TestMixedStageWindows:
    def test_a_swap_between_batches_keeps_per_image_costs_exact(self):
        """Each batch's event pairs a stage's seconds with the images that
        actually paid it -- a swap never dilutes either per-image cost."""
        obs, events = bus()
        session = SwappingSession()
        with Dispatcher(
            lambda wid, results: ThreadWorker(wid, session, results),
            num_workers=1, monitor_interval_s=0, obs=obs,
        ) as dispatcher:
            dispatcher.submit(item(0, count=4).requests).result(timeout=10.0)
            session.warm = True                  # the hot-swap lands
            dispatcher.submit(item(1, count=12).requests).result(timeout=10.0)
            assert [(e.stage, e.images) for e in events] == [("decode", 4),
                                                             ("read", 12)]
        decode, read = events
        assert decode.seconds / 4 == 4e-4
        assert read.seconds / 12 == 1e-4
        assert {e.subject for e in events} == {"480p-h264"}


class TestProcessWorkerStages:
    def test_child_events_reach_the_parent_bus(self):
        obs, events = bus()
        with Dispatcher(
            lambda wid, results: ProcessWorker(wid, simulated_session(), results),
            num_workers=1, monitor_interval_s=0, obs=obs,
        ) as dispatcher:
            dispatcher.submit(batch("p", count=3)).result(timeout=20.0)
            assert {(e.stage, e.subject) for e in events} == SUBJECTS
            assert {(e.images, e.source) for e in events} == {(3, "cluster")}
            assert stage_images(events, "decode") == 3


class TestDispatcherStageBus:
    def test_each_batch_publishes_before_its_future_resolves(self):
        obs, events = bus()
        with bus_dispatcher(obs, num_workers=2) as dispatcher:
            for i in range(4):
                dispatcher.submit(batch(f"b{i}", count=8)).result(timeout=10.0)
                assert stage_images(events, "inference") == 8 * (i + 1)
            assert {event.source for event in events} == {"cluster"}
            assert {(e.stage, e.subject) for e in events} == SUBJECTS

    def test_a_retired_replicas_costs_stay_on_the_bus(self):
        obs, events = bus()
        dispatcher = bus_dispatcher(obs, num_workers=2)
        run_eight_batches(dispatcher)
        assert dispatcher.retire_worker() == "worker-1"
        dispatcher.check_workers()
        assert dispatcher.live_workers() == ["worker-0"]
        dispatcher.close()
        assert stage_images(events, "decode") == 32

    def test_a_dead_replicas_costs_stay_on_the_bus(self):
        obs, events = bus()
        with bus_dispatcher(obs, num_workers=2) as dispatcher:
            run_eight_batches(dispatcher)
            dispatcher.worker("worker-1").kill()
            assert dispatcher.check_workers() == ["worker-1"]
            assert stage_images(events, "decode") == 32

    def test_a_batch_run_twice_publishes_once(self):
        """A heartbeat pass lands in the ``worker.ack`` window, then the
        replica dies there with its outcome already posted: failover runs
        the batch again, and only the winning resolution publishes."""
        gate = CollectorGate()
        crash = AckWindowCrash()
        obs, events = bus()
        dispatcher = bus_dispatcher(obs, num_workers=2, faults=gate,
                                    worker_faults=crash)
        crash.dispatcher = dispatcher
        future = dispatcher.submit(batch("twice"))
        assert gate.holding.wait(timeout=10.0)
        wait_until(lambda: crash.victim is not None
                   and not crash.victim.alive, message="the ack-window crash")
        survivor = next(wid for wid in ("worker-0", "worker-1")
                        if wid != crash.victim.worker_id)
        assert dispatcher.check_workers() == [crash.victim.worker_id]
        wait_until(lambda: dispatcher.worker(survivor).stats()
                   .executed_items == 1, message="the failover re-execution")
        gate.release.set()
        future.result(timeout=10.0)
        dispatcher.close()
        assert stage_images(events, "decode") == 4
        assert dispatcher.stats().completed == 1

    def test_items_that_fail_every_attempt_publish_nothing(self):
        obs, events = bus()
        with Dispatcher(
            lambda wid, results: ThreadWorker(
                wid, ScriptedSession(fail_times=10), results),
            num_workers=2, max_attempts=2, monitor_interval_s=0, obs=obs,
        ) as dispatcher:
            with pytest.raises(ClusterError):
                dispatcher.submit(batch("f")).result(timeout=10.0)
        assert events == []

    def test_a_raising_listener_never_stalls_the_collector(self):
        def explode(event):
            raise RuntimeError("listener bug")

        obs = Observability(recorder=FlightRecorder())
        seen = []
        obs.add_stage_listener(explode)
        obs.add_stage_listener(seen.append)
        with bus_dispatcher(obs, num_workers=2) as dispatcher:
            futures = [dispatcher.submit(batch(f"z{i}", count=3))
                       for i in range(4)]
            for future in futures:
                assert future.result(timeout=10.0).predictions.shape == (3,)
            assert dispatcher.check_workers() == []  # no deaths, no raise
        # Contained in emit_stage: noted, and the next listener still ran.
        assert stage_images(seen, "inference") == 12
        failures = [event for _, event in obs.recorder.ring_events()
                    if isinstance(event, dict)
                    and event["kind"] == "obs.listener_failed"]
        assert len(failures) == len(seen)

    def test_outcomes_resolve_without_a_bus(self):
        with Dispatcher(
            lambda wid, results: ThreadWorker(wid, simulated_session(), results),
            num_workers=1, monitor_interval_s=0,
        ) as dispatcher:
            result = dispatcher.submit(batch("y", count=3)).result(timeout=10.0)
            assert result.predictions.shape == (3,)


class CollectorGate:
    """Dispatcher fault hook: the collector holds the first outcome it
    fetches until the test releases it."""

    def __init__(self) -> None:
        self.holding = threading.Event()
        self.release = threading.Event()

    def hit(self, site: str, **ctx) -> None:
        if site == "dispatcher.outcome" and not self.holding.is_set():
            self.holding.set()
            assert self.release.wait(timeout=10.0)


class AckWindowCrash:
    """Replica fault hook: at the first ``worker.ack``, a heartbeat pass
    runs (the replica is still alive), then the replica crashes."""

    def __init__(self) -> None:
        self.dispatcher = None
        self.victim = None
        self._lock = threading.Lock()

    def hit(self, site: str, **ctx) -> None:
        if site != "worker.ack":
            return
        with self._lock:
            if self.victim is not None:
                return
            self.victim = ctx["worker"]
        self.dispatcher.check_workers()
        self.victim.kill()
