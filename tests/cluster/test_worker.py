"""Tests for thread- and process-backed workers."""

import multiprocessing
import os
import threading
import time

import numpy as np
import pytest

from repro.cluster import (
    ProcessWorker,
    ThreadWorker,
    WorkItem,
    WorkOutcome,
)
from repro.errors import ClusterError
from repro.inference.mpmc import MpmcQueue
from repro.serving.request import InferenceRequest

from cluster_testlib import (
    FullResultsQueue,
    GatedSession,
    ScriptedSession,
    expected_prediction,
    replica_threads,
    wait_until,
)


def _item(item_id: int, *image_ids: str) -> WorkItem:
    return WorkItem(
        item_id=item_id,
        requests=tuple(InferenceRequest(image_id=i) for i in image_ids),
    )


@pytest.fixture()
def results():
    return MpmcQueue(256)


class TestThreadWorker:
    def test_executes_and_reports_outcomes(self, results):
        worker = ThreadWorker("w0", ScriptedSession(), results)
        worker.submit(_item(0, "img-0", "img-1"))
        outcome = results.get(timeout=5.0)
        assert outcome.ok
        assert outcome.worker_id == "w0"
        assert isinstance(outcome.predictions, np.ndarray)
        assert np.array_equal(outcome.predictions, [
            expected_prediction("img-0"), expected_prediction("img-1"),
        ])
        assert outcome.modelled_seconds == pytest.approx(2e-3)
        assert worker.pending_items() == []
        worker.close()

    def test_session_errors_become_failed_outcomes(self, results):
        worker = ThreadWorker("w0", ScriptedSession(fail_times=1), results)
        worker.submit(_item(0, "img-0"))
        first = results.get(timeout=5.0)
        assert not first.ok
        assert "injected" in first.error
        worker.submit(_item(1, "img-0"))
        second = results.get(timeout=5.0)
        assert second.ok
        assert worker.stats().failed_items == 1
        worker.close()

    def test_kill_abandons_pending_work(self, results):
        worker = ThreadWorker("w0", ScriptedSession(), results)
        worker.kill()
        assert not worker.alive
        with pytest.raises(ClusterError):
            worker.submit(_item(0, "img-0"))

    def test_pending_items_survive_a_kill(self, results):
        # An event-gated session: the worker is provably mid-execution of
        # item 0 when killed, with item 1 still queued behind it.
        session = GatedSession()
        worker = ThreadWorker("w0", session, results)
        worker.submit(_item(0, "img-0"))
        worker.submit(_item(1, "img-1"))
        assert session.started.wait(timeout=5.0)  # item 0 is executing
        worker.kill()
        pending_ids = {item.item_id for item in worker.pending_items()}
        assert pending_ids == {0, 1}
        session.release.set()  # unblock the abandoned execution thread

    def test_heartbeat_stays_fresh_while_idle(self, results):
        worker = ThreadWorker("w0", ScriptedSession(), results)
        # The polling loop must keep publishing heartbeats while idle.
        # Against a *fixed* reference instant the reported age shrinks every
        # time the heartbeat advances, so waiting for it to drop below the
        # first observation proves liveness without sleep-tuned thresholds.
        reference = time.monotonic() + 60.0
        first = worker.heartbeat_age(now=reference)
        wait_until(lambda: worker.heartbeat_age(now=reference) < first,
                   message="an idle heartbeat refresh")
        assert worker.alive
        worker.close()

    def test_stats_count_requests(self, results):
        worker = ThreadWorker("w0", ScriptedSession(), results)
        worker.submit(_item(0, "a", "b", "c"))
        results.get(timeout=5.0)
        stats = worker.stats()
        assert stats.executed_items == 1
        assert stats.executed_requests == 3
        worker.close()

    def test_close_drains_queued_items(self, results):
        worker = ThreadWorker("w0", ScriptedSession(), results)
        for i in range(10):
            worker.submit(_item(i, f"img-{i}"))
        worker.close()
        got = {results.get(timeout=1.0).item_id for _ in range(10)}
        assert got == set(range(10))

    def test_invalid_parameters_rejected(self, results):
        with pytest.raises(ClusterError):
            ThreadWorker("", ScriptedSession(), results)
        with pytest.raises(ClusterError):
            ThreadWorker("w0", ScriptedSession(), results,
                         service_time_scale=-1.0)

    def test_plan_key_exposed(self, results):
        worker = ThreadWorker("w0", ScriptedSession(plan_key="p1"), results)
        assert worker.plan_key == "p1"
        worker.close()


class TestReplicaContract:
    """The worker contract, stated once and held by both replica kinds."""

    def test_executes_and_reports_outcomes(self, replica_factory, results,
                                           simulated_spec):
        worker = replica_factory("w0", results)
        item = _item(0, "img-0", "img-1")
        worker.submit(item)
        outcome = results.get(timeout=20.0)
        assert outcome.ok
        assert (outcome.item_id, outcome.worker_id) == (0, "w0")
        assert outcome.shm is None
        reference = simulated_spec.build().execute(list(item.requests))
        assert outcome.predictions.dtype == np.int64
        assert np.array_equal(outcome.predictions, reference.predictions)
        assert outcome.modelled_seconds == reference.modelled_seconds
        wait_until(lambda: worker.pending_items() == [],
                   message="the acknowledgement")
        worker.close()
        assert not worker.alive

    def test_session_errors_become_failed_outcomes(self, replica_factory,
                                                   results):
        worker = replica_factory("w0", results)
        worker.submit(_item(0))  # an empty batch: the session refuses it
        first = results.get(timeout=20.0)
        assert not first.ok
        assert "empty batch" in first.error
        worker.submit(_item(1, "img-0"))
        assert results.get(timeout=20.0).ok
        wait_until(lambda: worker.stats().executed_items == 1,
                   message="the second acknowledgement")
        assert worker.stats().failed_items == 1
        assert worker.take_cost_report().images == 1  # failures cost nothing

    def test_stats_count_requests(self, replica_factory, results):
        worker = replica_factory("w0", results)
        worker.submit(_item(0, "a", "b", "c"))
        outcome = results.get(timeout=20.0)
        wait_until(lambda: worker.stats().executed_items == 1,
                   message="the acknowledgement")
        stats = worker.stats()
        assert stats.executed_requests == 3
        assert stats.modelled_seconds == outcome.modelled_seconds

    def test_close_drains_queued_items(self, replica_factory, results):
        worker = replica_factory("w0", results)
        for i in range(10):
            worker.submit(_item(i, f"img-{i}"))
        worker.close()
        got = {results.get(timeout=1.0).item_id for _ in range(10)}
        assert got == set(range(10))
        assert worker.queue_depth() == 0

    def test_pending_items_survive_a_kill(self, replica_factory):
        # Item 0's outcome cannot post (the results queue is full), so
        # the replica is provably mid-delivery with item 1 queued behind.
        results = FullResultsQueue()
        worker = replica_factory("w0", results)
        worker.submit(_item(0, "img-0"))
        worker.submit(_item(1, "img-1"))
        assert results.attempted.wait(timeout=20.0)
        worker.kill()
        assert not worker.alive
        assert [item.item_id for item in worker.pending_items()] == [0, 1]
        with pytest.raises(ClusterError):
            worker.submit(_item(2, "img-2"))

    def test_cost_report_is_a_delta(self, replica_factory, results,
                                    simulated_spec):
        worker = replica_factory("w0", results)
        worker.submit(_item(0, "a", "b", "c", "d"))
        wait_until(lambda: worker.stats().executed_items == 1,
                   timeout=20.0, message="the acknowledgement")
        report = worker.take_cost_report()
        assert report.worker_id == "w0"
        assert report.plan_key == worker.plan_key
        assert report.plan_key == simulated_spec.build().plan_key
        assert (report.format_name, report.model_name) == (
            simulated_spec.format_name, simulated_spec.model_name)
        assert report.images == 4
        assert set(report.stage_seconds) == {"decode", "preprocess",
                                             "inference"}
        assert all(seconds > 0 for seconds in report.stage_seconds.values())
        # Taking resets the accumulation: nothing new means no report.
        assert worker.take_cost_report() is None

    def test_heartbeat_stays_fresh_while_idle(self, replica_factory,
                                              results):
        worker = replica_factory("w0", results)
        reference = time.monotonic() + 60.0
        first = worker.heartbeat_age(now=reference)
        wait_until(lambda: worker.heartbeat_age(now=reference) < first,
                   message="an idle heartbeat refresh")
        assert worker.alive


class TestLostItem:
    """A kill between computing an outcome and posting it loses nothing.

    Regression: the process replica used to acknowledge (pop the pending
    table) *before* posting, so a kill while the results queue was full
    left the item neither pending nor delivered -- unrecoverable.
    """

    def test_item_is_pending_or_delivered_after_the_kill(self,
                                                         replica_factory):
        results = FullResultsQueue()
        worker = replica_factory("lost", results)
        worker.submit(_item(0, "img-0"))
        assert results.attempted.wait(timeout=20.0)  # outcome in hand
        worker.kill()
        # The blocked post gives up within its 1 s timeout and the
        # serving thread ends: nothing can change after that.
        wait_until(lambda: not replica_threads("lost"), timeout=10.0,
                   message="the replica's threads to end")
        delivered = {outcome.item_id for outcome in results.drain()
                     if isinstance(outcome, WorkOutcome)}
        pending = {item.item_id for item in worker.pending_items()}
        assert 0 in pending | delivered


def _census(worker, foreign=()) -> dict:
    """Everything a replica may leave behind in this process."""
    prefix = getattr(worker, "transport", None)
    prefix = prefix.prefix if prefix is not None else None
    fd_dir = "/proc/self/fd"
    return {
        "threads": replica_threads(worker.worker_id) + [
            thread.name for thread in threading.enumerate()
            if thread.name == "QueueFeederThread" and thread not in foreign],
        "children": [child.name for child in multiprocessing.active_children()
                     if child.name == f"cluster-{worker.worker_id}"],
        "fds": len(os.listdir(fd_dir)) if os.path.isdir(fd_dir) else 0,
        "segments": [name for name in os.listdir("/dev/shm")
                     if prefix and name.startswith(prefix)]
                    if os.path.isdir("/dev/shm") else [],
    }


class TestShutdownCensus:
    """A stopped replica leaves no thread, child, descriptor or segment."""

    @pytest.mark.parametrize("crash", [False, True],
                             ids=["close", "kill+close"])
    def test_nothing_outlives_the_replica(self, replica_factory, results,
                                          crash):
        foreign = set(threading.enumerate())  # other tests' leftovers

        def cycle(worker_id):
            worker = replica_factory(worker_id, results)
            for i in range(3):
                worker.submit(_item(i, f"img-{i}"))
            for _ in range(3):
                assert results.get(timeout=20.0).ok
            if crash:
                worker.kill()
            worker.close()
            worker.close()  # idempotent
            worker.kill()   # a no-op after close, not an error
            assert not worker.alive
            return worker

        def clean(worker, max_fds):
            census = _census(worker, foreign)
            return (not census["threads"] and not census["children"]
                    and not census["segments"] and census["fds"] <= max_fds)

        # One-time costs first (the shm resource tracker keeps a pipe).
        # A crashed child's queue feeder is told to stop, not joined (it
        # may be writing to a pipe nobody reads), hence the brief polls.
        warm = cycle("warm")
        wait_until(lambda: clean(warm, 1 << 20), message="the warm-up")
        baseline = _census(warm, foreign)["fds"]
        for worker_id in ("census-a", "census-b"):
            worker = cycle(worker_id)
            wait_until(lambda: clean(worker, baseline),
                       message=f"a clean census with <= {baseline} fds")


class TestWorkItem:
    def test_retried_bumps_attempts(self):
        item = _item(3, "img-0")
        assert item.attempts == 1
        assert item.retried().attempts == 2
        assert item.retried().item_id == item.item_id


@pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="process workers need the fork start method",
)
class TestProcessWorker:
    def test_process_worker_matches_thread_worker(self, results,
                                                  simulated_spec):
        process_worker = ProcessWorker("pw", simulated_spec, results)
        try:
            process_worker.submit(_item(0, "img-0", "img-1"))
            outcome = results.get(timeout=20.0)
            assert outcome.ok
            assert outcome.worker_id == "pw"
            thread_results = MpmcQueue(16)
            thread_worker = ThreadWorker("tw", simulated_spec.build(),
                                         thread_results)
            thread_worker.submit(_item(0, "img-0", "img-1"))
            reference = thread_results.get(timeout=5.0)
            assert np.array_equal(outcome.predictions, reference.predictions)
            thread_worker.close()
        finally:
            process_worker.close()
        assert not process_worker.alive

    def test_kill_terminates_the_process(self, results, simulated_spec):
        worker = ProcessWorker("pw", simulated_spec, results)
        worker.kill()
        # join() blocks on the OS-level process exit -- an event, not a poll.
        worker._thread.join(timeout=10.0)
        assert not worker.alive
        with pytest.raises(ClusterError):
            worker.submit(_item(0, "img-0"))
        worker.close()
