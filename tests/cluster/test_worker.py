"""Tests for thread- and process-backed workers."""

import multiprocessing
import os
import threading
import time
from multiprocessing import resource_tracker

import numpy as np
import pytest

from repro.chaos.runner import _fuse_serving_stack
from repro.cluster import (
    ProcessWorker,
    ThreadWorker,
    WorkItem,
    WorkOutcome,
)
from repro.errors import ClusterError
from repro.fuse import FUSE_STATS
from repro.inference.mpmc import MpmcQueue
from repro.nn import PLAN_STATS, build_mini_resnet
from repro.preprocessing import PreprocessingDAG
from repro.serving import serving_pipeline_ops
from repro.serving.request import InferenceRequest
from repro.serving.session import BatchResult, EngineSession, FunctionalSession

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


def _payloads(*shapes: tuple[int, ...], count: int = 8) -> list[np.ndarray]:
    """``count`` seeded uint8 images cycling through ``shapes``."""
    rng = np.random.default_rng(31)
    return [rng.integers(0, 256, size=shapes[i % len(shapes)], dtype=np.uint8)
            for i in range(count)]


def _pixel_item(item_id: int, payloads: list[np.ndarray]) -> WorkItem:
    return WorkItem(item_id=item_id, requests=tuple(
        InferenceRequest(image_id=f"px-{item_id}-{i}", payload=payload)
        for i, payload in enumerate(payloads)))


#: Bit patterns that break any repr/float round-trip: NaN with payload
#: bits, infinities, subnormals, signed zero.
SPECIAL_FLOATS = np.array(
    [np.nan, -np.nan, np.inf, -np.inf, 5e-324, -5e-324, 0.0, -0.0,
     np.finfo(np.float64).max],
    dtype=np.float64,
)


class FixedSession(EngineSession):
    """Answers every batch with one fixed prediction array, whatever its
    shape, memory layout or bit patterns."""

    def __init__(self, plan_key: str, predictions: np.ndarray) -> None:
        super().__init__(plan_key)
        self._predictions = predictions

    def execute(self, requests):
        return BatchResult(predictions=self._predictions,
                           modelled_seconds=0.0)


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

    def test_plan_key_exposed(self, results):
        worker = ThreadWorker("w0", ScriptedSession(plan_key="p1"), results)
        assert worker.plan_key == "p1"
        worker.close()


class TestReplicaContract:
    """The worker contract, stated once and held by both replica kinds."""

    def test_executes_and_reports_outcomes(self, replica_factory, results,
                                           simulated):
        worker = replica_factory("w0", results)
        item = _item(0, "img-0", "img-1")
        worker.submit(item)
        outcome = results.get(timeout=20.0)
        assert outcome.ok
        assert (outcome.item_id, outcome.worker_id) == (0, "w0")
        reference = simulated.execute(list(item.requests))
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
        assert first.stages == ()  # failures cost nothing
        worker.submit(_item(1, "img-0"))
        second = results.get(timeout=20.0)
        assert second.ok
        assert {event.images for event in second.stages} == {1}
        wait_until(lambda: worker.stats().executed_items == 1,
                   message="the second acknowledgement")
        assert worker.stats().failed_items == 1

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

    def test_outcomes_carry_the_batch_stage_events(
            self, replica_factory, results, simulated):
        worker = replica_factory("w0", results)
        item = _item(0, "a", "b", "c", "d")
        worker.submit(item)
        outcome = results.get(timeout=20.0)
        assert outcome.worker_id == "w0"
        assert worker.plan_key == simulated.plan_key
        # Built where the session ran, by the session's own subject rule.
        assert outcome.stages == simulated.stage_events(
            simulated.execute(list(item.requests)), 4, "cluster")
        assert {(event.stage, event.subject) for event in outcome.stages} == {
            ("decode", simulated.format_name),
            ("preprocess", simulated.format_name),
            ("inference", simulated.model_name)}
        assert all(event.seconds > 0 for event in outcome.stages)

    def test_a_functional_session_matches_the_serial_oracle(
            self, replica_factory, results):
        # Real pixels on a warmed FunctionalSession: a process replica runs
        # its forked copy, bit-identical to per-image interpretation.
        dag, model = _fuse_serving_stack()
        session = FunctionalSession("fuse-plan", dag, model)
        session.warmup()
        payloads = _payloads((28, 28, 3), (26, 30, 3))
        worker = replica_factory("w0", results, session)
        worker.submit(_pixel_item(0, payloads))
        outcome = results.get(timeout=20.0)
        assert outcome.ok, outcome.error
        oracle = model.predict(np.stack([dag.execute(p) for p in payloads]))
        assert outcome.predictions.tobytes() == np.asarray(
            oracle, dtype=np.int64).tobytes()

    def test_special_float_bits_survive_exactly(self, replica_factory,
                                                results):
        # Scan scores ride predictions as float64 bit patterns: whatever
        # lane carries them may not canonicalize a NaN or flush a subnormal.
        worker = replica_factory("w0", results, FixedSession(
            "floats-plan", SPECIAL_FLOATS.view(np.int64)))
        worker.submit(_item(0, "img-0"))
        outcome = results.get(timeout=20.0)
        assert outcome.ok, outcome.error
        assert outcome.predictions.dtype == np.int64
        assert (outcome.predictions.tobytes()
                == SPECIAL_FLOATS.view(np.int64).tobytes())

    def test_multidimensional_and_noncontiguous_predictions_survive(
            self, replica_factory, results):
        rng = np.random.default_rng(5)
        batch = rng.integers(-(2 ** 62), 2 ** 62, size=(6, 8),
                             dtype=np.int64)[::2]  # a non-contiguous view
        worker = replica_factory("w0", results,
                                 FixedSession("rows-plan", batch))
        worker.submit(_item(0, "img-0"))
        outcome = results.get(timeout=20.0)
        assert outcome.ok, outcome.error
        assert outcome.predictions.shape == (3, 8)
        assert (outcome.predictions.tobytes()
                == np.ascontiguousarray(batch).tobytes())

    def test_empty_predictions_survive(self, replica_factory, results):
        worker = replica_factory("w0", results, FixedSession(
            "empty-plan", np.empty(0, dtype=np.int64)))
        worker.submit(_item(0, "img-0"))
        outcome = results.get(timeout=20.0)
        assert outcome.ok, outcome.error
        assert outcome.predictions.dtype == np.int64
        assert outcome.predictions.shape == (0,)

    def test_a_scan_sized_batch_survives_exactly(self, replica_factory,
                                                 results):
        # 256 frames of full-range int64 scores: the largest batch a scan
        # hands a replica, bit for bit.
        scores = np.random.default_rng(7).integers(
            np.iinfo(np.int64).min, np.iinfo(np.int64).max, size=256,
            dtype=np.int64)
        worker = replica_factory("w0", results,
                                 FixedSession("scan-plan", scores))
        worker.submit(_item(0, *(f"frame-{i}" for i in range(256))))
        outcome = results.get(timeout=20.0)
        assert outcome.ok, outcome.error
        assert outcome.predictions.tobytes() == scores.tobytes()

    def test_each_outcome_carries_its_own_predictions(
            self, replica_factory, results, simulated):
        # Many batches queued back to back: every outcome arrives with
        # the predictions of its own item, never a neighbour's.
        worker = replica_factory("w0", results)
        items = [_item(i, f"img-{i}-a", f"img-{i}-b", f"img-{i}-c")
                 for i in range(16)]
        for item in items:
            worker.submit(item)
        outcomes = {}
        for _ in items:
            outcome = results.get(timeout=20.0)
            outcomes[outcome.item_id] = outcome
        assert sorted(outcomes) == list(range(16))
        for item in items:
            reference = simulated.execute(list(item.requests))
            assert np.array_equal(outcomes[item.item_id].predictions,
                                  reference.predictions), item.item_id

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


def _fds() -> int:
    fd_dir = "/proc/self/fd"
    return len(os.listdir(fd_dir)) if os.path.isdir(fd_dir) else 0


def _census(worker, foreign=()) -> dict:
    """Everything a replica may leave behind in this process."""
    return {
        "threads": replica_threads(worker.worker_id) + [
            thread.name for thread in threading.enumerate()
            if thread.name == "QueueFeederThread" and thread not in foreign],
        "children": [child.name for child in multiprocessing.active_children()
                     if child.name == f"cluster-{worker.worker_id}"],
        "fds": _fds(),
    }


class TestShutdownCensus:
    """A stopped replica leaves no thread, child or descriptor."""

    @pytest.mark.parametrize("crash", [False, True],
                             ids=["close", "kill+close"])
    def test_nothing_outlives_the_replica(self, replica_factory, results,
                                          crash):
        foreign = set(threading.enumerate())  # other tests' leftovers
        # Neither replica kind has a one-time cost (nothing starts a
        # resource tracker), so the first cycle is held to the count taken
        # before it.
        baseline = _fds()

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
                    and census["fds"] <= max_fds)

        # A crashed child's queue feeder is told to stop, not joined (it
        # may be writing to a pipe nobody reads), hence the brief polls.
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
                                                  simulated):
        process_worker = ProcessWorker("pw", simulated, results)
        try:
            process_worker.submit(_item(0, "img-0", "img-1"))
            outcome = results.get(timeout=20.0)
            assert outcome.ok
            assert outcome.worker_id == "pw"
            thread_results = MpmcQueue(16)
            thread_worker = ThreadWorker("tw", simulated, thread_results)
            thread_worker.submit(_item(0, "img-0", "img-1"))
            reference = thread_results.get(timeout=5.0)
            assert np.array_equal(outcome.predictions, reference.predictions)
            thread_worker.close()
        finally:
            process_worker.close()
        assert not process_worker.alive

    def test_kill_terminates_the_process(self, results, simulated):
        worker = ProcessWorker("pw", simulated, results)
        worker.kill()
        # join() blocks on the OS-level process exit -- an event, not a poll.
        worker._thread.join(timeout=10.0)
        assert not worker.alive
        with pytest.raises(ClusterError):
            worker.submit(_item(0, "img-0"))
        worker.close()

    def _serve_and_close(self, results, session, worker_id):
        worker = ProcessWorker(worker_id, session, results)
        try:
            for item_id in range(4):
                worker.submit(_item(item_id, f"img-{item_id}"))
            got = {results.get(timeout=20.0).item_id for _ in range(4)}
            assert got == set(range(4))
        finally:
            worker.close()

    @pytest.mark.skipif(not os.path.isdir("/dev/shm"),
                        reason="no /dev/shm to take a census of")
    def test_answered_batches_hold_no_shared_memory_segment(self,
                                                            simulated):
        # The serving thread is stuck posting item 0 into a full results
        # queue, so items 1-3 wait answered in the outbox, unread: any
        # out-of-band copy of their predictions would still exist now.
        results = FullResultsQueue()
        before = set(os.listdir("/dev/shm"))
        worker = ProcessWorker("no-shm", simulated, results)
        try:
            for item_id in range(4):
                worker.submit(_item(item_id, f"img-{item_id}"))
            assert results.attempted.wait(timeout=20.0)
            wait_until(lambda: worker._lane._outbox.qsize() == 3,
                       timeout=20.0, message="three answered batches")
            assert set(os.listdir("/dev/shm")) - before == set()
        finally:
            worker.kill()
            worker.close()

    def test_serving_starts_no_resource_tracker(self, results, simulated):
        # Only named shared resources need the tracker; predictions that
        # ride their pickled outcome give it nothing to track.
        tracker = resource_tracker._resource_tracker
        before = tracker._pid
        self._serve_and_close(results, simulated, "no-tracker")
        assert tracker._pid == before


@pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="process workers need the fork start method",
)
class TestForkSafety:
    """A lock another parent thread holds at the fork is free in the child.

    Each test holds one lock the child's batch must take while the
    replica forks, and releases it only afterwards.  The child's copy of a
    held lock would stay held for good -- nothing in the child releases
    it -- so without the fork hooks the child hangs on its first batch.
    """

    @pytest.mark.parametrize("lock", ["fuse_stats", "plan_stats", "kernel"])
    def test_the_child_answers_a_batch(self, lock, results):
        # A fresh model and an input shape no other test compiles: the
        # child's batch must compile a kernel program (FUSE_STATS, the
        # kernel's lock) and grow the model's arena (PLAN_STATS).
        dag = PreprocessingDAG.from_ops(serving_pipeline_ops(24, 16))
        model = build_mini_resnet(18, num_classes=5, input_size=16, seed=3)
        session = FunctionalSession("fork-plan", dag, model)
        session.warmup()
        held = {"fuse_stats": FUSE_STATS._lock,
                "plan_stats": PLAN_STATS._lock,
                "kernel": session.kernel._lock}[lock]
        taken, done = threading.Event(), threading.Event()

        def hold():
            with held:
                taken.set()
                done.wait(timeout=30.0)

        holder = threading.Thread(target=hold, name="lock-holder")
        holder.start()
        assert taken.wait(timeout=5.0)
        try:
            worker = ProcessWorker("fork", session, results)
        finally:
            done.set()
            holder.join()
        try:
            payloads = _payloads((37, 41, 3))
            worker.submit(_pixel_item(0, payloads))
            outcome = results.get(timeout=10.0)
            assert outcome.ok, outcome.error
            oracle = model.predict(
                np.stack([dag.execute(p) for p in payloads]))
            assert np.array_equal(outcome.predictions, oracle)
        finally:
            worker.kill()
            worker.close()
