"""Tests for the deficit-round-robin scheduler: the server's only
admission queue + micro-batcher, with one class or several."""

import threading
from dataclasses import dataclass

import pytest

from repro.errors import AdmissionError, ServingError, TenantError
from repro.inference.mpmc import QueueClosed
from repro.serving.scheduler import (
    BatchPolicy,
    ClassBatch,
    ClassPolicy,
    DrrScheduler,
)

THREE_CLASSES = (
    ClassPolicy("interactive", weight=8.0, rank=0),
    ClassPolicy("standard", weight=4.0, rank=1),
    ClassPolicy("batch", weight=1.0, rank=2),
)
#: What a server without tenants runs: the FIFO micro-batcher.
ONE_CLASS = (ClassPolicy("standard", weight=1.0, rank=0),)

#: The queue/batcher surface must hold for both shapes.
both_shapes = pytest.mark.parametrize(
    "classes", [THREE_CLASSES, ONE_CLASS], ids=["three-class", "one-class"])


@dataclass
class Item:
    class_name: str
    index: int


def make_scheduler(max_batch=8, max_wait_ms=0.0, capacity=256,
                   classes=THREE_CLASSES):
    policy = BatchPolicy(name="drr-test", max_batch_size=max_batch,
                        max_wait_ms=max_wait_ms)
    return DrrScheduler(classes, policy, capacity=capacity)


def preload(scheduler, counts):
    for name, count in counts.items():
        for index in range(count):
            scheduler.admit(Item(name, index))


def drain(scheduler, limit=10_000):
    batches = []
    for _ in range(limit):
        if len(scheduler) == 0:
            break
        batch = scheduler.next_batch(poll_timeout=0.0)
        if batch:
            batches.append(batch)
    return batches


class TestBatchPolicy:
    def test_presets(self):
        latency = BatchPolicy.latency()
        throughput = BatchPolicy.throughput()
        assert latency.max_batch_size < throughput.max_batch_size
        assert latency.max_wait_ms < throughput.max_wait_ms

    def test_invalid_sizes_rejected(self):
        with pytest.raises(ServingError):
            BatchPolicy(name="bad", max_batch_size=0, max_wait_ms=1.0)
        with pytest.raises(ServingError):
            BatchPolicy(name="bad", max_batch_size=4, max_wait_ms=-1.0)


class TestShape:
    def test_needs_at_least_one_class(self):
        with pytest.raises(TenantError):
            make_scheduler(classes=())

    def test_rejects_zero_capacity(self):
        with pytest.raises(TenantError):
            make_scheduler(capacity=0)

    def test_unknown_class_rejected_at_admit(self):
        scheduler = make_scheduler()
        with pytest.raises(TenantError):
            scheduler.admit(Item("vip", 0))

    @both_shapes
    def test_batches_are_class_tagged_lists(self, classes):
        scheduler = make_scheduler(classes=classes)
        preload(scheduler, {"standard": 3})
        batch = scheduler.next_batch(poll_timeout=0.0)
        assert isinstance(batch, ClassBatch)
        assert batch.class_name == "standard"
        assert [item.index for item in batch] == [0, 1, 2]  # FIFO in class


class TestDrrArithmetic:
    def test_quanta_normalize_to_the_heaviest_class(self):
        scheduler = make_scheduler(max_batch=8)
        classes = scheduler.stats()["classes"]
        assert classes["interactive"]["quantum"] == pytest.approx(8.0)
        assert classes["standard"]["quantum"] == pytest.approx(4.0)
        assert classes["batch"]["quantum"] == pytest.approx(1.0)

    def test_every_quantum_is_at_least_one(self):
        scheduler = make_scheduler(
            max_batch=4,
            classes=(ClassPolicy("heavy", weight=1000.0, rank=0),
                     ClassPolicy("light", weight=1.0, rank=1)))
        classes = scheduler.stats()["classes"]
        assert classes["light"]["quantum"] == 1.0

    def test_saturated_service_follows_weights(self):
        # With every class saturated, one full round serves one quantum
        # per class: 8 interactive, 4 standard, 1 batch.
        scheduler = make_scheduler(max_batch=8)
        preload(scheduler, {"interactive": 64, "standard": 64, "batch": 64})
        sizes = {}
        for _ in range(3):
            batch = scheduler.next_batch(poll_timeout=0.0)
            sizes[batch.class_name] = len(batch)
        assert sizes == {"interactive": 8, "standard": 4, "batch": 1}

    def test_emptied_class_banks_no_deficit(self):
        scheduler = make_scheduler(max_batch=8)
        preload(scheduler, {"batch": 1})
        scheduler.next_batch(poll_timeout=0.0)
        assert scheduler.stats()["classes"]["batch"]["deficit"] == 0.0

    def test_lone_class_gets_full_batches(self):
        # No contention: a lone backlogged class is not starved down to
        # its quantum; the wait-fill tops its batches up to full size.
        scheduler = make_scheduler(max_batch=8, max_wait_ms=5.0)
        preload(scheduler, {"batch": 24})
        sizes = [len(scheduler.next_batch(poll_timeout=0.0))
                 for _ in range(4)]
        assert sum(sizes) == 24
        assert max(sizes) == 8

    @pytest.mark.parametrize("max_wait_ms", [0.0, 50.0])
    def test_one_class_backlog_drains_in_full_arrival_order_batches(
            self, max_wait_ms):
        # The sole class's quantum is one full batch, so a deep queue
        # ships full batches at once whatever the wait bound.
        scheduler = make_scheduler(max_batch=4, max_wait_ms=max_wait_ms,
                                   classes=ONE_CLASS)
        preload(scheduler, {"standard": 10})
        batches = [[item.index for item in scheduler.next_batch()]
                   for _ in range(2)]
        assert batches == [[0, 1, 2, 3], [4, 5, 6, 7]]

    @both_shapes
    @pytest.mark.parametrize("busy", [True, False], ids=["busy", "idle"])
    def test_wait_bound_closes_partial_batch(self, classes, busy):
        # A partial batch is held to the bound only for a busy executor;
        # an idle one gets it at once, and that is not a timeout.
        scheduler = make_scheduler(max_batch=64, max_wait_ms=5.0,
                                   classes=classes)
        preload(scheduler, {"standard": 1})
        assert len(scheduler.next_batch(busy=lambda: busy)) == 1
        stats = scheduler.batch_stats()
        assert stats.timeout_batches == busy and stats.full_batches == 0
        assert (stats.hold_s >= 0.004) if busy else (stats.hold_s == 0.0)

    def test_a_batch_topped_up_to_full_is_not_held(self):
        # The 1x class's quantum takes one request and the top-up the other
        # seven, emptying the queue exactly: full, so there is nothing to
        # wait for even though the executor is busy (it used to sleep out
        # the bound here -- 2 s would fail the hold_s check).
        scheduler = make_scheduler(max_batch=8, max_wait_ms=2000.0)
        preload(scheduler, {"batch": 8})
        assert len(scheduler.next_batch(busy=lambda: True)) == 8
        stats = scheduler.batch_stats()
        assert (stats.full_batches, stats.timeout_batches) == (1, 0)
        assert stats.hold_s == 0.0

    def test_held_batch_takes_stragglers_and_ships_when_executor_frees(self):
        # The bound (30 s) would fail the test: only the executor freeing,
        # announced by wake(), can ship the held batch.
        scheduler = make_scheduler(max_batch=64, max_wait_ms=30_000.0,
                                   classes=ONE_CLASS)
        preload(scheduler, {"standard": 1})
        busy = threading.Event()
        busy.set()
        holding = threading.Event()

        def executor_busy():
            holding.set()
            return busy.is_set()

        got = []
        consumer = threading.Thread(
            target=lambda: got.append(
                scheduler.next_batch(busy=executor_busy)), daemon=True)
        consumer.start()
        assert holding.wait(5.0)
        scheduler.admit(Item("standard", 1))  # a straggler joins the hold
        busy.clear()
        scheduler.wake()
        consumer.join(5.0)
        assert not consumer.is_alive()
        assert [item.index for item in got[0]] == [0, 1]
        stats = scheduler.batch_stats()
        assert stats.timeout_batches == 0 and stats.full_batches == 0
        assert 0.0 < stats.hold_s < 5.0

    def test_work_conserving_while_backlogged(self):
        scheduler = make_scheduler(max_batch=8)
        preload(scheduler, {"interactive": 10, "standard": 10, "batch": 10})
        served = 0
        while len(scheduler) > 0:
            batch = scheduler.next_batch(poll_timeout=0.0)
            assert batch, "next_batch returned empty despite backlog"
            served += len(batch)
        assert served == 30


class TestQueueSurface:
    @both_shapes
    def test_full_class_rejects_without_block(self, classes):
        scheduler = make_scheduler(capacity=2, classes=classes)
        preload(scheduler, {"standard": 2})
        with pytest.raises(AdmissionError):
            scheduler.admit(Item("standard", 99), block=False)
        stats = scheduler.stats()
        assert stats["rejected"] == 1 and stats["admitted"] == 2
        assert stats["classes"]["standard"]["depth"] == 2

    def test_backpressure_is_per_class(self):
        scheduler = make_scheduler(capacity=2)
        preload(scheduler, {"standard": 2})
        scheduler.admit(Item("interactive", 0), block=False)
        assert scheduler.stats()["rejected"] == 0

    @both_shapes
    def test_blocked_admit_times_out_as_rejection(self, classes):
        scheduler = make_scheduler(capacity=1, classes=classes)
        preload(scheduler, {"standard": 1})
        with pytest.raises(AdmissionError):
            scheduler.admit(Item("standard", 99), timeout=0.01)
        assert scheduler.stats()["rejected"] == 1

    @both_shapes
    def test_blocked_admit_wakes_when_drained(self, classes):
        scheduler = make_scheduler(capacity=1, classes=classes)
        preload(scheduler, {"standard": 1})
        done = threading.Event()

        def submitter():
            scheduler.admit(Item("standard", 99), timeout=5.0)
            done.set()

        thread = threading.Thread(target=submitter, daemon=True)
        thread.start()
        scheduler.next_batch(poll_timeout=0.0)
        assert done.wait(5.0)
        thread.join(5.0)

    @both_shapes
    def test_close_stops_admissions_and_drains(self, classes):
        scheduler = make_scheduler(classes=classes)
        preload(scheduler, {"standard": 2})
        scheduler.close()
        assert scheduler.closed
        with pytest.raises(QueueClosed):
            scheduler.admit(Item("standard", 9))
        assert len(scheduler.next_batch(poll_timeout=0.0)) == 2
        assert scheduler.next_batch(poll_timeout=0.0) is None

    @both_shapes
    @pytest.mark.parametrize("poll_timeout", [0.0, 0.02])
    def test_empty_poll_returns_empty_list(self, classes, poll_timeout):
        scheduler = make_scheduler(classes=classes)
        assert scheduler.next_batch(poll_timeout=poll_timeout) == []


class TestStats:
    def test_hold_seconds_are_published_and_described(self):
        from repro.obs import Observability
        from repro.obs.metrics import LatencySummary
        from repro.serving.server import ServerStats

        obs = Observability()
        scheduler = DrrScheduler(
            ONE_CLASS, BatchPolicy(name="held", max_batch_size=8,
                                   max_wait_ms=3.0), obs=obs)
        preload(scheduler, {"standard": 1})
        scheduler.next_batch(busy=lambda: True)   # held to the bound
        preload(scheduler, {"standard": 8})
        scheduler.next_batch(busy=lambda: True)   # full: no hold
        preload(scheduler, {"standard": 2})
        scheduler.next_batch()                    # idle executor: no hold
        stats = scheduler.batch_stats()
        assert (stats.batches, stats.full_batches,
                stats.timeout_batches) == (3, 1, 1)
        published = obs.counter("serving_batch_hold_seconds").value
        assert published == pytest.approx(stats.hold_s) and published > 0
        assert obs.counter("serving_batches_total",
                           policy="held").value == 3
        described = ServerStats(
            submitted=11, completed=11, executed=11, cache_hits=0,
            rejected=0, cancelled=0, deadline_missed=0, errors=0,
            plan_swaps=0, latency=LatencySummary.empty(), batcher=stats,
            cache=None,
        ).describe()
        assert (f"1 full / 1 timed out, held {stats.hold_s * 1000.0:.1f} ms"
                in described)

    def test_stats_count_admissions_and_per_class_service(self):
        scheduler = make_scheduler()
        preload(scheduler, {"interactive": 3, "batch": 2})
        drain(scheduler)
        stats = scheduler.stats()
        assert stats["admitted"] == 5
        assert stats["rejected"] == 0
        assert stats["classes"]["interactive"]["served"] == 3
        assert stats["classes"]["batch"]["served"] == 2

    @both_shapes
    def test_batch_stats_track_sizes(self, classes):
        # The heaviest class's quantum equals the batch size, so the
        # 3-item backlog drains as one full batch plus a remainder.
        scheduler = make_scheduler(max_batch=2, classes=classes)
        preload(scheduler, {classes[0].name: 3})
        drain(scheduler)
        stats = scheduler.batch_stats()
        assert stats.items == 3
        assert stats.batches == 2
        assert stats.full_batches == 1
        assert stats.size_histogram == {2: 1, 1: 1}
        assert stats.mean_batch_size == pytest.approx(1.5)
