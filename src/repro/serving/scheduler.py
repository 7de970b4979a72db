"""Admission and micro-batching: deficit round-robin over per-class queues.

The accelerator wants large batches; interactive traffic wants low latency.
The scheduler mediates with the classic serving policy (Clipper, and the
dynamic batching of production serving systems): a batch opens on the
first queued request and ships once ``max_batch_size`` requests are in
hand -- or at once, unless its executor is busy.  Holding a partial batch
open for stragglers (up to ``max_wait_ms``) pays only while nothing could
run it anyway, so ``next_batch`` is told whether the executor is ``busy``:
an idle one gets whatever queued while its last batch ran, at no wait.

Requests wait in one bounded queue per priority class, drained by a
deficit-round-robin (DRR) scan.  Each class holds a *deficit* counter;
when the scan reaches a backlogged class it adds the class's *quantum*
(proportional to its weight, normalized so the heaviest class earns one
full micro-batch per round) and serves up to ``floor(deficit)`` requests,
carrying any fraction to the class's next turn.  A class's deficit resets
when its queue empties, so idle classes cannot bank credit.  With a
single class the quantum is one full batch, so the scheduler is exactly a
FIFO micro-batcher -- which is how a server without tenants runs it.

Two properties the test net enforces fall straight out of the
arithmetic:

* **work conservation** -- the scan always lands on *some* backlogged
  class and ``deficit >= quantum >= 1`` after the top-up, so a
  ``next_batch`` call never returns empty while any queue holds work
  (nor, by the ``busy`` rule, sleeps on work an idle executor could run);
* **bounded unfairness** -- under saturation the residual deficit after
  a serve is the fractional part (< 1 request), so over any window a
  class's served count stays within one micro-batch of its weighted
  share.

Two chaos seams: ``serving.admit`` fires on the submitter's thread before
an item enters its class queue, and ``serving.batch`` at the top of every
``next_batch`` attempt before anything is dequeued.
"""

from __future__ import annotations

import threading
from collections import deque
from dataclasses import dataclass, field, replace
from typing import Callable, Generic, Sequence, TypeVar

from repro.chaos.faults import NULL_FAULTS
from repro.errors import AdmissionError, ServingError, TenantError
from repro.inference.mpmc import QueueClosed
from repro.obs import NULL_OBS
from repro.serving.request import monotonic

T = TypeVar("T")

__all__ = [
    "BatchPolicy",
    "BatcherStats",
    "ClassBatch",
    "ClassPolicy",
    "DrrScheduler",
]


@dataclass(frozen=True)
class BatchPolicy:
    """One (max-batch-size, max-wait) micro-batching policy.

    Attributes
    ----------
    name:
        Label used in reports and benchmarks.
    max_batch_size:
        Hard cap on requests per micro-batch (the engine batch size).
    max_wait_ms:
        Bound on holding a partial batch open for stragglers -- a hold
        only a busy executor permits (``DrrScheduler.next_batch``).
    """

    name: str
    max_batch_size: int
    max_wait_ms: float

    def __post_init__(self) -> None:
        if self.max_batch_size <= 0:
            raise ServingError("max_batch_size must be positive")
        if self.max_wait_ms < 0:
            raise ServingError("max_wait_ms must be non-negative")

    @classmethod
    def latency(cls) -> "BatchPolicy":
        """Small batches, short holds: optimize tail latency."""
        return cls(name="latency", max_batch_size=8, max_wait_ms=2.0)

    @classmethod
    def throughput(cls) -> "BatchPolicy":
        """Engine-sized batches, longer holds: optimize images/second."""
        return cls(name="throughput", max_batch_size=64, max_wait_ms=25.0)


@dataclass
class BatcherStats:
    """Lifetime micro-batch counters.

    A batch closes full, timed out (``max_wait_ms`` ran out during a hold)
    or, counted as neither, partial to an executor that was free to run it.
    """

    batches: int = 0
    items: int = 0
    full_batches: int = 0
    timeout_batches: int = 0
    hold_s: float = 0.0  # seconds partial batches were held open
    size_histogram: dict[int, int] = field(default_factory=dict)

    @property
    def mean_batch_size(self) -> float:
        """Average requests per formed batch."""
        return self.items / self.batches if self.batches else 0.0


@dataclass(frozen=True)
class ClassPolicy:
    """One priority class of the weighted-fair micro-batch scheduler.

    Attributes
    ----------
    name:
        Class label (``interactive`` / ``standard`` / ``batch`` by
        convention, but any non-empty name works).
    weight:
        Relative share of micro-batch capacity under contention; the
        scheduler's per-round quantum is proportional to it.
    rank:
        Visit order within a scheduling round (lower ranks are offered
        their quantum first, so ties in backlog favor latency-sensitive
        classes).
    default_deadline_s:
        Deadline stamped on requests of this class that arrive without
        one; None leaves requests deadline-free.
    """

    name: str
    weight: float
    rank: int
    default_deadline_s: float | None = None

    def __post_init__(self) -> None:
        if not self.name:
            raise TenantError("class name must be non-empty")
        if self.weight <= 0:
            raise TenantError("class weight must be positive")
        if self.default_deadline_s is not None and self.default_deadline_s <= 0:
            raise TenantError("default_deadline_s must be positive when set")


class ClassBatch(list):
    """A micro-batch tagged with the priority class it was drawn from.

    A plain ``list`` subclass so session execution handles it like any
    sequence of requests; the ``class_name`` attribute rides along for
    per-class telemetry and deadline-aware plan selection.
    """

    def __init__(self, class_name: str, items: Sequence) -> None:
        super().__init__(items)
        self.class_name = class_name


class _ClassState(Generic[T]):
    """One class's queue + DRR bookkeeping (guarded by the scheduler lock)."""

    __slots__ = ("policy", "queue", "deficit", "quantum", "served",
                 "admitted", "rejected")

    def __init__(self, policy: ClassPolicy, quantum: float) -> None:
        self.policy = policy
        self.queue: deque[T] = deque()
        self.deficit = 0.0
        self.quantum = quantum
        self.served = 0
        self.admitted = 0
        self.rejected = 0


class DrrScheduler(Generic[T]):
    """Bounded admission queues drained into weighted-fair micro-batches.

    Parameters
    ----------
    classes:
        The priority classes (visited in ``rank`` order each round).
    policy:
        Micro-batching shape: ``max_batch_size`` caps every batch and
        ``max_wait_ms`` bounds how long a partial batch is held for
        company (only while *every* queue is empty and the executor is
        busy, so a hold never idles past available work or capacity).
    capacity:
        Bound on queued items per class (backpressure depth).
    class_of:
        Maps an admitted item to its class name; defaults to reading the
        item's ``class_name`` attribute.
    obs / faults:
        Observability + chaos seams (``serving.admit`` /
        ``serving.batch``).
    """

    def __init__(self, classes: Sequence[ClassPolicy], policy: BatchPolicy,
                 capacity: int = 256,
                 class_of: Callable[[T], str] | None = None,
                 obs=NULL_OBS, faults=NULL_FAULTS) -> None:
        if not classes:
            raise TenantError("DrrScheduler needs at least one class")
        if capacity < 1:
            raise TenantError("capacity must be at least 1")
        self._policy = policy
        self._capacity = capacity
        self._class_of = class_of or (lambda item: item.class_name)
        self._faults = faults if faults is not None else NULL_FAULTS
        ordered = sorted(classes, key=lambda c: (c.rank, c.name))
        max_weight = max(c.weight for c in ordered)
        # The heaviest class earns one full micro-batch per round; every
        # quantum is >= 1 so any visited backlogged class serves at least
        # one request (work conservation).
        self._states: dict[str, _ClassState[T]] = {
            c.name: _ClassState(c, max(
                1.0, policy.max_batch_size * c.weight / max_weight))
            for c in ordered
        }
        self._order = [c.name for c in ordered]
        self._cursor = 0
        self._lock = threading.Lock()
        self._cond = threading.Condition(self._lock)
        self._closed = False
        self._depth = 0
        self._admitted = 0
        self._rejected = 0
        self._stats = BatcherStats()
        self._depth_metric = obs.gauge("serving_queue_depth")
        self._batches_metric = obs.counter("serving_batches_total",
                                           policy=policy.name)
        self._hold_metric = obs.counter("serving_batch_hold_seconds")

    # ------------------------------------------------------------------
    # Producer side
    # ------------------------------------------------------------------
    @property
    def policy(self) -> BatchPolicy:
        """The active micro-batching policy."""
        return self._policy

    @property
    def capacity(self) -> int:
        """Per-class bound on queued items."""
        return self._capacity

    @property
    def closed(self) -> bool:
        """True once :meth:`close` has been called."""
        return self._closed

    def __len__(self) -> int:
        with self._lock:
            return self._depth

    def admit(self, item: T, block: bool = True,
              timeout: float | None = None) -> None:
        """Enqueue ``item`` on its class queue, applying backpressure.

        A full class queue blocks the caller (``block=True``, optionally
        bounded by ``timeout``) or raises :class:`AdmissionError`
        immediately (``block=False``, load shedding); :class:`QueueClosed`
        propagates once the scheduler is closed.
        """
        name = self._class_of(item)
        # Chaos seam: before the enqueue, so a raise is a clean shed (the
        # item never entered a queue) and a stall backpressures the
        # submitting thread.
        self._faults.hit("serving.admit", scheduler=self, class_name=name)
        deadline = None if timeout is None else monotonic() + timeout
        with self._cond:
            state = self._states.get(name)
            if state is None:
                raise TenantError(f"unknown priority class {name!r}")
            while True:
                if self._closed:
                    raise QueueClosed("scheduler is closed")
                if len(state.queue) < self._capacity:
                    break
                if not block:
                    state.rejected += 1
                    self._rejected += 1
                    raise AdmissionError(
                        f"class {name!r} queue full "
                        f"({self._capacity} pending)")
                remaining = None if deadline is None \
                    else deadline - monotonic()
                if remaining is not None and remaining <= 0:
                    state.rejected += 1
                    self._rejected += 1
                    raise AdmissionError(
                        f"class {name!r} admission timed out after "
                        f"{timeout}s")
                self._cond.wait(remaining)
            state.queue.append(item)
            state.admitted += 1
            self._admitted += 1
            self._depth += 1
            self._depth_metric.set(self._depth)
            self._cond.notify_all()

    def close(self) -> None:
        """Stop admissions; :meth:`next_batch` drains what remains."""
        with self._cond:
            self._closed = True
            self._cond.notify_all()

    def wake(self) -> None:
        """Make a held batch ask ``busy`` again (an executor just freed)."""
        with self._cond:
            self._cond.notify_all()

    # ------------------------------------------------------------------
    # Consumer side
    # ------------------------------------------------------------------
    def next_batch(self, poll_timeout: float = 0.1,
                   busy=lambda: False) -> ClassBatch | None:
        """Form the next micro-batch by deficit round-robin.

        Returns ``None`` once closed and fully drained, an empty list when
        ``poll_timeout`` expires with every queue empty, and otherwise a
        :class:`ClassBatch` from the chosen class.  A partial batch is held
        open only while ``busy()`` says no executor could start it now; it is
        called under the scheduler lock, and :meth:`wake` re-asks it early.
        """
        # Chaos seam: before any dequeue, so an injected raise aborts the
        # attempt with no request in hand (the serving loop retries).
        self._faults.hit("serving.batch", scheduler=self)
        with self._cond:
            deadline = monotonic() + poll_timeout
            while True:
                name = self._next_backlogged()
                if name is not None:
                    break
                if self._closed:
                    return None
                remaining = deadline - monotonic()
                if remaining <= 0:
                    return []
                self._cond.wait(remaining)
            state = self._states[name]
            state.deficit = min(
                state.deficit + state.quantum,
                state.quantum + self._policy.max_batch_size)
            allowance = min(int(state.deficit),
                            self._policy.max_batch_size)
            take = min(allowance, len(state.queue))
            batch: list[T] = [state.queue.popleft() for _ in range(take)]
            self._depth -= take
            batch += self._wait_fill(state, len(batch), busy)
            state.deficit = max(0.0, state.deficit - len(batch))
            if not state.queue:
                # An emptied class banks nothing: credit accrues only
                # against real backlog.
                state.deficit = 0.0
            state.served += len(batch)
            self._record(batch)
            self._cond.notify_all()
            return ClassBatch(name, batch)

    def _next_backlogged(self) -> str | None:
        """Advance the DRR cursor to the next class with queued work."""
        for step in range(len(self._order)):
            index = (self._cursor + step) % len(self._order)
            name = self._order[index]
            if self._states[name].queue:
                self._cursor = (index + 1) % len(self._order)
                return name
        return None

    def _wait_fill(self, state: _ClassState[T], have: int, busy) -> list[T]:
        """Top the batch up from its class; hold it open while ``busy()``.

        Only waits while *every* queue is empty and the executor is busy:
        the moment any class has work or the executor frees the batch
        ships, so the wait never idles past available work or capacity
        (the work-conservation property).  Called with the lock held.
        """
        extras: list[T] = []
        room = self._policy.max_batch_size - have
        if room <= 0 or self._policy.max_wait_ms <= 0:
            return extras
        deadline = monotonic() + self._policy.max_wait_ms / 1000.0
        while self._depth == len(state.queue):  # else another class has work
            while state.queue and len(extras) < room:
                extras.append(state.queue.popleft())
                self._depth -= 1
            if len(extras) == room or self._closed or not busy():
                break  # full (perhaps only just), or nobody to wait for
            now = monotonic()
            if now >= deadline:
                self._stats.timeout_batches += 1
                break
            self._cond.notify_all()  # the drain above freed queue space
            self._cond.wait(deadline - now)
            held = monotonic() - now
            self._stats.hold_s += held
            self._hold_metric.inc(held)
        return extras

    def _record(self, batch: list[T]) -> None:
        self._stats.batches += 1
        self._stats.items += len(batch)
        if len(batch) == self._policy.max_batch_size:
            self._stats.full_batches += 1
        size = len(batch)
        self._stats.size_histogram[size] = (
            self._stats.size_histogram.get(size, 0) + 1)
        self._batches_metric.inc()

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def batch_stats(self) -> BatcherStats:
        """Snapshot of the micro-batch counters."""
        with self._lock:
            return replace(self._stats,
                           size_histogram=dict(self._stats.size_histogram))

    def stats(self) -> dict:
        """Admission counters plus per-class DRR state."""
        with self._lock:
            return {
                "admitted": self._admitted,
                "rejected": self._rejected,
                "classes": {
                    name: {
                        "depth": len(state.queue),
                        "served": state.served,
                        "admitted": state.admitted,
                        "rejected": state.rejected,
                        "deficit": state.deficit,
                        "quantum": state.quantum,
                        "weight": state.policy.weight,
                    }
                    for name, state in self._states.items()
                },
            }
