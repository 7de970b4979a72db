"""Workers: plan-warmed engine sessions behind input/output queues.

A worker is one replica of the execution tier.  It owns a warmed
:class:`~repro.serving.session.EngineSession`, takes :class:`WorkItem`
batches, and posts :class:`WorkOutcome` records to a results queue shared
with the dispatcher.  There is one replica body -- :func:`_run_item`
executes, :class:`_Replica` implements the :class:`Worker` contract on one
serving thread -- over a private *lane* that only moves work:

* :class:`ThreadWorker` -- the serving thread pulls from an inbox and runs
  the session itself.  This is the default replica type for both serving
  and offline sharded runs.
* :class:`ProcessWorker` -- a forked child runs its inherited copy of the
  session, whatever its type, and the serving thread pumps its outcomes
  across the process boundary.

The serving thread publishes a heartbeat timestamp on every poll; the
dispatcher's health monitor treats a stale heartbeat (or a dead thread or
process) as a crash and re-dispatches the worker's pending items elsewhere.
``kill()`` simulates a crash for failover tests: the worker stops abruptly
without draining or reporting its in-flight work.
"""

from __future__ import annotations

import multiprocessing
import threading
import time
from contextlib import nullcontext
from dataclasses import dataclass, field, replace
from queue import Empty

import numpy as np

from repro.chaos.faults import NULL_FAULTS
from repro.errors import ClusterError
from repro.inference.mpmc import MpmcQueue, QueueClosed
from repro.obs import NULL_OBS, StageEvent
from repro.serving.request import InferenceRequest
from repro.serving.session import EngineSession

#: Shared zero-length default for WorkOutcome.predictions (never mutated).
_EMPTY_PREDICTIONS = np.empty(0, dtype=np.int64)


@dataclass(frozen=True)
class WorkItem:
    """One unit of dispatchable work: a micro-batch of requests.

    Attributes
    ----------
    item_id:
        Dispatcher-unique identity, used to match outcomes to futures and to
        deduplicate retried work.
    requests:
        The micro-batch, in response order.
    shard_id:
        Shard this item belongs to in offline corpus runs (-1 online).
    attempts:
        How many times this item has been handed to a worker.
    trace:
        Picklable :mod:`repro.obs` trace context ``(trace_id, span_id)``
        of the dispatcher-side item span, or None when untraced.  Carried
        across the worker hop (including the multiprocessing queue) and
        echoed on the :class:`WorkOutcome`, so worker-side and
        outcome-side spans parent into the originating trace.
    """

    item_id: int
    requests: tuple[InferenceRequest, ...]
    shard_id: int = -1
    attempts: int = 1
    trace: tuple[int, int] | None = None

    def retried(self) -> "WorkItem":
        """A copy of this item with the attempt counter bumped."""
        return replace(self, attempts=self.attempts + 1)


@dataclass(frozen=True, eq=False)
class WorkOutcome:
    """What a worker reports back for one :class:`WorkItem`.

    Either ``predictions`` is set (success) or ``error`` is set (the session
    raised); crashed workers report nothing at all -- that silence is what
    the heartbeat monitor detects.  ``stages`` is the batch's per-stage cost
    as ``cluster`` :class:`~repro.obs.StageEvent` records (frozen, so they
    pickle across the process lane), built by the session that ran it; the
    dispatcher publishes them on the stage bus when this outcome resolves
    its item, and only then.

    ``predictions`` is an int64 ndarray passed through from the session
    unboxed -- scan scores ride it as IEEE-754 bit patterns with no
    per-element Python int round-trip.  A process replica's child pickles
    the whole outcome, predictions included, onto its outbox, and the
    pump forwards it as it arrives.
    """

    item_id: int
    worker_id: str
    shard_id: int = -1
    attempts: int = 1
    predictions: np.ndarray = field(
        default_factory=lambda: _EMPTY_PREDICTIONS)
    modelled_seconds: float = 0.0
    error: str | None = None
    stages: tuple[StageEvent, ...] = ()
    trace: tuple[int, int] | None = None

    @property
    def ok(self) -> bool:
        """True when the item executed successfully."""
        return self.error is None


@dataclass
class WorkerStats:
    """Lifetime per-worker counters."""

    executed_items: int = 0
    executed_requests: int = 0
    failed_items: int = 0
    modelled_seconds: float = 0.0


class Worker:
    """Contract every replica type implements.

    The dispatcher only touches this interface, so thread- and
    process-backed replicas (and test fakes) are interchangeable.
    """

    def __init__(self, worker_id: str) -> None:
        if not worker_id:
            raise ClusterError("worker_id must be non-empty")
        self._worker_id = worker_id

    @property
    def worker_id(self) -> str:
        """Stable identity of this replica."""
        return self._worker_id

    @property
    def plan_key(self) -> str:
        """The plan the wrapped session executes."""
        raise NotImplementedError

    @property
    def alive(self) -> bool:
        """True while the worker can still make progress."""
        raise NotImplementedError

    def heartbeat_age(self, now: float | None = None) -> float:
        """Seconds since the worker last proved liveness."""
        raise NotImplementedError

    def submit(self, item: WorkItem) -> None:
        """Enqueue one item; raises :class:`ClusterError` if not accepting."""
        raise NotImplementedError

    def queue_depth(self) -> int:
        """Items accepted but not yet completed (autoscaling signal)."""
        raise NotImplementedError

    def pending_items(self) -> list[WorkItem]:
        """Items accepted but not completed (recovered on crash)."""
        raise NotImplementedError

    def kill(self) -> None:
        """Crash the worker: stop abruptly, abandoning in-flight work."""
        raise NotImplementedError

    def close(self, timeout: float = 5.0) -> None:
        """Graceful shutdown: drain the input queue, then stop."""
        raise NotImplementedError


def _run_item(session: EngineSession, item: WorkItem, worker_id: str,
              obs=NULL_OBS, faults=NULL_FAULTS, worker=None) -> WorkOutcome:
    """The replica body: execute one item, report what happened.

    Both lanes call it -- in-thread with the replica's ``obs``/``faults``
    seams, in a child process with the null ones.
    """
    echo = dict(item_id=item.item_id, worker_id=worker_id,
                shard_id=item.shard_id, attempts=item.attempts,
                trace=item.trace)  # trace ids ride back with the outcome
    try:
        # Chaos seam: a "raise" here becomes an error outcome (the retry
        # path), a "kill" suppresses the outcome entirely (the failover
        # path), a "stall" holds the replica busy.
        faults.hit("worker.execute", worker=worker, item_id=item.item_id)
        # Make the item's trace ambient so session-internal spans (e.g.
        # store chunk reads) parent into the item's subtree.
        traced = obs.enabled and item.trace is not None
        with obs.activate(item.trace) if traced else nullcontext():
            result = session.execute(list(item.requests))
    except Exception as exc:
        return WorkOutcome(error=f"{type(exc).__name__}: {exc}", **echo)
    return WorkOutcome(
        # ndarray passthrough: no per-element int boxing on the scan hot
        # path (scores stay packed int64 bit patterns).
        predictions=np.asarray(result.predictions, dtype=np.int64),
        modelled_seconds=result.modelled_seconds,
        stages=session.stage_events(result, len(item.requests), "cluster"),
        **echo,
    )


class _Replica(Worker):
    """The one implementation of the :class:`Worker` contract.

    Everything the dispatcher relies on lives here, on one serving thread;
    the lane (``lane_type(replica, session, *lane_args)``, handed the
    warmed session) only moves work: ``inbox.put(item, timeout=)``,
    ``next_outcome(timeout)`` (raises on a timeout, :class:`QueueClosed`
    once nothing more can come), ``stop(drain)`` (finish what was
    accepted, or crash) and ``release()`` (called as the serving thread
    exits).
    """

    def __init__(self, worker_id: str, results: MpmcQueue[WorkOutcome],
                 faults, lane_type, session: EngineSession,
                 *lane_args) -> None:
        super().__init__(worker_id)
        if not session.warmed:
            session.warmup()
        self._session = session
        self._results = results
        self._faults = faults
        self._pending: dict[int, WorkItem] = {}
        self._pending_lock = threading.Lock()
        self._stats = WorkerStats()
        self._heartbeat = time.monotonic()
        self._busy = self._killed = self._closing = False
        self._lane = lane_type(self, session, *lane_args)
        self._thread = threading.Thread(
            target=self._loop, name=f"cluster-{worker_id}", daemon=True
        )
        self._thread.start()

    # -- Worker contract ------------------------------------------------
    @property
    def plan_key(self) -> str:
        return self._session.plan_key

    @property
    def alive(self) -> bool:
        # A lane that dies on its own ends the serving thread with it.
        return self._thread.is_alive() and not (self._killed or self._closing)

    def heartbeat_age(self, now: float | None = None) -> float:
        # A batch mid-execution is occupancy, not silence: an in-process
        # thread cannot die without `alive` turning false, so the heartbeat
        # only measures staleness of the polling loop.
        if self._busy:
            return 0.0
        return (now if now is not None else time.monotonic()) - self._heartbeat

    def submit(self, item: WorkItem) -> None:
        if not self.alive:
            raise ClusterError(
                f"worker {self._worker_id} is not accepting work"
            )
        with self._pending_lock:
            self._pending[item.item_id] = item
        try:
            self._lane.inbox.put(item, timeout=5.0)
        except Exception as exc:
            # QueueClosed (shutdown race) or EngineError (inbox full past
            # the timeout): either way the item was not accepted; surface
            # it as the ClusterError the dispatcher routes around.
            with self._pending_lock:
                del self._pending[item.item_id]
            raise ClusterError(
                f"worker {self._worker_id} did not accept the item: {exc}"
            ) from exc

    def queue_depth(self) -> int:
        with self._pending_lock:
            return len(self._pending)

    def pending_items(self) -> list[WorkItem]:
        with self._pending_lock:
            return sorted(self._pending.values(), key=lambda i: i.item_id)

    def kill(self) -> None:
        self._killed = True
        self._lane.stop(drain=False)

    def close(self, timeout: float = 10.0) -> None:
        self._closing = True  # an item put behind the drain would be lost
        self._lane.stop(drain=not self._killed)
        self._thread.join(timeout=timeout)
        if self._thread.is_alive() and not self._killed:
            raise ClusterError(
                f"worker {self._worker_id} did not drain in time"
            )

    def stats(self) -> WorkerStats:
        """Snapshot of the worker's lifetime counters."""
        with self._pending_lock:
            return replace(self._stats)

    # -- Serving thread --------------------------------------------------
    def _loop(self) -> None:
        try:
            while not self._killed:
                self._busy = False  # set by a lane that starts executing
                self._heartbeat = time.monotonic()
                try:
                    outcome = self._lane.next_outcome(timeout=0.05)
                except QueueClosed:
                    return
                except Exception:
                    continue  # poll timeout: refresh the heartbeat, re-poll
                if outcome is not None:
                    self._deliver(outcome)
        finally:
            self._lane.release()

    def _deliver(self, outcome: WorkOutcome) -> None:
        with self._pending_lock:
            item = self._pending.get(outcome.item_id)
        if item is None or self._killed:
            return
        # Deliver, then acknowledge.  The outcome posts to the results
        # queue *before* the item leaves the pending set: a crash in the
        # gap (the ``worker.ack`` seam) leaves the item recoverable --
        # the monitor re-dispatches it and the dispatcher deduplicates
        # the already-delivered outcome -- whereas acknowledging first
        # would lose the item outright if the worker died before the
        # post, hanging its future until the drain timeout.
        # A full results queue must not kill the serving thread either:
        # keep trying (and beating -- a retrying replica is not silent)
        # until the queue drains, closes, or this worker is killed.
        while not self._killed:
            self._heartbeat = time.monotonic()
            try:
                self._results.put(outcome, timeout=1.0)
                break
            except QueueClosed:
                break
            except Exception:
                continue  # put timeout: the collector is behind; retry
        self._faults.hit("worker.ack", worker=self, item_id=item.item_id)
        if self._killed:
            # Crashed inside the delivery/ack window: the item stays
            # pending so failover recovers it; exactly-once resolution is
            # now the dispatcher's duplicate-outcome check to uphold.
            return
        with self._pending_lock:
            self._pending.pop(item.item_id, None)
            if outcome.ok:
                self._stats.executed_items += 1
                self._stats.executed_requests += len(item.requests)
                self._stats.modelled_seconds += outcome.modelled_seconds
            else:
                self._stats.failed_items += 1


class _ThreadLane:
    """In-thread lane: the serving thread pulls from an inbox and calls
    the body itself -- no pump, no hop between execution and delivery."""

    def __init__(self, replica: _Replica, session: EngineSession,
                 queue_capacity: int, obs, faults) -> None:
        self._replica = replica
        self._session = session
        self.inbox: MpmcQueue[WorkItem] = MpmcQueue(queue_capacity,
                                                    faults=faults)
        self._seams = (obs, faults)

    def next_outcome(self, timeout: float) -> WorkOutcome | None:
        item = self.inbox.get(timeout=timeout)
        if self._replica._killed:
            # Crash semantics: the dequeued item is deliberately lost
            # (it stays pending for the monitor to recover).
            return None
        self._replica._busy = True  # through delivery, until the next poll
        return _run_item(self._session, item, self._replica.worker_id,
                         *self._seams, worker=self._replica)

    def stop(self, drain: bool) -> None:
        self.inbox.close()  # queued items still drain before QueueClosed

    def release(self) -> None:
        pass


class ThreadWorker(_Replica):
    """A replica running its session on a daemon thread in this process.

    Parameters
    ----------
    worker_id:
        Replica identity (also the routing key target).
    session:
        The warmed engine session this replica executes.
    results:
        Shared outcome queue owned by the dispatcher.
    queue_capacity:
        Bound on accepted-but-unexecuted items.
    obs:
        Optional :class:`~repro.obs.Observability`.  Traced items then
        execute with their trace context ambient on the worker thread, so
        spans opened inside the session (store chunk reads, for example)
        parent into the item's subtree.
    faults:
        Chaos seam (:data:`~repro.chaos.faults.NULL_FAULTS` by default).
        ``worker.execute`` fires before the session runs; ``worker.ack``
        fires after the outcome posts but before the item leaves the
        pending set -- a kill there is the duplicate-delivery window the
        dispatcher must absorb.
    """

    def __init__(self, worker_id: str, session: EngineSession,
                 results: MpmcQueue[WorkOutcome],
                 queue_capacity: int = 64,
                 obs=NULL_OBS, faults=NULL_FAULTS) -> None:
        faults = faults if faults is not None else NULL_FAULTS
        super().__init__(worker_id, results, faults, _ThreadLane, session,
                         queue_capacity, obs if obs is not None else NULL_OBS,
                         faults)


def _child_main(worker_id: str, session: EngineSession, inbox,
                outbox) -> None:
    """Child side of the process lane: the same body over the mp queues
    until the ``None`` sentinel, each outcome out as it was returned."""
    for item in iter(inbox.get, None):
        outbox.put(_run_item(session, item, worker_id))


class _ProcessLane:
    """Child-process lane: mp queues to a forked child; the serving thread
    pumps its outcomes."""

    def __init__(self, replica: _Replica, session: EngineSession) -> None:
        context = multiprocessing.get_context("fork")
        self.inbox, self._outbox = context.Queue(), context.Queue()
        self._lock = threading.Lock()  # a late stop() races release()
        self.process = context.Process(
            target=_child_main,
            args=(replica.worker_id, session, self.inbox, self._outbox),
            name=f"cluster-{replica.worker_id}", daemon=True,
        )
        self.process.start()

    def next_outcome(self, timeout: float) -> WorkOutcome:
        try:
            return self._outbox.get(timeout=timeout)
        except Empty:
            # The one way out: the child exited (on its sentinel, or not)
            # and -- checked second -- all it flushed on the way is read.
            if not self.process.is_alive() and self._outbox.empty():
                raise QueueClosed("the child is gone") from None
            raise

    def stop(self, drain: bool) -> None:
        with self._lock:
            if self.inbox is None:
                return  # released: nothing is left to stop
            if drain:
                self.inbox.put(None)
            else:
                self.process.terminate()

    def release(self) -> None:
        self.process.join()  # already gone, or terminated by stop()
        # The lane owns its queues: close both and join their feeder
        # threads.  Only a child that exited on the sentinel read every
        # byte; after a crash nobody will, so that flush is not waited on.
        with self._lock:
            for queue in (self.inbox, self._outbox):
                if self.process.exitcode != 0:
                    queue.cancel_join_thread()
                queue.close()
                queue.join_thread()
            # A queue this side never put to has no feeder to close its
            # pipe ends; dropping the last reference does.
            self.inbox = self._outbox = None
            self.process.close()


class ProcessWorker(_Replica):
    """A replica running its session in a forked child process.

    The session is any warmed :class:`EngineSession`, never pickled: the
    child runs the copy it was forked with, so spans and faults on the
    session's own ``obs`` / ``faults`` act in the child and the parent
    never sees them.  Each outcome, predictions included, crosses back
    pickled on the lane's outbox; an outcome still in the pipe when the
    replica is killed is dropped on arrival, like any post-kill delivery.
    """

    def __init__(self, worker_id: str, session: EngineSession,
                 results: MpmcQueue[WorkOutcome]) -> None:
        super().__init__(worker_id, results, NULL_FAULTS, _ProcessLane,
                         session)
