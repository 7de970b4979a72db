"""Workers: plan-warmed engine sessions behind input/output queues.

A worker is one replica of the execution tier.  It owns a warmed
:class:`~repro.serving.session.EngineSession`, pulls :class:`WorkItem`
batches from a private input queue, and posts :class:`WorkOutcome` records to
a results queue shared with the dispatcher.  Two variants exist:

* :class:`ThreadWorker` -- the session runs on a daemon thread in this
  process.  This is the default replica type for both serving and offline
  sharded runs.
* :class:`ProcessWorker` -- the session runs in a child process built from a
  picklable :class:`SessionSpec` (simulated engine only, since numpy model
  weights are cheap to rebuild but not worth shipping).  It demonstrates the
  same worker contract across a real process boundary.

Workers publish a heartbeat timestamp on every loop iteration; the
dispatcher's health monitor treats a stale heartbeat (or a dead thread or
process) as a crash and re-dispatches the worker's pending items elsewhere.
``kill()`` simulates a crash for failover tests: the worker stops abruptly
without draining or reporting its in-flight work.
"""

from __future__ import annotations

import multiprocessing
import threading
import time
from dataclasses import dataclass, field, replace

import numpy as np

from repro.chaos.faults import NULL_FAULTS
from repro.errors import ClusterError
from repro.fuse.shm import ShmBatchRef, ShmBatchTransport, worker_shm_prefix
from repro.hardware.instance import get_instance
from repro.inference.mpmc import MpmcQueue, QueueClosed
from repro.inference.perfmodel import EngineConfig, PerformanceModel
from repro.obs import NULL_OBS
from repro.codecs.formats import get_input_format
from repro.core.plans import Plan
from repro.nn.zoo import get_model_profile
from repro.serving.request import InferenceRequest
from repro.serving.session import EngineSession, SimulatedSession

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
    the heartbeat monitor detects.  ``stage_seconds`` carries the session's
    per-stage cost breakdown (picklable key/value pairs) when the session
    reports one, feeding the worker's cost report.

    ``predictions`` is an int64 ndarray passed through from the session
    unboxed -- scan scores ride it as IEEE-754 bit patterns with no
    per-element Python int round-trip.  Between a shared-memory process
    worker and its parent pump, the array travels out-of-band: the child
    posts the outcome with empty ``predictions`` and ``shm`` set to a
    :class:`~repro.fuse.shm.ShmBatchRef`, and the pump re-materializes
    ``predictions`` (clearing ``shm``) before forwarding to the
    dispatcher, which therefore never sees a descriptor.
    """

    item_id: int
    worker_id: str
    shard_id: int = -1
    attempts: int = 1
    predictions: np.ndarray = field(
        default_factory=lambda: _EMPTY_PREDICTIONS)
    modelled_seconds: float = 0.0
    error: str | None = None
    stage_seconds: tuple[tuple[str, float], ...] = ()
    trace: tuple[int, int] | None = None
    shm: ShmBatchRef | None = None

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


@dataclass(frozen=True)
class WorkerCostReport:
    """Observed per-stage costs of one replica since its last report.

    Produced by :meth:`Worker.take_cost_report` and forwarded to a
    telemetry sink by the dispatcher's heartbeat monitor
    (:meth:`repro.cluster.dispatcher.Dispatcher.attach_telemetry`), so the
    adaptive replanning loop sees what every replica actually paid per
    stage -- not what the calibrated model predicted.

    Attributes
    ----------
    worker_id / plan_key:
        Which replica observed the costs, executing which plan.
    format_name / model_name:
        Telemetry subjects: decode/preprocess observations are keyed by
        the input format, inference observations by the model ("" when
        the session does not expose them).
    images:
        Requests executed since the last report (the largest per-stage
        count).
    stage_seconds:
        Total per-stage resource seconds consumed since the last report.
    stage_images:
        Images that actually passed through each stage.  Kept per stage
        because a mid-window plan/pace hot-swap changes which stages a
        batch pays (decode vs chunk read): dividing a stage's seconds by
        the window's *total* images would dilute its per-image cost and
        mis-calibrate the drift loop.
    """

    worker_id: str
    plan_key: str
    format_name: str
    model_name: str
    images: int
    stage_seconds: dict[str, float]
    stage_images: dict[str, int] = field(default_factory=dict)

    def images_for(self, stage: str) -> int:
        """Images that paid ``stage`` (falls back to the window total)."""
        return self.stage_images.get(stage, self.images)


class _CostAccumulator:
    """Thread-safe per-stage cost accumulation shared by worker types.

    Both the image count and the seconds accumulate *per stage key*, so a
    report window spanning a hot-swap (some batches paying ``decode``,
    later ones paying ``read``) still yields exact per-image costs for
    every stage.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._stages: dict[str, list] = {}

    def add(self, images: int,
            stage_seconds: tuple[tuple[str, float], ...]) -> None:
        if not stage_seconds:
            return
        with self._lock:
            for stage, seconds in stage_seconds:
                entry = self._stages.setdefault(stage, [0, 0.0])
                entry[0] += images
                entry[1] += seconds

    def take(self) -> tuple[dict[str, int], dict[str, float]]:
        with self._lock:
            stages, self._stages = self._stages, {}
        return ({stage: entry[0] for stage, entry in stages.items()},
                {stage: entry[1] for stage, entry in stages.items()})


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

    def take_cost_report(self) -> WorkerCostReport | None:
        """Per-stage costs since the last report; None when unsupported.

        Called by the dispatcher's heartbeat monitor; taking resets the
        accumulation, so each report is a delta.
        """
        return None

    def kill(self) -> None:
        """Crash the worker: stop abruptly, abandoning in-flight work."""
        raise NotImplementedError

    def close(self, timeout: float = 5.0) -> None:
        """Graceful shutdown: drain the input queue, then stop."""
        raise NotImplementedError


class ThreadWorker(Worker):
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
    service_time_scale:
        When positive, the worker sleeps ``modelled_seconds * scale`` after
        each simulated batch, so modelled service time occupies the replica
        in wall-clock terms and multi-worker wall-clock speedups are real.
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
                 service_time_scale: float = 0.0,
                 obs=NULL_OBS, faults=NULL_FAULTS) -> None:
        super().__init__(worker_id)
        if service_time_scale < 0:
            raise ClusterError("service_time_scale must be non-negative")
        self._obs = obs if obs is not None else NULL_OBS
        self._faults = faults if faults is not None else NULL_FAULTS
        if not session.warmed:
            session.warmup()
        self._session = session
        self._results = results
        self._inbox: MpmcQueue[WorkItem] = MpmcQueue(
            queue_capacity, faults=self._faults)
        self._service_time_scale = service_time_scale
        self._pending: dict[int, WorkItem] = {}
        self._pending_lock = threading.Lock()
        self._stats = WorkerStats()
        self._costs = _CostAccumulator()
        self._heartbeat = time.monotonic()
        self._busy = False
        self._killed = False
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
        return self._thread.is_alive() and not self._killed

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
            self._inbox.put(item, timeout=5.0)
        except Exception as exc:
            # QueueClosed (shutdown race) or EngineError (inbox full past
            # the timeout): either way the item was not accepted; surface
            # it as the ClusterError the dispatcher routes around.
            with self._pending_lock:
                self._pending.pop(item.item_id, None)
            raise ClusterError(
                f"worker {self._worker_id} did not accept the item: {exc}"
            ) from exc

    def queue_depth(self) -> int:
        with self._pending_lock:
            return len(self._pending)

    def pending_items(self) -> list[WorkItem]:
        with self._pending_lock:
            return sorted(self._pending.values(), key=lambda i: i.item_id)

    def take_cost_report(self) -> WorkerCostReport | None:
        stage_images, stage_seconds = self._costs.take()
        if not stage_seconds:
            return None
        return WorkerCostReport(
            worker_id=self._worker_id,
            plan_key=self._session.plan_key,
            format_name=self._session.format_name,
            model_name=self._session.model_name,
            images=max(stage_images.values()),
            stage_seconds=stage_seconds,
            stage_images=stage_images,
        )

    def kill(self) -> None:
        self._killed = True
        self._inbox.close()

    def close(self, timeout: float = 5.0) -> None:
        self._inbox.close()
        self._thread.join(timeout=timeout)
        if self._thread.is_alive() and not self._killed:
            raise ClusterError(
                f"worker {self._worker_id} did not drain in time"
            )

    def stats(self) -> WorkerStats:
        """Snapshot of the worker's lifetime counters."""
        with self._pending_lock:
            return WorkerStats(
                executed_items=self._stats.executed_items,
                executed_requests=self._stats.executed_requests,
                failed_items=self._stats.failed_items,
                modelled_seconds=self._stats.modelled_seconds,
            )

    # -- Worker loop -----------------------------------------------------
    def _loop(self) -> None:
        while True:
            self._heartbeat = time.monotonic()
            if self._killed:
                return
            try:
                item = self._inbox.get(timeout=0.05)
            except QueueClosed:
                return
            except Exception:
                continue  # get timeout: refresh the heartbeat and re-poll
            if self._killed:
                # Crash semantics: the dequeued item is deliberately lost
                # (it stays in _pending for the monitor to recover).
                return
            self._busy = True
            try:
                self._execute(item)
            finally:
                self._busy = False

    def _execute(self, item: WorkItem) -> None:
        try:
            # Chaos seam: a "raise" here becomes an error outcome (the
            # retry path), a "kill" suppresses the outcome entirely (the
            # failover path), a "stall" holds the replica busy.
            self._faults.hit("worker.execute", worker=self,
                             item_id=item.item_id)
            if self._obs.enabled and item.trace is not None:
                # Make the item's trace ambient so session-internal spans
                # (e.g. store chunk reads) parent into the item's subtree.
                with self._obs.activate(item.trace):
                    result = self._session.execute(list(item.requests))
            else:
                result = self._session.execute(list(item.requests))
        except Exception as exc:
            outcome = WorkOutcome(
                item_id=item.item_id, worker_id=self._worker_id,
                shard_id=item.shard_id, attempts=item.attempts,
                error=f"{type(exc).__name__}: {exc}",
                trace=item.trace,
            )
        else:
            if self._service_time_scale > 0 and result.modelled_seconds > 0:
                time.sleep(result.modelled_seconds * self._service_time_scale)
            stage_seconds = tuple(sorted(
                (result.stage_seconds or {}).items()
            ))
            outcome = WorkOutcome(
                item_id=item.item_id, worker_id=self._worker_id,
                shard_id=item.shard_id, attempts=item.attempts,
                # ndarray passthrough: no per-element int boxing on the
                # scan hot path (scores stay packed int64 bit patterns).
                predictions=np.asarray(result.predictions, dtype=np.int64),
                modelled_seconds=result.modelled_seconds,
                stage_seconds=stage_seconds,
                trace=item.trace,
            )
            self._costs.add(len(item.requests), stage_seconds)
        if self._killed:
            return
        # Deliver, then acknowledge.  The outcome posts to the results
        # queue *before* the item leaves the pending set: a crash in the
        # gap (the ``worker.ack`` seam) leaves the item recoverable --
        # the monitor re-dispatches it and the dispatcher deduplicates
        # the already-delivered outcome -- whereas acknowledging first
        # would lose the item outright if the worker died before the
        # post, hanging its future until the drain timeout.
        # A full results queue must not kill the worker thread either:
        # keep trying until the queue drains, closes, or this worker is
        # killed.
        while not self._killed:
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


@dataclass(frozen=True)
class SessionSpec:
    """A picklable recipe for rebuilding a simulated session elsewhere.

    Process workers cannot share a live session object, so they ship this
    spec instead and rebuild the session (deterministically -- the
    performance model is calibrated, not trained) inside the child.
    """

    model_name: str = "resnet-18"
    format_name: str = "161-jpeg-q75"
    instance_name: str = "g4dn.xlarge"
    backend: str = "tensorrt"
    num_classes: int = 1000

    def build(self) -> SimulatedSession:
        """Construct and warm the simulated session this spec describes."""
        instance = get_instance(self.instance_name)
        plan = Plan.single(get_model_profile(self.model_name),
                           get_input_format(self.format_name))
        session = SimulatedSession(
            plan, PerformanceModel(instance, backend=self.backend),
            config=EngineConfig(num_producers=instance.vcpus),
            num_classes=self.num_classes,
        )
        session.warmup()
        return session


def _process_worker_main(spec: SessionSpec, inbox, outbox,
                         shm_prefix: str | None = None,
                         force_inline: bool = False) -> None:
    """Child-process loop: rebuild the session, then serve the queue.

    With ``shm_prefix`` set, prediction arrays travel out-of-band through
    a :class:`~repro.fuse.shm.ShmBatchTransport` (zero-copy shared-memory
    segments); the outcome on the mp queue then carries only the
    descriptor.  Without it (legacy mode) predictions pickle through the
    queue as an int64 ndarray -- already unboxed, but still copied.
    """
    session = spec.build()
    plan_key = session.plan_key
    transport = None
    if shm_prefix is not None:
        transport = ShmBatchTransport(shm_prefix, force_inline=force_inline)
    while True:
        item = inbox.get()
        if item is None:
            outbox.put(None)
            return
        try:
            result = session.execute(list(item.requests))
            predictions = np.asarray(result.predictions, dtype=np.int64)
            shm_ref = None
            if transport is not None:
                shm_ref = transport.publish(predictions)
                predictions = _EMPTY_PREDICTIONS
            outcome = WorkOutcome(
                item_id=item.item_id, worker_id=plan_key,  # rewritten below
                shard_id=item.shard_id, attempts=item.attempts,
                predictions=predictions,
                modelled_seconds=result.modelled_seconds,
                stage_seconds=tuple(sorted(
                    (result.stage_seconds or {}).items()
                )),
                trace=item.trace,  # trace ids ride back over the mp queue
                shm=shm_ref,
            )
        except Exception as exc:
            outcome = WorkOutcome(
                item_id=item.item_id, worker_id=plan_key,
                shard_id=item.shard_id, attempts=item.attempts,
                error=f"{type(exc).__name__}: {exc}",
                trace=item.trace,
            )
        outbox.put(outcome)


class ProcessWorker(Worker):
    """A replica running a simulated session in a child process.

    The contract matches :class:`ThreadWorker`; a pump thread forwards the
    child's outcomes into the dispatcher's shared results queue and doubles
    as the heartbeat source.  Only simulated sessions are supported -- they
    are rebuilt from a :class:`SessionSpec` rather than pickled.

    Prediction batches ride zero-copy shared memory by default
    (``use_shm=True``): the child publishes each batch into a named
    segment under a per-worker prefix and the pump re-materializes it on
    attach, unlinking as it goes.  ``kill``/``close`` sweep the prefix, so
    a crashed child's in-flight segments never leak.  On platforms without
    ``multiprocessing.shared_memory`` (or with ``use_shm=False``) the
    transport degrades to inline bytes with identical results.
    """

    def __init__(self, worker_id: str, spec: SessionSpec,
                 results: MpmcQueue[WorkOutcome],
                 start_method: str = "fork",
                 use_shm: bool = True) -> None:
        super().__init__(worker_id)
        self._spec = spec
        self._results = results
        context = multiprocessing.get_context(start_method)
        self._inbox = context.Queue()
        self._outbox = context.Queue()
        self._pending: dict[int, WorkItem] = {}
        self._pending_lock = threading.Lock()
        self._costs = _CostAccumulator()
        self._heartbeat = time.monotonic()
        self._killed = False
        self._closed = False
        prefix = worker_shm_prefix(worker_id)
        self._transport = ShmBatchTransport(prefix,
                                            force_inline=not use_shm)
        self._process = context.Process(
            target=_process_worker_main,
            args=(spec, self._inbox, self._outbox, prefix, not use_shm),
            name=f"cluster-{worker_id}", daemon=True,
        )
        self._process.start()
        self._pump = threading.Thread(
            target=self._pump_loop, name=f"cluster-{worker_id}-pump",
            daemon=True,
        )
        self._pump.start()

    @property
    def transport(self) -> ShmBatchTransport:
        """The parent-side shared-memory transport (attach + sweep side)."""
        return self._transport

    @property
    def plan_key(self) -> str:
        plan = Plan.single(get_model_profile(self._spec.model_name),
                           get_input_format(self._spec.format_name))
        return plan.describe()

    @property
    def alive(self) -> bool:
        return self._process.is_alive() and not self._killed

    def heartbeat_age(self, now: float | None = None) -> float:
        return (now if now is not None else time.monotonic()) - self._heartbeat

    def submit(self, item: WorkItem) -> None:
        if not self.alive or self._closed:
            raise ClusterError(
                f"worker {self._worker_id} is not accepting work"
            )
        with self._pending_lock:
            self._pending[item.item_id] = item
        self._inbox.put(item)

    def queue_depth(self) -> int:
        with self._pending_lock:
            return len(self._pending)

    def pending_items(self) -> list[WorkItem]:
        with self._pending_lock:
            return sorted(self._pending.values(), key=lambda i: i.item_id)

    def take_cost_report(self) -> WorkerCostReport | None:
        stage_images, stage_seconds = self._costs.take()
        if not stage_seconds:
            return None
        return WorkerCostReport(
            worker_id=self._worker_id,
            plan_key=self.plan_key,
            format_name=self._spec.format_name,
            model_name=self._spec.model_name,
            images=max(stage_images.values()),
            stage_seconds=stage_seconds,
            stage_images=stage_images,
        )

    def kill(self) -> None:
        self._killed = True
        self._process.terminate()
        # The child may have published batches whose descriptors never
        # reached the pump; sweeping the worker's prefix reclaims them.
        # A descriptor the pump is concurrently attaching either wins the
        # race (the attach unlinks) or sees FileNotFoundError and drops
        # the outcome -- crash semantics either way.
        self._transport.sweep()

    def close(self, timeout: float = 10.0) -> None:
        if self._closed:
            return
        self._closed = True
        if self._process.is_alive() and not self._killed:
            self._inbox.put(None)
        self._process.join(timeout=timeout)
        self._pump.join(timeout=timeout)
        if self._process.is_alive():
            self._process.terminate()
        self._transport.sweep()

    def _pump_loop(self) -> None:
        while True:
            self._heartbeat = time.monotonic()
            try:
                outcome = self._outbox.get(timeout=0.05)
            except Exception:
                if self._killed or self._closed or not self._process.is_alive():
                    if self._outbox.empty():
                        return
                continue
            if outcome is None:
                return
            if outcome.shm is not None:
                try:
                    predictions = self._transport.attach(outcome.shm)
                except FileNotFoundError:
                    # The segment was swept after a kill: treat the
                    # outcome as lost with the crash -- the item stays
                    # pending and failover recovers it.
                    continue
                outcome = replace(outcome, worker_id=self._worker_id,
                                  predictions=predictions, shm=None)
            else:
                outcome = replace(outcome, worker_id=self._worker_id)
            with self._pending_lock:
                item = self._pending.pop(outcome.item_id, None)
            if outcome.ok and item is not None:
                # item can be None after a kill/recover race; folding its
                # seconds in with zero images would skew the per-image
                # cost report, so the raced delta is dropped instead.
                self._costs.add(len(item.requests), outcome.stage_seconds)
            while not self._killed:
                try:
                    self._results.put(outcome, timeout=1.0)
                    break
                except QueueClosed:
                    return
                except Exception:
                    continue  # put timeout: retry until the queue drains


def predictions_array(outcome: WorkOutcome) -> np.ndarray:
    """The outcome's predictions as an int64 array (empty on failure)."""
    return np.asarray(outcome.predictions, dtype=np.int64)
