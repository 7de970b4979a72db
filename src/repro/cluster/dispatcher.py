"""The replica-aware dispatcher: routing, health, failover, retries.

The dispatcher owns a pool of :class:`~repro.cluster.worker.Worker` replicas
(all warmed on the same plan), a shared results queue, and two service
threads:

* a **collector** that matches :class:`WorkOutcome` records to submitted
  futures, feeds the per-worker circuit breakers, and retries failed items
  on another replica (up to ``max_attempts``);
* a **monitor** that watches heartbeats, declares silent workers dead,
  re-dispatches their accepted-but-unfinished items on surviving replicas,
  drains items parked while no replica was eligible, completes graceful
  retirements, and drives an attached autoscaler.

Execution is at-least-once (a worker may crash after computing but before
reporting), resolution is exactly-once (the first outcome per item wins);
sessions are deterministic, so duplicated execution is harmless.
"""

from __future__ import annotations

import itertools
import threading
import time
from collections import deque
from concurrent.futures import Future
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from repro.chaos.faults import NULL_FAULTS
from repro.cluster.health import BreakerSnapshot, CircuitBreaker
from repro.cluster.router import ShardRouter, make_router
from repro.cluster.worker import Worker, WorkItem, WorkOutcome
from repro.errors import ClusterError, NoHealthyWorkerError, WorkerCrashedError
from repro.inference.mpmc import MpmcQueue, QueueClosed
from repro.obs import NULL_OBS
from repro.serving.request import InferenceRequest


@dataclass(frozen=True)
class ClusterResult:
    """The resolved value of one dispatched micro-batch.

    Mirrors :class:`~repro.serving.session.BatchResult` (``predictions`` +
    ``modelled_seconds``) so the serving layer can consume either, and adds
    the cluster-side provenance.
    """

    predictions: np.ndarray
    modelled_seconds: float
    worker_id: str
    shard_id: int = -1
    attempts: int = 1


@dataclass(frozen=True)
class DispatcherStats:
    """Snapshot of the dispatcher's lifetime counters."""

    submitted: int
    completed: int
    failed: int
    retried: int
    failovers: int
    worker_deaths: int
    live_workers: int
    parked: int
    inflight: int
    breakers: dict[str, BreakerSnapshot]

    def describe(self) -> str:
        """Multi-line human-readable summary."""
        open_circuits = sum(
            1 for snap in self.breakers.values()
            if snap.state.value != "closed"
        )
        return "\n".join([
            f"items:    {self.submitted} submitted, {self.completed} "
            f"completed, {self.failed} failed",
            f"retries:  {self.retried} ({self.failovers} after worker death)",
            f"workers:  {self.live_workers} live, {self.worker_deaths} died, "
            f"{open_circuits} non-closed circuits",
            f"backlog:  {self.inflight} in flight, {self.parked} parked",
        ])


@dataclass
class _Inflight:
    """Book-keeping for one not-yet-resolved item.

    ``span`` is the item's ``cluster.item`` span when observability is
    enabled; it survives retries and failovers and is finished exactly
    once, at resolution.
    """

    item: WorkItem
    future: Future
    worker_id: str | None = None
    span: object = None


class Dispatcher:
    """Routes micro-batches across replicas with failover and retries.

    Parameters
    ----------
    worker_factory:
        Called as ``factory(worker_id, results_queue)`` to build each
        replica; used both at construction and by the autoscaler.
    num_workers:
        Initial replica count.
    router:
        Routing policy name (``"round-robin"`` / ``"consistent-hash"``) or a
        :class:`ShardRouter` instance.
    max_attempts:
        Total tries per item before its future fails.
    heartbeat_timeout_s:
        A worker whose heartbeat is older than this is declared dead.
    breaker_threshold / breaker_cooldown_s:
        Per-worker circuit breaker tuning.
    monitor_interval_s:
        Health-check cadence; pass 0 to disable the background monitor and
        drive :meth:`check_workers` manually (deterministic tests).
    obs:
        Optional :class:`~repro.obs.Observability`.  Each submitted batch
        then opens a ``cluster.item`` span (parented to the first
        request's trace or the caller's ambient context), with
        ``cluster.dispatch`` / ``cluster.execute`` / ``cluster.retry`` /
        ``cluster.failover`` children and modelled per-stage spans; worker
        cost reports are also published on the stage-event bus.
    faults:
        Chaos seam (:data:`~repro.chaos.faults.NULL_FAULTS` by default).
        ``dispatcher.outcome`` fires in the collector between fetching an
        outcome's in-flight entry and resolving it -- a stall there opens
        the race against the monitor's orphan path that the atomic
        pop-and-recheck below must win.
    """

    def __init__(self, worker_factory: Callable[[str, MpmcQueue], Worker],
                 num_workers: int = 2,
                 router: str | ShardRouter = "round-robin",
                 max_attempts: int = 3,
                 heartbeat_timeout_s: float = 2.0,
                 breaker_threshold: int = 3,
                 breaker_cooldown_s: float = 0.25,
                 monitor_interval_s: float = 0.02,
                 results_capacity: int = 4096,
                 obs=NULL_OBS, faults=NULL_FAULTS) -> None:
        if num_workers <= 0:
            raise ClusterError("num_workers must be positive")
        if max_attempts <= 0:
            raise ClusterError("max_attempts must be positive")
        self._factory = worker_factory
        self._router = make_router(router)
        self._max_attempts = max_attempts
        self._heartbeat_timeout_s = heartbeat_timeout_s
        self._breaker_threshold = breaker_threshold
        self._breaker_cooldown_s = breaker_cooldown_s
        self._faults = faults if faults is not None else NULL_FAULTS
        self._results: MpmcQueue[WorkOutcome] = MpmcQueue(
            results_capacity, faults=self._faults)
        self._lock = threading.RLock()
        self._workers: dict[str, Worker] = {}
        self._breakers: dict[str, CircuitBreaker] = {}
        self._retiring: set[str] = set()
        self._inflight: dict[int, _Inflight] = {}
        self._parked: deque[WorkItem] = deque()
        self._item_ids = itertools.count()
        self._worker_ids = itertools.count()
        self._submitted = 0
        self._completed = 0
        self._failed = 0
        self._retried = 0
        self._failovers = 0
        self._worker_deaths = 0
        self._closed = False
        self._autoscaler = None
        self._telemetry = None
        self._obs = obs if obs is not None else NULL_OBS
        self._completed_metric = self._obs.counter("cluster_completed_total")
        self._failed_metric = self._obs.counter("cluster_failed_total")
        self._retried_metric = self._obs.counter("cluster_retried_total")
        self._failover_metric = self._obs.counter("cluster_failovers_total")
        self._deaths_metric = self._obs.counter("cluster_worker_deaths_total")
        for _ in range(num_workers):
            self.add_worker()
        self._collector = threading.Thread(
            target=self._collect_loop, name="cluster-collector", daemon=True
        )
        self._collector.start()
        self._monitor: threading.Thread | None = None
        self._monitor_stop = threading.Event()
        if monitor_interval_s > 0:
            self._monitor = threading.Thread(
                target=self._monitor_loop, args=(monitor_interval_s,),
                name="cluster-monitor", daemon=True,
            )
            self._monitor.start()

    # ------------------------------------------------------------------
    # Pool management
    # ------------------------------------------------------------------
    @property
    def plan_key(self) -> str:
        """The plan every replica executes (from any live worker)."""
        with self._lock:
            for worker in self._workers.values():
                return worker.plan_key
        raise ClusterError("dispatcher has no workers")

    @property
    def results_queue(self) -> MpmcQueue:
        """The shared outcome queue (handed to worker factories)."""
        return self._results

    def attach_autoscaler(self, autoscaler) -> None:
        """Let the monitor thread drive ``autoscaler.evaluate()``."""
        self._autoscaler = autoscaler

    def attach_telemetry(self, sink) -> None:
        """Forward worker cost reports to ``sink`` on every heartbeat pass.

        ``sink`` is duck-typed with ``record_worker_report(report,
        source="cluster")`` (see
        :class:`~repro.adapt.telemetry.TelemetryCollector`).  Each
        :meth:`check_workers` pass -- the same cadence that watches
        heartbeats -- drains every live replica's accumulated per-stage
        costs (:meth:`~repro.cluster.worker.Worker.take_cost_report`) into
        the sink, so observed cluster costs reach the adaptive replanning
        loop without a second reporting channel.
        """
        self._telemetry = sink

    def _flush_cost_reports(self) -> None:
        if self._telemetry is None and not self._obs.enabled:
            return
        with self._lock:
            workers = list(self._workers.values())
        for worker in workers:
            try:
                report = worker.take_cost_report()
            except Exception:
                continue
            if report is None:
                continue
            if self._obs.enabled:
                for stage, seconds in report.stage_seconds.items():
                    subject = (report.model_name if stage == "inference"
                               else report.format_name)
                    self._obs.emit_stage(stage, subject,
                                         report.images_for(stage), seconds,
                                         source="cluster")
            if self._telemetry is None:
                continue
            try:
                self._telemetry.record_worker_report(report, source="cluster")
            except Exception:
                # Telemetry is advisory: a sink bug must not take the
                # health monitor down with it.
                continue

    def add_worker(self) -> str:
        """Grow the pool by one replica; returns its worker id."""
        with self._lock:
            if self._closed:
                raise ClusterError("cannot add a worker to a closed dispatcher")
            worker_id = f"worker-{next(self._worker_ids)}"
        # Build (and warm) the replica outside the lock: functional-session
        # warmup takes seconds, and submit/collect/monitor must not stall
        # on it -- scale-ups happen exactly when the pool is busiest.
        worker = self._factory(worker_id, self._results)
        if worker.worker_id != worker_id:
            raise ClusterError(
                "worker factory must honor the assigned worker id"
            )
        with self._lock:
            if self._closed:
                worker.close()
                raise ClusterError("cannot add a worker to a closed dispatcher")
            self._workers[worker_id] = worker
            self._breakers[worker_id] = CircuitBreaker(
                failure_threshold=self._breaker_threshold,
                cooldown_s=self._breaker_cooldown_s,
            )
            self._router.add_worker(worker_id)
            return worker_id

    def retire_worker(self) -> str | None:
        """Begin graceful retirement of the newest replica.

        The worker stops receiving new work immediately and is closed by the
        monitor once its accepted items have drained.  Returns the retired
        worker id, or None when no worker can be retired.
        """
        with self._lock:
            candidates = [wid for wid in self._workers
                          if wid not in self._retiring]
            if len(candidates) <= 1:
                return None
            worker_id = candidates[-1]
            self._retiring.add(worker_id)
            self._router.remove_worker(worker_id)
            return worker_id

    def live_workers(self) -> list[str]:
        """Ids of replicas currently routable (alive, not retiring)."""
        with self._lock:
            return [wid for wid, worker in self._workers.items()
                    if worker.alive and wid not in self._retiring]

    def queue_depths(self) -> dict[str, int]:
        """Accepted-but-uncompleted items per routable replica."""
        with self._lock:
            return {wid: worker.queue_depth()
                    for wid, worker in self._workers.items()
                    if worker.alive and wid not in self._retiring}

    def backlog(self) -> int:
        """Total queued work: per-worker depths plus parked items."""
        with self._lock:
            depth = sum(worker.queue_depth()
                        for wid, worker in self._workers.items()
                        if worker.alive)
            return depth + len(self._parked)

    def worker(self, worker_id: str) -> Worker:
        """Look up a live replica by id (for tests and fault injection)."""
        with self._lock:
            try:
                return self._workers[worker_id]
            except KeyError:
                raise ClusterError(f"unknown worker {worker_id!r}") from None

    # ------------------------------------------------------------------
    # Submission
    # ------------------------------------------------------------------
    def submit(self, requests: Sequence[InferenceRequest],
               shard_id: int = -1) -> Future:
        """Dispatch one micro-batch; the future resolves to a
        :class:`ClusterResult`."""
        if not requests:
            raise ClusterError("cannot submit an empty batch")
        span = None
        trace = None
        if self._obs.enabled:
            # Parent into the first request's trace when the serving layer
            # (or scan runner) opened one; otherwise the submitter's
            # ambient context, if any.
            parent = next(
                (request.trace for request in requests
                 if request.trace is not None), None,
            )
            span = self._obs.span("cluster.item", parent=parent,
                                  batch=len(requests), shard=shard_id)
            trace = span.context
        with self._lock:
            if self._closed:
                if span is not None:
                    span.set(error="ClusterError")
                    span.finish()
                raise ClusterError("cannot submit to a closed dispatcher")
            item = WorkItem(item_id=next(self._item_ids),
                            requests=tuple(requests), shard_id=shard_id,
                            trace=trace)
            future: Future = Future()
            self._inflight[item.item_id] = _Inflight(item=item, future=future,
                                                     span=span)
            self._submitted += 1
        if span is not None:
            span.set(item_id=item.item_id)
        self._dispatch(item)
        return future

    def _eligible(self, exclude: set[str] | None = None) -> list[str]:
        with self._lock:
            return [
                wid for wid, worker in self._workers.items()
                if worker.alive
                and wid not in self._retiring
                and (exclude is None or wid not in exclude)
                and self._breakers[wid].would_allow()
            ]

    def _dispatch(self, item: WorkItem,
                  exclude: set[str] | None = None) -> None:
        key = item.requests[0].image_id
        attempted: set[str] = set()
        while True:
            eligible = self._eligible(exclude)
            if not eligible and exclude:
                # Retrying on the excluded replica beats parking forever.
                eligible = self._eligible()
            eligible = [wid for wid in eligible if wid not in attempted]
            if not eligible:
                with self._lock:
                    if item.item_id in self._inflight:
                        self._inflight[item.item_id].worker_id = None
                        self._parked.append(item)
                return
            worker_id = self._router.route(key, eligible)
            with self._lock:
                worker = self._workers.get(worker_id)
                breaker = self._breakers.get(worker_id)
                if item.item_id not in self._inflight:
                    return  # resolved concurrently (duplicate outcome)
                if worker is not None:
                    self._inflight[item.item_id].worker_id = worker_id
            if worker is None or breaker is None or not breaker.allow():
                attempted.add(worker_id)
                continue
            try:
                worker.submit(item)
                if self._obs.enabled and item.trace is not None:
                    self._obs.record("cluster.dispatch", 0.0,
                                     parent=item.trace, worker=worker_id,
                                     attempt=item.attempts)
                return
            except ClusterError:
                attempted.add(worker_id)

    # ------------------------------------------------------------------
    # Collector
    # ------------------------------------------------------------------
    def _collect_loop(self) -> None:
        while True:
            try:
                outcome = self._results.get(timeout=0.1)
            except QueueClosed:
                return
            except Exception:
                continue
            try:
                self._handle_outcome(outcome)
            except Exception:
                # The collector must outlive any single bad outcome: a
                # re-dispatch failure here is retried by the monitor
                # (parked items) or surfaces at drain timeout.
                continue

    def _handle_outcome(self, outcome: WorkOutcome) -> None:
        with self._lock:
            entry = self._inflight.get(outcome.item_id)
            breaker = self._breakers.get(outcome.worker_id)
        # Chaos seam: a stall here holds the outcome in hand while the
        # monitor's orphan path may concurrently resolve the same item.
        self._faults.hit("dispatcher.outcome", item_id=outcome.item_id,
                         ok=outcome.ok, dispatcher=self)
        if entry is None:
            # Duplicate outcome for an item already resolved via failover
            # re-execution; the first resolution won.
            if breaker is not None and outcome.ok:
                breaker.record_success()
            return
        if outcome.ok:
            if breaker is not None:
                breaker.record_success()
            with self._lock:
                # Atomic pop-and-recheck: the monitor's orphan path (or a
                # failover re-execution) may have resolved this item since
                # the fetch above.  Only the thread that wins the pop may
                # count, trace, and resolve -- anything else would retire
                # the item twice and double-count telemetry.
                entry = self._inflight.pop(outcome.item_id, None)
                if entry is None:
                    return  # lost the race: the item already resolved
                self._completed += 1
            self._completed_metric.inc()
            if self._obs.enabled and outcome.trace is not None:
                self._trace_execution(entry, outcome)
            entry.future.set_result(ClusterResult(
                predictions=np.asarray(outcome.predictions, dtype=np.int64),
                modelled_seconds=outcome.modelled_seconds,
                worker_id=outcome.worker_id,
                shard_id=outcome.shard_id,
                attempts=outcome.attempts,
            ))
            return
        if breaker is not None:
            # The breaker has no "did this open it?" return; the
            # opened_count delta is the trip signal for the recorder.
            opened_before = breaker.snapshot().opened_count
            breaker.record_failure()
            if breaker.snapshot().opened_count > opened_before:
                self._obs.trip("circuit_open",
                               worker_id=outcome.worker_id,
                               error=outcome.error)
        if outcome.attempts >= self._max_attempts:
            with self._lock:
                # Same atomic pop-and-recheck as the success path: a
                # concurrent failover resolution must not be failed (or
                # counted) a second time.
                entry = self._inflight.pop(outcome.item_id, None)
                if entry is None:
                    return  # lost the race: the item already resolved
                self._failed += 1
            trace = outcome.trace
            self._obs.trip(
                "item_failed", item_id=outcome.item_id,
                attempts=outcome.attempts, error=outcome.error,
                trace_id=trace[0] if trace is not None else None,
            )
            self._failed_metric.inc()
            if entry.span is not None:
                entry.span.set(error=outcome.error,
                               attempts=outcome.attempts)
                entry.span.finish()
            entry.future.set_exception(ClusterError(
                f"item {outcome.item_id} failed after {outcome.attempts} "
                f"attempts: {outcome.error}"
            ))
            return
        with self._lock:
            entry = self._inflight.get(outcome.item_id)
            if entry is None:
                return  # resolved concurrently by a failover re-execution
            retried = entry.item.retried()
            entry.item = retried
            self._retried += 1
        self._retried_metric.inc()
        if self._obs.enabled and outcome.trace is not None:
            self._obs.record("cluster.retry", 0.0, parent=outcome.trace,
                             worker=outcome.worker_id,
                             attempt=outcome.attempts, error=outcome.error)
        self._dispatch(retried, exclude={outcome.worker_id})

    def _trace_execution(self, entry: _Inflight,
                         outcome: WorkOutcome) -> None:
        """Emit the modelled execute span (with stage children) and close
        the item span."""
        execute = self._obs.record(
            "cluster.execute", outcome.modelled_seconds,
            parent=outcome.trace, worker=outcome.worker_id,
            attempt=outcome.attempts,
        )
        for stage, seconds in outcome.stage_seconds:
            self._obs.record(f"stage.{stage}", seconds, parent=execute)
        if entry.span is not None:
            entry.span.set(worker=outcome.worker_id,
                           attempts=outcome.attempts,
                           modelled_seconds=outcome.modelled_seconds)
            entry.span.finish()

    # ------------------------------------------------------------------
    # Monitor
    # ------------------------------------------------------------------
    def _monitor_loop(self, interval_s: float) -> None:
        while not self._monitor_stop.wait(interval_s):
            try:
                self.check_workers()
                if self._autoscaler is not None:
                    self._autoscaler.evaluate()
            except Exception:
                continue

    def check_workers(self) -> list[str]:
        """One health pass: bury dead replicas, re-dispatch their work,
        finish graceful retirements, drain parked items.

        Returns the ids of workers declared dead in this pass.  Runs on the
        monitor thread normally, but is public so tests (or a disabled-
        monitor deployment) can drive health checks deterministically.
        """
        dead: list[Worker] = []
        finished_retiring: list[Worker] = []
        with self._lock:
            for worker_id, worker in list(self._workers.items()):
                if not worker.alive or \
                        worker.heartbeat_age() > self._heartbeat_timeout_s:
                    dead.append(worker)
                    del self._workers[worker_id]
                    self._retiring.discard(worker_id)
                    self._router.remove_worker(worker_id)
                    # The breaker dies with its replica: keeping it would
                    # pollute stats (and grow unboundedly) under churn.
                    del self._breakers[worker_id]
                    self._worker_deaths += 1
                elif worker_id in self._retiring \
                        and not worker.pending_items():
                    finished_retiring.append(worker)
                    del self._workers[worker_id]
                    self._retiring.discard(worker_id)
                    del self._breakers[worker_id]
        for worker in finished_retiring:
            worker.close()
        for _ in dead:
            self._deaths_metric.inc()
        orphans: list[WorkItem] = []
        for worker in dead:
            worker.kill()
            pending = worker.pending_items()
            orphans.extend(pending)
            # Dump before the orphans are resolved below, so their still-
            # open cluster.item spans land in the bundle as in-flight work.
            trace = next((item.trace for item in pending
                          if item.trace is not None), None)
            self._obs.trip(
                "worker_death", worker_id=worker.worker_id,
                orphans=len(pending),
                trace_id=trace[0] if trace is not None else None,
            )
        for item in orphans:
            with self._lock:
                entry = self._inflight.get(item.item_id)
                if entry is None:
                    continue  # outcome raced the death check; already done
                if item.attempts >= self._max_attempts:
                    self._inflight.pop(item.item_id, None)
                    self._failed += 1
                    self._failed_metric.inc()
                    if entry.span is not None:
                        entry.span.set(error="WorkerCrashedError",
                                       attempts=item.attempts)
                        entry.span.finish()
                    entry.future.set_exception(WorkerCrashedError(
                        f"item {item.item_id} lost to {item.attempts} "
                        "worker crashes"
                    ))
                    continue
                retried = item.retried()
                entry.item = retried
                self._failovers += 1
                self._retried += 1
            self._failover_metric.inc()
            self._retried_metric.inc()
            if self._obs.enabled and item.trace is not None:
                self._obs.record("cluster.failover", 0.0, parent=item.trace,
                                 worker=worker.worker_id,
                                 attempt=retried.attempts)
            self._dispatch(retried, exclude={worker.worker_id})
        self._drain_parked()
        self._flush_cost_reports()
        return [worker.worker_id for worker in dead]

    def _drain_parked(self) -> None:
        with self._lock:
            rounds = len(self._parked)
        # Bounded by the parked count at entry: an item _dispatch re-parks
        # (all circuits open, say) is not retried again in this pass.
        for _ in range(rounds):
            with self._lock:
                if not self._parked or not any(
                    worker.alive for wid, worker in self._workers.items()
                    if wid not in self._retiring
                ):
                    return
                item = self._parked.popleft()
                if item.item_id not in self._inflight:
                    continue
            self._dispatch(item)

    # ------------------------------------------------------------------
    # Stats / shutdown
    # ------------------------------------------------------------------
    def stats(self) -> DispatcherStats:
        """Snapshot of the dispatcher's counters."""
        with self._lock:
            return DispatcherStats(
                submitted=self._submitted,
                completed=self._completed,
                failed=self._failed,
                retried=self._retried,
                failovers=self._failovers,
                worker_deaths=self._worker_deaths,
                live_workers=len([
                    wid for wid, worker in self._workers.items()
                    if worker.alive and wid not in self._retiring
                ]),
                parked=len(self._parked),
                inflight=len(self._inflight),
                breakers={wid: breaker.snapshot()
                          for wid, breaker in self._breakers.items()},
            )

    def drain(self, timeout: float = 30.0) -> None:
        """Block until every submitted item has resolved (or time out)."""
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            self.check_workers()
            with self._lock:
                if not self._inflight:
                    return
            time.sleep(0.005)
        with self._lock:
            stuck = list(self._inflight.values())
        if stuck:
            raise NoHealthyWorkerError(
                f"{len(stuck)} items still unresolved after {timeout:.1f}s"
            )

    def close(self, timeout: float = 30.0) -> None:
        """Stop accepting work, drain in-flight items, shut everything down."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
        try:
            self.drain(timeout=timeout)
        except NoHealthyWorkerError:
            pass  # the stuck futures are failed below
        finally:
            # One last flush so costs observed since the final heartbeat
            # pass still reach the telemetry sink.
            self._flush_cost_reports()
            self._monitor_stop.set()
            if self._monitor is not None:
                self._monitor.join(timeout=5.0)
            with self._lock:
                workers = list(self._workers.values())
                self._workers.clear()
                self._retiring.clear()
                stuck = list(self._inflight.values())
                self._inflight.clear()
            for worker in workers:
                worker.close()
            for entry in stuck:
                if not entry.future.done():
                    entry.future.set_exception(ClusterError(
                        "dispatcher closed before the item resolved"
                    ))
            self._results.close()
            self._collector.join(timeout=5.0)

    def __enter__(self) -> "Dispatcher":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
