"""The SmolServer facade: an online serving loop over the batch engine.

Requests enter through :meth:`SmolServer.submit`, which returns a
:class:`concurrent.futures.Future` resolving to an
:class:`~repro.serving.request.InferenceResponse`.  Internally each serving
lane (one per ``EngineSession.streams``) pulls micro-batches from the
scheduler and executes each on the live plan session (a functional session
preprocesses the whole batch on its compiled fused kernel):

    submit() -> cache? -> DrrScheduler -> EngineSession (FusedKernel -> model)
                   |                                 |
                hit: resolve immediately   resolve futures, fill cache

There is one route: a server without ``tenants=`` runs the same scheduler
with a single weight-1 class (exactly a FIFO micro-batcher), and
``tenants=`` configures that route rather than selects another.

There is one execution path too.  Every backend is an engine session run
the same way by the lanes: functional sessions (real pixels, real numpy
model), simulated sessions (calibrated performance model), and a replica
pool -- a :class:`~repro.cluster.dispatcher.Dispatcher` served as a
:class:`~repro.cluster.dispatcher.ClusterSession`, one lane per replica,
each submitting its batch and waiting for the result.  A lane asks for a
batch only when it is idle, so batching is work-conserving and nothing is
ever held open.
"""

from __future__ import annotations

import threading
import time
from concurrent.futures import Future
from dataclasses import dataclass

from repro.chaos.faults import NULL_FAULTS
from repro.errors import ServingError
from repro.obs import NULL_OBS
from repro.obs.metrics import LatencyRecorder, LatencySummary
from repro.serving.cache import CacheStats, PredictionCache
from repro.serving.request import InferenceRequest, InferenceResponse, monotonic
from repro.serving.scheduler import (
    BatcherStats,
    BatchPolicy,
    ClassBatch,
    ClassPolicy,
    DrrScheduler,
)
from repro.serving.session import EngineSession, SessionManager


#: The one class every request of a server without ``tenants=`` queues in.
_SOLE_CLASS = ClassPolicy("default", weight=1.0, rank=0)


@dataclass(frozen=True)
class _Pending:
    """One admitted request waiting for its micro-batch.

    ``span`` is the request's ``serving.request`` span when observability
    is enabled (None otherwise); it is finished at resolution time.
    ``class_name`` is the scheduler class the request queues in;
    ``tenant`` is the multi-tenant accounting identity (the resolved spec
    name, not the raw request tenant, so strangers sharing the default
    spec share its books); ``gated`` marks requests holding a quota
    in-flight slot that must be released exactly once.
    """

    request: InferenceRequest
    future: Future
    span: object = None
    tenant: str = ""
    class_name: str = _SOLE_CLASS.name
    gated: bool = False


@dataclass(frozen=True)
class TenantServingStats:
    """Per-class and per-tenant counters of a multi-tenant server.

    ``class_latency`` / ``class_served`` are keyed by priority class;
    ``quotas`` is keyed by tenant spec name (including the default
    spec).
    """

    class_latency: dict[str, LatencySummary]
    class_served: dict[str, int]
    quotas: dict

    def describe(self) -> str:
        """Multi-line per-class / per-tenant summary."""
        lines = []
        for name in self.class_latency:
            summary = self.class_latency[name]
            lines.append(
                f"class {name:<12} served {self.class_served.get(name, 0):>6}"
                f"  {summary.describe()}")
        for name, quota in sorted(self.quotas.items()):
            lines.append(
                f"tenant {name:<11} admitted {quota.admitted:>6}, "
                f"throttled {quota.throttled} "
                f"(rate {quota.throttled_rate} / "
                f"in-flight {quota.throttled_in_flight})")
        return "\n".join(lines)


@dataclass(frozen=True)
class ServerStats:
    """Snapshot of the server's lifetime counters."""

    submitted: int
    completed: int
    executed: int
    cache_hits: int
    rejected: int
    cancelled: int
    deadline_missed: int
    errors: int
    plan_swaps: int
    latency: LatencySummary
    batcher: BatcherStats
    cache: CacheStats | None
    tenants: TenantServingStats | None = None

    def describe(self) -> str:
        """Multi-line human-readable summary."""
        lines = [
            f"requests:   {self.submitted} submitted, {self.completed} "
            f"completed ({self.cache_hits} cached), {self.rejected} rejected, "
            f"{self.cancelled} cancelled",
            f"batches:    {self.batcher.batches} "
            f"(mean size {self.batcher.mean_batch_size:.1f}, "
            f"{self.batcher.full_batches} full)",
            f"latency:    {self.latency.describe()}",
            f"deadlines:  {self.deadline_missed} missed",
            f"plan swaps: {self.plan_swaps}",
        ]
        if self.cache is not None:
            lines.append(
                f"cache:      {self.cache.hits}/{self.cache.hits + self.cache.misses} "
                f"hits ({self.cache.hit_rate * 100:.1f}%), "
                f"{self.cache.size}/{self.cache.capacity} entries"
            )
        if self.tenants is not None:
            lines.append(self.tenants.describe())
        return "\n".join(lines)


class SmolServer:
    """Thread-based online inference server over a plan session.

    Parameters
    ----------
    session:
        The initial engine session (or a prebuilt :class:`SessionManager`),
        served on its ``streams`` lanes.
    policy:
        Micro-batching policy; defaults to the latency preset.
    queue_capacity:
        Bound on admitted-but-unbatched requests (backpressure depth);
        with ``tenants=`` the bound applies to each priority class.
    cache_capacity:
        Prediction cache entries; 0 disables caching.
    block_on_full:
        Default admission behavior at capacity: block the submitter (True)
        or shed the request with :class:`AdmissionError` (False).  Each
        ``submit`` call may override.
    obs:
        Optional :class:`~repro.obs.Observability`.  Each submitted request
        then opens a ``serving.request`` span (parented to the caller's
        ambient trace context, if any), executed micro-batches emit
        ``serving.batch`` spans with modelled per-stage child spans, and
        the session's stage events are published on the stage-event bus
        (source ``serving``, or ``serving/<class>`` with ``tenants=``) --
        where the adaptive loop (:mod:`repro.adapt`) reads them
        (:meth:`~repro.serving.session.EngineSession.stage_events`; a
        cluster session has none, its dispatcher publishes under
        ``cluster``).  The default :data:`~repro.obs.NULL_OBS` keeps the
        hot loop allocation-free.
    slo:
        Optional :class:`~repro.obs.slo.SloEngine`.  Every resolved
        request is then observed (latency + deadline verdict) and every
        failed request counts as an error, so the engine's burn-rate
        windows track exactly what the server promised.  Call
        ``slo.evaluate()`` periodically (e.g. between loadgen waves) to
        fire alerts.
    faults:
        Chaos seam handle (:data:`~repro.chaos.faults.NULL_FAULTS` by
        default), threaded into the scheduler (``serving.admit`` /
        ``serving.batch``).
    tenants:
        Optional :class:`~repro.tenant.spec.TenantConfig`.  When set the
        server runs multi-tenant: every submit is charged against its
        tenant's admission quota (:class:`~repro.tenant.quota.QuotaGate`)
        and queued under its priority class, and the scheduler shares
        micro-batch capacity between the config's classes by weight.
        Requests without a deadline inherit their class's default.
    """

    def __init__(self, session: EngineSession | SessionManager,
                 policy: BatchPolicy | None = None,
                 queue_capacity: int = 256,
                 cache_capacity: int = 2048,
                 block_on_full: bool = True,
                 obs=NULL_OBS, slo=None,
                 faults=NULL_FAULTS, tenants=None) -> None:
        self._sessions = (session if isinstance(session, SessionManager)
                          else SessionManager(session))
        self._policy = policy or BatchPolicy.latency()
        self._obs = obs if obs is not None else NULL_OBS
        self._faults = faults if faults is not None else NULL_FAULTS
        self._tenants = tenants
        # Tenants configure the one request path: their classes replace
        # the sole class, a quota gate sits in front of admission, and
        # per-class books are kept (tenant_stats).
        tenant_classes = tenants.classes if tenants is not None else ()
        self._gate = tenants.quota_gate() if tenants is not None else None
        self._scheduler: DrrScheduler[_Pending] = DrrScheduler(
            tenant_classes or (_SOLE_CLASS,), self._policy,
            capacity=queue_capacity, obs=self._obs, faults=self._faults,
        )
        self._class_latency = {c.name: LatencyRecorder()
                               for c in tenant_classes}
        self._class_served = {c.name: 0 for c in tenant_classes}
        self._latency_metric = self._obs.histogram("serving_latency_seconds")
        self._completed_metric = self._obs.counter("serving_completed_total")
        self._cache_hits_metric = self._obs.counter("serving_cache_hits_total")
        self._cache = (PredictionCache(cache_capacity)
                       if cache_capacity > 0 else None)
        self._block_on_full = block_on_full
        self._latency = LatencyRecorder()
        self._counters_lock = threading.Lock()
        self._submitted = 0
        self._completed = 0
        self._executed = 0
        self._cache_hits = 0
        self._deadline_missed = 0
        self._errors = 0
        self._cancelled = 0
        self._slo = slo
        if slo is not None:
            slo.attach(self._obs)
        self._closed = False
        # One lane per stream the session declares.
        self._lanes = [threading.Thread(target=self._serve_loop,
                                        name=f"smol-serve-{i}", daemon=True)
                       for i in range(self._sessions.lanes)]
        for lane in self._lanes:
            lane.start()

    # ------------------------------------------------------------------
    # Client API
    # ------------------------------------------------------------------
    @property
    def policy(self) -> BatchPolicy:
        """The active micro-batching policy."""
        return self._policy

    @property
    def sessions(self) -> SessionManager:
        """The session manager (for plan hot-swaps)."""
        return self._sessions

    def submit(self, request: InferenceRequest,
               block: bool | None = None) -> Future:
        """Submit one request; the future resolves to an InferenceResponse.

        Cache hits resolve before this call returns.  At queue capacity the
        call blocks (``block=True``) or raises
        :class:`~repro.errors.AdmissionError` (``block=False``).
        """
        if self._closed:
            raise ServingError("cannot submit to a closed server")
        with self._counters_lock:
            self._submitted += 1
        span = None
        if self._obs.enabled:
            # Parents to the caller's ambient context (one traced workload
            # becomes one connected tree); a bare submit starts a new trace.
            span = self._obs.span("serving.request",
                                  image_id=request.image_id,
                                  format=request.format_name)
            request.trace = span.context
        tenant_name = ""
        class_name = _SOLE_CLASS.name
        if self._tenants is not None:
            # Resolve the accounting identity up front so cache hits and
            # queue rejections are attributed too.  Unknown tenants share
            # the default spec's books (TenantConfig.resolve).
            spec = self._tenants.resolve(request.tenant)
            tenant_name = spec.name
            class_name = spec.priority
            if request.deadline_s is None:
                policy = self._tenants.policy(class_name)
                request.deadline_s = policy.default_deadline_s
            if span is not None:
                span.set(tenant=tenant_name, priority=class_name)
        future: Future = Future()
        if self._cache is not None:
            plan_key = self._sessions.current().plan_key
            key = PredictionCache.key(request.image_id, request.format_name,
                                      plan_key)
            hit = self._cache.get(key)
            if hit is not None:
                self._resolve(
                    _Pending(request, future, span,
                             tenant=tenant_name, class_name=class_name),
                    prediction=hit, batch_size=0, cached=True,
                    plan_key=plan_key, modelled_seconds=0.0,
                )
                return future
        should_block = self._block_on_full if block is None else block
        gated = False
        try:
            if self._gate is not None:
                # Quota first: a throttled request must not consume queue
                # space.  A successful admit is paired with exactly one
                # release at resolution, failure, or cancellation.
                self._gate.admit(tenant_name)
                gated = True
            self._scheduler.admit(
                _Pending(request, future, span, tenant=tenant_name,
                         class_name=class_name, gated=gated),
                block=should_block)
        except Exception as exc:
            if gated:
                self._gate.release(tenant_name)
            if span is not None:
                span.set(rejected=True, error=type(exc).__name__)
                span.finish()
            raise
        return future

    def swap_plan(self, session: EngineSession) -> None:
        """Hot-swap the live plan session (in-flight batches finish first).

        A session declaring fewer ``streams`` than the server has lanes is
        refused (:meth:`SessionManager.check`): it is never entered from
        two lanes at once.
        """
        self._sessions.swap(session)

    def stats(self) -> ServerStats:
        """Snapshot of all serving counters."""
        with self._counters_lock:
            submitted = self._submitted
            completed = self._completed
            executed = self._executed
            cache_hits = self._cache_hits
            deadline_missed = self._deadline_missed
            errors = self._errors
            cancelled = self._cancelled
        return ServerStats(
            submitted=submitted,
            completed=completed,
            executed=executed,
            cache_hits=cache_hits,
            rejected=self._scheduler.stats()["rejected"],
            cancelled=cancelled,
            deadline_missed=deadline_missed,
            errors=errors,
            plan_swaps=self._sessions.swaps,
            latency=self._latency.summary(),
            batcher=self._scheduler.batch_stats(),
            cache=self._cache.stats() if self._cache is not None else None,
            tenants=self.tenant_stats(),
        )

    def tenant_stats(self) -> TenantServingStats | None:
        """Per-class / per-tenant counters; None for single-tenant servers."""
        if self._tenants is None:
            return None
        with self._counters_lock:
            served = dict(self._class_served)
        return TenantServingStats(
            class_latency={name: recorder.summary()
                           for name, recorder in self._class_latency.items()},
            class_served=served,
            quotas=self._gate.stats(),
        )

    def close(self, timeout: float = 30.0) -> None:
        """Stop accepting requests, drain the queue, and join every lane."""
        if self._closed:
            return
        self._closed = True
        self._scheduler.close()
        deadline = monotonic() + timeout
        for lane in self._lanes:
            lane.join(timeout=max(0.0, deadline - monotonic()))
        alive = sum(lane.is_alive() for lane in self._lanes)
        if alive:
            raise ServingError(f"{alive} of {len(self._lanes)} serving lanes "
                               "did not drain in time")

    def __enter__(self) -> "SmolServer":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ------------------------------------------------------------------
    # Serving loop
    # ------------------------------------------------------------------
    def _serve_loop(self) -> None:
        failures = 0
        while True:
            # This lane executes the batch it asks for, so it asks only when
            # idle and takes whatever queued meanwhile.
            try:
                batch = self._scheduler.next_batch()
            except Exception:
                # A failure forming a batch (injected or organic) must not
                # take the serving thread down: the ``serving.batch`` seam
                # fires before any dequeue, so retrying loses nothing.  Back
                # off, or a persistent one spins a core; after 8 in a row a
                # closed server stops draining, or close() never returns.
                failures += 1
                self._obs.note("serving.batcher_failed", consecutive=failures)
                if self._closed and failures > 8:
                    return
                time.sleep(min(0.1, 0.002 * failures))
                continue
            failures = 0
            if batch is None:
                return
            if not batch:
                continue
            self._execute_batch(batch)

    def _execute_batch(self, batch: ClassBatch) -> None:
        # Transition every future to RUNNING first: once running, a client
        # cancel() can no longer win the race against set_result below.
        live = []
        dropped = 0
        for item in batch:
            if item.future.set_running_or_notify_cancel():
                live.append(item)
            else:
                dropped += 1
                self._release_gate(item)
        if dropped:
            with self._counters_lock:
                self._cancelled += dropped
        if not live:
            return
        batch_class = batch.class_name
        batch = live
        session = self._sessions.current()
        try:
            result = session.execute([item.request for item in batch])
        except Exception as exc:
            self._fail_batch(batch, exc)
            return
        if self._obs.enabled:
            # Emitted before resolving, so a client that awaited this batch
            # observes its stage events too.
            self._trace_session_batch(batch, batch_class, session, result)
        self._resolve_batch(batch, result.predictions,
                            result.modelled_seconds, session.plan_key)

    def _trace_session_batch(self, batch: list[_Pending], batch_class: str,
                             session, result) -> None:
        """Emit the batch span, modelled stage spans, and stage events.

        Tenant batches publish under ``serving/<class>``: the per-class
        split shows in ``stage_seconds_total{source=...}``.
        """
        source = (f"serving/{batch_class}" if self._tenants is not None
                  else "serving")
        parent = next(
            (item.request.trace for item in batch
             if item.request.trace is not None), None,
        )
        batch_span = None
        if parent is not None:
            batch_span = self._obs.record(
                "serving.batch", result.modelled_seconds, parent=parent,
                size=len(batch), plan=session.plan_key,
            )
        for event in session.stage_events(result, len(batch), source):
            if batch_span is not None:
                self._obs.record(f"stage.{event.stage}", event.seconds,
                                 parent=batch_span)
            self._obs.emit_stage(event.stage, event.subject, event.images,
                                 event.seconds, source=event.source)

    def _release_gate(self, item: _Pending) -> None:
        """Return the item's quota in-flight slot, if it holds one."""
        if item.gated and self._gate is not None:
            self._gate.release(item.tenant)

    def _fail_batch(self, batch: list[_Pending], exc: BaseException) -> None:
        with self._counters_lock:
            self._errors += len(batch)
        self._obs.note("serving.batch_failed", error=type(exc).__name__,
                       requests=len(batch))
        for item in batch:
            self._release_gate(item)
            if item.span is not None:
                item.span.set(error=type(exc).__name__)
                item.span.finish()
            if self._slo is not None:
                self._slo.observe(item.request.age(monotonic()), error=True)
            item.future.set_exception(
                ServingError(f"batch execution failed: {exc}")
            )

    def _resolve_batch(self, batch: list[_Pending], predictions,
                       modelled_seconds: float, plan_key: str) -> None:
        for item, prediction in zip(batch, predictions):
            if self._cache is not None:
                self._cache.put(
                    PredictionCache.key(item.request.image_id,
                                        item.request.format_name,
                                        plan_key),
                    int(prediction),
                )
            self._resolve(
                item, prediction=int(prediction), batch_size=len(batch),
                cached=False, plan_key=plan_key,
                modelled_seconds=modelled_seconds,
            )

    def _resolve(self, item: _Pending, prediction: int, batch_size: int,
                 cached: bool, plan_key: str,
                 modelled_seconds: float) -> None:
        # Simulated sessions execute in microseconds but model accelerator
        # service time; fold it into the reported latency so both modes
        # produce comparable distributions.
        latency = item.request.age(monotonic()) + modelled_seconds
        missed = (item.request.deadline_s is not None
                  and latency > item.request.deadline_s)
        self._release_gate(item)
        response = InferenceResponse(
            request_id=item.request.request_id,
            image_id=item.request.image_id,
            prediction=prediction,
            latency_s=latency,
            batch_size=batch_size,
            cached=cached,
            deadline_missed=missed,
            plan_key=plan_key,
        )
        self._latency.record(latency)
        self._latency_metric.observe(latency)
        if item.class_name in self._class_latency:
            self._class_latency[item.class_name].record(latency)
            with self._counters_lock:
                self._class_served[item.class_name] += 1
        if self._slo is not None:
            self._slo.observe(latency, error=missed)
        self._completed_metric.inc()
        if cached:
            self._cache_hits_metric.inc()
        if item.span is not None:
            item.span.set(cached=cached, batch_size=batch_size,
                          latency_ms=latency * 1000.0, plan=plan_key,
                          deadline_missed=missed)
            item.span.finish()
        with self._counters_lock:
            self._completed += 1
            if cached:
                self._cache_hits += 1
            else:
                self._executed += 1
            if missed:
                self._deadline_missed += 1
        item.future.set_result(response)
