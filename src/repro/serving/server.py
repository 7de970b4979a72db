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
``tenants=`` / ``ladder=`` / ``tenant_slo=`` configure that route rather
than select another.

Both functional sessions (real pixels, real numpy model) and simulated
sessions (calibrated performance model) plug in unchanged, so the same load
generator drives correctness tests and accelerator-scale latency studies.

Besides point lookups, the server answers whole-corpus analytics queries
online: :meth:`SmolServer.query` accepts a declarative
:class:`~repro.query.spec.QuerySpec` (aggregation, limit, cascade) and
executes it on a dedicated pool of plan-warmed scan replicas without
blocking the serving loop.

The execution backend is pluggable: pass ``session=`` for the classic
single-session path, or ``cluster=`` (a
:class:`~repro.cluster.dispatcher.Dispatcher`) to fan micro-batches out
across a replica pool.  In cluster mode the one serving lane hands each
micro-batch to the dispatcher asynchronously and keeps batching while
replicas execute in parallel, so one slow batch no longer serializes the
pipeline.  The server borrows the dispatcher -- the caller closes it.

Batching is work-conserving on either backend: a partial batch is held
open (up to ``max_wait_ms``) only while every executor slot has a batch
outstanding -- never by a session lane, which asks only when it is idle.
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
    spec); ``downgrades`` counts batches the deadline ladder moved to a
    cheaper plan.
    """

    class_latency: dict[str, LatencySummary]
    class_served: dict[str, int]
    quotas: dict
    downgrades: int

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
        lines.append(f"downgrades  {self.downgrades}")
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
    queries: int = 0
    tenants: TenantServingStats | None = None

    def describe(self) -> str:
        """Multi-line human-readable summary."""
        lines = [
            f"requests:   {self.submitted} submitted, {self.completed} "
            f"completed ({self.cache_hits} cached), {self.rejected} rejected, "
            f"{self.cancelled} cancelled",
            f"batches:    {self.batcher.batches} "
            f"(mean size {self.batcher.mean_batch_size:.1f}, "
            f"{self.batcher.full_batches} full / "
            f"{self.batcher.timeout_batches} timed out, "
            f"held {self.batcher.hold_s * 1000.0:.1f} ms)",
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
        if self.queries:
            lines.append(f"queries:    {self.queries} analytics queries")
        if self.tenants is not None:
            lines.append(self.tenants.describe())
        return "\n".join(lines)


class SmolServer:
    """Thread-based online inference server over a plan session.

    Parameters
    ----------
    session:
        The initial engine session (or a prebuilt :class:`SessionManager`),
        served on its ``streams`` lanes.  Mutually exclusive with ``cluster``.
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
    cluster:
        A :class:`~repro.cluster.dispatcher.Dispatcher` to execute
        micro-batches on instead of a local session.  The dispatcher's
        replicas must all run the plan the server advertises
        (``cluster.plan_key``).  The server does not close the dispatcher.
    store:
        Optional :class:`~repro.store.store.RenditionStore`.  Analytics
        queries answered via :meth:`query` then warm their scan sessions
        from the store (repeat queries hit persisted score tables instead
        of rescanning) and are planned cache-aware against the store's
        materialized renditions.
    telemetry:
        Optional :class:`~repro.adapt.telemetry.TelemetryCollector`.  Every
        executed micro-batch (session mode) is then reported with its
        per-stage costs, feeding the adaptive replanning loop
        (:mod:`repro.adapt`).  In cluster mode the dispatcher reports
        worker costs itself (``Dispatcher.attach_telemetry``).
    obs:
        Optional :class:`~repro.obs.Observability`.  Each submitted request
        then opens a ``serving.request`` span (parented to the caller's
        ambient trace context, if any), executed micro-batches emit
        ``serving.batch`` spans with modelled per-stage child spans, and
        stage costs are published on the stage-event bus.  The default
        :data:`~repro.obs.NULL_OBS` keeps the hot loop allocation-free.
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
    ladder:
        Optional :class:`~repro.tenant.deadline.PlanLadder`.  Before each
        session-mode batch executes, the ladder is consulted with the
        batch's tightest remaining deadline budget and may substitute a
        cheaper pre-warmed plan rendition rather than knowingly miss the
        deadline.
    tenant_slo:
        Optional :class:`~repro.tenant.slo.TenantSloBoard`.  Every
        resolved or failed request is then also observed on its tenant's
        own burn-rate board (the shared ``slo`` engine keeps tracking the
        aggregate).
    """

    def __init__(self, session: EngineSession | SessionManager | None = None,
                 policy: BatchPolicy | None = None,
                 queue_capacity: int = 256,
                 cache_capacity: int = 2048,
                 block_on_full: bool = True,
                 cluster=None, store=None, telemetry=None,
                 obs=NULL_OBS, slo=None, faults=NULL_FAULTS,
                 tenants=None, ladder=None, tenant_slo=None) -> None:
        if (session is None) == (cluster is None):
            raise ServingError(
                "provide exactly one of session= or cluster="
            )
        self._cluster = cluster
        # The cluster's plan is immutable for the server's lifetime; cache
        # the key so the per-submit cache lookup never touches the
        # dispatcher's lock.
        self._cluster_plan_key = cluster.plan_key if cluster else None
        self._sessions: SessionManager | None
        if session is None:
            self._sessions = None
        elif isinstance(session, SessionManager):
            self._sessions = session
        else:
            self._sessions = SessionManager(session)
        self._policy = policy or BatchPolicy.latency()
        self._obs = obs if obs is not None else NULL_OBS
        self._faults = faults if faults is not None else NULL_FAULTS
        self._tenants = tenants
        self._ladder = ladder
        self._tenant_slo = tenant_slo
        if tenant_slo is not None:
            tenant_slo.attach(self._obs)
        if ladder is not None and cluster is not None:
            raise ServingError(
                "the deadline ladder applies to session-backed servers"
            )
        # One lane per session stream; a cluster's replicas are its lanes.
        self._streams = self._sessions.lanes if cluster is None else 1
        for rung in ladder.rungs if ladder is not None else ():
            self._sessions.check(rung.session)
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
        self._queries = 0
        self._store = store
        self._telemetry = telemetry
        self._slo = slo
        if slo is not None:
            slo.attach(self._obs)
        self._query_engine = None
        self._closed = False
        self._outstanding = 0
        self._outstanding_drained = threading.Condition(self._counters_lock)
        self._lanes = [threading.Thread(target=self._serve_loop,
                                        name=f"smol-serve-{i}", daemon=True)
                       for i in range(self._streams)]
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
    def telemetry(self):
        """The attached runtime telemetry collector, or None."""
        return self._telemetry

    @property
    def sessions(self) -> SessionManager:
        """The session manager (for plan hot-swaps); session mode only."""
        if self._sessions is None:
            raise ServingError(
                "a cluster-backed server has no session manager"
            )
        return self._sessions

    @property
    def clustered(self) -> bool:
        """True when micro-batches execute on a cluster dispatcher."""
        return self._cluster is not None

    def _plan_key(self) -> str:
        """The plan key of the active backend (session or cluster)."""
        if self._sessions is not None:
            return self._sessions.current().plan_key
        return self._cluster_plan_key

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
            plan_key = self._plan_key()
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

    def query(self, spec, num_workers: int = 1, seed: int = 0,
              engine=None) -> Future:
        """Answer one analytics query online; resolves to its result.

        ``spec`` is a :class:`~repro.query.spec.QuerySpec` and the future
        resolves to the matching result type of
        :class:`~repro.query.engine.QueryEngine`.  The query runs on its own
        daemon thread against a dedicated pool of ``num_workers`` plan-warmed
        scan replicas -- analytics scans need scan sessions, not the serving
        plan's classification replicas, so the server's own backend keeps
        serving point requests untouched while the query executes.

        Pass ``engine`` (a prebuilt :class:`QueryEngine`) to control frame
        limits and batch sizes; one default engine is built lazily and
        reused across queries otherwise.
        """
        if self._closed:
            raise ServingError("cannot query a closed server")
        if engine is None:
            with self._counters_lock:
                engine = self._query_engine
            if engine is None:
                # Build outside the lock: engine construction is slow and
                # _counters_lock sits on the request hot path.  First
                # finished build wins; a concurrent loser is discarded.
                # Cost queries against the same modelled hardware as the
                # serving session when it exposes one (simulated sessions
                # do); otherwise fall back to the engine default.
                from repro.query.engine import QueryEngine

                performance_model = None
                if self._sessions is not None:
                    performance_model = (
                        self._sessions.current().performance_model)
                built = QueryEngine(performance_model=performance_model,
                                    store=self._store, obs=self._obs)
                with self._counters_lock:
                    if self._query_engine is None:
                        self._query_engine = built
                    engine = self._query_engine
        future: Future = Future()
        # The query runs on its own thread; capture the submitter's ambient
        # trace context here so the query's spans parent into it.
        parent_ctx = self._obs.current() if self._obs.enabled else None

        def run() -> None:
            if not future.set_running_or_notify_cancel():
                return
            span = None
            if self._obs.enabled:
                span = self._obs.span("serving.query", parent=parent_ctx,
                                      kind=spec.kind, dataset=spec.dataset)
            try:
                with self._obs.activate(span.context if span else None):
                    result = engine.execute(spec, num_workers=num_workers,
                                            seed=seed)
            except Exception as exc:
                if span is not None:
                    span.set(error=type(exc).__name__)
                    span.finish()
                future.set_exception(
                    ServingError(f"analytics query failed: {exc}")
                )
                return
            if span is not None:
                span.finish()
            with self._counters_lock:
                self._queries += 1
            future.set_result(result)

        threading.Thread(target=run, name="smol-query", daemon=True).start()
        return future

    def swap_plan(self, session: EngineSession) -> None:
        """Hot-swap the live plan session (in-flight batches finish first).

        A session declaring fewer ``streams`` than the server has lanes is
        refused (:meth:`SessionManager.check`): it is never entered from
        two lanes at once.
        """
        if self._sessions is None:
            raise ServingError(
                "plan swaps apply to session-backed servers; rebuild the "
                "cluster's workers to change plans"
            )
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
            queries = self._queries
        return ServerStats(
            submitted=submitted,
            completed=completed,
            executed=executed,
            cache_hits=cache_hits,
            rejected=self._scheduler.stats()["rejected"],
            cancelled=cancelled,
            deadline_missed=deadline_missed,
            errors=errors,
            plan_swaps=self._sessions.swaps if self._sessions else 0,
            latency=self._latency.summary(),
            batcher=self._scheduler.batch_stats(),
            cache=self._cache.stats() if self._cache is not None else None,
            queries=queries,
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
            downgrades=(self._ladder.downgrades
                        if self._ladder is not None else 0),
        )

    def close(self, timeout: float = 30.0) -> None:
        """Stop accepting requests, drain the queue, and join every lane.

        In cluster mode this also waits for every micro-batch already handed
        to the dispatcher to resolve (the dispatcher itself stays open).
        """
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
        with self._outstanding_drained:
            if not self._outstanding_drained.wait_for(
                lambda: self._outstanding == 0, timeout=timeout
            ):
                raise ServingError(
                    "cluster batches did not resolve in time"
                )

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
            # The one hold rule: a partial batch waits only while every
            # executor slot has a batch outstanding -- never for a session
            # (this lane executes it, and is idle whenever it asks), per
            # live replica for a cluster (counted here: ``busy`` runs under
            # the scheduler's lock).
            slots = len(self._cluster.live_workers()) if self._cluster else 1
            try:
                batch = self._scheduler.next_batch(
                    busy=lambda: self._outstanding >= slots)
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
        if self._cluster is not None:
            self._dispatch_to_cluster(batch)
            return
        session = self._sessions.current()
        if self._ladder is not None:
            session = self._ladder.select(
                session, self._batch_budget(batch), len(batch))
        try:
            result = session.execute([item.request for item in batch])
        except Exception as exc:
            self._fail_batch(batch, exc)
            return
        if self._telemetry is not None:
            # Record before resolving so a client that awaited this batch
            # observes its telemetry too.  Telemetry is advisory: a
            # collector bug must not take the serving loop (and every
            # pending future) down with it.  Tenant batches report under a
            # per-class source so the adaptive layer sees each class's
            # cost stream separately.
            source = (f"serving/{batch_class}" if self._tenants is not None
                      else "serving")
            try:
                self._telemetry.record_session_batch(session, result,
                                                     source=source)
            except Exception:
                pass
        if self._obs.enabled:
            self._trace_session_batch(batch, session, result)
        self._resolve_batch(batch, result.predictions,
                            result.modelled_seconds, session.plan_key)

    def _trace_session_batch(self, batch: list[_Pending], session,
                             result) -> None:
        """Emit the batch span, modelled stage spans, and stage events."""
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
        stage_seconds = result.stage_seconds or {}
        for stage, seconds in stage_seconds.items():
            if batch_span is not None:
                self._obs.record(f"stage.{stage}", seconds,
                                 parent=batch_span)
            subject = (session.model_name if stage == "inference"
                       else session.format_name)
            self._obs.emit_stage(stage, subject, len(batch), seconds,
                                 source="serving")

    def _dispatch_to_cluster(self, batch: list[_Pending]) -> None:
        # Hand the batch to the dispatcher and return to batching; the
        # done-callback (a dispatcher thread) resolves the futures, so
        # replicas execute in parallel with batch formation.
        plan_key = self._cluster_plan_key
        with self._counters_lock:
            self._outstanding += 1
        try:
            cluster_future = self._cluster.submit(
                [item.request for item in batch]
            )
        except Exception as exc:
            self._finish_outstanding()
            self._fail_batch(batch, exc)
            return
        cluster_future.add_done_callback(
            lambda done: self._on_cluster_batch(batch, plan_key, done)
        )

    def _on_cluster_batch(self, batch: list[_Pending], plan_key: str,
                          done) -> None:
        try:
            error = done.exception()
            if error is not None:
                self._fail_batch(batch, error)
                return
            result = done.result()
            self._resolve_batch(batch, result.predictions,
                                result.modelled_seconds, plan_key)
        finally:
            self._finish_outstanding()

    def _finish_outstanding(self) -> None:
        with self._outstanding_drained:
            self._outstanding -= 1
            if self._outstanding == 0:
                self._outstanding_drained.notify_all()
        # A replica freed: a batch held for it ships now, not at the bound.
        self._scheduler.wake()

    def _batch_budget(self, batch: list[_Pending]) -> float | None:
        """Tightest remaining deadline across ``batch`` (None: no deadlines)."""
        now = monotonic()
        budget = None
        for item in batch:
            deadline = item.request.deadline_s
            if deadline is None:
                continue
            remaining = item.request.arrival_s + deadline - now
            if budget is None or remaining < budget:
                budget = remaining
        return budget

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
            if self._tenant_slo is not None and item.tenant:
                self._tenant_slo.observe(item.tenant,
                                         item.request.age(monotonic()),
                                         error=True)
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
        if self._tenant_slo is not None and item.tenant:
            self._tenant_slo.observe(item.tenant, latency, error=missed)
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
