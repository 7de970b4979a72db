"""The chaos runner: execute one scenario, check every invariant.

One :meth:`ChaosRunner.run` call executes up to eight passes, all derived
from a single :class:`~repro.chaos.scenario.Scenario`:

1. **reference** -- the scenario's items through an unfaulted serial
   session (the ground truth the faulted cluster must match bit-for-bit);
2. **queue probe** (minority of seeds) -- a contended
   :class:`~repro.inference.mpmc.MpmcQueue` under a spurious-wakeup storm,
   asserting put/get honor their *total* timeout (the regression net for
   the re-armed-timeout bug);
3. **cluster** -- the same items through a traced
   :class:`~repro.cluster.dispatcher.Dispatcher` with the scenario's
   fault plan injected (kills, stalls, session failures), then the
   exactly-once / bit-identical / connected-trace invariants;
4. **serving** (``scenario.serving``) -- the scenario's requests through a
   live :class:`~repro.serving.server.SmolServer` with the
   ``serving.admit`` / ``serving.batch`` seams armed: every shed request
   is resubmitted (each planned fault fires once), and the pass asserts
   full resolution, bit-identical predictions, and a connected span tree;
5. **store** -- the scenario's put/invalidate/gc sequence against a
   :class:`~repro.store.store.RenditionStore` absorbing torn manifest
   writes, then crash-safety and durability checks from a fresh handle;
6. **dag / drift** -- optimizer-candidate equivalence against the naive
   ordering, and calibrator-bounds + convergent-replan checks;
7. **fuse** (``scenario.fuse``) -- the
   scenario's DAG compiled to a :class:`~repro.fuse.kernel.FusedKernel`
   and checked byte-identical against per-image interpretation (including
   NaN float batches and post-``ChaosFault`` reruns), then a cluster pass
   whose replicas execute functional sessions (the compiled kernel)
   against an interpreted serial oracle -- exactly-once, bit-identity,
   and connected traces all hold on real pixels;
8. **process kill** (``scenario.proc_kill``, minority of seeds) -- real
   :class:`~repro.cluster.worker.ProcessWorker` replicas with one killed
   mid-run: failover + exactly-once + bit-identity, plus no leaked
   shared-memory segments once the dispatcher closes;
9. **multi-tenant serving** (``scenario.tenant_serving``) -- pass 4
   again with the scenario's tenants on weighted priority classes (same
   server route, same ``serving.admit`` / ``serving.batch`` seams): no
   priority class may starve under injected stalls and raises, answers
   stay exactly-once and bit-identical, and the span tree stays
   connected.

A failing run's evidence is self-contained: :meth:`ChaosRunner.run`
wires a :class:`~repro.obs.FlightRecorder` through the cluster pass, and
:func:`dump_report` writes the postmortem bundle plus ``scenario.json``
(the exact scenario, replayable via ``chaos replay``).
"""

from __future__ import annotations

import json
import multiprocessing
import os
import shutil
import tempfile
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from repro.chaos.faults import ChaosFault, FaultInjector, FaultPlan
from repro.chaos.invariants import (
    InvariantViolation,
    check_exactly_once,
    check_predictions,
    check_span_tree,
)
from repro.chaos.scenario import Scenario
from repro.adapt.calibrator import ObservationKey, OnlineCalibrator
from repro.adapt.drift import DriftDetector
from repro.adapt.telemetry import StageObservation
from repro.cluster.dispatcher import Dispatcher
from repro.cluster.worker import ProcessWorker, SessionSpec, ThreadWorker
from repro.errors import (
    AdmissionError,
    EngineError,
    NoHealthyWorkerError,
    StoreError,
)
from repro.fuse.compiler import get_kernel
from repro.fuse.shm import HAS_SHM, SHM_DIR
from repro.inference.mpmc import MpmcQueue
from repro.nn.model import build_mini_resnet
from repro.obs import FlightRecorder, Observability
from repro.preprocessing.dag import PreprocessingDAG
from repro.preprocessing.ops import (
    CenterCropOp,
    ChannelReorderOp,
    ConvertDtypeOp,
    NormalizeOp,
    ResizeOp,
    TensorSpec,
)
from repro.preprocessing.optimizer import DagOptimizer
from repro.serving.request import InferenceRequest
from repro.serving.scheduler import BatchPolicy, ClassPolicy
from repro.serving.server import SmolServer
from repro.serving.session import (
    BatchResult,
    EngineSession,
    FunctionalSession,
    serving_pipeline_ops,
)
from repro.store.store import Manifest, RenditionStore, ScoreKey
from repro.tenant.spec import PRIORITY_CLASSES, TenantConfig, TenantSpec
from repro.utils.rng import stable_hash

__all__ = [
    "ChaosReport",
    "ChaosRunner",
    "HashSession",
    "dump_report",
]

#: Baseline per-image stage costs the drift pass calibrates against.
_DRIFT_BASELINES = {"decode": 1e-3, "inference": 2e-3}


class HashSession(EngineSession):
    """Deterministic session: ``stable_hash(image_id, plan_key) % classes``.

    The same convention as ``SimulatedSession``'s prediction rule, so any
    two replicas on the same plan agree -- which is exactly what the
    bit-identical invariant relies on when failover re-executes an item on
    a different replica.
    """

    def __init__(self, plan_key: str = "chaos-plan",
                 num_classes: int = 13) -> None:
        super().__init__(plan_key)
        self._num_classes = num_classes

    def execute(self, requests):
        predictions = np.array(
            [stable_hash(r.image_id, self.plan_key) % self._num_classes
             for r in requests],
            dtype=np.int64,
        )
        images = len(requests)
        return BatchResult(
            predictions=predictions,
            modelled_seconds=images * 1e-4,
            stage_seconds={"decode": images * 5e-5,
                           "inference": images * 5e-5},
        )


@dataclass
class ChaosReport:
    """What one scenario run produced: violations, firings, counters."""

    scenario: Scenario
    violations: list[InvariantViolation] = field(default_factory=list)
    fired: list[dict] = field(default_factory=list)
    stats: dict = field(default_factory=dict)
    elapsed_s: float = 0.0

    @property
    def ok(self) -> bool:
        """True when every invariant held."""
        return not self.violations

    def describe(self) -> str:
        """One-line human summary (CLI output)."""
        if self.ok:
            return (f"seed {self.scenario.seed}: ok "
                    f"({len(self.fired)} faults fired, "
                    f"{self.elapsed_s * 1000:.0f} ms)")
        first = self.violations[0]
        return (f"seed {self.scenario.seed}: FAIL {first.invariant} -- "
                f"{first.detail}")

    def to_dict(self) -> dict:
        """Plain-data form for bundles and scorecards."""
        return {
            "scenario": self.scenario.to_dict(),
            "ok": self.ok,
            "violations": [{"invariant": v.invariant, "detail": v.detail}
                           for v in self.violations],
            "fired": self.fired,
            "stats": {key: value for key, value in self.stats.items()
                      if key != "recorder"},
            "elapsed_s": self.elapsed_s,
        }


class ChaosRunner:
    """Executes scenarios and checks the global invariants.

    Parameters
    ----------
    drain_timeout_s:
        Bound on the cluster pass's drain; generated scenarios finish in
        tens of milliseconds, so hitting this is itself a liveness bug.
    store_root:
        Directory for the store pass.  Default: a per-run temp directory,
        removed afterwards.
    """

    def __init__(self, drain_timeout_s: float = 10.0,
                 store_root: str | Path | None = None) -> None:
        self._drain_timeout_s = drain_timeout_s
        self._store_root = store_root

    def run(self, scenario: Scenario) -> ChaosReport:
        """Run every pass for ``scenario``; never raises on a violation."""
        start = time.monotonic()
        report = ChaosReport(scenario=scenario)
        injector = FaultInjector(scenario.faults)
        injectors = [injector]
        requests = _build_requests(scenario)
        reference = _reference_predictions(scenario, requests)
        if scenario.queue:
            report.violations += _queue_probe(scenario)
        recorder = FlightRecorder()
        obs = Observability(recorder=recorder)
        report.violations += self._cluster_pass(
            scenario, requests, reference, injector, obs, report)
        if scenario.serving:
            report.violations += self._serving_pass(scenario, injector,
                                                    report)
        if scenario.tenant_serving:
            report.violations += self._serving_pass(
                scenario, injector, report, multi_tenant=True)
        report.violations += self._store_pass(scenario, injector)
        report.violations += _dag_pass(scenario)
        if scenario.fuse:
            report.violations += self._fuse_pass(scenario, report,
                                                 injectors)
        report.violations += _drift_pass(scenario)
        if scenario.proc_kill:
            report.violations += self._process_pass(scenario, report)
        report.fired = [
            {"site": f.fault.site, "action": f.fault.action,
             "at_hit": f.fault.at_hit, "hit": f.hit}
            for inj in injectors for f in inj.fired
        ]
        report.elapsed_s = time.monotonic() - start
        # Keep the evidence channel attached so a caller (CLI, shrinker)
        # can dump the postmortem bundle for a failing report.
        report.stats["recorder"] = recorder
        return report

    # ------------------------------------------------------------------
    # Cluster pass
    # ------------------------------------------------------------------
    def _cluster_pass(self, scenario: Scenario, requests, reference,
                      injector: FaultInjector, obs: Observability,
                      report: ChaosReport) -> list[InvariantViolation]:
        def factory(worker_id: str, results: MpmcQueue) -> ThreadWorker:
            return ThreadWorker(worker_id, HashSession(), results,
                                obs=obs, faults=injector)

        violations: list[InvariantViolation] = []
        # The background monitor is disabled: drain() drives check_workers
        # on the caller's thread, so failover and orphan recovery happen
        # at a deterministic cadence instead of a racing timer's.
        dispatcher = Dispatcher(
            factory, num_workers=scenario.workers,
            max_attempts=scenario.max_attempts,
            heartbeat_timeout_s=0.05, monitor_interval_s=0.0,
            breaker_cooldown_s=0.001, obs=obs, faults=injector,
        )
        root = obs.span("chaos.run", seed=scenario.seed,
                        items=scenario.items)
        futures = []
        try:
            with obs.activate(root.context):
                for index, item_requests in enumerate(requests):
                    tenant = scenario.tenants[scenario.arrival[index]]
                    obs.record("chaos.submit", 0.0, tenant=tenant,
                               item=index)
                    futures.append(dispatcher.submit(item_requests))
            try:
                dispatcher.drain(timeout=self._drain_timeout_s)
            except NoHealthyWorkerError as exc:
                violations.append(InvariantViolation(
                    "resolution.exactly_once", f"drain stuck: {exc}"))
        finally:
            dispatcher.close(timeout=self._drain_timeout_s)
            root.finish()
        # Snapshot counters only after close() has joined the collector:
        # a collector mid-flight (e.g. stalled by an injected fault) may
        # still mutate them after drain() observes the last resolution.
        stats = dispatcher.stats()
        outcomes = _future_outcomes(futures)
        allow_failures = bool(
            scenario.faults.actions() & {"kill", "raise"})
        violations += check_exactly_once(stats, outcomes, allow_failures)
        violations += check_predictions(reference, outcomes)
        violations += check_span_tree(obs.spans())
        report.stats.update({
            "submitted": stats.submitted, "completed": stats.completed,
            "failed": stats.failed, "retried": stats.retried,
            "failovers": stats.failovers,
            "worker_deaths": stats.worker_deaths,
            "spans": len(obs.spans()),
        })
        return violations

    # ------------------------------------------------------------------
    # Serving passes (single-class and multi-tenant)
    # ------------------------------------------------------------------
    def _serving_pass(self, scenario: Scenario, injector: FaultInjector,
                      report: ChaosReport,
                      multi_tenant: bool = False) -> list[InvariantViolation]:
        """The scenario's requests through a live :class:`SmolServer`.

        Runs single-class for ``scenario.serving`` and, with
        ``multi_tenant``, once more with each scenario tenant a
        :class:`TenantSpec` in the class ``scenario.tenant_classes``
        assigns it (quotas unlimited and class deadlines off, so every
        divergence is the scheduler's fault, not throttling or
        downgrades).  Either way requests take the server's one route, so
        the same seams fire from the scenario's plan: ``serving.admit`` on
        the submitting thread (a raise is a clean shed -- the request
        never entered a queue), ``serving.batch`` on the serving thread
        (absorbed by the loop; no request was dequeued), and
        ``fuse.execute`` inside batch execution (fails the batch).  Each
        planned fault fires at most once, so resubmitting shed requests
        and failed batches always converges.  Invariants: full resolution
        (multi-tenant: *no starvation* -- every class with offered
        requests resolves even with stalls and raises wedged into its
        queue, the schedule-independent form of exactly-once),
        bit-identical predictions against the serial oracle, and one
        connected span tree.  The cache is off so every request really
        executes.
        """
        label = "tenant" if multi_tenant else "serving"
        resolution = ("tenant.no_starvation" if multi_tenant
                      else "serving.resolution")
        class_of = {tenant: PRIORITY_CLASSES[class_index]
                    for tenant, class_index
                    in zip(scenario.tenants, scenario.tenant_classes)}
        config = None
        if multi_tenant:
            config = TenantConfig(
                tenants=tuple(TenantSpec(name=tenant, priority=priority)
                              for tenant, priority in class_of.items()),
                classes=(ClassPolicy("interactive", weight=8.0, rank=0),
                         ClassPolicy("standard", weight=4.0, rank=1),
                         ClassPolicy("batch", weight=1.0, rank=2)),
            )
        violations: list[InvariantViolation] = []
        oracle = HashSession(plan_key=f"chaos-{label}")
        by_id: dict[str, InferenceRequest] = {}
        for index in range(scenario.items):
            tenant = scenario.tenants[scenario.arrival[index]]
            for j in range(scenario.batch):
                request = InferenceRequest(
                    image_id=f"{tenant}/{label}-{index}-{j}",
                    tenant=tenant if multi_tenant else "")
                by_id[request.image_id] = request
        expected = {
            image_id: int(oracle.execute([request]).predictions[0])
            for image_id, request in by_id.items()
        }
        obs = Observability()
        root = obs.span(f"chaos.{label}", seed=scenario.seed,
                        requests=len(by_id))
        server = SmolServer(
            session=HashSession(plan_key=f"chaos-{label}"),
            policy=BatchPolicy(name=f"chaos-{label}",
                               max_batch_size=max(1, scenario.batch),
                               max_wait_ms=1.0),
            queue_capacity=max(4, len(by_id)),
            cache_capacity=0, obs=obs, faults=injector, tenants=config,
        )
        deadline = time.monotonic() + self._drain_timeout_s

        def submit_all(image_ids) -> dict:
            futures = {}
            with obs.activate(root.context):
                for image_id in image_ids:
                    future = None
                    # Both serving passes share the scheduler's seams
                    # (and one injector), so the shed bound is the whole
                    # plan: each planned fault fires at most once.
                    for _ in range(len(scenario.faults) + 1):
                        try:
                            future = server.submit(by_id[image_id])
                            break
                        except (ChaosFault, AdmissionError):
                            continue  # clean shed: the fault fired once
                    if future is None:
                        violations.append(InvariantViolation(
                            resolution,
                            f"request {image_id} was shed on every "
                            "submit attempt"))
                    else:
                        futures[image_id] = future
            return futures

        resolved: dict[str, int] = {}
        unresolved: list[str] = []
        try:
            pending = submit_all(sorted(by_id))
            for _ in range(len(scenario.faults) + 2):
                if not pending:
                    break
                failed: list[str] = []
                for image_id, future in sorted(pending.items()):
                    try:
                        response = future.result(
                            timeout=max(0.01,
                                        deadline - time.monotonic()))
                    except TimeoutError:
                        unresolved.append(image_id)
                    except Exception:
                        failed.append(image_id)  # injected batch failure
                    else:
                        resolved[image_id] = int(response.prediction)
                pending = submit_all(failed) if failed else {}
            unresolved.extend(sorted(pending))
        finally:
            server.close()
            root.finish()
        if unresolved:
            detail = (f"{len(unresolved)} requests never resolved under "
                      "injected faults")
            if multi_tenant:
                # Attribute the wedge to classes: a starved class is the
                # fairness bug the multi-tenant pass exists to catch.
                starved = sorted({class_of[by_id[image_id].tenant]
                                  for image_id in unresolved})
                detail += f" (classes {starved})"
            violations.append(InvariantViolation(resolution, detail))
        for image_id in sorted(resolved):
            if resolved[image_id] != expected[image_id]:
                violations.append(InvariantViolation(
                    "predictions.bit_identical",
                    f"{label}-served {image_id} predicted "
                    f"{resolved[image_id]} but the serial engine "
                    f"predicted {expected[image_id]}"))
        violations += check_span_tree(obs.spans())
        stats = server.stats()
        report.stats[label] = {
            "submitted": stats.submitted, "completed": stats.completed,
            "rejected": stats.rejected,
            "batches": stats.batcher.batches,
        }
        if multi_tenant:
            report.stats[label]["class_served"] = dict(
                stats.tenants.class_served)
        return violations

    # ------------------------------------------------------------------
    # Fused-execution pass
    # ------------------------------------------------------------------
    def _fuse_pass(self, scenario: Scenario, report: ChaosReport,
                   injectors: list) -> list[InvariantViolation]:
        """Every fused-execution invariant: kernel differential + cluster."""
        violations = _fuse_kernel_pass(scenario, injectors)
        violations += self._fused_cluster_pass(scenario, report, injectors)
        return violations

    def _fused_cluster_pass(self, scenario: Scenario, report: ChaosReport,
                            injectors: list) -> list[InvariantViolation]:
        """Cluster invariants with replicas executing functional sessions.

        Real pixels through the standard serving pipeline on thread
        replicas whose :class:`FunctionalSession` runs the compiled
        kernel, while the serial oracle *interprets* the same per-item
        batches image by image -- so any kernel/interpreter divergence
        (including under failover re-execution) surfaces as a
        bit-identity violation, and injected ``fuse.execute`` raises
        exercise the retry path on the kernel.
        """
        dag, model = _fuse_serving_stack()
        rng = np.random.default_rng(
            stable_hash("fuse-cluster", scenario.seed) % (1 << 32))
        requests = []
        for index in range(scenario.items):
            batch = []
            for j in range(scenario.batch):
                # Two payload shapes per run exercise the kernel's
                # shape-group scatter/gather alongside the fast path.
                shape = (28, 28, 3) if (index + j) % 2 == 0 else (26, 30, 3)
                batch.append(InferenceRequest(
                    image_id=f"fuse/img-{index}-{j}",
                    payload=rng.integers(0, 256, size=shape)
                    .astype(np.uint8)))
            requests.append(batch)
        reference = [
            model.predict(np.stack([dag.execute(request.payload)
                                    for request in batch]))
            for batch in requests
        ]
        plan = FaultPlan(faults=tuple(
            f for f in scenario.faults.faults if f.site == "fuse.execute"))
        injector = FaultInjector(plan)
        injectors.append(injector)
        obs = Observability()

        def factory(worker_id: str, results: MpmcQueue) -> ThreadWorker:
            session = FunctionalSession("fuse-plan", dag, model,
                                        faults=injector, obs=obs)
            session.warmup()
            return ThreadWorker(worker_id, session, results, obs=obs,
                                faults=injector)

        violations: list[InvariantViolation] = []
        dispatcher = Dispatcher(
            factory, num_workers=scenario.workers,
            max_attempts=scenario.max_attempts,
            heartbeat_timeout_s=0.05, monitor_interval_s=0.0,
            breaker_cooldown_s=0.001, obs=obs, faults=injector,
        )
        root = obs.span("chaos.fuse", seed=scenario.seed,
                        items=scenario.items)
        futures = []
        try:
            with obs.activate(root.context):
                for item_requests in requests:
                    futures.append(dispatcher.submit(item_requests))
            try:
                dispatcher.drain(timeout=self._drain_timeout_s)
            except NoHealthyWorkerError as exc:
                violations.append(InvariantViolation(
                    "resolution.exactly_once",
                    f"fused drain stuck: {exc}"))
        finally:
            dispatcher.close(timeout=self._drain_timeout_s)
            root.finish()
        stats = dispatcher.stats()
        outcomes = _future_outcomes(futures)
        violations += check_exactly_once(
            stats, outcomes, bool(plan.actions() & {"raise"}))
        violations += check_predictions(reference, outcomes)
        violations += check_span_tree(obs.spans())
        report.stats["fuse_cluster"] = {
            "submitted": stats.submitted, "completed": stats.completed,
            "failed": stats.failed, "retried": stats.retried,
        }
        return violations

    # ------------------------------------------------------------------
    # Process-worker kill pass
    # ------------------------------------------------------------------
    def _process_pass(self, scenario: Scenario,
                      report: ChaosReport) -> list[InvariantViolation]:
        """Failover across real child processes, plus shm hygiene.

        Two :class:`ProcessWorker` replicas behind a dispatcher; one is
        killed (SIGTERM) right after submission, so any of its pending
        items must fail over to the survivor with exactly-once resolution
        intact -- and once the dispatcher closes, no shared-memory segment
        under either worker's transport prefix may remain in ``/dev/shm``.
        """
        if "fork" not in multiprocessing.get_all_start_methods():
            return []
        spec = SessionSpec()
        oracle = spec.build()
        requests = []
        for index in range(scenario.items):
            requests.append([
                InferenceRequest(image_id=f"proc/img-{index}-{j}")
                for j in range(scenario.batch)
            ])
        reference = [oracle.execute(batch).predictions
                     for batch in requests]
        obs = Observability()
        workers: list[ProcessWorker] = []

        def factory(worker_id: str, results: MpmcQueue) -> ProcessWorker:
            worker = ProcessWorker(worker_id, spec, results)
            workers.append(worker)
            return worker

        violations: list[InvariantViolation] = []
        # Child processes pay real startup/IPC latency, so this pass gets
        # a wider drain bound and heartbeat window than thread replicas.
        drain_timeout = max(self._drain_timeout_s, 30.0)
        dispatcher = Dispatcher(
            factory, num_workers=2, max_attempts=scenario.max_attempts,
            heartbeat_timeout_s=5.0, monitor_interval_s=0.0,
            breaker_cooldown_s=0.001, obs=obs,
        )
        root = obs.span("chaos.proc", seed=scenario.seed,
                        items=scenario.items)
        futures = []
        try:
            with obs.activate(root.context):
                for item_requests in requests:
                    futures.append(dispatcher.submit(item_requests))
            # The crash: terminate one replica while items may still be
            # in flight (which one is seed-determined).
            workers[scenario.seed % len(workers)].kill()
            try:
                dispatcher.drain(timeout=drain_timeout)
            except NoHealthyWorkerError as exc:
                violations.append(InvariantViolation(
                    "resolution.exactly_once",
                    f"proc drain stuck: {exc}"))
        finally:
            dispatcher.close(timeout=drain_timeout)
            root.finish()
        stats = dispatcher.stats()
        outcomes = _future_outcomes(futures)
        violations += check_exactly_once(stats, outcomes,
                                         allow_failures=True)
        violations += check_predictions(reference, outcomes)
        violations += check_span_tree(obs.spans())
        if HAS_SHM and os.path.isdir(SHM_DIR):
            prefixes = tuple(worker.transport.prefix for worker in workers)
            leaked = [name for name in os.listdir(SHM_DIR)
                      if name.startswith(prefixes)]
            if leaked:
                violations.append(InvariantViolation(
                    "fuse.shm_leak",
                    f"{len(leaked)} shared-memory segments survived "
                    f"close: {sorted(leaked)[:4]}"))
        report.stats["proc"] = {
            "submitted": stats.submitted, "completed": stats.completed,
            "failed": stats.failed, "failovers": stats.failovers,
            "worker_deaths": stats.worker_deaths,
        }
        return violations

    # ------------------------------------------------------------------
    # Store pass
    # ------------------------------------------------------------------
    def _store_pass(self, scenario: Scenario,
                    injector: FaultInjector) -> list[InvariantViolation]:
        if not scenario.store_ops:
            return []
        violations: list[InvariantViolation] = []
        root = self._store_root or tempfile.mkdtemp(prefix="chaos-store-")
        cleanup = self._store_root is None
        try:
            store = RenditionStore(root, chunk_frames=4, faults=injector)
            committed: dict[str, np.ndarray] = {}
            version = 0
            for op, arg in scenario.store_ops:
                if op == "put":
                    version += 1
                    rng = np.random.default_rng(
                        stable_hash(scenario.seed, arg, version) % (1 << 32))
                    scores = rng.random((6, 3)).astype(np.float32)
                    try:
                        store.put_scores(_score_key(arg), scores)
                    except ChaosFault:
                        continue  # torn write: the entry must NOT commit
                    committed[arg] = scores
                elif op == "invalidate":
                    prefix = f"scores/{arg}"
                    store.invalidate(prefix)
                    committed = {key: value
                                 for key, value in committed.items()
                                 if not _score_key(key).key()
                                 .startswith(prefix)}
                elif op == "gc":
                    store.gc(min_age_seconds=0.0)
            # Crash safety: whatever torn records and half-done
            # checkpoints happened, the on-disk manifest must load, and
            # the live handle and a *fresh* one must both serve exactly
            # the committed entries -- no torn put visible, no committed
            # put lost -- before and after a final GC.
            for phase in ("post-ops", "post-gc"):
                try:
                    on_disk = Manifest.load(Path(root)).version.entries
                except Exception as exc:
                    violations.append(InvariantViolation(
                        "store.crash_safety",
                        f"manifest unreadable {phase}: {exc}"))
                    break
                if set(on_disk) != {_score_key(key).key()
                                    for key in committed}:
                    violations.append(InvariantViolation(
                        "store.crash_safety",
                        f"manifest lists {sorted(on_disk)} {phase}, "
                        f"committed were {sorted(committed)}"))
                fresh = RenditionStore(root, chunk_frames=4)
                for key, expected in committed.items():
                    for handle in (store, fresh):
                        stored = handle.get_scores(_score_key(key))
                        if stored is None or \
                                not np.array_equal(stored, expected):
                            violations.append(InvariantViolation(
                                "store.durability",
                                f"committed entry {key!r} lost or "
                                f"corrupt {phase}"))
                if phase == "post-ops":
                    try:
                        fresh.gc(min_age_seconds=0.0)
                    except StoreError as exc:
                        violations.append(InvariantViolation(
                            "store.crash_safety", f"gc failed: {exc}"))
                        break
        finally:
            if cleanup:
                shutil.rmtree(root, ignore_errors=True)
        return violations


# ----------------------------------------------------------------------
# Pass helpers (pure functions of the scenario)
# ----------------------------------------------------------------------
def _future_outcomes(futures) -> list[tuple]:
    """Resolve submitted futures into the invariant checkers' tuples."""
    outcomes = []
    for future in futures:
        if not future.done():
            outcomes.append(("lost", "future never resolved"))
        elif future.exception() is not None:
            outcomes.append(("failed", str(future.exception())))
        else:
            outcomes.append(("ok", future.result().predictions))
    return outcomes


#: Lazily built (dag, model) pair every fused cluster pass shares.
_FUSE_STACK: list = []


def _fuse_serving_stack():
    """The serving pipeline + mini model the fused cluster pass runs.

    Deliberately seed-independent and built once per process: the
    differential surface of the pass is the *preprocessing* (fused kernel
    vs interpretation) and the payload pixels vary per seed, so rebuilding
    the model for every scenario would only burn wall-clock the 200-seed
    smoke sweep cannot afford.
    """
    if not _FUSE_STACK:
        dag = PreprocessingDAG.from_ops(
            serving_pipeline_ops(input_size=24, crop_size=16))
        model = build_mini_resnet(18, num_classes=11, input_size=16, seed=7)
        _FUSE_STACK.append((dag, model))
    return _FUSE_STACK[0]


def _fuse_kernel_pass(scenario: Scenario,
                      injectors: list) -> list[InvariantViolation]:
    """Differential check: the compiled kernel vs per-image interpretation.

    Both the scenario's naive op chain and its optimizer candidate compile
    and execute over a heterogeneous-shape uint8 batch and a NaN-bearing
    float32 batch; every per-image output must match interpretation to the
    byte (``tobytes`` comparison, so NaN payload bits count too).  When the
    plan arms ``fuse.execute``, the kernel must also survive the injected
    :class:`ChaosFault` and produce identical results on the retry.
    """
    if not scenario.dag_ops:
        return []
    violations: list[InvariantViolation] = []
    ops = [_DAG_BUILDERS[spec[0]](spec) for spec in scenario.dag_ops]
    height, width, image_seed = scenario.dag_image
    tensor_spec = TensorSpec(height=height, width=width, channels=3)
    candidates = DagOptimizer().candidates(ops, tensor_spec)
    candidate = candidates[scenario.dag_candidate % len(candidates)]
    rng = np.random.default_rng(image_seed)
    batch = [rng.integers(0, 256, size=(height, width, 3)).astype(np.uint8)
             for _ in range(max(2, scenario.batch))]
    # A second shape exercises the kernel's group/scatter path.
    batch.append(rng.integers(0, 256, size=(height + 2, width + 3, 3))
                 .astype(np.uint8))
    nan_batch = [image.astype(np.float32) for image in batch]
    nan_batch[0][0, 0, :] = np.nan
    for label, chain in (("naive", ops), ("candidate", candidate)):
        dag = PreprocessingDAG.from_ops(list(chain))
        kernel = get_kernel(dag)
        for kind, arrays in (("uint8", batch), ("nan-float32", nan_batch)):
            interpreted = [dag.execute(image) for image in arrays]
            fused = kernel.execute_many(arrays)
            for index, (got, want) in enumerate(zip(fused, interpreted)):
                if got.shape != want.shape or got.dtype != want.dtype \
                        or got.tobytes() != want.tobytes():
                    violations.append(InvariantViolation(
                        "fuse.equivalence",
                        f"{label}/{kind} image {index} diverged from "
                        f"interpretation for kernel {kernel.describe()}"))
                    break
    plan = FaultPlan(faults=tuple(
        f for f in scenario.faults.faults if f.site == "fuse.execute"))
    if plan.faults:
        injector = FaultInjector(plan)
        injectors.append(injector)
        kernel = get_kernel(PreprocessingDAG.from_ops(ops))
        clean = kernel.execute_many(batch)
        retried = None
        for _ in range(len(plan.faults) + 1):
            try:
                retried = kernel.execute_many(batch, faults=injector)
                break
            except ChaosFault:
                continue  # each planned fault fires once; retry converges
        if retried is None or any(
                got.tobytes() != want.tobytes()
                for got, want in zip(retried, clean)):
            violations.append(InvariantViolation(
                "fuse.fault_recovery",
                "fused kernel did not recover identically after an "
                "injected fuse.execute fault"))
    return violations


def _build_requests(scenario: Scenario) -> list[list[InferenceRequest]]:
    requests = []
    for index in range(scenario.items):
        tenant = scenario.tenants[scenario.arrival[index]]
        requests.append([
            InferenceRequest(image_id=f"{tenant}/img-{index}-{j}")
            for j in range(scenario.batch)
        ])
    return requests


def _reference_predictions(scenario: Scenario,
                           requests) -> list[np.ndarray]:
    session = HashSession()
    session.warmup()
    return [session.execute(batch).predictions for batch in requests]


def _queue_probe(scenario: Scenario) -> list[InvariantViolation]:
    """Timeouts must bound *total* block time under a notify storm.

    The storm thread fires spurious wakeups on the queue's conditions --
    the scheduler-dependent interleaving the timeout bug needs, made
    deterministic.  Pre-fix, every wakeup re-armed the full timeout, so
    the blocked call outlived the storm; post-fix it raises at the
    deadline regardless.
    """
    capacity, timeout_s, storm_s = scenario.queue
    queue: MpmcQueue[int] = MpmcQueue(int(capacity))
    for i in range(int(capacity)):
        queue.put(i, timeout=1.0)
    stop = threading.Event()

    def storm() -> None:
        # Notify far more often than timeout_s so a re-armed wait can
        # never expire while the storm lasts; the storm itself is
        # time-bounded so a pre-fix caller escapes (late) instead of
        # hanging the run.
        deadline = time.monotonic() + storm_s
        while not stop.is_set() and time.monotonic() < deadline:
            with queue._lock:
                queue._not_full.notify_all()
                queue._not_empty.notify_all()
            time.sleep(timeout_s / 4)

    thread = threading.Thread(target=storm, daemon=True)
    thread.start()
    violations: list[InvariantViolation] = []
    bound = timeout_s + 0.05
    try:
        start = time.monotonic()
        try:
            queue.put(99, timeout=timeout_s)
            violations.append(InvariantViolation(
                "queue.timeout", "put on a full queue returned without "
                "timing out"))
        except EngineError:
            elapsed = time.monotonic() - start
            if elapsed > bound:
                violations.append(InvariantViolation(
                    "queue.timeout",
                    f"put(timeout={timeout_s}) blocked {elapsed:.3f}s "
                    "under spurious wakeups"))
        for _ in range(int(capacity)):  # same queue: the storm covers get
            queue.get(timeout=1.0)
        start = time.monotonic()
        try:
            queue.get(timeout=timeout_s)
            violations.append(InvariantViolation(
                "queue.timeout", "get on an empty queue returned without "
                "timing out"))
        except EngineError:
            elapsed = time.monotonic() - start
            if elapsed > bound:
                violations.append(InvariantViolation(
                    "queue.timeout",
                    f"get(timeout={timeout_s}) blocked {elapsed:.3f}s "
                    "under spurious wakeups"))
    finally:
        stop.set()
        thread.join(timeout=2.0)
    return violations


_DAG_BUILDERS = {
    "resize": lambda spec: ResizeOp(short_side=int(spec[1])),
    "crop": lambda spec: CenterCropOp(size=int(spec[1])),
    "convert": lambda spec: ConvertDtypeOp("float32"),
    "normalize": lambda spec: NormalizeOp(),
    "reorder": lambda spec: ChannelReorderOp(),
}


def _dag_pass(scenario: Scenario) -> list[InvariantViolation]:
    if not scenario.dag_ops:
        return []
    ops = [_DAG_BUILDERS[spec[0]](spec) for spec in scenario.dag_ops]
    height, width, image_seed = scenario.dag_image
    rng = np.random.default_rng(image_seed)
    image = rng.integers(0, 256, size=(height, width, 3)).astype(np.uint8)
    reference = image
    for op in ops:
        reference = op.apply(reference)
    spec = TensorSpec(height=height, width=width, channels=3)
    candidates = DagOptimizer().candidates(ops, spec)
    candidate = candidates[scenario.dag_candidate % len(candidates)]
    out = PreprocessingDAG.from_ops(candidate).execute(image)
    if out.shape != reference.shape or out.dtype != reference.dtype \
            or not np.array_equal(out, reference):
        return [InvariantViolation(
            "dag.equivalence",
            f"candidate {[op.name for op in candidate]} diverged from "
            f"naive {[op.name for op in ops]}")]
    return []


def _drift_pass(scenario: Scenario) -> list[InvariantViolation]:
    if not scenario.drift:
        return []
    violations: list[InvariantViolation] = []
    calibrator = OnlineCalibrator()
    for stage, per_image in _DRIFT_BASELINES.items():
        subject = "161-jpeg-q75" if stage == "decode" else "resnet-18"
        calibrator.set_baseline(ObservationKey(stage, subject), per_image)
    for phase in scenario.drift:
        per_image = _DRIFT_BASELINES[phase.stage] * phase.scale
        for _ in range(phase.observations):
            calibrator.observe(StageObservation(
                stage=phase.stage, subject=phase.subject,
                images=phase.images,
                seconds=per_image * phase.images, source="chaos"))
    scales = calibrator.observed_costs().scales()
    for key, scale in scales.items():
        if not (1.0 / 64.0 <= scale <= 64.0):
            violations.append(InvariantViolation(
                "drift.bounds",
                f"{key} calibrated to scale {scale}, outside the "
                "calibrator's hard bounds"))
    # Convergence: after one acknowledge of the final scales, the
    # detector must stop demanding replans for those same scales.
    detector = DriftDetector(threshold=1.5, hysteresis=2)
    replans = 0
    for _ in range(6):
        if detector.update(scales):
            replans += 1
            detector.acknowledge(scales)
    if replans > 1:
        violations.append(InvariantViolation(
            "drift.convergence",
            f"{replans} replans for one stable scale set -- the detector "
            "never converged"))
    return violations


def _score_key(key: str) -> ScoreKey:
    return ScoreKey(item=key, model="resnet-18", rendition="161-jpeg-q75")


def dump_report(report: ChaosReport, directory: str | Path) -> Path:
    """Write a failing run's postmortem bundle + ``scenario.json``.

    Returns the bundle directory.  The bundle is the cluster pass's
    flight-recorder dump (spans, events, metrics, manifest) with the
    scenario alongside, so ``chaos replay --scenario <dir>/scenario.json``
    reruns the exact workload.
    """
    target = Path(directory)
    recorder = report.stats.get("recorder")
    if isinstance(recorder, FlightRecorder):
        recorder.dump(target, reason="invariant_violation",
                      seed=report.scenario.seed,
                      violations=[str(v) for v in report.violations])
    else:
        target.mkdir(parents=True, exist_ok=True)
    payload = report.to_dict()
    (target / "scenario.json").write_text(
        json.dumps(payload, indent=2, sort_keys=True) + "\n",
        encoding="utf-8",
    )
    return target
