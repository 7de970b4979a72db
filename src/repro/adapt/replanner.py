"""Online replanning: re-run the planner on observed costs, hot-swap plans.

The :class:`Replanner` answers one question -- *given what we now know,
is there a plan worth switching to?* -- by rebuilding a planner against
the live store catalog and the calibrator's observed cost scales, scoring
the current plan and the best candidate under the **same** feedback-aware
costing, and demanding a minimum relative improvement before swapping
(small wins never justify swap churn).

The :class:`AdaptiveController` closes the loop: it listens to the
observability stage bus, drains the measured stage costs into the
calibrator, runs the drift detector, replans when drift (or a store
catalog change, or an SLO burn) fires, and applies accepted swaps to its
*swap targets* --
:class:`ServerSwapTarget` hot-swaps a :class:`~repro.serving.server
.SmolServer` session, :class:`ScanPaceTarget` hot-swaps the shared
:class:`~repro.query.scan.ScanPace` of in-flight shard scan streams.  By
construction a swap changes only costs and cost-driven routing, never the
value of any query result.
"""

from __future__ import annotations

import threading
from collections import deque
from dataclasses import dataclass
from typing import Callable, Sequence

from repro.adapt.calibrator import (
    ObservedCosts,
    OnlineCalibrator,
    StageObservation,
)
from repro.adapt.drift import DriftDetector
from repro.core.plans import PlanConstraints, PlanEstimate
from repro.errors import AdaptError

#: Stage samples a controller buffers between steps.  When nobody steps,
#: the oldest fall off instead of growing without bound (freshest wins).
PENDING_BOUND = 8192


@dataclass(frozen=True)
class ReplanDecision:
    """Outcome of one replanning pass.

    Attributes
    ----------
    swapped:
        True when the candidate was accepted and applied.
    reason:
        ``"no-drift"`` (detector quiet, planner never ran), ``"no-gain"``
        (replanned, candidate not better by ``min_improvement``), or
        ``"swapped"``.
    plan_changed:
        Whether the accepted candidate is a different (model, format)
        plan.  False for cost-only swaps -- e.g. the same plan re-priced
        against a rendition that became warm, where execution switches to
        chunk reads but the logical plan is unchanged.
    current / candidate:
        The current plan re-scored under observed costs, and the best
        candidate (None when the planner never ran).
    gain:
        Relative throughput improvement of the candidate over the
        re-scored current plan (0.0 when the planner never ran).
    """

    swapped: bool
    reason: str
    plan_changed: bool = False
    current: PlanEstimate | None = None
    candidate: PlanEstimate | None = None
    gain: float = 0.0


class Replanner:
    """Re-runs the core planner under observed costs and a live catalog.

    Parameters
    ----------
    planner_factory:
        ``factory(observations) -> PlanGenerator``.  Called fresh on every
        replan so the planner prices against the *current* store catalog
        (catalogs snapshot the manifest at construction) and the given
        observed cost scales.
    constraints:
        Optional :class:`~repro.core.plans.PlanConstraints` every
        candidate must satisfy (e.g. the serving accuracy floor).
    min_improvement:
        Required relative throughput gain of the candidate over the
        re-scored current plan, e.g. 0.1 = 10%.
    formats / models:
        Optional candidate restrictions forwarded to the planner.
    """

    def __init__(self, planner_factory: Callable,
                 constraints: PlanConstraints | None = None,
                 min_improvement: float = 0.1,
                 formats: Sequence | None = None,
                 models: Sequence | None = None) -> None:
        if min_improvement < 0:
            raise AdaptError("min_improvement must be non-negative")
        self._planner_factory = planner_factory
        self._constraints = constraints
        self._min_improvement = min_improvement
        self._formats = list(formats) if formats is not None else None
        self._models = list(models) if models is not None else None

    @property
    def min_improvement(self) -> float:
        """Required relative throughput gain before a swap is accepted."""
        return self._min_improvement

    def replan(self, current: PlanEstimate,
               observations: ObservedCosts | None = None) -> ReplanDecision:
        """Score the world as observed; decide whether to swap.

        Idempotent under no drift: with no observations and an unchanged
        catalog the candidate *is* the current plan (the planner is
        deterministic), the gain is zero, and no swap happens -- calling
        again changes nothing.
        """
        planner = self._planner_factory(observations)
        if self._constraints is not None:
            candidate = planner.select(self._constraints, self._formats,
                                       self._models)
        else:
            estimates = planner.score(
                planner.generate(self._formats, self._models)
            )
            candidate = max(estimates,
                            key=lambda e: (e.throughput, e.accuracy))
        rescored = planner.score([current.plan])[0]
        if rescored.throughput <= 0:
            gain = float("inf") if candidate.throughput > 0 else 0.0
        else:
            gain = candidate.throughput / rescored.throughput - 1.0
        if gain < self._min_improvement:
            return ReplanDecision(swapped=False, reason="no-gain",
                                  current=rescored, candidate=candidate,
                                  gain=gain)
        return ReplanDecision(
            swapped=True, reason="swapped",
            plan_changed=(candidate.plan.describe()
                          != current.plan.describe()),
            current=rescored, candidate=candidate, gain=gain,
        )


class ServerSwapTarget:
    """Applies accepted plans to a session-backed :class:`SmolServer`."""

    def __init__(self, server,
                 session_factory: Callable[[PlanEstimate], object]) -> None:
        self._server = server
        self._session_factory = session_factory

    def apply(self, estimate: PlanEstimate) -> None:
        """Build a warmed session for ``estimate`` and hot-swap it in."""
        self._server.swap_plan(self._session_factory(estimate))


class ScanPaceTarget:
    """Applies accepted plans to an in-flight shard scan stream's pace."""

    def __init__(self, pace,
                 pace_costs: Callable[[PlanEstimate],
                                      tuple[float, dict]]) -> None:
        self._pace = pace
        self._pace_costs = pace_costs

    def apply(self, estimate: PlanEstimate) -> None:
        """Swap the shared pace to ``estimate``'s per-frame costs."""
        seconds_per_frame, stage_split = self._pace_costs(estimate)
        self._pace.swap(seconds_per_frame, estimate.plan.describe(),
                        stage_split=stage_split)


@dataclass(frozen=True)
class ControllerStats:
    """Lifetime counters of one adaptive controller.

    ``observations`` counts stage samples the calibrator used,
    ``rejected`` malformed ones (unknown stage, empty subject, no images,
    non-finite or negative seconds) that never reached it.
    """

    steps: int
    observations: int
    drifts: int
    catalog_events: int
    replans: int
    swaps: int
    last_reason: str
    target_failures: int = 0
    slo_events: int = 0
    rejected: int = 0


class AdaptiveController:
    """The stage bus -> calibrate -> detect -> replan -> swap loop.

    At construction the controller subscribes to ``obs``'s stage-event bus
    (what :class:`~repro.serving.server.SmolServer` and
    :class:`~repro.cluster.dispatcher.Dispatcher` publish measured stage
    costs on): stage samples are buffered (at most :data:`PENDING_BOUND`)
    and ``slo.burn`` events mark the controller SLO-dirty.  Drive
    :meth:`step` periodically (between serving waves, between scan
    segments, or from a timer).  Each step drains the buffer into the
    calibrator, updates the drift detector with the fresh scales, and --
    when drift, a store catalog change or an SLO burn fires -- replans and
    applies an accepted swap to every registered target.  :meth:`close`
    unsubscribes.

    The controller itself never touches result values: swap targets change
    where and at what cost execution happens, and the replanner's
    candidate scoring is advisory until a target applies it.
    """

    def __init__(self, calibrator: OnlineCalibrator,
                 replanner: Replanner,
                 current_plan: PlanEstimate,
                 obs,
                 detector: DriftDetector | None = None,
                 targets: Sequence | None = None) -> None:
        if obs is None or not obs.enabled:
            raise AdaptError(
                "the controller learns stage costs from the observability "
                "stage bus: pass an enabled Observability as obs="
            )
        self._calibrator = calibrator
        self._replanner = replanner
        self._detector = detector or DriftDetector()
        self._targets = list(targets or ())
        self._obs = obs
        self._steps_metric = obs.counter("adapt_steps_total")
        self._replans_metric = obs.counter("adapt_replans_total")
        self._swaps_metric = obs.counter("adapt_swaps_total")
        self._lock = threading.Lock()
        self._current = current_plan
        self._pending: deque[StageObservation] = deque(maxlen=PENDING_BOUND)
        self._catalog_dirty = False
        self._slo_dirty = False
        self._watched: list = []
        self._steps = 0
        self._observations = 0
        self._rejected = 0
        self._drifts = 0
        self._catalog_events = 0
        self._slo_events = 0
        self._replans = 0
        self._swaps = 0
        self._target_failures = 0
        self._last_reason = "idle"
        obs.add_stage_listener(self._on_stage)

    # ------------------------------------------------------------------
    # Wiring
    # ------------------------------------------------------------------
    @property
    def current_plan(self) -> PlanEstimate:
        """The plan the controller believes is live."""
        with self._lock:
            return self._current

    @property
    def detector(self) -> DriftDetector:
        """The drift detector the controller consults."""
        return self._detector

    def add_target(self, target) -> None:
        """Register one swap target (duck-typed ``apply(estimate)``)."""
        with self._lock:
            self._targets.append(target)

    def watch_store(self, store) -> None:
        """Subscribe to a store's catalog changes as a replan trigger.

        A rendition becoming warm mid-query changes which plan is cheapest
        without any measured cost moving; the subscription marks the
        catalog dirty so the next :meth:`step` replans even if the drift
        detector is quiet.
        """
        def on_event(event) -> None:
            with self._lock:
                self._catalog_dirty = True
                self._catalog_events += 1

        store.subscribe(on_event)
        self._watched.append((store, on_event))

    def _on_stage(self, event) -> None:
        """Stage-bus listener: buffer a stage sample, or note an SLO burn.

        An SLO burning its error budget is the user-facing symptom of the
        same condition the drift detector infers from cost scales --
        except it also fires when the cause is *not* a stage cost (queue
        pressure, failover churn) -- so it forces the next :meth:`step`
        to replan even if the detector is quiet.
        """
        if event.stage == "slo.burn":
            with self._lock:
                self._slo_dirty = True
                self._slo_events += 1
            return
        observation = StageObservation(
            stage=event.stage, subject=event.subject, images=event.images,
            seconds=event.seconds, source=event.source,
        )
        with self._lock:
            if observation.valid:
                self._pending.append(observation)
            else:
                self._rejected += 1

    def close(self) -> None:
        """Unsubscribe from the stage bus and every watched store."""
        self._obs.remove_stage_listener(self._on_stage)
        for store, listener in self._watched:
            store.unsubscribe(listener)
        self._watched.clear()

    # ------------------------------------------------------------------
    # The loop
    # ------------------------------------------------------------------
    def step(self) -> ReplanDecision:
        """Run one adaptation pass; returns what was decided."""
        self._steps_metric.inc()
        # The step span parents to the ambient context (a traced workload's
        # root) and becomes ambient itself, so the swap span -- and any
        # store/planner spans a replan opens -- hang off this step.
        with self._obs.span("adapt.step") as span:
            with self._obs.activate(span.context):
                decision = self._step_impl()
            span.set(reason=decision.reason, swapped=decision.swapped,
                     plan_changed=decision.plan_changed, gain=decision.gain)
            return decision

    def _step_impl(self) -> ReplanDecision:
        with self._lock:
            drained = list(self._pending)
            self._pending.clear()
        used = self._calibrator.observe_all(drained)
        observed = self._calibrator.observed_costs()
        scales = observed.scales()
        drifted = self._detector.update(scales)
        with self._lock:
            catalog_dirty, self._catalog_dirty = self._catalog_dirty, False
            slo_dirty, self._slo_dirty = self._slo_dirty, False
            self._steps += 1
            self._observations += used
            if drifted:
                self._drifts += 1
            current = self._current
        if not drifted and not catalog_dirty and not slo_dirty:
            with self._lock:
                self._last_reason = "no-drift"
            return ReplanDecision(swapped=False, reason="no-drift")
        if slo_dirty:
            self._obs.note("adapt.slo_replan", drifted=drifted,
                           catalog_dirty=catalog_dirty)
        decision = self._replanner.replan(current, observed)
        self._replans_metric.inc()
        with self._lock:
            self._replans += 1
            self._last_reason = decision.reason
        if decision.swapped:
            self._swaps_metric.inc()
            swap_span = self._obs.span(
                "adapt.swap",
                plan=decision.candidate.plan.describe(),
                plan_changed=decision.plan_changed,
                targets=len(self._targets),
            )
            # Adaptation is advisory end to end: one failing target (a
            # closed server, a factory bug) must neither kill the loop
            # driving step() nor block the other targets -- and the
            # controller's notion of the live plan follows the decision,
            # so future replans are scored against what the healthy
            # targets are now running.
            for target in list(self._targets):
                try:
                    target.apply(decision.candidate)
                except Exception:
                    with self._lock:
                        self._target_failures += 1
            with self._lock:
                self._current = decision.candidate
                self._swaps += 1
            swap_span.finish()
        # Either way this world state has been considered: measure future
        # drift relative to it instead of re-firing every step.
        self._detector.acknowledge(scales)
        return decision

    def stats(self) -> ControllerStats:
        """Snapshot of the controller's lifetime counters."""
        with self._lock:
            return ControllerStats(
                steps=self._steps,
                observations=self._observations,
                drifts=self._drifts,
                catalog_events=self._catalog_events,
                replans=self._replans,
                swaps=self._swaps,
                last_reason=self._last_reason,
                target_failures=self._target_failures,
                slo_events=self._slo_events,
                rejected=self._rejected,
            )
