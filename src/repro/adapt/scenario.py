"""Deterministic drift scenarios: the adaptive loop against a moving world.

Two end-to-end scenarios, shared by the ``adapt`` CLI subcommand,
``benchmarks/bench_adapt.py``, ``examples/adaptive_serving.py``, and the
integration tests:

* :func:`run_serving_drift_scenario` -- an online :class:`SmolServer`
  serves waves of requests; mid-run, decode for the live plan's format
  slows by ``drift_factor`` and (optionally) a decoded rendition of a
  different format becomes warm in the store.  The adaptive run notices
  through telemetry + the store subscription, replans, and hot-swaps the
  serving session; the frozen run keeps paying the drifted costs.

* :func:`run_scan_drift_scenario` -- an aggregate query's cheap pass
  streams over the cluster runtime in segments
  (:meth:`~repro.query.scan.ClusterScanRunner.run` with ``frame_range``);
  mid-stream, decode slows and the scanned rendition becomes warm.  The
  adaptive run hot-swaps the shared :class:`~repro.query.scan.ScanPace`
  onto warm chunk reads; scores and the aggregate estimate are
  **bit-identical** to the frozen run by construction, because a pace swap
  changes only costs.

Everything is measured in modelled time, so both scenarios are
deterministic: recovery ratios do not depend on scheduler jitter.
"""

from __future__ import annotations

import shutil
import tempfile
from dataclasses import dataclass, field

import numpy as np

from repro.adapt.calibrator import OnlineCalibrator
from repro.adapt.drift import DriftDetector
from repro.adapt.replanner import (
    AdaptiveController,
    Replanner,
    ScanPaceTarget,
    ServerSwapTarget,
)
from repro.adapt.session import (
    DriftableSession,
    DriftEnvironment,
    register_plan_baselines,
)
from repro.adapt.telemetry import TelemetryCollector
from repro.analytics.sampling import adaptive_mean_estimate
from repro.core.accuracy import AccuracyEstimator
from repro.core.costmodel import SmolCostModel
from repro.core.planner import PlanGenerator
from repro.core.plans import PlanEstimate
from repro.errors import AdaptError
from repro.hardware.instance import get_instance
from repro.inference.perfmodel import EngineConfig, PerformanceModel
from repro.serving.scheduler import BatchPolicy
from repro.serving.request import InferenceRequest
from repro.serving.server import SmolServer
from repro.serving.session import session_stage_estimate


@dataclass(frozen=True)
class PhaseReport:
    """Modelled throughput of one scenario phase (wave or segment)."""

    index: int
    images: int
    modelled_seconds: float
    plan_key: str
    decision: str = ""

    @property
    def throughput(self) -> float:
        """Images (or frames) per modelled second in this phase."""
        if self.modelled_seconds <= 0:
            return 0.0
        return self.images / self.modelled_seconds


@dataclass(frozen=True)
class ScenarioReport:
    """Outcome of one drift scenario run (frozen or adaptive).

    ``recovery`` is the scenario's headline: post-drift steady-state
    throughput as a fraction of the pre-drift throughput.  A frozen run
    under a 4x decode slowdown lands near ``1 / 3.5`` (decode dominates
    preprocessing); an adaptive run that replanned onto a cheaper path
    recovers to (or beyond) 1.0.
    """

    adaptive: bool
    phases: tuple[PhaseReport, ...]
    drift_phase: int
    initial_plan_key: str
    final_plan_key: str
    swaps: int
    replans: int
    scores: np.ndarray | None = None
    estimate: float | None = None
    ci_half_width: float | None = None
    extras: dict = field(default_factory=dict)

    @property
    def pre_drift_throughput(self) -> float:
        """Mean modelled throughput of the phases before the drift."""
        pre = [p for p in self.phases if p.index < self.drift_phase]
        images = sum(p.images for p in pre)
        seconds = sum(p.modelled_seconds for p in pre)
        return images / seconds if seconds > 0 else 0.0

    @property
    def post_drift_throughput(self) -> float:
        """Modelled throughput of the final (steady-state) phase."""
        return self.phases[-1].throughput if self.phases else 0.0

    @property
    def recovery(self) -> float:
        """Post-drift throughput as a fraction of pre-drift throughput."""
        pre = self.pre_drift_throughput
        return self.post_drift_throughput / pre if pre > 0 else 0.0

    def scorecard_row(self, scenario: str) -> dict:
        """The ``BENCH_adapt.json`` row for this run.

        The single source of the row schema: both
        ``benchmarks/bench_adapt.py`` and the ``adapt`` CLI build their
        scorecards from it, so the two producers of the artifact cannot
        diverge.
        """
        return {
            "scenario": scenario,
            "mode": "adaptive" if self.adaptive else "frozen",
            "pre_drift_throughput": round(self.pre_drift_throughput, 2),
            "post_drift_throughput": round(self.post_drift_throughput, 2),
            "recovery": round(self.recovery, 4),
            "swaps": self.swaps,
            "replans": self.replans,
            "initial_plan": self.initial_plan_key,
            "final_plan": self.final_plan_key,
        }

    def describe(self) -> str:
        """Multi-line human-readable summary."""
        mode = "adaptive" if self.adaptive else "frozen"
        lines = [
            f"mode:       {mode}",
            f"plan:       {self.initial_plan_key} -> {self.final_plan_key}",
            f"pre-drift:  {self.pre_drift_throughput:,.0f} im/s",
            f"post-drift: {self.post_drift_throughput:,.0f} im/s "
            f"({self.recovery * 100:.0f}% recovered)",
            f"swaps:      {self.swaps} ({self.replans} replans)",
        ]
        if self.estimate is not None:
            lines.append(
                f"estimate:   {self.estimate:.4f} "
                f"+/- {self.ci_half_width:.4f}"
            )
        return "\n".join(lines)


def scan_identity(frozen: ScenarioReport,
                  adaptive: ScenarioReport) -> dict:
    """The replan-safety identity check between two scan runs.

    The single source of the ``BENCH_adapt.json`` identity meta (shared
    by ``benchmarks/bench_adapt.py`` and the ``adapt`` CLI):
    ``scores_identical`` is a bitwise array comparison,
    ``estimate_identical`` demands float-exact equality of the aggregate
    estimate and its CI half-width.
    """
    return {
        "scores_identical": bool(
            np.array_equal(frozen.scores, adaptive.scores)
        ),
        "estimate_identical": (
            frozen.estimate == adaptive.estimate
            and frozen.ci_half_width == adaptive.ci_half_width
        ),
    }


#: Fingerprint scenario renditions are stored under (versioned with the
#: scenario, so a semantics change invalidates old demo stores).
def _rendition_fingerprint() -> str:
    from repro.store.store import fingerprint_of

    return fingerprint_of("adapt-scenario-rendition", 1)


def _stage_base(perf: PerformanceModel, estimate: PlanEstimate,
                config: EngineConfig) -> dict[str, float]:
    """Calibrated per-image stage seconds for one plan estimate."""
    return session_stage_estimate(
        perf, estimate.plan, config
    ).observed_stage_seconds()


def environment_pace_costs(environment: DriftEnvironment,
                           perf: PerformanceModel, config: EngineConfig):
    """A :class:`ScanPaceTarget`-compatible cost function.

    Returns ``costs(estimate) -> (seconds_per_frame, stage_split)`` priced
    by the environment: warm formats stream the materialized rendition,
    cold formats pay any injected decode drift.
    """
    def costs(estimate: PlanEstimate) -> tuple[float, dict[str, float]]:
        fmt = estimate.plan.input_format.name
        base = _stage_base(perf, estimate, config)
        warm = environment.is_materialized(fmt)
        return (
            environment.service_seconds_per_image(fmt, base, warm_read=warm),
            environment.stage_seconds(fmt, base, warm_read=warm),
        )
    return costs


def _validate_loop_knobs(threshold: float, hysteresis: int,
                         min_improvement: float) -> None:
    """Fail fast on bad adaptation knobs (same rules the loop enforces)."""
    if threshold <= 1.0:
        raise AdaptError("threshold must exceed 1.0")
    if hysteresis < 1:
        raise AdaptError("hysteresis must be at least 1")
    if min_improvement < 0:
        raise AdaptError("min_improvement must be non-negative")


# ----------------------------------------------------------------------
# Serving scenario
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class ServingDriftConfig:
    """Knobs of the serving drift scenario (defaults run in <~2s).

    ``materialize_format`` names the rendition that becomes warm in the
    store at the drift wave ("" disables materialization: recovery is then
    limited to the best *cold* alternative plan, which exercises the pure
    drift-detector path).
    """

    dataset: str = "imagenet"
    instance: str = "g4dn.xlarge"
    waves: int = 6
    wave_requests: int = 256
    drift_wave: int = 2
    drift_factor: float = 4.0
    materialize_format: str = "161-jpeg-q95"
    threshold: float = 1.5
    hysteresis: int = 2
    min_improvement: float = 0.1
    max_batch: int = 32

    def __post_init__(self) -> None:
        if self.waves < 3:
            raise AdaptError("waves must be at least 3")
        if not 1 <= self.drift_wave < self.waves - 1:
            raise AdaptError(
                "drift_wave must leave at least one wave before and after"
            )
        if self.drift_factor <= 0:
            raise AdaptError("drift_factor must be positive")
        if self.wave_requests <= 0:
            raise AdaptError("wave_requests must be positive")
        _validate_loop_knobs(self.threshold, self.hysteresis,
                             self.min_improvement)


def run_serving_drift_scenario(adaptive: bool,
                               config: ServingDriftConfig | None = None,
                               ) -> ScenarioReport:
    """Serve waves of traffic through a drifting world; report recovery."""
    from repro.store.store import RenditionKey, RenditionStore

    config = config or ServingDriftConfig()
    perf = PerformanceModel(get_instance(config.instance))
    engine_config = EngineConfig(num_producers=perf.instance.vcpus)
    environment = DriftEnvironment()
    fingerprint = _rendition_fingerprint()
    store_root = tempfile.mkdtemp(prefix="smol-adapt-serve-")
    try:
        store = RenditionStore(store_root)
        accuracy = AccuracyEstimator(config.dataset)

        def planner_factory(observations=None) -> PlanGenerator:
            return PlanGenerator(
                cost_model=SmolCostModel(perf, engine_config),
                accuracy=accuracy,
                catalog=store.catalog(item=config.dataset,
                                      fingerprint=fingerprint),
                observations=observations,
            )

        planner = planner_factory()
        candidates = planner.score(planner.generate())
        initial = max(candidates, key=lambda e: (e.throughput, e.accuracy))
        drift_format = initial.plan.input_format.name

        def session_factory(estimate: PlanEstimate) -> DriftableSession:
            fmt = estimate.plan.input_format.name
            session = DriftableSession(
                estimate.plan, perf, environment, config=engine_config,
                warm_read=environment.is_materialized(fmt),
            )
            session.warmup()
            return session

        telemetry = TelemetryCollector()
        controller = None
        if adaptive:
            calibrator = OnlineCalibrator()
            register_plan_baselines(calibrator, perf, candidates,
                                    engine_config)
            controller = AdaptiveController(
                telemetry=telemetry,
                calibrator=calibrator,
                replanner=Replanner(planner_factory,
                                    min_improvement=config.min_improvement),
                current_plan=initial,
                detector=DriftDetector(threshold=config.threshold,
                                       hysteresis=config.hysteresis),
            )
            controller.watch_store(store)

        phases: list[PhaseReport] = []
        policy = BatchPolicy(name="adapt", max_batch_size=config.max_batch,
                             max_wait_ms=0.5)
        with SmolServer(session_factory(initial), policy=policy,
                        cache_capacity=0, telemetry=telemetry) as server:
            if controller is not None:
                controller.add_target(
                    ServerSwapTarget(server, session_factory)
                )
            for wave in range(config.waves):
                if wave == config.drift_wave:
                    environment.set_decode_multiplier(drift_format,
                                                      config.drift_factor)
                    if config.materialize_format:
                        environment.materialize(config.materialize_format)
                        store.put_rendition(
                            RenditionKey(config.dataset,
                                         config.materialize_format),
                            np.zeros((4, 8, 8, 3), dtype=np.uint8),
                            fingerprint=fingerprint,
                        )
                before = telemetry.counters()
                futures = [
                    server.submit(InferenceRequest(
                        image_id=f"wave{wave}-img{index}"
                    ))
                    for index in range(config.wave_requests)
                ]
                for future in futures:
                    future.result(timeout=30.0)
                after = telemetry.counters()
                decision = ""
                if controller is not None:
                    decision = controller.step().reason
                phases.append(PhaseReport(
                    index=wave,
                    images=after.images - before.images,
                    modelled_seconds=(after.modelled_seconds
                                      - before.modelled_seconds),
                    plan_key=(controller.current_plan.plan.describe()
                              if controller is not None
                              else initial.plan.describe()),
                    decision=decision,
                ))
        stats = controller.stats() if controller is not None else None
        if controller is not None:
            controller.close()
        return ScenarioReport(
            adaptive=adaptive,
            phases=tuple(phases),
            drift_phase=config.drift_wave,
            initial_plan_key=initial.plan.describe(),
            final_plan_key=phases[-1].plan_key,
            swaps=stats.swaps if stats else 0,
            replans=stats.replans if stats else 0,
            extras={"drift_format": drift_format,
                    "materialized": config.materialize_format},
        )
    finally:
        shutil.rmtree(store_root, ignore_errors=True)


# ----------------------------------------------------------------------
# Scan scenario
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class ScanDriftConfig:
    """Knobs of the segmented scan drift scenario."""

    dataset: str = "taipei"
    instance: str = "g4dn.xlarge"
    frames: int = 3000
    segments: int = 6
    drift_segment: int = 2
    drift_factor: float = 4.0
    materialize: bool = True
    workers: int = 2
    batch_size: int = 256
    error_bound: float = 0.05
    pilot_fraction: float = 0.02
    seed: int = 0
    threshold: float = 1.5
    hysteresis: int = 1
    min_improvement: float = 0.1

    def __post_init__(self) -> None:
        if self.segments < 3:
            raise AdaptError("segments must be at least 3")
        if not 1 <= self.drift_segment < self.segments - 1:
            raise AdaptError(
                "drift_segment must leave at least one segment before and "
                "after"
            )
        if self.drift_factor <= 0:
            raise AdaptError("drift_factor must be positive")
        if self.frames < self.segments:
            raise AdaptError("frames must cover at least one per segment")
        _validate_loop_knobs(self.threshold, self.hysteresis,
                             self.min_improvement)


def run_scan_drift_scenario(adaptive: bool,
                            config: ScanDriftConfig | None = None,
                            ) -> ScenarioReport:
    """Stream an aggregate query's cheap pass through a drifting world.

    The scan runs as contiguous segments; between segments the adaptive
    controller may hot-swap the shared pace (e.g. onto warm chunk reads of
    the rendition that materialized mid-query).  Scores and the final
    aggregate estimate are bit-identical between frozen and adaptive runs
    at every drift setting -- the replan-safety contract.
    """
    from repro.analytics.scan import compute_scan_costs
    from repro.cluster.dispatcher import Dispatcher
    from repro.cluster.runner import split_frame_ranges
    from repro.datasets.video import load_video_dataset
    from repro.query.engine import VIDEO_SENSITIVITY, VIDEO_TOP_ACCURACY
    from repro.query.scan import (
        ClusterScanRunner,
        ScanPace,
        ShardScanStats,
        scan_store_fingerprint,
    )
    from repro.store.store import RenditionKey, RenditionStore

    config = config or ScanDriftConfig()
    perf = PerformanceModel(get_instance(config.instance))
    engine_config = EngineConfig(num_producers=perf.instance.vcpus)
    environment = DriftEnvironment()
    dataset = load_video_dataset(config.dataset)
    frames = min(config.frames, dataset.num_frames)
    fingerprint = scan_store_fingerprint()
    store_root = tempfile.mkdtemp(prefix="smol-adapt-scan-")
    try:
        store = RenditionStore(store_root)
        accuracy = AccuracyEstimator(config.dataset,
                                     top_accuracy=VIDEO_TOP_ACCURACY,
                                     sensitivity=VIDEO_SENSITIVITY)
        formats = dataset.available_formats

        def planner_factory(observations=None) -> PlanGenerator:
            return PlanGenerator(
                cost_model=SmolCostModel(perf, engine_config),
                accuracy=accuracy,
                catalog=store.catalog(item=dataset.name,
                                      fingerprint=fingerprint),
                observations=observations,
            )

        planner = planner_factory()
        candidates = planner.score(planner.generate(formats))
        initial = max(candidates, key=lambda e: (e.throughput, e.accuracy))
        drift_format = initial.plan.input_format.name
        pace_costs = environment_pace_costs(environment, perf, engine_config)
        seconds_per_frame, stage_split = pace_costs(initial)
        pace = ScanPace(seconds_per_frame, initial.plan.describe(),
                        stage_split=stage_split)
        costs = compute_scan_costs(
            perf, engine_config, initial.plan.primary_model,
            initial.plan.input_format, dataset, frames,
        )
        runner = ClusterScanRunner(
            dataset=dataset,
            specialized_accuracy=0.9,
            costs=costs,
            plan_key=f"scan:{initial.plan.describe()}",
            num_workers=config.workers,
            batch_size=config.batch_size,
            store=store,
            rendition=drift_format,
            pace=pace,
        )

        telemetry = TelemetryCollector()
        controller = None
        if adaptive:
            calibrator = OnlineCalibrator()
            register_plan_baselines(calibrator, perf, candidates,
                                    engine_config)
            controller = AdaptiveController(
                telemetry=telemetry,
                calibrator=calibrator,
                replanner=Replanner(planner_factory, formats=formats,
                                    min_improvement=config.min_improvement),
                current_plan=initial,
                detector=DriftDetector(threshold=config.threshold,
                                       hysteresis=config.hysteresis),
                targets=[ScanPaceTarget(pace, pace_costs)],
            )
            controller.watch_store(store)

        phases: list[PhaseReport] = []
        segment_scores: list[np.ndarray] = []
        segment_totals: list = []
        for index, (lo, hi) in enumerate(
                split_frame_ranges(frames, config.segments)):
            if index == config.drift_segment:
                environment.set_decode_multiplier(drift_format,
                                                  config.drift_factor)
                # The world got slower for everyone, frozen or not: the
                # pace (actual execution cost) drifts with it.
                drifted_seconds, drifted_split = pace_costs(
                    controller.current_plan if controller is not None
                    else initial
                )
                pace.swap(drifted_seconds, pace.plan_key,
                          stage_split=drifted_split)
                if config.materialize:
                    environment.materialize(drift_format)
                    store.put_rendition(
                        RenditionKey(dataset.name, drift_format),
                        np.zeros((4, 8, 8, 3), dtype=np.uint8),
                        fingerprint=fingerprint,
                    )
            dispatcher = Dispatcher(runner.worker_factory(),
                                    num_workers=config.workers)
            dispatcher.attach_telemetry(telemetry)
            try:
                report = runner.run(dispatcher, frame_range=(lo, hi))
            finally:
                dispatcher.close()
            segment_scores.append(report.scores)
            segment_totals.append(report.total)
            decision = ""
            if controller is not None:
                decision = controller.step().reason
            phases.append(PhaseReport(
                index=index,
                images=report.frames_used,
                modelled_seconds=report.total.modelled_seconds,
                plan_key=pace.plan_key,
                decision=decision,
            ))
        scores = np.concatenate(segment_scores)
        merged = ShardScanStats.merge_all(segment_totals)
        truth = dataset.ground_truth_counts(frames).astype(np.float64)
        final = adaptive_mean_estimate(
            truth, scores, config.error_bound,
            pilot_fraction=config.pilot_fraction, seed=config.seed,
            use_control_variate=True,
            proxy_population_mean=merged.scores.mean,
        )
        stats = controller.stats() if controller is not None else None
        if controller is not None:
            controller.close()
        return ScenarioReport(
            adaptive=adaptive,
            phases=tuple(phases),
            drift_phase=config.drift_segment,
            initial_plan_key=initial.plan.describe(),
            final_plan_key=pace.plan_key,
            swaps=stats.swaps if stats else 0,
            replans=stats.replans if stats else 0,
            scores=scores,
            estimate=final.estimate,
            ci_half_width=final.half_width,
            extras={"drift_format": drift_format,
                    "pace_swaps": pace.swaps,
                    "frames": frames},
        )
    finally:
        shutil.rmtree(store_root, ignore_errors=True)
