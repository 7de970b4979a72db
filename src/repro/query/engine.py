"""Smol-Query: planner-driven, cluster-sharded analytics query execution.

The :class:`QueryEngine` is the front-end that turns one declarative
:class:`~repro.query.spec.QuerySpec` into an executed query:

1. **Plan** -- the core planner enumerates (model, rendition) candidates for
   the query's dataset and picks the Pareto-optimal plan per stage: the
   throughput-optimal plan for the cheap pass (optionally under the spec's
   accuracy floor) and the accuracy-optimal plan for the expensive stage.
2. **Scan** -- the cheap pass is compiled into shard tasks and dispatched
   over the cluster runtime (:class:`~repro.query.scan.ClusterScanRunner`
   for frame scans, :class:`~repro.cluster.runner.ShardedCorpusRunner` for
   cascade corpora), so it scales across 1/2/4/8 plan-warmed workers.
3. **Merge** -- per-shard sufficient statistics (exact score sums, integer
   confusion matrices) merge into global results **bit-identical** to the
   single-process analytics engines; :meth:`QueryEngine.execute_single` runs
   those engines directly as the reference.

The target-DNN pass (sampling for aggregation, verification for limit
queries) is driver-side: it touches only a small sampled subset and must see
the globally merged cheap-pass statistics to preserve the paper's estimator
guarantees.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.analytics.aggregation import AggregationEngine, AggregationQuery
from repro.analytics.classification import CascadeClassifier
from repro.analytics.limit_queries import (
    LimitQuery,
    LimitQueryEngine,
    verification_scan,
)
from repro.analytics.sampling import adaptive_mean_estimate
from repro.analytics.scan import (
    compute_scan_costs,
    proxy_scan_order,
)
from repro.cluster.runner import (
    CorpusRunReport,
    LabeledExample,
    ShardedCorpusRunner,
    run_single_process,
)
from repro.core.accuracy import DATASET_TOP_ACCURACY, AccuracyEstimator
from repro.core.costmodel import SmolCostModel
from repro.core.planner import PlanGenerator, PlannerFeatures
from repro.core.plans import PlanConstraints, PlanEstimate
from repro.codecs.formats import list_input_formats
from repro.datasets.video import VideoDataset, load_video_dataset
from repro.errors import QueryError
from repro.hardware.instance import CloudInstance, get_instance
from repro.inference.perfmodel import EngineConfig, PerformanceModel
from repro.obs import NULL_OBS
from repro.query.scan import ClusterScanRunner, ScanReport
from repro.query.spec import QuerySpec
from repro.serving.session import SimulatedSession

# Calibration defaults for video counting tasks, which are easier than
# ImageNet classification: near-saturated top accuracy, mild sensitivity to
# input fidelity (matching the paper's observation that low-resolution
# renditions cost video queries very little accuracy).
VIDEO_TOP_ACCURACY = 0.95
VIDEO_SENSITIVITY = 0.4

#: Fraction of cascade inputs forwarded to the target DNN.
CASCADE_PASS_THROUGH = 0.15


@dataclass(frozen=True)
class QueryStagePlans:
    """The planner's per-stage choices for one query."""

    cheap: PlanEstimate
    accurate: PlanEstimate

    def describe(self) -> str:
        """Two-line human-readable summary."""
        return (f"cheap pass: {self.cheap.plan.describe()} "
                f"({self.cheap.throughput:,.0f} im/s)\n"
                f"accurate:   {self.accurate.plan.describe()} "
                f"({self.accurate.accuracy:.3f} acc)")


@dataclass(frozen=True)
class QueryExecution:
    """How one query's cheap pass actually executed."""

    num_workers: int
    num_shards: int
    frames_scanned: int
    cheap_pass_modelled_s: float
    cheap_pass_makespan_s: float
    wall_seconds: float

    @property
    def modelled_speedup(self) -> float:
        """Parallel speedup of the cheap pass (total / makespan)."""
        if self.cheap_pass_makespan_s <= 0:
            return 0.0
        return self.cheap_pass_modelled_s / self.cheap_pass_makespan_s


@dataclass(frozen=True)
class AggregateQueryResult:
    """Result of one sharded aggregation query."""

    spec: QuerySpec
    plans: QueryStagePlans
    estimate: float
    ci_half_width: float
    true_mean: float
    estimator_variance: float
    target_invocations: int
    specialized_pass_seconds: float
    target_pass_seconds: float
    population_proxy_mean: float
    execution: QueryExecution

    @property
    def achieved_error(self) -> float:
        """Absolute error of the estimate against the ground truth."""
        return abs(self.estimate - self.true_mean)

    @property
    def total_seconds(self) -> float:
        """Modelled single-replica query execution time."""
        return self.specialized_pass_seconds + self.target_pass_seconds

    def describe(self) -> str:
        """Multi-line human-readable report."""
        return "\n".join([
            f"query:      {self.spec.describe()}",
            f"estimate:   {self.estimate:.4f} +/- {self.ci_half_width:.4f} "
            f"(truth {self.true_mean:.4f})",
            f"samples:    {self.target_invocations} target-DNN invocations",
            f"cheap pass: {self.specialized_pass_seconds:.1f}s modelled, "
            f"{self.execution.modelled_speedup:.2f}x over "
            f"{self.execution.num_workers} workers",
        ])


@dataclass(frozen=True)
class LimitQueryShardedResult:
    """Result of one sharded limit query."""

    spec: QuerySpec
    plans: QueryStagePlans
    found_frames: tuple[int, ...]
    frames_scanned: int
    target_invocations: int
    specialized_pass_seconds: float
    target_pass_seconds: float
    execution: QueryExecution

    @property
    def satisfied(self) -> bool:
        """Whether the requested number of frames was found."""
        return len(self.found_frames) >= (self.spec.limit or 0)

    @property
    def total_seconds(self) -> float:
        """Modelled single-replica query execution time."""
        return self.specialized_pass_seconds + self.target_pass_seconds

    def describe(self) -> str:
        """Multi-line human-readable report."""
        return "\n".join([
            f"query:      {self.spec.describe()}",
            f"found:      {len(self.found_frames)}/{self.spec.limit} frames "
            f"after scanning {self.frames_scanned}",
            f"cheap pass: {self.specialized_pass_seconds:.1f}s modelled, "
            f"{self.execution.modelled_speedup:.2f}x over "
            f"{self.execution.num_workers} workers",
        ])


@dataclass(frozen=True)
class CascadeQueryResult:
    """Result of one sharded cascade-classification query."""

    spec: QuerySpec
    plans: QueryStagePlans
    accuracy: float
    accuracy_ci_half_width: float
    mean_prediction: float
    confusion: np.ndarray
    cascade_accuracy: float
    cascade_throughput: float
    execution: QueryExecution

    def describe(self) -> str:
        """Multi-line human-readable report."""
        return "\n".join([
            f"query:      {self.spec.describe()}",
            f"corpus:     accuracy {self.accuracy * 100:.2f}% "
            f"+/- {self.accuracy_ci_half_width * 100:.2f}% over "
            f"{int(self.confusion.sum())} images",
            f"cascade:    {self.cascade_throughput:,.0f} im/s modelled at "
            f"{self.cascade_accuracy * 100:.2f}% accuracy",
            f"cheap pass: {self.execution.modelled_speedup:.2f}x over "
            f"{self.execution.num_workers} workers",
        ])


class QueryEngine:
    """Plans and executes declarative analytics queries, sharded or not.

    Parameters
    ----------
    instance / performance_model:
        The modelled hardware (a name or a prebuilt model).
    config:
        Engine configuration; defaults to one producer per vCPU.
    features:
        Planner feature flags (lesion studies plug in here).
    frame_limit:
        Functional scan length bound for video queries.
    batch_size:
        Frames (or images) per dispatched micro-batch.
    store:
        Optional :class:`~repro.store.store.RenditionStore`.  Cheap passes
        then read/write score tables through the store (repeat queries are
        cache hits, shard replicas stream chunks instead of holding full
        tables) and the planner prices plans cache-aware: renditions the
        store has materialized get their decode cost discounted.
    obs:
        Optional :class:`~repro.obs.Observability`.  Each :meth:`execute`
        then opens a ``query.execute`` span (parented to the caller's
        ambient trace context, if any) with ``query.plan`` /
        ``query.scan`` / ``query.merge`` children, and the scan's cluster
        and store activity parents into the same trace.  Tracing never
        perturbs results: scores stay bit-identical to an untraced run.
    """

    def __init__(self, instance: CloudInstance | str = "g4dn.xlarge",
                 performance_model: PerformanceModel | None = None,
                 config: EngineConfig | None = None,
                 features: PlannerFeatures | None = None,
                 frame_limit: int = 20_000,
                 batch_size: int = 256,
                 store=None, obs=NULL_OBS) -> None:
        if performance_model is None:
            if isinstance(instance, str):
                instance = get_instance(instance)
            performance_model = PerformanceModel(instance)
        if frame_limit <= 0:
            raise QueryError("frame_limit must be positive")
        if batch_size <= 0:
            raise QueryError("batch_size must be positive")
        self._perf = performance_model
        self._config = config or EngineConfig(
            num_producers=performance_model.instance.vcpus
        )
        self._features = features or PlannerFeatures()
        self._frame_limit = frame_limit
        self._batch_size = batch_size
        self._store = store
        self._obs = obs if obs is not None else NULL_OBS

    @property
    def performance_model(self) -> PerformanceModel:
        """The calibrated performance model queries are costed against."""
        return self._perf

    @property
    def config(self) -> EngineConfig:
        """The engine configuration used for every stage estimate."""
        return self._config

    @property
    def store(self):
        """The attached rendition/score store, or None."""
        return self._store

    # ------------------------------------------------------------------
    # Planning
    # ------------------------------------------------------------------
    def _planner(self, spec: QuerySpec) -> PlanGenerator:
        """A plan generator calibrated for the query's dataset."""
        if spec.dataset in DATASET_TOP_ACCURACY:
            accuracy = AccuracyEstimator(spec.dataset)
        else:
            accuracy = AccuracyEstimator(spec.dataset,
                                         top_accuracy=VIDEO_TOP_ACCURACY,
                                         sensitivity=VIDEO_SENSITIVITY)
        catalog = None
        if self._store is not None:
            from repro.query.scan import scan_store_fingerprint

            catalog = self._store.catalog(
                item=spec.dataset, fingerprint=scan_store_fingerprint()
            )
        return PlanGenerator(
            cost_model=SmolCostModel(self._perf, self._config),
            accuracy=accuracy,
            features=self._features,
            catalog=catalog,
        )

    def stage_plans(self, spec: QuerySpec) -> QueryStagePlans:
        """Pareto-optimal plan per query stage, chosen by the core planner.

        The cheap pass takes the throughput champion of the frontier (under
        the spec's accuracy floor when one is given); the accurate stage
        takes the frontier's accuracy champion.
        """
        planner = self._planner(spec)
        formats = None
        if spec.kind in ("aggregate", "limit"):
            formats = load_video_dataset(spec.dataset).available_formats
        elif not self._features.use_low_resolution:
            formats = list_input_formats()
        frontier = planner.pareto_frontier(formats)
        if not frontier:
            raise QueryError("planner produced an empty frontier")
        if spec.accuracy_floor is not None:
            cheap = planner.select(
                PlanConstraints(accuracy_floor=spec.accuracy_floor), formats
            )
        else:
            cheap = max(frontier, key=lambda e: e.throughput)
        accurate = max(frontier, key=lambda e: e.accuracy)
        return QueryStagePlans(cheap=cheap, accurate=accurate)

    def warm(self, spec: QuerySpec,
             rendition_frames: int = 0) -> QueryStagePlans:
        """Pre-materialize the attached store for ``spec``'s cheap pass.

        Plans the query (cold pricing), then writes the cheap-pass score
        table through the store so the next :meth:`execute` of the same
        spec is a pure cache hit, and optionally materializes
        ``rendition_frames`` decoded frames of the chosen rendition --
        after which the planner prices that rendition cache-aware.

        Only aggregate/limit specs scan frames; warming a cascade spec is
        an error.  Requires a store.
        """
        if self._store is None:
            raise QueryError("warm() needs a store (pass store= to the "
                             "engine)")
        if spec.kind == "cascade":
            raise QueryError("cascade specs have no frame scan to warm")
        from repro.store.store import RenditionKey

        plans = self.stage_plans(spec)
        dataset = load_video_dataset(spec.dataset)
        costs = self._scan_costs(dataset, plans)
        rendition = plans.cheap.plan.input_format.name
        if rendition_frames > 0:
            from repro.query.scan import scan_store_fingerprint

            frames = dataset.render_frames(
                min(rendition_frames, dataset.num_frames)
            )
            self._store.put_rendition(
                RenditionKey(dataset.name, rendition),
                np.stack([frame.pixels for frame in frames]),
                fingerprint=scan_store_fingerprint(),
            )
        runner = ClusterScanRunner(
            dataset=dataset,
            specialized_accuracy=spec.specialized_accuracy,
            costs=costs,
            plan_key=f"scan:{plans.cheap.plan.describe()}",
            num_workers=1,
            batch_size=self._batch_size,
            store=self._store,
            rendition=rendition,
            obs=self._obs,
        )
        runner.session().warmup()
        return plans

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def execute(self, spec: QuerySpec, num_workers: int = 1, seed: int = 0,
                router: str = "round-robin"):
        """Execute ``spec`` with its cheap pass sharded over ``num_workers``.

        Estimates and CI bounds are bit-identical for every worker count
        (and to :meth:`execute_single`): the cheap pass merges exact
        per-shard sufficient statistics, and the target-DNN pass is a
        deterministic driver-side function of those merged statistics.
        """
        if num_workers <= 0:
            raise QueryError("num_workers must be positive")
        if not self._obs.enabled:
            return self._execute_impl(spec, num_workers, seed, router)
        # Parents to the caller's ambient context (e.g. an enclosing traced
        # workload); activating the span makes every downstream span --
        # planning, scan batches, cluster hops, store reads -- one tree.
        span = self._obs.span("query.execute", kind=spec.kind,
                              dataset=spec.dataset, workers=num_workers)
        try:
            with self._obs.activate(span.context):
                return self._execute_impl(spec, num_workers, seed, router)
        except Exception as exc:
            span.set(error=type(exc).__name__)
            self._obs.note("query.failed", query_kind=spec.kind,
                           dataset=spec.dataset,
                           error=type(exc).__name__)
            raise
        finally:
            span.finish()

    def _execute_impl(self, spec: QuerySpec, num_workers: int, seed: int,
                      router: str):
        with self._obs.span("query.plan", dataset=spec.dataset):
            plans = self.stage_plans(spec)
        if spec.kind == "cascade":
            return self._execute_cascade(spec, plans, num_workers, router)
        dataset = load_video_dataset(spec.dataset)
        costs = self._scan_costs(dataset, plans)
        runner = ClusterScanRunner(
            dataset=dataset,
            specialized_accuracy=spec.specialized_accuracy,
            costs=costs,
            plan_key=f"scan:{plans.cheap.plan.describe()}",
            num_workers=num_workers,
            batch_size=self._batch_size,
            router=router,
            store=self._store,
            rendition=plans.cheap.plan.input_format.name,
            obs=self._obs,
        )
        report = runner.run()
        truth = dataset.ground_truth_counts(costs.frames_used).astype(
            np.float64
        )
        execution = QueryExecution(
            num_workers=num_workers,
            num_shards=len(report.shards),
            frames_scanned=report.frames_used,
            cheap_pass_modelled_s=report.total.modelled_seconds,
            cheap_pass_makespan_s=report.makespan_seconds,
            wall_seconds=report.wall_seconds,
        )
        with self._obs.span("query.merge", kind=spec.kind):
            if spec.kind == "aggregate":
                return self._finish_aggregate(spec, plans, costs, report,
                                              truth, execution, seed)
            return self._finish_limit(spec, plans, costs, report, truth,
                                      execution)

    def execute_single(self, spec: QuerySpec, seed: int = 0):
        """Single-process reference execution via the analytics engines.

        Sharded executions must match this path bit for bit on every
        estimate and CI bound.
        """
        plans = self.stage_plans(spec)
        if spec.kind == "cascade":
            return self._execute_cascade(spec, plans, num_workers=1,
                                         router="round-robin",
                                         single_process=True)
        dataset = load_video_dataset(spec.dataset)
        execution = QueryExecution(
            num_workers=1, num_shards=1,
            frames_scanned=min(self._frame_limit, dataset.num_frames),
            cheap_pass_modelled_s=0.0, cheap_pass_makespan_s=0.0,
            wall_seconds=0.0,
        )
        cheap_model = plans.cheap.plan.primary_model
        cheap_fmt = plans.cheap.plan.input_format
        if spec.kind == "aggregate":
            engine = AggregationEngine(self._perf, self._config)
            result = engine.execute(
                AggregationQuery(dataset=dataset,
                                 error_bound=spec.error_bound),
                cheap_model, cheap_fmt,
                specialized_accuracy=spec.specialized_accuracy,
                pilot_fraction=spec.pilot_fraction, seed=seed,
                frame_limit=self._frame_limit,
            )
            return AggregateQueryResult(
                spec=spec, plans=plans,
                estimate=result.estimate,
                ci_half_width=result.ci_half_width,
                true_mean=result.true_mean,
                estimator_variance=result.estimator_variance,
                target_invocations=result.target_invocations,
                specialized_pass_seconds=result.specialized_pass_seconds,
                target_pass_seconds=result.target_pass_seconds,
                population_proxy_mean=result.proxy_population_mean,
                execution=execution,
            )
        engine = LimitQueryEngine(self._perf, self._config)
        result = engine.execute(
            LimitQuery(dataset=dataset, min_count=spec.min_count,
                       limit=spec.limit),
            cheap_model, cheap_fmt,
            specialized_accuracy=spec.specialized_accuracy,
            frame_limit=self._frame_limit,
        )
        return LimitQueryShardedResult(
            spec=spec, plans=plans,
            found_frames=result.found_frames,
            frames_scanned=result.frames_scanned,
            target_invocations=result.target_invocations,
            specialized_pass_seconds=result.specialized_pass_seconds,
            target_pass_seconds=result.target_pass_seconds,
            execution=execution,
        )

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _scan_costs(self, dataset: VideoDataset, plans: QueryStagePlans):
        frames_used = min(self._frame_limit, dataset.num_frames)
        return compute_scan_costs(
            self._perf, self._config, plans.cheap.plan.primary_model,
            plans.cheap.plan.input_format, dataset, frames_used,
        )

    def _finish_aggregate(self, spec: QuerySpec, plans: QueryStagePlans,
                          costs, report: ScanReport, truth: np.ndarray,
                          execution: QueryExecution,
                          seed: int) -> AggregateQueryResult:
        final = adaptive_mean_estimate(
            truth, report.scores, spec.error_bound,
            pilot_fraction=spec.pilot_fraction, seed=seed,
            use_control_variate=True,
            proxy_population_mean=report.population_mean,
        )
        return AggregateQueryResult(
            spec=spec, plans=plans,
            estimate=final.estimate,
            ci_half_width=final.half_width,
            true_mean=float(truth.mean()),
            estimator_variance=final.variance,
            target_invocations=costs.target_invocations(final.samples_used),
            specialized_pass_seconds=costs.specialized_pass_seconds,
            target_pass_seconds=costs.target_pass_seconds(final.samples_used),
            population_proxy_mean=report.population_mean,
            execution=execution,
        )

    def _finish_limit(self, spec: QuerySpec, plans: QueryStagePlans, costs,
                      report: ScanReport, truth: np.ndarray,
                      execution: QueryExecution) -> LimitQueryShardedResult:
        order = proxy_scan_order(report.scores)
        found, scanned = verification_scan(truth, order, spec.min_count,
                                           spec.limit)
        return LimitQueryShardedResult(
            spec=spec, plans=plans,
            found_frames=tuple(found),
            frames_scanned=scanned,
            target_invocations=costs.target_invocations(scanned),
            specialized_pass_seconds=costs.specialized_pass_seconds,
            target_pass_seconds=costs.target_pass_seconds(scanned),
            execution=execution,
        )

    def _execute_cascade(self, spec: QuerySpec, plans: QueryStagePlans,
                         num_workers: int, router: str,
                         single_process: bool = False) -> CascadeQueryResult:
        examples = [
            LabeledExample(image_id=f"{spec.dataset}-img-{index}",
                           label=index % spec.num_classes)
            for index in range(spec.images)
        ]
        plan = plans.cheap.plan

        def factory(worker_id, results):
            from repro.cluster.worker import ThreadWorker

            session = SimulatedSession(plan, self._perf, config=self._config,
                                       num_classes=spec.num_classes)
            session.warmup()
            return ThreadWorker(worker_id, session, results, obs=self._obs)

        if single_process:
            session = SimulatedSession(plan, self._perf, config=self._config,
                                       num_classes=spec.num_classes)
            corpus: CorpusRunReport = run_single_process(
                examples, session, num_classes=spec.num_classes,
                batch_size=self._batch_size,
                format_name=plan.input_format.name,
            )
        else:
            runner = ShardedCorpusRunner(
                factory, num_workers=num_workers,
                num_classes=spec.num_classes, batch_size=self._batch_size,
                router=router, format_name=plan.input_format.name,
                obs=self._obs,
            )
            corpus = runner.run(examples)
        classifier = CascadeClassifier(self._perf, self._config)
        evaluation = classifier.evaluate(
            plan.primary_model, plans.accurate.plan.primary_model,
            plan.input_format,
            proxy_accuracy=plans.cheap.accuracy,
            target_accuracy=plans.accurate.accuracy,
            pass_through_rate=CASCADE_PASS_THROUGH,
            num_classes=spec.num_classes,
        )
        execution = QueryExecution(
            num_workers=corpus.num_workers,
            num_shards=len(corpus.shards),
            frames_scanned=corpus.total.count,
            cheap_pass_modelled_s=corpus.total.modelled_seconds,
            cheap_pass_makespan_s=corpus.makespan_seconds,
            wall_seconds=corpus.wall_seconds,
        )
        return CascadeQueryResult(
            spec=spec, plans=plans,
            accuracy=corpus.total.accuracy,
            accuracy_ci_half_width=corpus.total.accuracy_ci_half_width(),
            mean_prediction=corpus.total.mean_prediction,
            confusion=corpus.total.confusion.copy(),
            cascade_accuracy=evaluation.accuracy,
            cascade_throughput=evaluation.throughput,
            execution=execution,
        )
