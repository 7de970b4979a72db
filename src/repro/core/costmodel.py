"""Throughput cost models for end-to-end DNN inference (Section 4).

Three estimators are implemented:

* :class:`ExecutionOnlyCostModel` -- prior work's estimator (BlazeIt,
  NoScope, probabilistic predicates): end-to-end throughput equals the
  cascade's DNN execution throughput; preprocessing is ignored (Equation 2).
* :class:`SerialSumCostModel` -- Tahoma's estimator: preprocessing and DNN
  execution run back-to-back, so their per-image times add (Equation 3).
* :class:`SmolCostModel` -- the paper's corrected estimator: preprocessing is
  pipelined with DNN execution, so end-to-end throughput is the minimum of
  the two stage throughputs (Equation 4).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.plans import Plan
from repro.errors import PlanError
from repro.inference.perfmodel import EngineConfig, PerformanceModel, StageEstimate


@dataclass(frozen=True)
class ThroughputEstimate:
    """A cost model's estimate for one plan."""

    plan: Plan
    estimated_throughput: float
    preprocessing_throughput: float
    dnn_throughput: float
    model_name: str

    def error_against(self, measured_throughput: float) -> float:
        """Absolute relative error versus a measured throughput."""
        if measured_throughput <= 0:
            raise PlanError("measured throughput must be positive")
        return abs(self.estimated_throughput - measured_throughput) / measured_throughput


class CostModel:
    """Base class: computes stage throughputs, subclasses combine them.

    ``catalog`` makes the costing *cache-aware*: any object with
    ``decode_discount(format_name) -> float`` and
    ``is_materialized(format_name) -> bool`` methods (e.g.
    :class:`repro.store.catalog.StoreCatalog`) reporting which renditions
    are already materialized on disk.  For those formats the decode stage
    collapses to a chunk read, so preprocessing throughput is multiplied by
    the catalog's discount factor and already-materialized plans price
    accordingly cheaper.

    ``observations`` makes the costing *feedback-aware*: any object with
    ``preprocessing_scale(format_name, decoding=True) -> float`` and
    ``dnn_scale(model_name) -> float`` methods (e.g.
    :class:`repro.adapt.calibrator.ObservedCosts`) reporting how measured
    runtime stage costs compare to the calibrated model.  The scales are
    throughput multipliers (1.0 = the model was right; 0.25 = the stage
    runs 4x slower than modelled), so replanning under drift prices every
    candidate against the world as observed, not as calibrated.  When a
    catalog discount applies (decode bypassed by a materialized rendition),
    only the non-decode share of the observations is charged
    (``decoding=False``).
    """

    #: Short name used in benchmark tables.
    name = "base"

    def __init__(self, performance_model: PerformanceModel,
                 config: EngineConfig | None = None,
                 catalog=None, observations=None) -> None:
        self._perf = performance_model
        self._config = config or EngineConfig(
            num_producers=performance_model.instance.vcpus
        )
        self._catalog = catalog
        self._observations = observations

    @property
    def config(self) -> EngineConfig:
        """The engine configuration assumed by the estimates."""
        return self._config

    @property
    def performance_model(self) -> PerformanceModel:
        """The calibrated performance model the estimates are derived from."""
        return self._perf

    @property
    def catalog(self):
        """The materialized-rendition catalog, or None (cold costing)."""
        return self._catalog

    @property
    def observations(self):
        """The observed runtime cost scales, or None (calibrated costing)."""
        return self._observations

    def with_config(self, config: EngineConfig) -> "CostModel":
        """A cost model of the same estimator family under ``config``."""
        return type(self)(self._perf, config, catalog=self._catalog,
                          observations=self._observations)

    def with_catalog(self, catalog) -> "CostModel":
        """A cost model of the same family pricing against ``catalog``."""
        return type(self)(self._perf, self._config, catalog=catalog,
                          observations=self._observations)

    def with_observations(self, observations) -> "CostModel":
        """A cost model of the same family pricing with observed scales."""
        return type(self)(self._perf, self._config, catalog=self._catalog,
                          observations=observations)

    def stage_estimate(self, plan: Plan) -> StageEstimate:
        """Per-stage estimate for the plan's primary model and format."""
        offloaded = plan.offloaded_fraction
        if offloaded is None:
            offloaded = self._perf.best_offload_fraction(
                plan.primary_model, plan.input_format, self._config,
                roi_fraction=plan.roi_fraction,
            )
        return self._perf.estimate(
            plan.primary_model, plan.input_format, self._config,
            roi_fraction=plan.roi_fraction,
            offloaded_fraction=offloaded,
            deblocking=plan.deblocking,
        )

    def cascade_dnn_throughput(self, plan: Plan) -> float:
        """DNN-side throughput of a cascade (Equation 2's denominator).

        Each stage ``j`` processes a fraction of the inputs given by the
        product of upstream pass-through rates; total per-image time is the
        sum of the stage times weighted by those fractions.
        """
        per_image_us = 0.0
        reach = 1.0
        for stage in plan.stages:
            stage_estimate = self._perf.estimate(
                stage.model, plan.input_format, self._config,
                roi_fraction=plan.roi_fraction,
                offloaded_fraction=0.0,
                deblocking=plan.deblocking,
            )
            dnn_throughput = stage_estimate.dnn_throughput
            if self._observations is not None:
                dnn_throughput *= self._observations.dnn_scale(
                    stage.model.name
                )
            per_image_us += reach * (1e6 / dnn_throughput)
            reach *= stage.pass_through_rate
        if per_image_us <= 0:
            raise PlanError("cascade produced a non-positive per-image time")
        return 1e6 / per_image_us

    def preprocessing_throughput(self, plan: Plan) -> float:
        """CPU-side preprocessing throughput for the plan's input format.

        When a catalog reports the plan's rendition as materialized, the
        cold estimate is scaled by the catalog's decode discount.  When
        runtime observations are attached, the result is further scaled by
        the observed-vs-modelled preprocessing ratio for the format --
        excluding the decode share whenever the catalog discount already
        bypasses decode (reading a materialized rendition does not pay an
        observed decode slowdown).
        """
        throughput = self.stage_estimate(plan).preprocessing_throughput
        decoding = True
        if self._catalog is not None:
            format_name = plan.input_format.name
            discount = self._catalog.decode_discount(format_name)
            throughput *= discount
            decoding = not self._catalog.is_materialized(format_name)
        if self._observations is not None:
            throughput *= self._observations.preprocessing_scale(
                plan.input_format.name, decoding=decoding
            )
        return throughput

    def estimate(self, plan: Plan) -> ThroughputEstimate:
        """Estimate end-to-end throughput for ``plan``."""
        raise NotImplementedError


class ExecutionOnlyCostModel(CostModel):
    """Prior work's estimator: end-to-end throughput = DNN throughput."""

    name = "exec-only"

    def estimate(self, plan: Plan) -> ThroughputEstimate:
        dnn = self.cascade_dnn_throughput(plan)
        preproc = self.preprocessing_throughput(plan)
        return ThroughputEstimate(
            plan=plan,
            estimated_throughput=dnn,
            preprocessing_throughput=preproc,
            dnn_throughput=dnn,
            model_name=self.name,
        )


class SerialSumCostModel(CostModel):
    """Tahoma's estimator: per-image times of the two stages add."""

    name = "serial-sum"

    def estimate(self, plan: Plan) -> ThroughputEstimate:
        dnn = self.cascade_dnn_throughput(plan)
        preproc = self.preprocessing_throughput(plan)
        combined = 1.0 / (1.0 / preproc + 1.0 / dnn)
        return ThroughputEstimate(
            plan=plan,
            estimated_throughput=combined,
            preprocessing_throughput=preproc,
            dnn_throughput=dnn,
            model_name=self.name,
        )


class SmolCostModel(CostModel):
    """The paper's pipelined estimator: min of the stage throughputs."""

    name = "smol"

    def estimate(self, plan: Plan) -> ThroughputEstimate:
        dnn = self.cascade_dnn_throughput(plan)
        preproc = self.preprocessing_throughput(plan)
        return ThroughputEstimate(
            plan=plan,
            estimated_throughput=min(preproc, dnn),
            preprocessing_throughput=preproc,
            dnn_throughput=dnn,
            model_name=self.name,
        )


def all_cost_models(performance_model: PerformanceModel,
                    config: EngineConfig | None = None) -> list[CostModel]:
    """Instantiate the three cost models for comparison benchmarks."""
    return [
        SmolCostModel(performance_model, config),
        ExecutionOnlyCostModel(performance_model, config),
        SerialSumCostModel(performance_model, config),
    ]
