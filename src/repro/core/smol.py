"""The Smol facade: plan, optimize, and execute end-to-end inference.

:class:`Smol` wires together the planner (cost model + accuracy estimator),
the runtime engine, and the performance model for a chosen hardware
environment.  It mirrors the system diagram of Figure 2: inputs are a set of
DNNs, a set of input formats, and optional constraints; outputs are the Pareto
set of plans or a single selected plan, which can then be executed.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Sequence

from repro.codecs.formats import InputFormatSpec, list_input_formats
from repro.core.accuracy import AccuracyEstimator
from repro.core.costmodel import SmolCostModel
from repro.core.planner import PlanGenerator, PlannerFeatures
from repro.core.plans import Plan, PlanConstraints, PlanEstimate
from repro.errors import PlanError
from repro.hardware.instance import CloudInstance, get_instance
from repro.inference.engine import InferenceResult, SmolRuntimeEngine
from repro.inference.perfmodel import EngineConfig, PerformanceModel
from repro.nn.zoo import ModelProfile, resnet_profile


@dataclass(frozen=True)
class SmolReport:
    """Summary of a planning pass: the frontier and the selected plan."""

    frontier: tuple[PlanEstimate, ...]
    selected: PlanEstimate | None

    def describe(self) -> str:
        """Multi-line human-readable report."""
        lines = ["Pareto frontier (throughput im/s, accuracy):"]
        for estimate in self.frontier:
            lines.append(
                f"  {estimate.plan.describe():45s} "
                f"{estimate.throughput:10,.0f}  {estimate.accuracy:6.3f}"
            )
        if self.selected is not None:
            lines.append(f"Selected: {self.selected.plan.describe()}")
        return "\n".join(lines)


class Smol:
    """End-to-end visual analytics inference optimizer and runtime."""

    def __init__(self, instance: CloudInstance | str = "g4dn.xlarge",
                 dataset_name: str = "imagenet",
                 models: Sequence[ModelProfile] | None = None,
                 formats: Sequence[InputFormatSpec] | None = None,
                 features: PlannerFeatures | None = None,
                 engine_config: EngineConfig | None = None,
                 backend: str = "tensorrt") -> None:
        if isinstance(instance, str):
            instance = get_instance(instance)
        self._instance = instance
        self._dataset_name = dataset_name
        self._models = list(models) if models is not None else [
            resnet_profile(depth) for depth in (18, 34, 50)
        ]
        self._formats = (list(formats) if formats is not None
                         else list_input_formats())
        self._features = features or PlannerFeatures()
        self._config = engine_config or EngineConfig(
            num_producers=instance.vcpus
        )
        if not self._features.use_preprocessing_optimizations:
            self._config = replace(self._config, optimize_dag=False)
        self._performance_model = PerformanceModel(instance, backend=backend)
        self._cost_model = SmolCostModel(self._performance_model, self._config)
        self._planner = PlanGenerator(
            cost_model=self._cost_model,
            accuracy=AccuracyEstimator(dataset_name),
            features=self._features,
        )
        self._engine = SmolRuntimeEngine(
            config=self._config, performance_model=self._performance_model
        )

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------
    @classmethod
    def for_dataset(cls, dataset, instance: CloudInstance | str = "g4dn.xlarge",
                    **kwargs) -> "Smol":
        """Build a Smol instance for a dataset declaring ``name`` and
        ``available_formats`` (both dataset classes do); anything else
        fails here with :class:`AttributeError`, not later in planning."""
        return cls(instance=instance, dataset_name=dataset.name,
                   formats=dataset.available_formats, **kwargs)

    # ------------------------------------------------------------------
    # Planning
    # ------------------------------------------------------------------
    @property
    def planner(self) -> PlanGenerator:
        """The underlying plan generator."""
        return self._planner

    @property
    def performance_model(self) -> PerformanceModel:
        """The calibrated performance model for the configured instance."""
        return self._performance_model

    @property
    def engine(self) -> SmolRuntimeEngine:
        """The runtime engine."""
        return self._engine

    @property
    def engine_config(self) -> EngineConfig:
        """The active engine configuration."""
        return self._config

    def pareto_frontier(self) -> list[PlanEstimate]:
        """The Pareto-optimal plans over the configured models and formats."""
        return self._planner.pareto_frontier(self._formats, self._models)

    def best_plan(self, accuracy_floor: float | None = None,
                  throughput_floor: float | None = None) -> PlanEstimate:
        """Select the best plan under an optional constraint."""
        constraints = PlanConstraints(accuracy_floor=accuracy_floor,
                                      throughput_floor=throughput_floor)
        return self._planner.select(constraints, self._formats, self._models)

    def report(self, accuracy_floor: float | None = None) -> SmolReport:
        """Planning report: the frontier plus the selected plan (if feasible)."""
        frontier = tuple(self.pareto_frontier())
        selected = None
        if accuracy_floor is not None:
            try:
                selected = self.best_plan(accuracy_floor=accuracy_floor)
            except PlanError:
                selected = None
        else:
            selected = max(frontier, key=lambda e: e.throughput, default=None)
        return SmolReport(frontier=frontier, selected=selected)

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def run(self, plan: Plan | PlanEstimate, limit: int = 4096) -> InferenceResult:
        """Execute a plan in the simulated runtime for ``limit`` images."""
        actual_plan = plan.plan if isinstance(plan, PlanEstimate) else plan
        return self._engine.run_simulated(
            actual_plan.primary_model,
            actual_plan.input_format,
            num_images=limit,
            roi_fraction=actual_plan.roi_fraction,
            offloaded_fraction=actual_plan.offloaded_fraction,
            deblocking=actual_plan.deblocking,
        )
