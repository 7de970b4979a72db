"""Plan generation and selection (Sections 3 and 5).

The planner enumerates the cross product of candidate DNNs and input formats
(plus cascade and decoding options), estimates throughput with the
preprocessing-aware cost model and accuracy with the calibrated/measured
accuracy estimator, and returns either the Pareto frontier or the best plan
under a constraint.

Feature flags (:class:`PlannerFeatures`) switch the paper's optimizations on
and off so the lesion and factor analyses (Figures 5-8) can be reproduced by
toggling exactly one knob at a time.

Planning is optionally *cache-aware*: given a materialized-rendition catalog
(``catalog=``, typically ``RenditionStore.catalog()``), the cost model
discounts decode for renditions the store already holds decoded, so repeat
queries are steered toward plans that are cache hits.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Iterable, Sequence

from repro.codecs.formats import InputFormatSpec, list_input_formats
from repro.core.accuracy import AccuracyEstimator
from repro.core.costmodel import CostModel, SmolCostModel
from repro.core.plans import Plan, PlanConstraints, PlanEstimate
from repro.errors import InfeasibleConstraintError, PlanError
from repro.nn.zoo import ModelProfile, resnet_profile
from repro.utils.pareto import pareto_frontier, sort_frontier


@dataclass(frozen=True)
class PlannerFeatures:
    """Optimization feature flags used by lesion/factor analyses.

    Attributes
    ----------
    use_low_resolution:
        Consider natively-present low-resolution input formats (Section 5.2).
    use_lowres_training:
        Use the low-resolution-augmented training variant of each model when
        reading low-resolution data (Section 5.3).
    use_roi_decoding:
        Decode only the macroblocks covering the central-crop ROI
        (Section 6.4).
    use_preprocessing_optimizations:
        Apply the preprocessing DAG optimizations (Section 6.2); when off,
        the engine config disables DAG optimization.
    use_expanded_search_space:
        Consider the full set of standard ResNet depths instead of only tiny
        specialized NNs (Section 5.1).
    """

    use_low_resolution: bool = True
    use_lowres_training: bool = True
    use_roi_decoding: bool = True
    use_preprocessing_optimizations: bool = True
    use_expanded_search_space: bool = True

    @classmethod
    def all_disabled(cls) -> "PlannerFeatures":
        """Baseline configuration with every Smol optimization off."""
        return cls(use_low_resolution=False, use_lowres_training=False,
                   use_roi_decoding=False,
                   use_preprocessing_optimizations=False,
                   use_expanded_search_space=False)

    def without(self, feature: str) -> "PlannerFeatures":
        """Copy with one named feature disabled (lesion study)."""
        mapping = {
            "low-resolution": "use_low_resolution",
            "lowres-training": "use_lowres_training",
            "roi": "use_roi_decoding",
            "preproc-opt": "use_preprocessing_optimizations",
            "expanded-search": "use_expanded_search_space",
        }
        if feature not in mapping:
            raise PlanError(f"unknown feature {feature!r}; known: {sorted(mapping)}")
        return replace(self, **{mapping[feature]: False})


# The standard central-crop ROI covers roughly 77% of a short-side-256 resize
# of a typical full-resolution image once expanded to macroblock boundaries.
CENTRAL_CROP_ROI_FRACTION = 0.77


class PlanGenerator:
    """Enumerates and scores plans over models x input formats."""

    def __init__(self, cost_model: CostModel, accuracy: AccuracyEstimator,
                 features: PlannerFeatures | None = None,
                 catalog=None, observations=None) -> None:
        if catalog is not None:
            cost_model = cost_model.with_catalog(catalog)
        if observations is not None:
            cost_model = cost_model.with_observations(observations)
        self._cost_model = cost_model
        self._accuracy = accuracy
        self._features = features or PlannerFeatures()

    @property
    def features(self) -> PlannerFeatures:
        """The active optimization feature flags."""
        return self._features

    @property
    def catalog(self):
        """The materialized-rendition catalog plans are priced against.

        None means cold costing; otherwise an object with
        ``decode_discount(format_name)`` and ``is_materialized(format_name)``
        (see
        :class:`repro.store.catalog.StoreCatalog`) that discounts decode
        cost for renditions the store has already materialized, steering
        the frontier toward already-cached plans.
        """
        return self._cost_model.catalog

    @property
    def observations(self):
        """The observed runtime cost scales plans are priced with.

        None means calibrated-only costing; otherwise an object with
        ``preprocessing_scale(format_name, decoding=True)`` and
        ``dnn_scale(model_name)`` (see
        :class:`repro.adapt.calibrator.ObservedCosts`) folding measured
        stage costs back into every candidate's throughput estimate, so
        replanning under drift reflects the live system.
        """
        return self._cost_model.observations

    def candidate_models(self) -> list[ModelProfile]:
        """Candidate DNNs under the active search-space setting."""
        if self._features.use_expanded_search_space:
            return [resnet_profile(depth) for depth in (18, 34, 50)]
        return [resnet_profile(18)]

    def candidate_formats(
        self, available: Sequence[InputFormatSpec] | None = None
    ) -> list[InputFormatSpec]:
        """Candidate input formats under the active low-resolution setting."""
        formats = list(available) if available is not None else list_input_formats()
        if not self._features.use_low_resolution:
            formats = [fmt for fmt in formats if fmt.is_full_resolution]
        if not formats:
            raise PlanError("no candidate input formats available")
        return formats

    def generate(
        self, available_formats: Sequence[InputFormatSpec] | None = None,
        models: Sequence[ModelProfile] | None = None,
    ) -> list[Plan]:
        """Enumerate candidate plans (the cross product D x F)."""
        model_list = list(models) if models is not None else self.candidate_models()
        format_list = self.candidate_formats(available_formats)
        plans: list[Plan] = []
        for model in model_list:
            for fmt in format_list:
                training = "regular"
                if (self._features.use_lowres_training
                        and not fmt.is_full_resolution):
                    training = "lowres"
                roi = 1.0
                if (self._features.use_roi_decoding
                        and fmt.capability.supports_roi()
                        and fmt.is_full_resolution):
                    roi = CENTRAL_CROP_ROI_FRACTION
                plans.append(
                    Plan.single(
                        model, fmt, training=training, roi_fraction=roi,
                        label=f"{model.name}/{fmt.name}",
                    )
                )
        return plans

    def score(self, plans: Iterable[Plan]) -> list[PlanEstimate]:
        """Estimate throughput and accuracy for each plan."""
        estimates: list[PlanEstimate] = []
        config = self._cost_model.config
        if not self._features.use_preprocessing_optimizations:
            cost_model = self._cost_model.with_config(
                replace(config, optimize_dag=False)
            )
        else:
            cost_model = self._cost_model
        for plan in plans:
            throughput_estimate = cost_model.estimate(plan)
            accuracy_estimate = self._accuracy.calibrated(
                plan.primary_model, plan.input_format, training=plan.training
            )
            estimates.append(
                PlanEstimate(
                    plan=plan,
                    throughput=throughput_estimate.estimated_throughput,
                    accuracy=accuracy_estimate.accuracy,
                    preprocessing_throughput=(
                        throughput_estimate.preprocessing_throughput
                    ),
                    dnn_throughput=throughput_estimate.dnn_throughput,
                )
            )
        return estimates

    def pareto_frontier(
        self, available_formats: Sequence[InputFormatSpec] | None = None,
        models: Sequence[ModelProfile] | None = None,
    ) -> list[PlanEstimate]:
        """The Pareto-optimal set of plans in (throughput, accuracy)."""
        estimates = self.score(self.generate(available_formats, models))
        frontier = pareto_frontier(estimates, lambda e: e.objectives())
        return sort_frontier(frontier, lambda e: e.objectives(), axis=0)

    def select(
        self, constraints: PlanConstraints,
        available_formats: Sequence[InputFormatSpec] | None = None,
        models: Sequence[ModelProfile] | None = None,
    ) -> PlanEstimate:
        """Select the best plan under the given constraints.

        With an accuracy floor, the highest-throughput qualifying plan wins;
        with a throughput floor, the most accurate qualifying plan wins; with
        no constraints, the highest-throughput plan wins.
        """
        estimates = self.score(self.generate(available_formats, models))
        feasible = [e for e in estimates if constraints.satisfied_by(e)]
        if not feasible:
            raise InfeasibleConstraintError(
                "no plan satisfies the given constraints; best available: "
                + ", ".join(
                    f"{e.plan.describe()} ({e.throughput:.0f} im/s, "
                    f"{e.accuracy:.3f})"
                    for e in sorted(estimates, key=lambda e: -e.accuracy)[:3]
                )
            )
        if constraints.throughput_floor is not None:
            return max(feasible, key=lambda e: (e.accuracy, e.throughput))
        return max(feasible, key=lambda e: (e.throughput, e.accuracy))


def default_planner(cost_model: CostModel | None = None,
                    dataset_name: str = "imagenet",
                    features: PlannerFeatures | None = None,
                    performance_model=None,
                    catalog=None, observations=None) -> PlanGenerator:
    """Convenience constructor wiring a Smol cost model to a planner.

    Pass ``catalog`` (e.g. ``RenditionStore.catalog()``) for cache-aware
    costing: plans whose rendition is already materialized in the store are
    priced with decode collapsed to a chunk read.  Pass ``observations``
    (e.g. ``OnlineCalibrator.observed_costs()``) for feedback-aware
    costing: candidates are priced against measured runtime stage costs
    instead of the calibrated constants alone.
    """
    if cost_model is None:
        if performance_model is None:
            raise PlanError("provide either a cost model or a performance model")
        cost_model = SmolCostModel(performance_model)
    return PlanGenerator(
        cost_model=cost_model,
        accuracy=AccuracyEstimator(dataset_name),
        features=features,
        catalog=catalog,
        observations=observations,
    )
