"""Golden plan-trace regression tests.

The planner's chosen plan is the single most consequential output of the
core layer: a cost-model edit that silently flips the winner for a common
configuration changes what every downstream surface executes.  These tests
snapshot the planner's full decision -- selected plan, rounded estimates,
and the Pareto frontier's plan labels -- for a matrix of canonical
(dataset, accuracy-target, catalog-state, observed-drift) configurations
under ``tests/core/golden/``.

A legitimate cost-model change updates the snapshots explicitly::

    python -m pytest tests/core/test_golden_plans.py --update-golden

then the diff of ``tests/core/golden/*.json`` documents exactly which
configurations changed their plan and by how much -- nothing churns
silently.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

import pytest

from repro.core.accuracy import AccuracyEstimator
from repro.core.costmodel import SmolCostModel
from repro.core.planner import PlanGenerator, PlannerFeatures
from repro.core.plans import PlanConstraints
from repro.hardware.instance import get_instance
from repro.inference.perfmodel import PerformanceModel
from repro.store.catalog import materialized_discount

GOLDEN_DIR = Path(__file__).resolve().parent / "golden"


class FakeCatalog:
    """Catalog stub: a fixed set of materialized rendition names."""

    def __init__(self, materialized: frozenset[str]) -> None:
        self._materialized = materialized

    def is_materialized(self, format_name: str) -> bool:
        return format_name in self._materialized

    def decode_discount(self, format_name: str) -> float:
        if format_name not in self._materialized:
            return 1.0
        return materialized_discount()


class FakeObservations:
    """Observed-cost stub: fixed throughput scales per subject."""

    def __init__(self, preprocessing: dict[str, float],
                 dnn: dict[str, float]) -> None:
        self._preprocessing = preprocessing
        self._dnn = dnn

    def preprocessing_scale(self, format_name: str,
                            decoding: bool = True) -> float:
        if not decoding:
            return 1.0
        return self._preprocessing.get(format_name, 1.0)

    def dnn_scale(self, model_name: str) -> float:
        return self._dnn.get(model_name, 1.0)


@dataclass(frozen=True)
class GoldenConfig:
    """One canonical planning configuration to snapshot."""

    name: str
    dataset: str = "imagenet"
    accuracy_floor: float | None = None
    materialized: tuple[str, ...] = ()
    slow_preprocessing: dict = field(default_factory=dict)
    slow_dnn: dict = field(default_factory=dict)
    all_features_disabled: bool = False


CONFIGS = [
    GoldenConfig(name="imagenet-unconstrained-cold"),
    GoldenConfig(name="imagenet-floor74-cold", accuracy_floor=0.74),
    GoldenConfig(name="imagenet-unconstrained-warm-q75",
                 materialized=("161-jpeg-q75",)),
    GoldenConfig(name="imagenet-floor70-warm-q95", accuracy_floor=0.70,
                 materialized=("161-jpeg-q95",)),
    GoldenConfig(name="imagenet-drifted-q75-4x-decode",
                 slow_preprocessing={"161-jpeg-q75": 0.25}),
    GoldenConfig(name="imagenet-drifted-resnet50-2x-dnn",
                 accuracy_floor=0.70,
                 slow_dnn={"resnet-50": 0.5}),
    GoldenConfig(name="imagenet-all-features-disabled",
                 all_features_disabled=True),
]


def plan_trace(config: GoldenConfig) -> dict:
    """The planner's full decision for one configuration, as stable JSON."""
    perf = PerformanceModel(get_instance("g4dn.xlarge"))
    features = (PlannerFeatures.all_disabled()
                if config.all_features_disabled else None)
    catalog = (FakeCatalog(frozenset(config.materialized))
               if config.materialized else None)
    observations = None
    if config.slow_preprocessing or config.slow_dnn:
        observations = FakeObservations(dict(config.slow_preprocessing),
                                        dict(config.slow_dnn))
    planner = PlanGenerator(
        cost_model=SmolCostModel(perf),
        accuracy=AccuracyEstimator(config.dataset),
        features=features,
        catalog=catalog,
        observations=observations,
    )
    constraints = PlanConstraints(accuracy_floor=config.accuracy_floor)
    selected = planner.select(constraints)
    frontier = planner.pareto_frontier()
    return {
        "config": {
            "dataset": config.dataset,
            "accuracy_floor": config.accuracy_floor,
            "materialized": sorted(config.materialized),
            "slow_preprocessing": dict(config.slow_preprocessing),
            "slow_dnn": dict(config.slow_dnn),
            "all_features_disabled": config.all_features_disabled,
        },
        "selected": {
            "plan": selected.plan.describe(),
            "throughput": round(selected.throughput, 3),
            "accuracy": round(selected.accuracy, 5),
            "preprocessing_throughput": round(
                selected.preprocessing_throughput, 3
            ),
            "dnn_throughput": round(selected.dnn_throughput, 3),
        },
        "frontier": [estimate.plan.describe() for estimate in frontier],
    }


@pytest.mark.parametrize("config", CONFIGS, ids=lambda c: c.name)
def test_plan_trace_matches_golden(config, request):
    """The planner's decision must match the committed snapshot bit for bit.

    Run with ``--update-golden`` to refresh snapshots after an intentional
    cost-model change.
    """
    golden_path = GOLDEN_DIR / f"{config.name}.json"
    trace = plan_trace(config)
    if request.config.getoption("--update-golden"):
        GOLDEN_DIR.mkdir(parents=True, exist_ok=True)
        golden_path.write_text(
            json.dumps(trace, indent=2, sort_keys=True) + "\n",
            encoding="utf-8",
        )
        return
    assert golden_path.exists(), (
        f"missing golden snapshot {golden_path.name}; generate it with "
        "`python -m pytest tests/core/test_golden_plans.py --update-golden` "
        "and commit the result"
    )
    golden = json.loads(golden_path.read_text(encoding="utf-8"))
    assert trace == golden, (
        f"planner decision for {config.name!r} diverged from the golden "
        "snapshot.  If the cost-model change is intentional, refresh with "
        "--update-golden and review the diff."
    )


def test_no_stale_golden_snapshots():
    """Every committed snapshot corresponds to a live configuration."""
    expected = {f"{config.name}.json" for config in CONFIGS}
    actual = {path.name for path in GOLDEN_DIR.glob("*.json")}
    assert actual == expected
