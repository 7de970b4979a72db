"""Smol-Adapt: online cost-feedback replanning across every execution surface.

The offline planner prices plans once, from calibrated constants; this
package keeps that choice honest at runtime.  Serving sessions, cluster
workers, and scan shard streams publish observed per-stage costs (decode,
preprocessing DAG ops, inference) on the observability stage bus -- the
one way those costs travel -- and the adaptive controller listens there;
an online calibrator (EWMA with quantile guards and hard bounds) folds the
observations into throughput scales the core cost model consumes; a drift
detector with hysteresis decides when the world has genuinely moved; and a
replanner re-runs the core planner against the live store catalog and the
observed scales, hot-swapping the winning plan into
:class:`~repro.serving.server.SmolServer` sessions and in-flight
:class:`~repro.query.scan.ScanSession` shard streams -- without changing
the value of any query result.

* :mod:`repro.adapt.calibrator` -- the (stage, subject)
  :class:`StageObservation` records, :class:`OnlineCalibrator`, and the
  :class:`ObservedCosts` snapshot the cost model prices against.
* :mod:`repro.adapt.drift` -- :class:`DriftDetector` with hysteresis.
* :mod:`repro.adapt.replanner` -- :class:`Replanner`,
  :class:`AdaptiveController` (the stage-bus listener), and the swap
  targets.
* :mod:`repro.adapt.session` -- :class:`DriftEnvironment` /
  :class:`DriftableSession` drift injection plus baseline registration.
* :mod:`repro.adapt.scenario` -- deterministic end-to-end drift scenarios
  shared by ``bench_adapt``, the example, and the integration tests.
"""

from repro.adapt.calibrator import (
    ObservationKey,
    ObservedCosts,
    OnlineCalibrator,
    StageObservation,
)
from repro.adapt.drift import DriftDetector, DriftSnapshot
from repro.adapt.replanner import (
    AdaptiveController,
    ControllerStats,
    ReplanDecision,
    Replanner,
    ScanPaceTarget,
    ServerSwapTarget,
)
from repro.adapt.scenario import (
    PhaseReport,
    ScanDriftConfig,
    ScenarioReport,
    ServingDriftConfig,
    run_scan_drift_scenario,
    run_serving_drift_scenario,
    scan_identity,
)
from repro.adapt.session import (
    DriftableSession,
    DriftEnvironment,
    plan_baselines,
    register_plan_baselines,
)

__all__ = [
    "AdaptiveController",
    "ControllerStats",
    "DriftDetector",
    "DriftSnapshot",
    "DriftableSession",
    "DriftEnvironment",
    "ObservationKey",
    "ObservedCosts",
    "OnlineCalibrator",
    "PhaseReport",
    "ReplanDecision",
    "Replanner",
    "ScanDriftConfig",
    "ScanPaceTarget",
    "ScenarioReport",
    "ServerSwapTarget",
    "ServingDriftConfig",
    "StageObservation",
    "plan_baselines",
    "register_plan_baselines",
    "run_scan_drift_scenario",
    "run_serving_drift_scenario",
    "scan_identity",
]
