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

from repro import _lazy_exports

_EXPORTS = {
    "AdaptiveController": "repro.adapt.replanner",
    "ControllerStats": "repro.adapt.replanner",
    "DriftDetector": "repro.adapt.drift",
    "DriftSnapshot": "repro.adapt.drift",
    "DriftableSession": "repro.adapt.session",
    "DriftEnvironment": "repro.adapt.session",
    "ObservationKey": "repro.adapt.calibrator",
    "ObservedCosts": "repro.adapt.calibrator",
    "OnlineCalibrator": "repro.adapt.calibrator",
    "PhaseReport": "repro.adapt.scenario",
    "ReplanDecision": "repro.adapt.replanner",
    "Replanner": "repro.adapt.replanner",
    "ScanDriftConfig": "repro.adapt.scenario",
    "ScanPaceTarget": "repro.adapt.replanner",
    "ScenarioReport": "repro.adapt.scenario",
    "ServerSwapTarget": "repro.adapt.replanner",
    "ServingDriftConfig": "repro.adapt.scenario",
    "StageObservation": "repro.adapt.calibrator",
    "plan_baselines": "repro.adapt.session",
    "register_plan_baselines": "repro.adapt.session",
    "run_scan_drift_scenario": "repro.adapt.scenario",
    "run_serving_drift_scenario": "repro.adapt.scenario",
    "scan_identity": "repro.adapt.scenario",
}
__all__ = list(_EXPORTS)
__getattr__, __dir__ = _lazy_exports(__name__, _EXPORTS)
