"""Smol-Chaos: seed-driven scenario fuzzing + fault injection.

The stack composes hot-swap, failover, replanning, SLO triggers, and
store invalidation -- and the bug studies of comparable systems find most
real failures exactly in those cross-component interaction paths, not in
single modules.  This package is the regression net over those paths:

* :mod:`~repro.chaos.scenario` -- a deterministic generator
  (:class:`ScenarioGen`) composing randomized workloads from typed
  dimensions: cluster shape and tenant/arrival mix, preprocessing-DAG
  recipes, drift schedules, store op sequences, and a
  :class:`~repro.chaos.faults.FaultPlan`;
* :mod:`~repro.chaos.faults` -- the injection layer: NULL-by-default
  :class:`~repro.chaos.faults.FaultHook` seams in ``MpmcQueue``,
  ``ThreadWorker``, ``Dispatcher``, and ``RenditionStore`` through which a
  :class:`FaultInjector` fires kills, stalls, injected failures, and torn
  manifest writes;
* :mod:`~repro.chaos.runner` -- :class:`ChaosRunner` executes one
  scenario end to end and checks the global invariants
  (:mod:`~repro.chaos.invariants`): bit-identical scores vs. the
  unfaulted serial engine, exactly-once resolution, connected span trees,
  crash-safe manifests, convergent replans;
* :mod:`~repro.chaos.shrink` -- greedy minimization of failing seeds,
  dumped with a flight-recorder postmortem bundle.

CLI entry points: ``repro chaos run --seeds N``, ``chaos replay <seed>``,
``chaos shrink <seed>`` (see ``docs/chaos.md``).
"""

from repro import _lazy_exports

_EXPORTS = {
    "ChaosFault": "repro.chaos.faults",
    "ChaosRunner": "repro.chaos.runner",
    "Fault": "repro.chaos.faults",
    "FaultInjector": "repro.chaos.faults",
    "FaultPlan": "repro.chaos.faults",
    "InvariantViolation": "repro.chaos.invariants",
    "NULL_FAULTS": "repro.chaos.faults",
    "Scenario": "repro.chaos.scenario",
    "ScenarioGen": "repro.chaos.scenario",
    "dump_report": "repro.chaos.runner",
    "shrink": "repro.chaos.shrink",
}
__all__ = list(_EXPORTS)
__getattr__, __dir__ = _lazy_exports(__name__, _EXPORTS)
