"""Smol core: plans, cost models, accuracy estimation, and the planner.

This package is the paper's primary contribution: a preprocessing-aware cost
model (Section 4), plan generation over the cross product of candidate DNNs
and natively available input formats (Sections 3 and 5), constraint-based or
Pareto-optimal plan selection, and the low-resolution-aware training driver
(Section 5.3).  Execution is delegated to :mod:`repro.inference`.
"""

from repro import _lazy_exports

_EXPORTS = {
    "Plan": "repro.core.plans",
    "PlanConstraints": "repro.core.plans",
    "PlanEstimate": "repro.core.plans",
    "CostModel": "repro.core.costmodel",
    "SmolCostModel": "repro.core.costmodel",
    "ExecutionOnlyCostModel": "repro.core.costmodel",
    "SerialSumCostModel": "repro.core.costmodel",
    "AccuracyEstimator": "repro.core.accuracy",
    "AccuracyEstimate": "repro.core.accuracy",
    "PlanGenerator": "repro.core.planner",
    "PlannerFeatures": "repro.core.planner",
    "LowResolutionTrainer": "repro.core.training",
    "FineTuneResult": "repro.core.training",
    "Smol": "repro.core.smol",
}
__all__ = list(_EXPORTS)
__getattr__, __dir__ = _lazy_exports(__name__, _EXPORTS)
