"""The Section 2 measurement study and the Section 7 power/cost analysis.

These modules reproduce the paper's motivating measurements: the breakdown of
end-to-end DNN inference into preprocessing and execution (Figure 1), the
effect of the execution backend (Table 1), the hardware trend across GPU
generations (Table 5), and the dollar/power asymmetry between preprocessing
and DNN execution (Section 7, Table 8).
"""

from repro import _lazy_exports

_EXPORTS = {
    "MeasurementStudy": "repro.measurement.study",
    "InferenceBreakdown": "repro.measurement.study",
    "BackendComparison": "repro.measurement.study",
    "CostAnalysis": "repro.measurement.costs",
    "CostBreakdown": "repro.measurement.costs",
}
__all__ = list(_EXPORTS)
__getattr__, __dir__ = _lazy_exports(__name__, _EXPORTS)
