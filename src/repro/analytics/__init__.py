"""Query systems built on top of Smol.

Two query-processing methods from recent visual analytics systems are
re-implemented so Smol can be evaluated end-to-end (Section 3.2):

* :mod:`repro.analytics.classification` -- Tahoma-style binary/multi-class
  classification with specialized-NN / target-DNN cascades.
* :mod:`repro.analytics.aggregation` -- BlazeIt-style aggregation queries
  (average object count per frame) using a specialized NN as a control
  variate to reduce sampling variance.
"""

from repro import _lazy_exports

_EXPORTS = {
    "LimitQuery": "repro.analytics.limit_queries",
    "LimitQueryResult": "repro.analytics.limit_queries",
    "LimitQueryEngine": "repro.analytics.limit_queries",
    "SamplingResult": "repro.analytics.sampling",
    "adaptive_mean_estimate": "repro.analytics.sampling",
    "uniform_sample_mean": "repro.analytics.sampling",
    "control_variate_mean": "repro.analytics.sampling",
    "required_sample_size": "repro.analytics.sampling",
    "ExactSum": "repro.analytics.stats",
    "MomentSketch": "repro.analytics.stats",
    "PairedMomentSketch": "repro.analytics.stats",
    "Z_95": "repro.analytics.stats",
    "ci_half_width": "repro.analytics.stats",
    "exact_mean": "repro.analytics.stats",
    "exact_sum": "repro.analytics.stats",
    "ScanCosts": "repro.analytics.scan",
    "TwoPassEngine": "repro.analytics.scan",
    "compute_scan_costs": "repro.analytics.scan",
    "proxy_scan_order": "repro.analytics.scan",
    "scan_views": "repro.analytics.scan",
    "AggregationQuery": "repro.analytics.aggregation",
    "AggregationResult": "repro.analytics.aggregation",
    "AggregationEngine": "repro.analytics.aggregation",
    "CascadeClassifier": "repro.analytics.classification",
    "CascadeEvaluation": "repro.analytics.classification",
    "ClassificationQuery": "repro.analytics.classification",
}
__all__ = list(_EXPORTS)
__getattr__, __dir__ = _lazy_exports(__name__, _EXPORTS)
