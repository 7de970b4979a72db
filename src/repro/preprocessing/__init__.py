"""Preprocessing operators and their optimizer.

Standard DNN inference preprocessing (Section 2 of the paper):

1. decode the compressed image,
2. aspect-preserving resize then central crop,
3. convert to float32 and normalize by per-channel statistics,
4. reorder pixels to channels-first.

This package provides the operators as executable numpy functions, the
operator chain a preprocessing pipeline runs, a rule-based + cost-based DAG
optimizer (fusion, reordering, dtype-aware resizing, Section 6.2), and an
operator placement pass that assigns operators to the CPU or the accelerator
(Section 6.3).
"""

from repro import _lazy_exports

_EXPORTS = {
    "PreprocessingOp": "repro.preprocessing.ops",
    "DecodeOp": "repro.preprocessing.ops",
    "ResizeOp": "repro.preprocessing.ops",
    "CenterCropOp": "repro.preprocessing.ops",
    "ConvertDtypeOp": "repro.preprocessing.ops",
    "NormalizeOp": "repro.preprocessing.ops",
    "ChannelReorderOp": "repro.preprocessing.ops",
    "FusedNormalizeReorderOp": "repro.preprocessing.ops",
    "standard_pipeline_ops": "repro.preprocessing.ops",
    "PreprocessingDAG": "repro.preprocessing.dag",
    "DagOptimizer": "repro.preprocessing.optimizer",
    "OptimizationReport": "repro.preprocessing.optimizer",
    "Placement": "repro.preprocessing.placement",
    "PlacementDecision": "repro.preprocessing.placement",
    "PlacementOptimizer": "repro.preprocessing.placement",
    "arithmetic_ops": "repro.preprocessing.cost",
    "pipeline_arithmetic_ops": "repro.preprocessing.cost",
}
__all__ = list(_EXPORTS)
__getattr__, __dir__ = _lazy_exports(__name__, _EXPORTS)
