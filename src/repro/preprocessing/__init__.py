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

from repro.preprocessing.ops import (
    PreprocessingOp,
    DecodeOp,
    ResizeOp,
    CenterCropOp,
    ConvertDtypeOp,
    NormalizeOp,
    ChannelReorderOp,
    FusedNormalizeReorderOp,
    standard_pipeline_ops,
)
from repro.preprocessing.dag import PreprocessingDAG
from repro.preprocessing.optimizer import DagOptimizer, OptimizationReport
from repro.preprocessing.placement import (
    Placement,
    PlacementDecision,
    PlacementOptimizer,
)
from repro.preprocessing.cost import arithmetic_ops, pipeline_arithmetic_ops

__all__ = [
    "PreprocessingOp",
    "DecodeOp",
    "ResizeOp",
    "CenterCropOp",
    "ConvertDtypeOp",
    "NormalizeOp",
    "ChannelReorderOp",
    "FusedNormalizeReorderOp",
    "standard_pipeline_ops",
    "PreprocessingDAG",
    "DagOptimizer",
    "OptimizationReport",
    "Placement",
    "PlacementDecision",
    "PlacementOptimizer",
    "arithmetic_ops",
    "pipeline_arithmetic_ops",
]
