"""Tests for the rule+cost based DAG optimizer (Section 6.2)."""

import numpy as np
import pytest

from repro.errors import PreprocessingError
from repro.preprocessing.optimizer import DagOptimizer
from repro.preprocessing.ops import (
    ConvertDtypeOp,
    FusedNormalizeReorderOp,
    NormalizeOp,
    ResizeOp,
    TensorSpec,
    standard_pipeline_ops,
)

SPEC = TensorSpec(height=375, width=500, channels=3)


class TestOptimizer:
    def test_optimized_cost_never_worse(self):
        report = DagOptimizer().optimize(standard_pipeline_ops(), SPEC)
        assert report.optimized_cost <= report.original_cost

    def test_optimization_reduces_post_decode_cost(self):
        from repro.preprocessing.cost import pipeline_arithmetic_ops
        from repro.preprocessing.ops import DecodeOp

        report = DagOptimizer().optimize(standard_pipeline_ops(), SPEC)
        original = pipeline_arithmetic_ops(
            [op for op in report.original_ops if not isinstance(op, DecodeOp)], SPEC
        )
        optimized = pipeline_arithmetic_ops(
            [op for op in report.optimized_ops if not isinstance(op, DecodeOp)], SPEC
        )
        # Decode cost is untouched by reordering; the transform/normalize
        # portion of the pipeline gets strictly cheaper (fusion saves one
        # full pass over the cropped tensor).
        assert optimized < original

    def test_fusion_applied(self):
        report = DagOptimizer().optimize(standard_pipeline_ops(), SPEC)
        assert report.applied_fusion
        assert any(isinstance(op, FusedNormalizeReorderOp)
                   for op in report.optimized_ops)

    def test_fusion_disabled(self):
        report = DagOptimizer(enable_fusion=False).optimize(
            standard_pipeline_ops(), SPEC
        )
        assert not any(isinstance(op, FusedNormalizeReorderOp)
                       for op in report.optimized_ops)

    def test_reordering_disabled_still_fuses(self):
        report = DagOptimizer(enable_reordering=False).optimize(
            standard_pipeline_ops(), SPEC
        )
        assert report.optimized_cost <= report.original_cost

    def test_dtype_rule_no_resize_after_float_conversion(self):
        report = DagOptimizer().optimize(standard_pipeline_ops(), SPEC)
        seen_float = False
        for op in report.optimized_ops:
            if isinstance(op, (ConvertDtypeOp, NormalizeOp,
                               FusedNormalizeReorderOp)):
                seen_float = True
            if isinstance(op, ResizeOp):
                assert not seen_float

    def test_empty_pipeline_rejected(self):
        with pytest.raises(PreprocessingError):
            DagOptimizer().optimize([], SPEC)

    def test_optimized_pipeline_is_executable_and_equivalent(self, small_image):
        # Use a small-image-friendly pipeline to compare outputs numerically.
        ops = standard_pipeline_ops(input_short_side=40, crop_size=32)
        spec = TensorSpec(height=small_image.height, width=small_image.width,
                          channels=3)
        report = DagOptimizer().optimize(ops, spec)
        original = small_image.pixels
        for op in ops:
            original = op.apply(original)
        optimized = small_image.pixels
        for op in report.optimized_ops:
            optimized = op.apply(optimized)
        assert optimized.shape == original.shape
        # Reordering value ops around uint8 geometric ops introduces only
        # small numerical differences (rounding during uint8 resize).
        assert np.abs(optimized - original).mean() < 0.25

    def test_report_dag_export(self):
        report = DagOptimizer().optimize(standard_pipeline_ops(), SPEC)
        dag = report.optimized_dag()
        assert dag.ops == tuple(report.optimized_ops)

    def test_search_statistics_populated(self):
        report = DagOptimizer().optimize(standard_pipeline_ops(), SPEC)
        assert report.candidates_generated >= 1
        assert report.candidates_pruned >= 0
