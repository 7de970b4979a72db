"""Tests for arithmetic-operation cost accounting."""

from repro.preprocessing.cost import arithmetic_ops, pipeline_arithmetic_ops
from repro.preprocessing.ops import (
    CenterCropOp,
    NormalizeOp,
    ResizeOp,
    TensorSpec,
    standard_pipeline_ops,
)

FULL = TensorSpec(height=375, width=500, channels=3)
SMALL = TensorSpec(height=161, width=215, channels=3)


class TestCostAccounting:
    def test_normalize_cost_scales_with_pixels(self):
        assert arithmetic_ops(NormalizeOp(), FULL) > arithmetic_ops(
            NormalizeOp(), SMALL
        )

    def test_resize_cheaper_on_uint8_than_float(self):
        float_spec = TensorSpec(height=375, width=500, channels=3, dtype="float32")
        assert arithmetic_ops(ResizeOp(256), FULL) < arithmetic_ops(
            ResizeOp(256), float_spec
        )

    def test_pipeline_cost_propagates_shapes(self):
        # Cropping early makes downstream normalization cheaper.
        crop_first = [CenterCropOp(224), NormalizeOp()]
        crop_last = [NormalizeOp(), CenterCropOp(224)]
        assert pipeline_arithmetic_ops(crop_first, FULL) < pipeline_arithmetic_ops(
            crop_last, FULL
        )

    def test_low_resolution_pipeline_is_cheaper(self):
        ops = standard_pipeline_ops()
        assert pipeline_arithmetic_ops(ops, SMALL) < pipeline_arithmetic_ops(
            ops, FULL
        )

    def test_pipeline_cost_is_each_op_on_its_propagated_spec(self):
        ops = standard_pipeline_ops()
        spec, expected = FULL, 0.0
        for op in ops:
            expected += arithmetic_ops(op, spec)
            spec = op.output_spec(spec)
        assert pipeline_arithmetic_ops(ops, FULL) == expected
        assert pipeline_arithmetic_ops([], FULL) == 0.0
