"""Tests for the preprocessing DAG."""

import pytest

from repro.errors import InvalidDAGError
from repro.preprocessing.dag import PreprocessingDAG
from repro.preprocessing.ops import (
    CenterCropOp,
    ChannelReorderOp,
    NormalizeOp,
    ResizeOp,
    TensorSpec,
    standard_pipeline_ops,
)


class TestDagConstruction:
    def test_from_ops_builds_chain(self):
        ops = standard_pipeline_ops()
        dag = PreprocessingDAG.from_ops(ops)
        assert dag.ops == tuple(ops)
        assert dag.devices == ("cpu",) * 6

    def test_empty_dag_invalid(self):
        with pytest.raises(InvalidDAGError):
            PreprocessingDAG.from_ops([])

    def test_from_ops_is_the_one_constructor(self):
        with pytest.raises(TypeError):
            PreprocessingDAG()

    def test_anything_but_an_op_is_rejected(self):
        with pytest.raises(InvalidDAGError, match="not a preprocessing op"):
            PreprocessingDAG.from_ops([ResizeOp(64), "normalize"])

    @pytest.mark.parametrize("count", [5, 7])
    def test_one_device_per_op(self, count):
        with pytest.raises(InvalidDAGError, match=f"{count} devices for 6 ops"):
            PreprocessingDAG.from_ops(standard_pipeline_ops(), ["cpu"] * count)


class TestDagExecution:
    def test_execute_matches_manual_application(self, small_image):
        ops = [ResizeOp(short_side=40), CenterCropOp(size=32), NormalizeOp(),
               ChannelReorderOp()]
        dag = PreprocessingDAG.from_ops(ops)
        manual = small_image.pixels
        for op in ops:
            manual = op.apply(manual)
        result = dag.execute(small_image.pixels)
        assert result.shape == manual.shape
        assert (result == manual).all()

    def test_output_spec_propagation(self):
        dag = PreprocessingDAG.from_ops(
            [ResizeOp(short_side=40), CenterCropOp(size=32), NormalizeOp(),
             ChannelReorderOp()]
        )
        spec = dag.output_spec(TensorSpec(height=48, width=64, channels=3))
        assert (spec.height, spec.width, spec.channels) == (32, 32, 3)
        assert spec.dtype == "float32"
        assert spec.layout == "CHW"

    def test_device_assignment(self):
        ops = standard_pipeline_ops()
        dag = PreprocessingDAG.from_ops(ops, ["cpu"] * 5 + ["accelerator"])
        assert dag.devices[-1] == "accelerator"
        assert dag.describe().endswith("reorder@accelerator")

    def test_invalid_device_rejected(self):
        ops = standard_pipeline_ops()
        with pytest.raises(InvalidDAGError):
            PreprocessingDAG.from_ops(ops, device="tpu")
        with pytest.raises(InvalidDAGError):
            PreprocessingDAG.from_ops(ops, ["tpu"] + ["cpu"] * 5)

    def test_copy_preserves_structure_and_devices(self):
        dag = PreprocessingDAG.from_ops(standard_pipeline_ops(),
                                        ["cpu"] * 5 + ["accelerator"])
        clone = PreprocessingDAG.from_ops(dag.ops, dag.devices)
        assert clone.ops == dag.ops
        assert clone.devices == dag.devices
        assert clone.describe() == dag.describe()

    def test_describe_lists_ops(self):
        dag = PreprocessingDAG.from_ops(standard_pipeline_ops())
        assert "decode" in dag.describe()
        assert "->" in dag.describe()
