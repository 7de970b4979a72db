"""Tests for CPU/accelerator operator placement (Section 6.3)."""

import pytest

from repro.errors import InvalidDAGError, PlacementError
from repro.preprocessing.dag import PreprocessingDAG
from repro.preprocessing.cost import pipeline_arithmetic_ops
from repro.preprocessing.ops import TensorSpec, standard_pipeline_ops
from repro.preprocessing.placement import PlacementDecision, PlacementOptimizer

SPEC = TensorSpec(height=375, width=500, channels=3)


def _make_optimizer(cpu_rate: float, accel_budget: float) -> PlacementOptimizer:
    """Build a placement optimizer with simple throughput callables.

    ``cpu_rate`` scales CPU throughput (inverse of assigned work);
    ``accel_budget`` is the accelerator's throughput when it has no
    preprocessing work, reduced in proportion to offloaded work.
    """

    def cpu_throughput(ops, spec):
        work = pipeline_arithmetic_ops(ops, spec) if ops else 1.0
        return cpu_rate * 1e9 / max(work, 1.0)

    def accel_throughput(ops, spec):
        work = pipeline_arithmetic_ops(ops, spec) if ops else 0.0
        return accel_budget / (1.0 + work / 5e7)

    return PlacementOptimizer(cpu_throughput, accel_throughput)


class TestCandidateSplits:
    def test_decode_never_offloaded(self):
        optimizer = _make_optimizer(1.0, 5000.0)
        splits = optimizer.candidate_splits(standard_pipeline_ops())
        assert min(splits) >= 1  # split 0 (decode on accelerator) not allowed

    def test_split_count_is_small(self):
        optimizer = _make_optimizer(1.0, 5000.0)
        splits = optimizer.candidate_splits(standard_pipeline_ops())
        assert len(splits) <= 6

    def test_empty_pipeline_rejected(self):
        with pytest.raises(PlacementError):
            _make_optimizer(1.0, 5000.0).candidate_splits([])


class TestPlacementDecision:
    def test_preproc_bound_offloads_work(self):
        # Slow CPU, fast accelerator: the optimizer should move post-decode
        # work onto the accelerator (split before the end of the pipeline).
        optimizer = _make_optimizer(cpu_rate=0.02, accel_budget=10_000.0)
        ops = standard_pipeline_ops()
        decision = optimizer.optimize(ops, SPEC)
        assert decision.split_index < len(ops)

    def test_dnn_bound_keeps_work_on_cpu(self):
        # Fast CPU, slow accelerator: everything stays on the CPU.
        optimizer = _make_optimizer(cpu_rate=50.0, accel_budget=30.0)
        ops = standard_pipeline_ops()
        decision = optimizer.optimize(ops, SPEC)
        assert decision.split_index == len(ops)

    def test_end_to_end_throughput_is_min(self):
        optimizer = _make_optimizer(1.0, 5000.0)
        decision = optimizer.optimize(standard_pipeline_ops(), SPEC)
        assert decision.end_to_end_throughput == pytest.approx(
            min(decision.cpu_throughput, decision.accelerator_throughput)
        )

    def test_apply_assigns_devices(self):
        optimizer = _make_optimizer(0.02, 10_000.0)
        ops = standard_pipeline_ops()
        decision = optimizer.optimize(ops, SPEC)
        dag = PreprocessingDAG.from_ops(ops)
        placed = optimizer.apply(dag, decision)
        devices = placed.devices
        assert devices[:decision.split_index] == ("cpu",) * decision.split_index
        assert all(d == "accelerator" for d in devices[decision.split_index:])
        assert placed.ops == dag.ops

    def test_apply_rejects_a_split_past_the_end(self):
        ops = standard_pipeline_ops()
        with pytest.raises(InvalidDAGError):
            _make_optimizer(1.0, 5000.0).apply(
                PreprocessingDAG.from_ops(ops),
                PlacementDecision(len(ops) + 1, 1.0, 1.0))
