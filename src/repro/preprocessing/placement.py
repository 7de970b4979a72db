"""Hardware- and input-aware placement of preprocessing operators (Section 6.3).

Preprocessing operators can run on the CPU or the accelerator.  When DNN
execution dominates, Smol keeps preprocessing on the CPU (the accelerator has
no spare cycles to give is wrong -- the CPU is the idle resource); when
preprocessing dominates, Smol moves as many operators as possible onto the
accelerator to rebalance the pipeline.  Because preprocessing operators form a
short sequential chain, only a handful of split points need to be considered
(typically under 5 per model/format pair).

Entropy decoding stays on the CPU: its branch-heavy structure is a poor fit
for DNN accelerators (Section 6.4), so only post-decode operators are eligible
for accelerator placement.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from repro.errors import PlacementError
from repro.preprocessing.dag import PreprocessingDAG
from repro.preprocessing.ops import DecodeOp, PreprocessingOp, TensorSpec


class Placement(enum.Enum):
    """Where an operator runs."""

    CPU = "cpu"
    ACCELERATOR = "accelerator"


@dataclass(frozen=True)
class PlacementDecision:
    """A placement of a pipeline's operators across CPU and accelerator.

    Attributes
    ----------
    split_index:
        Operators before this index run on the CPU; the rest run on the
        accelerator.  ``split_index == len(ops)`` keeps everything on CPU.
    cpu_throughput, accelerator_throughput:
        Predicted per-stage throughputs (images/second) under this placement.
    end_to_end_throughput:
        Predicted pipelined throughput: the min of the two stages.
    """

    split_index: int
    cpu_throughput: float
    accelerator_throughput: float

    @property
    def end_to_end_throughput(self) -> float:
        """Pipelined throughput implied by this placement."""
        return min(self.cpu_throughput, self.accelerator_throughput)


class PlacementOptimizer:
    """Chooses a CPU/accelerator split for a preprocessing pipeline.

    The optimizer needs throughput estimates for each candidate split.  The
    caller supplies two callables mapping "ops assigned to that device" to a
    throughput; in practice these come from the performance model
    (:mod:`repro.inference.perfmodel`), which accounts for both the
    preprocessing work and the DNN execution sharing the accelerator.
    """

    def __init__(self, cpu_throughput_fn, accelerator_throughput_fn) -> None:
        self._cpu_throughput_fn = cpu_throughput_fn
        self._accelerator_throughput_fn = accelerator_throughput_fn

    def candidate_splits(self, ops: list[PreprocessingOp]) -> list[int]:
        """Valid split indices: decode must stay on the CPU."""
        if not ops:
            raise PlacementError("cannot place an empty pipeline")
        first_movable = 0
        for index, op in enumerate(ops):
            if isinstance(op, DecodeOp):
                first_movable = index + 1
        return list(range(first_movable, len(ops) + 1))

    def optimize(self, ops: list[PreprocessingOp],
                 input_spec: TensorSpec) -> PlacementDecision:
        """Pick the split maximizing pipelined throughput."""
        best: PlacementDecision | None = None
        for split in self.candidate_splits(ops):
            cpu_ops = ops[:split]
            accel_ops = ops[split:]
            cpu_tp = self._cpu_throughput_fn(cpu_ops, input_spec)
            accel_tp = self._accelerator_throughput_fn(accel_ops, input_spec)
            decision = PlacementDecision(
                split_index=split,
                cpu_throughput=cpu_tp,
                accelerator_throughput=accel_tp,
            )
            if best is None or (
                decision.end_to_end_throughput > best.end_to_end_throughput
            ):
                best = decision
        if best is None:
            raise PlacementError("no feasible placement found")
        return best

    def apply(self, dag: PreprocessingDAG,
              decision: PlacementDecision) -> PreprocessingDAG:
        """Rebuild ``dag`` with devices assigned per ``decision`` (a split
        past the end names more devices than ops: ``InvalidDAGError``)."""
        split, count = decision.split_index, len(dag.ops)
        return PreprocessingDAG.from_ops(
            dag.ops, ["cpu"] * split + ["accelerator"] * (count - split))
