"""Arithmetic-operation cost accounting for preprocessing pipelines.

Smol approximates the cost of a candidate preprocessing plan by counting the
arithmetic operations each operator performs for the given input shape and
data types (Section 6.2).  The count is a relative measure used only to rank
candidate plans after rule-based pruning.
"""

from __future__ import annotations

from typing import Sequence

from repro.preprocessing.ops import PreprocessingOp, TensorSpec


def arithmetic_ops(op: PreprocessingOp, spec: TensorSpec) -> float:
    """Arithmetic operations performed by one operator on ``spec``."""
    return op.arithmetic_ops(spec)


def pipeline_arithmetic_ops(ops: Sequence[PreprocessingOp],
                            input_spec: TensorSpec) -> float:
    """Total arithmetic operations of an operator sequence.

    The tensor spec is propagated through the pipeline so that, for example,
    a resize placed before normalization makes the normalization cheaper
    (fewer pixels) and dtype conversions made later keep earlier ops on int8.
    """
    total = 0.0
    spec = input_spec
    for op in ops:
        total += op.arithmetic_ops(spec)
        spec = op.output_spec(spec)
    return total
