"""The preprocessing pipeline: an operator chain.

Smol describes preprocessing as a computation graph (Section 6.2), but every
pipeline it plans, optimizes, places and serves is a chain: each image flows
through every operator once, in order.  :class:`PreprocessingDAG` is that
chain -- a tuple of operators and one device per operator, fixed at
construction -- and ``execute`` and the compiled batch kernel
(:mod:`repro.fuse.compiler`) both walk the tuple in the order it was given.

A general graph admits shapes a chain cannot run: the diamond
``resize -> {crop, convert} -> reorder`` passed the old acyclicity and
source/sink checks, then ran as ``resize -> convert -> crop -> reorder``
(node-id order) without an error.  A chain cannot be built in that shape;
what it can get wrong -- no ops, a non-op entry, its devices -- ``from_ops``
rejects.
"""

from __future__ import annotations

import hashlib
from typing import Sequence

import numpy as np

from repro.errors import InvalidDAGError
from repro.preprocessing.ops import PreprocessingOp, TensorSpec

DEVICES = ("cpu", "accelerator")


class PreprocessingDAG:
    """An ordered chain of preprocessing operators, one device per operator.

    Built by :meth:`from_ops` only, and fixed from then on.
    """

    def __init__(self) -> None:
        raise TypeError("build a pipeline with PreprocessingDAG.from_ops(ops)")

    @classmethod
    def from_ops(cls, ops: Sequence[PreprocessingOp],
                 device: str | Sequence[str] = "cpu") -> "PreprocessingDAG":
        """The chain running ``ops`` in order on ``device`` (one name for
        every op, or one name per op)."""
        ops = tuple(ops)
        if not ops:
            raise InvalidDAGError("empty preprocessing pipeline")
        for op in ops:
            if not isinstance(op, PreprocessingOp):
                raise InvalidDAGError(f"not a preprocessing op: {op!r}")
        devices = ((device,) * len(ops) if isinstance(device, str)
                   else tuple(device))
        if len(devices) != len(ops):
            raise InvalidDAGError(f"{len(devices)} devices for {len(ops)} ops")
        for name in devices:
            if name not in DEVICES:
                raise InvalidDAGError(
                    f"device must be 'cpu' or 'accelerator', got {name!r}")
        dag = cls.__new__(cls)
        dag._ops, dag._devices = ops, devices
        return dag

    @property
    def ops(self) -> tuple[PreprocessingOp, ...]:
        """The operators, in execution order."""
        return self._ops

    @property
    def devices(self) -> tuple[str, ...]:
        """The device of each operator, by position."""
        return self._devices

    def execute(self, array: np.ndarray) -> np.ndarray:
        """Run the pipeline on a real array (functional path)."""
        for op in self._ops:
            array = op.apply(array)
        return array

    def output_spec(self, input_spec: TensorSpec) -> TensorSpec:
        """Propagate a tensor spec through the pipeline."""
        for op in self._ops:
            input_spec = op.output_spec(input_spec)
        return input_spec

    def describe(self) -> str:
        """One-line human-readable description of the pipeline."""
        return " -> ".join(f"{op.name}@{device}"
                           for op, device in zip(self._ops, self._devices))


def dag_fingerprint(dag: PreprocessingDAG) -> str:
    """Fingerprint of a preprocessing DAG's executable spec.

    Covers the operator sequence and device placement (``describe()``) plus
    every public attribute of every op, so any spec change -- op order,
    parameters, placement -- produces a new fingerprint.  It keys both the
    compiled-kernel cache (:mod:`repro.fuse.compiler`) and persisted
    renditions and scores (:mod:`repro.store`), whose manifests record it:
    the digest of an unchanged DAG must not change.
    """
    parts: list[object] = [dag.describe()]
    for op in dag.ops:
        parts.append(sorted(
            (k, repr(v)) for k, v in vars(op).items()
            if not k.startswith("_")
        ))
    text = "\x1f".join(str(part) for part in parts)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]
