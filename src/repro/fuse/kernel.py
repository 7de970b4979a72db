"""Fused kernels: a compiled plan pipeline executing whole micro-batches.

A :class:`FusedKernel` is the executable the compiler emits for one
preprocessing DAG: the DAG's validated op order, as a tuple.  It stacks a
micro-batch and calls each op's own ``apply`` on the stack -- the same
lines ``PreprocessingDAG.execute`` runs on one image -- when the op's class
declares ``batched``; an op that does not (a user op, or a subclass that
rewrote ``apply``) is looped per image and restacked, so any valid DAG
compiles and no op ever sees a rank its code was not written for.

Micro-batches may mix input shapes/dtypes (serving payloads are arbitrary
images).  ``execute_many`` groups the batch by ``(shape, dtype)``, runs the
ops once per group, and scatters the group outputs back into request
order -- so a heterogeneous batch produces exactly the per-image results,
and a homogeneous batch (the common case) runs every op once.

The ``fuse.execute`` fault seam fires once per executed batch, and when
observability is enabled each run of consecutive ops sharing ``batched``
emits a ``fuse.segment`` span, so chaos and tracing see where a pipeline
drops out of whole-batch execution.
"""

from __future__ import annotations

import itertools
import time
from typing import Sequence

import numpy as np

from repro.chaos.faults import NULL_FAULTS
from repro.errors import PreprocessingError
from repro.obs import NULL_OBS
from repro.preprocessing.ops import PreprocessingOp


class FusedKernel:
    """The compiled, reusable executable of one preprocessing DAG."""

    def __init__(self, fingerprint: str,
                 ops: Sequence[PreprocessingOp]) -> None:
        if not ops:
            raise PreprocessingError("cannot build an empty fused kernel")
        self._fingerprint = fingerprint
        self._ops = tuple(ops)
        # Runs of consecutive ops sharing ``batched``: what describe()
        # brackets and one fuse.segment span times.
        self._runs = tuple(
            (batched, tuple(run)) for batched, run in
            itertools.groupby(self._ops, key=lambda op: op.batched)
        )

    @property
    def fingerprint(self) -> str:
        """The plan fingerprint this kernel was compiled from."""
        return self._fingerprint

    @property
    def ops(self) -> tuple[PreprocessingOp, ...]:
        """The operators, in execution order."""
        return self._ops

    @property
    def fully_vectorized(self) -> bool:
        """True when every op runs on whole batches."""
        return all(op.batched for op in self._ops)

    def describe(self) -> str:
        """The pipeline with whole-batch runs in ``[...]`` and per-image
        runs in ``{...}``, e.g. ``[resize crop] -> {custom}``."""
        return " -> ".join(
            ("[{}]" if batched else "{{{}}}").format(
                " ".join(op.name for op in run))
            for batched, run in self._runs
        )

    def _run_group(self, batch: np.ndarray, obs) -> np.ndarray:
        # ``batched`` ops read the last three axes as (H, W, C).  A stack
        # of lower-rank payloads has no such axes to spare: those take the
        # per-image loop, which answers (or rejects) them as the oracle does.
        stack_is_images = batch.ndim >= 4
        for batched, run in self._runs:
            start = time.perf_counter()
            if batched and stack_is_images:
                for op in run:
                    batch = op.apply(batch)
            else:
                # Images in a group share a shape, and ops map equal input
                # shapes to equal output shapes, so the restack is always
                # well-formed.
                images = list(batch)
                for op in run:
                    images = [op.apply(image) for image in images]
                batch = np.stack(images)
            if obs.enabled:
                obs.record(
                    "fuse.segment", time.perf_counter() - start,
                    batched=batched, ops=" ".join(op.name for op in run),
                    images=int(batch.shape[0]),
                )
        return batch

    def _group(self, arrays: Sequence[np.ndarray]) -> dict[tuple, list[int]]:
        groups: dict[tuple, list[int]] = {}
        for index, array in enumerate(arrays):
            if not isinstance(array, np.ndarray):
                raise PreprocessingError(
                    "fused execution needs ndarray payloads, got "
                    f"{type(array).__name__}"
                )
            groups.setdefault((array.shape, array.dtype.str), []).append(index)
        return groups

    def execute_many(self, arrays: Sequence[np.ndarray],
                     faults=NULL_FAULTS, obs=NULL_OBS) -> list[np.ndarray]:
        """Run the pipeline over a micro-batch; per-image outputs in order.

        Bit-identical to ``[dag.execute(a) for a in arrays]``: both run
        the same ``apply`` bodies in the same order, and shape/dtype groups
        keep heterogeneous batches exact.
        """
        if not arrays:
            raise PreprocessingError("cannot execute an empty fused batch")
        faults.hit("fuse.execute", kernel=self, batch=len(arrays))
        groups = self._group(arrays)
        results: list[np.ndarray | None] = [None] * len(arrays)
        for indices in groups.values():
            batch = np.stack([arrays[i] for i in indices])
            out = self._run_group(batch, obs)
            for position, index in enumerate(indices):
                results[index] = out[position]
        return results  # type: ignore[return-value]

    def execute_stacked(self, arrays: Sequence[np.ndarray],
                        faults=NULL_FAULTS, obs=NULL_OBS) -> np.ndarray:
        """Like :meth:`execute_many` but stacked into one ``(N, ...)`` array.

        A shape-homogeneous batch (the common case) returns the group
        output directly, with no per-image unstack/restack; heterogeneous
        batches raise like ``np.stack`` when per-image outputs disagree on
        shape -- exactly where the interpreted ``np.stack(tensors)`` path
        fails.
        """
        if not arrays:
            raise PreprocessingError("cannot execute an empty fused batch")
        groups = self._group(arrays)
        if len(groups) == 1:
            faults.hit("fuse.execute", kernel=self, batch=len(arrays))
            return self._run_group(np.stack(arrays), obs)
        return np.stack(self.execute_many(arrays, faults=faults, obs=obs))
