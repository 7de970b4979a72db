"""Fused kernels: a compiled plan pipeline executing whole micro-batches.

A :class:`FusedKernel` is the executable the compiler emits for one
preprocessing DAG.  The head of the op order that matches library operators
exactly compiles into *fused steps*: ``resize+crop`` (the crop pushed into
the resize's tap tables, so only the crop's four source pixels per output
pixel are read) and ``convert+normalize+reorder`` (normalized in place in
the channels-first result).  They call the operators' own arithmetic
(``bilinear_resize``, ``normalize_channels_first``) and decide only where
arrays live and how much of the resize is computed.  Every other op keeps
the per-op path: its ``apply`` on the stacked batch when its class declares
``batched``, a per-image loop when it does not (a user op, or a subclass
that rewrote ``apply``), so any valid DAG compiles.

A micro-batch is grouped by ``(shape, dtype)`` (serving payloads are
arbitrary images) and the outputs scattered back into request order.  A
group's first batch compiles its *program*: one dry run of the fused steps
on a blank image says what each produces (or raises what the oracle raises)
and how many images fit a slice of scratch.

Scratch is per (kernel, thread): region ``i`` serves the ``i``-th request
of a slice and grows to the largest it was asked for, so a smaller batch is
a leading slice, a batch needing more than ``_SLICE_BYTES`` walks through in
slices, and the memory dies with the thread.  Only fused steps read
scratch-backed arrays and the last one writes the freshly allocated result:
the kernel never returns memory it will overwrite.

The ``fuse.execute`` fault seam fires once per executed batch; with
observability on, the fused steps and each run of consecutive ops sharing
``batched`` emit a ``fuse.segment`` span.
"""

from __future__ import annotations

import functools
import itertools
import math
import os
import threading
import time
import weakref
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from repro.chaos.faults import NULL_FAULTS
from repro.errors import PreprocessingError
from repro.obs import NULL_OBS
from repro.obs.metrics import ArenaStats
from repro.preprocessing.ops import (
    CenterCropOp,
    ChannelReorderOp,
    ConvertDtypeOp,
    FusedNormalizeReorderOp,
    NormalizeOp,
    PreprocessingOp,
    ResizeOp,
    bilinear_resize,
    normalize_channels_first,
)

#: Most bytes of stacked frames and temporaries a slice of a batch may hold:
#: a serving batch of 8 128-px images is one slice, a batch of 256 walks
#: through in slices instead of growing every thread's scratch to fit it.
_SLICE_BYTES = 1 << 22
#: Programs (one per input shape and dtype) a kernel remembers.
_PROGRAMS_KEPT = 32


#: The counters every kernel in this process reports to.
FUSE_STATS = ArenaStats("fuse_program_compiles_total", "fuse_scratch_bytes")
#: Every live kernel, held weakly so an evicted one can die.
_KERNELS: "weakref.WeakSet[FusedKernel]" = weakref.WeakSet()


def _free_kernel_locks() -> None:
    # A fork copies each program lock as it was: one a parent thread held
    # would stay held in the child, with nothing there to release it.
    for kernel in _KERNELS:
        kernel._lock = threading.Lock()


os.register_at_fork(after_in_child=_free_kernel_locks)


class _Scratch:
    """One thread's reusable buffers on one kernel."""

    def __init__(self) -> None:
        self._regions: list[np.ndarray] = []
        self._next = 0
        self._held = [0]
        weakref.finalize(self, lambda held: FUSE_STATS._hold(-held[0]),
                         self._held)

    def rewind(self) -> None:
        """Start a slice: the next request is served by the first region."""
        self._next = 0

    def take(self, shape: tuple[int, ...], dtype) -> np.ndarray:
        """An uninitialised ``shape`` array in the next region."""
        dtype = np.dtype(dtype)
        nbytes = math.prod(shape) * dtype.itemsize
        index, self._next = self._next, self._next + 1
        if index == len(self._regions):
            self._regions.append(np.empty(0, dtype=np.uint8))
        region = self._regions[index]
        if region.nbytes < nbytes:
            grown = nbytes - region.nbytes
            # Dropped before the rebuild so the two are never held at once.
            self._regions[index] = region = None
            region = self._regions[index] = np.empty(nbytes, dtype=np.uint8)
            self._held[0] += grown
            FUSE_STATS._hold(grown)
        return region[:nbytes].view(dtype).reshape(shape)


@dataclass(frozen=True)
class _Step:
    """Consecutive library ops compiled into one call.

    ``run(batch, out=None, empty=np.empty)`` writes the step's output into
    ``out`` (a fresh array when ``None``), takes its temporaries from
    ``empty``, and never returns a view of ``batch``.
    """

    ops: tuple[PreprocessingOp, ...]
    run: Callable[..., np.ndarray]

    @property
    def name(self) -> str:
        return "+".join(op.name for op in self.ops)


@dataclass(frozen=True)
class _Program:
    """The fused steps bound to one input shape and dtype."""

    outputs: tuple[tuple[tuple[int, ...], np.dtype], ...]  # per step, per image
    slice_images: int


def _resize_crop(resize: ResizeOp, crop: CenterCropOp, batch: np.ndarray,
                 out: np.ndarray | None = None, empty=np.empty) -> np.ndarray:
    size = resize.target_size(*batch.shape[-3:-1])
    return bilinear_resize(batch, *size, window=crop.window(*size), out=out,
                           empty=empty)


def _normalize_reorder(op, batch: np.ndarray, out: np.ndarray | None = None,
                       empty=np.empty) -> np.ndarray:
    return normalize_channels_first(batch, op.mean, op.std, out=out)


def _to_float32(op: PreprocessingOp) -> bool:
    """Whether ``op`` is a conversion normalization would repeat anyway."""
    try:
        return (type(op) is ConvertDtypeOp
                and np.dtype(op.target_dtype) == np.float32)
    except TypeError:
        return False


def _fused_steps(ops: Sequence[PreprocessingOp]) -> tuple[_Step, ...]:
    """The fused steps the head of ``ops`` compiles to (exact library
    classes only: a subclass may have rewritten ``apply``)."""
    steps = []
    kinds = [type(op) for op in ops]
    if kinds[:2] == [ResizeOp, CenterCropOp]:
        steps.append(_Step(tuple(ops[:2]),
                           functools.partial(_resize_crop, *ops[:2])))
    rest = ops[2 * len(steps):]
    tail = rest[1:] if rest and _to_float32(rest[0]) else rest
    kinds = [type(op) for op in tail[:2]]
    covered = (1 if kinds[:1] == [FusedNormalizeReorderOp]
               else 2 if kinds == [NormalizeOp, ChannelReorderOp] else 0)
    if covered:
        covered += len(rest) - len(tail)
        steps.append(_Step(tuple(rest[:covered]), functools.partial(
            _normalize_reorder, tail[0])))
    return tuple(steps)


def _runs(ops: Sequence[PreprocessingOp]):
    """Runs of consecutive ops sharing ``batched``."""
    return tuple((batched, tuple(run)) for batched, run in
                 itertools.groupby(ops, key=lambda op: op.batched))


def _in_request_order(done) -> list[np.ndarray]:
    """Per-image outputs of ``_execute``'s groups, scattered back."""
    results = [None] * sum(len(indices) for indices, _ in done)
    for indices, out in done:
        for position, index in enumerate(indices):
            results[index] = out[position]
    return results


class FusedKernel:
    """The compiled, reusable executable of one preprocessing DAG."""

    def __init__(self, fingerprint: str,
                 ops: Sequence[PreprocessingOp]) -> None:
        if not ops:
            raise PreprocessingError("cannot build an empty fused kernel")
        self._fingerprint = fingerprint
        self._ops = tuple(ops)
        self._fused = _fused_steps(self._ops)
        self._fused_ops = sum(len(step.ops) for step in self._fused)
        # What one fuse.segment span times: the fused steps, then each run
        # of the ops after them.  Payloads without image axes run every op.
        self._runs = _runs(self._ops)
        self._runs_after_fused = _runs(self._ops[self._fused_ops:])
        self._lock = threading.Lock()
        self._programs: dict[tuple, _Program] = {}
        self._program_compiles = 0
        self._scratch = threading.local()
        _KERNELS.add(self)

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

    @property
    def program_compiles(self) -> int:
        """Programs this kernel has compiled (one per input shape/dtype)."""
        with self._lock:
            return self._program_compiles

    def describe(self) -> str:
        """The pipeline with whole-batch runs in ``[...]``, fused steps
        joined by ``+``, and per-image runs in ``{...}``, e.g.
        ``[resize+crop convert] -> {custom}``."""
        steps = [(True, step.name) for step in self._fused] + [
            (op.batched, op.name) for op in self._ops[self._fused_ops:]]
        return " -> ".join(
            ("[{}]" if batched else "{{{}}}").format(
                " ".join(name for _, name in run))
            for batched, run in itertools.groupby(steps, key=lambda s: s[0])
        )

    def _program(self, shape: tuple[int, ...], dtype: np.dtype) -> _Program:
        key = (shape, dtype.str)
        with self._lock:
            program = self._programs.get(key)
        if program is None:
            # One dry run on a blank image: the steps' own code says what
            # they produce (or raises what the oracle raises) and how many
            # bytes of temporaries an image needs.
            requested = 0

            def counting(shape, dtype):
                nonlocal requested
                array = np.zeros(shape, dtype)
                requested += array.nbytes
                return array

            batch, outputs = counting((1, *shape), dtype), []
            for step in self._fused:
                batch = step.run(batch, empty=counting)
                outputs.append((batch.shape[1:], batch.dtype))
                if step is not self._fused[-1]:     # the last is the result
                    requested += batch.nbytes
            program = _Program(tuple(outputs),
                               max(1, _SLICE_BYTES // max(1, requested)))
            # Compiled outside the lock; a concurrent loser is discarded.
            with self._lock:
                if key in self._programs:
                    return self._programs[key]
                while len(self._programs) >= _PROGRAMS_KEPT:
                    del self._programs[next(iter(self._programs))]
                self._programs[key] = program
                self._program_compiles += 1
            FUSE_STATS._count_compile()
        return program

    def _run_fused(self, arrays: Sequence[np.ndarray]) -> np.ndarray:
        first = arrays[0]
        program = self._program(first.shape, first.dtype)
        scratch = getattr(self._scratch, "scratch", None)
        if scratch is None:
            scratch = self._scratch.scratch = _Scratch()
        result = np.empty((len(arrays), *program.outputs[-1][0]),
                          dtype=program.outputs[-1][1])
        for low in range(0, len(arrays), program.slice_images):
            part = arrays[low:low + program.slice_images]
            scratch.rewind()
            batch = np.stack(part, out=scratch.take(
                (len(part), *first.shape), first.dtype))
            for step, (shape, dtype) in zip(self._fused, program.outputs):
                out = (result[low:low + len(part)] if step is self._fused[-1]
                       else scratch.take((len(part), *shape), dtype))
                batch = step.run(batch, out=out, empty=scratch.take)
        return result

    def _run_group(self, arrays: Sequence[np.ndarray], obs) -> np.ndarray:
        # Fused steps and ``batched`` ops read the last three axes as
        # (H, W, C).  A stack of lower-rank payloads has no such axes to
        # spare: those take the per-image loop, which answers (or rejects)
        # them as the oracle does.
        stack_is_images = arrays[0].ndim >= 3
        runs = self._runs
        if self._fused and stack_is_images:
            start = time.perf_counter()
            batch = self._run_fused(arrays)
            runs = self._runs_after_fused
            if obs.enabled:
                obs.record(
                    "fuse.segment", time.perf_counter() - start, batched=True,
                    ops=" ".join(step.name for step in self._fused),
                    images=len(arrays),
                )
        else:
            batch = np.stack(arrays)
        for batched, run in runs:
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

    def _execute(self, arrays: Sequence[np.ndarray], faults,
                 obs) -> list[tuple[list[int], np.ndarray]]:
        """Each shape/dtype group's request indices and stacked output."""
        if not arrays:
            raise PreprocessingError("cannot execute an empty fused batch")
        faults.hit("fuse.execute", kernel=self, batch=len(arrays))
        groups: dict[tuple, list[int]] = {}
        for index, array in enumerate(arrays):
            if not isinstance(array, np.ndarray):
                raise PreprocessingError(
                    "fused execution needs ndarray payloads, got "
                    f"{type(array).__name__}"
                )
            groups.setdefault((array.shape, array.dtype.str), []).append(index)
        done = [(indices, self._run_group(
            arrays if len(groups) == 1 else [arrays[i] for i in indices], obs))
            for indices in groups.values()]
        if obs.enabled:
            FUSE_STATS.publish(obs)
        return done

    def execute_many(self, arrays: Sequence[np.ndarray],
                     faults=NULL_FAULTS, obs=NULL_OBS) -> list[np.ndarray]:
        """Run the pipeline over a micro-batch; per-image outputs in order.

        Bit-identical to ``[dag.execute(a) for a in arrays]``: both run
        the operators' one arithmetic in the same order, and shape/dtype
        groups keep heterogeneous batches exact.
        """
        return _in_request_order(self._execute(arrays, faults, obs))

    def execute_stacked(self, arrays: Sequence[np.ndarray],
                        faults=NULL_FAULTS, obs=NULL_OBS) -> np.ndarray:
        """Like :meth:`execute_many` but stacked into one ``(N, ...)`` array.

        A shape-homogeneous batch (the common case) returns the group
        output directly, with no per-image unstack/restack; heterogeneous
        batches raise like ``np.stack`` when per-image outputs disagree on
        shape -- exactly where the interpreted ``np.stack(tensors)`` path
        fails.
        """
        done = self._execute(arrays, faults, obs)
        if len(done) == 1:
            return done[0][1]
        return np.stack(_in_request_order(done))
