"""Ahead-of-time inference plan: order the ops once, allocate, then run.

``Sequential.forward(training=False)`` used to allocate its way through the
layers: a padded copy, im2col columns, an output and several temporaries per
layer per call -- the pattern that makes glibc trim and re-fault a serving
thread's heap every micro-batch.  Here the model's layers are scheduled once
into a list of ops over *symbolic* buffers (:func:`_schedule`), an
:class:`Arena` sizes one float32 region per buffer for the largest batch it
has been asked for, and each batch size is compiled once into a flat list of
callables over views of those regions (``Layer.step``).  Running a batch is:
copy (and cast) the input into its slot, call the steps, copy the logits out.

Buffers, per (model, thread):

* one zero-bordered buffer per convolution -- whoever produces a
  convolution's input writes straight into the interior, so padding is never
  a copy and the border is zeroed exactly once;
* one ``scratch`` region shared by every convolution's im2col columns.  A
  convolution works through the batch a chunk of examples at a time, the
  chunk chosen so its columns stay under ``_COLS_BYTES``: the region is as
  large as the widest chunk, not the widest batch;
* two ``slot`` regions every other activation alternates between (a
  ``Sequential`` has one live activation at a time; elementwise layers run
  in place).

A smaller batch uses leading slices of the same storage, so a server whose
batches vary 1..8 holds one arena, not eight.  The arithmetic is the
layers' own (:mod:`repro.nn.layers`): the plan decides where arrays live,
never what is computed, and a layer without a ``step`` runs its ``forward``.
Layer *hyper-parameters* (kernel, stride, padding, layer order) are read
when an arena is built; *parameters* and running statistics are read by the
steps every time they run.
"""

from __future__ import annotations

import functools
import math
import weakref
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from repro.errors import ModelError
from repro.nn import blas
from repro.nn.layers import Layer
from repro.obs.metrics import ArenaStats

_SLOTS = ("slot0", "slot1")
_SCRATCH = "scratch"
#: Most bytes of im2col columns alive at once.  Large enough that a
#: convolution stays a handful of numpy calls (each gives up the GIL: 512 KiB
#: chunks were 19 % faster alone and 30 % slower in the engine), small enough
#: for one arena per engine stream.  In the engine, ResNet-50 at batch 32 on
#: two streams, 2 runs each: 1 MiB 1 421-1 664 images/s at 110.7 MB peak RSS,
#: 2 MiB 1 693-1 761 at 112.7, 4 MiB 1 606-1 835 at 117.8 (the parent: 104).
_COLS_BYTES = 1 << 21
_ITEMSIZE = np.dtype(np.float32).itemsize


def _chunk(scratch_shape: tuple[int, ...], batch: int) -> int:
    """Examples per chunk for a layer with that scratch, never under one."""
    per_example = math.prod(scratch_shape) * _ITEMSIZE
    return max(1, min(batch, _COLS_BYTES // per_example))


#: The counters every arena in this process reports to.
PLAN_STATS = ArenaStats("nn_plan_compiles_total", "nn_arena_bytes",
                        nn_gemm_threads=blas.gemm_threads)


@dataclass(frozen=True)
class _Ref:
    """Where one example of an activation lives in the arena.

    ``shape`` is the storage per example; with a ``border`` the activation
    is the interior that many pixels in from each spatial edge.
    """

    region: object
    shape: tuple[int, ...]
    border: int = 0


@dataclass(frozen=True)
class _Op:
    """One scheduled layer (``None``: a plain copy) and its buffers."""

    layer: Layer | None
    source: _Ref
    dest: _Ref
    scratch: tuple[int, ...] | None = None


def _schedule(layers: Sequence[Layer],
              sample_shape: tuple[int, ...]) -> tuple[_Ref, list[_Op], _Ref]:
    """Where the input lands, the ops in order, and where the output is.

    Validates the whole stack for ``sample_shape`` through each layer's
    ``output_shape``, so a model that cannot take the input fails here.
    """

    def slot(taken: object) -> object:
        return _SLOTS[1] if taken == _SLOTS[0] else _SLOTS[0]

    def home(consumer: int, shape: tuple[int, ...], taken: object) -> _Ref:
        # Where the activation that layer ``consumer`` reads gets written:
        # inside that layer's border if it wants one, else in the slot the
        # producer is not reading from.  (A bordered layer handed something
        # that is not (C, H, W) gets a slot, and says so in ``output_shape``.)
        layer = layers[consumer] if consumer < len(layers) else None
        border = layer.border if layer is not None and layer.planned else 0
        if border and len(shape) == 3:
            return _Ref(("pad", consumer),
                        (shape[0], shape[1] + 2 * border, shape[2] + 2 * border),
                        border)
        return _Ref(slot(taken), shape)

    shape = tuple(sample_shape)
    source = first = home(0, shape, None)
    ops: list[_Op] = []
    for index, layer in enumerate(layers):
        out_shape = tuple(layer.output_shape(shape))
        scratch = layer.scratch_shape(shape) if layer.planned else None
        dest = home(index + 1, out_shape, source.region)
        if layer.planned and layer.in_place and not (source.border or dest.border):
            dest = source
        if dest.border and layer.planned and layer.dense_out:
            # A GEMM writes a dense array: stage it in a slot, then copy it
            # inside the next convolution's border.
            staged = _Ref(slot(source.region), out_shape)
            ops += [_Op(layer, source, staged, scratch), _Op(None, staged, dest)]
        else:
            ops.append(_Op(layer, source, dest, scratch))
        source, shape = dest, out_shape
    return first, ops, source


def _run_forward(layer: Layer, source: np.ndarray, out: np.ndarray) -> None:
    """The step of a layer that declares none: its own ``forward``."""
    result = layer.forward(source)
    if result.shape != out.shape:
        raise ModelError(
            f"{type(layer).__name__}.forward returned {result.shape}, its "
            f"output_shape promised {out.shape[1:]} per example"
        )
    np.copyto(out, result, casting="same_kind")


class Arena:
    """One thread's buffers and compiled step lists for one model."""

    def __init__(self, layers: Sequence[Layer], sample_shape: tuple[int, ...],
                 capacity: int) -> None:
        self._layers = list(layers)
        self._sample_shape = tuple(sample_shape)
        self._capacity = capacity
        self._input, self._ops, self._output = _schedule(self._layers,
                                                         self._sample_shape)
        # Elements per region: activations scale with the batch, the shared
        # scratch with the widest chunk.
        sizes: dict[object, int] = {}
        for ref in [self._input] + [r for op in self._ops
                                    for r in (op.source, op.dest)]:
            sizes[ref.region] = max(sizes.get(ref.region, 0),
                                    capacity * math.prod(ref.shape))
        for op in self._ops:
            if op.scratch is not None:
                sizes[_SCRATCH] = max(
                    sizes.get(_SCRATCH, 0),
                    _chunk(op.scratch, capacity) * math.prod(op.scratch))
        # Bordered buffers start (and, outside their interiors, stay) zero.
        self._regions = {
            region: (np.empty if region in _SLOTS or region == _SCRATCH
                     else np.zeros)(size, dtype=np.float32)
            for region, size in sizes.items()
        }
        self._plans: dict[int, tuple[np.ndarray, list[Callable[[], None]],
                                     np.ndarray]] = {}
        self.nbytes = sum(region.nbytes for region in self._regions.values())
        PLAN_STATS._hold(self.nbytes)
        weakref.finalize(self, PLAN_STATS._hold, -self.nbytes)

    def fits(self, layers: Sequence[Layer], shape: tuple[int, ...]) -> bool:
        """Whether a batch of ``shape`` through ``layers`` can run here."""
        return (shape[0] <= self._capacity
                and shape[1:] == self._sample_shape
                and self._layers == list(layers))

    def _view(self, ref: _Ref, batch: int, interior: bool = False) -> np.ndarray:
        # Readers take a bordered buffer whole; writers fill its interior.
        size = math.prod(ref.shape)
        array = self._regions[ref.region][:batch * size].reshape(batch, *ref.shape)
        if ref.border and interior:
            inner = slice(ref.border, -ref.border)
            return array[:, :, inner, inner]
        return array

    def _compile(self, batch: int):
        steps: list[Callable[[], None]] = []
        for op in self._ops:
            source = self._view(op.source, batch)
            dest = self._view(op.dest, batch, interior=True)
            if op.layer is None:
                steps.append(functools.partial(np.copyto, dest, source))
            elif op.layer.planned:
                scratch = (None if op.scratch is None else self._view(
                    _Ref(_SCRATCH, op.scratch), _chunk(op.scratch, batch)))
                steps.append(op.layer.step(source, dest, scratch))
            else:
                steps.append(functools.partial(
                    _run_forward, op.layer, source, dest))
        PLAN_STATS._count_compile()
        return (self._view(self._input, batch, interior=True), steps,
                self._view(self._output, batch))

    def run(self, inputs: np.ndarray) -> np.ndarray:
        """The model's output for ``inputs``, as a fresh array."""
        batch = inputs.shape[0]
        plan = self._plans.get(batch)
        if plan is None:
            plan = self._plans[batch] = self._compile(batch)
        slot, steps, output = plan
        try:
            # The copy into the arena is the cast to float32.
            np.copyto(slot, inputs, casting="same_kind")
        except TypeError as exc:
            raise ModelError(
                f"cannot cast {inputs.dtype} inputs to float32") from exc
        for step in steps:
            step()
        return output.copy()
