"""The Smol runtime engine.

The engine executes a (DNN, input format) plan end-to-end.  It has two modes:

* **functional** -- real decoded arrays flow through the plan's fused
  preprocessing kernel and a real numpy model: worker threads decode a few
  images at a time and write the preprocessed chunk straight into a ring of
  batch slots, and the first ``num_streams`` of them run the model on each
  slot as it completes, in place, while the calling thread waits.
  Used by the tests, the examples and the accuracy experiments.
* **simulated** -- per-image costs from the calibrated performance model flow
  through the event-driven pipeline simulator.  Used by the throughput
  benchmarks, where the absolute rates must match modern-accelerator scales
  no laptop CPU can reach.

Both modes share the same configuration (:class:`EngineConfig`) and report the
same result structure, so the planner and the analytics layer are agnostic to
which mode ran.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from repro.codecs.formats import InputFormatSpec
from repro.errors import EngineError
from repro.fuse import get_kernel
from repro.inference.memory import MemoryStats
from repro.inference.perfmodel import (
    EngineConfig,
    PerformanceModel,
    StageEstimate,
)
from repro.inference.pipeline_sim import PipelineRunStats, PipelineSimulator
from repro.nn.model import Sequential
from repro.nn.zoo import ModelProfile
from repro.preprocessing.dag import PreprocessingDAG


@dataclass
class InferenceResult:
    """Result of an engine run.

    Attributes
    ----------
    num_images:
        Images processed.
    predictions:
        Predicted class indices (functional mode only).
    throughput:
        End-to-end images/second: simulated time in simulated mode, the
        measured wall clock of the call in functional mode.
    stage_estimate:
        The per-stage estimate the run was based on (simulated mode).
    pipeline_stats:
        Detailed simulator statistics (simulated mode).
    memory_stats:
        Batch-slot allocation and reuse counts (functional mode).
    """

    num_images: int
    predictions: np.ndarray | None = None
    throughput: float = 0.0
    stage_estimate: StageEstimate | None = None
    pipeline_stats: PipelineRunStats | None = None
    memory_stats: MemoryStats | None = None


# Images a worker decodes, preprocesses and writes per claim.  Measured
# with the kernel gathering only the crop's taps (a chunk's temporaries are
# a few hundred KB per image): 8 against 4, two sweeps of three alternating
# runs, was +3.6 % and +8.6 % images/s on the full-resolution scan and +3.3 %
# and +3.1 % on the thumbnail scan (six of six each) for 1.5 % peak RSS.
_CHUNK_IMAGES = 8
_STALL_TIMEOUT_S = 30.0     # caller: no chunk finished, no batch predicted
_JOIN_TIMEOUT_S = 10.0      # workers: to notice the ring has closed


class _BatchRing:
    """The model's input batches as a ring of preallocated slots.

    Batch ``b`` is assembled in slot ``b % depth``, a ``(batch,
    *tensor_shape)`` array the model reads directly.  Workers claim
    consecutive image ranges that never straddle a batch, and only into a
    batch whose slot no earlier batch owns; a complete batch waits for the
    next *stream* worker, which predicts it and frees the slot -- in any
    order, so ownership is per slot.  One condition variable guards all of it.
    """

    def __init__(self, num_images: int, batch: int, chunk: int, depth: int,
                 reuse: bool) -> None:
        self._cond = threading.Condition()
        self._num_images = num_images
        self._batch = batch
        self._chunk = chunk
        self._depth = depth
        self._reuse = reuse
        self._slots: list[np.ndarray | None] = [None] * depth
        self._filled: list[int | None] = [None] * depth  # images in; None: free
        self._tensor: tuple | None = None   # (shape, dtype) of one image
        self._next = 0                  # first unclaimed image
        self._ready: list[tuple] = []   # complete batches nobody has taken
        self._pending = -(-num_images // batch)     # batches not yet freed
        self._closed = False
        self.errors: list[tuple[str, BaseException]] = []
        self.stats = MemoryStats()

    def claim(self, stream: bool) -> tuple[int, int, np.ndarray | None] | None:
        """A worker's next piece of work.  For a stream worker first the oldest
        complete batch, ``(first, stop, inputs)``: the slot itself, cut to the
        batch's length.  Else ``(start, stop, None)``, the next image range,
        once its batch has its slot.  ``None``: nothing is left, or closed."""
        with self._cond:
            while not self._closed:
                if stream and self._ready:
                    return self._ready.pop(0)
                start = self._next
                index, offset = divmod(start, self._batch)
                position = index % self._depth
                if start >= self._num_images:
                    if not (stream and self._pending):
                        break
                elif offset or self._filled[position] is None:
                    if offset == 0:
                        stats = self.stats
                        stats.reuses += self._slots[position] is not None
                        self._filled[position] = 0
                        stats.outstanding += 1
                        stats.peak_outstanding = max(stats.peak_outstanding,
                                                     stats.outstanding)
                    self._next = min(start + self._chunk,
                                     (index + 1) * self._batch, self._num_images)
                    return start, self._next, None
                self._cond.wait()
            return None

    def fill(self, start: int, tensors: np.ndarray) -> None:
        """Write the preprocessed images ``start, start + 1, ...``."""
        index, offset = divmod(start, self._batch)
        position = index % self._depth
        tensor = (tensors.shape[1:], tensors.dtype)
        with self._cond:
            expected = self._tensor = self._tensor or tensor
            if tensor != expected:
                raise EngineError(f"preprocessed to {tensor[0]} {tensor[1]}, the "
                                  f"run's tensors are {expected[0]} {expected[1]}")
            slot = self._slots[position]
            if slot is None:
                slot = self._slots[position] = np.empty(
                    (self._batch, *tensor[0]), dtype=tensor[1])
                self.stats.allocations += 1
                self.stats.bytes_allocated += slot.nbytes
        slot[offset:offset + len(tensors)] = tensors
        first = index * self._batch
        stop = min(first + self._batch, self._num_images)
        with self._cond:
            self._filled[position] += len(tensors)
            if self._filled[position] == stop - first:
                self._ready.append((first, stop, slot[:stop - first]))
            self._cond.notify_all()

    def free(self, index: int) -> None:
        """Batch ``index`` is predicted: its slot is the next batch's."""
        position = index % self._depth
        with self._cond:
            self._filled[position] = None
            if not self._reuse:
                self._slots[position] = None
            self._pending -= 1
            self.stats.outstanding -= 1
            self._cond.notify_all()

    def wait_done(self) -> None:
        """Return once every batch is freed or the ring has closed."""
        with self._cond:
            # Every finished chunk and freed batch notifies: this times a stall.
            while self._pending and not self._closed:
                if not self._cond.wait(_STALL_TIMEOUT_S):
                    raise EngineError(f"no chunk finished, no batch predicted in "
                                      f"{_STALL_TIMEOUT_S:g} s; {self._pending} to go")

    def close(self, error: str | None = None, cause=None) -> None:
        """Stop handing out work and wake every waiter."""
        with self._cond:
            if error is not None:
                self.errors.append((error, cause))
            self._closed = True
            self._cond.notify_all()


class SmolRuntimeEngine:
    """Pipelined end-to-end inference engine."""

    def __init__(self, config: EngineConfig | None = None,
                 performance_model: PerformanceModel | None = None) -> None:
        self._config = config or EngineConfig()
        self._performance_model = performance_model

    @property
    def config(self) -> EngineConfig:
        """The engine configuration."""
        return self._config

    # ------------------------------------------------------------------
    # Simulated mode
    # ------------------------------------------------------------------
    def run_simulated(self, model: ModelProfile, fmt: InputFormatSpec,
                      num_images: int = 4096, roi_fraction: float = 1.0,
                      offloaded_fraction: float | None = None,
                      deblocking: bool = True) -> InferenceResult:
        """Simulate a pipelined run of ``num_images`` images.

        When ``offloaded_fraction`` is None the engine asks the performance
        model for the best operator placement (Section 6.3).
        """
        if self._performance_model is None:
            raise EngineError("simulated mode requires a performance model")
        perf = self._performance_model
        if offloaded_fraction is None:
            offloaded_fraction = perf.best_offload_fraction(
                model, fmt, self._config, roi_fraction=roi_fraction
            )
        estimate = perf.estimate(
            model, fmt, self._config, roi_fraction=roi_fraction,
            offloaded_fraction=offloaded_fraction, deblocking=deblocking,
        )
        simulator = PipelineSimulator(self._config)
        stats = simulator.run(estimate, num_images=num_images)
        return InferenceResult(
            num_images=num_images,
            throughput=stats.throughput,
            stage_estimate=estimate,
            pipeline_stats=stats,
        )

    def measure_stages(self, model: ModelProfile, fmt: InputFormatSpec,
                       num_images: int = 2048,
                       roi_fraction: float = 1.0) -> dict[str, float]:
        """Measure preprocessing-only, DNN-only, and pipelined throughput."""
        if self._performance_model is None:
            raise EngineError("simulated mode requires a performance model")
        estimate = self._performance_model.estimate(
            model, fmt, self._config, roi_fraction=roi_fraction
        )
        simulator = PipelineSimulator(self._config)
        return simulator.measured_stage_throughputs(estimate, num_images)

    # ------------------------------------------------------------------
    # Functional mode
    # ------------------------------------------------------------------
    def run_functional(
        self,
        decode_fn: Callable[[int], np.ndarray],
        preprocessing: PreprocessingDAG,
        model: Sequential,
        num_images: int,
        batch_size: int | None = None,
    ) -> InferenceResult:
        """Run real data through the threaded pipeline.

        ``model.predict`` is entered from up to ``min(num_streams,
        producers)`` worker threads at once (``num_streams=1``: strictly one
        call at a time); a failure there is raised here, chained to its cause.

        Parameters
        ----------
        decode_fn:
            Callable mapping an image index to a decoded HWC uint8 array
            (typically a closure over a dataset and codec); called once per
            index, from the worker threads.
        preprocessing:
            The preprocessing DAG; its fused kernel runs on each decoded chunk.
        model:
            The numpy model producing predictions.
        num_images:
            Number of images to process.
        batch_size:
            Batch size for model execution (defaults to the engine config,
            capped at the image count).
        """
        if num_images <= 0:
            raise EngineError("num_images must be positive")
        kernel = get_kernel(preprocessing)
        config = self._config
        batch = min(batch_size or config.batch_size, num_images)
        workers = config.num_producers if config.use_threading else 1
        ring = _BatchRing(
            num_images, batch, reuse=config.reuse_buffers,
            chunk=min(_CHUNK_IMAGES, -(-batch // workers)),
            depth=min(-(-num_images // batch), workers + 1,
                      config.queue_capacity))
        predictions = np.full(num_images, -1, dtype=np.int64)

        def work(stream: bool) -> None:
            while (claim := ring.claim(stream)) is not None:
                start, stop, inputs = claim
                try:
                    if inputs is not None:
                        where = f"batch {start // batch} (from image {start})"
                        predictions[start:stop] = model.predict(inputs)
                        ring.free(start // batch)
                        continue
                    decoded = []
                    for index in range(start, stop):
                        where = f"image {index}"
                        decoded.append(decode_fn(index))
                    where = f"images {start}..{stop - 1}"
                    ring.fill(start, kernel.execute_stacked(decoded))
                except Exception as exc:
                    return ring.close(f"{where}: {exc}", exc)

        # Only the first ``num_streams`` workers run the model and hold an arena.
        threads = [threading.Thread(target=work, daemon=True,
                                    args=(number < config.num_streams,))
                   for number in range(workers)]
        started = time.perf_counter()
        for thread in threads:
            thread.start()
        try:
            ring.wait_done()
        finally:
            ring.close()
            for thread in threads:
                thread.join(timeout=_JOIN_TIMEOUT_S)
            stuck = sum(thread.is_alive() for thread in threads)
            if stuck:
                raise EngineError(f"{stuck} of {workers} workers still running "
                                  f"{_JOIN_TIMEOUT_S:g} s after the ring closed")
        if ring.errors:
            raise EngineError("; ".join(error for error, _ in ring.errors)
                              ) from ring.errors[0][1]
        return InferenceResult(
            num_images, predictions, memory_stats=ring.stats,
            throughput=num_images / (time.perf_counter() - started))

    def run_functional_batched(self, images: Sequence[np.ndarray],
                               preprocessing: PreprocessingDAG,
                               model: Sequential) -> InferenceResult:
        """Convenience wrapper running a list of decoded images."""
        if not images:
            raise EngineError("images must be non-empty")
        return self.run_functional(lambda index: images[index], preprocessing,
                                   model, len(images))
