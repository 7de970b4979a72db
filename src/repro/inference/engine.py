"""The Smol runtime engine.

The engine executes a (DNN, input format) plan end-to-end.  It has two modes:

* **functional** -- real decoded arrays flow through the plan's fused
  preprocessing kernel and a real numpy model: producer threads decode a few
  images at a time and write the preprocessed chunk straight into a ring of
  batch slots, and the calling thread runs the model on each slot as it
  fills.  Used by the tests, the examples and the accuracy experiments.
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


# Images a producer decodes, preprocesses and writes per claim.  Measured
# with the kernel gathering only the crop's taps (so a chunk's temporaries
# are a few hundred KB per image, not the 128-px frames in float64): 8
# against 4, two sweeps of three alternating runs, was +3.6 % and +8.6 %
# images/s on the full-resolution scan and +3.3 % and +3.1 % on the
# thumbnail scan (six of six each) for 1.5 % peak RSS.
_CHUNK_IMAGES = 8
_STALL_TIMEOUT_S = 30.0     # consumer: no producer finished a chunk
_JOIN_TIMEOUT_S = 10.0      # producers: to notice the ring has closed


class _BatchRing:
    """The model's input batches as a ring of preallocated slots.

    Batch ``b`` is assembled in slot ``b % depth``, a ``(batch,
    *tensor_shape)`` array the model reads directly.  Producers claim
    consecutive image ranges that never straddle a batch, and may only claim
    into a batch whose slot the consumer has freed; the consumer takes
    batches in order once every image of the batch is written.  One
    condition variable guards all of it.
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
        self._filled = [0] * depth      # images written, per slot
        self._tensor: tuple | None = None   # (shape, dtype) of one image
        self._next = 0                  # first unclaimed image
        self._freed = 0                 # batches the consumer is done with
        self._closed = False
        self.errors: list[str] = []
        self.stats = MemoryStats()

    def claim(self) -> tuple[int, int] | None:
        """The next ``[start, stop)`` image range, once its batch has a free
        slot; ``None`` when every image is claimed or the ring has closed."""
        with self._cond:
            self._cond.wait_for(lambda: (
                self._closed or self._next >= self._num_images
                or self._next // self._batch < self._freed + self._depth))
            start = self._next
            if self._closed or start >= self._num_images:
                return None
            index, offset = divmod(start, self._batch)
            if offset == 0:
                stats = self.stats
                if self._slots[index % self._depth] is not None:
                    stats.reuses += 1
                stats.outstanding += 1
                stats.peak_outstanding = max(stats.peak_outstanding,
                                             stats.outstanding)
            self._next = min(start + self._chunk, (index + 1) * self._batch,
                             self._num_images)
            return start, self._next

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
                slot = np.empty((self._batch, *tensor[0]), dtype=tensor[1])
                self._slots[position] = slot
                self.stats.allocations += 1
                self.stats.bytes_allocated += slot.nbytes
        slot[offset:offset + len(tensors)] = tensors
        with self._cond:
            self._filled[position] += len(tensors)
            self._cond.notify_all()

    def wait_filled(self, index: int) -> np.ndarray | None:
        """Batch ``index`` once complete (the slot itself, cut to the batch's
        length), or ``None`` if the ring closed first."""
        position = index % self._depth
        length = min(self._batch, self._num_images - index * self._batch)
        with self._cond:
            while self._filled[position] < length and not self._closed:
                # Every finished chunk notifies: this times a stall.
                if not self._cond.wait(_STALL_TIMEOUT_S):
                    raise EngineError(
                        f"no producer finished a chunk in {_STALL_TIMEOUT_S:g}"
                        f" s; batch {index} is {self._filled[position]}/{length}")
            if self._closed:
                return None
            return self._slots[position][:length]

    def free(self, index: int) -> None:
        """Hand batch ``index``'s slot to batch ``index + depth``."""
        position = index % self._depth
        with self._cond:
            self._filled[position] = 0
            if not self._reuse:
                self._slots[position] = None
            self._freed += 1
            self.stats.outstanding -= 1
            self._cond.notify_all()

    def close(self, error: str | None = None) -> None:
        """Stop handing out work and wake every waiter."""
        with self._cond:
            if error is not None:
                self.errors.append(error)
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

        Parameters
        ----------
        decode_fn:
            Callable mapping an image index to a decoded HWC uint8 array
            (typically a closure over a dataset and codec); called once per
            index, from the producer threads.
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
        preprocessing.validate()
        kernel = get_kernel(preprocessing)
        config = self._config
        batch = min(batch_size or config.batch_size, num_images)
        producers = config.num_producers if config.use_threading else 1
        num_batches = -(-num_images // batch)
        ring = _BatchRing(
            num_images, batch, reuse=config.reuse_buffers,
            chunk=min(_CHUNK_IMAGES, -(-batch // producers)),
            depth=min(num_batches, producers + 1, config.queue_capacity))

        def produce() -> None:
            while (claim := ring.claim()) is not None:
                start, stop = claim
                decoded = []
                try:
                    for index in range(start, stop):
                        decoded.append(decode_fn(index))
                except Exception as exc:
                    ring.close(f"image {index}: {exc}")
                    return
                try:
                    ring.fill(start, kernel.execute_stacked(decoded))
                except Exception as exc:
                    ring.close(f"images {start}..{stop - 1}: {exc}")
                    return

        threads = [threading.Thread(target=produce, daemon=True)
                   for _ in range(producers)]
        predictions = np.full(num_images, -1, dtype=np.int64)
        started = time.perf_counter()
        for thread in threads:
            thread.start()
        try:
            for index in range(num_batches):
                inputs = ring.wait_filled(index)
                if inputs is None:
                    break
                first = index * batch
                try:
                    predictions[first:first + len(inputs)] = model.predict(inputs)
                except Exception as exc:
                    raise EngineError(
                        f"batch {index} (from image {first}): {exc}") from exc
                ring.free(index)
        finally:
            ring.close()
            for thread in threads:
                thread.join(timeout=_JOIN_TIMEOUT_S)
            stuck = sum(thread.is_alive() for thread in threads)
            if stuck:
                raise EngineError(
                    f"{stuck} of {producers} producers still running "
                    f"{_JOIN_TIMEOUT_S:g} s after the ring closed")
        if ring.errors:
            raise EngineError("; ".join(ring.errors))
        return InferenceResult(
            num_images=num_images,
            predictions=predictions,
            throughput=num_images / (time.perf_counter() - started),
            memory_stats=ring.stats,
        )

    def run_functional_batched(
        self,
        images: Sequence[np.ndarray],
        preprocessing: PreprocessingDAG,
        model: Sequential,
    ) -> InferenceResult:
        """Convenience wrapper running a list of decoded images."""
        if not images:
            raise EngineError("images must be non-empty")
        return self.run_functional(
            decode_fn=lambda index: images[index],
            preprocessing=preprocessing,
            model=model,
            num_images=len(images),
        )
