"""The Smol runtime engine.

The engine executes a (DNN, input format) plan end-to-end.  It has two modes:

* **functional** -- real decoded arrays flow through real preprocessing
  operators and a real numpy model, using producer threads, the MPMC queue and
  the buffer pools.  Used by the tests, the examples, and the accuracy
  experiments.
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
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from repro.codecs.formats import InputFormatSpec
from repro.errors import EngineError
from repro.inference.memory import MemoryStats, PinnedBufferPool
from repro.inference.mpmc import MpmcQueue, QueueClosed
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
        End-to-end images/second (simulated time for simulated mode, a
        modelled value for functional mode runs where wall time is
        irrelevant to the paper's claims).
    stage_estimate:
        The per-stage estimate the run was based on (simulated mode).
    pipeline_stats:
        Detailed simulator statistics (simulated mode).
    memory_stats:
        Buffer pool statistics (functional mode).
    """

    num_images: int
    predictions: np.ndarray | None = None
    throughput: float = 0.0
    stage_estimate: StageEstimate | None = None
    pipeline_stats: PipelineRunStats | None = None
    memory_stats: MemoryStats | None = None
    errors: list[str] = field(default_factory=list)


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
            (typically a closure over a dataset and codec).
        preprocessing:
            The preprocessing DAG to execute on each decoded image.
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
        batch = min(batch_size or self._config.batch_size, num_images)
        producers = self._config.num_producers if self._config.use_threading else 1
        queue: MpmcQueue[tuple[int, np.ndarray]] = MpmcQueue(
            capacity=max(2, self._config.queue_capacity) * batch
        )
        errors: list[str] = []
        errors_lock = threading.Lock()

        # The buffer pool takes its shape from the first tensor a producer
        # yields (no image is decoded twice) and is sized for the worst case
        # of in-flight buffers: everything sitting in the queue, one per
        # producer being filled, one batch held while the model runs.
        max_in_flight = queue.capacity + producers + batch
        pool: PinnedBufferPool | None = None

        next_index = {"value": 0}
        index_lock = threading.Lock()

        def producer_loop() -> None:
            nonlocal pool
            while True:
                with index_lock:
                    index = next_index["value"]
                    if index >= num_images:
                        return
                    next_index["value"] = index + 1
                try:
                    decoded = decode_fn(index)
                    preprocessed = preprocessing.execute(decoded)
                    with index_lock:
                        if pool is None:
                            pool = PinnedBufferPool(
                                shape=preprocessed.shape,
                                dtype=str(preprocessed.dtype),
                                max_buffers=max_in_flight,
                                reuse=self._config.reuse_buffers,
                                pinned=self._config.pinned_memory,
                            )
                    buffer = pool.acquire()
                    buffer[...] = preprocessed
                    queue.put((index, buffer))
                except QueueClosed:
                    return
                except Exception as exc:
                    with errors_lock:
                        errors.append(f"image {index}: {exc}")
                    # Wake the consumer: it may be waiting on this image.
                    queue.close()
                    return

        threads = [threading.Thread(target=producer_loop, daemon=True)
                   for _ in range(producers)]
        for thread in threads:
            thread.start()

        predictions = np.full(num_images, -1, dtype=np.int64)
        consumed = 0
        batch_buffers: list[tuple[int, np.ndarray]] = []
        while consumed < num_images:
            if errors:
                break
            try:
                batch_buffers.append(queue.get(timeout=30.0))
            except QueueClosed:
                break
            if len(batch_buffers) == batch or consumed + len(batch_buffers) == num_images:
                indices = [item[0] for item in batch_buffers]
                batch_predictions = model.predict(
                    np.stack([item[1] for item in batch_buffers]))
                predictions[indices] = batch_predictions
                for _, buffer in batch_buffers:
                    pool.release(buffer)
                consumed += len(batch_buffers)
                batch_buffers = []
        queue.close()
        for thread in threads:
            thread.join(timeout=10.0)
        if errors:
            raise EngineError("; ".join(errors))
        return InferenceResult(
            num_images=num_images,
            predictions=predictions,
            memory_stats=pool.stats,
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
