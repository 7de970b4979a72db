"""Optimized runtime engine for end-to-end visual inference (Section 6).

Components:

* :mod:`repro.inference.mpmc` -- a thread-safe multi-producer, multi-consumer
  queue (the hand-off primitive of the cluster's workers and dispatcher).
* :mod:`repro.inference.memory` -- buffer-reuse and pinned-memory accounting
  for the engine's batch slots, modelling the paper's memory optimizations.
* :mod:`repro.inference.backends` -- execution-backend efficiency models
  (Keras-, PyTorch-, and TensorRT-like) reproducing Table 1.
* :mod:`repro.inference.perfmodel` -- calibrated per-stage cost models for
  preprocessing and DNN execution on a given instance and engine config.
* :mod:`repro.inference.pipeline_sim` -- an event-driven simulator of the
  producer/consumer pipeline, used to "measure" pipelined throughput.
* :mod:`repro.inference.engine` -- the Smol runtime engine facade with both a
  functional mode (producer threads fill the model's input batches in place)
  and a simulated mode (calibrated costs through the pipeline simulator).
"""

from repro.inference.mpmc import MpmcQueue, QueueClosed
from repro.inference.memory import MemoryStats
from repro.inference.backends import ExecutionBackend, get_backend, list_backends
from repro.inference.perfmodel import (
    EngineConfig,
    StageEstimate,
    PerformanceModel,
    PreprocessingCostModel,
    DnnCostModel,
)
from repro.inference.pipeline_sim import PipelineSimulator, PipelineRunStats
from repro.inference.engine import SmolRuntimeEngine, InferenceResult
from repro.inference.calibrator import PreprocessingCalibrator, FormatProfile

__all__ = [
    "PreprocessingCalibrator",
    "FormatProfile",
    "MpmcQueue",
    "QueueClosed",
    "MemoryStats",
    "ExecutionBackend",
    "get_backend",
    "list_backends",
    "EngineConfig",
    "StageEstimate",
    "PerformanceModel",
    "PreprocessingCostModel",
    "DnnCostModel",
    "PipelineSimulator",
    "PipelineRunStats",
    "SmolRuntimeEngine",
    "InferenceResult",
]
