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

from repro import _lazy_exports

_EXPORTS = {
    "PreprocessingCalibrator": "repro.inference.calibrator",
    "FormatProfile": "repro.inference.calibrator",
    "MpmcQueue": "repro.inference.mpmc",
    "QueueClosed": "repro.inference.mpmc",
    "MemoryStats": "repro.inference.memory",
    "ExecutionBackend": "repro.inference.backends",
    "get_backend": "repro.inference.backends",
    "list_backends": "repro.inference.backends",
    "EngineConfig": "repro.inference.perfmodel",
    "StageEstimate": "repro.inference.perfmodel",
    "PerformanceModel": "repro.inference.perfmodel",
    "PreprocessingCostModel": "repro.inference.perfmodel",
    "DnnCostModel": "repro.inference.perfmodel",
    "PipelineSimulator": "repro.inference.pipeline_sim",
    "PipelineRunStats": "repro.inference.pipeline_sim",
    "SmolRuntimeEngine": "repro.inference.engine",
    "InferenceResult": "repro.inference.engine",
}
__all__ = list(_EXPORTS)
__getattr__, __dir__ = _lazy_exports(__name__, _EXPORTS)
