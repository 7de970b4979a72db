"""A small numpy neural-network framework plus the calibrated model zoo.

Two layers of fidelity serve different parts of the reproduction:

* The trainable framework (:mod:`repro.nn.layers`, :mod:`repro.nn.model`,
  :mod:`repro.nn.train`) implements convolutional networks with real forward
  and backward passes in numpy.  It is used for the *functional* experiments:
  specialized NNs on the synthetic datasets, and the low-resolution augmented
  training procedure of Section 5.3.  Inference runs an ahead-of-time plan
  over a per-thread arena (:mod:`repro.nn.plan`), every convolution one BLAS
  GEMM that stays on the calling thread (:mod:`repro.utils.blas`).
* The model zoo (:mod:`repro.nn.zoo`) holds calibrated throughput and accuracy
  profiles of the paper's standard ResNets (18/34/50) and specialized NNs, so
  the planner and the benchmark harnesses reproduce the paper's trade-off
  curves without needing a GPU.
"""

from repro import _lazy_exports

_EXPORTS = {
    "Layer": "repro.nn.layers",
    "Conv2d": "repro.nn.layers",
    "Linear": "repro.nn.layers",
    "ReLU": "repro.nn.layers",
    "BatchNorm2d": "repro.nn.layers",
    "MaxPool2d": "repro.nn.layers",
    "GlobalAvgPool2d": "repro.nn.layers",
    "Flatten": "repro.nn.layers",
    "Sequential": "repro.nn.model",
    "MiniConvNet": "repro.nn.model",
    "build_mini_resnet": "repro.nn.model",
    "PLAN_STATS": "repro.nn.plan",
    "Trainer": "repro.nn.train",
    "TrainingConfig": "repro.nn.train",
    "TrainingResult": "repro.nn.train",
    "SpecializedNN": "repro.nn.specialized",
    "make_specialized_family": "repro.nn.specialized",
    "ModelProfile": "repro.nn.zoo",
    "get_model_profile": "repro.nn.zoo",
    "list_model_profiles": "repro.nn.zoo",
    "GraphProto": "repro.nn.onnx_like",
    "export_graph": "repro.nn.onnx_like",
    "import_graph": "repro.nn.onnx_like",
}
__all__ = list(_EXPORTS)
__getattr__, __dir__ = _lazy_exports(__name__, _EXPORTS)
