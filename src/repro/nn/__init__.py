"""A small numpy neural-network framework plus the calibrated model zoo.

Two layers of fidelity serve different parts of the reproduction:

* The trainable framework (:mod:`repro.nn.layers`, :mod:`repro.nn.model`,
  :mod:`repro.nn.train`) implements convolutional networks with real forward
  and backward passes in numpy.  It is used for the *functional* experiments:
  specialized NNs on the synthetic datasets, and the low-resolution augmented
  training procedure of Section 5.3.  Inference runs an ahead-of-time plan
  over a per-thread arena (:mod:`repro.nn.plan`), every convolution one BLAS
  GEMM that stays on the calling thread (:mod:`repro.nn.blas`).
* The model zoo (:mod:`repro.nn.zoo`) holds calibrated throughput and accuracy
  profiles of the paper's standard ResNets (18/34/50) and specialized NNs, so
  the planner and the benchmark harnesses reproduce the paper's trade-off
  curves without needing a GPU.
"""

from repro.nn.layers import (
    Layer,
    Conv2d,
    Linear,
    ReLU,
    BatchNorm2d,
    MaxPool2d,
    GlobalAvgPool2d,
    Flatten,
)
from repro.nn.model import Sequential, MiniConvNet, build_mini_resnet
from repro.nn.plan import PLAN_STATS
from repro.nn.train import Trainer, TrainingConfig, TrainingResult
from repro.nn.specialized import SpecializedNN, make_specialized_family
from repro.nn.zoo import ModelProfile, get_model_profile, list_model_profiles
from repro.nn.onnx_like import GraphProto, export_graph, import_graph

__all__ = [
    "Layer",
    "Conv2d",
    "Linear",
    "ReLU",
    "BatchNorm2d",
    "MaxPool2d",
    "GlobalAvgPool2d",
    "Flatten",
    "Sequential",
    "MiniConvNet",
    "build_mini_resnet",
    "PLAN_STATS",
    "Trainer",
    "TrainingConfig",
    "TrainingResult",
    "SpecializedNN",
    "make_specialized_family",
    "ModelProfile",
    "get_model_profile",
    "list_model_profiles",
    "GraphProto",
    "export_graph",
    "import_graph",
]
