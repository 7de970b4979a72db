"""Calibrated model zoo.

Holds throughput and accuracy profiles of the standard ResNets (18/34/50) and
other models the paper measures, anchored to the numbers in Tables 1, 2, 5
and 7.  The planner uses these profiles; the trainable numpy models in
:mod:`repro.nn.model` are a separate, functional path.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ModelError
from repro.hardware import calibration as cal
from repro.hardware.devices import GpuSpec, get_gpu

# Published single-crop GFLOPs for the standard ResNets and MobileNet-SSD.
MODEL_GFLOPS: dict[str, float] = {
    "resnet-18": 1.82,
    "resnet-34": 3.67,
    "resnet-50": 4.10,
    "resnet-101": 7.85,
    "resnet-152": 11.58,
    "mobilenet-ssd": 1.20,
    "mask-rcnn": 180.0,
}


@dataclass(frozen=True)
class ModelProfile:
    """Calibrated profile of a DNN architecture.

    Attributes
    ----------
    name:
        Model name, e.g. ``"resnet-50"``.
    gflops:
        GFLOPs per image at the standard input resolution.
    t4_throughput:
        Measured images/second on the T4 with an optimized compiler, when the
        paper reports it; otherwise estimated from FLOPs scaling.
    imagenet_top1:
        ImageNet top-1 accuracy under regular training on full resolution,
        when applicable.
    input_size:
        Native input resolution (square).
    """

    name: str
    gflops: float
    t4_throughput: float
    imagenet_top1: float | None
    input_size: int = 224

    def throughput_on(self, gpu: GpuSpec | str,
                      backend_efficiency: float = 1.0) -> float:
        """Images/second on another GPU, scaled from the T4 anchor."""
        device = get_gpu(gpu) if isinstance(gpu, str) else gpu
        t4 = get_gpu("T4")
        scale = device.resnet50_throughput / t4.resnet50_throughput
        return self.t4_throughput * scale * backend_efficiency

    def execution_us_per_image(self, gpu: GpuSpec | str = "T4",
                               backend_efficiency: float = 1.0) -> float:
        """Per-image execution latency in microseconds on ``gpu``."""
        throughput = self.throughput_on(gpu, backend_efficiency)
        if throughput <= 0:
            raise ModelError("throughput must be positive")
        return 1e6 / throughput


def _estimated_t4_throughput(gflops: float) -> float:
    """Estimate T4 throughput from FLOPs relative to the ResNet-50 anchor."""
    anchor_gflops = MODEL_GFLOPS["resnet-50"]
    anchor_throughput = cal.RESNET_T4_THROUGHPUT[50]
    return anchor_throughput * anchor_gflops / gflops


_PROFILES: dict[str, ModelProfile] = {
    "resnet-18": ModelProfile(
        name="resnet-18",
        gflops=MODEL_GFLOPS["resnet-18"],
        t4_throughput=cal.RESNET_T4_THROUGHPUT[18],
        imagenet_top1=cal.RESNET_IMAGENET_TOP1[18],
    ),
    "resnet-34": ModelProfile(
        name="resnet-34",
        gflops=MODEL_GFLOPS["resnet-34"],
        t4_throughput=cal.RESNET_T4_THROUGHPUT[34],
        imagenet_top1=cal.RESNET_IMAGENET_TOP1[34],
    ),
    "resnet-50": ModelProfile(
        name="resnet-50",
        gflops=MODEL_GFLOPS["resnet-50"],
        t4_throughput=cal.RESNET_T4_THROUGHPUT[50],
        imagenet_top1=cal.RESNET_IMAGENET_TOP1[50],
    ),
    "resnet-101": ModelProfile(
        name="resnet-101",
        gflops=MODEL_GFLOPS["resnet-101"],
        t4_throughput=_estimated_t4_throughput(MODEL_GFLOPS["resnet-101"]),
        imagenet_top1=0.774,
    ),
    "resnet-152": ModelProfile(
        name="resnet-152",
        gflops=MODEL_GFLOPS["resnet-152"],
        t4_throughput=_estimated_t4_throughput(MODEL_GFLOPS["resnet-152"]),
        imagenet_top1=0.783,
    ),
    "mobilenet-ssd": ModelProfile(
        name="mobilenet-ssd",
        gflops=MODEL_GFLOPS["mobilenet-ssd"],
        t4_throughput=cal.MOBILENET_SSD_T4_THROUGHPUT,
        imagenet_top1=None,
        input_size=300,
    ),
    "mask-rcnn": ModelProfile(
        name="mask-rcnn",
        gflops=MODEL_GFLOPS["mask-rcnn"],
        t4_throughput=4.0,
        imagenet_top1=None,
        input_size=800,
    ),
}


def get_model_profile(name: str) -> ModelProfile:
    """Look up a calibrated profile by name (e.g. ``"resnet-50"``)."""
    key = name.lower()
    if key not in _PROFILES:
        raise ModelError(
            f"unknown model {name!r}; known models: {sorted(_PROFILES)}"
        )
    return _PROFILES[key]


def resnet_profile(depth: int) -> ModelProfile:
    """Convenience lookup for standard ResNet depths (18, 34, 50, 101, 152)."""
    return get_model_profile(f"resnet-{depth}")


def imagenet_accuracy(depth: int, input_format: str = "full",
                      training: str = "regular") -> float:
    """ImageNet top-1 accuracy by depth, input format, and training procedure.

    For (format, depth, training) combinations measured in Table 7, the
    calibrated value is returned directly.  Other depths fall back to the
    Table 2 full-resolution accuracy, adjusted by the same relative penalty
    Table 7 reports for ResNet-34 under that format/training combination.
    """
    key = (input_format, depth, training)
    if key in cal.TABLE7_ACCURACY:
        return cal.TABLE7_ACCURACY[key]
    if depth not in cal.RESNET_IMAGENET_TOP1:
        raise ModelError(f"no ImageNet accuracy calibration for depth {depth}")
    base = cal.RESNET_IMAGENET_TOP1[depth]
    if input_format == "full" and training == "regular":
        return base
    reference_key = (input_format, 34, training)
    if reference_key not in cal.TABLE7_ACCURACY:
        raise ModelError(
            f"no calibration for format {input_format!r} training {training!r}"
        )
    penalty = cal.TABLE7_ACCURACY[("full", 34, "regular")] - cal.TABLE7_ACCURACY[
        reference_key
    ]
    return max(0.0, base - penalty)
