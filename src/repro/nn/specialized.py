"""Specialized (proxy) neural networks used by prior visual analytics systems.

NoScope, BlazeIt and Tahoma train small, cheap networks that approximate a
large target DNN for a specific query (e.g. "is there a car in this frame?").
Tahoma considers a family of 24 such architectures of varying width and depth;
BlazeIt uses one "tiny ResNet".  This module provides a parametric family of
such models: each member is a small convnet descriptor with a
trainable numpy implementation and an analytic throughput profile derived from
its FLOPs relative to the calibrated ResNet anchors.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ModelError
from repro.hardware.devices import GpuSpec
from repro.nn.model import Sequential, build_mini_resnet


@dataclass(frozen=True)
class SpecializedNN:
    """Descriptor of one specialized NN architecture.

    Attributes
    ----------
    name:
        Architecture name, e.g. ``"specialized-w16-d4"``.
    width:
        Base channel width; doubling the width roughly quadruples FLOPs.
    depth:
        Number of convolutional layers.
    gflops_224:
        Estimated GFLOPs per image at the standard 224x224 input.
    accuracy_factor:
        Relative accuracy factor in (0, 1]: the fraction of the target DNN's
        "distinguishing power" this proxy retains.  Used by the calibrated
        accuracy model; the trainable path measures accuracy directly.
    """

    name: str
    width: int
    depth: int
    gflops_224: float
    accuracy_factor: float

    def __post_init__(self) -> None:
        if self.width <= 0 or self.depth <= 0:
            raise ModelError("width and depth must be positive")
        if self.gflops_224 <= 0:
            raise ModelError("gflops must be positive")
        if not 0 < self.accuracy_factor <= 1.0:
            raise ModelError("accuracy_factor must be in (0, 1]")

    def throughput_on(self, gpu: GpuSpec, backend_efficiency: float = 1.0) -> float:
        """Images/second on ``gpu``.

        Tiny networks cannot saturate an accelerator; the utilization factor
        decays with how far below ~1 GFLOP the model falls, and throughput is
        additionally capped at 250k images/second, the ceiling the paper
        quotes for the specialized NNs prior systems use.
        """
        utilization = min(1.0, 0.25 + 0.75 * min(1.0, self.gflops_224 / 1.0))
        raw = gpu.throughput_for_gflops(self.gflops_224, utilization=utilization)
        return min(250_000.0, raw * backend_efficiency)

    def build_trainable(self, num_classes: int, input_size: int = 32,
                        seed: int = 0) -> Sequential:
        """Build a trainable numpy model matching this descriptor's scale."""
        # Map the (width, depth) family onto the mini-ResNet builder's depth
        # parameter: small proxies use the sub-18 configuration.
        pseudo_depth = min(17, max(2, self.depth * 2))
        model = build_mini_resnet(pseudo_depth, num_classes=num_classes,
                                  input_size=input_size, seed=seed)
        model.name = self.name
        return model


def make_specialized_family(count: int = 8) -> list[SpecializedNN]:
    """Create a representative family of specialized NNs (Tahoma-style).

    The family sweeps width and depth; FLOPs grow with both, and the accuracy
    factor saturates toward 1.0 for the largest members.  Eight members is the
    representative subset the paper evaluates against (Section 8.1).
    """
    if count <= 0:
        raise ModelError("count must be positive")
    widths = [8, 16, 32, 64]
    depths = [2, 4]
    family: list[SpecializedNN] = []
    for depth in depths:
        for width in widths:
            gflops = (width / 64.0) ** 2 * (depth / 4.0) * 0.35
            accuracy_factor = min(1.0, 0.55 + 0.09 * len(family))
            family.append(
                SpecializedNN(
                    name=f"specialized-w{width}-d{depth}",
                    width=width,
                    depth=depth,
                    gflops_224=max(gflops, 0.002),
                    accuracy_factor=accuracy_factor,
                )
            )
            if len(family) >= count:
                return family
    return family


def tiny_resnet() -> SpecializedNN:
    """The single "tiny ResNet" specialized NN used by BlazeIt."""
    return SpecializedNN(
        name="tiny-resnet",
        width=16,
        depth=4,
        gflops_224=0.05,
        accuracy_factor=0.75,
    )
