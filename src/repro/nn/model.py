"""Model containers: Sequential graphs and mini-ResNet builders.

The mini-ResNets mirror the depth scaling of the paper's standard ResNets
(18/34/50) at a scale that is trainable in numpy on the synthetic datasets:
deeper variants stack more convolutional stages and are both slower and more
accurate, which is the property the planner exploits.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass

import numpy as np

from repro.errors import ModelError
from repro.nn.layers import (
    BatchNorm2d,
    Conv2d,
    GlobalAvgPool2d,
    Layer,
    Linear,
    MaxPool2d,
    ReLU,
    softmax,
)
from repro.nn.plan import Arena


class Sequential:
    """A sequential stack of layers with forward/backward and prediction.

    Inference (``training=False``: ``predict``, ``predict_proba``) runs the
    ahead-of-time plan of :mod:`repro.nn.plan` in float32: each thread that
    calls it owns one arena on this model, sized for the largest batch that
    thread has sent, and the input is cast into it (``same_kind``: float64
    narrows, integers widen, complex is a :class:`ModelError`).  Training
    runs the layers' allocating ``forward`` in the input's own dtype.
    """

    def __init__(self, layers: list[Layer], name: str = "model",
                 input_shape: tuple[int, int, int] = (3, 32, 32)) -> None:
        if not layers:
            raise ModelError("a model needs at least one layer")
        self.layers = layers
        self.name = name
        self.input_shape = input_shape
        self._arenas = threading.local()

    def __getstate__(self) -> dict:
        # Arenas are per-thread scratch; a copy of the model builds its own.
        return {k: v for k, v in self.__dict__.items() if k != "_arenas"}

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self._arenas = threading.local()

    def forward(self, inputs: np.ndarray, training: bool = False) -> np.ndarray:
        """Run the full forward pass, returning logits."""
        if training:
            activations = inputs
            for layer in self.layers:
                activations = layer.forward(activations, training=True)
            return activations
        if inputs.ndim < 1:
            raise ModelError("model inputs need a batch axis")
        arena = getattr(self._arenas, "arena", None)
        if arena is None or not arena.fits(self.layers, inputs.shape):
            # Dropped before the rebuild so the two are never held at once.
            self._arenas.arena = arena = None
            arena = self._arenas.arena = Arena(
                self.layers, inputs.shape[1:], inputs.shape[0])
        return arena.run(inputs)

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        """Backpropagate through all layers (after a training forward pass)."""
        grad = grad_output
        for layer in reversed(self.layers):
            grad = layer.backward(grad)
        return grad

    def predict(self, inputs: np.ndarray) -> np.ndarray:
        """Return predicted class indices."""
        return self.forward(inputs, training=False).argmax(axis=1)

    def predict_proba(self, inputs: np.ndarray) -> np.ndarray:
        """Return class probabilities."""
        return softmax(self.forward(inputs, training=False))

    def parameters(self) -> list[tuple[Layer, str, np.ndarray, np.ndarray]]:
        """Flat list of (layer, name, param, grad) tuples for the optimizer."""
        flat = []
        for layer in self.layers:
            params = layer.params()
            grads = layer.grads()
            for key, value in params.items():
                flat.append((layer, key, value, grads[key]))
        return flat

    @property
    def num_parameters(self) -> int:
        """Total trainable parameter count."""
        return sum(layer.num_parameters for layer in self.layers)

    def flops(self, input_shape: tuple[int, int, int] | None = None) -> float:
        """Approximate multiply-add count for one input example."""
        shape = input_shape or self.input_shape
        total = 0.0
        for layer in self.layers:
            total += layer.flops(shape)
            shape = layer.output_shape(shape)
        return total

    def state_dict(self) -> dict[str, np.ndarray]:
        """Copy of all parameters keyed by ``layer_index.param_name``."""
        state = {}
        for index, layer in enumerate(self.layers):
            for key, value in layer.params().items():
                state[f"{index}.{key}"] = value.copy()
        return state

    def load_state_dict(self, state: dict[str, np.ndarray]) -> None:
        """Load parameters saved by :meth:`state_dict` (in-place)."""
        for index, layer in enumerate(self.layers):
            for key, value in layer.params().items():
                saved = state.get(f"{index}.{key}")
                if saved is None:
                    raise ModelError(f"missing parameter {index}.{key} in state dict")
                if saved.shape != value.shape:
                    raise ModelError(
                        f"shape mismatch for {index}.{key}: "
                        f"{saved.shape} vs {value.shape}"
                    )
                value[...] = saved


@dataclass(frozen=True)
class MiniConvNet:
    """Descriptor of a mini convolutional network configuration."""

    name: str
    stage_channels: tuple[int, ...]
    blocks_per_stage: int
    num_classes: int
    input_size: int = 32

    @property
    def approx_depth(self) -> int:
        """Number of convolutional layers (the "depth" analogue)."""
        return len(self.stage_channels) * self.blocks_per_stage + 1


def build_mini_resnet(depth: int, num_classes: int, input_size: int = 32,
                      seed: int = 0) -> Sequential:
    """Build a mini-ResNet-style convnet whose cost scales with ``depth``.

    ``depth`` follows the paper's naming (18, 34, 50): larger depths use more
    stages/filters.  Depths outside the standard set are also accepted to
    support specialized-NN families.
    """
    if depth <= 0:
        raise ModelError("depth must be positive")
    if num_classes <= 1:
        raise ModelError("num_classes must be at least 2")
    if input_size < 8:
        raise ModelError("input_size must be at least 8 pixels")
    # Map depth to (stage widths, blocks per stage): deeper = wider + more blocks.
    if depth < 18:
        stage_channels: tuple[int, ...] = (8, 16)
        blocks = 1
    elif depth < 34:
        stage_channels = (16, 32)
        blocks = 1
    elif depth < 50:
        stage_channels = (16, 32, 64)
        blocks = 1
    else:
        stage_channels = (16, 32, 64)
        blocks = 2
    layers: list[Layer] = []
    in_channels = 3
    layer_seed = seed
    for stage_index, channels in enumerate(stage_channels):
        for block in range(blocks):
            layers.append(
                Conv2d(in_channels, channels, kernel_size=3, stride=1, padding=1,
                       seed=layer_seed)
            )
            layer_seed += 1
            layers.append(BatchNorm2d(channels))
            layers.append(ReLU())
            in_channels = channels
        layers.append(MaxPool2d(kernel_size=2))
    layers.append(GlobalAvgPool2d())
    layers.append(Linear(in_channels, num_classes, seed=layer_seed))
    model = Sequential(
        layers,
        name=f"mini-resnet-{depth}",
        input_shape=(3, input_size, input_size),
    )
    return model


def evaluate_accuracy(model: Sequential, images: np.ndarray,
                      labels: np.ndarray, batch_size: int = 64) -> float:
    """Top-1 accuracy of ``model`` on a labelled array dataset."""
    if images.shape[0] != labels.shape[0]:
        raise ModelError("images and labels must have matching lengths")
    correct = 0
    for start in range(0, images.shape[0], batch_size):
        batch = images[start:start + batch_size]
        predicted = model.predict(batch)
        correct += int((predicted == labels[start:start + batch_size]).sum())
    return correct / images.shape[0] if images.shape[0] else 0.0
