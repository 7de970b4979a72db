"""Neural-network layers with numpy forward and backward passes.

The layers follow a minimal Layer protocol: ``forward`` caches what the
backward pass needs, ``backward`` returns the gradient with respect to the
input and accumulates parameter gradients, and ``params``/``grads`` expose
parameter tensors to the optimizer.

One arithmetic per layer.  A layer that says ``planned = True`` writes its
inference arithmetic once, in :meth:`Layer.step`, against arrays the caller
provides; :mod:`repro.nn.plan` hands it views of a per-thread arena, and the
layer's own allocating ``forward`` (training, and the tests' oracle) hands
the same code fresh arrays.  Convolution is im2col into a scratch array
followed by one BLAS GEMM (:mod:`repro.nn.blas`).  Steps read parameters and
running statistics from the layer each time they run, never from captured
copies: training rebinds them and ``load_state_dict`` writes them in place.
"""

from __future__ import annotations

import functools
from typing import Callable

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from repro.errors import ModelError
from repro.nn import blas


class Layer:
    """Base class for layers: forward/backward plus parameter access."""

    #: The class implements :meth:`step`.  The inference plan runs any other
    #: layer by calling its ``forward``.  A subclass that overrides
    #: ``forward`` without declaring ``planned`` again is reset to ``False``,
    #: because the ``step`` it inherits would bypass the override.
    planned = False
    #: ``step`` may be given the same array as ``source`` and ``out``.
    in_place = False
    #: ``step`` needs a C-contiguous ``out`` (a GEMM writes it).
    dense_out = False
    #: Zeros ``step`` needs around each spatial side of its input; when
    #: positive, ``source`` is the whole bordered buffer.
    border = 0

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        if "forward" in cls.__dict__ and "planned" not in cls.__dict__:
            cls.planned = False

    def forward(self, inputs: np.ndarray, training: bool = False) -> np.ndarray:
        """Compute the layer output for ``inputs`` (NCHW or NC)."""
        raise NotImplementedError

    def step(self, source: np.ndarray, out: np.ndarray,
             scratch: np.ndarray | None = None) -> Callable[[], None]:
        """A callable computing this layer's inference output into ``out``.

        ``source`` and ``out`` are whole-batch arrays whose views are made
        here, once; the callable allocates nothing batch-sized.  A layer
        that declares a :meth:`scratch_shape` gets ``scratch`` of shape
        ``(chunk, *scratch_shape)`` and works through the batch ``chunk``
        examples at a time.
        """
        raise NotImplementedError

    def scratch_shape(self, input_shape: tuple[int, ...]) -> tuple[int, ...] | None:
        """Per-example shape of the scratch ``step`` needs, if any."""
        return None

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        """Backpropagate ``grad_output``; returns gradient w.r.t. the input."""
        raise NotImplementedError

    def params(self) -> dict[str, np.ndarray]:
        """Trainable parameter tensors keyed by name."""
        return {}

    def grads(self) -> dict[str, np.ndarray]:
        """Gradients matching :meth:`params` keys."""
        return {}

    @property
    def num_parameters(self) -> int:
        """Total number of trainable scalars."""
        return sum(int(p.size) for p in self.params().values())

    def flops(self, input_shape: tuple[int, ...]) -> float:
        """Approximate multiply-add count for one example of ``input_shape``."""
        return 0.0

    def output_shape(self, input_shape: tuple[int, ...]) -> tuple[int, ...]:
        """Shape (excluding batch) produced for an input of ``input_shape``.

        Raises :class:`ModelError` when the layer cannot take that input;
        ``forward`` and the plan compiler both validate through it.
        """
        return input_shape


def _windows(source: np.ndarray, kernel: int, stride: int) -> np.ndarray:
    """Every window of NCHW ``source`` as a read-only strided view.

    Shape ``(N, C, kernel, kernel, out_h, out_w)``: entry ``[..., ky, kx, y,
    x]`` is ``source[..., y * stride + ky, x * stride + kx]``.
    """
    windows = sliding_window_view(source, (kernel, kernel), axis=(2, 3))
    return windows[:, :, ::stride, ::stride].transpose(0, 1, 4, 5, 2, 3)


def _col2im(cols: np.ndarray, input_shape: tuple[int, int, int, int],
            kernel: int, stride: int, padding: int) -> np.ndarray:
    """Fold columns back to the input shape (adjoint of the im2col copy)."""
    batch, channels, height, width = input_shape
    out_h = (height + 2 * padding - kernel) // stride + 1
    out_w = (width + 2 * padding - kernel) // stride + 1
    cols = cols.reshape(batch, channels, kernel, kernel, out_h, out_w)
    padded = np.zeros((batch, channels, height + 2 * padding, width + 2 * padding),
                      dtype=cols.dtype)
    for ky in range(kernel):
        y_end = ky + stride * out_h
        for kx in range(kernel):
            x_end = kx + stride * out_w
            padded[:, :, ky:y_end:stride, kx:x_end:stride] += cols[:, :, ky, kx]
    if padding:
        return padded[:, :, padding:-padding, padding:-padding]
    return padded


class Conv2d(Layer):
    """2-D convolution (NCHW) with He-normal initialization."""

    planned = True
    dense_out = True

    def __init__(self, in_channels: int, out_channels: int, kernel_size: int = 3,
                 stride: int = 1, padding: int = 1, seed: int = 0) -> None:
        if min(in_channels, out_channels, kernel_size, stride) <= 0 or padding < 0:
            raise ModelError("invalid convolution hyperparameters")
        self.in_channels = in_channels
        self.out_channels = out_channels
        self.kernel_size = kernel_size
        self.stride = stride
        self.padding = padding
        rng = np.random.default_rng(seed)
        fan_in = in_channels * kernel_size * kernel_size
        self.weight = rng.normal(
            0.0, np.sqrt(2.0 / fan_in),
            size=(out_channels, in_channels, kernel_size, kernel_size),
        ).astype(np.float32)
        self.bias = np.zeros(out_channels, dtype=np.float32)
        self.weight_grad = np.zeros_like(self.weight)
        self.bias_grad = np.zeros_like(self.bias)
        self._cache: tuple | None = None

    @property
    def border(self) -> int:
        """The zero padding: the plan keeps it as a persistent border."""
        return self.padding

    def step(self, source: np.ndarray, out: np.ndarray,
             scratch: np.ndarray | None = None) -> Callable[[], None]:
        """Per chunk: im2col as one strided copy, one GEMM, the bias.

        ``source`` is the zero-bordered input and ``scratch`` holds one
        chunk's columns.  Every example is its own GEMM whatever the chunk,
        so the chunk changes where the columns live, never a result.
        """
        batch, _, out_h, out_w = out.shape
        k, chunk = self.kernel_size, scratch.shape[0]
        windows = _windows(source, k, self.stride)
        flat = out.reshape(batch, self.out_channels, out_h * out_w)
        chunks = []
        for start in range(0, batch, max(1, chunk)):
            stop = min(start + chunk, batch)
            columns = scratch[:stop - start]
            unfolded = columns.reshape(-1, self.in_channels, k, k, out_h, out_w)
            chunks.append((unfolded, windows[start:stop], columns,
                           flat[start:stop]))

        def run() -> None:
            weight = self.weight.reshape(self.out_channels, -1)
            bias = self.bias[:, None]
            for unfolded, window, columns, result in chunks:
                np.copyto(unfolded, window)
                blas.gemm(weight, columns, result)
                np.add(result, bias, out=result)

        return run

    def forward(self, inputs: np.ndarray, training: bool = False) -> np.ndarray:
        out_shape = self.output_shape(inputs.shape[1:])
        batch, pad = inputs.shape[0], self.padding
        source = inputs
        if pad:
            source = np.zeros(
                inputs.shape[:2] + (inputs.shape[2] + 2 * pad,
                                    inputs.shape[3] + 2 * pad),
                dtype=inputs.dtype)
            source[:, :, pad:-pad, pad:-pad] = inputs
        cols = np.empty((batch, *self.scratch_shape(inputs.shape[1:])),
                        dtype=inputs.dtype)
        out = np.empty((batch, *out_shape),
                       dtype=np.result_type(inputs.dtype, self.weight.dtype))
        self.step(source, out, cols)()
        if training:
            self._cache = (inputs.shape, cols)
        return out

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        if self._cache is None:
            raise ModelError("backward called before a training forward pass")
        input_shape, cols = self._cache
        batch = grad_output.shape[0]
        grad_flat = grad_output.reshape(batch, self.out_channels, -1)
        weight_matrix = self.weight.reshape(self.out_channels, -1)
        self.weight_grad[...] = np.einsum(
            "bop,bfp->of", grad_flat, cols
        ).reshape(self.weight.shape) / batch
        self.bias_grad[...] = grad_flat.sum(axis=(0, 2)) / batch
        grad_cols = np.einsum("of,bop->bfp", weight_matrix, grad_flat)
        return _col2im(grad_cols, input_shape, self.kernel_size, self.stride,
                       self.padding)

    def params(self) -> dict[str, np.ndarray]:
        return {"weight": self.weight, "bias": self.bias}

    def grads(self) -> dict[str, np.ndarray]:
        return {"weight": self.weight_grad, "bias": self.bias_grad}

    def output_shape(self, input_shape: tuple[int, ...]) -> tuple[int, ...]:
        if len(input_shape) != 3 or input_shape[0] != self.in_channels:
            raise ModelError(
                f"Conv2d expected (C={self.in_channels}, H, W) per example, "
                f"got {tuple(input_shape)}"
            )
        _, height, width = input_shape
        out_h = (height + 2 * self.padding - self.kernel_size) // self.stride + 1
        out_w = (width + 2 * self.padding - self.kernel_size) // self.stride + 1
        if out_h <= 0 or out_w <= 0:
            raise ModelError(
                f"convolution output would be empty for input {tuple(input_shape)}"
            )
        return (self.out_channels, out_h, out_w)

    def scratch_shape(self, input_shape: tuple[int, ...]) -> tuple[int, ...]:
        _, out_h, out_w = self.output_shape(input_shape)
        return (self.in_channels * self.kernel_size ** 2, out_h * out_w)

    def flops(self, input_shape: tuple[int, ...]) -> float:
        _, out_h, out_w = self.output_shape(input_shape)
        per_output = self.in_channels * self.kernel_size * self.kernel_size
        return 2.0 * per_output * self.out_channels * out_h * out_w


class Linear(Layer):
    """Fully connected layer."""

    planned = True
    dense_out = True

    def __init__(self, in_features: int, out_features: int, seed: int = 0) -> None:
        if in_features <= 0 or out_features <= 0:
            raise ModelError("invalid linear layer dimensions")
        rng = np.random.default_rng(seed)
        self.in_features = in_features
        self.out_features = out_features
        self.weight = rng.normal(
            0.0, np.sqrt(2.0 / in_features), size=(out_features, in_features)
        ).astype(np.float32)
        self.bias = np.zeros(out_features, dtype=np.float32)
        self.weight_grad = np.zeros_like(self.weight)
        self.bias_grad = np.zeros_like(self.bias)
        self._inputs: np.ndarray | None = None

    def step(self, source: np.ndarray, out: np.ndarray,
             scratch: np.ndarray | None = None) -> Callable[[], None]:
        def run() -> None:
            blas.gemm(source, self.weight.T, out)
            np.add(out, self.bias, out=out)

        return run

    def forward(self, inputs: np.ndarray, training: bool = False) -> np.ndarray:
        out_shape = self.output_shape(inputs.shape[1:])
        if training:
            self._inputs = inputs
        out = np.empty((inputs.shape[0], *out_shape),
                       dtype=np.result_type(inputs.dtype, self.weight.dtype))
        self.step(inputs, out)()
        return out

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        if self._inputs is None:
            raise ModelError("backward called before a training forward pass")
        batch = grad_output.shape[0]
        self.weight_grad[...] = grad_output.T @ self._inputs / batch
        self.bias_grad[...] = grad_output.mean(axis=0)
        return grad_output @ self.weight

    def params(self) -> dict[str, np.ndarray]:
        return {"weight": self.weight, "bias": self.bias}

    def grads(self) -> dict[str, np.ndarray]:
        return {"weight": self.weight_grad, "bias": self.bias_grad}

    def output_shape(self, input_shape: tuple[int, ...]) -> tuple[int, ...]:
        if tuple(input_shape) != (self.in_features,):
            raise ModelError(
                f"Linear expected ({self.in_features},) per example, "
                f"got {tuple(input_shape)}"
            )
        return (self.out_features,)

    def flops(self, input_shape: tuple[int, ...]) -> float:
        return 2.0 * self.in_features * self.out_features


class ReLU(Layer):
    """Rectified linear activation."""

    planned = True
    in_place = True

    def __init__(self) -> None:
        self._mask: np.ndarray | None = None

    def step(self, source: np.ndarray, out: np.ndarray,
             scratch: np.ndarray | None = None) -> Callable[[], None]:
        return functools.partial(np.maximum, source, 0.0, out=out)

    def forward(self, inputs: np.ndarray, training: bool = False) -> np.ndarray:
        if training:
            self._mask = inputs > 0
        out = np.empty(inputs.shape, dtype=np.result_type(inputs.dtype, 0.0))
        self.step(inputs, out)()
        return out

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        if self._mask is None:
            raise ModelError("backward called before a training forward pass")
        return grad_output * self._mask

    def flops(self, input_shape: tuple[int, ...]) -> float:
        return float(np.prod(input_shape))


class BatchNorm2d(Layer):
    """Batch normalization over NCHW activations."""

    planned = True
    in_place = True

    def __init__(self, num_features: int, momentum: float = 0.9,
                 eps: float = 1e-5) -> None:
        if num_features <= 0:
            raise ModelError("num_features must be positive")
        self.num_features = num_features
        self.momentum = momentum
        self.eps = eps
        self.gamma = np.ones(num_features, dtype=np.float32)
        self.beta = np.zeros(num_features, dtype=np.float32)
        self.gamma_grad = np.zeros_like(self.gamma)
        self.beta_grad = np.zeros_like(self.beta)
        self.running_mean = np.zeros(num_features, dtype=np.float32)
        self.running_var = np.ones(num_features, dtype=np.float32)
        self._cache: tuple | None = None

    def _normalize(self, inputs: np.ndarray, mean: np.ndarray, var: np.ndarray,
                   out: np.ndarray) -> np.ndarray:
        """``(inputs - mean) / std`` per channel into ``out``; returns 1/std."""
        inv_std = 1.0 / np.sqrt(var + self.eps)
        np.subtract(inputs, mean[:, None, None], out=out)
        np.multiply(out, inv_std[:, None, None], out=out)
        return inv_std

    def _affine(self, normalized: np.ndarray, out: np.ndarray) -> None:
        """``gamma * normalized + beta`` per channel into ``out``."""
        np.multiply(normalized, self.gamma[:, None, None], out=out)
        np.add(out, self.beta[:, None, None], out=out)

    def step(self, source: np.ndarray, out: np.ndarray,
             scratch: np.ndarray | None = None) -> Callable[[], None]:
        def run() -> None:
            self._normalize(source, self.running_mean, self.running_var, out)
            self._affine(out, out)

        return run

    def forward(self, inputs: np.ndarray, training: bool = False) -> np.ndarray:
        self.output_shape(inputs.shape[1:])
        out = np.empty(inputs.shape,
                       dtype=np.result_type(inputs.dtype, self.gamma.dtype))
        if not training:
            self.step(inputs, out)()
            return out
        mean = inputs.mean(axis=(0, 2, 3))
        var = inputs.var(axis=(0, 2, 3))
        self.running_mean = (
            self.momentum * self.running_mean + (1 - self.momentum) * mean
        )
        self.running_var = (
            self.momentum * self.running_var + (1 - self.momentum) * var
        )
        normalized = np.empty_like(out)
        inv_std = self._normalize(inputs, mean, var, normalized)
        self._cache = (normalized, inv_std)
        self._affine(normalized, out)
        return out

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        if self._cache is None:
            raise ModelError("backward called before a training forward pass")
        normalized, inv_std = self._cache
        count = grad_output.shape[0] * grad_output.shape[2] * grad_output.shape[3]
        self.gamma_grad[...] = (grad_output * normalized).sum(axis=(0, 2, 3)) / count
        self.beta_grad[...] = grad_output.sum(axis=(0, 2, 3)) / count
        grad_norm = grad_output * self.gamma[None, :, None, None]
        mean_grad = grad_norm.mean(axis=(0, 2, 3), keepdims=True)
        mean_grad_norm = (grad_norm * normalized).mean(axis=(0, 2, 3), keepdims=True)
        return (
            (grad_norm - mean_grad - normalized * mean_grad_norm)
            * inv_std[None, :, None, None]
        )

    def params(self) -> dict[str, np.ndarray]:
        return {"gamma": self.gamma, "beta": self.beta}

    def grads(self) -> dict[str, np.ndarray]:
        return {"gamma": self.gamma_grad, "beta": self.beta_grad}

    def output_shape(self, input_shape: tuple[int, ...]) -> tuple[int, ...]:
        if len(input_shape) != 3 or input_shape[0] != self.num_features:
            raise ModelError(
                f"BatchNorm2d expected (C={self.num_features}, H, W) per "
                f"example, got {tuple(input_shape)}"
            )
        return tuple(input_shape)

    def flops(self, input_shape: tuple[int, ...]) -> float:
        return 2.0 * float(np.prod(input_shape))


class MaxPool2d(Layer):
    """Max pooling with a square window."""

    planned = True

    def __init__(self, kernel_size: int = 2, stride: int | None = None) -> None:
        if kernel_size <= 0:
            raise ModelError("kernel_size must be positive")
        self.kernel_size = kernel_size
        self.stride = stride or kernel_size
        self._cache: tuple | None = None

    def step(self, source: np.ndarray, out: np.ndarray,
             scratch: np.ndarray | None = None) -> Callable[[], None]:
        """A running maximum over the ``k**2`` window taps of ``source``."""
        k = self.kernel_size
        windows = _windows(source, k, self.stride)
        first, *rest = (windows[:, :, ky, kx]
                        for ky in range(k) for kx in range(k))

        def run() -> None:
            np.maximum(first, rest[0] if rest else first, out=out)
            for window in rest[1:]:
                np.maximum(out, window, out=out)

        return run

    def forward(self, inputs: np.ndarray, training: bool = False) -> np.ndarray:
        out_shape = self.output_shape(inputs.shape[1:])
        out = np.empty((inputs.shape[0], *out_shape), dtype=inputs.dtype)
        self.step(inputs, out)()
        if training:
            k = self.kernel_size
            taps = _windows(inputs, k, self.stride).reshape(
                *inputs.shape[:2], k * k, *out_shape[1:])
            self._cache = (inputs.shape, taps.argmax(axis=2))
        return out

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        if self._cache is None:
            raise ModelError("backward called before a training forward pass")
        input_shape, argmax = self._cache
        k, s = self.kernel_size, self.stride
        grad_input = np.zeros(input_shape, dtype=grad_output.dtype)
        batch, channels, out_h, out_w = grad_output.shape
        ky = argmax // k
        kx = argmax % k
        rows = (np.arange(out_h)[None, None, :, None] * s) + ky
        cols = (np.arange(out_w)[None, None, None, :] * s) + kx
        b_idx = np.arange(batch)[:, None, None, None]
        c_idx = np.arange(channels)[None, :, None, None]
        np.add.at(grad_input, (b_idx, c_idx, rows, cols), grad_output)
        return grad_input

    def output_shape(self, input_shape: tuple[int, ...]) -> tuple[int, ...]:
        if len(input_shape) != 3:
            raise ModelError(
                f"MaxPool2d expected (C, H, W) per example, "
                f"got {tuple(input_shape)}"
            )
        channels, height, width = input_shape
        out_h = (height - self.kernel_size) // self.stride + 1
        out_w = (width - self.kernel_size) // self.stride + 1
        if out_h <= 0 or out_w <= 0:
            raise ModelError(
                f"a {self.kernel_size}x{self.kernel_size} pooling window does "
                f"not fit input {tuple(input_shape)}"
            )
        return (channels, out_h, out_w)

    def flops(self, input_shape: tuple[int, ...]) -> float:
        return float(np.prod(input_shape))


class GlobalAvgPool2d(Layer):
    """Average pooling over the full spatial extent, producing (N, C)."""

    planned = True

    def __init__(self) -> None:
        self._input_shape: tuple[int, ...] | None = None

    def step(self, source: np.ndarray, out: np.ndarray,
             scratch: np.ndarray | None = None) -> Callable[[], None]:
        return functools.partial(np.mean, source, axis=(2, 3), out=out)

    def forward(self, inputs: np.ndarray, training: bool = False) -> np.ndarray:
        out_shape = self.output_shape(inputs.shape[1:])
        if training:
            self._input_shape = inputs.shape
        out = np.empty((inputs.shape[0], *out_shape),
                       dtype=np.result_type(inputs.dtype, np.float32))
        self.step(inputs, out)()
        return out

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        if self._input_shape is None:
            raise ModelError("backward called before a training forward pass")
        _, _, height, width = self._input_shape
        scale = 1.0 / (height * width)
        return np.broadcast_to(
            grad_output[:, :, None, None] * scale, self._input_shape
        ).copy()

    def output_shape(self, input_shape: tuple[int, ...]) -> tuple[int, ...]:
        if len(input_shape) != 3:
            raise ModelError(
                f"GlobalAvgPool2d expected (C, H, W) per example, "
                f"got {tuple(input_shape)}"
            )
        return (input_shape[0],)

    def flops(self, input_shape: tuple[int, ...]) -> float:
        return float(np.prod(input_shape))


class Flatten(Layer):
    """Flatten all dimensions except the batch dimension.

    Not ``planned``: its ``forward`` is a reshape, which the plan runs as it
    runs any layer that brings no ``step`` of its own.
    """

    def __init__(self) -> None:
        self._input_shape: tuple[int, ...] | None = None

    def forward(self, inputs: np.ndarray, training: bool = False) -> np.ndarray:
        if training:
            self._input_shape = inputs.shape
        return inputs.reshape(inputs.shape[0], -1)

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        if self._input_shape is None:
            raise ModelError("backward called before a training forward pass")
        return grad_output.reshape(self._input_shape)

    def output_shape(self, input_shape: tuple[int, ...]) -> tuple[int, ...]:
        return (int(np.prod(input_shape)),)


def softmax(logits: np.ndarray) -> np.ndarray:
    """Numerically stable softmax over the last axis."""
    shifted = logits - logits.max(axis=-1, keepdims=True)
    exp = np.exp(shifted)
    return exp / exp.sum(axis=-1, keepdims=True)


def cross_entropy_loss(logits: np.ndarray,
                       labels: np.ndarray) -> tuple[float, np.ndarray]:
    """Mean cross-entropy loss and its gradient w.r.t. the logits."""
    if logits.ndim != 2:
        raise ModelError("logits must be (N, num_classes)")
    if labels.ndim != 1 or labels.shape[0] != logits.shape[0]:
        raise ModelError("labels must be a vector matching the batch size")
    probs = softmax(logits)
    batch = logits.shape[0]
    clipped = np.clip(probs[np.arange(batch), labels], 1e-12, None)
    loss = float(-np.log(clipped).mean())
    grad = probs.copy()
    grad[np.arange(batch), labels] -= 1.0
    return loss, grad
