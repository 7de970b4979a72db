"""Executable preprocessing operators.

Each operator transforms a numpy tensor and exposes enough metadata for the
DAG optimizer: the shape/dtype it produces, whether it can be fused with its
neighbours, and how many arithmetic operations it performs (the cost proxy
Smol uses for cost-based plan selection, Section 6.2).

Operators run on real arrays so the functional tests and the accuracy
experiments exercise genuine computation; the performance models separately
charge calibrated per-operation costs.

Each operator's arithmetic is written once, over leading axes: ``apply``
indexes the image axes from the end (``(..., H, W, C)``), so one HWC image
and an NHWC micro-batch execute the same lines and every image of a batch
gets exactly the bytes it would get alone.  An operator says so with
``batched = True``; :class:`~repro.fuse.kernel.FusedKernel` hands such ops
whole batches and loops every other op per image.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np

from repro.errors import PreprocessingError

# ImageNet normalization constants (mean/std in [0, 1] units), the standard
# per-channel values the paper's step (3) refers to.
IMAGENET_MEAN = np.array([0.485, 0.456, 0.406], dtype=np.float32)
IMAGENET_STD = np.array([0.229, 0.224, 0.225], dtype=np.float32)


@dataclass(frozen=True)
class TensorSpec:
    """Shape and dtype of an intermediate tensor in the pipeline."""

    height: int
    width: int
    channels: int
    dtype: str = "uint8"
    layout: str = "HWC"

    @property
    def pixels(self) -> int:
        """Number of pixels in the tensor."""
        return self.height * self.width

    @property
    def elements(self) -> int:
        """Number of scalar elements in the tensor."""
        return self.height * self.width * self.channels

    @property
    def bytes_per_element(self) -> int:
        """Size in bytes of one element."""
        return {"uint8": 1, "float16": 2, "float32": 4}.get(self.dtype, 4)

    @property
    def nbytes(self) -> int:
        """Total size of the tensor in bytes."""
        return self.elements * self.bytes_per_element


class PreprocessingOp:
    """Base class for preprocessing operators."""

    #: Short stable identifier used by the DAG and the cost model.
    name: str = "op"
    #: True when the op only changes element values, not shape/layout, and so
    #: can be reordered freely within the pipeline (paper rule 1).
    value_only: bool = False
    #: True when the op may be fused with adjacent value-only ops (rule 2).
    fusable: bool = False
    #: True when ``apply`` treats every axis before ``(H, W, C)`` as a batch
    #: axis and gives each image of a batch the bytes it would get alone.
    #: A property of the ``apply`` code, so it is declared per class.
    batched: bool = False

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        # A new ``apply`` body is per-image until its class says otherwise:
        # the declaration must not be inherited past the code it describes.
        if "apply" in cls.__dict__ and "batched" not in cls.__dict__:
            cls.batched = False

    def apply(self, array: np.ndarray) -> np.ndarray:
        """Execute the operator on ``array`` (an image, or a batch of
        same-shape images when the class declares ``batched``)."""
        raise NotImplementedError

    def output_spec(self, spec: TensorSpec) -> TensorSpec:
        """Return the tensor spec after applying this op to ``spec``."""
        raise NotImplementedError

    def arithmetic_ops(self, spec: TensorSpec) -> float:
        """Estimated arithmetic operations to apply this op to ``spec``."""
        raise NotImplementedError

    def __repr__(self) -> str:
        return f"{type(self).__name__}()"


@dataclass(frozen=True)
class DecodeOp(PreprocessingOp):
    """Marker op for decoding the compressed input.

    Decoding itself is performed by the codecs; this node exists in the DAG so
    placement and cost accounting cover the full pipeline.  ``roi_fraction``
    records how much of the image a partial decode touches.
    """

    format_name: str = "jpeg"
    roi_fraction: float = 1.0
    name: str = field(default="decode", init=False)
    batched = True

    def apply(self, array: np.ndarray) -> np.ndarray:
        return array

    def output_spec(self, spec: TensorSpec) -> TensorSpec:
        return spec

    def arithmetic_ops(self, spec: TensorSpec) -> float:
        # Entropy decode + IDCT work is roughly proportional to coded pixels.
        return 80.0 * spec.pixels * spec.channels * self.roi_fraction


@dataclass(frozen=True)
class ResizeOp(PreprocessingOp):
    """Aspect-preserving bilinear resize so the short side equals ``short_side``."""

    short_side: int = 256
    name: str = field(default="resize", init=False)
    batched = True

    def __post_init__(self) -> None:
        if self.short_side <= 0:
            raise PreprocessingError("short_side must be positive")

    def target_size(self, height: int, width: int) -> tuple[int, int]:
        """``(new_height, new_width)`` of a ``height`` x ``width`` image."""
        scale = self.short_side / min(height, width)
        return (max(1, int(round(height * scale))),
                max(1, int(round(width * scale))))

    def apply(self, array: np.ndarray) -> np.ndarray:
        return bilinear_resize(
            array, *self.target_size(*_image_axes(array, "resize")))

    def output_spec(self, spec: TensorSpec) -> TensorSpec:
        height, width = self.target_size(spec.height, spec.width)
        return TensorSpec(height=height, width=width, channels=spec.channels,
                          dtype=spec.dtype, layout=spec.layout)

    def arithmetic_ops(self, spec: TensorSpec) -> float:
        out = self.output_spec(spec)
        # 4 taps, 3 multiply-adds each per output element; float costs ~2x int8.
        dtype_factor = 2.0 if spec.dtype != "uint8" else 1.0
        work_pixels = max(spec.pixels, out.pixels)
        return 12.0 * work_pixels * spec.channels * dtype_factor


@dataclass(frozen=True)
class CenterCropOp(PreprocessingOp):
    """Central crop to ``size`` x ``size`` pixels."""

    size: int = 224
    name: str = field(default="crop", init=False)
    batched = True

    def __post_init__(self) -> None:
        if self.size <= 0:
            raise PreprocessingError("crop size must be positive")

    def window(self, height: int, width: int) -> tuple[int, int, int, int]:
        """``(top, left, rows, cols)`` of the crop in a ``height`` x
        ``width`` image."""
        if height < self.size or width < self.size:
            raise PreprocessingError(
                f"cannot crop {self.size}x{self.size} from {height}x{width}"
            )
        return ((height - self.size) // 2, (width - self.size) // 2,
                self.size, self.size)

    def apply(self, array: np.ndarray) -> np.ndarray:
        top, left, rows, cols = self.window(*_image_axes(array, "crop"))
        return array[..., top:top + rows, left:left + cols, :].copy()

    def output_spec(self, spec: TensorSpec) -> TensorSpec:
        if spec.height < self.size or spec.width < self.size:
            raise PreprocessingError(
                f"cannot crop {self.size} from {spec.height}x{spec.width}"
            )
        return TensorSpec(height=self.size, width=self.size,
                          channels=spec.channels, dtype=spec.dtype,
                          layout=spec.layout)

    def arithmetic_ops(self, spec: TensorSpec) -> float:
        # A crop is a copy: count one op per copied element.
        return float(self.size * self.size * spec.channels)


@dataclass(frozen=True)
class ConvertDtypeOp(PreprocessingOp):
    """Convert the tensor to another dtype (usually uint8 -> float32)."""

    target_dtype: str = "float32"
    name: str = field(default="convert", init=False)
    value_only: bool = field(default=True, init=False)
    fusable: bool = field(default=True, init=False)
    batched = True

    def apply(self, array: np.ndarray) -> np.ndarray:
        return array.astype(self.target_dtype)

    def output_spec(self, spec: TensorSpec) -> TensorSpec:
        return TensorSpec(height=spec.height, width=spec.width,
                          channels=spec.channels, dtype=self.target_dtype,
                          layout=spec.layout)

    def arithmetic_ops(self, spec: TensorSpec) -> float:
        return float(spec.elements)


@dataclass(frozen=True)
class NormalizeOp(PreprocessingOp):
    """Scale to [0, 1] then normalize with per-channel mean and std."""

    mean: tuple[float, ...] = tuple(IMAGENET_MEAN.tolist())
    std: tuple[float, ...] = tuple(IMAGENET_STD.tolist())
    name: str = field(default="normalize", init=False)
    value_only: bool = field(default=True, init=False)
    fusable: bool = field(default=True, init=False)
    batched = True

    def apply(self, array: np.ndarray) -> np.ndarray:
        return _normalize(array, self.mean, self.std)

    def output_spec(self, spec: TensorSpec) -> TensorSpec:
        return TensorSpec(height=spec.height, width=spec.width,
                          channels=spec.channels, dtype="float32",
                          layout=spec.layout)

    def arithmetic_ops(self, spec: TensorSpec) -> float:
        # divide by 255, subtract mean, divide by std: 3 ops per element.
        return 3.0 * spec.elements


@dataclass(frozen=True)
class ChannelReorderOp(PreprocessingOp):
    """Rearrange HWC to CHW (channels-first), as most DNN graphs expect."""

    name: str = field(default="reorder", init=False)
    value_only: bool = field(default=False, init=False)
    fusable: bool = field(default=True, init=False)
    batched = True

    def apply(self, array: np.ndarray) -> np.ndarray:
        return _channels_first(array)

    def output_spec(self, spec: TensorSpec) -> TensorSpec:
        return TensorSpec(height=spec.height, width=spec.width,
                          channels=spec.channels, dtype=spec.dtype,
                          layout="CHW")

    def arithmetic_ops(self, spec: TensorSpec) -> float:
        # Pure data movement: one op per element moved.
        return float(spec.elements)


@dataclass(frozen=True)
class FusedNormalizeReorderOp(PreprocessingOp):
    """Fusion of convert + normalize + channel reorder in a single pass.

    The paper's rule 2 allows fusing normalization, dtype conversion, and
    channel reordering; the fused kernel reads each input element once and
    writes each output element once.
    """

    mean: tuple[float, ...] = tuple(IMAGENET_MEAN.tolist())
    std: tuple[float, ...] = tuple(IMAGENET_STD.tolist())
    name: str = field(default="fused-normalize-reorder", init=False)
    value_only: bool = field(default=False, init=False)
    fusable: bool = field(default=False, init=False)
    batched = True

    def apply(self, array: np.ndarray) -> np.ndarray:
        return normalize_channels_first(array, self.mean, self.std)

    def output_spec(self, spec: TensorSpec) -> TensorSpec:
        return TensorSpec(height=spec.height, width=spec.width,
                          channels=spec.channels, dtype="float32", layout="CHW")

    def arithmetic_ops(self, spec: TensorSpec) -> float:
        # One fused pass: 3 arithmetic ops plus one move per element, versus
        # 5 (1 convert + 3 normalize + 1 reorder) for the unfused sequence.
        return 4.0 * spec.elements


def _image_axes(array: np.ndarray, what: str) -> tuple[int, int]:
    """``(height, width)`` of an ``(..., H, W, C)`` tensor."""
    if array.ndim < 3:
        raise PreprocessingError(f"{what} expects an HWC tensor")
    return array.shape[-3], array.shape[-2]


def _check_channels(array: np.ndarray, mean: tuple[float, ...]) -> None:
    if array.ndim < 3 or array.shape[-1] != len(mean):
        raise PreprocessingError(
            f"normalize expects HWC with {len(mean)} channels, "
            f"got shape {array.shape[-3:]}"
        )


def _normalize(array: np.ndarray, mean: tuple[float, ...],
               std: tuple[float, ...],
               out: np.ndarray | None = None) -> np.ndarray:
    _check_channels(array, mean)
    if out is None:
        out = np.empty(array.shape, dtype=np.float32)
    np.copyto(out, array, casting="unsafe")
    np.divide(out, 255.0, out=out)
    np.subtract(out, np.asarray(mean, dtype=np.float32), out=out)
    return np.divide(out, np.asarray(std, dtype=np.float32), out=out)


def _channels_first(array: np.ndarray) -> np.ndarray:
    if array.ndim < 3:
        raise PreprocessingError("channel reorder expects an HWC tensor")
    return np.ascontiguousarray(np.moveaxis(array, -1, -3))


def normalize_channels_first(array: np.ndarray, mean: tuple[float, ...],
                             std: tuple[float, ...],
                             out: np.ndarray | None = None) -> np.ndarray:
    """Normalize ``(..., H, W, C)`` into a float32 ``(..., C, H, W)`` array.

    The normalization runs in place on the channels-last view of the
    channels-first result, so the reorder is where the values are written,
    not a copy afterwards; each element sees :func:`_normalize`'s arithmetic.
    """
    _check_channels(array, mean)
    if out is None:
        out = np.empty((*array.shape[:-3], array.shape[-1],
                        *array.shape[-3:-1]), dtype=np.float32)
    _normalize(array, mean, std, out=np.moveaxis(out, -3, -1))
    return out


@functools.lru_cache(maxsize=64)
def _bilinear_taps(size: int, new_size: int):
    """Per output position: the two source indices and the blend weight
    (cached, so shared: read-only)."""
    positions = np.linspace(0, size - 1, new_size)
    low = np.floor(positions).astype(np.int64)
    taps = low, np.minimum(low + 1, size - 1), positions - low
    for table in taps:
        table.flags.writeable = False
    return taps


@functools.lru_cache(maxsize=64)
def _window_taps(height: int, width: int, new_height: int, new_width: int,
                 window: tuple[int, int, int, int], channels: int):
    """What the output pixels of ``window`` read and how they blend.

    ``indices`` are positions on the flattened ``H * W`` axis: the
    (row0, col0), (row0, col1), (row1, col0) and (row1, col1) source pixel
    of every output pixel, corner after corner.  ``col_weights`` is
    ``(4, 1, cols * channels)`` and ``row_weights`` ``(2, rows, 1)``, both
    shaped to broadcast against the gathered ``(..., 4, rows, cols *
    channels)`` corners.  Cached, so shared: read-only.
    """
    top, left, rows, cols = window
    row0, row1, row_frac = (taps[top:top + rows]
                            for taps in _bilinear_taps(height, new_height))
    col0, col1, col_frac = (taps[left:left + cols]
                            for taps in _bilinear_taps(width, new_width))
    indices = np.concatenate([
        (row[:, None] * width + col[None, :]).ravel()
        for row in (row0, row1) for col in (col0, col1)]).astype(np.intp)
    col_frac = np.repeat(col_frac, channels)
    col_weights = np.stack([1 - col_frac, col_frac] * 2)[:, None, :]
    row_weights = np.stack([1 - row_frac, row_frac])[:, :, None]
    for table in (indices, col_weights, row_weights):
        table.flags.writeable = False
    return indices, col_weights, row_weights


def bilinear_resize(array: np.ndarray, new_height: int, new_width: int,
                    window: tuple[int, int, int, int] | None = None,
                    out: np.ndarray | None = None,
                    empty=np.empty) -> np.ndarray:
    """Bilinear resize of an ``(..., H, W, C)`` array, preserving its dtype.

    ``window = (top, left, rows, cols)`` asks for that part of the resized
    image only (default: all of it).  Nothing outside it is read: the four
    source pixels of each output pixel are gathered from the payload in its
    own dtype and only they are converted to float64, so every output pixel
    gets the taps, weights and blend order it has in the full resize.
    Leading axes ride in front of every gather and broadcast, so each image
    of a batch sees the per-element arithmetic it would see alone.

    The result is written to ``out`` when given; ``empty(shape, dtype)``
    supplies the two temporaries (a caller's scratch, else fresh arrays).
    """
    height, width = _image_axes(array, "resize")
    if new_height <= 0 or new_width <= 0:
        raise PreprocessingError("target dimensions must be positive")
    top, left, rows, cols = window or (0, 0, new_height, new_width)
    lead, channels = array.shape[:-3], array.shape[-1]
    if out is None:
        out = np.empty((*lead, rows, cols, channels), dtype=array.dtype)
    if (new_height, new_width) == (height, width):
        np.copyto(out, array[..., top:top + rows, left:left + cols, :])
        return out
    indices, col_weights, row_weights = _window_taps(
        height, width, new_height, new_width, (top, left, rows, cols),
        channels)
    corners = empty((*lead, 4, rows, cols * channels), array.dtype)
    np.take(array.reshape(*lead, height * width, channels), indices, axis=-2,
            out=corners.reshape(*lead, 4 * rows * cols, channels),
            mode="clip")    # in range by construction; "raise" buffers out
    blend = empty(corners.shape, np.float64)
    np.copyto(blend, corners, casting="unsafe")
    np.multiply(blend, col_weights, out=blend)
    sides = blend[..., 0::2, :, :]              # top, bottom
    np.add(sides, blend[..., 1::2, :, :], out=sides)
    np.multiply(sides, row_weights, out=sides)
    result = blend[..., 1, :, :]                # consumed above: reuse it
    np.add(blend[..., 0, :, :], blend[..., 2, :, :], out=result)
    if np.issubdtype(array.dtype, np.integer):
        np.clip(np.round(result, out=result), 0, 255, out=result)
    np.copyto(out, result.reshape(*lead, rows, cols, channels),
              casting="unsafe")
    return out


def standard_pipeline_ops(input_short_side: int = 256, crop_size: int = 224,
                          format_name: str = "jpeg") -> list[PreprocessingOp]:
    """The standard (unoptimized) ResNet preprocessing pipeline from Section 2."""
    return [
        DecodeOp(format_name=format_name),
        ResizeOp(short_side=input_short_side),
        CenterCropOp(size=crop_size),
        ConvertDtypeOp(target_dtype="float32"),
        NormalizeOp(),
        ChannelReorderOp(),
    ]
