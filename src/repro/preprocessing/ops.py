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

    def apply(self, array: np.ndarray) -> np.ndarray:
        height, width = _image_axes(array, "resize")
        scale = self.short_side / min(height, width)
        new_h = max(1, int(round(height * scale)))
        new_w = max(1, int(round(width * scale)))
        return bilinear_resize(array, new_h, new_w)

    def output_spec(self, spec: TensorSpec) -> TensorSpec:
        scale = self.short_side / min(spec.height, spec.width)
        return TensorSpec(
            height=max(1, int(round(spec.height * scale))),
            width=max(1, int(round(spec.width * scale))),
            channels=spec.channels,
            dtype=spec.dtype,
            layout=spec.layout,
        )

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

    def apply(self, array: np.ndarray) -> np.ndarray:
        height, width = _image_axes(array, "crop")
        if height < self.size or width < self.size:
            raise PreprocessingError(
                f"cannot crop {self.size}x{self.size} from {height}x{width}"
            )
        top = (height - self.size) // 2
        left = (width - self.size) // 2
        return array[..., top:top + self.size, left:left + self.size,
                     :].copy()

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
        return _channels_first(_normalize(array, self.mean, self.std))

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


def _normalize(array: np.ndarray, mean: tuple[float, ...],
               std: tuple[float, ...]) -> np.ndarray:
    if array.ndim < 3 or array.shape[-1] != len(mean):
        raise PreprocessingError(
            f"normalize expects HWC with {len(mean)} channels, "
            f"got shape {array.shape[-3:]}"
        )
    data = array.astype(np.float32) / 255.0
    return ((data - np.asarray(mean, dtype=np.float32))
            / np.asarray(std, dtype=np.float32))


def _channels_first(array: np.ndarray) -> np.ndarray:
    if array.ndim < 3:
        raise PreprocessingError("channel reorder expects an HWC tensor")
    return np.ascontiguousarray(np.moveaxis(array, -1, -3))


def _bilinear_taps(size: int, new_size: int):
    """Per output position: the two source indices and the blend weight."""
    positions = np.linspace(0, size - 1, new_size)
    low = np.floor(positions).astype(np.int64)
    high = np.minimum(low + 1, size - 1)
    return low, high, positions - low


def bilinear_resize(array: np.ndarray, new_height: int, new_width: int) -> np.ndarray:
    """Bilinear resize of an ``(..., H, W, C)`` array, preserving its dtype.

    Leading axes ride in front of every gather and broadcast, so each
    image of a batch sees the per-element arithmetic it would see alone.
    """
    height, width = _image_axes(array, "resize")
    if new_height <= 0 or new_width <= 0:
        raise PreprocessingError("target dimensions must be positive")
    if (new_height, new_width) == (height, width):
        return array.copy()
    row0, row1, row_frac = _bilinear_taps(height, new_height)
    col0, col1, col_frac = _bilinear_taps(width, new_width)
    row_frac = row_frac[:, None, None]
    col_frac = col_frac[:, None]
    data = array.astype(np.float64)

    def corner(rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
        # The row gather is re-done per corner, not shared: holding it
        # across the blends keeps one more batch-sized temporary live,
        # which makes glibc trim and re-fault a serving thread's arena on
        # every micro-batch (~20% of serve_closed's request rate).
        return np.take(np.take(data, rows, axis=-3), cols, axis=-2)

    top = corner(row0, col0) * (1 - col_frac) + corner(row0, col1) * col_frac
    bottom = (corner(row1, col0) * (1 - col_frac)
              + corner(row1, col1) * col_frac)
    result = top * (1 - row_frac) + bottom * row_frac
    if np.issubdtype(array.dtype, np.integer):
        return np.clip(np.round(result), 0, 255).astype(array.dtype)
    return result.astype(array.dtype)


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
