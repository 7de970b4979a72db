"""Region-of-interest helpers for partial decoding (Section 6.4, Algorithm 1).

Many DNNs only need a portion of each image (the central crop for
classification, face crops for embeddings).  When the region of interest is
known, a macroblock-addressable codec need only decode the blocks intersecting
it.  This module computes ROIs and aligns them to the macroblock grid.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.codecs.blocks import BLOCK_SIZE
from repro.codecs.image import Resolution
from repro.errors import CodecError


@dataclass(frozen=True)
class RegionOfInterest:
    """A rectangular pixel region: ``(left, top)`` inclusive, width x height."""

    left: int
    top: int
    width: int
    height: int

    def __post_init__(self) -> None:
        if self.left < 0 or self.top < 0:
            raise CodecError("ROI origin must be non-negative")
        if self.width <= 0 or self.height <= 0:
            raise CodecError("ROI dimensions must be positive")

    @property
    def right(self) -> int:
        """Exclusive right edge."""
        return self.left + self.width

    @property
    def bottom(self) -> int:
        """Exclusive bottom edge."""
        return self.top + self.height

    @property
    def pixels(self) -> int:
        """Number of pixels covered by the region."""
        return self.width * self.height

    def clamp_to(self, resolution: Resolution) -> "RegionOfInterest":
        """Clamp the region to fit inside ``resolution``."""
        left = min(self.left, resolution.width - 1)
        top = min(self.top, resolution.height - 1)
        width = min(self.width, resolution.width - left)
        height = min(self.height, resolution.height - top)
        return RegionOfInterest(left=left, top=top, width=width, height=height)

    def contains(self, other: "RegionOfInterest") -> bool:
        """Return True if ``other`` lies entirely within this region."""
        return (
            self.left <= other.left
            and self.top <= other.top
            and self.right >= other.right
            and self.bottom >= other.bottom
        )


def central_crop_roi(resolution: Resolution, crop_size: int,
                     resize_short_side: int = 256) -> RegionOfInterest:
    """Compute the source-image ROI for the standard central-crop pipeline.

    The standard ResNet pipeline resizes the short side to
    ``resize_short_side`` and then takes a central ``crop_size`` x
    ``crop_size`` crop.  This function maps that crop back to source-image
    coordinates (Algorithm 1 of the paper), so only the covering region needs
    decoding.
    """
    if crop_size <= 0 or resize_short_side <= 0:
        raise CodecError("crop and resize sizes must be positive")
    if crop_size > resize_short_side:
        raise CodecError("crop size cannot exceed the resized short side")
    resized = resolution.scaled_to_short_side(resize_short_side)
    # Crop rectangle in resized coordinates.
    crop_left = (resized.width - crop_size) / 2.0
    crop_top = (resized.height - crop_size) / 2.0
    # Map back to source coordinates.
    scale = resolution.short_side / resize_short_side
    left = int(crop_left * scale)
    top = int(crop_top * scale)
    width = min(resolution.width - left, int(round(crop_size * scale)) + 1)
    height = min(resolution.height - top, int(round(crop_size * scale)) + 1)
    return RegionOfInterest(left=left, top=top, width=width, height=height)


def expand_to_blocks(roi: RegionOfInterest, resolution: Resolution) -> RegionOfInterest:
    """Expand an ROI to the smallest rectangle aligned to the macroblock grid."""
    clamped = roi.clamp_to(resolution)
    left = (clamped.left // BLOCK_SIZE) * BLOCK_SIZE
    top = (clamped.top // BLOCK_SIZE) * BLOCK_SIZE
    right = min(resolution.width, -(-clamped.right // BLOCK_SIZE) * BLOCK_SIZE)
    bottom = min(resolution.height, -(-clamped.bottom // BLOCK_SIZE) * BLOCK_SIZE)
    return RegionOfInterest(left=left, top=top, width=right - left,
                            height=bottom - top)


def raster_rows_required(roi: RegionOfInterest) -> int:
    """Rows that must be decoded by a raster-order (early stopping) decoder.

    Raster-order formats (PNG, WebP) cannot skip leading rows, so the decoder
    must process every scanline from the top of the image down to the bottom
    edge of the region of interest.
    """
    return roi.bottom
