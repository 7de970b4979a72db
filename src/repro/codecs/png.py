"""A PNG-like lossless image codec with raster-order early stopping.

Real PNG applies per-scanline prediction filters followed by DEFLATE.  We
implement per-scanline Paeth-style filtering followed by zlib compression of
row groups.  Rows are grouped into independently-compressed strips so a
decoder can stop early once it has produced all the rows a region of interest
needs -- the "early stopping" capability the paper lists for PNG/WebP in
Table 4.
"""

from __future__ import annotations

import struct
import zlib
from dataclasses import dataclass

import numpy as np

from repro.codecs.image import Image, Resolution
from repro.codecs.roi import RegionOfInterest, raster_rows_required
from repro.errors import CodecError, CorruptBitstreamError

_MAGIC = b"RPNG"
DEFAULT_STRIP_ROWS = 16


@dataclass(frozen=True)
class PngEncoded:
    """An encoded PNG-like image: independently-compressed row strips."""

    width: int
    height: int
    channels: int
    strip_rows: int
    strips: tuple[bytes, ...]

    @property
    def resolution(self) -> Resolution:
        """Resolution of the decoded image."""
        return Resolution(width=self.width, height=self.height)

    @property
    def compressed_bytes(self) -> int:
        """Total compressed size in bytes."""
        return sum(len(s) for s in self.strips) + 16

    @property
    def num_strips(self) -> int:
        """Number of independently decodable row strips."""
        return len(self.strips)


def _filter_rows(rows: np.ndarray) -> np.ndarray:
    """Apply an up-predictor filter: each row stores its delta to the row above."""
    filtered = rows.astype(np.int16)
    filtered[1:] -= rows[:-1]
    return filtered


def _unfilter_rows(filtered: np.ndarray) -> np.ndarray:
    """Invert the up-predictor filter via a cumulative sum down the rows."""
    # A strip has at most 65 535 rows of int16 deltas: an int32 holds the sum.
    return np.cumsum(filtered, axis=0, dtype=np.int32)


class PngCodec:
    """Encoder/decoder for the PNG-like lossless format."""

    def __init__(self, strip_rows: int = DEFAULT_STRIP_ROWS,
                 compression_level: int = 6) -> None:
        if strip_rows <= 0:
            raise CodecError("strip_rows must be positive")
        if not 0 <= compression_level <= 9:
            raise CodecError("compression level must be in [0, 9]")
        self._strip_rows = strip_rows
        self._level = compression_level

    def encode(self, image: Image) -> PngEncoded:
        """Encode an image losslessly."""
        strips: list[bytes] = []
        pixels = image.pixels
        for start in range(0, image.height, self._strip_rows):
            rows = pixels[start:start + self._strip_rows]
            filtered = _filter_rows(rows.reshape(rows.shape[0], -1))
            raw = struct.pack("<HH", rows.shape[0], rows.shape[1] * image.channels)
            raw += filtered.tobytes()
            strips.append(zlib.compress(raw, self._level))
        return PngEncoded(
            width=image.width,
            height=image.height,
            channels=image.channels,
            strip_rows=self._strip_rows,
            strips=tuple(strips),
        )

    def decode(self, encoded: PngEncoded) -> Image:
        """Fully decode an encoded image (exact reconstruction)."""
        return self.decode_rows(encoded, encoded.height)

    def decode_rows(self, encoded: PngEncoded, rows_needed: int) -> Image:
        """Decode only the first ``rows_needed`` rows (early stopping).

        Strips are independent, so decoding stops after the strip containing
        the last needed row; the returned image has exactly ``rows_needed``
        rows.
        """
        if rows_needed <= 0:
            raise CodecError("rows_needed must be positive")
        rows_needed = min(rows_needed, encoded.height)
        decoded_rows: list[np.ndarray] = []
        produced = 0
        for strip in encoded.strips:
            if produced >= rows_needed:
                break
            raw = zlib.decompress(strip)
            strip_height, row_width = struct.unpack_from("<HH", raw, 0)
            expected = strip_height * row_width * 2
            body = raw[4:4 + expected]
            if len(body) != expected:
                raise CorruptBitstreamError("strip payload has unexpected size")
            filtered = np.frombuffer(body, dtype=np.int16).reshape(
                strip_height, row_width
            )
            rows = _unfilter_rows(filtered)
            decoded_rows.append(rows)
            produced += strip_height
        stacked = np.concatenate(decoded_rows, axis=0)[:rows_needed]
        pixels = stacked.reshape(rows_needed, encoded.width, encoded.channels)
        return Image(pixels=np.clip(pixels, 0, 255).astype(np.uint8))

    def decode_roi(self, encoded: PngEncoded, roi: RegionOfInterest) -> Image:
        """Decode the minimum raster prefix covering ``roi`` and crop it."""
        clamped = roi.clamp_to(encoded.resolution)
        rows = raster_rows_required(clamped)
        prefix = self.decode_rows(encoded, rows)
        return prefix.crop(clamped.left, clamped.top, clamped.width, clamped.height)

    def decoded_row_fraction(self, encoded: PngEncoded,
                             roi: RegionOfInterest) -> float:
        """Fraction of rows an early-stopping decode touches (cost proxy)."""
        clamped = roi.clamp_to(encoded.resolution)
        return raster_rows_required(clamped) / encoded.height
