"""A JPEG-like lossy image codec with macroblock partial decoding.

Pipeline (per channel): level shift, 8x8 block DCT, quality-scaled
quantization, zig-zag run-length entropy coding, and a per-block offset index.
The offset index is the feature the paper's ROI decoding exploits: blocks are
independently decodable, so only the macroblocks intersecting a region of
interest need to be entropy-decoded and inverse-transformed.

Chroma handling is simplified: all three channels use the luminance
quantization table.  This does not change any of the behaviours the paper's
optimizations depend on (cost scaling with decoded blocks, quality-dependent
fidelity and size).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from repro.codecs import blocks as blk
from repro.codecs import entropy
from repro.codecs.image import Image, Resolution
from repro.codecs.roi import RegionOfInterest, expand_to_blocks
from repro.errors import CodecError

_SIZE = blk.BLOCK_SIZE
_BLOCK_LENGTH = _SIZE * _SIZE


@dataclass(frozen=True)
class JpegEncoded:
    """An encoded JPEG-like image.

    Attributes
    ----------
    width, height:
        Original image dimensions (before block padding).
    channels:
        Number of channels (3 for RGB).
    quality:
        Encoding quality in [1, 100].
    blocks_x, blocks_y:
        Macroblock grid dimensions.
    data:
        Packed entropy-coded payload with a per-block offset index.
    """

    width: int
    height: int
    channels: int
    quality: int
    blocks_x: int
    blocks_y: int
    data: bytes

    @property
    def resolution(self) -> Resolution:
        """Resolution of the decoded image."""
        return Resolution(width=self.width, height=self.height)

    @property
    def num_blocks(self) -> int:
        """Total macroblocks across all channels."""
        return self.blocks_x * self.blocks_y * self.channels

    @property
    def compressed_bytes(self) -> int:
        """Size of the encoded payload in bytes."""
        return len(self.data)


class JpegCodec:
    """Encoder/decoder for the JPEG-like format."""

    def __init__(self, quality: int = 75) -> None:
        if not 1 <= quality <= 100:
            raise CodecError(f"quality must be in [1, 100], got {quality}")
        self._quality = quality
        self._quant_table = blk.quality_to_quant_table(quality)

    @property
    def quality(self) -> int:
        """The encoder quality factor."""
        return self._quality

    def encode(self, image: Image) -> JpegEncoded:
        """Encode an image into the JPEG-like format."""
        # One array program over every block of every channel; channel
        # planes lead, so the stream's block order is (channel, by, bx).
        planes = image.pixels.transpose(2, 0, 1).astype(np.float64) - 128.0
        plane_blocks = blk.blockify(blk.pad_to_blocks(planes))
        blocks_y, blocks_x = plane_blocks.shape[1:3]
        quantized = blk.quantize_blocks(blk.forward_dct_blocks(plane_blocks), self._quant_table)
        flat = blk.zigzag_scan(quantized).reshape(-1, _BLOCK_LENGTH)
        return JpegEncoded(
            width=image.width,
            height=image.height,
            channels=image.channels,
            quality=self._quality,
            blocks_x=blocks_x,
            blocks_y=blocks_y,
            data=entropy.encode_blocks(flat),
        )

    def decode(self, encoded: JpegEncoded) -> Image:
        """Fully decode an encoded image."""
        roi = RegionOfInterest(0, 0, encoded.width, encoded.height)
        return self.decode_roi(encoded, roi)

    def decode_roi(self, encoded: JpegEncoded, roi: RegionOfInterest) -> Image:
        """Decode only the macroblocks intersecting ``roi``.

        Returns the decoded ROI as an image (not the full frame); the returned
        image's size is the block-aligned expansion of the request clipped to
        the frame, which is what the downstream crop consumes.
        """
        left, top, across, down = window = _block_window(encoded, roi)
        block_indices, quant_table = _decode_plan(
            encoded.quality, encoded.channels, encoded.blocks_x, encoded.blocks_y, *window)
        # One array program over the touched blocks of every channel: stream
        # indices (channel, by, bx) -> coefficients -> pixels.  A full decode
        # is the same lines with every block touched.
        flat = entropy.decode_blocks(encoded.data, block_indices, _BLOCK_LENGTH)
        samples = blk.inverse_dct_blocks(
            blk.dequantize_blocks(blk.zigzag_unscan(flat), quant_table))
        # In place: the float64 samples are the decoder's largest array.
        samples += 128.0
        np.clip(np.rint(samples, out=samples), 0, 255, out=samples)
        # One cast-and-transpose: (channel, by, bx, 8, 8) samples land in the
        # padded (H, W, channel) frame, seen as (by, 8, bx, 8, channel).
        pixels = np.empty((down, _SIZE, across, _SIZE, encoded.channels), dtype=np.uint8)
        np.copyto(pixels, samples.reshape(-1, down, across, _SIZE, _SIZE).transpose(1, 3, 2, 4, 0),
                  casting="unsafe")
        # Clip to the frame: edge blocks may extend past the true image size.
        pixels = pixels.reshape(down * _SIZE, across * _SIZE, -1)
        pixels = pixels[:encoded.height - top * _SIZE, :encoded.width - left * _SIZE]
        return Image(pixels=np.ascontiguousarray(pixels))

    def decoded_block_fraction(self, encoded: JpegEncoded, roi: RegionOfInterest) -> float:
        """Fraction of macroblocks an ROI decode touches (cost proxy)."""
        _, _, across, down = _block_window(encoded, roi)
        total = encoded.blocks_x * encoded.blocks_y
        return across * down / total if total else 0.0


def _block_window(encoded: JpegEncoded, roi: RegionOfInterest) -> tuple[int, int, int, int]:
    """The blocks of one channel an ROI decode touches: (left, top, across, down)."""
    aligned = expand_to_blocks(roi, encoded.resolution)
    return (aligned.left // _SIZE, aligned.top // _SIZE,
            -(-aligned.width // _SIZE), -(-aligned.height // _SIZE))


@lru_cache(maxsize=32)
def _decode_plan(quality: int, channels: int, blocks_x: int, blocks_y: int, left: int,
                 top: int, across: int, down: int) -> tuple[np.ndarray, np.ndarray]:
    """One geometry's touched blocks as stream indices, in the stream's (channel, by,
    bx) order, and its quantization table: shared by every thread, so read-only."""
    if top + down > blocks_y or left + across > blocks_x:
        raise CodecError(f"block window outside the {blocks_x}x{blocks_y} block grid")
    window = np.ix_(range(channels), range(top, top + down), range(left, left + across))
    block_indices = np.ravel_multi_index(window, (channels, blocks_y, blocks_x)).reshape(-1)
    quant_table = blk.quality_to_quant_table(quality)
    block_indices.flags.writeable = quant_table.flags.writeable = False
    return block_indices, quant_table
