"""A JPEG-like lossy image codec with macroblock partial decoding.

Pipeline (per channel): level shift, 8x8 block DCT, quality-scaled
quantization, zig-zag run-length entropy coding, and a per-block offset index.
The offset index is the feature the paper's ROI decoding exploits: blocks are
independently decodable, so only the macroblocks intersecting a region of
interest need to be entropy-decoded and inverse-transformed.

Decoding folds un-zig-zag, dequantization and the inverse DCT into one GEMM
by a per-quality 64 x 64 basis, bit-identical to the separate transforms
(:func:`_samples`).

Chroma handling is simplified: all three channels use the luminance
quantization table.  This does not change any of the behaviours the paper's
optimizations depend on (cost scaling with decoded blocks, quality-dependent
fidelity and size).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from repro.codecs import blocks as blk
from repro.codecs import entropy
from repro.codecs.image import Image, Resolution
from repro.codecs.roi import RegionOfInterest, expand_to_blocks
from repro.errors import CodecError
from repro.utils import blas

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
        plan = _decode_plan(
            encoded.quality, encoded.channels, encoded.blocks_x, encoded.blocks_y, *window)
        # One array program over the touched blocks of every channel: stream
        # indices (channel, by, bx) -> coefficients -> pixels.  A full decode
        # is the same lines with every block touched.
        flat = entropy.decode_blocks(encoded.data, plan.block_indices, _BLOCK_LENGTH)
        samples = _samples(flat, plan)
        samples.clip(0, 255, out=samples)
        # Each channel's (by, bx, 8, 8) samples land, in 8-sample runs, in its
        # plane of the padded (H, W, channel) frame seen as (by, 8, bx, 8).
        pixels = np.empty((down, _SIZE, across, _SIZE, encoded.channels), dtype=np.uint8)
        for channel, plane in enumerate(samples.reshape(-1, down, across, _SIZE, _SIZE)):
            pixels[..., channel] = plane.transpose(0, 2, 1, 3)
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


class _DecodePlan(NamedTuple):
    """Read-only arrays every thread's decode of one geometry shares."""
    block_indices: np.ndarray   # touched blocks, in stream (channel, by, bx) order
    quant_table: np.ndarray     # (8, 8) q, natural order
    scan_quant: np.ndarray      # (64,) q[zz(j)]
    basis: np.ndarray           # (64, 64) B[j, p] = q[zz(j)] * idct(e_zz(j))[p]


@lru_cache(maxsize=32)
def _decode_plan(quality: int, channels: int, blocks_x: int, blocks_y: int, left: int,
                 top: int, across: int, down: int) -> _DecodePlan:
    """One geometry's touched blocks as stream indices, and its quality's tables."""
    if top + down > blocks_y or left + across > blocks_x:
        raise CodecError(f"block window outside the {blocks_x}x{blocks_y} block grid")
    window = np.ix_(range(channels), range(top, top + down), range(left, left + across))
    block_indices = np.ravel_multi_index(window, (channels, blocks_y, blocks_x)).reshape(-1)
    quant_table = blk.quality_to_quant_table(quality)
    scan_quant = quant_table.reshape(-1)[blk.ZIGZAG]
    # The orthonormal DCT-II matrix C[u, x]; C[u, x] * C[v, y] at row 8u + v,
    # column 8x + y is the inverse transform of the unit block at (u, v).
    x = np.arange(_SIZE)
    dct = np.cos((2 * x + 1) * x[:, None] * np.pi / (2 * _SIZE)) * np.sqrt(2.0 / _SIZE)
    dct[0] = np.sqrt(1.0 / _SIZE)
    unit = (dct[:, None, :, None] * dct[None, :, None, :]).reshape(_BLOCK_LENGTH, -1)
    basis = unit[blk.ZIGZAG] * scan_quant[:, None]
    plan = _DecodePlan(block_indices, quant_table, scan_quant, basis)
    for array in plan:
        array.flags.writeable = False
    return plan


def _samples(flat: np.ndarray, plan: _DecodePlan) -> np.ndarray:
    """Level-shifted, rounded samples (n, 64) of zig-zag rows ``flat``: one
    GEMM by ``plan.basis``, bit-identical to un-zig-zag, dequantize,
    ``blk.inverse_dct_blocks``, ``+ 128`` and ``rint``.

    The two paths round differently, so a block with a sample within eps of
    a tie k + 1/2 is recomputed by the transforms.  With u = 2**-53 and
    M = sum_j |c_j| q[zz(j)], a block's sample differs from exact by at most:
    GEMM 41u M (basis entries within 24u q[zz(j)] of exact, |entries| <=
    q[zz(j)] / 4, and a 64-term dot product in any order, fused or not, errs
    by gamma_64 = 64u / (1 - 64u) of its terms' absolute sum); transforms
    64u M (exact integer products c_j q[zz(j)], then two 8-point passes of
    pocketfft's FFT-based DCT: Higham, *Accuracy and Stability of Numerical
    Algorithms*, Thm 24.2, t = 3, eta = mu + gamma_4 (sqrt(2) + mu), plus the
    DCT's twiddles); ``+ 128`` u (M + 128) each.  So the paths differ by under
    2**7 u (M + 256), and eps = 2**-40 (M + 256) is 64 times that: any other
    sample rounds alike both ways.  Int16 keeps M < 2**29 and eps < 5e-4, so
    a corrupt stream's large cancelling coefficients flag, not break, a block.
    """
    coefficients = flat.astype(np.float64)
    samples = np.empty_like(coefficients)
    blas.gemm(coefficients, plan.basis, samples)
    # The coefficients' float copy is dead after the product: it holds |c|,
    # then the rounded samples.
    margin = np.matmul(np.abs(coefficients, out=coefficients), plan.scan_quant)
    margin += 256.0
    margin *= 2.0 ** -40
    samples += 128.0
    rounded = np.rint(samples, out=coefficients)
    residual = np.subtract(samples, rounded, out=samples)
    # The residual's whole-array extremes rule out every block at once, as
    # they do on natural images; a maximum per block costs five times as much.
    if max(residual.max(initial=0.0), -residual.min(initial=0.0)) >= 0.5 - margin.max(initial=0.0):
        near = (np.abs(residual, out=residual).max(axis=1) >= 0.5 - margin).nonzero()[0]
        exact = blk.inverse_dct_blocks(
            blk.dequantize_blocks(blk.zigzag_unscan(flat[near]), plan.quant_table))
        exact += 128.0
        rounded[near] = np.rint(exact).reshape(-1, _BLOCK_LENGTH)
    return rounded
