"""Block transforms shared by the lossy codecs.

The JPEG-like and H.264-like codecs both operate on 8x8 macroblocks with a
type-II DCT, quantization by a quality-scaled matrix, and zig-zag ordering.
These are the building blocks the partial-decoding optimizations depend on:
each block is independently decodable.
"""

from __future__ import annotations

import numpy as np

from repro.errors import CodecError

BLOCK_SIZE = 8

# The standard JPEG luminance quantization table (Annex K of the JPEG spec),
# widely used as the base matrix scaled by the quality factor.
BASE_QUANT_TABLE = np.array(
    [
        [16, 11, 10, 16, 24, 40, 51, 61],
        [12, 12, 14, 19, 26, 58, 60, 55],
        [14, 13, 16, 24, 40, 57, 69, 56],
        [14, 17, 22, 29, 51, 87, 80, 62],
        [18, 22, 37, 56, 68, 109, 103, 77],
        [24, 35, 55, 64, 81, 104, 113, 92],
        [49, 64, 78, 87, 103, 121, 120, 101],
        [72, 92, 95, 98, 112, 100, 103, 99],
    ],
    dtype=np.float64,
)


def quality_to_quant_table(quality: int) -> np.ndarray:
    """Scale the base quantization table by a JPEG-style quality in [1, 100]."""
    if not 1 <= quality <= 100:
        raise CodecError(f"quality must be in [1, 100], got {quality}")
    if quality < 50:
        scale = 5000.0 / quality
    else:
        scale = 200.0 - 2.0 * quality
    table = np.floor((BASE_QUANT_TABLE * scale + 50.0) / 100.0)
    return np.clip(table, 1.0, 255.0)


def pad_to_blocks(channel: np.ndarray) -> np.ndarray:
    """Pad the last two axes (one channel, or a stack of them) with edge
    replication to a multiple of the block size."""
    height, width = channel.shape[-2:]
    pad_h = (-height) % BLOCK_SIZE
    pad_w = (-width) % BLOCK_SIZE
    if pad_h == 0 and pad_w == 0:
        return channel
    lead = [(0, 0)] * (channel.ndim - 2)
    return np.pad(channel, lead + [(0, pad_h), (0, pad_w)], mode="edge")


def blockify(channel: np.ndarray) -> np.ndarray:
    """Split a padded channel (or a stack of them) into 8x8 blocks.

    Returns an array of shape (..., blocks_y, blocks_x, 8, 8).
    """
    *lead, height, width = channel.shape
    if height % BLOCK_SIZE or width % BLOCK_SIZE:
        raise CodecError("channel must be padded to a multiple of the block size")
    blocks_y = height // BLOCK_SIZE
    blocks_x = width // BLOCK_SIZE
    return (
        channel.reshape(*lead, blocks_y, BLOCK_SIZE, blocks_x, BLOCK_SIZE)
        .swapaxes(-3, -2)
        .copy()
    )


def forward_dct_blocks(blocks: np.ndarray) -> np.ndarray:
    """Apply a 2-D type-II DCT to each 8x8 block (expects level-shifted input)."""
    from scipy.fftpack import dctn     # here, not at module level: a decode never needs it
    return dctn(blocks, type=2, axes=(-2, -1), norm="ortho")


def inverse_dct_blocks(coeffs: np.ndarray) -> np.ndarray:
    """Apply the inverse DCT to each 8x8 coefficient block."""
    from scipy.fftpack import idctn    # the decoder runs it only at a rounding tie
    return idctn(coeffs, type=2, axes=(-2, -1), norm="ortho")


def quantize_blocks(coeffs: np.ndarray, quant_table: np.ndarray) -> np.ndarray:
    """Quantize DCT coefficients to int16 with the given table."""
    return np.round(coeffs / quant_table).astype(np.int16)


def dequantize_blocks(quantized: np.ndarray, quant_table: np.ndarray) -> np.ndarray:
    """Dequantize int16 coefficient blocks back to float."""
    return np.multiply(quantized, quant_table, dtype=np.float64)


def _zigzag_order() -> np.ndarray:
    """Return the zig-zag scan order for an 8x8 block as flat indices."""
    indices = []
    for diagonal in range(2 * BLOCK_SIZE - 1):
        cells = [
            (i, diagonal - i)
            for i in range(BLOCK_SIZE)
            if 0 <= diagonal - i < BLOCK_SIZE
        ]
        if diagonal % 2 == 0:
            cells = cells[::-1]
        indices.extend(r * BLOCK_SIZE + c for r, c in cells)
    return np.array(indices, dtype=np.int64)


ZIGZAG = _zigzag_order()
ZIGZAG_INVERSE = np.argsort(ZIGZAG)


def zigzag_scan(block: np.ndarray) -> np.ndarray:
    """Flatten an 8x8 block (or each of a stack of them) in zig-zag order."""
    return block.reshape(*block.shape[:-2], BLOCK_SIZE * BLOCK_SIZE)[..., ZIGZAG]


def zigzag_unscan(flat: np.ndarray) -> np.ndarray:
    """Rebuild an 8x8 block from its zig-zag flattened form."""
    if flat.shape[-1] != BLOCK_SIZE * BLOCK_SIZE:
        raise CodecError("zig-zag vector must have 64 elements")
    return flat[..., ZIGZAG_INVERSE].reshape(*flat.shape[:-1], BLOCK_SIZE, BLOCK_SIZE)
