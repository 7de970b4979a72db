"""The per-block scalar JPEG-like codec, kept as the differential oracle.

These are the loops ``repro.codecs.entropy`` and ``repro.codecs.jpeg`` ran
in production before encode and decode became whole-image array programs:
one varint at a time, one 8x8 block at a time.  They are slow and obviously
right, which is what an oracle should be; ``test_array_codec.py`` and
``test_corrupt_streams.py`` hold the array path to them byte for byte.
Only the container functions (``pack_blocks`` / ``unpack_block``) and the
block transforms are shared with production.  ``coefficient_rows`` is the
coefficient corpus both test modules draw from.
"""

from __future__ import annotations

import numpy as np

from repro.codecs import blocks as blk
from repro.codecs import entropy
from repro.codecs.image import Image
from repro.codecs.jpeg import JpegEncoded
from repro.codecs.roi import RegionOfInterest, expand_to_blocks
from repro.errors import CorruptBitstreamError

EOB = 0xFFFF
EXTREMES = (-32768, -32767, -8193, -8192, -64, -63, -1, 1, 63, 64, 8191, 8192,
            32767)


def coefficient_rows(seed: int, blocks: int, length: int) -> np.ndarray:
    """Rows drawn from five kinds: all zero, dense small, sparse, a lone
    last coefficient, and rows of int16 extremes (-32768 zig-zag-signs to
    0xFFFF, the end-of-block marker's own value)."""
    rng = np.random.default_rng(seed)
    rows = np.zeros((blocks, length), dtype=np.int16)
    for row, kind in zip(rows, rng.integers(0, 5, size=blocks)):
        if kind == 1:
            row[:] = rng.integers(-300, 301, size=length)
        elif kind == 2:
            hits = rng.random(length) < 0.1
            row[hits] = rng.integers(-20000, 20001, size=int(hits.sum()))
        elif kind == 3:
            row[-1] = rng.choice(EXTREMES)
        elif kind == 4:
            hits = rng.random(length) < 0.5
            row[hits] = rng.choice(EXTREMES, size=int(hits.sum()))
    return rows


def encode_coefficients(flat_coeffs: np.ndarray) -> bytes:
    """Encode one block's zig-zag coefficient vector: (zero-run, value)
    varint pairs, values zig-zag signed, then the end-of-block marker."""
    out = bytearray()
    run = 0
    for value in flat_coeffs.tolist():
        if value == 0:
            run += 1
            continue
        write_varint(out, run)
        write_varint(out, zigzag_signed(int(value)))
        run = 0
    write_varint(out, EOB)
    return bytes(out)


def decode_coefficients(payload: bytes, length: int) -> np.ndarray:
    """Decode one block's payload into a coefficient vector of ``length``."""
    coeffs = np.zeros(length, dtype=np.int16)
    pos = 0
    index = 0
    while True:
        run, pos = read_varint(payload, pos)
        if run == EOB:
            break
        value, pos = read_varint(payload, pos)
        index += run
        if index >= length:
            raise CorruptBitstreamError(
                f"coefficient index {index} exceeds block length {length}"
            )
        signed = unzigzag_signed(value)
        if not -32768 <= signed <= 32767:
            # The production scalar reader let numpy raise OverflowError
            # here; the oracle names it what it is.
            raise CorruptBitstreamError(f"coefficient {signed} outside int16")
        coeffs[index] = signed
        index += 1
    return coeffs


def decode_blocks(data: bytes, block_indices, length: int) -> np.ndarray:
    """``entropy.decode_blocks`` one block at a time."""
    rows = [decode_coefficients(entropy.unpack_block(data, int(index)), length)
            for index in block_indices]
    return np.stack(rows) if rows else np.zeros((0, length), dtype=np.int16)


def encode_blocks(coeffs: np.ndarray) -> bytes:
    """``entropy.encode_blocks`` one block at a time."""
    return entropy.pack_blocks([encode_coefficients(row) for row in coeffs])


def zigzag_signed(value: int) -> int:
    """Map a signed int to an unsigned int (zig-zag signing, as in protobuf)."""
    return (value << 1) if value >= 0 else ((-value) << 1) - 1


def unzigzag_signed(value: int) -> int:
    """Inverse of :func:`zigzag_signed`."""
    return (value >> 1) if value % 2 == 0 else -((value + 1) >> 1)


def write_varint(out: bytearray, value: int) -> None:
    if value < 0:
        raise CorruptBitstreamError("varints must be non-negative")
    while True:
        byte = value & 0x7F
        value >>= 7
        if value:
            out.append(byte | 0x80)
        else:
            out.append(byte)
            return


def read_varint(data: bytes, pos: int) -> tuple[int, int]:
    result = 0
    shift = 0
    while True:
        if pos >= len(data):
            raise CorruptBitstreamError("truncated varint")
        byte = data[pos]
        pos += 1
        result |= (byte & 0x7F) << shift
        if not byte & 0x80:
            return result, pos
        shift += 7
        if shift > 63:
            raise CorruptBitstreamError("varint too long")


def jpeg_encode(image: Image, quality: int) -> JpegEncoded:
    """``JpegCodec(quality).encode`` with its channel x by x bx loop."""
    quant_table = blk.quality_to_quant_table(quality)
    payloads: list[bytes] = []
    blocks_x = blocks_y = 0
    for channel_index in range(image.channels):
        channel = image.pixels[:, :, channel_index].astype(np.float64) - 128.0
        channel_blocks = blk.blockify(blk.pad_to_blocks(channel))
        blocks_y, blocks_x = channel_blocks.shape[:2]
        quantized = blk.quantize_blocks(
            blk.forward_dct_blocks(channel_blocks), quant_table)
        for by in range(blocks_y):
            for bx in range(blocks_x):
                flat = blk.zigzag_scan(quantized[by, bx])
                payloads.append(encode_coefficients(flat))
    return JpegEncoded(
        width=image.width, height=image.height, channels=image.channels,
        quality=quality, blocks_x=blocks_x, blocks_y=blocks_y,
        data=entropy.pack_blocks(payloads),
    )


def jpeg_decode_roi(encoded: JpegEncoded, roi: RegionOfInterest) -> Image:
    """``JpegCodec.decode_roi`` with its channel x by x bx loop."""
    quant_table = blk.quality_to_quant_table(encoded.quality)
    aligned = expand_to_blocks(roi, encoded.resolution)
    block_left = aligned.left // blk.BLOCK_SIZE
    block_top = aligned.top // blk.BLOCK_SIZE
    blocks_w = (aligned.width + blk.BLOCK_SIZE - 1) // blk.BLOCK_SIZE
    blocks_h = (aligned.height + blk.BLOCK_SIZE - 1) // blk.BLOCK_SIZE
    out = np.zeros(
        (blocks_h * blk.BLOCK_SIZE, blocks_w * blk.BLOCK_SIZE, encoded.channels),
        dtype=np.float64,
    )
    blocks_per_channel = encoded.blocks_x * encoded.blocks_y
    for channel_index in range(encoded.channels):
        for local_by in range(blocks_h):
            for local_bx in range(blocks_w):
                by = block_top + local_by
                bx = block_left + local_bx
                block_index = (
                    channel_index * blocks_per_channel + by * encoded.blocks_x + bx
                )
                payload = entropy.unpack_block(encoded.data, block_index)
                flat = decode_coefficients(payload, blk.BLOCK_SIZE * blk.BLOCK_SIZE)
                quantized = blk.zigzag_unscan(flat)
                coeffs = blk.dequantize_blocks(quantized, quant_table)
                pixel_block = blk.inverse_dct_blocks(coeffs) + 128.0
                top = local_by * blk.BLOCK_SIZE
                left = local_bx * blk.BLOCK_SIZE
                out[top:top + blk.BLOCK_SIZE, left:left + blk.BLOCK_SIZE,
                    channel_index] = pixel_block
    # Clip to the frame: edge blocks may extend past the true image size.
    height = min(aligned.height, encoded.height - aligned.top)
    width = min(aligned.width, encoded.width - aligned.left)
    pixels = np.clip(np.round(out[:height, :width]), 0, 255).astype(np.uint8)
    return Image(pixels=pixels)
