"""The basis decode against the scalar oracle, at every quality.

``JpegCodec.decode_roi`` turns coefficient rows into samples with one GEMM
against a per-quality basis and recomputes, with the separate transforms,
every block that holds a sample near a rounding tie.  These cases are built
to sit on or next to ties: the GEMM alone differs from the oracle on some of
their pixels at most qualities, so only the guard keeps them bit-identical.
"""

import numpy as np
import pytest

import scalar_oracle
from repro.codecs import blocks as blk
from repro.codecs import entropy
from repro.codecs.jpeg import JpegCodec, JpegEncoded, _decode_plan
from repro.codecs.roi import RegionOfInterest
from repro.errors import CodecError

ACROSS = 64     # blocks per row of the one-channel test frame
# Qualities the CI flake loop keeps; every other one is marked `exhaustive`.
SAMPLED = (1, 2, 10, 25, 50, 51, 75, 90, 99, 100)
# Natural positions (u, v) in {0, 4}^2: their basis entries are all +-1/8,
# so integer coefficients put samples on exact multiples of 1/8, ties included.
CORNERS = blk.ZIGZAG_INVERSE[[0, 4, 32, 36]]


def tie_rows(quality: int) -> np.ndarray:
    """Zig-zag coefficient rows: every DC in [-2048, 2048) alone, small
    {0, 4}^2 blocks, random sparse blocks, and large int16 pairs whose
    dequantized values cancel exactly, topped with small {0, 4}^2 terms."""
    rng = np.random.default_rng(quality)
    quant = blk.quality_to_quant_table(quality).reshape(-1)[blk.ZIGZAG].astype(np.int64)
    dc = np.zeros((4096, 64), np.int16)
    dc[:, 0] = np.arange(-2048, 2048)
    corners = np.zeros((256, 64), np.int16)
    corners[:, CORNERS] = rng.integers(-40, 41, size=(256, 4))
    sparse = np.zeros((256, 64), np.int16)
    hits = rng.random(sparse.shape) < 0.08
    sparse[hits] = rng.integers(-60, 61, size=int(hits.sum()))
    cancelling = np.zeros((256, 64), np.int16)
    for row in cancelling:
        a, b, c, d = rng.permutation(CORNERS)
        scale = rng.integers(1, 32767 // max(quant[a], quant[b]) + 1)
        row[a] = scale * quant[b]
        row[b] = rng.choice((-1, 1)) * scale * quant[a]
        row[[c, d]] = rng.integers(-8, 9, size=2)
    rows = np.concatenate([dc, corners, sparse, cancelling,
                           scalar_oracle.coefficient_rows(quality, 256, 64)])
    return np.concatenate([rows, np.zeros((-len(rows) % ACROSS, 64), np.int16)])


def one_channel_frame(rows: np.ndarray, quality: int) -> JpegEncoded:
    down = len(rows) // ACROSS
    return JpegEncoded(width=8 * ACROSS, height=8 * down, channels=1, quality=quality,
                       blocks_x=ACROSS, blocks_y=down, data=entropy.encode_blocks(rows))


@pytest.mark.parametrize("quality", [
    pytest.param(q, marks=() if q in SAMPLED else pytest.mark.exhaustive)
    for q in range(1, 101)])
def test_decodes_bit_identically_to_the_oracle(quality):
    encoded = one_channel_frame(tie_rows(quality), quality)
    whole = RegionOfInterest(0, 0, encoded.width, encoded.height)
    got = JpegCodec(quality).decode(encoded).pixels
    expected = scalar_oracle.jpeg_decode_roi(encoded, whole).pixels
    assert got.shape == expected.shape
    assert np.count_nonzero(got != expected) == 0


@pytest.mark.parametrize("quality", [1, 50, 75, 100])
def test_the_two_paths_differ_by_less_than_the_bound(quality):
    """``_samples``'s docstring bounds |GEMM - transforms| by
    2**-46 (M + 256); the guard's margin is 64 times that."""
    rows = tie_rows(quality)
    plan = _decode_plan(quality, 1, ACROSS, len(rows) // ACROSS, 0, 0, ACROSS,
                        len(rows) // ACROSS)
    product = rows.astype(np.float64) @ plan.basis + 128.0
    transforms = blk.inverse_dct_blocks(
        blk.dequantize_blocks(blk.zigzag_unscan(rows), plan.quant_table)) + 128.0
    gap = np.abs(product - transforms.reshape(-1, 64)).max(axis=1)
    magnitude = np.abs(rows.astype(np.float64)) @ plan.scan_quant
    assert (gap <= 2.0 ** -46 * (magnitude + 256.0)).all()
    assert gap.max() > 0        # the paths do round differently
    if quality == 1:            # large cancelling pairs: no fixed margin would do
        assert gap.max() > 2.0 ** -40 * 256.0


def test_a_region_decodes_like_the_oracle():
    quality = 90
    encoded = one_channel_frame(tie_rows(quality), quality)
    roi = RegionOfInterest(13, 21, 200, 150)
    got = JpegCodec(quality).decode_roi(encoded, roi).pixels
    assert got.tobytes() == scalar_oracle.jpeg_decode_roi(encoded, roi).pixels.tobytes()


def test_a_stream_without_blocks_is_still_refused_by_the_image():
    encoded = JpegEncoded(width=8, height=8, channels=0, quality=75, blocks_x=1,
                          blocks_y=1, data=entropy.encode_blocks(np.zeros((0, 64), np.int16)))
    with pytest.raises(CodecError, match="pixel array"):
        JpegCodec(75).decode(encoded)
