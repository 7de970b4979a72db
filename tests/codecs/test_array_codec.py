"""Differential tests: the array codec against the per-block scalar oracle.

``repro.codecs.entropy.encode_blocks`` / ``decode_blocks`` and
``JpegCodec.encode`` / ``decode_roi`` must agree byte for byte with the
scalar loops they replaced (``scalar_oracle.py``) on random images,
qualities and ROIs, and on raw coefficient arrays that no image produces:
all-zero blocks, a lone coefficient at index 63, the int16 extremes, and a
*value* token equal to 0xFFFF, which must not be read as end-of-block.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import scalar_oracle as oracle
from repro.codecs import entropy
from repro.codecs.image import Image
from repro.codecs.jpeg import JpegCodec
from repro.codecs.roi import RegionOfInterest
from repro.errors import CorruptBitstreamError


class TestCoefficientArrays:
    @given(seed=st.integers(0, 10_000), blocks=st.integers(0, 40),
           length=st.sampled_from([1, 16, 64]))
    @example(seed=0, blocks=1, length=64)
    @settings(max_examples=60, deadline=None)
    def test_encode_and_decode_match_the_oracle(self, seed, blocks, length):
        rows = oracle.coefficient_rows(seed, blocks, length)
        stream = entropy.encode_blocks(rows)
        assert stream == oracle.encode_blocks(rows)
        rng = np.random.default_rng(seed)
        choices = [np.arange(blocks), np.arange(blocks)[::-1],
                   rng.integers(0, blocks, size=7) if blocks else np.arange(0)]
        for indices in choices:
            decoded = entropy.decode_blocks(stream, indices, length)
            assert decoded.dtype == np.int16
            assert decoded.shape == (len(indices), length)
            np.testing.assert_array_equal(decoded, rows[indices])
            np.testing.assert_array_equal(
                decoded, oracle.decode_blocks(stream, indices, length))

    @pytest.mark.parametrize("row", [
        np.zeros(64, dtype=np.int16),
        np.eye(1, 64, 63, dtype=np.int16)[0] * 7,
        np.full(64, -32768, dtype=np.int16),
        np.full(64, 32767, dtype=np.int16),
        np.arange(-32, 32, dtype=np.int16),
    ], ids=["zeros", "lone-last", "all-min", "all-max", "ramp"])
    def test_one_block_is_the_one_row_case(self, row):
        payload = entropy.encode_coefficients(row)
        assert payload == oracle.encode_coefficients(row)
        assert entropy.encode_blocks(row[np.newaxis]) == entropy.pack_blocks([payload])
        np.testing.assert_array_equal(entropy.decode_coefficients(payload, 64), row)
        np.testing.assert_array_equal(oracle.decode_coefficients(payload, 64), row)

    def test_a_value_token_of_0xffff_is_not_end_of_block(self):
        row = np.zeros(64, dtype=np.int16)
        row[[0, 5]] = -32768, 9          # -32768 zig-zag-signs to 0xFFFF
        payload = entropy.encode_coefficients(row)
        assert payload.count(b"\xff\xff\x03") == 2   # the value, then the EOB
        np.testing.assert_array_equal(entropy.decode_coefficients(payload, 64), row)

    def test_non_int16_input_is_rejected(self):
        with pytest.raises(CorruptBitstreamError):
            entropy.encode_blocks(np.zeros((2, 64), dtype=np.int32))
        with pytest.raises(CorruptBitstreamError):
            entropy.encode_blocks(np.zeros(64, dtype=np.int16))


def random_image(seed: int, height: int, width: int, channels: int) -> Image:
    rng = np.random.default_rng(seed)
    base = rng.integers(0, 256, size=(height, width, channels))
    if seed % 2:    # smooth half the images so sparse blocks occur too
        base = (base + np.roll(base, 1, axis=0) + np.roll(base, 1, axis=1)) // 3
    return Image(pixels=base.astype(np.uint8))


class TestJpegAgainstTheOracle:
    @given(seed=st.integers(0, 10_000), height=st.integers(1, 40),
           width=st.integers(1, 40), channels=st.sampled_from([1, 3]),
           quality=st.integers(1, 100), left=st.integers(0, 39),
           top=st.integers(0, 39), roi_width=st.integers(1, 40),
           roi_height=st.integers(1, 40))
    @settings(max_examples=60, deadline=None)
    def test_stream_and_pixels_are_byte_identical(
            self, seed, height, width, channels, quality, left, top,
            roi_width, roi_height):
        image = random_image(seed, height, width, channels)
        codec = JpegCodec(quality=quality)
        encoded = codec.encode(image)
        assert encoded == oracle.jpeg_encode(image, quality)
        full = RegionOfInterest(0, 0, width, height)
        assert np.array_equal(codec.decode(encoded).pixels,
                              oracle.jpeg_decode_roi(encoded, full).pixels)
        roi = RegionOfInterest(left, top, roi_width, roi_height)
        partial = codec.decode_roi(encoded, roi).pixels
        expected = oracle.jpeg_decode_roi(encoded, roi).pixels
        assert partial.dtype == np.uint8 and partial.flags.c_contiguous
        assert partial.shape == expected.shape
        np.testing.assert_array_equal(partial, expected)

    @pytest.mark.parametrize("quality", [95, 100])
    def test_the_benchmarks_scale_matches_the_oracle(self, quality):
        """128 x 128 x 3: 768 blocks of mostly two-byte varints, where the
        hypothesis cases above stop at 40 px.  Full frame and the central
        window (block fraction 0.56), stream and pixels."""
        image = random_image(quality, 128, 128, 3)
        codec = JpegCodec(quality=quality)
        encoded = codec.encode(image)
        assert encoded == oracle.jpeg_encode(image, quality)
        assert encoded.num_blocks == 768
        for roi, fraction in ((RegionOfInterest(0, 0, 128, 128), 1.0),
                              (RegionOfInterest(21, 21, 86, 86), 0.5625)):
            assert codec.decoded_block_fraction(encoded, roi) == fraction
            np.testing.assert_array_equal(codec.decode_roi(encoded, roi).pixels,
                                          oracle.jpeg_decode_roi(encoded, roi).pixels)
        indices = np.arange(768)
        for chosen in (indices, indices[::-1], indices[5::3]):
            np.testing.assert_array_equal(
                entropy.decode_blocks(encoded.data, chosen, 64),
                oracle.decode_blocks(encoded.data, chosen, 64))
