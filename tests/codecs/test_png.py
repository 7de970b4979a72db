"""Tests for the PNG-like lossless codec and early stopping."""

import zlib

import numpy as np
import pytest

from repro.codecs.png import PngCodec
from repro.codecs.roi import RegionOfInterest
from repro.errors import CodecError


class TestLosslessRoundtrip:
    def test_exact_reconstruction(self, small_image):
        codec = PngCodec()
        decoded = codec.decode(codec.encode(small_image))
        np.testing.assert_array_equal(decoded.pixels, small_image.pixels)

    def test_compression_beats_raw_for_smooth_content(self, small_image):
        encoded = PngCodec().encode(small_image)
        assert encoded.compressed_bytes < small_image.pixels.nbytes

    def test_strip_count(self, small_image):
        encoded = PngCodec(strip_rows=16).encode(small_image)
        assert encoded.num_strips == 3  # 48 rows / 16

    @pytest.mark.parametrize("strip_rows", [1, 7, 16, 48])
    def test_every_strip_is_zlib_level_6(self, small_image, strip_rows):
        # The level is a constant, not an option: re-compressing each
        # strip's payload at level 6 reproduces its bytes exactly.
        encoded = PngCodec(strip_rows=strip_rows).encode(small_image)
        assert encoded.num_strips == -(-48 // strip_rows)
        for strip in encoded.strips:
            assert zlib.compress(zlib.decompress(strip), 6) == strip

    def test_invalid_strip_rows_rejected(self):
        with pytest.raises(CodecError):
            PngCodec(strip_rows=0)


class TestEarlyStopping:
    def test_decode_rows_prefix_matches_full(self, small_image):
        codec = PngCodec(strip_rows=8)
        encoded = codec.encode(small_image)
        prefix = codec.decode_rows(encoded, 20)
        assert prefix.height == 20
        np.testing.assert_array_equal(prefix.pixels,
                                      small_image.pixels[:20])

    def test_decode_rows_clamps_to_height(self, small_image):
        codec = PngCodec()
        encoded = codec.encode(small_image)
        assert codec.decode_rows(encoded, 10_000).height == small_image.height

    def test_decode_rows_requires_positive(self, small_image):
        codec = PngCodec()
        encoded = codec.encode(small_image)
        with pytest.raises(CodecError):
            codec.decode_rows(encoded, 0)

    def test_roi_decode_returns_requested_region(self, small_image):
        codec = PngCodec(strip_rows=8)
        encoded = codec.encode(small_image)
        roi = RegionOfInterest(left=10, top=12, width=20, height=16)
        decoded = codec.decode_roi(encoded, roi)
        np.testing.assert_array_equal(
            decoded.pixels, small_image.pixels[12:28, 10:30]
        )

    def test_row_fraction_smaller_for_top_rois(self, small_image):
        codec = PngCodec()
        encoded = codec.encode(small_image)
        top_roi = RegionOfInterest(0, 0, 16, 8)
        bottom_roi = RegionOfInterest(0, 36, 16, 8)
        assert (codec.decoded_row_fraction(encoded, top_roi)
                < codec.decoded_row_fraction(encoded, bottom_roi))
