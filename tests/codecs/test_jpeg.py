"""Tests for the JPEG-like codec and macroblock ROI decoding."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.codecs.image import Image
from repro.codecs.jpeg import JpegCodec
from repro.codecs.roi import RegionOfInterest
from repro.errors import CodecError


class TestEncodeDecode:
    def test_roundtrip_preserves_shape(self, small_image):
        codec = JpegCodec(quality=90)
        decoded = codec.decode(codec.encode(small_image))
        assert decoded.pixels.shape == small_image.pixels.shape

    def test_high_quality_has_high_psnr(self, small_image):
        codec = JpegCodec(quality=95)
        decoded = codec.decode(codec.encode(small_image))
        assert small_image.psnr(decoded) > 30.0

    def test_lower_quality_is_smaller_and_worse(self, small_image):
        hi = JpegCodec(quality=95)
        lo = JpegCodec(quality=40)
        encoded_hi = hi.encode(small_image)
        encoded_lo = lo.encode(small_image)
        assert encoded_lo.compressed_bytes < encoded_hi.compressed_bytes
        psnr_hi = small_image.psnr(hi.decode(encoded_hi))
        psnr_lo = small_image.psnr(lo.decode(encoded_lo))
        assert psnr_lo < psnr_hi

    def test_compression_beats_raw_size(self, small_image):
        encoded = JpegCodec(quality=75).encode(small_image)
        assert encoded.compressed_bytes < small_image.pixels.nbytes

    def test_invalid_quality_rejected(self):
        with pytest.raises(CodecError):
            JpegCodec(quality=0)

    def test_block_grid_dimensions(self, small_image):
        encoded = JpegCodec().encode(small_image)
        assert encoded.blocks_x == 8   # 64 / 8
        assert encoded.blocks_y == 6   # 48 / 8
        assert encoded.num_blocks == 8 * 6 * 3

    def test_non_multiple_of_eight_dimensions(self):
        image = Image(pixels=np.random.default_rng(0).integers(
            0, 255, size=(13, 21, 3)).astype(np.uint8))
        codec = JpegCodec(quality=90)
        decoded = codec.decode(codec.encode(image))
        assert decoded.pixels.shape == image.pixels.shape


class TestRoiDecoding:
    def test_roi_matches_full_decode_region(self, small_image):
        codec = JpegCodec(quality=90)
        encoded = codec.encode(small_image)
        roi = RegionOfInterest(left=16, top=8, width=24, height=16)
        full = codec.decode(encoded)
        partial = codec.decode_roi(encoded, roi)
        # The ROI decode covers the block-aligned expansion of the request;
        # the requested region must appear at the offset within it.
        offset_x = roi.left - (roi.left // 8) * 8
        offset_y = roi.top - (roi.top // 8) * 8
        region_from_partial = partial.pixels[
            offset_y:offset_y + roi.height, offset_x:offset_x + roi.width
        ]
        region_from_full = full.pixels[
            roi.top:roi.top + roi.height, roi.left:roi.left + roi.width
        ]
        np.testing.assert_array_equal(region_from_partial, region_from_full)

    def test_roi_decode_touches_fewer_blocks(self, small_image):
        codec = JpegCodec(quality=90)
        encoded = codec.encode(small_image)
        roi = RegionOfInterest(left=0, top=0, width=16, height=16)
        fraction = codec.decoded_block_fraction(encoded, roi)
        assert 0.0 < fraction < 0.2

    def test_full_frame_roi_fraction_is_one(self, small_image):
        codec = JpegCodec(quality=90)
        encoded = codec.encode(small_image)
        roi = RegionOfInterest(0, 0, small_image.width, small_image.height)
        assert codec.decoded_block_fraction(encoded, roi) == pytest.approx(1.0)


def test_a_process_that_has_only_decoded_keeps_its_gemms_on_one_thread():
    """The decoder's basis product is this process's first GEMM, so the
    decode itself pins the BLAS to the calling thread; no model need run."""
    script = (
        "import numpy as np\n"
        "from repro.codecs import Image, JpegCodec\n"
        "from repro.utils import blas\n"
        "assert blas._threads is None\n"
        "codec = JpegCodec(75)\n"
        "codec.decode(codec.encode(Image(pixels=np.zeros((16, 16, 3), np.uint8))))\n"
        "print(blas._threads, blas._loaded_blas_paths() != [])\n")
    src = str(Path(__file__).resolve().parents[2] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH"))))}
    done = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          timeout=60, env=env)
    assert done.returncode == 0, done.stderr
    threads, found = done.stdout.split()
    if found == "False":
        pytest.skip("no OpenBLAS mapped into this process")
    assert threads == "1"
