"""A clock-free guard against a per-block loop coming back.

The JPEG-like codec is one array program per image: its call pattern must
not depend on how many blocks the image has.  Timing would say so only on a
quiet host; counting calls says so deterministically.
"""

import gc
import sys

import numpy as np
import pytest

from repro.codecs import blocks as blk
from repro.codecs import entropy
from repro.codecs.image import Image
from repro.codecs.jpeg import JpegCodec
from repro.codecs.roi import RegionOfInterest

COUNTED = [(blk, "forward_dct_blocks"), (blk, "inverse_dct_blocks"),
           (entropy, "encode_blocks"), (entropy, "decode_blocks")]
# Python-level function calls one encode / decode / ROI decode may make,
# numpy's and scipy's Python wrappers included.  The array program makes
# about 75 (encode) and 120 (decode); the per-block loop it replaced made
# over 2 000 on the 12-block image below.
MAX_PYTHON_CALLS = 200


def image_of_blocks(side: int) -> Image:
    rng = np.random.default_rng(side)
    return Image(pixels=rng.integers(0, 256, size=(8 * side, 8 * side, 3))
                 .astype(np.uint8))


def python_calls(function, *args):
    calls = 0

    def profiler(frame, event, arg):
        nonlocal calls
        calls += event == "call"

    collecting = gc.isenabled()
    gc.disable()        # a collection would count other tests' finalizers
    sys.setprofile(profiler)
    try:
        result = function(*args)
    finally:
        sys.setprofile(None)
        if collecting:
            gc.enable()
    return calls, result


@pytest.fixture()
def counters(monkeypatch):
    counts = dict.fromkeys((name for _, name in COUNTED), 0)

    def counted(name, real):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return real(*args, **kwargs)
        return wrapper

    for module, name in COUNTED:
        monkeypatch.setattr(module, name, counted(name, getattr(module, name)))
    return counts


def test_calls_do_not_grow_with_the_block_count(counters):
    codec = JpegCodec(quality=90)
    codec.decode(codec.encode(image_of_blocks(1)))      # first-call imports
    per_size = {}
    for side in (2, 16):        # 4 and 256 blocks per channel
        image = image_of_blocks(side)
        roi = RegionOfInterest(3, 3, 8 * side - 6, 8 * side - 6)
        for name in counters:
            counters[name] = 0
        encode_calls, encoded = python_calls(codec.encode, image)
        decode_calls, decoded = python_calls(codec.decode, encoded)
        roi_calls, _ = python_calls(codec.decode_roi, encoded, roi)
        assert decoded.pixels.shape == image.pixels.shape
        assert counters == {"forward_dct_blocks": 1, "encode_blocks": 1,
                            "inverse_dct_blocks": 2, "decode_blocks": 2}
        per_size[side] = (encode_calls, decode_calls, roi_calls)
    assert per_size[2] == per_size[16]
    assert max(per_size[16]) <= MAX_PYTHON_CALLS
