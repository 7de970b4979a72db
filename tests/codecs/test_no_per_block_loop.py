"""A clock-free guard against a per-block loop coming back.

The JPEG-like codec is one array program per image: its call pattern must
not depend on how many blocks the image has.  Timing would say so only on a
quiet host; counting calls says so deterministically.
"""

import gc
import sys
import threading

import numpy as np
import pytest

from repro.codecs import blocks as blk
from repro.codecs import entropy
from repro.codecs.image import Image
from repro.codecs.jpeg import JpegCodec, _block_window, _decode_plan
from repro.codecs.roi import RegionOfInterest

COUNTED = [(blk, "forward_dct_blocks"), (blk, "inverse_dct_blocks"),
           (entropy, "encode_blocks"), (entropy, "decode_blocks")]
# Python-level function calls one encode / decode / ROI decode may make,
# numpy's and scipy's Python wrappers included.  The array program makes 93
# (encode), 136 (a decode that builds its geometry's plan, 118 with the plan
# cached; 141 before the decoder's passes were halved, which is a saving in
# passes over token-sized arrays, not in calls) and 115 (ROI decode); the
# per-block loop it replaced made over 2 000 on a 12-block image.  The count
# must not grow.
MAX_PYTHON_CALLS = 150


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
        _decode_plan.cache_clear()      # the decode builds its plan, whatever ran before
        encode_calls, encoded = python_calls(codec.encode, image)
        decode_calls, decoded = python_calls(codec.decode, encoded)
        roi_calls, _ = python_calls(codec.decode_roi, encoded, roi)
        assert decoded.pixels.shape == image.pixels.shape
        assert counters == {"forward_dct_blocks": 1, "encode_blocks": 1,
                            "inverse_dct_blocks": 2, "decode_blocks": 2}
        per_size[side] = (encode_calls, decode_calls, roi_calls)
    assert per_size[2] == per_size[16]
    assert max(per_size[16]) <= MAX_PYTHON_CALLS


def test_concurrent_decodes_share_the_plan():
    """Every thread decodes through one process-wide cache of plans: mixed
    geometries and ROIs from four threads, switching every 10 us, must be
    byte-identical to the serial decodes, and nothing a plan holds is
    writable."""
    codec = JpegCodec(quality=95)
    jobs = []
    for side in (3, 5, 16):
        encoded = codec.encode(image_of_blocks(side))
        size = 8 * side
        for roi in (RegionOfInterest(0, 0, size, size),
                    RegionOfInterest(5, 9, size // 2, size // 3),
                    RegionOfInterest(size // 4, size // 4, size // 2, size // 2)):
            jobs.append((encoded, roi))
    _decode_plan.cache_clear()      # the threads race to build every plan
    results = [[None] * len(jobs) for _ in range(4)]

    def worker(mine, offset):
        for step in range(3 * len(jobs)):
            index = (offset + step) % len(jobs)
            mine[index] = codec.decode_roi(*jobs[index]).pixels

    threads = [threading.Thread(target=worker, args=(results[k], 2 * k)) for k in range(4)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    serial = [codec.decode_roi(*job).pixels for job in jobs]
    for mine in results:
        for got, expected in zip(mine, serial):
            assert got.tobytes() == expected.tobytes() and got.shape == expected.shape
    windows = {(job[0].blocks_x, _block_window(*job)) for job in jobs}
    assert _decode_plan.cache_info().currsize == len(windows) >= 7
    plan = _decode_plan(95, 3, 16, 16, 0, 0, 16, 16)
    assert [array.flags.writeable for array in plan] == [False, False]
    with pytest.raises(ValueError):
        plan[0][0] = 1
