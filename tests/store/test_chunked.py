"""Tests for the lossless chunked-array codec (repro.codecs.chunked)."""

import numpy as np
import pytest

from repro.codecs.chunked import decode_array, encode_array
from repro.errors import CorruptBitstreamError
from repro.utils.rng import deterministic_rng


@pytest.mark.parametrize("array", [
    np.array([], dtype=np.float64),
    np.array([1.5, -2.5, 0.0, np.nan, np.inf, -np.inf, -0.0]),
    deterministic_rng("chunk-f64").normal(size=1013),
    np.array([np.iinfo(np.int64).min, -1, 0, 1, np.iinfo(np.int64).max]),
    deterministic_rng("chunk-u8").integers(0, 256, size=(7, 5, 4, 3)).astype(np.uint8),
    np.arange(24, dtype=np.float32).reshape(2, 3, 4),
    np.int64(7) * np.ones((3,), dtype=np.int64),
])
def test_roundtrip_is_bit_exact(array):
    decoded = decode_array(encode_array(array))
    assert decoded.dtype == array.dtype
    assert decoded.shape == array.shape
    assert decoded.tobytes() == np.ascontiguousarray(array).tobytes()


def test_float_roundtrip_preserves_nan_bit_patterns():
    # Two distinct NaN payloads must survive as-is, not be canonicalized.
    bits = np.array([0x7FF8000000000001, 0x7FF8000000000002], dtype=np.int64)
    scores = bits.view(np.float64)
    decoded = decode_array(encode_array(scores))
    assert decoded.view(np.int64).tobytes() == bits.tobytes()


def test_decoded_chunks_are_read_only():
    decoded = decode_array(encode_array(np.arange(4.0)))
    with pytest.raises(ValueError):
        decoded[0] = 1.0


def test_rejects_non_chunk_payloads():
    with pytest.raises(CorruptBitstreamError):
        decode_array(b"definitely not a chunk")


def test_rejects_truncated_body():
    payload = encode_array(np.arange(1000.0))
    with pytest.raises(CorruptBitstreamError):
        decode_array(payload[:-10])


def test_rejects_length_mismatch():
    import struct
    import zlib

    # A header promising 8 float64s over a body holding only 4.
    header = (b"RCHU" + struct.pack("<B", 3) + b"<f8"
              + struct.pack("<B", 1) + struct.pack("<q", 8))
    body = zlib.compress(np.arange(4.0).tobytes())
    with pytest.raises(CorruptBitstreamError):
        decode_array(header + body)
