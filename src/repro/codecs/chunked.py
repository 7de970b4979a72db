"""Lossless chunked-array codec backing the rendition store.

The persistent store (:mod:`repro.store`) keeps decoded renditions and score
tables on disk as sequences of independently-decodable chunks, so a reader
can stream one shard's frames without materializing the whole array.  This
module provides the codec for those chunks: each is a self-describing array
payload -- a small header (dtype, shape) followed by a DEFLATE-compressed
body, the scheme :mod:`repro.codecs.png` applies to its row strips.  The
store writes each chunk as its own content-addressed object (one file, named
by its digest), so a reader loads only the chunks covering a frame range.

The codec is bit-exact for every numpy dtype the store uses (``uint8``
rendition pixels, ``float64``/``int64`` score tables, including NaN/inf bit
patterns), which is what lets warm, store-served query results be
bit-identical to cold recomputation.
"""

from __future__ import annotations

import struct
import zlib

import numpy as np

from repro.errors import CorruptBitstreamError

_MAGIC = b"RCHU"
_MAX_NDIM = 8

#: zlib level used for chunk bodies; level 1 keeps warm reads and writes fast
#: while still collapsing the long runs synthetic renditions contain.
_COMPRESSION_LEVEL = 1


def encode_array(array: np.ndarray) -> bytes:
    """Encode one array chunk losslessly (header + DEFLATE body)."""
    arr = np.ascontiguousarray(array)
    if arr.ndim > _MAX_NDIM:
        raise CorruptBitstreamError(
            f"chunk arrays support up to {_MAX_NDIM} dimensions, got {arr.ndim}"
        )
    dtype_name = arr.dtype.str.encode("ascii")
    header = bytearray()
    header += _MAGIC
    header += struct.pack("<B", len(dtype_name))
    header += dtype_name
    header += struct.pack("<B", arr.ndim)
    header += struct.pack(f"<{arr.ndim}q", *arr.shape) if arr.ndim else b""
    body = zlib.compress(arr.tobytes(), _COMPRESSION_LEVEL)
    return bytes(header) + body


def decode_array(payload: bytes) -> np.ndarray:
    """Decode one chunk back into the exact array that was encoded.

    The returned array is marked read-only so cached chunks can be shared
    between readers without defensive copies.
    """
    if len(payload) < 6 or payload[:4] != _MAGIC:
        raise CorruptBitstreamError("not a repro chunk payload")
    try:
        pos = 4
        dtype_len = payload[pos]
        pos += 1
        dtype = np.dtype(payload[pos:pos + dtype_len].decode("ascii"))
        pos += dtype_len
        ndim = payload[pos]
        pos += 1
        if ndim > _MAX_NDIM:
            raise CorruptBitstreamError(
                f"chunk payload claims {ndim} dimensions"
            )
        shape = struct.unpack_from(f"<{ndim}q", payload, pos) if ndim else ()
        pos += 8 * ndim
    except (IndexError, struct.error, TypeError,
            UnicodeDecodeError) as exc:
        raise CorruptBitstreamError(
            "chunk payload header is truncated or malformed"
        ) from exc
    try:
        raw = zlib.decompress(payload[pos:])
    except zlib.error as exc:
        raise CorruptBitstreamError("chunk body failed to inflate") from exc
    expected = int(np.prod(shape, dtype=np.int64)) * dtype.itemsize if ndim \
        else dtype.itemsize
    if len(raw) != expected:
        raise CorruptBitstreamError(
            f"chunk body is {len(raw)} bytes, header promises {expected}"
        )
    array = np.frombuffer(raw, dtype=dtype).reshape(shape)
    array.flags.writeable = False
    return array

