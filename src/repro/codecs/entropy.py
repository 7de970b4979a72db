"""Entropy coding for the lossy codecs.

Real JPEG uses Huffman coding of run-length encoded, zig-zag ordered DCT
coefficients.  We implement run-length encoding of zero runs followed by a
canonical variable-length integer packing.  The important behavioural
properties are preserved: compressed size shrinks with aggressive
quantization, decoding cost scales with the number of coded symbols, and the
stream is decodable block-by-block (which is what makes macroblock ROI
decoding possible).

This coder is intentionally byte-aligned per block: each block's payload is
independently decodable given its offset, mirroring JPEG restart markers.

Both directions are array programs over all the blocks asked for at once; a
lone block is their one-row case.  The per-varint loops they replaced are the
differential oracle in ``tests/codecs/scalar_oracle.py``.
"""

from __future__ import annotations

import struct

import numpy as np

from repro.errors import CorruptBitstreamError

_MAGIC = b"RPRE"  # repro run-length entropy stream
_TABLE_START = 8   # after the magic and the uint32 block count
# End-of-block marker: a run of 0xFFFF (an impossible run length for 64
# coefficient blocks) signals the remaining coefficients are zero.
_EOB = 0xFFFF


def encode_coefficients(flat_coeffs: np.ndarray) -> bytes:
    """Encode one block's zig-zag coefficient vector.

    Encoding: pairs of (zero-run length, value) with values stored as
    zig-zag-signed varints, terminated by an end-of-block marker.
    """
    return _encode_payloads(flat_coeffs[np.newaxis])[0].tobytes()


def decode_coefficients(payload: bytes, length: int) -> np.ndarray:
    """Decode one block's payload into a coefficient vector of ``length``."""
    edges = np.array([0, len(payload)])
    return _decode_payloads(np.frombuffer(payload, dtype=np.uint8), edges, length)[0]


def encode_blocks(coeffs: np.ndarray) -> bytes:
    """Encode ``(n, length)`` int16 coefficient rows into one packed stream:
    byte for byte ``pack_blocks`` of each row's :func:`encode_coefficients`."""
    payload, sizes = _encode_payloads(coeffs)
    return _index(sizes) + payload.tobytes()


def decode_blocks(data: bytes, block_indices: np.ndarray, length: int) -> np.ndarray:
    """Decode the chosen blocks of a packed stream into ``(n, length)`` int16,
    touching only those blocks' bytes (what makes ROI decoding cheap)."""
    count, payload_start = _read_header(data)
    if len(data) > np.iinfo(np.int32).max:
        raise CorruptBitstreamError("stream too large for 32-bit byte offsets")
    index = np.asarray(block_indices, dtype=np.intp).reshape(-1)
    if not len(index):
        return np.zeros((0, length), dtype=np.int16)
    if index.min() < 0 or index.max() >= count:
        raise CorruptBitstreamError(f"block index out of range [0, {count})")
    table = np.frombuffer(data, dtype="<u4", count=count + 1, offset=_TABLE_START)
    start = table.take(index).astype(np.intp)
    end = table.take(index + 1).astype(np.intp)
    if (start > end).any() or end.max() > len(data) - payload_start:
        raise CorruptBitstreamError("block offsets reversed or past the payload")
    edges = np.concatenate(([0], np.cumsum(end - start)))
    payload = np.frombuffer(data, dtype=np.uint8, offset=payload_start)
    if (index[1:] == index[:-1] + 1).all():
        # Neighbours in the stream (a full decode): their bytes are one slice.
        return _decode_payloads(payload[start[0]:end[-1]], edges, length)
    # Gather the chosen blocks' bytes back to back: output byte p of block b
    # comes from payload byte p + (start[b] - edges[b]).
    take = np.arange(edges[-1], dtype=np.int32)
    take += np.repeat((start - edges[:-1]).astype(np.int32), end - start)
    return _decode_payloads(payload.take(take), edges, length)


def _encode_payloads(coeffs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Payload bytes of all rows back to back, and each row's byte count."""
    if coeffs.ndim != 2 or coeffs.dtype != np.int16:
        raise CorruptBitstreamError("expected an (n, length) int16 coefficient array")
    blocks, length = coeffs.shape
    where = np.flatnonzero(coeffs)                       # row-major: by block, then position
    block, pos = np.divmod(where, length)
    value = coeffs.reshape(-1)[where].astype(np.int32)
    fresh = np.diff(block, prepend=-1) != 0              # a block's first non-zero
    run = np.where(fresh, pos, np.diff(pos, prepend=0) - 1)
    # Token stream: (run, value) per non-zero coefficient, one EOB per block.
    # A pair's slot is shifted by the EOBs of the blocks before its own.
    pairs_through = np.searchsorted(block, np.arange(blocks), side="right")
    tokens = np.empty(2 * len(pos) + blocks, dtype=np.int32)
    slot = 2 * np.arange(len(pos)) + block
    eob_slot = 2 * pairs_through + np.arange(blocks)
    tokens[slot] = run
    tokens[slot + 1] = (value << 1) ^ (value >> 31)      # zig-zag signing
    tokens[eob_slot] = _EOB
    # A varint is one to three 7-bit groups, low group first; a group
    # carries the continuation bit when another follows it.
    long2, long3 = tokens > 0x7F, tokens > 0x3FFF
    width = (1 + long2.view(np.uint8) + long3.view(np.uint8)).astype(np.intp)
    ends = np.cumsum(width)
    start = ends - width
    out = np.empty(ends[-1] if len(ends) else 0, dtype=np.uint8)
    out[start] = tokens.astype(np.uint8) & 0x7F | long2.view(np.uint8) << 7
    two = np.flatnonzero(long2)
    out[start[two] + 1] = tokens[two] >> 7 & 0x7F | long3[two].view(np.uint8) << 7
    three = two[long3[two]]
    out[start[three] + 2] = tokens[three] >> 14
    return out, np.diff(ends[eob_slot], prepend=0)


def _decode_payloads(buf: np.ndarray, edges: np.ndarray, length: int) -> np.ndarray:
    """Decode blocks lying back to back in ``buf``; block b is
    ``buf[edges[b]:edges[b + 1]]``.  Bytes after a block's EOB are ignored."""
    blocks = len(edges) - 1
    tokens, first, three, too_long = _varint_tokens(buf, edges)
    # Tokens alternate run, value from each block's first token; the first
    # run equal to EOB ends the block.  EOB is a three-byte varint and those
    # are few, so find each block's among them instead of scanning every token.
    marks = three[tokens.take(three) == _EOB]
    owner = np.searchsorted(first, marks, side="right") - 1
    is_run = (marks - first.take(owner)) & 1 == 0
    marks, owner = marks[is_run], owner[is_run]
    eob = marks[np.flatnonzero(np.diff(owner, prepend=-1))]
    if len(eob) != blocks:
        raise CorruptBitstreamError("truncated varint: block has no end-of-block")
    if (too_long <= eob.take(np.searchsorted(first, too_long, side="right") - 1)).any():
        raise CorruptBitstreamError("varint too long")
    # Without each block's EOB and the ignored tokens after it (rare) the
    # tokens are every block's (run, value) pairs back to back.
    keep = np.ones(len(tokens), dtype=bool)
    keep[eob] = False
    ignored = first[1:] - eob - 1
    skip = np.repeat(first[1:] - np.cumsum(ignored), ignored)
    keep[skip + np.arange(len(skip))] = False
    run, value = tokens[keep].reshape(-1, 2).T
    del tokens      # the largest array here: the sums below reuse its memory
    if value.max(initial=0) > 0xFFFF:
        raise CorruptBitstreamError("coefficient outside int16")
    # A coefficient's index is its block's running sum of (run + 1), less
    # one: sum over all pairs at once (in intp, which no corrupt run wraps),
    # then shift each block's sums to its row of the flattened output.
    total = np.zeros(len(run) + 1, dtype=np.intp)
    np.cumsum(run + 1, out=total[1:])
    pairs = (eob - first[:-1]) // 2
    through = np.cumsum(pairs)
    before = total.take(through - pairs)
    if (total.take(through) - before).max() > length:
        raise CorruptBitstreamError(f"coefficient index exceeds block length {length}")
    total[1:] += np.repeat(np.arange(0, blocks * length, length) - 1 - before, pairs)
    coeffs = np.zeros((blocks, length), dtype=np.int16)
    value = value.astype(np.uint16)     # fits; zig-zag unsigning wraps in 16 bits
    coeffs.reshape(-1)[total[1:]] = ((value >> 1) ^ -(value & 1)).view(np.int16)
    return coeffs


def _varint_tokens(buf: np.ndarray, edges: np.ndarray) -> tuple[np.ndarray, ...]:
    """Every varint of ``buf`` as an int32 token, the index of each block's
    first token (and, last, the token count), the indices of the tokens of
    three bytes or more, and of those of four or more: too long (the encoder
    writes no token above 0xFFFF), they hold only their first three groups."""
    # A block must end on a varint's last byte, or the varint would run on
    # into the next block (this also rejects an empty block).
    if (edges[1:] <= edges[:-1]).any() or (buf.take(edges[1:] - 1) & 0x80).any():
        raise CorruptBitstreamError("truncated varint")
    # A varint's last byte (continuation bit clear) is its high group, and
    # for most the whole token.  Continuation bytes are few: the one at p is
    # in token p - (continuation bytes before p), and begins it when the byte
    # before p ends one (before p = 0 that reads the final byte, which does).
    last = buf < 0x80
    tokens = buf[last].astype(np.int32)
    more = np.flatnonzero(~last)
    begins = last.take(more - 1)
    wide, at = (more - np.arange(len(more)))[begins], more[begins]
    tokens[wide] = buf.take(at) & 0x7F | (buf.take(at + 1) & 0x7F).astype(np.int32) << 7
    longer = ~last.take(at + 1)
    three, at = wide[longer], at[longer]
    tokens[three] |= (buf.take(at + 2) & 0x7F).astype(np.int32) << 14
    first = edges - np.searchsorted(more, edges)
    return tokens, first, three, three[~last.take(at + 2)]


def pack_blocks(block_payloads: list[bytes]) -> bytes:
    """Pack per-block payloads with an offset index for random access.

    Layout: magic, block count, uint32 offsets table, concatenated payloads.
    The offsets table is what enables macroblock ROI decoding: a decoder can
    seek straight to the blocks intersecting the region of interest.
    """
    sizes = np.array([len(payload) for payload in block_payloads], dtype=np.int64)
    return _index(sizes) + b"".join(block_payloads)


def unpack_block(data: bytes, block_index: int) -> bytes:
    """Extract the payload of a single block from a packed stream."""
    count, payload_start = _read_header(data)
    if not 0 <= block_index < count:
        raise CorruptBitstreamError(f"block index {block_index} out of range [0, {count})")
    start, end = struct.unpack_from("<II", data, _TABLE_START + 4 * block_index)
    if start > end or payload_start + end > len(data):
        raise CorruptBitstreamError(f"block {block_index} reversed or past the payload")
    return data[payload_start + start:payload_start + end]


def block_count(data: bytes) -> int:
    """Number of blocks in a packed stream."""
    return _read_header(data)[0]


def payload_size(data: bytes) -> int:
    """Total size in bytes of the packed coefficient payloads."""
    _, payload_start = _read_header(data)
    return struct.unpack_from("<I", data, payload_start - 4)[0]


def _index(sizes: np.ndarray) -> bytes:
    """Stream header for blocks of these byte sizes: magic, block count,
    each block's uint32 start offset, then the total for bounds checks."""
    edges = np.concatenate(([0], np.cumsum(sizes, dtype=np.int64)))
    if edges[-1] > 0xFFFFFFFF:
        raise CorruptBitstreamError("payloads exceed the uint32 offset range")
    return _MAGIC + struct.pack("<I", len(sizes)) + edges.astype("<u4").tobytes()


def _read_header(data: bytes) -> tuple[int, int]:
    """Block count and where the payloads start.  Between lies the table of
    uint32 block starts, then the total: block i spans entries i and i + 1."""
    if len(data) < _TABLE_START or data[:4] != _MAGIC:
        raise CorruptBitstreamError("not a repro entropy stream")
    count = struct.unpack_from("<I", data, 4)[0]
    payload_start = _TABLE_START + 4 * count + 4
    if len(data) < payload_start:
        raise CorruptBitstreamError("truncated offset table")
    return count, payload_start
