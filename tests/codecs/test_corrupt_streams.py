"""Corrupt-stream fuzz for the array entropy decoder.

Damaged input must end in one of two ways: the coefficients the scalar
oracle reads from the same bytes, or ``CorruptBitstreamError`` -- never
another exception type, a hang, or a wrong-shaped array.  The array
decoder may be *stricter* than the oracle (it refuses varints wider than
the encoder ever writes, and blocks whose trailing bytes are cut mid-varint),
so "oracle decodes, array path refuses" is allowed; the reverse is not.
"""

import dataclasses
import struct

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import scalar_oracle as oracle
from repro.codecs import entropy
from repro.codecs.image import Image
from repro.codecs.jpeg import JpegCodec
from repro.codecs.roi import RegionOfInterest
from repro.errors import CodecError, CorruptBitstreamError

EOB = b"\xff\xff\x03"


def outcome(decode, *args):
    """The decoded array, or None for ``CorruptBitstreamError``; any other
    exception propagates and fails the test."""
    try:
        return decode(*args)
    except CorruptBitstreamError:
        return None


def assert_oracle_or_corrupt(stream: bytes, indices, length: int = 64):
    got = outcome(entropy.decode_blocks, stream, indices, length)
    if got is None:
        return None
    expected = outcome(oracle.decode_blocks, stream, indices, length)
    assert expected is not None, "array path decoded what the oracle refuses"
    assert got.dtype == np.int16 and got.shape == (len(indices), length)
    np.testing.assert_array_equal(got, expected)
    return got


def damage(stream: bytes, rng: np.random.Generator) -> bytes:
    """Truncate, flip or splice ``stream`` (one to three times over)."""
    data = bytearray(stream)
    for _ in range(rng.integers(1, 4)):
        kind = rng.integers(0, 4)
        at = int(rng.integers(0, len(data) + 1))
        if kind == 0:
            del data[at:]
        elif kind == 1 and data:
            data[at % len(data)] ^= int(rng.integers(1, 256))
        elif kind == 2:     # splice in bytes from elsewhere in the stream
            source = int(rng.integers(0, len(data) + 1))
            data[at:at] = data[source:source + int(rng.integers(1, 9))]
        else:               # cut a span out
            del data[at:at + int(rng.integers(1, 9))]
    return bytes(data)


class TestDamagedStreams:
    @given(seed=st.integers(0, 100_000))
    @settings(max_examples=300, deadline=None)
    def test_decode_blocks_matches_the_oracle_or_refuses(self, seed):
        rng = np.random.default_rng(seed)
        blocks = int(rng.integers(1, 12))
        rows = oracle.coefficient_rows(seed, blocks, 64)
        stream = damage(entropy.encode_blocks(rows), rng)
        assert_oracle_or_corrupt(stream, np.arange(blocks))
        assert_oracle_or_corrupt(stream, rng.integers(0, blocks, size=5))
        # Payload-only damage keeps the index intact, so the blocks that
        # still decode are compared value for value far more often.
        header = 12 + 4 * blocks
        intact = entropy.encode_blocks(rows)
        stream = intact[:header] + damage(intact[header:], rng)
        assert_oracle_or_corrupt(stream, np.arange(blocks))
        for index in range(blocks):
            assert_oracle_or_corrupt(stream, [index])

    @given(seed=st.integers(0, 100_000))
    @settings(max_examples=60, deadline=None)
    def test_jpeg_decode_matches_the_oracle_or_refuses(self, seed):
        rng = np.random.default_rng(seed)
        image = Image(pixels=rng.integers(0, 256, size=(19, 27, 3)).astype(np.uint8))
        encoded = JpegCodec(quality=int(rng.integers(1, 101))).encode(image)
        header = 12 + 4 * encoded.num_blocks
        data = encoded.data[:header] + damage(encoded.data[header:], rng)
        broken = dataclasses.replace(encoded, data=data)
        roi = RegionOfInterest(0, 0, image.width, image.height)
        got = outcome(JpegCodec().decode, broken)
        if got is not None:
            expected = outcome(oracle.jpeg_decode_roi, broken, roi)
            assert expected is not None
            np.testing.assert_array_equal(got.pixels, expected.pixels)


def varint(value: int, pad_to: int = 0) -> bytes:
    """``value`` as a varint, zero-padded (non-canonically) to ``pad_to`` bytes."""
    out = bytearray()
    oracle.write_varint(out, value)
    while len(out) < pad_to:
        out[-1] |= 0x80
        out.append(0)
    return bytes(out)


class TestHandBuiltStreams:
    def decode_one(self, payload: bytes):
        """One block through every entry point; all must agree."""
        stream = entropy.pack_blocks([payload])
        whole = assert_oracle_or_corrupt(stream, [0])
        single = outcome(entropy.decode_coefficients, payload, 64)
        assert (whole is None) == (single is None)
        if whole is not None:
            np.testing.assert_array_equal(whole[0], single)
        return single

    def test_padded_varints_up_to_three_bytes_decode_as_written(self):
        payload = varint(2, pad_to=2) + varint(5, pad_to=3) + varint(0xFFFF)
        decoded = self.decode_one(payload)
        assert decoded[2] == -3 and np.count_nonzero(decoded) == 1

    @pytest.mark.parametrize("payload", [
        varint(2, pad_to=4) + varint(5) + EOB,          # run wider than 3 bytes
        varint(2) + varint(5, pad_to=5) + EOB,          # value wider than 3 bytes
        varint(2) + varint(5) + varint(0xFFFF, pad_to=4),   # padded EOB
        varint(2) + varint(5) + b"\x80" * 11 + b"\x00",     # > 10 bytes: oracle refuses too
    ], ids=["wide-run", "wide-value", "wide-eob", "eleven-bytes"])
    def test_a_varint_wider_than_three_bytes_is_too_long(self, payload):
        assert self.decode_one(payload) is None

    @pytest.mark.parametrize("payload", [
        b"",                                            # empty block
        varint(1) + varint(4),                          # no EOB
        varint(1) + varint(4) + varint(3),              # odd token count, no EOB
        varint(1) + varint(4) + b"\xff\xff",            # EOB cut short
        varint(1) + b"\x84",                            # last byte continues
        varint(1) + varint(0xFFFF) + varint(0),         # value 0xFFFF, then no EOB
    ], ids=["empty", "no-eob", "odd-tokens", "cut-eob", "dangling", "value-ffff"])
    def test_a_block_without_end_of_block_is_truncated(self, payload):
        assert self.decode_one(payload) is None
        with pytest.raises(CorruptBitstreamError):
            oracle.decode_coefficients(payload, 64)

    @pytest.mark.parametrize("payload", [
        varint(64) + varint(2) + EOB,                   # run >= 64
        varint(0xFFFE) + varint(2) + EOB,               # run one short of the marker
        varint(60) + varint(2) + varint(3) + varint(2) + EOB,   # runs add up past 63
        b"".join(varint(0) + varint(2) for _ in range(65)) + EOB,   # 65 coefficients
    ], ids=["run-64", "run-fffe", "sum-past-63", "65-pairs"])
    def test_a_coefficient_index_past_the_block_is_refused(self, payload):
        assert self.decode_one(payload) is None

    def test_a_value_outside_int16_is_refused(self):
        assert self.decode_one(varint(0) + varint(0x10000) + EOB) is None
        assert self.decode_one(varint(0) + varint(0x1FFFFF) + EOB) is None

    def test_bytes_after_end_of_block_are_ignored(self):
        payload = varint(3) + varint(8) + EOB + b"\x85\x01\x7f"
        decoded = self.decode_one(payload)
        assert decoded[3] == 4 and np.count_nonzero(decoded) == 1
        # ... unless they are cut mid-varint: the array path refuses, the
        # oracle (which never looks past the EOB) still decodes.
        assert self.decode_one(payload + b"\x85") is None
        assert oracle.decode_coefficients(payload + b"\x85", 64)[3] == 4

    def decode_many(self, payloads):
        """Several blocks through the one-slice path, the gather path and
        alone; a block's outcome must not depend on its neighbours."""
        stream = entropy.pack_blocks(payloads)
        count = len(payloads)
        whole = assert_oracle_or_corrupt(stream, np.arange(count))
        gathered = assert_oracle_or_corrupt(stream, np.arange(count)[::-1])
        alone = [assert_oracle_or_corrupt(stream, [index]) for index in range(count)]
        assert (whole is None) == (gathered is None) == any(one is None for one in alone)
        if whole is not None:
            np.testing.assert_array_equal(whole, gathered[::-1])
            np.testing.assert_array_equal(whole, np.concatenate(alone))
        return whole

    DENSE = b"".join(varint(0) + varint(2 * k + 1) for k in range(64)) + EOB
    SPARSE = varint(5) + varint(8) + varint(57) + varint(3) + EOB

    def test_bytes_after_a_middle_blocks_end_of_block_are_ignored(self):
        middle = varint(3) + varint(8) + EOB + b"\x85\x01\x7f\xff\xff\x03\x02"
        decoded = self.decode_many([self.DENSE, middle, self.SPARSE])
        assert decoded[1, 3] == 4 and np.count_nonzero(decoded[1]) == 1
        np.testing.assert_array_equal(decoded[0], -np.arange(1, 65))
        assert decoded[2, 5] == 4 and decoded[2, 63] == -2
        # Cut mid-varint, the middle block would run on into its neighbour.
        assert self.decode_many([self.DENSE, middle + b"\x85", self.SPARSE]) is None

    def test_an_all_zero_block_between_two_dense_ones(self):
        decoded = self.decode_many([self.DENSE, EOB, self.DENSE, EOB, EOB, self.SPARSE])
        assert not decoded[[1, 3, 4]].any()
        np.testing.assert_array_equal(decoded[0], decoded[2])
        assert np.count_nonzero(decoded[0]) == 64 and np.count_nonzero(decoded[5]) == 2

    def test_a_three_byte_value_then_end_of_block(self):
        # 0xFFFE and 0xFFFF are three-byte values (32767 and -32768): the
        # second is the EOB's own bytes, at a value's place.
        block = varint(0) + varint(0xFFFE) + varint(0) + varint(0xFFFF) + EOB
        decoded = self.decode_many([self.SPARSE, block, block + b"\x00", EOB])
        for row in decoded[1:3]:
            assert list(row[:3]) == [32767, -32768, 0] and np.count_nonzero(row) == 2

    @pytest.mark.parametrize("pairs", [1100, 2048])
    def test_runs_that_would_wrap_a_32_bit_sum_are_refused(self, pairs):
        # 1 100 runs of 0x1FFFFF sum past 2**31, and 2 048 of them (each
        # counts run + 1) to 2**32 exactly: a wrapped sum would read the
        # block as ending on a valid index.
        block = (varint(0x1FFFFF) + varint(2)) * pairs + EOB
        assert len(block) == 4 * pairs + 3
        assert self.decode_many([self.SPARSE, block, self.DENSE]) is None
        assert self.decode_many([block]) is None
        with pytest.raises(CorruptBitstreamError, match="coefficient index exceeds"):
            entropy.decode_coefficients(block, 64)

    def test_a_four_byte_varint_counts_only_before_end_of_block(self):
        wide = varint(5, pad_to=4)
        after = self.decode_many([self.DENSE, varint(3) + varint(8) + EOB + wide + varint(1),
                                  self.SPARSE])
        assert after[1, 3] == 4 and np.count_nonzero(after[1]) == 1
        assert self.decode_many([self.DENSE, wide + varint(8) + EOB, self.SPARSE]) is None
        assert self.decode_many([self.DENSE, varint(3) + wide + EOB, self.SPARSE]) is None
        # ... in its own block only: the next block's decoder never sees it.
        assert self.decode_many([EOB + wide, wide + varint(8) + EOB]) is None
        assert self.decode_many([EOB + wide, varint(3) + varint(8) + EOB]) is not None

    def test_bad_index_tables_are_refused(self):
        rows = oracle.coefficient_rows(3, 4, 64)
        stream = entropy.encode_blocks(rows)
        table = list(struct.unpack_from("<5I", stream, 8))

        def with_table(entries):
            return stream[:8] + struct.pack("<5I", *entries) + stream[28:]

        reversed_pair = table.copy()
        reversed_pair[1], reversed_pair[2] = table[2], table[1]
        past_payload = table[:4] + [table[4] + 1]
        for broken in (with_table(reversed_pair), with_table(past_payload),
                       b"NOPE" + stream[4:], stream[:20], stream[:7]):
            for indices in ([0, 1, 2, 3], [1], [3]):
                assert_oracle_or_corrupt(broken, indices)
        with pytest.raises(CorruptBitstreamError):
            entropy.decode_blocks(with_table(reversed_pair), [1], 64)
        with pytest.raises(CorruptBitstreamError):
            entropy.decode_blocks(with_table(past_payload), [3], 64)
        for bad_index in ([4], [-1], [0, 7]):
            with pytest.raises(CorruptBitstreamError):
                entropy.decode_blocks(stream, bad_index, 64)
        # Blocks the damage does not touch still decode.
        np.testing.assert_array_equal(
            entropy.decode_blocks(with_table(past_payload), [0, 1, 2], 64), rows[:3])


@pytest.mark.parametrize("field, value", [("blocks_x", 4), ("blocks_y", 2), ("blocks_x", 6)])
def test_a_block_grid_that_disagrees_with_the_frame_is_refused(field, value):
    """A window past the grid must not be cut to fit it (nor a grid past the
    stream read): a 40x24 frame is 5x3 blocks."""
    rng = np.random.default_rng(0)
    image = Image(pixels=rng.integers(0, 256, size=(24, 40, 3)).astype(np.uint8))
    encoded = dataclasses.replace(JpegCodec().encode(image), **{field: value})
    with pytest.raises(CodecError):
        JpegCodec().decode(encoded)
    with pytest.raises(CodecError):
        JpegCodec().decode_roi(encoded, RegionOfInterest(30, 14, 10, 10))
