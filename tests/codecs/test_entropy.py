"""Tests for the run-length / varint entropy coder."""

import struct

import numpy as np
import pytest

from repro.codecs import entropy
from repro.errors import CorruptBitstreamError


class TestCoefficientCoding:
    def test_roundtrip_dense(self):
        coeffs = np.arange(-32, 32, dtype=np.int16)
        payload = entropy.encode_coefficients(coeffs)
        np.testing.assert_array_equal(
            entropy.decode_coefficients(payload, 64), coeffs
        )

    def test_roundtrip_sparse(self):
        coeffs = np.zeros(64, dtype=np.int16)
        coeffs[0] = 100
        coeffs[17] = -5
        coeffs[63] = 3
        payload = entropy.encode_coefficients(coeffs)
        np.testing.assert_array_equal(
            entropy.decode_coefficients(payload, 64), coeffs
        )

    def test_sparse_blocks_compress_better(self):
        sparse = np.zeros(64, dtype=np.int16)
        sparse[0] = 12
        dense = np.arange(1, 65, dtype=np.int16)
        assert len(entropy.encode_coefficients(sparse)) < len(
            entropy.encode_coefficients(dense)
        )

    def test_all_zero_block(self):
        coeffs = np.zeros(64, dtype=np.int16)
        payload = entropy.encode_coefficients(coeffs)
        np.testing.assert_array_equal(
            entropy.decode_coefficients(payload, 64), coeffs
        )

    def test_truncated_payload_rejected(self):
        payload = entropy.encode_coefficients(np.arange(64, dtype=np.int16))
        with pytest.raises(CorruptBitstreamError):
            entropy.decode_coefficients(payload[:2], 64)


class TestBlockPacking:
    def test_pack_and_unpack_each_block(self):
        payloads = [
            entropy.encode_coefficients(
                np.full(64, i, dtype=np.int16)
            )
            for i in range(5)
        ]
        packed = entropy.pack_blocks(payloads)
        assert entropy.block_count(packed) == 5
        for i in range(5):
            decoded = entropy.decode_coefficients(entropy.unpack_block(packed, i), 64)
            assert decoded[0] == i

    def test_out_of_range_block_rejected(self):
        packed = entropy.pack_blocks(
            [entropy.encode_coefficients(np.zeros(64, dtype=np.int16))]
        )
        with pytest.raises(CorruptBitstreamError):
            entropy.unpack_block(packed, 3)

    def test_bad_magic_rejected(self):
        with pytest.raises(CorruptBitstreamError):
            entropy.block_count(b"NOPE" + b"\x00" * 16)

    def test_payload_size_reported(self):
        payloads = [entropy.encode_coefficients(np.zeros(64, dtype=np.int16))] * 3
        packed = entropy.pack_blocks(payloads)
        assert entropy.payload_size(packed) == sum(len(p) for p in payloads)

    def test_unpack_reads_only_the_two_offsets_it_needs(self, monkeypatch):
        packed = entropy.pack_blocks([bytes([i]) * (i + 1) for i in range(50)])
        formats = []
        real = struct.unpack_from

        def spy(fmt, *args):
            formats.append(fmt)
            return real(fmt, *args)

        monkeypatch.setattr(entropy.struct, "unpack_from", spy)
        assert entropy.unpack_block(packed, 49) == bytes([49]) * 50
        assert entropy.unpack_block(packed, 0) == b"\x00"
        assert entropy.payload_size(packed) == sum(range(1, 51))
        assert set(formats) <= {"<I", "<II"}

    def test_reversed_block_bounds_rejected(self):
        packed = bytearray(entropy.pack_blocks([b"aaaa", b"bb", b"c"]))
        struct.pack_into("<I", packed, 8 + 4, 7)     # block 1 now starts at 7 > its end 6
        with pytest.raises(CorruptBitstreamError):
            entropy.unpack_block(bytes(packed), 1)
        assert entropy.unpack_block(bytes(packed), 2) == b"c"

    def test_block_past_the_payload_rejected(self):
        packed = entropy.pack_blocks([b"aaaa", b"bb", b"c"])
        assert entropy.unpack_block(packed, 2) == b"c"
        with pytest.raises(CorruptBitstreamError):
            entropy.unpack_block(packed[:-1], 2)     # silently short before
        assert entropy.unpack_block(packed[:-1], 1) == b"bb"

    def test_truncated_offset_table_rejected(self):
        packed = entropy.pack_blocks([b"aaaa", b"bb", b"c"])
        for cut in (9, 14, 20):
            with pytest.raises(CorruptBitstreamError):
                entropy.unpack_block(packed[:cut], 2)
            with pytest.raises(CorruptBitstreamError):
                entropy.payload_size(packed[:cut])
