"""Tests for the block DCT / quantization building blocks."""

import numpy as np
import pytest

from repro.codecs import blocks as blk
from repro.errors import CodecError


class TestQuantTables:
    def test_quality_100_is_near_unity(self):
        table = blk.quality_to_quant_table(100)
        assert table.max() <= 2.0

    def test_lower_quality_quantizes_more(self):
        q25 = blk.quality_to_quant_table(25)
        q90 = blk.quality_to_quant_table(90)
        assert q25.mean() > q90.mean()

    def test_invalid_quality_rejected(self):
        with pytest.raises(CodecError):
            blk.quality_to_quant_table(0)


class TestBlockify:
    def test_roundtrip(self):
        rng = np.random.default_rng(0)
        channel = rng.integers(0, 255, size=(24, 32)).astype(np.float64)
        blocks = blk.blockify(channel)
        assert blocks.shape == (3, 4, 8, 8)
        np.testing.assert_array_equal(blocks[1, 2], channel[8:16, 16:24])
        np.testing.assert_array_equal(blocks.swapaxes(1, 2).reshape(24, 32), channel)

    def test_pad_to_blocks(self):
        channel = np.ones((10, 13))
        padded = blk.pad_to_blocks(channel)
        assert padded.shape == (16, 16)

    def test_blockify_requires_padded_input(self):
        with pytest.raises(CodecError):
            blk.blockify(np.ones((10, 16)))


class TestDctRoundtrip:
    def test_dct_idct_identity(self):
        rng = np.random.default_rng(1)
        blocks = rng.normal(size=(2, 3, 8, 8))
        recovered = blk.inverse_dct_blocks(blk.forward_dct_blocks(blocks))
        np.testing.assert_allclose(recovered, blocks, atol=1e-9)

    def test_quantize_dequantize_bounded_error(self):
        rng = np.random.default_rng(2)
        coeffs = rng.normal(scale=50, size=(4, 4, 8, 8))
        table = blk.quality_to_quant_table(75)
        recovered = blk.dequantize_blocks(blk.quantize_blocks(coeffs, table), table)
        assert np.max(np.abs(recovered - coeffs)) <= table.max() / 2 + 1e-9


class TestZigzag:
    def test_zigzag_is_a_permutation(self):
        assert sorted(blk.ZIGZAG.tolist()) == list(range(64))

    def test_zigzag_roundtrip(self):
        block = np.arange(64).reshape(8, 8)
        np.testing.assert_array_equal(
            blk.zigzag_unscan(blk.zigzag_scan(block)), block
        )

    def test_zigzag_starts_at_dc(self):
        block = np.arange(64).reshape(8, 8)
        assert blk.zigzag_scan(block)[0] == block[0, 0]
