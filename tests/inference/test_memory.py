"""Tests for the engine's batch-slot accounting."""

import pytest

from repro.inference.memory import MemoryStats


class TestMemoryStats:
    def test_reuse_fraction_is_the_share_of_requests_not_allocated(self):
        stats = MemoryStats(allocations=1, reuses=3)
        assert stats.reuse_fraction == pytest.approx(0.75)

    def test_reuse_fraction_of_an_idle_run_is_zero(self):
        assert MemoryStats().reuse_fraction == 0.0
