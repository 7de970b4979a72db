"""Tests for the diurnal and flash-crowd arrival patterns and the traces
built from them."""

import pytest

from repro.errors import ServingError
from repro.serving.loadgen import (
    ArrivalTrace,
    diurnal_arrivals,
    flash_crowd_arrivals,
    poisson_arrivals,
)
from repro.utils.rng import deterministic_rng


def rng(seed=0):
    return deterministic_rng("loadgen-tenant-test", seed=seed)


class TestDiurnalArrivals:
    def test_validates_shape(self):
        with pytest.raises(ServingError):
            diurnal_arrivals(0.0, 1.0, rng())
        with pytest.raises(ServingError):
            diurnal_arrivals(10.0, 1.0, rng(), depth=1.0)
        with pytest.raises(ServingError):
            diurnal_arrivals(10.0, 1.0, rng(), period_s=0.0)

    def test_mean_rate_is_preserved(self):
        times = diurnal_arrivals(200.0, 50.0, rng())
        assert len(times) == pytest.approx(200.0 * 50.0, rel=0.1)
        assert all(0.0 <= t < 50.0 for t in times)
        assert times == sorted(times)

    def test_peak_half_outdraws_trough_half(self):
        # sin is positive over the first half-period and negative over
        # the second, so with one period per trace the first half must
        # carry visibly more arrivals.
        times = diurnal_arrivals(200.0, 50.0, rng(), depth=0.9)
        first = sum(1 for t in times if t < 25.0)
        second = len(times) - first
        assert first > second * 1.3

    def test_zero_depth_is_plain_poisson(self):
        times = diurnal_arrivals(100.0, 20.0, rng(), depth=0.0)
        assert len(times) == pytest.approx(100.0 * 20.0, rel=0.15)


class TestFlashCrowdArrivals:
    def test_validates_shape(self):
        with pytest.raises(ServingError):
            flash_crowd_arrivals(10.0, 1.0, rng(), multiplier=0.5)
        with pytest.raises(ServingError):
            flash_crowd_arrivals(10.0, 1.0, rng(), width_frac=0.0)

    def test_spike_window_concentrates_arrivals(self):
        times = flash_crowd_arrivals(50.0, 20.0, rng(), multiplier=10.0,
                                     at_frac=0.5, width_frac=0.1)
        window = sum(1 for t in times if 9.0 <= t < 11.0)
        # The 10% window at 10x rate carries about half of all traffic.
        assert window / len(times) > 0.3
        assert times == sorted(times)

    def test_multiplier_one_is_plain_poisson(self):
        times = flash_crowd_arrivals(50.0, 20.0, rng(), multiplier=1.0)
        assert len(times) == pytest.approx(50.0 * 20.0, rel=0.15)


class TestTraces:
    def test_traces_replay_bit_identically(self):
        one = ArrivalTrace.build("diurnal", 80.0, 5.0, pool_size=32, seed=3)
        two = ArrivalTrace.build("diurnal", 80.0, 5.0, pool_size=32, seed=3)
        assert one == two

    def test_a_trace_draws_from_its_schedule_key(self):
        key_rng = deterministic_rng("loadgen", "poisson", 100.0, 5.0, seed=7)
        expected = tuple(poisson_arrivals(100.0, 5.0, key_rng))
        trace = ArrivalTrace.build("poisson", 100.0, 5.0, pool_size=32,
                                   seed=7)
        assert trace.offsets == expected

    def test_flash_pattern_builds_through_the_trace(self):
        trace = ArrivalTrace.build("flash", 60.0, 5.0, pool_size=8, seed=1)
        assert len(trace) > 0
        assert all(0 <= c < 8 for c in trace.choices)
