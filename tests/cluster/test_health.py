"""Tests for the per-replica circuit breaker."""

import pytest

from repro.cluster import CircuitBreaker
from repro.cluster.health import BreakerState
from repro.errors import ClusterError


class FakeClock:
    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


@pytest.fixture()
def clock():
    return FakeClock()


@pytest.fixture()
def breaker(clock):
    return CircuitBreaker(failure_threshold=3, cooldown_s=1.0, clock=clock)


class TestCircuitBreaker:
    def test_starts_closed_and_allows(self, breaker):
        assert breaker.state is BreakerState.CLOSED
        assert breaker.would_allow()
        assert breaker.allow()

    def test_opens_after_consecutive_failures(self, breaker):
        for _ in range(2):
            breaker.record_failure()
        assert breaker.state is BreakerState.CLOSED
        breaker.record_failure()
        assert breaker.state is BreakerState.OPEN
        assert not breaker.allow()
        assert not breaker.would_allow()

    def test_success_resets_the_streak(self, breaker):
        breaker.record_failure()
        breaker.record_failure()
        breaker.record_success()
        breaker.record_failure()
        breaker.record_failure()
        assert breaker.state is BreakerState.CLOSED

    def test_half_open_after_cooldown_admits_one_probe(self, breaker, clock):
        for _ in range(3):
            breaker.record_failure()
        clock.advance(1.0)
        assert breaker.state is BreakerState.HALF_OPEN
        assert breaker.allow()       # the probe
        assert not breaker.allow()   # only one probe
        assert not breaker.would_allow()

    def test_probe_success_closes(self, breaker, clock):
        for _ in range(3):
            breaker.record_failure()
        clock.advance(1.0)
        assert breaker.allow()
        breaker.record_success()
        assert breaker.state is BreakerState.CLOSED
        assert breaker.allow()

    def test_probe_failure_reopens_immediately(self, breaker, clock):
        for _ in range(3):
            breaker.record_failure()
        clock.advance(1.0)
        assert breaker.allow()
        breaker.record_failure()
        assert breaker.state is BreakerState.OPEN
        assert not breaker.would_allow()

    def test_would_allow_does_not_consume_the_probe(self, breaker, clock):
        for _ in range(3):
            breaker.record_failure()
        clock.advance(1.0)
        assert breaker.would_allow()
        assert breaker.would_allow()
        assert breaker.allow()

    def test_trip_forces_open(self, breaker):
        breaker.trip()
        assert breaker.state is BreakerState.OPEN
        assert not breaker.allow()

    def test_snapshot_counters(self, breaker, clock):
        breaker.record_success()
        for _ in range(3):
            breaker.record_failure()
        snap = breaker.snapshot()
        assert snap.state is BreakerState.OPEN
        assert snap.total_successes == 1
        assert snap.total_failures == 3
        assert snap.opened_count == 1

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ClusterError):
            CircuitBreaker(failure_threshold=0)
        with pytest.raises(ClusterError):
            CircuitBreaker(cooldown_s=-1.0)
