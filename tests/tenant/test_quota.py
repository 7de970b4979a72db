"""Tests for token-bucket rate limiting and the per-tenant quota gate."""

import pytest

from repro.errors import AdmissionError, QuotaExceededError, TenantError
from repro.tenant import QuotaGate, TenantConfig, TenantSpec
from repro.tenant.quota import TokenBucket


class FakeClock:
    """A manually advanced monotonic clock."""

    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


class TestTokenBucket:
    def test_validates_shape(self):
        with pytest.raises(TenantError):
            TokenBucket(rate_per_s=0.0, burst=1)
        with pytest.raises(TenantError):
            TokenBucket(rate_per_s=1.0, burst=0)

    def test_burst_admits_then_runs_dry(self):
        clock = FakeClock()
        bucket = TokenBucket(rate_per_s=1.0, burst=3, clock=clock)
        assert [bucket.try_acquire() for _ in range(4)] == [
            True, True, True, False]

    def test_refills_at_rate(self):
        clock = FakeClock()
        bucket = TokenBucket(rate_per_s=2.0, burst=2, clock=clock)
        assert bucket.try_acquire() and bucket.try_acquire()
        assert not bucket.try_acquire()
        clock.advance(0.5)  # earns exactly one token
        assert bucket.try_acquire()
        assert not bucket.try_acquire()

    def test_refill_caps_at_burst(self):
        clock = FakeClock()
        bucket = TokenBucket(rate_per_s=100.0, burst=2, clock=clock)
        clock.advance(60.0)
        assert bucket.tokens == pytest.approx(2.0)


class TestQuotaGate:
    def make_gate(self, clock, **spec_kwargs):
        config = TenantConfig(tenants=(
            TenantSpec(name="alpha", **spec_kwargs),
        ))
        return QuotaGate(config, clock=clock)

    def test_unknown_tenant_is_a_config_error(self):
        gate = self.make_gate(FakeClock())
        with pytest.raises(TenantError):
            gate.admit("nobody")

    def test_rate_throttle_is_an_admission_error_subclass(self):
        # Shed/retry loops built for queue pressure must treat quota
        # throttling the same way.
        assert issubclass(QuotaExceededError, AdmissionError)
        clock = FakeClock()
        gate = self.make_gate(clock, rate_per_s=1.0, burst=1)
        gate.admit("alpha")
        with pytest.raises(QuotaExceededError):
            gate.admit("alpha")
        clock.advance(1.0)
        gate.admit("alpha")
        stats = gate.stats()["alpha"]
        assert stats.admitted == 2
        assert stats.throttled_rate == 1
        assert stats.throttled == 1

    def test_in_flight_cap_frees_on_release(self):
        gate = self.make_gate(FakeClock(), max_in_flight=2)
        gate.admit("alpha")
        gate.admit("alpha")
        with pytest.raises(QuotaExceededError):
            gate.admit("alpha")
        gate.release("alpha")
        gate.admit("alpha")
        stats = gate.stats()["alpha"]
        assert stats.in_flight == 2
        assert stats.throttled_in_flight == 1

    def test_release_never_goes_negative(self):
        gate = self.make_gate(FakeClock())
        gate.release("alpha")
        gate.admit("alpha")
        assert gate.stats()["alpha"].in_flight == 1

    def test_default_spec_gets_its_own_books(self):
        config = TenantConfig(tenants=(TenantSpec(name="alpha"),))
        gate = QuotaGate(config, clock=FakeClock())
        gate.admit("*")
        assert gate.stats()["*"].admitted == 1
        assert gate.stats()["alpha"].admitted == 0

    def test_unlimited_spec_never_throttles(self):
        gate = self.make_gate(FakeClock())
        for _ in range(500):
            gate.admit("alpha")
        assert gate.stats()["alpha"].throttled == 0
