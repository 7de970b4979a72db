"""Per-tenant admission quotas: token-bucket rate limits + in-flight caps.

The :class:`TokenBucket` is the textbook shaper: capacity ``burst``
tokens, refilled continuously at ``rate_per_s``, one token per admitted
request.  It is clock-injected so tests (and the hypothesis monotonicity
property) drive it with a virtual clock.

Admission-count monotonicity is a real theorem of this implementation and
the property suite gates it: replaying any arrival sequence against a
bucket with an equal-or-greater (rate, burst) admits a superset-sized
prefix at every step.  The inductive invariant is
``admitted_hi >= admitted_lo`` *and* ``admitted_hi + tokens_hi >=
admitted_lo + tokens_lo`` -- each refill preserves the second clause
(the bigger bucket refills at least as fast and caps at least as high),
and each arrival either keeps both counts in step or spends from the
bigger bucket's provable surplus.

:class:`QuotaGate` holds one bucket and one in-flight counter per
configured tenant and is what the server consults on every submit.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass

from repro.errors import QuotaExceededError, TenantError

__all__ = ["TokenBucket", "QuotaGate", "TenantQuotaStats"]


class TokenBucket:
    """Continuous-refill token bucket (``rate_per_s`` tokens/s, cap ``burst``).

    Not thread-safe on its own; :class:`QuotaGate` serializes access.
    """

    def __init__(self, rate_per_s: float, burst: int,
                 clock=time.monotonic) -> None:
        if rate_per_s <= 0:
            raise TenantError("rate_per_s must be positive")
        if burst < 1:
            raise TenantError("burst must be at least 1")
        self._rate = rate_per_s
        self._burst = float(burst)
        self._clock = clock
        self._tokens = float(burst)
        self._refilled_at = clock()

    @property
    def tokens(self) -> float:
        """Tokens available right now (refilled to the current clock)."""
        self._refill(self._clock())
        return self._tokens

    def _refill(self, now: float) -> None:
        elapsed = now - self._refilled_at
        if elapsed > 0:
            self._tokens = min(self._burst,
                               self._tokens + elapsed * self._rate)
        self._refilled_at = now

    def try_acquire(self, now: float | None = None) -> bool:
        """Spend one token if available; False when the bucket is dry."""
        self._refill(self._clock() if now is None else now)
        if self._tokens >= 1.0:
            self._tokens -= 1.0
            return True
        return False


@dataclass(frozen=True)
class TenantQuotaStats:
    """Lifetime admission counters for one tenant."""

    tenant: str
    admitted: int
    throttled_rate: int
    throttled_in_flight: int
    in_flight: int

    @property
    def throttled(self) -> int:
        """Total requests shed by this tenant's quota."""
        return self.throttled_rate + self.throttled_in_flight


class _TenantState:
    """Mutable quota state of one ``TenantSpec`` (guarded by the gate's lock)."""

    __slots__ = ("spec", "bucket", "in_flight", "admitted",
                 "throttled_rate", "throttled_in_flight")

    def __init__(self, spec, clock) -> None:
        self.spec = spec
        self.bucket = (TokenBucket(spec.rate_per_s, spec.burst, clock=clock)
                       if spec.rate_per_s is not None else None)
        self.in_flight = 0
        self.admitted = 0
        self.throttled_rate = 0
        self.throttled_in_flight = 0


class QuotaGate:
    """Admission quotas for every tenant of a ``TenantConfig``.

    Built by :meth:`~repro.tenant.spec.TenantConfig.quota_gate` (this
    module does not import the spec module, so the config can build its
    own gate).  ``admit`` raises
    :class:`~repro.errors.QuotaExceededError` when the tenant's token
    bucket is dry or its in-flight cap is reached; a successful admit
    must be paired with exactly one :meth:`release` when the request
    resolves, fails, or is cancelled.
    """

    def __init__(self, config, clock=time.monotonic) -> None:
        self._lock = threading.Lock()
        self._states = {spec.name: _TenantState(spec, clock)
                        for spec in config.all_specs()}

    def admit(self, tenant: str, now: float | None = None) -> None:
        """Charge one request against ``tenant``'s quota or raise."""
        with self._lock:
            state = self._states.get(tenant)
            if state is None:
                raise TenantError(f"no quota state for tenant {tenant!r}")
            spec = state.spec
            if spec.max_in_flight is not None \
                    and state.in_flight >= spec.max_in_flight:
                state.throttled_in_flight += 1
                raise QuotaExceededError(
                    f"tenant {tenant!r} at its in-flight cap "
                    f"({spec.max_in_flight})")
            if state.bucket is not None \
                    and not state.bucket.try_acquire(now):
                state.throttled_rate += 1
                raise QuotaExceededError(
                    f"tenant {tenant!r} exceeded its admission rate "
                    f"({spec.rate_per_s}/s, burst {spec.burst})")
            state.in_flight += 1
            state.admitted += 1

    def release(self, tenant: str) -> None:
        """Return one in-flight slot (request resolved or failed)."""
        with self._lock:
            state = self._states.get(tenant)
            if state is not None and state.in_flight > 0:
                state.in_flight -= 1

    def stats(self) -> dict[str, TenantQuotaStats]:
        """Per-tenant lifetime admission counters."""
        with self._lock:
            return {
                name: TenantQuotaStats(
                    tenant=name, admitted=state.admitted,
                    throttled_rate=state.throttled_rate,
                    throttled_in_flight=state.throttled_in_flight,
                    in_flight=state.in_flight,
                )
                for name, state in self._states.items()
            }
