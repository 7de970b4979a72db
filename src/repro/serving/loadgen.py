"""Open-loop load generation for the serving layer.

An *open-loop* generator fires requests on a schedule drawn independently of
the server's progress (Poisson arrivals or periodic bursts), which is how
real traffic behaves and what exposes queueing delay -- a closed loop that
waits for each response before sending the next can never build a queue.
The report carries the standard serving scorecard: achieved throughput and
p50/p95/p99 latency.

All sampling -- arrival offsets and image choices -- goes through
:func:`repro.utils.rng.deterministic_rng`, keyed on the full schedule
parameters (pattern, rate, duration, seed), and is materialized up front as
an immutable :class:`ArrivalTrace`.  Repeated benches with the same seed
therefore replay the identical trace, and different schedule parameters
draw from independent streams instead of silently sharing one.
"""

from __future__ import annotations

import time
from concurrent.futures import Future
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.errors import AdmissionError, ServingError
from repro.obs.metrics import LatencySummary
from repro.serving.request import InferenceRequest, InferenceResponse
from repro.serving.server import SmolServer
from repro.utils.rng import deterministic_rng


def poisson_arrivals(rate_per_s: float, duration_s: float,
                     rng: np.random.Generator) -> list[float]:
    """Arrival offsets (seconds) of a Poisson process over ``duration_s``."""
    if rate_per_s <= 0 or duration_s <= 0:
        raise ServingError("rate and duration must be positive")
    times: list[float] = []
    now = 0.0
    while True:
        now += rng.exponential(1.0 / rate_per_s)
        if now >= duration_s:
            return times
        times.append(now)


def burst_arrivals(rate_per_s: float, duration_s: float,
                   burst_size: int) -> list[float]:
    """Bursty schedule: ``burst_size`` simultaneous arrivals at a fixed period
    chosen so the average rate still equals ``rate_per_s``."""
    if rate_per_s <= 0 or duration_s <= 0:
        raise ServingError("rate and duration must be positive")
    if burst_size <= 0:
        raise ServingError("burst_size must be positive")
    period = burst_size / rate_per_s
    times: list[float] = []
    now = 0.0
    while now < duration_s:
        times.extend([now] * burst_size)
        now += period
    return times


def diurnal_arrivals(rate_per_s: float, duration_s: float,
                     rng: np.random.Generator, depth: float = 0.8,
                     period_s: float | None = None) -> list[float]:
    """Non-homogeneous Poisson arrivals with a sinusoidal daily cycle.

    The instantaneous rate is ``rate * (1 + depth * sin(2*pi*t/period))``
    (mean ``rate``, peak ``rate * (1 + depth)``), sampled by Lewis-Shedler
    thinning: draw a homogeneous process at the peak rate and keep each
    arrival with probability ``lambda(t) / lambda_max``.  One ``period_s``
    defaults to the whole trace, so a trace is one compressed "day".
    """
    if rate_per_s <= 0 or duration_s <= 0:
        raise ServingError("rate and duration must be positive")
    if not 0.0 <= depth < 1.0:
        raise ServingError("depth must be in [0, 1)")
    period = duration_s if period_s is None else period_s
    if period <= 0:
        raise ServingError("period_s must be positive")
    peak = rate_per_s * (1.0 + depth)
    times: list[float] = []
    now = 0.0
    while True:
        now += rng.exponential(1.0 / peak)
        if now >= duration_s:
            return times
        instantaneous = rate_per_s * (
            1.0 + depth * np.sin(2.0 * np.pi * now / period))
        if rng.random() < instantaneous / peak:
            times.append(now)


def flash_crowd_arrivals(rate_per_s: float, duration_s: float,
                         rng: np.random.Generator,
                         multiplier: float = 8.0,
                         at_frac: float = 0.5,
                         width_frac: float = 0.1) -> list[float]:
    """Baseline Poisson traffic with a flash crowd in the middle.

    A second, independent Poisson process at ``rate * (multiplier - 1)``
    is superposed over the window centered at ``at_frac * duration`` with
    width ``width_frac * duration``, so inside the window the total rate
    is ``rate * multiplier`` -- the spike an isolation test floods with.
    """
    if rate_per_s <= 0 or duration_s <= 0:
        raise ServingError("rate and duration must be positive")
    if multiplier < 1.0:
        raise ServingError("multiplier must be >= 1")
    if not 0.0 <= at_frac <= 1.0 or not 0.0 < width_frac <= 1.0:
        raise ServingError("flash window must lie within the trace")
    base = poisson_arrivals(rate_per_s, duration_s, rng)
    if multiplier == 1.0:
        return base
    width = width_frac * duration_s
    start = min(max(at_frac * duration_s - width / 2.0, 0.0),
                duration_s - width)
    spike_rate = rate_per_s * (multiplier - 1.0)
    spike = [start + offset
             for offset in poisson_arrivals(spike_rate, width, rng)]
    return sorted(base + spike)


@dataclass(frozen=True)
class ArrivalTrace:
    """A fully materialized, deterministic request schedule.

    Attributes
    ----------
    pattern, rate_per_s, duration_s, seed:
        The schedule parameters the trace was drawn from (and the RNG key).
    offsets:
        Arrival times in seconds from the start of the run.
    choices:
        Index into the generator's image pool for each arrival.
    tenant:
        Originating tenant of every arrival ("" for single-tenant runs).
        A non-empty tenant is part of the RNG key, so each tenant of a
        multi-tenant mix draws from its own independent stream -- two
        tenants offered the same (pattern, rate, seed) no longer replay
        byte-identical schedules, and adding a tenant to a mix never
        perturbs another tenant's trace.
    """

    pattern: str
    rate_per_s: float
    duration_s: float
    seed: int
    offsets: tuple[float, ...]
    choices: tuple[int, ...]
    tenant: str = ""

    #: Arrival patterns :meth:`build` understands.
    PATTERNS = ("poisson", "burst", "diurnal", "flash")

    def __len__(self) -> int:
        return len(self.offsets)

    @classmethod
    def build(cls, pattern: str, rate_per_s: float, duration_s: float,
              pool_size: int, seed: int = 0, burst_size: int = 8,
              tenant: str = "") -> "ArrivalTrace":
        """Draw one trace; identical inputs always yield identical traces."""
        if pattern not in cls.PATTERNS:
            raise ServingError(f"unknown arrival pattern {pattern!r}")
        if pool_size <= 0:
            raise ServingError("pool_size must be positive")
        # The empty tenant keeps the legacy key so existing single-tenant
        # traces replay bit-identically across this change.
        if tenant:
            rng = deterministic_rng("loadgen", "tenant", tenant, pattern,
                                    rate_per_s, duration_s, seed=seed)
        else:
            rng = deterministic_rng("loadgen", pattern, rate_per_s,
                                    duration_s, seed=seed)
        if pattern == "poisson":
            offsets = poisson_arrivals(rate_per_s, duration_s, rng)
        elif pattern == "burst":
            offsets = burst_arrivals(rate_per_s, duration_s, burst_size)
        elif pattern == "diurnal":
            offsets = diurnal_arrivals(rate_per_s, duration_s, rng)
        else:
            offsets = flash_crowd_arrivals(rate_per_s, duration_s, rng)
        choices = rng.integers(0, pool_size, size=len(offsets))
        return cls(
            pattern=pattern, rate_per_s=rate_per_s, duration_s=duration_s,
            seed=seed, offsets=tuple(offsets),
            choices=tuple(int(c) for c in choices), tenant=tenant,
        )


@dataclass(frozen=True)
class LoadReport:
    """Scorecard of one load-generation run."""

    pattern: str
    offered: int
    submitted: int
    rejected: int
    completed: int
    cache_hits: int
    deadline_missed: int
    duration_s: float
    latency: LatencySummary

    @property
    def throughput(self) -> float:
        """Completed requests per second of wall time."""
        return self.completed / self.duration_s if self.duration_s > 0 else 0.0

    @property
    def shed_rate(self) -> float:
        """Fraction of offered requests rejected at admission."""
        return self.rejected / self.offered if self.offered else 0.0

    def describe(self) -> str:
        """Multi-line human-readable report."""
        return "\n".join([
            f"pattern:    {self.pattern}",
            f"offered:    {self.offered} requests over {self.duration_s:.2f}s",
            f"completed:  {self.completed} ({self.cache_hits} cached, "
            f"{self.deadline_missed} past deadline)",
            f"rejected:   {self.rejected} ({self.shed_rate * 100:.1f}% shed)",
            f"throughput: {self.throughput:,.0f} req/s",
            f"latency:    {self.latency.describe()}",
        ])


class LoadGenerator:
    """Drives a :class:`SmolServer` with synthetic open-loop traffic.

    Parameters
    ----------
    server:
        The serving facade under test.
    image_pool:
        The population of (image_id, payload) pairs requests draw from;
        repeats across requests are what exercise the prediction cache.
    format_name:
        Input rendition recorded on every request.
    seed:
        Seed for the arrival process and image choice.
    """

    def __init__(self, server: SmolServer,
                 image_pool: Sequence[tuple[str, np.ndarray | None]],
                 format_name: str = "full-jpeg", seed: int = 0) -> None:
        if not image_pool:
            raise ServingError("image_pool must be non-empty")
        self._server = server
        self._pool = list(image_pool)
        self._format_name = format_name
        self._seed = seed

    def trace(self, rate_per_s: float, duration_s: float,
              pattern: str = "poisson", burst_size: int = 8) -> ArrivalTrace:
        """The deterministic schedule :meth:`run` would replay."""
        return ArrivalTrace.build(pattern, rate_per_s, duration_s,
                                  pool_size=len(self._pool), seed=self._seed,
                                  burst_size=burst_size)

    def run(self, rate_per_s: float, duration_s: float,
            pattern: str = "poisson", burst_size: int = 8,
            deadline_s: float | None = None,
            shed_on_full: bool = False,
            time_scale: float = 1.0) -> LoadReport:
        """Offer traffic at ``rate_per_s`` for ``duration_s`` and wait it out.

        ``time_scale`` compresses the schedule's wall-clock footprint (0.1
        replays a 10-second trace in one second) without changing the drawn
        arrival pattern, so tests and benchmarks stay fast.
        """
        if time_scale <= 0:
            raise ServingError("time_scale must be positive")
        trace = self.trace(rate_per_s, duration_s, pattern=pattern,
                           burst_size=burst_size)

        futures: list[Future] = []
        rejected = 0
        start = time.monotonic()
        for offset, choice in zip(trace.offsets, trace.choices):
            target = start + offset * time_scale
            delay = target - time.monotonic()
            if delay > 0:
                time.sleep(delay)
            image_id, payload = self._pool[int(choice)]
            request = InferenceRequest(
                image_id=image_id, payload=payload,
                format_name=self._format_name, deadline_s=deadline_s,
            )
            try:
                futures.append(
                    self._server.submit(request, block=not shed_on_full)
                )
            except AdmissionError:
                rejected += 1
        responses: list[InferenceResponse] = [
            future.result(timeout=60.0) for future in futures
        ]
        elapsed = time.monotonic() - start
        return LoadReport(
            pattern=pattern,
            offered=len(trace),
            submitted=len(futures),
            rejected=rejected,
            completed=len(responses),
            cache_hits=sum(1 for r in responses if r.cached),
            deadline_missed=sum(1 for r in responses if r.deadline_missed),
            duration_s=elapsed,
            latency=LatencySummary.from_seconds(
                [r.latency_s for r in responses]
            ),
        )


@dataclass(frozen=True)
class TenantLoadSpec:
    """One tenant's offered traffic in a multi-tenant mix."""

    tenant: str
    rate_per_s: float
    pattern: str = "poisson"
    deadline_s: float | None = None
    burst_size: int = 8

    def __post_init__(self) -> None:
        if not self.tenant:
            raise ServingError("tenant must be non-empty")
        if self.rate_per_s <= 0:
            raise ServingError("rate_per_s must be positive")
        if self.pattern not in ArrivalTrace.PATTERNS:
            raise ServingError(f"unknown arrival pattern {self.pattern!r}")


@dataclass(frozen=True)
class MultiTenantLoadReport:
    """Scorecard of one multi-tenant run: one :class:`LoadReport` per tenant."""

    tenants: dict[str, LoadReport]
    duration_s: float

    @property
    def offered(self) -> int:
        """Total requests offered across all tenants."""
        return sum(r.offered for r in self.tenants.values())

    @property
    def completed(self) -> int:
        """Total requests completed across all tenants."""
        return sum(r.completed for r in self.tenants.values())

    def describe(self) -> str:
        """One summary line per tenant."""
        lines = [f"mixed load: {self.offered} offered over "
                 f"{self.duration_s:.2f}s"]
        for tenant in sorted(self.tenants):
            report = self.tenants[tenant]
            lines.append(
                f"  {tenant:<12} {report.pattern:<8} "
                f"completed {report.completed:>6} "
                f"(shed {report.rejected}), {report.latency.describe()}")
        return "\n".join(lines)


class MultiTenantLoadGenerator:
    """Replays several tenants' independent traces against one server.

    Each :class:`TenantLoadSpec` draws its own :class:`ArrivalTrace`
    (tenant-keyed RNG stream); the merged schedule interleaves them by
    arrival time with the tenant name as a deterministic tiebreak, so a
    mix replays identically run to run.
    """

    def __init__(self, server: SmolServer,
                 image_pool: Sequence[tuple[str, np.ndarray | None]],
                 specs: Sequence[TenantLoadSpec],
                 format_name: str = "full-jpeg", seed: int = 0) -> None:
        if not image_pool:
            raise ServingError("image_pool must be non-empty")
        if not specs:
            raise ServingError("specs must be non-empty")
        names = [spec.tenant for spec in specs]
        if len(set(names)) != len(names):
            raise ServingError(f"duplicate tenants in mix: {sorted(names)}")
        self._server = server
        self._pool = list(image_pool)
        self._specs = list(specs)
        self._format_name = format_name
        self._seed = seed

    def traces(self, duration_s: float) -> dict[str, ArrivalTrace]:
        """The deterministic per-tenant schedules :meth:`run` replays."""
        return {
            spec.tenant: ArrivalTrace.build(
                spec.pattern, spec.rate_per_s, duration_s,
                pool_size=len(self._pool), seed=self._seed,
                burst_size=spec.burst_size, tenant=spec.tenant,
            )
            for spec in self._specs
        }

    def run(self, duration_s: float, time_scale: float = 1.0,
            shed_on_full: bool = True) -> MultiTenantLoadReport:
        """Offer every tenant's trace concurrently and wait the mix out.

        Quota throttles (:class:`~repro.errors.QuotaExceededError` is an
        :class:`AdmissionError`) and queue sheds both count as rejected
        for the tenant that offered the request.
        """
        if time_scale <= 0:
            raise ServingError("time_scale must be positive")
        traces = self.traces(duration_s)
        deadlines = {spec.tenant: spec.deadline_s for spec in self._specs}
        merged = sorted(
            (offset, trace.tenant, int(choice))
            for trace in traces.values()
            for offset, choice in zip(trace.offsets, trace.choices)
        )
        futures: dict[str, list[Future]] = {t: [] for t in traces}
        rejected = {t: 0 for t in traces}
        start = time.monotonic()
        for offset, tenant, choice in merged:
            target = start + offset * time_scale
            delay = target - time.monotonic()
            if delay > 0:
                time.sleep(delay)
            image_id, payload = self._pool[choice]
            request = InferenceRequest(
                image_id=image_id, payload=payload,
                format_name=self._format_name,
                deadline_s=deadlines[tenant], tenant=tenant,
            )
            try:
                futures[tenant].append(
                    self._server.submit(request, block=not shed_on_full)
                )
            except AdmissionError:
                rejected[tenant] += 1
        responses = {
            tenant: [future.result(timeout=60.0) for future in pending]
            for tenant, pending in futures.items()
        }
        elapsed = time.monotonic() - start
        reports = {}
        for spec in self._specs:
            tenant = spec.tenant
            answered = responses[tenant]
            reports[tenant] = LoadReport(
                pattern=spec.pattern,
                offered=len(traces[tenant]),
                submitted=len(futures[tenant]),
                rejected=rejected[tenant],
                completed=len(answered),
                cache_hits=sum(1 for r in answered if r.cached),
                deadline_missed=sum(
                    1 for r in answered if r.deadline_missed),
                duration_s=elapsed,
                latency=LatencySummary.from_seconds(
                    [r.latency_s for r in answered]
                ),
            )
        return MultiTenantLoadReport(tenants=reports, duration_s=elapsed)
