"""Unified metrics: counters, gauges, fixed-bucket histograms, percentiles.

This module is the single home of the stack's numeric instrumentation:
the exact linear-interpolated :func:`percentile`, the serving latency
scorecard built on it (:class:`LatencySummary` / :class:`LatencyRecorder`
keep every sample -- serving is judged on p95/p99, and an O(n log n) sort
per snapshot is exact and cheap at these sample counts), and the
Prometheus-shaped instruments below.

Three instrument kinds, deliberately Prometheus-shaped:

* :class:`Counter` -- monotonically increasing float total.
* :class:`Gauge` -- a value that goes up and down (queue depth, cache bytes).
* :class:`Histogram` -- fixed-bucket distribution with exact count/sum/min/max
  and bucket-interpolated quantiles.  Fixed buckets keep ``observe`` O(log b)
  and allocation-free, which matters on the serving hot loop.

Instruments are registered in a :class:`MetricsRegistry` keyed by
``(name, labels)``; the registry renders the Prometheus text exposition
format via :func:`repro.obs.export.prometheus_text`.
"""

from __future__ import annotations

import bisect
import threading
from dataclasses import dataclass
from typing import Callable

__all__ = [
    "percentile",
    "LatencySummary",
    "LatencyRecorder",
    "StageEvent",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "DEFAULT_BUCKETS",
]


def percentile(sorted_samples: list[float], q: float) -> float:
    """Exact linear-interpolated percentile ``q`` in [0, 100] of sorted data."""
    if not sorted_samples:
        raise ValueError("percentile of empty sample set")
    if not 0.0 <= q <= 100.0:
        raise ValueError("q must be in [0, 100]")
    if len(sorted_samples) == 1:
        return sorted_samples[0]
    rank = (len(sorted_samples) - 1) * q / 100.0
    low = int(rank)
    high = min(low + 1, len(sorted_samples) - 1)
    frac = rank - low
    return sorted_samples[low] * (1 - frac) + sorted_samples[high] * frac


@dataclass(frozen=True)
class LatencySummary:
    """Order statistics over a set of latency samples, in milliseconds."""

    count: int
    mean_ms: float
    p50_ms: float
    p95_ms: float
    p99_ms: float
    max_ms: float

    @classmethod
    def empty(cls) -> "LatencySummary":
        """Summary for zero samples (all statistics zero)."""
        return cls(count=0, mean_ms=0.0, p50_ms=0.0, p95_ms=0.0,
                   p99_ms=0.0, max_ms=0.0)

    @classmethod
    def from_seconds(cls, samples: list[float]) -> "LatencySummary":
        """Summarize latency samples given in seconds."""
        if not samples:
            return cls.empty()
        ordered = sorted(s * 1000.0 for s in samples)
        return cls(
            count=len(ordered),
            mean_ms=sum(ordered) / len(ordered),
            p50_ms=percentile(ordered, 50.0),
            p95_ms=percentile(ordered, 95.0),
            p99_ms=percentile(ordered, 99.0),
            max_ms=ordered[-1],
        )

    def describe(self) -> str:
        """One-line human-readable summary."""
        return (f"n={self.count} mean={self.mean_ms:.2f}ms "
                f"p50={self.p50_ms:.2f}ms p95={self.p95_ms:.2f}ms "
                f"p99={self.p99_ms:.2f}ms max={self.max_ms:.2f}ms")


class LatencyRecorder:
    """Thread-safe accumulator of latency samples (seconds in, ms out)."""

    def __init__(self) -> None:
        self._samples: list[float] = []
        self._lock = threading.Lock()

    def record(self, seconds: float) -> None:
        """Record one latency sample in seconds."""
        if seconds < 0:
            raise ValueError("latency cannot be negative")
        with self._lock:
            self._samples.append(seconds)

    def extend(self, seconds: list[float]) -> None:
        """Record many latency samples at once."""
        if any(s < 0 for s in seconds):
            raise ValueError("latency cannot be negative")
        with self._lock:
            self._samples.extend(seconds)

    def __len__(self) -> int:
        with self._lock:
            return len(self._samples)

    def summary(self) -> LatencySummary:
        """Summarize everything recorded so far."""
        with self._lock:
            samples = list(self._samples)
        return LatencySummary.from_seconds(samples)


@dataclass(frozen=True)
class StageEvent:
    """One batch's worth of work attributed to a pipeline stage.

    The stage-event bus on :class:`repro.obs.Observability` carries these;
    ``adapt.AdaptiveController`` turns them into
    :class:`~repro.adapt.calibrator.StageObservation` records, so the
    adaptive loop consumes the same events the metrics registry counts.
    """

    stage: str
    subject: str
    images: int
    seconds: float
    source: str = ""


#: Default latency buckets in seconds (1 ms .. 60 s), Prometheus-style.
DEFAULT_BUCKETS: tuple[float, ...] = (
    0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1,
    0.25, 0.5, 1.0, 2.5, 5.0, 10.0, 30.0, 60.0,
)


class Counter:
    """A monotonically increasing total.

    ``inc`` accepts floats so modelled-seconds totals can ride the same
    instrument as event counts.
    """

    __slots__ = ("name", "labels", "_value", "_lock")

    kind = "counter"

    def __init__(self, name: str, labels: tuple[tuple[str, str], ...] = ()):
        self.name = name
        self.labels = labels
        self._value = 0.0
        self._lock = threading.Lock()

    def inc(self, amount: float = 1.0) -> None:
        """Add ``amount`` (must be non-negative) to the total."""
        if amount < 0:
            raise ValueError("counter increments must be non-negative")
        with self._lock:
            self._value += amount

    @property
    def value(self) -> float:
        """Current total."""
        with self._lock:
            return self._value


class Gauge:
    """A value that can move in both directions (depth, bytes, ratio)."""

    __slots__ = ("name", "labels", "_value", "_lock")

    kind = "gauge"

    def __init__(self, name: str, labels: tuple[tuple[str, str], ...] = ()):
        self.name = name
        self.labels = labels
        self._value = 0.0
        self._lock = threading.Lock()

    def set(self, value: float) -> None:
        """Replace the gauge's value."""
        with self._lock:
            self._value = float(value)

    def add(self, delta: float) -> None:
        """Move the gauge by ``delta`` (either sign)."""
        with self._lock:
            self._value += delta

    @property
    def value(self) -> float:
        """Current value."""
        with self._lock:
            return self._value


class Histogram:
    """Fixed-bucket histogram with exact count/sum/min/max.

    Quantiles interpolate linearly within the bucket containing the target
    rank -- the standard Prometheus approximation.  Exact order statistics
    (when every sample is retained) stay with :func:`percentile`; this class
    trades exactness for O(1) memory on unbounded streams.
    """

    __slots__ = ("name", "labels", "bounds", "_counts", "_count", "_sum",
                 "_min", "_max", "_lock")

    kind = "histogram"

    def __init__(self, name: str,
                 labels: tuple[tuple[str, str], ...] = (),
                 buckets: tuple[float, ...] = DEFAULT_BUCKETS):
        if not buckets or list(buckets) != sorted(set(buckets)):
            raise ValueError("buckets must be sorted, unique, and non-empty")
        self.name = name
        self.labels = labels
        self.bounds = tuple(float(b) for b in buckets)
        # One overflow bucket past the last bound (+Inf in Prometheus terms).
        self._counts = [0] * (len(self.bounds) + 1)
        self._count = 0
        self._sum = 0.0
        self._min = float("inf")
        self._max = float("-inf")
        self._lock = threading.Lock()

    def observe(self, value: float) -> None:
        """Record one sample."""
        index = bisect.bisect_left(self.bounds, value)
        with self._lock:
            self._counts[index] += 1
            self._count += 1
            self._sum += value
            if value < self._min:
                self._min = value
            if value > self._max:
                self._max = value

    @property
    def count(self) -> int:
        """Number of samples observed."""
        with self._lock:
            return self._count

    @property
    def sum(self) -> float:
        """Sum of all observed samples."""
        with self._lock:
            return self._sum

    def bucket_counts(self) -> list[int]:
        """Per-bucket sample counts (last entry is the overflow bucket)."""
        with self._lock:
            return list(self._counts)

    def quantile(self, q: float) -> float:
        """Bucket-interpolated quantile ``q`` in [0, 100]."""
        if not 0.0 <= q <= 100.0:
            raise ValueError("q must be in [0, 100]")
        with self._lock:
            if self._count == 0:
                return 0.0
            target = self._count * q / 100.0
            cumulative = 0
            for index, bucket_count in enumerate(self._counts):
                previous = cumulative
                cumulative += bucket_count
                if cumulative >= target and bucket_count:
                    low = self.bounds[index - 1] if index else min(
                        self._min, self.bounds[0])
                    high = (self.bounds[index]
                            if index < len(self.bounds) else self._max)
                    frac = (target - previous) / bucket_count
                    return min(low + (high - low) * frac, self._max)
            return self._max

    def summary(self) -> dict[str, float]:
        """Count, sum, mean, min/max and p50/p95/p99 in one dict."""
        with self._lock:
            count, total = self._count, self._sum
        if count == 0:
            return {"count": 0, "sum": 0.0, "mean": 0.0, "min": 0.0,
                    "max": 0.0, "p50": 0.0, "p95": 0.0, "p99": 0.0}
        return {
            "count": count,
            "sum": total,
            "mean": total / count,
            "min": self._min,
            "max": self._max,
            "p50": self.quantile(50.0),
            "p95": self.quantile(95.0),
            "p99": self.quantile(99.0),
        }


def _label_key(labels: dict[str, str]) -> tuple[tuple[str, str], ...]:
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


class MetricsRegistry:
    """Get-or-create registry of instruments keyed by ``(name, labels)``."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._instruments: dict[tuple, object] = {}

    def _get(self, cls, name: str, labels: dict[str, str], **kwargs):
        key = (cls.kind, name, _label_key(labels))
        with self._lock:
            instrument = self._instruments.get(key)
            if instrument is None:
                instrument = cls(name, key[2], **kwargs)
                self._instruments[key] = instrument
            return instrument

    def counter(self, name: str, **labels: str) -> Counter:
        """Get or create the counter ``name`` with ``labels``."""
        return self._get(Counter, name, labels)

    def gauge(self, name: str, **labels: str) -> Gauge:
        """Get or create the gauge ``name`` with ``labels``."""
        return self._get(Gauge, name, labels)

    def histogram(self, name: str,
                  buckets: tuple[float, ...] = DEFAULT_BUCKETS,
                  **labels: str) -> Histogram:
        """Get or create the histogram ``name`` with ``labels``."""
        return self._get(Histogram, name, labels, buckets=buckets)

    def instruments(self) -> list:
        """Stable snapshot of all registered instruments, sorted by key."""
        with self._lock:
            items = sorted(self._instruments.items())
        return [instrument for _, instrument in items]

    def snapshot(self) -> dict[str, float]:
        """Flat ``name{labels} -> value`` view (histograms report counts)."""
        result: dict[str, float] = {}
        for instrument in self.instruments():
            label_text = ",".join(f"{k}={v}" for k, v in instrument.labels)
            key = (f"{instrument.name}{{{label_text}}}"
                   if label_text else instrument.name)
            if isinstance(instrument, Histogram):
                result[key] = float(instrument.count)
            else:
                result[key] = instrument.value
        return result


class ArenaStats:
    """Process-wide counters of a layer that compiles programs over
    per-thread arenas: programs compiled, arena bytes alive now.

    The layer counts as it runs; :meth:`publish` mirrors the two onto a
    registry under the layer's metric names, with the layer's own gauges
    (``name=callable`` read at publish time) beside them.
    """

    def __init__(self, compiles_metric: str, bytes_metric: str,
                 **gauges: Callable[[], float]) -> None:
        self._metrics = (compiles_metric, bytes_metric)
        self._gauges = gauges
        self._lock = threading.Lock()
        self._compiles = 0
        self._arena_bytes = 0

    @property
    def compiles(self) -> int:
        """Programs compiled so far."""
        with self._lock:
            return self._compiles

    @property
    def arena_bytes(self) -> int:
        """Bytes held by the arenas alive now, over every owner and thread."""
        with self._lock:
            return self._arena_bytes

    def _count_compile(self) -> None:
        with self._lock:
            self._compiles += 1

    def _hold(self, nbytes: int) -> None:
        with self._lock:
            self._arena_bytes += nbytes

    def publish(self, obs) -> None:
        """Mirror the counters onto ``obs``'s metrics registry."""
        compiles = obs.counter(self._metrics[0])
        with self._lock:
            compiles.inc(self._compiles - compiles.value)
            obs.gauge(self._metrics[1]).set(self._arena_bytes)
        for name, read in self._gauges.items():
            obs.gauge(name).set(read())
