"""Smol-Scope: end-to-end tracing, unified metrics, profiling export.

One :class:`Observability` object per deployment is threaded through the
stack (``SmolServer(obs=...)``, ``QueryEngine(obs=...)``,
``Dispatcher(obs=...)``, ``RenditionStore(obs=...)``,
``AdaptiveController(obs=...)``).  It bundles:

* a :class:`~repro.obs.trace.Tracer` (spans with trace/span/parent ids,
  ambient thread-local context, picklable ``(trace_id, span_id)`` contexts
  that ride requests and work items across thread and process hops);
* a :class:`~repro.obs.metrics.MetricsRegistry` (counters, gauges,
  fixed-bucket histograms);
* a **stage-event bus**: instrumented components call :meth:`emit_stage`
  with per-batch stage costs; the metrics registry counts every event and
  listeners such as ``adapt.AdaptiveController`` receive it -- the one way
  measured stage costs reach the adaptive loop.
* optionally, a :class:`~repro.obs.recorder.FlightRecorder`
  (``Observability(recorder=...)``): finished spans and stage events are
  mirrored into bounded rings, and :meth:`trip` / :meth:`dump_postmortem`
  write self-contained postmortem bundles.

The default everywhere is :data:`NULL_OBS`, a null object whose ``enabled``
flag is False.  Hot loops either pre-bind instruments at construction time
(null instruments are no-ops) or guard span creation with
``if obs.enabled:``, so the disabled path allocates nothing per request.
Between the two extremes sits :class:`RecorderObservability`: real spans
feeding a flight recorder, but no metrics registry -- the "always-on"
black-box mode whose overhead is CI-gated at <=3% wall.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from typing import Callable, Iterator

from repro import _lazy_exports
from repro.errors import ReproError
from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    StageEvent,
    percentile,
)
from repro.obs.trace import Span, TraceContext, Tracer

# The harness half -- exporters, analysis, SLOs, the flight recorder --
# loads on first use; the hot path takes only the null object, metrics
# and trace.
_EXPORTS = {
    "write_chrome_trace": "repro.obs.export",
    "write_spans_jsonl": "repro.obs.export",
    "read_spans_jsonl": "repro.obs.export",
    "prometheus_text": "repro.obs.export",
    "summarize_spans": "repro.obs.export",
    "validate_span_tree": "repro.obs.export",
    "analyze_critical_path": "repro.obs.analyze",
    "bench_diff": "repro.obs.analyze",
    "SloSpec": "repro.obs.slo",
    "SloWindow": "repro.obs.slo",
    "SloEngine": "repro.obs.slo",
    "replay_spans": "repro.obs.slo",
    "FlightRecorder": "repro.obs.recorder",
    "load_postmortem": "repro.obs.recorder",
}
__getattr__, __dir__ = _lazy_exports(__name__, _EXPORTS)

__all__ = [
    "Observability",
    "RecorderObservability",
    "NullObservability",
    "NULL_OBS",
    "Tracer",
    "Span",
    "TraceContext",
    "StageEvent",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "percentile",
    *_EXPORTS,
]


class Observability:
    """Live tracing + metrics + stage events for one deployment.

    Pass ``recorder=`` (a :class:`~repro.obs.recorder.FlightRecorder`) to
    mirror every finished span and stage event into its bounded rings;
    :meth:`note`, :meth:`trip`, and :meth:`dump_postmortem` then become
    live, and subsystems use them to leave postmortem evidence.
    """

    enabled = True

    def __init__(self, max_spans: int = 65_536,
                 recorder: FlightRecorder | None = None):
        self.recorder = recorder
        on_finish = recorder.record_span if recorder is not None else None
        self.tracer = Tracer(max_spans=max_spans, on_finish=on_finish)
        self.metrics = MetricsRegistry()
        if recorder is not None:
            recorder.attach_tracer(self.tracer)
            recorder.attach_metrics(self.metrics)
        self._listeners: list[Callable[[StageEvent], None]] = []
        self._listener_lock = threading.Lock()

    # -- tracing --------------------------------------------------------
    def span(self, name: str, parent=None, **attrs) -> Span:
        """Open a wall-clock span (see :meth:`Tracer.start`)."""
        return self.tracer.start(name, parent=parent, **attrs)

    def record(self, name: str, seconds: float, parent=None,
               **attrs) -> Span:
        """Emit a finished span with a modelled duration."""
        return self.tracer.record(name, seconds, parent=parent, **attrs)

    def current(self) -> TraceContext | None:
        """The ambient trace context on this thread, if any."""
        return self.tracer.current()

    def activate(self, context):
        """Make ``context`` ambient on this thread (no-op for ``None``)."""
        return self.tracer.activate(context)

    def spans(self) -> list[Span]:
        """Snapshot of finished spans."""
        return self.tracer.spans()

    # -- metrics --------------------------------------------------------
    def counter(self, name: str, **labels: str) -> Counter:
        """Get or create a counter in the registry."""
        return self.metrics.counter(name, **labels)

    def gauge(self, name: str, **labels: str) -> Gauge:
        """Get or create a gauge in the registry."""
        return self.metrics.gauge(name, **labels)

    def histogram(self, name: str, **labels: str) -> Histogram:
        """Get or create a histogram in the registry."""
        return self.metrics.histogram(name, **labels)

    # -- stage-event bus ------------------------------------------------
    def emit_stage(self, stage: str, subject: str, images: int,
                   seconds: float, source: str = "") -> None:
        """Publish one batch's stage cost to the registry and listeners.

        A listener that raises is noted as ``obs.listener_failed`` and the
        event still reaches the remaining listeners: the emitter (a serving
        lane, the dispatcher's health monitor) never sees the exception.
        """
        self.counter("stage_seconds_total", stage=stage,
                     source=source).inc(seconds)
        self.counter("stage_images_total", stage=stage,
                     source=source).inc(images)
        with self._listener_lock:
            listeners = list(self._listeners)
        if not listeners and self.recorder is None:
            return
        event = StageEvent(stage=stage, subject=subject, images=images,
                           seconds=seconds, source=source)
        if self.recorder is not None:
            self.recorder.record_event(event)
        for listener in listeners:
            try:
                listener(event)
            except Exception as exc:
                self.note("obs.listener_failed", stage=stage,
                          error=type(exc).__name__)

    def add_stage_listener(
            self, listener: Callable[[StageEvent], None]) -> None:
        """Subscribe ``listener`` to every future stage event."""
        with self._listener_lock:
            self._listeners.append(listener)

    def remove_stage_listener(
            self, listener: Callable[[StageEvent], None]) -> None:
        """Unsubscribe a listener (no error if absent)."""
        with self._listener_lock:
            if listener in self._listeners:
                self._listeners.remove(listener)

    # -- flight recorder ------------------------------------------------
    def note(self, kind: str, /, **fields) -> None:
        """Leave a diagnostic breadcrumb in the flight recorder, if any."""
        if self.recorder is not None:
            self.recorder.note(kind, **fields)

    def trip(self, reason: str, **context):
        """Record a failure trip; auto-dumps a bundle when configured.

        Returns the bundle path, or None without a recorder / dump root.
        """
        if self.recorder is None:
            return None
        return self.recorder.trip(reason, **context)

    def dump_postmortem(self, path=None, reason: str = "manual",
                        **context):
        """Dump a postmortem bundle now; returns its directory."""
        if self.recorder is None:
            raise ReproError("no flight recorder attached: construct "
                             "Observability(recorder=FlightRecorder(...))")
        return self.recorder.dump(path, reason=reason, **context)

    # -- export ---------------------------------------------------------
    def export_jsonl(self, path: str) -> int:
        """Write all finished spans as JSONL; returns the span count."""
        from repro.obs.export import write_spans_jsonl

        return write_spans_jsonl(self.tracer.spans(), path)

    def export_chrome(self, path: str) -> int:
        """Write all finished spans as Chrome trace_event JSON."""
        from repro.obs.export import write_chrome_trace

        return write_chrome_trace(self.tracer.spans(), path)

    def prometheus(self) -> str:
        """Render the metrics registry in Prometheus text format."""
        from repro.obs.export import prometheus_text

        return prometheus_text(self.metrics)


class RecorderObservability(Observability):
    """Always-on black-box mode: spans + flight recorder, no metrics.

    For deployments that cannot afford full observability but must stay
    postmortem-able.  Spans are real (the recorder's ring and postmortem
    trees need them) but the metrics registry is bypassed -- instrument
    getters return the shared no-op -- and stage events skip the counter
    bookkeeping, going only to the ring and any registered listeners.
    ``benchmarks/bench_obs.py`` gates this mode at <=3% wall overhead
    over the fully disabled path.
    """

    def __init__(self, recorder: FlightRecorder | None = None,
                 max_spans: int = 8_192):
        from repro.obs.recorder import FlightRecorder

        super().__init__(max_spans=max_spans,
                         recorder=recorder or FlightRecorder())

    def counter(self, name: str, **labels: str):
        """Return the shared no-op instrument."""
        return _NULL_INSTRUMENT

    def gauge(self, name: str, **labels: str):
        """Return the shared no-op instrument."""
        return _NULL_INSTRUMENT

    def histogram(self, name: str, **labels: str):
        """Return the shared no-op instrument."""
        return _NULL_INSTRUMENT


class _NullInstrument:
    """Shared no-op counter/gauge/histogram; every reading is zero."""

    __slots__ = ()
    name = ""
    labels = ()
    value = 0.0
    count = 0
    sum = 0.0

    def inc(self, amount: float = 1.0) -> None:  # noqa: D102 - no-op
        pass

    def add(self, delta: float) -> None:  # noqa: D102 - no-op
        pass

    def set(self, value: float) -> None:  # noqa: D102 - no-op
        pass

    def observe(self, value: float) -> None:  # noqa: D102 - no-op
        pass

    def quantile(self, q: float) -> float:  # noqa: D102 - no-op
        return 0.0

    def summary(self) -> dict[str, float]:  # noqa: D102 - no-op
        return {}


class _NullSpan:
    """Inert span: usable as a context manager, carries no context."""

    __slots__ = ()
    name = ""
    trace_id = 0
    span_id = 0
    parent_id = None
    context = None
    duration_s = 0.0
    attrs: dict = {}

    def set(self, **attrs) -> "_NullSpan":  # noqa: D102 - no-op
        return self

    def finish(self, end_s=None) -> None:  # noqa: D102 - no-op
        pass

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        pass


_NULL_SPAN = _NullSpan()
_NULL_INSTRUMENT = _NullInstrument()


class NullObservability:
    """Disabled observability: every operation is a shared-singleton no-op.

    Components default their ``obs`` parameter to :data:`NULL_OBS`, so the
    untraced hot path costs one attribute check (``obs.enabled``) or a
    no-op method call on a pre-bound null instrument -- no allocation.
    """

    __slots__ = ()
    enabled = False
    recorder = None

    def span(self, name: str, parent=None, **attrs) -> _NullSpan:
        """Return the shared inert span."""
        return _NULL_SPAN

    def record(self, name: str, seconds: float, parent=None,
               **attrs) -> _NullSpan:
        """Return the shared inert span."""
        return _NULL_SPAN

    def current(self) -> None:
        """No ambient context when disabled."""
        return None

    @contextmanager
    def activate(self, context) -> Iterator[None]:
        """No-op context manager."""
        yield

    def spans(self) -> list:
        """Always empty."""
        return []

    def counter(self, name: str, **labels: str) -> _NullInstrument:
        """Return the shared no-op instrument."""
        return _NULL_INSTRUMENT

    def gauge(self, name: str, **labels: str) -> _NullInstrument:
        """Return the shared no-op instrument."""
        return _NULL_INSTRUMENT

    def histogram(self, name: str, **labels: str) -> _NullInstrument:
        """Return the shared no-op instrument."""
        return _NULL_INSTRUMENT

    def emit_stage(self, stage: str, subject: str, images: int,
                   seconds: float, source: str = "") -> None:
        """Drop the event."""

    def add_stage_listener(self, listener) -> None:
        """Ignore the subscription (no events will ever fire)."""

    def remove_stage_listener(self, listener) -> None:
        """Nothing to remove."""

    def note(self, kind: str, /, **fields) -> None:
        """Drop the breadcrumb."""

    def trip(self, reason: str, **context) -> None:
        """Record nothing; no recorder to dump."""
        return None


#: The process-wide disabled-observability singleton (the default wiring).
NULL_OBS = NullObservability()
