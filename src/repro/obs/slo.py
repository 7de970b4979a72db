"""Declarative SLOs: rolling windows, multi-window burn-rate alerting.

An :class:`SloSpec` states a promise in Google-SRE terms: *a fraction
``objective`` of requests complete without error and under
``latency_target_s``*.  The complement ``1 - objective`` is the error
budget.  A request is **bad** when it errors or exceeds the latency
target; the **burn rate** over a window is::

    burn_rate = bad_fraction / (1 - objective)

Burn rate 1.0 spends the budget exactly at the sustainable pace; 10x
means the budget is gone in a tenth of the period.  Following the
multi-window pattern, an alert fires only when **every** configured
window is burning past its own threshold -- the long window proves the
problem is material, the short window proves it is *still happening* --
which suppresses both blips and stale alerts.

Alerts are edge-triggered (one per entry into the burning state) with a
``cooldown_s`` re-arm, and are published as ``slo.burn`` stage events on
the same bus the adaptive loop already consumes:
``AdaptiveController.watch_slo`` turns them into first-class replan
triggers, and the :class:`~repro.obs.recorder.FlightRecorder` rings them
for postmortems.  ``adapt.TelemetryCollector`` ignores unknown stages,
so the extra bus traffic is safe for existing listeners.

The engine is clock-injected (``observe(..., now=...)``), so offline
replay of a span log (:func:`replay_spans`, the ``obs slo`` CLI) and
live serving share one implementation.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from dataclasses import dataclass, field

from repro.errors import ReproError

__all__ = [
    "SloWindow",
    "SloSpec",
    "WindowBurn",
    "SloStatus",
    "SloEngine",
    "replay_spans",
    "DEFAULT_WINDOWS",
]

#: Span names treated as requests when replaying a span log.
REQUEST_SPAN_NAMES = frozenset({"serving.request", "cluster.item"})


@dataclass(frozen=True)
class SloWindow:
    """One rolling evaluation window and its burn-rate alarm threshold."""

    seconds: float
    max_burn_rate: float

    def __post_init__(self):
        if self.seconds <= 0:
            raise ReproError("SLO window must be positive seconds")
        if self.max_burn_rate <= 0:
            raise ReproError("max_burn_rate must be positive")


#: The classic fast-burn pair: 1 minute at 14.4x, 5 minutes at 6x.
DEFAULT_WINDOWS: tuple[SloWindow, ...] = (
    SloWindow(seconds=60.0, max_burn_rate=14.4),
    SloWindow(seconds=300.0, max_burn_rate=6.0),
)


@dataclass(frozen=True)
class SloSpec:
    """One service-level objective over the request stream.

    ``objective`` is the promised good fraction (0.99 leaves a 1% error
    budget); a request is bad when it errors or takes longer than
    ``latency_target_s``.  ``min_events`` suppresses alerting until the
    shortest window holds enough samples to mean anything.
    """

    name: str
    latency_target_s: float
    objective: float = 0.99
    windows: tuple[SloWindow, ...] = DEFAULT_WINDOWS
    min_events: int = 10
    cooldown_s: float = 30.0

    def __post_init__(self):
        if not self.name:
            raise ReproError("SLO spec needs a name")
        if self.latency_target_s <= 0:
            raise ReproError("latency_target_s must be positive")
        if not 0.0 < self.objective < 1.0:
            raise ReproError("objective must be strictly between 0 and 1")
        if not self.windows:
            raise ReproError("SLO spec needs at least one window")
        if self.min_events < 1:
            raise ReproError("min_events must be at least 1")

    @property
    def budget(self) -> float:
        """The error budget: the tolerated bad fraction."""
        return 1.0 - self.objective

    def is_bad(self, latency_s: float, error: bool) -> bool:
        """Whether one request spends error budget under this spec."""
        return error or latency_s > self.latency_target_s


@dataclass(frozen=True)
class WindowBurn:
    """Burn-rate reading for one spec over one window."""

    window_s: float
    events: int
    bad: int
    burn_rate: float
    max_burn_rate: float

    @property
    def burning(self) -> bool:
        """True when this window exceeds its alarm threshold."""
        return self.burn_rate > self.max_burn_rate

    def to_dict(self) -> dict:
        """JSON-ready representation."""
        return {"window_s": self.window_s, "events": self.events,
                "bad": self.bad, "burn_rate": self.burn_rate,
                "max_burn_rate": self.max_burn_rate,
                "burning": self.burning}


@dataclass(frozen=True)
class SloStatus:
    """One spec's full evaluation: every window plus the alert verdict."""

    name: str
    objective: float
    latency_target_s: float
    windows: list[WindowBurn] = field(default_factory=list)
    burning: bool = False
    alerting: bool = False
    alerts_total: int = 0

    def to_dict(self) -> dict:
        """JSON-ready representation (``obs slo`` / postmortem payload)."""
        return {
            "name": self.name,
            "objective": self.objective,
            "latency_target_s": self.latency_target_s,
            "burning": self.burning,
            "alerting": self.alerting,
            "alerts_total": self.alerts_total,
            "windows": [window.to_dict() for window in self.windows],
        }


class _SpecState:
    """Mutable per-spec tracking: sample ring + alert edge/cooldown."""

    __slots__ = ("spec", "samples", "alert_active", "last_alert",
                 "alerts_total")

    def __init__(self, spec: SloSpec, capacity: int):
        self.spec = spec
        # (time, is_bad) pairs; bounded so a silent evaluator cannot
        # accumulate samples without limit.
        self.samples: deque[tuple[float, bool]] = deque(maxlen=capacity)
        self.alert_active = False
        self.last_alert = float("-inf")
        self.alerts_total = 0


class SloEngine:
    """Evaluates :class:`SloSpec` objectives over the live request stream.

    Wire-up: serving calls :meth:`observe` per resolved/failed request;
    :meth:`attach` points alerts at an :class:`~repro.obs.Observability`
    bus (and registers the engine with its flight recorder, when present,
    so ``slo.json`` lands in postmortem bundles).
    """

    def __init__(self, specs, capacity: int = 65_536,
                 clock=time.monotonic):
        specs = tuple(specs)
        if not specs:
            raise ReproError("SloEngine needs at least one SloSpec")
        names = [spec.name for spec in specs]
        if len(set(names)) != len(names):
            raise ReproError(f"duplicate SLO spec names: {sorted(names)}")
        if capacity <= 0:
            raise ReproError("capacity must be positive")
        self._states = [_SpecState(spec, capacity) for spec in specs]
        self._clock = clock
        self._lock = threading.Lock()
        self._obs = None

    @property
    def specs(self) -> tuple[SloSpec, ...]:
        """The configured objectives."""
        return tuple(state.spec for state in self._states)

    def attach(self, obs) -> None:
        """Emit ``slo.burn`` events on ``obs``'s stage bus when alerting."""
        self._obs = obs
        if obs.recorder is not None:
            obs.recorder.attach_slo(self)

    # ------------------------------------------------------------------
    def observe(self, latency_s: float, error: bool = False,
                now: float | None = None) -> None:
        """Record one finished request against every spec.

        Cheap on the hot path: one timestamp, one boolean per spec, one
        bounded-deque append.  Evaluation happens in :meth:`evaluate`.
        """
        if now is None:
            now = self._clock()
        with self._lock:
            for state in self._states:
                state.samples.append(
                    (now, state.spec.is_bad(latency_s, error)))

    def evaluate(self, now: float | None = None) -> list[SloStatus]:
        """Evaluate every spec; emit edge-triggered alerts on the bus.

        A spec alerts when ALL its windows burn past their thresholds and
        the shortest window holds at least ``min_events`` samples.  The
        alert re-fires only after the spec stops burning or ``cooldown_s``
        elapses.
        """
        if now is None:
            now = self._clock()
        statuses: list[SloStatus] = []
        alerts: list[tuple[SloSpec, SloStatus]] = []
        with self._lock:
            for state in self._states:
                spec = state.spec
                self._trim(state, now)
                burns = [self._burn(state, window, now)
                         for window in spec.windows]
                shortest = min(burns, key=lambda burn: burn.window_s)
                burning = (all(burn.burning for burn in burns)
                           and shortest.events >= spec.min_events)
                alerting = False
                if burning:
                    rearmed = now - state.last_alert >= spec.cooldown_s
                    if not state.alert_active or rearmed:
                        alerting = True
                        state.alert_active = True
                        state.last_alert = now
                        state.alerts_total += 1
                else:
                    state.alert_active = False
                status = SloStatus(
                    name=spec.name, objective=spec.objective,
                    latency_target_s=spec.latency_target_s,
                    windows=burns, burning=burning, alerting=alerting,
                    alerts_total=state.alerts_total,
                )
                statuses.append(status)
                if alerting:
                    alerts.append((spec, status))
        # Emit outside the lock: listeners (replanner, recorder) may be
        # arbitrarily slow or re-entrant.
        if self._obs is not None:
            for spec, status in alerts:
                worst = max(burn.burn_rate for burn in status.windows)
                shortest = min(status.windows,
                               key=lambda burn: burn.window_s)
                self._obs.emit_stage("slo.burn", spec.name,
                                     shortest.bad, worst, source="slo")
        return statuses

    def state(self) -> dict:
        """JSON-ready engine state (evaluated without emitting alerts)."""
        now = self._clock()
        with self._lock:
            payload = []
            for state in self._states:
                spec = state.spec
                self._trim(state, now)
                burns = [self._burn(state, window, now)
                         for window in spec.windows]
                shortest = min(burns, key=lambda burn: burn.window_s)
                burning = (all(burn.burning for burn in burns)
                           and shortest.events >= spec.min_events)
                payload.append(SloStatus(
                    name=spec.name, objective=spec.objective,
                    latency_target_s=spec.latency_target_s,
                    windows=burns, burning=burning, alerting=False,
                    alerts_total=state.alerts_total,
                ).to_dict())
        return {"specs": payload}

    # ------------------------------------------------------------------
    @staticmethod
    def _trim(state: _SpecState, now: float) -> None:
        horizon = now - max(window.seconds
                            for window in state.spec.windows)
        samples = state.samples
        while samples and samples[0][0] < horizon:
            samples.popleft()

    @staticmethod
    def _burn(state: _SpecState, window: SloWindow,
              now: float) -> WindowBurn:
        cutoff = now - window.seconds
        events = bad = 0
        for when, is_bad in reversed(state.samples):
            if when < cutoff:
                break
            events += 1
            if is_bad:
                bad += 1
        budget = state.spec.budget
        burn_rate = (bad / events) / budget if events else 0.0
        return WindowBurn(window_s=window.seconds, events=events, bad=bad,
                          burn_rate=burn_rate,
                          max_burn_rate=window.max_burn_rate)


def replay_spans(spans, specs, evaluate_every: int = 1) -> list[SloStatus]:
    """Replay request spans through a fresh engine; return final statuses.

    Offline counterpart to live serving (the ``obs slo`` CLI): request
    spans (``serving.request`` / ``cluster.item``) become observations at
    their completion times, evaluated every ``evaluate_every`` requests
    so alert counters reflect what live monitoring would have fired.
    """
    if evaluate_every < 1:
        raise ReproError("evaluate_every must be at least 1")
    records = [span if isinstance(span, dict) else span.to_dict()
               for span in spans]
    requests = sorted(
        (record for record in records
         if record["name"] in REQUEST_SPAN_NAMES
         and not record.get("open")),
        key=lambda record: record["start_s"] + record["duration_s"],
    )
    last = requests[-1]["start_s"] + requests[-1]["duration_s"] if requests \
        else 0.0
    engine = SloEngine(specs, clock=lambda: last)
    statuses: list[SloStatus] = []
    for index, record in enumerate(requests, start=1):
        finished = record["start_s"] + record["duration_s"]
        error = bool(record.get("attrs", {}).get("error"))
        engine.observe(record["duration_s"], error=error, now=finished)
        if index % evaluate_every == 0 or index == len(requests):
            statuses = engine.evaluate(now=finished)
    if not requests:
        statuses = engine.evaluate(now=0.0)
    return statuses
