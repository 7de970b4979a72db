"""Tests for the SLO engine: burn math, multi-window alerting, replay."""

import pytest

from repro.errors import ReproError
from repro.obs import Observability, SloSpec, SloWindow
from repro.obs.slo import SloEngine
from repro.obs.slo import DEFAULT_WINDOWS, replay_spans


class FakeClock:
    def __init__(self, now=1000.0):
        self.now = now

    def __call__(self):
        return self.now


def _spec(**overrides):
    defaults = dict(
        name="latency",
        latency_target_s=0.050,
        objective=0.9,
        windows=(SloWindow(seconds=10.0, max_burn_rate=1.0),),
        min_events=5,
        cooldown_s=30.0,
    )
    defaults.update(overrides)
    return SloSpec(**defaults)


def _engine(spec=None, clock=None):
    clock = clock or FakeClock()
    return SloEngine([spec or _spec()], clock=clock), clock


class TestValidation:
    def test_window_rejects_nonpositive(self):
        with pytest.raises(ReproError):
            SloWindow(seconds=0.0, max_burn_rate=1.0)
        with pytest.raises(ReproError):
            SloWindow(seconds=60.0, max_burn_rate=0.0)

    def test_spec_rejects_bad_fields(self):
        with pytest.raises(ReproError):
            _spec(name="")
        with pytest.raises(ReproError):
            _spec(latency_target_s=0.0)
        with pytest.raises(ReproError):
            _spec(objective=1.0)
        with pytest.raises(ReproError):
            _spec(objective=0.0)
        with pytest.raises(ReproError):
            _spec(windows=())
        with pytest.raises(ReproError):
            _spec(min_events=0)

    def test_engine_rejects_empty_and_duplicates(self):
        with pytest.raises(ReproError):
            SloEngine([])
        with pytest.raises(ReproError):
            SloEngine([_spec(), _spec()])
        with pytest.raises(ReproError):
            SloEngine([_spec()], capacity=0)

    def test_default_windows_are_the_fast_burn_pair(self):
        assert DEFAULT_WINDOWS[0].seconds == 60.0
        assert DEFAULT_WINDOWS[0].max_burn_rate == 14.4
        assert DEFAULT_WINDOWS[1].seconds == 300.0
        assert DEFAULT_WINDOWS[1].max_burn_rate == 6.0

    def test_budget_and_is_bad(self):
        spec = _spec()
        assert spec.budget == pytest.approx(0.1)
        assert not spec.is_bad(0.040, error=False)
        assert spec.is_bad(0.060, error=False)   # over latency target
        assert spec.is_bad(0.001, error=True)    # error always spends


class TestBurnMath:
    def test_burn_rate_is_bad_fraction_over_budget(self):
        engine, _ = _engine()
        for index in range(10):
            # 2 of 10 bad -> bad fraction 0.2, budget 0.1 -> burn 2.0.
            engine.observe(0.100 if index < 2 else 0.010)
        (status,) = engine.evaluate()
        (burn,) = status.windows
        assert burn.events == 10
        assert burn.bad == 2
        assert burn.burn_rate == pytest.approx(2.0)
        assert burn.burning
        assert status.burning

    def test_no_events_no_burn(self):
        engine, _ = _engine()
        (status,) = engine.evaluate()
        assert status.windows[0].events == 0
        assert status.windows[0].burn_rate == 0.0
        assert not status.burning

    def test_min_events_suppresses_alert(self):
        engine, _ = _engine()
        for _ in range(4):  # all bad, but below min_events=5
            engine.observe(1.0)
        (status,) = engine.evaluate()
        assert status.windows[0].burning
        assert not status.burning

    def test_old_samples_age_out(self):
        engine, clock = _engine()
        for _ in range(10):
            engine.observe(1.0)  # all bad
        assert engine.evaluate()[0].burning
        clock.now += 20.0  # past the 10s window
        (status,) = engine.evaluate()
        assert status.windows[0].events == 0
        assert not status.burning

    def test_all_windows_must_burn(self):
        spec = _spec(windows=(
            SloWindow(seconds=5.0, max_burn_rate=1.0),
            SloWindow(seconds=50.0, max_burn_rate=5.0),
        ))
        engine, clock = _engine(spec)
        # Old good traffic fills the long window so its burn stays low;
        # a recent bad burst lights up only the short window.
        for _ in range(200):
            engine.observe(0.001, now=clock.now - 40.0)
        for _ in range(10):
            engine.observe(1.0, now=clock.now - 1.0)
        (status,) = engine.evaluate()
        short = min(status.windows, key=lambda burn: burn.window_s)
        long = max(status.windows, key=lambda burn: burn.window_s)
        assert short.burning
        assert not long.burning
        assert not status.burning


class TestAlerting:
    def _burn_all(self, engine, count=10):
        for _ in range(count):
            engine.observe(1.0)

    def test_edge_triggered_once(self):
        engine, _ = _engine()
        self._burn_all(engine)
        first = engine.evaluate()[0]
        second = engine.evaluate()[0]
        assert first.alerting
        assert not second.alerting  # still burning, but already alerted
        assert second.burning
        assert second.alerts_total == 1

    def test_cooldown_rearms_while_still_burning(self):
        engine, clock = _engine(_spec(
            windows=(SloWindow(seconds=100.0, max_burn_rate=1.0),),
            cooldown_s=30.0,
        ))
        self._burn_all(engine)
        assert engine.evaluate()[0].alerting
        clock.now += 31.0
        again = engine.evaluate()[0]
        assert again.alerting
        assert again.alerts_total == 2

    def test_recovery_resets_the_edge(self):
        engine, clock = _engine(_spec(cooldown_s=1000.0))
        self._burn_all(engine)
        assert engine.evaluate()[0].alerting
        clock.now += 20.0  # samples age out: recovered
        assert not engine.evaluate()[0].burning
        self._burn_all(engine)  # burn again well within cooldown
        assert engine.evaluate()[0].alerting

    def test_alert_emitted_on_stage_bus(self):
        obs = Observability()
        events = []
        obs.add_stage_listener(events.append)
        engine, _ = _engine()
        engine.attach(obs)
        self._burn_all(engine)
        engine.evaluate()
        (event,) = [e for e in events if e.stage == "slo.burn"]
        assert event.subject == "latency"
        assert event.source == "slo"
        assert event.images == 10          # bad count in shortest window
        assert event.seconds == pytest.approx(10.0)  # worst burn rate

    def test_state_never_alerts(self):
        obs = Observability()
        events = []
        obs.add_stage_listener(events.append)
        engine, _ = _engine()
        engine.attach(obs)
        self._burn_all(engine)
        state = engine.state()
        assert events == []
        (payload,) = state["specs"]
        assert payload["burning"]
        assert not payload["alerting"]
        assert payload["windows"][0]["burn_rate"] == pytest.approx(10.0)

    def test_status_to_dict(self):
        engine, _ = _engine()
        engine.observe(0.010)
        (status,) = engine.evaluate()
        payload = status.to_dict()
        assert payload["name"] == "latency"
        assert payload["objective"] == 0.9
        assert payload["windows"][0]["events"] == 1


class TestReplay:
    def _request(self, span_id, start_s, duration_s, name="serving.request",
                 **attrs):
        return {"trace_id": 1, "span_id": span_id, "name": name,
                "start_s": start_s, "duration_s": duration_s,
                "parent_id": None, "attrs": attrs}

    def test_healthy_log_stays_quiet(self):
        spans = [self._request(i, float(i), 0.010) for i in range(20)]
        (status,) = replay_spans(spans, [_spec()])
        assert not status.burning
        assert status.alerts_total == 0
        assert status.windows[0].events > 0

    def test_slow_log_burns(self):
        spans = [self._request(i, float(i) * 0.1, 0.200) for i in range(20)]
        (status,) = replay_spans(spans, [_spec()])
        assert status.burning
        assert status.alerts_total >= 1

    def test_error_attr_counts_as_bad(self):
        spans = [self._request(i, float(i) * 0.1, 0.001, error="boom")
                 for i in range(20)]
        (status,) = replay_spans(spans, [_spec()])
        assert status.burning

    def test_open_and_non_request_spans_ignored(self):
        spans = [self._request(i, float(i) * 0.1, 0.200) for i in range(20)]
        open_span = self._request(99, 0.0, 0.5)
        open_span["open"] = True
        spans.append(open_span)
        spans.append({"trace_id": 1, "span_id": 100, "name": "adapt.step",
                      "start_s": 0.0, "duration_s": 9.9, "parent_id": None,
                      "attrs": {}})
        (status,) = replay_spans(spans, [_spec()])
        assert status.windows[0].events == 20

    def test_empty_log(self):
        (status,) = replay_spans([], [_spec()])
        assert status.windows[0].events == 0
        assert not status.burning

    def test_evaluate_every_validated(self):
        with pytest.raises(ReproError):
            replay_spans([], [_spec()], evaluate_every=0)
