"""Tests for the Observability facade, null object, and stage-event bus."""

import pytest

from repro.obs import (
    NULL_OBS,
    FlightRecorder,
    NullObservability,
    Observability,
    RecorderObservability,
)


class TestObservabilityFacade:
    def test_enabled_flag(self):
        assert Observability().enabled is True

    def test_span_and_record_land_in_tracer(self):
        obs = Observability()
        obs.span("a").finish()
        obs.record("b", 0.5)
        assert [s.name for s in obs.spans()] == ["a", "b"]

    def test_activate_and_current(self):
        obs = Observability()
        root = obs.span("root")
        assert obs.current() is None
        with obs.activate(root.context):
            assert obs.current() == root.context
        assert obs.current() is None

    def test_metrics_delegate_to_registry(self):
        obs = Observability()
        obs.counter("hits").inc()
        assert obs.metrics.snapshot()["hits"] == 1.0
        assert obs.counter("hits") is obs.metrics.counter("hits")

    def test_export_helpers(self, tmp_path):
        obs = Observability()
        obs.record("op", 0.001)
        assert obs.export_jsonl(tmp_path / "t.jsonl") == 1
        assert obs.export_chrome(tmp_path / "t.json") == 1
        obs.counter("hits").inc()
        assert "# TYPE hits counter" in obs.prometheus()


class TestStageEventBus:
    def test_emit_ticks_counters(self):
        obs = Observability()
        obs.emit_stage("decode", "full-jpeg", 32, 0.5, source="serving")
        obs.emit_stage("decode", "full-jpeg", 16, 0.25, source="serving")
        snap = obs.metrics.snapshot()
        key = "stage_seconds_total{source=serving,stage=decode}"
        assert snap[key] == pytest.approx(0.75)
        images_key = "stage_images_total{source=serving,stage=decode}"
        assert snap[images_key] == pytest.approx(48.0)

    def test_listener_receives_events(self):
        obs = Observability()
        events = []
        obs.add_stage_listener(events.append)
        obs.emit_stage("inference", "resnet18", 8, 0.1, source="cluster")
        assert len(events) == 1
        event = events[0]
        assert (event.stage, event.subject, event.images) == (
            "inference", "resnet18", 8)
        assert event.seconds == pytest.approx(0.1)

    def test_remove_listener(self):
        obs = Observability()
        kept, removed = [], []
        keeper = kept.append
        goner = removed.append
        obs.add_stage_listener(keeper)
        obs.add_stage_listener(goner)
        obs.remove_stage_listener(goner)
        obs.remove_stage_listener(goner)  # absent: silently ignored
        obs.emit_stage("decode", "x", 1, 0.1)
        assert len(kept) == 1
        assert removed == []

    @pytest.mark.parametrize("make", [
        lambda: Observability(recorder=FlightRecorder()),
        RecorderObservability,
    ])
    def test_a_raising_listener_is_contained(self, make):
        obs = make()
        seen = []

        def explode(event):
            raise RuntimeError("listener bug")

        obs.add_stage_listener(explode)
        obs.add_stage_listener(seen.append)
        obs.emit_stage("decode", "full-jpeg", 32, 0.5, source="serving")
        assert [event.subject for event in seen] == ["full-jpeg"]
        notes = [event for _, event in obs.recorder.ring_events()
                 if isinstance(event, dict)]
        assert notes == [{"kind": "obs.listener_failed", "stage": "decode",
                          "error": "RuntimeError"}]


class TestNullObservability:
    def test_singleton_disabled(self):
        assert NULL_OBS.enabled is False
        assert isinstance(NULL_OBS, NullObservability)

    def test_null_span_is_inert_context_manager(self):
        span = NULL_OBS.span("anything", parent=(1, 2), attr="x")
        assert span.context is None
        assert span.set(more="attrs") is span
        with span as inner:
            assert inner is span
        span.finish()
        assert NULL_OBS.spans() == []

    def test_record_returns_null_span(self):
        assert NULL_OBS.record("op", 1.0) is NULL_OBS.span("op")

    def test_activate_is_noop(self):
        with NULL_OBS.activate((1, 2)):
            assert NULL_OBS.current() is None

    def test_null_instruments_shared_and_zero(self):
        counter = NULL_OBS.counter("hits", stage="decode")
        assert counter is NULL_OBS.gauge("depth")
        assert counter is NULL_OBS.histogram("lat")
        counter.inc()
        counter.add(5.0)
        counter.set(9.0)
        counter.observe(1.0)
        assert counter.value == 0.0
        assert counter.quantile(50.0) == 0.0
        assert counter.summary() == {}

    def test_emit_stage_drops_and_listeners_ignored(self):
        events = []
        NULL_OBS.add_stage_listener(events.append)
        NULL_OBS.emit_stage("decode", "x", 1, 0.1)
        NULL_OBS.remove_stage_listener(events.append)
        assert events == []
