"""Tests for the flight recorder: rings, trips, bundles, budget mode."""

import json

import pytest

from repro.errors import ReproError
from repro.obs import (
    FlightRecorder,
    Observability,
    RecorderObservability,
    load_postmortem,
    validate_span_tree,
)
from repro.obs.slo import SloEngine
from repro.obs.metrics import StageEvent
from tests.obs.test_slo import _spec


class TestRings:
    def test_capacities_must_be_positive(self):
        with pytest.raises(ReproError):
            FlightRecorder(span_capacity=0)
        with pytest.raises(ReproError):
            FlightRecorder(event_capacity=0)
        with pytest.raises(ReproError):
            FlightRecorder(snapshot_capacity=-1)

    def test_span_ring_keeps_most_recent(self):
        recorder = FlightRecorder(span_capacity=4)
        for index in range(6):
            recorder.record_span({"span_id": index})
        ring = recorder.ring_spans()
        assert len(ring) == 4
        assert [span["span_id"] for span in ring] == [2, 3, 4, 5]

    def test_event_ring_bounded(self):
        recorder = FlightRecorder(event_capacity=3)
        for index in range(5):
            recorder.note("tick", index=index)
        ring = recorder.ring_events()
        assert len(ring) == 3
        assert [event["index"] for _, event in ring] == [2, 3, 4]

    def test_note_positional_kind_wins(self):
        # ``kind`` is positional-only, so a field literally named kind
        # does not collide -- and the positional event type wins the
        # record's ``kind`` slot so postmortem filters can trust it.
        recorder = FlightRecorder()
        recorder.note("store.event", kind="swap", key="r1")
        ((_, event),) = recorder.ring_events()
        assert event == {"kind": "store.event", "key": "r1"}

    def test_observability_mirrors_finished_spans(self):
        recorder = FlightRecorder()
        obs = Observability(recorder=recorder)
        obs.record("stage.decode", 0.001)
        with obs.span("cluster.item"):
            pass
        assert [span.name for span in recorder.ring_spans()] == [
            "stage.decode", "cluster.item"]

    def test_snapshot_rate_limited(self):
        recorder = FlightRecorder(snapshot_interval_s=3600.0)
        obs = Observability(recorder=recorder)
        for _ in range(5):
            obs.emit_stage("stage.decode", "demo", 1, 0.001)
        # One snapshot on the first event, then rate-limited out.
        assert len(recorder._snapshots) == 1

    def test_snapshot_every_event_when_interval_zero(self):
        recorder = FlightRecorder(snapshot_interval_s=0.0,
                                  snapshot_capacity=8)
        obs = Observability(recorder=recorder)
        for _ in range(3):
            obs.emit_stage("stage.decode", "demo", 1, 0.001)
        assert len(recorder._snapshots) == 3


class TestTripsAndDumps:
    def test_trip_without_root_records_but_does_not_dump(self):
        recorder = FlightRecorder()
        assert recorder.trip("worker_death", worker_id="w0") is None
        assert recorder.trips == 1
        assert recorder.dumps == []
        ((_, event),) = recorder.ring_events()
        assert event["kind"] == "trip"
        assert event["reason"] == "worker_death"

    def test_trip_with_root_auto_dumps(self, tmp_path):
        recorder = FlightRecorder(root=tmp_path)
        bundle_path = recorder.trip("circuit_open", worker_id="w1")
        assert bundle_path == tmp_path / "postmortem-0001"
        assert recorder.dumps == [bundle_path]
        manifest = json.loads(
            (bundle_path / "manifest.json").read_text())
        assert manifest["reason"] == "circuit_open"
        assert manifest["context"]["worker_id"] == "w1"
        assert manifest["trips"] == 1

    def test_sequential_dumps_get_fresh_directories(self, tmp_path):
        recorder = FlightRecorder(root=tmp_path)
        first = recorder.trip("a")
        second = recorder.trip("b")
        assert first != second
        assert second.name == "postmortem-0002"

    def test_dump_requires_path_or_root(self):
        with pytest.raises(ReproError, match="no dump path"):
            FlightRecorder().dump()

    def test_dump_writes_all_bundle_files(self, tmp_path):
        recorder = FlightRecorder()
        obs = Observability(recorder=recorder)
        obs.record("stage.decode", 0.001)
        obs.emit_stage("stage.decode", "demo", 4, 0.001)
        engine = SloEngine([_spec()])
        engine.attach(obs)
        target = recorder.dump(tmp_path / "bundle", reason="test")
        for name in ("spans.jsonl", "events.jsonl", "metrics.json",
                     "slo.json", "manifest.json"):
            assert (target / name).exists()
        metrics = json.loads((target / "metrics.json").read_text())
        assert "current" in metrics and "snapshots" in metrics
        slo = json.loads((target / "slo.json").read_text())
        assert slo["specs"][0]["name"] == "latency"

    def test_dump_includes_open_spans(self, tmp_path):
        recorder = FlightRecorder()
        obs = Observability(recorder=recorder)
        open_span = obs.span("cluster.item", item="stuck")
        obs.record("stage.decode", 0.001,
                   parent=(open_span.trace_id, open_span.span_id))
        bundle = load_postmortem(
            recorder.dump(tmp_path / "bundle", reason="hang"))
        by_name = {span["name"]: span for span in bundle.spans}
        stuck = by_name["cluster.item"]
        assert stuck["open"] is True
        assert stuck["duration_s"] >= 0.0
        assert "open" not in by_name["stage.decode"]
        # The open root makes the failure trace a connected tree.
        assert validate_span_tree(bundle.spans).connected
        open_span.finish()

    def test_unserializable_context_dropped_from_manifest(self, tmp_path):
        recorder = FlightRecorder()
        target = recorder.dump(tmp_path / "bundle", reason="x",
                               good="kept", bad=object())
        manifest = json.loads((target / "manifest.json").read_text())
        assert manifest["context"] == {"good": "kept"}


class TestLoadPostmortem:
    def _bundle(self, tmp_path):
        recorder = FlightRecorder()
        obs = Observability(recorder=recorder)
        root = obs.span("cluster.item")
        obs.record("stage.decode", 0.001,
                   parent=(root.trace_id, root.span_id))
        root.set(error="boom").finish()
        other = obs.span("adapt.step")
        other.finish()
        obs.emit_stage("stage.decode", "demo", 1, 0.001)
        recorder.note("worker_death", worker_id="w0")
        return recorder.dump(tmp_path / "bundle", reason="worker_death",
                             trace_id=root.trace_id), root

    def test_round_trip(self, tmp_path):
        path, root = self._bundle(tmp_path)
        bundle = load_postmortem(path)
        assert bundle.reason == "worker_death"
        assert bundle.manifest["spans"] == len(bundle.spans) == 3
        kinds = [event["kind"] for event in bundle.events]
        assert "stage" in kinds and "worker_death" in kinds

    def test_trace_ids_largest_first(self, tmp_path):
        path, root = self._bundle(tmp_path)
        bundle = load_postmortem(path)
        ids = bundle.trace_ids()
        assert len(ids) == 2
        assert ids[0] == root.trace_id  # 2 spans beats 1

    def test_trace_spans_follows_manifest_context(self, tmp_path):
        path, root = self._bundle(tmp_path)
        bundle = load_postmortem(path)
        spans = bundle.trace_spans()
        assert {span["trace_id"] for span in spans} == {root.trace_id}
        assert len(spans) == 2

    def test_error_spans(self, tmp_path):
        path, root = self._bundle(tmp_path)
        bundle = load_postmortem(path)
        (blamed,) = bundle.error_spans()
        assert blamed["span_id"] == root.span_id

    def test_missing_bundle_rejected(self, tmp_path):
        with pytest.raises(ReproError, match="manifest.json missing"):
            load_postmortem(tmp_path / "nope")

    def test_corrupt_manifest_rejected(self, tmp_path):
        target = tmp_path / "bad"
        target.mkdir()
        (target / "manifest.json").write_text("{not json")
        (target / "spans.jsonl").write_text("")
        with pytest.raises(ReproError, match="corrupt manifest"):
            load_postmortem(target)


class TestRecorderObservability:
    def test_recorder_auto_created(self):
        obs = RecorderObservability()
        assert obs.recorder is not None
        assert obs.enabled

    def test_spans_real_metrics_noop(self):
        obs = RecorderObservability()
        with obs.span("cluster.item"):
            pass
        assert len(obs.recorder.ring_spans()) == 1
        counter = obs.counter("hits_total")
        counter.inc(5.0)
        # The shared null instrument never accumulates, and the registry
        # stays empty: no metric bookkeeping in budget mode.
        assert counter.value == 0.0
        assert obs.metrics.snapshot() == {} or not obs.metrics.snapshot()

    def test_emit_stage_rings_and_notifies_without_counters(self):
        obs = RecorderObservability()
        seen = []
        obs.add_stage_listener(seen.append)
        obs.emit_stage("stage.decode", "demo", 2, 0.003)
        assert len(seen) == 1
        assert isinstance(seen[0], StageEvent)
        ring = obs.recorder.ring_events()
        assert any(isinstance(event, StageEvent) for _, event in ring)
        assert not obs.metrics.snapshot()

    def test_trip_and_dump_via_observability(self, tmp_path):
        obs = RecorderObservability(
            recorder=FlightRecorder(root=tmp_path))
        obs.note("warmup", step=1)
        bundle_path = obs.trip("worker_death", worker_id="w0")
        assert bundle_path is not None
        bundle = load_postmortem(bundle_path)
        assert bundle.reason == "worker_death"

    def test_dump_postmortem_requires_recorder(self, tmp_path):
        with pytest.raises(ReproError, match="no flight recorder"):
            Observability().dump_postmortem(tmp_path / "x")
