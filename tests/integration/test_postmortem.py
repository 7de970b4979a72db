"""Integration: injected failures leave self-contained postmortem bundles.

The Smol-Sentinel acceptance bar: killing a replica mid-execution must
auto-dump a flight-recorder bundle whose failure trace is a *connected*
span tree containing the failed work item (still open at dump time), and
``obs postmortem`` must reconstruct that tree from the bundle alone.
"""

import time

import pytest

from cluster_testlib import ScriptedSession
from repro.cli import main
from repro.cluster import Dispatcher, ThreadWorker
from repro.obs import (
    FlightRecorder,
    Observability,
    load_postmortem,
    validate_span_tree,
)
from repro.serving import InferenceRequest


@pytest.fixture
def crash_bundle(tmp_path):
    """Kill a replica mid-execution; return the auto-dumped bundle path."""
    recorder = FlightRecorder(root=tmp_path)
    obs = Observability(recorder=recorder)

    def slow_factory(worker_id, results):
        # Slowed replicas so the kill deterministically lands while an
        # item is executing (it stays pending until completion).
        return ThreadWorker(worker_id, ScriptedSession(delay_s=0.017),
                            results, obs=obs)

    dispatcher = Dispatcher(slow_factory, num_workers=2,
                            heartbeat_timeout_s=30.0, obs=obs)
    try:
        futures = [
            dispatcher.submit([InferenceRequest(image_id=f"img-{i}")])
            for i in range(8)
        ]
        target = None
        deadline = time.monotonic() + 10.0
        while target is None and time.monotonic() < deadline:
            for worker_id in dispatcher.live_workers():
                worker = dispatcher.worker(worker_id)
                if worker.pending_items():
                    target = worker
                    break
            else:
                time.sleep(0.002)
        assert target is not None, "no worker ever held a pending item"
        target.kill()
        dead = dispatcher.check_workers()
        assert dead == [target.worker_id]
        # Failover still completes every request after the dump.
        for future in futures:
            future.result(timeout=15.0)
    finally:
        dispatcher.close()
    assert recorder.trips >= 1
    assert recorder.dumps, "worker death did not auto-dump a bundle"
    return recorder.dumps[0]


class TestWorkerDeathBundle:
    def test_bundle_names_the_dead_worker(self, crash_bundle):
        bundle = load_postmortem(crash_bundle)
        assert bundle.reason == "worker_death"
        context = bundle.manifest["context"]
        assert context["worker_id"].startswith("worker-")
        assert context["orphans"] >= 1
        assert context["trace_id"] is not None

    def test_failure_trace_is_connected_and_contains_failed_item(
            self, crash_bundle):
        bundle = load_postmortem(crash_bundle)
        spans = bundle.trace_spans()  # follows the manifest's trace_id
        tree = validate_span_tree(spans)
        assert tree.connected, tree.problems
        open_items = [span for span in spans
                      if span.get("open") and span["name"] == "cluster.item"]
        assert open_items, "failed item's span missing from the bundle"
        assert open_items[0]["duration_s"] >= 0.0

    def test_bundle_events_include_the_trip(self, crash_bundle):
        bundle = load_postmortem(crash_bundle)
        trips = [event for event in bundle.events
                 if event.get("kind") == "trip"]
        assert any(event["reason"] == "worker_death" for event in trips)

    def test_obs_postmortem_cli_reconstructs_the_tree(self, crash_bundle,
                                                      capsys):
        assert main(["obs", "postmortem",
                     "--bundle", str(crash_bundle)]) == 0
        output = capsys.readouterr().out
        assert "worker_death" in output
        assert "single connected span tree: OK" in output
        assert "cluster.item" in output


class TestExplicitDump:
    def test_dump_postmortem_without_failure(self, tmp_path):
        obs = Observability(recorder=FlightRecorder())
        with obs.span("cluster.item"):
            obs.record("stage.inference", 0.001)
        path = obs.dump_postmortem(tmp_path / "bundle", reason="snapshot")
        bundle = load_postmortem(path)
        assert bundle.reason == "snapshot"
        assert bundle.manifest["spans"] == len(bundle.spans) >= 2
