"""Tests for per-stage cost reporting on sessions and the server's stage bus."""

import pytest

from repro.codecs.formats import THUMB_JPEG_161_Q75
from repro.core.plans import Plan
from repro.hardware.instance import get_instance
from repro.inference.perfmodel import EngineConfig, PerformanceModel
from repro.nn.zoo import resnet_profile
from repro.obs import FlightRecorder, Observability
from repro.serving.scheduler import BatchPolicy
from repro.serving.request import InferenceRequest
from repro.serving.server import SmolServer
from repro.serving.session import SimulatedSession, session_stage_estimate

from test_lanes import lanes


@pytest.fixture(scope="module")
def perf():
    return PerformanceModel(get_instance("g4dn.xlarge"))


@pytest.fixture(scope="module")
def engine_config(perf):
    return EngineConfig(num_producers=perf.instance.vcpus)


@pytest.fixture(scope="module")
def plan():
    return Plan.single(resnet_profile(18), THUMB_JPEG_161_Q75)


class TestObservedStageSeconds:
    def test_partition_is_consistent_with_stage_throughputs(self, perf,
                                                            engine_config,
                                                            plan):
        estimate = session_stage_estimate(perf, plan, engine_config)
        stages = estimate.observed_stage_seconds()
        assert stages["decode"] + stages["preprocess"] == pytest.approx(
            1.0 / estimate.preprocessing_throughput
        )
        assert stages["inference"] == pytest.approx(
            1.0 / estimate.dnn_throughput
        )
        # Decode dominates preprocessing (the paper's Figure 1).
        assert stages["decode"] > stages["preprocess"]

    def test_session_batches_report_scaled_stage_seconds(self, perf,
                                                         engine_config,
                                                         plan):
        session = SimulatedSession(plan, perf, config=engine_config)
        session.warmup()
        single = session.execute([InferenceRequest(image_id="a")])
        batch = session.execute(
            [InferenceRequest(image_id=f"b{i}") for i in range(7)]
        )
        for stage, seconds in single.stage_seconds.items():
            assert batch.stage_seconds[stage] == pytest.approx(seconds * 7)

    def test_session_telemetry_subjects(self, perf, engine_config, plan):
        session = SimulatedSession(plan, perf, config=engine_config)
        assert session.format_name == "161-jpeg-q75"
        assert session.model_name == "resnet-18"


class TestServerStageBus:
    def make_server(self, perf, engine_config, plan, obs):
        session = SimulatedSession(plan, perf, config=engine_config)
        session.warmup()
        return SmolServer(session, policy=BatchPolicy.latency(),
                          cache_capacity=0, obs=obs)

    def test_executed_batches_reach_the_bus(self, perf, engine_config, plan):
        obs = Observability()
        events = []
        obs.add_stage_listener(events.append)
        with self.make_server(perf, engine_config, plan, obs) as server:
            futures = [server.submit(InferenceRequest(image_id=f"i{n}"))
                       for n in range(10)]
            for future in futures:
                future.result(timeout=10.0)
            assert server.stats().tenants is None
        subjects = {event.stage: event.subject for event in events}
        assert subjects == {"decode": "161-jpeg-q75",
                            "preprocess": "161-jpeg-q75",
                            "inference": "resnet-18"}
        for stage in subjects:
            assert sum(event.images for event in events
                       if event.stage == stage) == 10
        # Without tenants= the scheduler's one class stays out of the
        # source (multi-tenant servers publish "serving/<class>").
        assert {event.source for event in events} == {"serving"}

    def test_a_raising_listener_never_fails_requests_or_lanes(
            self, perf, engine_config, plan):
        def explode(event):
            raise RuntimeError("listener bug")

        obs = Observability(recorder=FlightRecorder())
        seen = []
        obs.add_stage_listener(explode)
        obs.add_stage_listener(seen.append)
        before = lanes()
        with self.make_server(perf, engine_config, plan, obs) as server:
            for n in range(4):
                response = server.submit(
                    InferenceRequest(image_id=f"x{n}")).result(timeout=3.0)
                assert response.prediction >= 0
            assert len(lanes() - before) == 2
        # Contained in emit_stage: noted, and the next listener still ran.
        assert seen
        failures = [event for _, event in obs.recorder.ring_events()
                    if isinstance(event, dict)
                    and event["kind"] == "obs.listener_failed"]
        assert len(failures) == len(seen)
