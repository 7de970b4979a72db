"""Tests for per-stage cost reporting on sessions and the server wiring."""

import pytest

from repro.adapt.telemetry import TelemetryCollector
from repro.codecs.formats import THUMB_JPEG_161_Q75
from repro.core.plans import Plan
from repro.hardware.instance import get_instance
from repro.inference.perfmodel import EngineConfig, PerformanceModel
from repro.nn.zoo import resnet_profile
from repro.serving.scheduler import BatchPolicy
from repro.serving.request import InferenceRequest
from repro.serving.server import SmolServer
from repro.serving.session import SimulatedSession, session_stage_estimate


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


class TestServerTelemetryWiring:
    def make_server(self, perf, engine_config, plan, telemetry):
        session = SimulatedSession(plan, perf, config=engine_config)
        session.warmup()
        return SmolServer(session, policy=BatchPolicy.latency(),
                          cache_capacity=0, telemetry=telemetry)

    def test_executed_batches_reach_the_collector(self, perf, engine_config,
                                                  plan):
        telemetry = TelemetryCollector()
        with self.make_server(perf, engine_config, plan, telemetry) as server:
            assert server.telemetry is telemetry
            futures = [server.submit(InferenceRequest(image_id=f"i{n}"))
                       for n in range(10)]
            for future in futures:
                future.result(timeout=10.0)
            assert server.stats().tenants is None
        counters = telemetry.counters()
        assert counters.images == 10
        assert counters.modelled_seconds > 0
        drained = telemetry.drain()
        assert {obs.stage for obs in drained} \
            == {"decode", "preprocess", "inference"}
        # Without tenants= the scheduler's one class stays out of the
        # telemetry source (multi-tenant servers report "serving/<class>").
        assert {obs.source for obs in drained} == {"serving"}

    def test_collector_bugs_never_fail_requests(self, perf, engine_config,
                                                plan):
        class ExplodingCollector:
            def record_session_batch(self, session, result, source=""):
                raise RuntimeError("collector bug")

        with self.make_server(perf, engine_config, plan,
                              ExplodingCollector()) as server:
            response = server.submit(
                InferenceRequest(image_id="x")
            ).result(timeout=10.0)
            assert response.prediction >= 0

    def test_server_without_telemetry_has_none(self, perf, engine_config,
                                               plan):
        session = SimulatedSession(plan, perf, config=engine_config)
        session.warmup()
        with SmolServer(session, cache_capacity=0) as server:
            assert server.telemetry is None
