"""Tests for drift injection sessions and baseline registration."""

import pytest

from repro.adapt.calibrator import ObservationKey, OnlineCalibrator
from repro.adapt.session import (
    DriftableSession,
    DriftEnvironment,
    plan_baselines,
    register_plan_baselines,
)
from repro.codecs.formats import THUMB_JPEG_161_Q75
from repro.core.plans import Plan
from repro.errors import AdaptError
from repro.hardware.instance import get_instance
from repro.inference.perfmodel import EngineConfig, PerformanceModel
from repro.serving.request import InferenceRequest
from repro.serving.session import SimulatedSession
from repro.store.catalog import MATERIALIZED_DECODE_FRACTION
from repro.nn.zoo import resnet_profile

FMT = THUMB_JPEG_161_Q75.name


@pytest.fixture(scope="module")
def perf():
    return PerformanceModel(get_instance("g4dn.xlarge"))


@pytest.fixture(scope="module")
def engine_config(perf):
    return EngineConfig(num_producers=perf.instance.vcpus)


@pytest.fixture(scope="module")
def plan():
    return Plan.single(resnet_profile(18), THUMB_JPEG_161_Q75)


class TestDriftEnvironment:
    def test_defaults_are_identity(self):
        environment = DriftEnvironment()
        assert environment.decode_multiplier(FMT) == 1.0
        assert not environment.is_materialized(FMT)

    def test_non_positive_multiplier_rejected(self):
        with pytest.raises(AdaptError):
            DriftEnvironment().set_decode_multiplier(FMT, 0.0)

    def test_multiplier_scales_only_decode(self):
        environment = DriftEnvironment()
        environment.set_decode_multiplier(FMT, 4.0)
        base = {"decode": 1e-4, "preprocess": 2e-5, "inference": 9e-5}
        drifted = environment.stage_seconds(FMT, base)
        assert drifted["decode"] == pytest.approx(4e-4)
        assert drifted["preprocess"] == base["preprocess"]
        assert drifted["inference"] == base["inference"]

    def test_warm_read_pays_the_residual_not_the_drift(self):
        environment = DriftEnvironment()
        environment.set_decode_multiplier(FMT, 4.0)
        environment.materialize(FMT)
        base = {"decode": 1e-4, "preprocess": 2e-5, "inference": 9e-5}
        warm = environment.stage_seconds(FMT, base, warm_read=True)
        # The residual is charged under the distinct "read" stage key so
        # warm-read telemetry can never contaminate cold-decode
        # calibration for the format.
        assert "decode" not in warm
        assert warm["read"] == pytest.approx(
            1e-4 * MATERIALIZED_DECODE_FRACTION
        )

    def test_warm_read_requires_materialization(self):
        with pytest.raises(AdaptError):
            DriftEnvironment().stage_seconds(
                FMT, {"decode": 1e-4}, warm_read=True
            )

    def test_service_time_is_the_pipelined_bottleneck(self):
        environment = DriftEnvironment()
        base = {"decode": 1e-4, "preprocess": 2e-5, "inference": 9e-5}
        assert environment.service_seconds_per_image(FMT, base) == \
            pytest.approx(1.2e-4)
        environment.set_decode_multiplier(FMT, 0.1)
        # Preprocessing now beats inference: the DNN is the bottleneck.
        assert environment.service_seconds_per_image(FMT, base) == \
            pytest.approx(9e-5)


class TestDriftableSession:
    def test_undrifted_session_matches_simulated_costs(self, perf,
                                                       engine_config, plan):
        reference = SimulatedSession(plan, perf, config=engine_config)
        reference.warmup()
        driftable = DriftableSession(plan, perf, DriftEnvironment(),
                                     config=engine_config)
        driftable.warmup()
        requests = [InferenceRequest(image_id=f"i-{i}") for i in range(8)]
        expected = reference.execute(requests)
        actual = driftable.execute(requests)
        assert actual.modelled_seconds == pytest.approx(
            expected.modelled_seconds
        )
        assert actual.stage_seconds == pytest.approx(expected.stage_seconds)
        assert list(actual.predictions) == list(expected.predictions)

    def test_injected_drift_raises_the_charge(self, perf, engine_config,
                                              plan):
        environment = DriftEnvironment()
        session = DriftableSession(plan, perf, environment,
                                   config=engine_config)
        session.warmup()
        requests = [InferenceRequest(image_id="x")]
        before = session.execute(requests).modelled_seconds
        environment.set_decode_multiplier(FMT, 4.0)
        after = session.execute(requests).modelled_seconds
        assert after > before * 2  # decode is ~82% of preprocessing

    def test_warm_read_construction_requires_materialization(self, perf,
                                                             engine_config,
                                                             plan):
        with pytest.raises(AdaptError):
            DriftableSession(plan, perf, DriftEnvironment(),
                             config=engine_config, warm_read=True)

    def test_warm_read_beats_cold_decode(self, perf, engine_config, plan):
        environment = DriftEnvironment()
        environment.materialize(FMT)
        cold = DriftableSession(plan, perf, environment,
                                config=engine_config)
        cold.warmup()
        warm = DriftableSession(plan, perf, environment,
                                config=engine_config, warm_read=True)
        warm.warmup()
        requests = [InferenceRequest(image_id="x")]
        assert (warm.execute(requests).modelled_seconds
                < cold.execute(requests).modelled_seconds)


class TestWarmReadCalibrationIsolation:
    def test_warm_read_telemetry_never_moves_the_decode_scale(self, perf,
                                                              engine_config,
                                                              plan):
        """Chunk-read residuals report as "read", not "decode": after a
        swap onto warm reads, the format's cold-decode calibration (and
        thus any later cold pricing) must stay untouched."""
        from repro.adapt.calibrator import StageObservation

        environment = DriftEnvironment()
        environment.materialize(FMT)
        session = DriftableSession(plan, perf, environment,
                                   config=engine_config, warm_read=True)
        session.warmup()
        calibrator = OnlineCalibrator()
        register_plan_baselines(calibrator, perf, [plan], engine_config)
        result = session.execute([InferenceRequest(image_id="x")])
        assert "read" in result.stage_seconds
        calibrator.observe_all(
            StageObservation(stage, FMT, 1, seconds)
            for stage, seconds in result.stage_seconds.items()
            if stage != "inference")
        observed = calibrator.observed_costs()
        assert observed.scale(ObservationKey("decode", FMT)) == 1.0
        assert observed.preprocessing_scale(FMT) == 1.0


class TestBaselines:
    def test_plan_baselines_match_session_reporting(self, perf,
                                                    engine_config, plan):
        baselines = plan_baselines(perf, plan, engine_config)
        session = SimulatedSession(plan, perf, config=engine_config)
        session.warmup()
        result = session.execute([InferenceRequest(image_id="x")])
        assert result.stage_seconds["decode"] == pytest.approx(
            baselines[ObservationKey("decode", FMT)]
        )
        assert result.stage_seconds["inference"] == pytest.approx(
            baselines[ObservationKey("inference", "resnet-18")]
        )

    def test_register_plan_baselines_accepts_plans_and_estimates(
            self, perf, engine_config, plan):
        calibrator = OnlineCalibrator()
        count = register_plan_baselines(calibrator, perf, [plan],
                                        engine_config)
        assert count == 3
        assert calibrator.baseline(ObservationKey("decode", FMT)) is not None
