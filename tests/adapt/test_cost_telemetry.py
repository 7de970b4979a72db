"""Measured stage costs reach the adaptive controller over the stage bus.

The controller subscribes to its ``obs=`` at construction: every stage event
becomes a :class:`StageObservation` in a bounded buffer that ``step()``
drains into the calibrator, malformed samples are rejected (and counted)
before they reach it, and ``slo.burn`` events force a replan.
"""

import numpy as np
import pytest

from repro.adapt.calibrator import (
    ObservationKey,
    OnlineCalibrator,
    StageObservation,
)
from repro.adapt.replanner import PENDING_BOUND, AdaptiveController, Replanner
from repro.cluster.dispatcher import Dispatcher
from repro.cluster.worker import ThreadWorker
from repro.errors import AdaptError
from repro.hardware.instance import get_instance
from repro.inference.perfmodel import EngineConfig, PerformanceModel
from repro.obs import NULL_OBS, Observability, RecorderObservability
from repro.serving.request import InferenceRequest
from repro.serving.session import BatchResult, EngineSession

from test_adaptive_replanner import build_controller, champion, make_factory

DECODE = ObservationKey("decode", "161-jpeg-q75")


@pytest.fixture(scope="module")
def perf():
    return PerformanceModel(get_instance("g4dn.xlarge"))


@pytest.fixture(scope="module")
def engine_config(perf):
    return EngineConfig(num_producers=perf.instance.vcpus)


def bare_controller(perf, engine_config, obs, calibrator):
    factory = make_factory(perf, engine_config)
    return AdaptiveController(
        calibrator=calibrator,
        replanner=Replanner(factory),
        current_plan=champion(factory()),
        obs=obs,
    )


def decode_calibrator(baseline: float = 1e-3) -> OnlineCalibrator:
    calibrator = OnlineCalibrator()
    calibrator.set_baseline(DECODE, baseline)
    return calibrator


class TestSubscription:
    def test_a_controller_on_null_obs_is_refused(self, perf, engine_config):
        # It could never see a stage cost: fail at construction instead of
        # silently never adapting.
        with pytest.raises(AdaptError):
            bare_controller(perf, engine_config, NULL_OBS, OnlineCalibrator())

    def test_recorder_mode_is_a_bus_too(self, perf, engine_config):
        obs = RecorderObservability()
        controller = bare_controller(perf, engine_config, obs,
                                     decode_calibrator())
        obs.emit_stage("decode", DECODE.subject, 1, 2e-3)
        controller.step()
        assert controller.stats().observations == 1

    def test_close_unsubscribes(self, perf, engine_config):
        obs = Observability()
        calibrator = decode_calibrator()
        controller = bare_controller(perf, engine_config, obs, calibrator)
        controller.close()
        obs.emit_stage("decode", DECODE.subject, 1, 2e-3)
        obs.emit_stage("decode", "", 1, 2e-3)
        controller.step()
        stats = controller.stats()
        assert (stats.observations, stats.rejected) == (0, 0)
        assert calibrator.samples(DECODE) == 0


class TestSampleValidation:
    @pytest.mark.parametrize("bad", [
        dict(stage="telepathy"),
        dict(subject=""),
        dict(images=0),
        dict(images=-3),
        dict(seconds=float("nan")),
        dict(seconds=float("inf")),
        dict(seconds=-0.1),
    ])
    def test_malformed_samples_never_reach_the_calibrator(
            self, perf, engine_config, bad):
        # Recorder mode keeps no counters, so even samples the metrics
        # registry refuses (negative images or seconds) reach listeners.
        obs = RecorderObservability()
        calibrator = decode_calibrator()
        controller = bare_controller(perf, engine_config, obs, calibrator)
        sample = dict(stage="decode", subject=DECODE.subject, images=8,
                      seconds=0.004, source="test")
        sample.update(bad)
        assert not StageObservation(**sample).valid
        obs.emit_stage(**sample)
        controller.step()
        stats = controller.stats()
        assert (stats.observations, stats.rejected) == (0, 1)
        assert calibrator.samples(DECODE) == 0

    def test_zero_seconds_is_valid(self):
        # A stage can legitimately cost ~nothing (cache hit); the
        # calibrator's bounds handle it.
        assert StageObservation("decode", "x", 1, 0.0).valid

    def test_a_report_without_model_name_drops_inference_only(
            self, perf, engine_config):
        class Nameless(EngineSession):
            format_name = "480p-h264"

            def execute(self, requests):
                n = len(requests)
                return BatchResult(
                    np.zeros(n, dtype=np.int64), n * 2e-3,
                    stage_seconds={"decode": n * 1e-3, "inference": n * 2e-3})

        obs = Observability()
        calibrator = OnlineCalibrator()
        calibrator.set_baseline(ObservationKey("decode", "480p-h264"), 1e-3)
        controller = bare_controller(perf, engine_config, obs, calibrator)
        with Dispatcher(
            lambda wid, results: ThreadWorker(wid, Nameless("p"), results),
            num_workers=1, monitor_interval_s=0, obs=obs,
        ) as dispatcher:
            dispatcher.submit(
                tuple(InferenceRequest(image_id=f"n{i}") for i in range(4))
            ).result(timeout=10.0)
        controller.step()
        stats = controller.stats()
        assert (stats.observations, stats.rejected) == (1, 1)


class TestBuffer:
    def test_buffer_is_bounded(self, perf, engine_config):
        obs = Observability()
        calibrator = decode_calibrator()
        controller = bare_controller(perf, engine_config, obs, calibrator)
        for _ in range(PENDING_BOUND + 10):
            obs.emit_stage("decode", DECODE.subject, 1, 1e-3)
        controller.step()
        assert controller.stats().observations == PENDING_BOUND
        assert calibrator.samples(DECODE) == PENDING_BOUND

    def test_step_drains_oldest_first_and_once(self, perf, engine_config):
        # The EWMA is order-sensitive: 2.0 then 4.0 lands on
        # 2 + 0.25 * (4 - 2) = 2.5, the reverse order on 3.5.
        obs = Observability()
        calibrator = decode_calibrator(baseline=1.0)
        controller = bare_controller(perf, engine_config, obs, calibrator)
        obs.emit_stage("decode", DECODE.subject, 1, 2.0)
        obs.emit_stage("decode", DECODE.subject, 1, 4.0)
        controller.step()
        assert calibrator.calibrated(DECODE) == pytest.approx(2.5)
        controller.step()
        assert calibrator.samples(DECODE) == 2


class TestSloBurn:
    def test_a_burn_forces_one_replan_and_rejects_nothing(self, perf,
                                                          engine_config):
        controller, obs, calibrator, current, target = \
            build_controller(perf, engine_config)
        obs.emit_stage("slo.burn", "latency", 10, 20.0, source="slo")
        assert controller.step().reason in ("no-gain", "swapped")
        assert controller.step().reason == "no-drift"
        stats = controller.stats()
        assert (stats.replans, stats.slo_events, stats.rejected) == (1, 1, 0)
