"""Tests for the drift scenario harness (configs + fast end-to-end runs)."""

import numpy as np
import pytest

from repro.adapt.scenario import (
    PhaseReport,
    ScanDriftConfig,
    ScenarioReport,
    ServingDriftConfig,
    run_scan_drift_scenario,
    run_serving_drift_scenario,
)
from repro.errors import AdaptError


class TestConfigValidation:
    @pytest.mark.parametrize("kwargs", [
        dict(waves=2),
        dict(drift_wave=0),
        dict(drift_wave=5, waves=6),
        dict(drift_factor=0.0),
        dict(drift_factor=-2.0),
        dict(wave_requests=0),
        dict(threshold=1.0),
        dict(hysteresis=0),
        dict(min_improvement=-0.5),
    ])
    def test_invalid_serving_config_rejected(self, kwargs):
        with pytest.raises(AdaptError):
            ServingDriftConfig(**kwargs)

    @pytest.mark.parametrize("kwargs", [
        dict(segments=2),
        dict(drift_segment=0),
        dict(drift_segment=5, segments=6),
        dict(drift_factor=-1.0),
        dict(frames=2, segments=3),
        dict(threshold=1.0),
        dict(hysteresis=0),
        dict(min_improvement=-0.5),
    ])
    def test_invalid_scan_config_rejected(self, kwargs):
        with pytest.raises(AdaptError):
            ScanDriftConfig(**kwargs)


class TestReportArithmetic:
    def test_recovery_ratio(self):
        report = ScenarioReport(
            adaptive=True,
            phases=(
                PhaseReport(index=0, images=100, modelled_seconds=0.01,
                            plan_key="a"),
                PhaseReport(index=1, images=100, modelled_seconds=0.04,
                            plan_key="a"),
            ),
            drift_phase=1,
            initial_plan_key="a", final_plan_key="a",
            swaps=0, replans=0,
        )
        assert report.pre_drift_throughput == pytest.approx(10_000)
        assert report.post_drift_throughput == pytest.approx(2_500)
        assert report.recovery == pytest.approx(0.25)

    def test_zero_seconds_phase_reports_zero_throughput(self):
        phase = PhaseReport(index=0, images=10, modelled_seconds=0.0,
                            plan_key="a")
        assert phase.throughput == 0.0


class TestFastEndToEnd:
    def test_serving_scenario_recovers_and_describes(self):
        config = ServingDriftConfig(waves=4, wave_requests=64, drift_wave=1,
                                    hysteresis=1)
        frozen = run_serving_drift_scenario(False, config)
        adaptive = run_serving_drift_scenario(True, config)
        assert frozen.swaps == 0 and adaptive.swaps == 1
        assert adaptive.recovery > frozen.recovery
        assert "hot" not in frozen.describe()  # smoke: renders
        assert "adaptive" in adaptive.describe()

    def test_scan_scenario_is_bit_identical_and_recovers(self):
        config = ScanDriftConfig(frames=900, segments=3, drift_segment=1,
                                 batch_size=128)
        frozen = run_scan_drift_scenario(False, config)
        adaptive = run_scan_drift_scenario(True, config)
        assert np.array_equal(frozen.scores, adaptive.scores)
        assert frozen.estimate == adaptive.estimate
        assert adaptive.swaps == 1
        assert adaptive.recovery > 1.0 > frozen.recovery
