"""Tests for the online calibrator and its observed-cost snapshots."""

import pytest

from repro.adapt.calibrator import (
    ObservationKey,
    OnlineCalibrator,
    StageObservation,
)
from repro.errors import AdaptError

DECODE = ObservationKey("decode", "161-jpeg-q75")
PREPROCESS = ObservationKey("preprocess", "161-jpeg-q75")
INFERENCE = ObservationKey("inference", "resnet-18")


def obs(key: ObservationKey, seconds: float,
        images: int = 1) -> StageObservation:
    return StageObservation(stage=key.stage, subject=key.subject,
                            images=images, seconds=seconds)


def calibrator(**kwargs) -> OnlineCalibrator:
    c = OnlineCalibrator(**kwargs)
    c.set_baseline(DECODE, 1e-4)
    c.set_baseline(PREPROCESS, 2e-5)
    c.set_baseline(INFERENCE, 9e-5)
    return c


class TestConstruction:
    @pytest.mark.parametrize("kwargs", [
        dict(alpha=0.0), dict(alpha=1.5), dict(window=0),
        dict(guard_quantile=0.4), dict(guard_quantile=1.1),
        dict(min_guard_samples=1), dict(max_scale=1.0),
    ])
    def test_invalid_parameters_rejected(self, kwargs):
        with pytest.raises(AdaptError):
            OnlineCalibrator(**kwargs)

    @pytest.mark.parametrize("value", [0.0, -1.0, float("nan"),
                                       float("inf")])
    def test_invalid_baseline_rejected(self, value):
        with pytest.raises(AdaptError):
            OnlineCalibrator().set_baseline(DECODE, value)


class TestObservation:
    def test_unregistered_key_is_ignored(self):
        c = OnlineCalibrator()
        assert not c.observe(obs(DECODE, 1e-4))
        assert c.calibrated(DECODE) is None
        assert c.samples(DECODE) == 0

    def test_identity_observations_keep_scale_at_one(self):
        c = calibrator()
        for _ in range(20):
            c.observe(obs(DECODE, 1e-4))
        assert c.calibrated(DECODE) == pytest.approx(1e-4)
        assert c.observed_costs().scale(DECODE) == pytest.approx(1.0)

    def test_slowdown_converges_to_inverse_scale(self):
        c = calibrator()
        for _ in range(60):
            c.observe(obs(DECODE, 4e-4))
        assert c.observed_costs().scale(DECODE) == pytest.approx(0.25,
                                                                 rel=1e-3)

    def test_per_image_normalization(self):
        c = calibrator()
        for _ in range(60):
            c.observe(obs(DECODE, 4e-4 * 32, images=32))
        assert c.calibrated(DECODE) == pytest.approx(4e-4, rel=1e-3)

    def test_hard_bounds_clamp_absurd_samples(self):
        c = calibrator(max_scale=64.0)
        c.observe(obs(DECODE, 1e300))
        assert c.calibrated(DECODE) <= 1e-4 * 64.0
        c2 = calibrator(max_scale=64.0)
        c2.observe(obs(DECODE, 0.0))
        assert c2.calibrated(DECODE) >= 1e-4 / 64.0

    def test_quantile_guard_absorbs_outliers(self):
        c = calibrator()
        for _ in range(32):
            c.observe(obs(DECODE, 1e-4))
        steady = c.calibrated(DECODE)
        # One adversarial spike: the guard clips it to the window's upper
        # quantile (= the steady value), so the estimate barely moves.
        c.observe(obs(DECODE, 5e-3))
        assert c.calibrated(DECODE) == pytest.approx(steady, rel=1e-6)

    def test_observe_all_counts_accepted(self):
        c = calibrator()
        stream = [obs(DECODE, 1e-4), obs(INFERENCE, 9e-5),
                  obs(ObservationKey("decode", "unknown-fmt"), 1e-4)]
        assert c.observe_all(stream) == 2


class TestObservedCosts:
    def test_preprocessing_scale_combines_decode_and_ops(self):
        c = calibrator()
        for _ in range(60):
            c.observe(obs(DECODE, 4e-4))       # decode 4x slower
            c.observe(obs(PREPROCESS, 2e-5))   # ops as modelled
        observed = c.observed_costs()
        # Combined: (1e-4 + 2e-5) / (4e-4 + 2e-5) = 0.2857...
        assert observed.preprocessing_scale("161-jpeg-q75") == pytest.approx(
            0.12e-3 / 0.42e-3, rel=1e-3
        )

    def test_read_stage_never_enters_the_decoding_ratio(self):
        # Even with a registered + calibrated "read" baseline (the warm
        # chunk-read residual), a decoding plan's ratio sums only
        # decode + preprocess: warm-read calibration must not dilute
        # cold-decode pricing.
        c = calibrator()
        read_key = ObservationKey("read", "161-jpeg-q75")
        c.set_baseline(read_key, 3e-5)
        for _ in range(60):
            c.observe(obs(DECODE, 4e-4))
            c.observe(obs(read_key, 9e-5))  # warm reads 3x slower too
        observed = c.observed_costs()
        assert observed.preprocessing_scale("161-jpeg-q75") == pytest.approx(
            0.12e-3 / 0.42e-3, rel=1e-3
        )

    def test_two_sample_guard_window_never_inverts(self):
        # With min_guard_samples=2 a two-sample window must not clamp
        # every new sample to the window minimum (band inversion); the
        # guard degrades to a no-op [min, max] band instead.
        c = OnlineCalibrator(min_guard_samples=2, alpha=1.0)
        c.set_baseline(DECODE, 1e-4)
        c.observe(obs(DECODE, 1e-4))
        c.observe(obs(DECODE, 1.1e-4))
        c.observe(obs(DECODE, 8e-4))  # genuine slowdown sample
        assert c.calibrated(DECODE) > 1e-4  # not pinned to the minimum

    def test_decoding_false_ignores_decode_drift(self):
        c = calibrator()
        for _ in range(60):
            c.observe(obs(DECODE, 4e-4))
        observed = c.observed_costs()
        assert observed.preprocessing_scale("161-jpeg-q75",
                                            decoding=False) == 1.0

    def test_dnn_scale(self):
        c = calibrator()
        for _ in range(60):
            c.observe(obs(INFERENCE, 1.8e-4))
        assert c.observed_costs().dnn_scale("resnet-18") == pytest.approx(
            0.5, rel=1e-3
        )

    def test_scales_lists_every_registered_key(self):
        c = calibrator()
        assert set(c.observed_costs().scales()) == {DECODE, PREPROCESS,
                                                    INFERENCE}

    def test_snapshot_is_decoupled_from_later_observations(self):
        c = calibrator()
        snapshot = c.observed_costs()
        for _ in range(60):
            c.observe(obs(DECODE, 4e-4))
        assert snapshot.scale(DECODE) == 1.0
        assert c.observed_costs().scale(DECODE) == pytest.approx(0.25,
                                                                 rel=1e-3)

    def test_rebaselining_keeps_estimate_within_new_bounds(self):
        c = calibrator(max_scale=2.0)
        for _ in range(30):
            c.observe(obs(DECODE, 1.9e-4))
        c.set_baseline(DECODE, 1e-5)
        assert c.calibrated(DECODE) <= 1e-5 * 2.0
