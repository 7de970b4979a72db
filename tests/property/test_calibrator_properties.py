"""Property-based tests for the online calibrator and replan idempotence.

The VDBMS bug study's lesson is that adaptive paths are where analytics
systems rot, so the calibrator's guardrails are pinned as properties over
*arbitrary* observation streams -- zeros, inf-adjacent magnitudes, and
adversarially noisy timings included:

* calibrated stage costs are always finite, strictly positive, and inside
  the hard bounds ``[baseline / max_scale, baseline * max_scale]``;
* throughput scales are therefore finite, positive, and bounded;
* a constant in-bounds stream converges the estimate to that constant;
* with no drift reported, ``Replanner.replan`` is idempotent: it never
  swaps and returns the same decision when called again.
"""

from __future__ import annotations

import math

from hypothesis import given, settings, strategies as st

from repro.adapt.calibrator import (
    ObservationKey,
    OnlineCalibrator,
    StageObservation,
)
from repro.adapt.replanner import Replanner
from repro.core.costmodel import SmolCostModel
from repro.core.accuracy import AccuracyEstimator
from repro.core.planner import PlanGenerator
from repro.hardware.instance import get_instance
from repro.inference.perfmodel import PerformanceModel

KEY = ObservationKey("decode", "161-jpeg-q75")
BASELINE = 1e-4  # 100us of decode per image
MAX_SCALE = 64.0

# Arbitrary hostile timings: tiny, huge, zero -- anything non-negative and
# finite the guards must absorb (non-finite values are rejected upstream by
# the controller's bus listener, and the calibrator rejects them again).
seconds_strategy = st.one_of(
    st.just(0.0),
    st.floats(0.0, 1e-6, allow_nan=False, allow_infinity=False),
    st.floats(0.0, 10.0, allow_nan=False, allow_infinity=False),
    st.floats(1e6, 1e300, allow_nan=False, allow_infinity=False),
)
images_strategy = st.integers(1, 4096)
stream_strategy = st.lists(
    st.tuples(seconds_strategy, images_strategy), min_size=0, max_size=64
)


def calibrator_with_baseline() -> OnlineCalibrator:
    calibrator = OnlineCalibrator(max_scale=MAX_SCALE)
    calibrator.set_baseline(KEY, BASELINE)
    return calibrator


def feed(calibrator: OnlineCalibrator, stream) -> None:
    for seconds, images in stream:
        calibrator.observe(StageObservation(
            stage=KEY.stage, subject=KEY.subject,
            images=images, seconds=seconds,
        ))


class TestCalibratorGuardrails:
    @given(stream=stream_strategy)
    @settings(max_examples=80, deadline=None)
    def test_calibrated_cost_always_positive_finite_and_bounded(self, stream):
        calibrator = calibrator_with_baseline()
        feed(calibrator, stream)
        calibrated = calibrator.calibrated(KEY)
        assert calibrated is not None
        assert math.isfinite(calibrated)
        assert calibrated > 0.0
        assert BASELINE / MAX_SCALE <= calibrated <= BASELINE * MAX_SCALE

    @given(stream=stream_strategy)
    @settings(max_examples=80, deadline=None)
    def test_scales_always_positive_finite_and_bounded(self, stream):
        calibrator = calibrator_with_baseline()
        feed(calibrator, stream)
        scale = calibrator.observed_costs().scale(KEY)
        assert math.isfinite(scale)
        assert 1.0 / MAX_SCALE <= scale <= MAX_SCALE

    @given(stream=stream_strategy,
           nan_like=st.sampled_from([float("nan"), float("inf"),
                                     float("-inf"), -1.0]))
    @settings(max_examples=40, deadline=None)
    def test_invalid_samples_are_rejected_not_absorbed(self, stream, nan_like):
        calibrator = calibrator_with_baseline()
        feed(calibrator, stream)
        before = calibrator.calibrated(KEY)
        accepted = calibrator.observe(StageObservation(
            stage=KEY.stage, subject=KEY.subject, images=1,
            seconds=nan_like,
        ))
        assert not accepted
        assert calibrator.calibrated(KEY) == before

    @given(stream=stream_strategy)
    @settings(max_examples=40, deadline=None)
    def test_zero_image_samples_never_divide(self, stream):
        calibrator = calibrator_with_baseline()
        feed(calibrator, stream)
        before = calibrator.calibrated(KEY)
        assert not calibrator.observe(StageObservation(
            stage=KEY.stage, subject=KEY.subject, images=0, seconds=1.0,
        ))
        assert calibrator.calibrated(KEY) == before

    @given(
        per_image=st.floats(BASELINE / 32, BASELINE * 32, allow_nan=False,
                            allow_infinity=False),
        repeats=st.integers(48, 96),
    )
    @settings(max_examples=40, deadline=None)
    def test_constant_stream_converges_within_bounds(self, per_image, repeats):
        calibrator = calibrator_with_baseline()
        feed(calibrator, [(per_image, 1)] * repeats)
        calibrated = calibrator.calibrated(KEY)
        # EWMA with alpha=0.25 over >=48 identical samples is within a
        # hair of the sample value (guards cannot clip a constant stream).
        assert abs(calibrated - per_image) <= per_image * 1e-4

    @given(stream=stream_strategy)
    @settings(max_examples=40, deadline=None)
    def test_unobserved_subjects_scale_exactly_one(self, stream):
        calibrator = calibrator_with_baseline()
        calibrator.set_baseline(ObservationKey("inference", "resnet-50"),
                                2e-4)
        feed(calibrator, stream)
        observed = calibrator.observed_costs()
        assert observed.dnn_scale("resnet-50") == 1.0
        assert observed.dnn_scale("never-registered") == 1.0
        assert observed.preprocessing_scale("never-registered") == 1.0


class TestReplanIdempotence:
    def _planner_factory(self):
        perf = PerformanceModel(get_instance("g4dn.xlarge"))

        def factory(observations=None) -> PlanGenerator:
            return PlanGenerator(cost_model=SmolCostModel(perf),
                                 accuracy=AccuracyEstimator("imagenet"),
                                 observations=observations)
        return factory

    def test_replan_without_drift_is_idempotent(self):
        factory = self._planner_factory()
        planner = factory()
        current = max(planner.score(planner.generate()),
                      key=lambda e: (e.throughput, e.accuracy))
        replanner = Replanner(factory, min_improvement=0.1)
        first = replanner.replan(current)
        second = replanner.replan(current)
        assert not first.swapped and not second.swapped
        assert first.reason == second.reason == "no-gain"
        assert first.candidate.plan.describe() == current.plan.describe()
        assert first.gain == second.gain == 0.0

    @given(noise=st.floats(0.97, 1.03, allow_nan=False,
                           allow_infinity=False))
    @settings(max_examples=20, deadline=None)
    def test_replan_under_negligible_drift_never_swaps(self, noise):
        factory = self._planner_factory()
        planner = factory()
        current = max(planner.score(planner.generate()),
                      key=lambda e: (e.throughput, e.accuracy))
        calibrator = OnlineCalibrator()
        key = ObservationKey("decode", current.plan.input_format.name)
        calibrator.set_baseline(key, BASELINE)
        feed_value = BASELINE * noise
        calibrator.observe(StageObservation(
            stage=key.stage, subject=key.subject, images=1,
            seconds=feed_value,
        ))
        replanner = Replanner(factory, min_improvement=0.1)
        decision = replanner.replan(current,
                                    calibrator.observed_costs())
        assert not decision.swapped
