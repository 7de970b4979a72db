"""Tests for the profile-based preprocessing calibrator."""

import statistics

import pytest

from repro.codecs.formats import FULL_JPEG, THUMB_JPEG_161_Q75, THUMB_PNG_161
from repro.datasets.images import load_image_dataset
from repro.errors import EngineError
from repro.hardware.devices import get_cpu
from repro.inference.calibrator import PreprocessingCalibrator


@pytest.fixture(scope="module")
def calibrator():
    dataset = load_image_dataset("bike-bird")
    store = dataset.build_store(images_per_class=2, seed=31)
    return PreprocessingCalibrator(store)


def fastest(profiles):
    return min(profiles, key=lambda profile: profile.per_image_seconds)


class TestPreprocessingCalibrator:
    def test_profile_reports_positive_times(self, calibrator):
        profile = calibrator.profile_format(THUMB_JPEG_161_Q75, sample_size=3)
        assert profile.per_image_seconds > 0
        assert profile.images_profiled == 3
        assert 0.0 <= profile.decode_fraction <= 1.0
        assert profile.single_thread_throughput > 0

    # Since the JPEG-like decoder became an array program a 64-px decode is
    # about a millisecond (it was ten), so one scheduling hiccup outweighs
    # the differences the two timing tests below assert.  Decode dominating
    # is a wide margin: the fastest of a few profiles settles it.

    def test_decode_dominates_measured_cost(self, calibrator):
        profiles = [calibrator.profile_format(FULL_JPEG, sample_size=3)
                    for _ in range(5)]
        # The numpy JPEG decoder is by far the most expensive stage, matching
        # the paper's observation that decode dominates preprocessing.
        assert fastest(profiles).decode_fraction > 0.5

    def test_thumbnails_cheaper_than_full_resolution(self, calibrator):
        # Every rendition here is 64 px, so q95 against q75 is a ~10 % margin
        # -- well inside what a slow host phase does to one profile.  Each
        # repeat profiles all formats back to back, so a phase lands on both
        # sides of that repeat's ratio; the median of the paired ratios
        # compares like with like, where a fastest-of-n per format does not.
        relatives = [calibrator.relative_costs(
            calibrator.profile_all(sample_size=3)) for _ in range(9)]
        assert statistics.median(r["full-jpeg"] / r["161-jpeg-q75"]
                                 for r in relatives) > 1.0
        for relative in relatives:
            assert min(relative.values()) == pytest.approx(1.0)

    def test_throughput_scales_with_vcpus(self, calibrator):
        profile = calibrator.profile_format(THUMB_PNG_161, sample_size=2)
        cpu = get_cpu(4)
        four = calibrator.estimated_throughput(profile, cpu, vcpus=4)
        sixteen = calibrator.estimated_throughput(profile, cpu, vcpus=16)
        assert sixteen > four > profile.single_thread_throughput

    def test_invalid_arguments_rejected(self, calibrator):
        with pytest.raises(EngineError):
            calibrator.profile_format(FULL_JPEG, sample_size=0)
        with pytest.raises(EngineError):
            calibrator.relative_costs({})

    def test_empty_store_rejected(self):
        from repro.datasets.store import MultiResolutionStore

        empty = MultiResolutionStore([FULL_JPEG])
        with pytest.raises(EngineError):
            PreprocessingCalibrator(empty)
