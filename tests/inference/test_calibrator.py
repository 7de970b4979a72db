"""Tests for the profile-based preprocessing calibrator."""

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

    # The two timing tests below read the fastest of a few profiles: host
    # noise only ever adds time, and since the JPEG-like decoder became an
    # array program a 64-px decode is about a millisecond (it was ten), so
    # one scheduling hiccup outweighs the differences they assert.

    def test_decode_dominates_measured_cost(self, calibrator):
        profiles = [calibrator.profile_format(FULL_JPEG, sample_size=3)
                    for _ in range(5)]
        # The numpy JPEG decoder is by far the most expensive stage, matching
        # the paper's observation that decode dominates preprocessing.
        assert fastest(profiles).decode_fraction > 0.5

    def test_thumbnails_cheaper_than_full_resolution(self, calibrator):
        runs = [calibrator.profile_all(sample_size=3) for _ in range(5)]
        profiles = {name: fastest([run[name] for run in runs])
                    for name in runs[0]}
        relative = calibrator.relative_costs(profiles)
        assert relative["full-jpeg"] > relative["161-jpeg-q75"]
        assert relative[min(relative, key=relative.get)] == pytest.approx(1.0)

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
