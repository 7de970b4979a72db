"""Tests for the calibrated model zoo."""

import pytest

from repro.errors import ModelError
from repro.hardware.devices import get_gpu
from repro.nn.zoo import (
    get_model_profile,
    imagenet_accuracy,
    resnet_profile,
)


class TestModelProfiles:
    def test_resnet50_anchor(self):
        profile = get_model_profile("resnet-50")
        assert profile.t4_throughput == pytest.approx(4513.0)
        assert profile.imagenet_top1 == pytest.approx(0.7434)

    def test_resnet_depths_ordered_by_throughput(self):
        assert (resnet_profile(18).t4_throughput
                > resnet_profile(34).t4_throughput
                > resnet_profile(50).t4_throughput)

    def test_unknown_model_rejected(self):
        with pytest.raises(ModelError):
            get_model_profile("vgg-16")

    def test_throughput_scales_across_gpus(self):
        profile = resnet_profile(50)
        assert profile.throughput_on("K80") == pytest.approx(159.0, rel=0.01)
        assert profile.throughput_on(get_gpu("V100")) == pytest.approx(7151.0,
                                                                       rel=0.01)

    def test_backend_efficiency_scales_throughput(self):
        profile = resnet_profile(50)
        assert profile.throughput_on("T4", backend_efficiency=0.1) == pytest.approx(
            451.3, rel=1e-6
        )

    def test_execution_latency_inverse_of_throughput(self):
        profile = resnet_profile(50)
        assert profile.execution_us_per_image("T4") == pytest.approx(
            1e6 / 4513.0
        )

    def test_mask_rcnn_is_slow(self):
        assert get_model_profile("mask-rcnn").t4_throughput < 10.0


class TestImagenetAccuracySurface:
    def test_full_resolution_regular_matches_table2(self):
        assert imagenet_accuracy(50) == pytest.approx(0.7516)

    def test_lowres_training_beats_regular_on_thumbnails(self):
        assert imagenet_accuracy(50, "161-png", "lowres") > imagenet_accuracy(
            50, "161-png", "regular"
        )

    def test_resnet18_penalty_extrapolated(self):
        full = imagenet_accuracy(18, "full", "regular")
        thumb = imagenet_accuracy(18, "161-png", "lowres")
        assert 0.0 < thumb <= full + 0.02

    def test_unknown_depth_rejected(self):
        with pytest.raises(ModelError):
            imagenet_accuracy(77, "161-png", "lowres")
