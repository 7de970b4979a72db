"""Tests for cloud instance models and the Section 7 price regression."""

import pytest

from repro.errors import HardwareError
from repro.hardware.instance import estimate_core_price, get_instance


class TestCorePriceRegression:
    def test_per_vcpu_price_matches_paper(self):
        slope, intercept = estimate_core_price()
        # Paper: ~$0.0639 per vCPU and ~$0.218 attributed to the T4.
        assert slope == pytest.approx(0.0639, abs=0.005)
        assert intercept == pytest.approx(0.218, abs=0.08)

    def test_roughly_3_4_vcpus_equal_one_t4(self):
        slope, intercept = estimate_core_price()
        assert intercept / slope == pytest.approx(3.4, abs=0.9)


class TestCloudInstance:
    def test_g4dn_xlarge_shape(self):
        instance = get_instance("g4dn.xlarge")
        assert instance.vcpus == 4
        assert instance.gpu.name == "T4"

    def test_unknown_instance_rejected(self):
        with pytest.raises(HardwareError):
            get_instance("m5.large")

    def test_price_per_million_images(self):
        instance = get_instance("g4dn.xlarge")
        cents = instance.price_per_million_images(1927.0)
        # Table 8: roughly 7.6 cents per million images for the optimized
        # 4-vCPU condition.
        assert 4.0 < cents < 12.0

    def test_price_per_million_requires_positive_throughput(self):
        with pytest.raises(HardwareError):
            get_instance("g4dn.xlarge").price_per_million_images(0.0)

    def test_with_vcpus_prices_with_regression(self):
        base = get_instance("g4dn.xlarge")
        bigger = base.with_vcpus(16)
        assert bigger.vcpus == 16
        assert bigger.hourly_price_usd > base.hourly_price_usd
        assert bigger.gpu.name == "T4"

    def test_gpu_price_fraction_below_one(self):
        instance = get_instance("g4dn.xlarge")
        assert 0.0 < instance.gpu_price_fraction < 1.0
