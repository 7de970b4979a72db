"""Tests for the power model (Section 7)."""

import pytest

from repro.errors import HardwareError
from repro.hardware.devices import get_cpu, get_gpu
from repro.hardware.power import PowerBreakdown, PowerModel


@pytest.fixture()
def power_model():
    return PowerModel(get_cpu(4), get_gpu("T4"))


class TestPowerModel:
    def test_vcpus_needed_grows_with_target(self, power_model):
        few = power_model.vcpus_to_sustain(150.0, 1000.0)
        many = power_model.vcpus_to_sustain(150.0, 4513.0)
        assert many > few

    def test_preprocessing_needs_more_power_than_t4_for_resnet50(self, power_model):
        # Per-vCPU full-res preprocessing rate ~ 180 im/s; keeping up with
        # ResNet-50 on the T4 needs far more CPU power than the GPU's 70 W.
        breakdown = power_model.breakdown(
            preproc_per_vcpu_im_s=180.0, dnn_throughput=4513.0
        )
        assert breakdown.dnn_watts == pytest.approx(70.0)
        assert breakdown.power_ratio > 1.5

    def test_resnet18_gap_is_larger(self, power_model):
        rn50 = power_model.breakdown(180.0, 4513.0)
        rn18 = power_model.breakdown(180.0, 12592.0)
        assert rn18.power_ratio > rn50.power_ratio

    def test_hourly_cost_breakdown_preproc_dominates(self, power_model):
        costs = power_model.hourly_cost_breakdown(180.0, 4513.0)
        assert costs["preproc_usd_per_hour"] > costs["dnn_usd_per_hour"]

    def test_invalid_inputs_rejected(self, power_model):
        with pytest.raises(HardwareError):
            power_model.vcpus_to_sustain(0.0, 100.0)
        with pytest.raises(HardwareError):
            power_model.vcpus_to_sustain(100.0, -5.0)

    def test_vcpus_to_sustain_inverts_the_cpu_scaling_model(self):
        cpu = get_cpu(4)
        model = PowerModel(cpu, get_gpu("T4"))
        vcpus = model.vcpus_to_sustain(150.0, 1200.0)
        assert 150.0 * vcpus ** cpu.scaling_exponent == pytest.approx(1200.0)

    def test_power_ratio_needs_positive_dnn_power(self):
        breakdown = PowerBreakdown(target_throughput=100.0, preproc_watts=50.0,
                                   dnn_watts=0.0, preproc_vcpus=2.0)
        with pytest.raises(HardwareError):
            _ = breakdown.power_ratio
