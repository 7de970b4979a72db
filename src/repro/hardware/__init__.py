"""Hardware substrate: accelerators, CPUs, cloud instances, power, and pricing.

The paper benchmarks on the AWS ``g4dn.xlarge`` instance (one NVIDIA T4 GPU and
4 vCPU cores).  Since no GPU is available in this environment, this package
provides calibrated analytic models of the devices the paper measures.  The
calibration anchors (ResNet-50 throughput per GPU generation, vCPU pricing,
power draws) come directly from the paper's Tables 1, 2 and 5 and Section 7.
"""

from repro import _lazy_exports

_EXPORTS = {
    "GpuSpec": "repro.hardware.devices",
    "CpuSpec": "repro.hardware.devices",
    "get_gpu": "repro.hardware.devices",
    "get_cpu": "repro.hardware.devices",
    "list_gpus": "repro.hardware.devices",
    "CloudInstance": "repro.hardware.instance",
    "get_instance": "repro.hardware.instance",
    "estimate_core_price": "repro.hardware.instance",
    "PowerModel": "repro.hardware.power",
}
__all__ = list(_EXPORTS)
__getattr__, __dir__ = _lazy_exports(__name__, _EXPORTS)
