"""Cloud instance models and pricing.

The paper evaluates on the AWS ``g4dn`` family: one NVIDIA T4 plus a variable
number of vCPUs.  Section 7 estimates the per-vCPU price with a linear
regression over the family's on-demand prices, attributing a fixed price to
the T4.  This module reproduces both the instance catalog and that regression.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import HardwareError
from repro.hardware.devices import CpuSpec, GpuSpec, get_cpu, get_gpu

# On-demand hourly prices (USD) for the g4dn family (us-east-1, 2020), used
# for the Section 7 per-core price regression.
G4DN_HOURLY_PRICES: dict[str, float] = {
    "g4dn.xlarge": 0.526,
    "g4dn.2xlarge": 0.752,
    "g4dn.4xlarge": 1.204,
    "g4dn.8xlarge": 2.176,
    "g4dn.16xlarge": 4.352,
}
G4DN_VCPUS: dict[str, int] = {
    "g4dn.xlarge": 4,
    "g4dn.2xlarge": 8,
    "g4dn.4xlarge": 16,
    "g4dn.8xlarge": 32,
    "g4dn.16xlarge": 64,
}


@dataclass(frozen=True)
class CloudInstance:
    """A cloud VM with one accelerator and a number of vCPUs."""

    name: str
    gpu: GpuSpec
    cpu: CpuSpec
    hourly_price_usd: float
    memory_gb: float = 16.0

    @property
    def vcpus(self) -> int:
        """Number of vCPUs on the instance."""
        return self.cpu.vcpus

    @property
    def gpu_price_fraction(self) -> float:
        """Fraction of the instance price attributable to the accelerator."""
        return self.gpu.hourly_price_usd / self.hourly_price_usd

    def price_per_million_images(self, throughput_im_s: float) -> float:
        """Cost in US cents to process one million images at ``throughput_im_s``."""
        if throughput_im_s <= 0:
            raise HardwareError("throughput must be positive")
        hours = 1e6 / throughput_im_s / 3600.0
        return hours * self.hourly_price_usd * 100.0

    def with_vcpus(self, vcpus: int) -> "CloudInstance":
        """Return a hypothetical instance with the same GPU but ``vcpus`` cores.

        Priced with the Section 7 regression: fixed T4 price plus per-core
        price times the core count.
        """
        slope, intercept = estimate_core_price()
        price = intercept + slope * vcpus
        return CloudInstance(
            name=f"g4dn-custom-{vcpus}vcpu",
            gpu=self.gpu,
            cpu=get_cpu(vcpus),
            hourly_price_usd=price,
            memory_gb=self.memory_gb,
        )


def estimate_core_price() -> tuple[float, float]:
    """Fit price = intercept + slope * vcpus over the g4dn family.

    Returns (slope, intercept): the per-vCPU hourly price and the fixed price
    attributed to the T4 plus base platform.  The paper reports roughly
    $0.0639 per vCPU and $0.218 for the T4 with an R^2 of 0.999.
    """
    names = sorted(G4DN_HOURLY_PRICES)
    vcpus = np.array([G4DN_VCPUS[n] for n in names], dtype=float)
    prices = np.array([G4DN_HOURLY_PRICES[n] for n in names], dtype=float)
    slope, intercept = np.polyfit(vcpus, prices, deg=1)
    return float(slope), float(intercept)


def _build_instances() -> dict[str, CloudInstance]:
    instances = {}
    for name, price in G4DN_HOURLY_PRICES.items():
        instances[name] = CloudInstance(
            name=name,
            gpu=get_gpu("T4"),
            cpu=get_cpu(G4DN_VCPUS[name]),
            hourly_price_usd=price,
            memory_gb=16.0 * G4DN_VCPUS[name] / 4,
        )
    # Training-optimized comparison point mentioned in Section 8.1.
    instances["p3.2xlarge"] = CloudInstance(
        name="p3.2xlarge",
        gpu=get_gpu("V100"),
        cpu=get_cpu(8),
        hourly_price_usd=3.06,
        memory_gb=61.0,
    )
    return instances


INSTANCE_CATALOG: dict[str, CloudInstance] = _build_instances()


def get_instance(name: str) -> CloudInstance:
    """Look up a cloud instance by name."""
    if name not in INSTANCE_CATALOG:
        raise HardwareError(
            f"unknown instance {name!r}; known: {sorted(INSTANCE_CATALOG)}"
        )
    return INSTANCE_CATALOG[name]
