"""GPU pricing tables — on-prem and cloud.

The paper uses hourly on-demand GPU instance prices from AWS as the cost
metric c(G) in Eq. (1), and notes that "the user of LLM-Pilot could also
plug in their own pricing table". We ship an AWS-like default table
(per-GPU hourly cost derived from the instance families that carry each
GPU) and support custom tables.

:class:`CloudCatalog` is the second, elastic capacity tier: the same
GPU types priced per *purchasing mode* (on-demand / spot / reserved),
with optional per-type GPU quotas and a spot-interruption rate that the
cluster co-simulation turns into seeded ``"spot-preempt"`` fault events.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.hardware.profile import GPUProfile

__all__ = [
    "PricingTable",
    "aws_like_pricing",
    "CLOUD_PRICING_MODES",
    "CloudInstanceType",
    "CloudCatalog",
    "aws_like_cloud_catalog",
]

#: Hourly per-GPU prices (USD), derived from AWS on-demand instance prices
#: divided by GPU count: p5.48xlarge (8xH100), p4d.24xlarge (8xA100-40GB),
#: p4de.24xlarge (8xA100-80GB), g5.xlarge (1xA10), g4dn.xlarge (1xT4),
#: p3.2xlarge (1xV100).
_AWS_PER_GPU_HOURLY: dict[str, float] = {
    "H100-80GB": 12.29,
    "A100-80GB": 5.12,
    "A100-40GB": 4.10,
    "A10-24GB": 1.01,
    "T4-16GB": 0.53,
    "V100-16GB": 3.06,
}


@dataclass(frozen=True)
class PricingTable:
    """Maps GPU types to hourly per-GPU cost; c(G) = count * per-GPU price."""

    per_gpu_hourly: dict[str, float] = field(default_factory=dict)

    def __post_init__(self) -> None:
        for name, price in self.per_gpu_hourly.items():
            if price < 0:
                raise ValueError(f"negative price for {name}: {price}")

    def gpu_price(self, gpu_name: str) -> float:
        try:
            return self.per_gpu_hourly[gpu_name]
        except KeyError:
            known = ", ".join(sorted(self.per_gpu_hourly))
            raise KeyError(
                f"no price for GPU type {gpu_name!r}; priced types: {known}"
            ) from None

    def pod_cost(self, profile: GPUProfile) -> float:
        """Hourly cost of a single pod running on ``profile`` — c(G)."""
        return self.gpu_price(profile.gpu.name) * profile.count


def aws_like_pricing() -> PricingTable:
    """The default AWS-like pricing table used throughout the evaluation."""
    return PricingTable(per_gpu_hourly=dict(_AWS_PER_GPU_HOURLY))


#: Cloud purchasing modes, in the order the CLI offers them.
CLOUD_PRICING_MODES: tuple[str, ...] = ("on-demand", "spot", "reserved")


@dataclass(frozen=True)
class CloudInstanceType:
    """One rentable GPU type in a :class:`CloudCatalog`.

    Prices are hourly per GPU for each purchasing mode. ``quota_gpus``
    caps how many GPUs of this type the account may hold at once
    (``None`` = unmetered). ``spot_interruptions_per_hour`` is the mean
    rate of the Poisson preemption process applied to *spot* capacity;
    it is ignored for on-demand and reserved purchases.
    """

    gpu: str
    on_demand: float
    spot: float
    reserved: float
    quota_gpus: int | None = None
    spot_interruptions_per_hour: float = 0.0

    def __post_init__(self) -> None:
        for mode in CLOUD_PRICING_MODES:
            price = self.price(mode)
            if price < 0:
                raise ValueError(f"negative {mode} price for {self.gpu}: {price}")
        if self.quota_gpus is not None and self.quota_gpus < 0:
            raise ValueError(f"negative quota for {self.gpu}: {self.quota_gpus}")
        if self.spot_interruptions_per_hour < 0:
            raise ValueError(
                f"negative spot interruption rate for {self.gpu}: "
                f"{self.spot_interruptions_per_hour}"
            )

    def price(self, mode: str) -> float:
        """Hourly per-GPU price for one purchasing ``mode``."""
        try:
            return {
                "on-demand": self.on_demand,
                "spot": self.spot,
                "reserved": self.reserved,
            }[mode]
        except KeyError:
            raise ValueError(
                f"unknown cloud pricing mode {mode!r}; "
                f"expected one of {', '.join(CLOUD_PRICING_MODES)}"
            ) from None


@dataclass(frozen=True)
class CloudCatalog:
    """The elastic capacity tier: rentable GPU types priced per mode.

    The on-prem :class:`PricingTable` answers "what does a GPU I *own*
    cost per hour"; the catalog answers the burst-time question — what
    renting one costs under each purchasing mode, how many the provider
    will lease at once, and how often spot capacity is reclaimed.
    Zero prices are legal (free-tier / sunk-cost modeling).
    """

    instances: dict[str, CloudInstanceType] = field(default_factory=dict)

    def __post_init__(self) -> None:
        for name, inst in self.instances.items():
            if inst.gpu != name:
                raise ValueError(
                    f"catalog key {name!r} does not match instance gpu {inst.gpu!r}"
                )

    def instance(self, gpu_name: str) -> CloudInstanceType:
        try:
            return self.instances[gpu_name]
        except KeyError:
            known = ", ".join(sorted(self.instances))
            raise KeyError(
                f"no cloud instance for GPU type {gpu_name!r}; "
                f"rentable types: {known}"
            ) from None

    def offers(self, gpu_name: str) -> bool:
        """Whether the provider rents this GPU type at all."""
        return gpu_name in self.instances

    def gpu_price(self, gpu_name: str, mode: str = "on-demand") -> float:
        """Hourly per-GPU rental price under one purchasing mode."""
        return self.instance(gpu_name).price(mode)

    def pod_cost(self, profile: GPUProfile, mode: str = "on-demand") -> float:
        """Hourly rental cost of one pod on ``profile`` under ``mode``."""
        return self.gpu_price(profile.gpu.name, mode) * profile.count

    def quota_gpus(self, gpu_name: str) -> int | None:
        """Account-level GPU cap for this type (``None`` = unmetered)."""
        return self.instance(gpu_name).quota_gpus

    def quotas(self) -> dict[str, int | None]:
        """Account-level GPU cap of every rentable type (``None`` = unmetered)."""
        return {gpu: inst.quota_gpus for gpu, inst in self.instances.items()}

    def spot_interruptions_per_hour(self, gpu_name: str) -> float:
        """Mean spot preemptions per instance-hour for this type."""
        return self.instance(gpu_name).spot_interruptions_per_hour


#: Cloud rental multipliers over the on-prem table: on-demand rents at the
#: owned-hardware hourly rate, spot at the historical ~30% of on-demand,
#: reserved (1yr, no upfront) at ~60%.
_SPOT_FRACTION = 0.30
_RESERVED_FRACTION = 0.60
_DEFAULT_SPOT_INTERRUPTIONS_PER_HOUR = 0.05


def aws_like_cloud_catalog(
    quota_gpus: dict[str, int] | None = None,
    spot_interruptions_per_hour: float = _DEFAULT_SPOT_INTERRUPTIONS_PER_HOUR,
) -> CloudCatalog:
    """An AWS-like cloud catalog over the same GPU types as the on-prem table.

    ``quota_gpus`` optionally caps individual types (GPU name -> max GPUs
    held at once); unnamed types stay unmetered.
    """
    quota_gpus = quota_gpus or {}
    instances = {
        name: CloudInstanceType(
            gpu=name,
            on_demand=price,
            spot=round(price * _SPOT_FRACTION, 4),
            reserved=round(price * _RESERVED_FRACTION, 4),
            quota_gpus=quota_gpus.get(name),
            spot_interruptions_per_hour=spot_interruptions_per_hour,
        )
        for name, price in _AWS_PER_GPU_HOURLY.items()
    }
    return CloudCatalog(instances=instances)
