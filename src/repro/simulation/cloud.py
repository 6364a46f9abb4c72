"""The elastic cloud capacity tier of the cluster co-simulation.

On-prem capacity is one finite :class:`~repro.simulation.cluster.ClusterInventory`;
production fleets *burst*: when a scale-up cannot be filled from owned
GPUs, the shortfall is rented from a priced cloud catalog instead of
queueing on-prem. This module carries the pieces the cluster loop needs:

* a :class:`BurstPolicy` decides, per denied/clipped scale-up, how many
  of the missing pods to rent — bounded by a pod cap and a price cap,
  under one purchasing mode (on-demand / spot / reserved);
* a :class:`CloudLedger` pairs a catalog with the seed of its spot
  schedules; what is rented is a second
  :class:`~repro.simulation.cluster.ClusterInventory` whose capacity is
  the catalog's account quotas (``None`` = unmetered), so every rental
  and return is an :class:`~repro.simulation.cluster.InventoryEvent`
  that mixed bills and conservation checks replay like on-prem ones;
* :func:`spot_preemption_specs` expands a catalog's spot-interruption
  rate into a seeded Poisson schedule of ``"spot-preempt"``
  :class:`~repro.simulation.faults.FaultSpec`\\ s, which flow through the
  ordinary fault-injection path (victims restricted to cloud pods), so
  request conservation holds when a spot pod is reclaimed mid-flight;
* :func:`bind_hybrid_capacity` binds a fleet to on-prem-first /
  cloud-overflow capacity: every cluster tenant on the shared inventory,
  and each hybrid candidate of the elastic recommender on a private
  inventory the size of its owned tier, so a sweep scores candidates
  against mixed bills without spinning up a whole cluster simulation.

The production and reference cluster loops reach capacity only through
these acquire/release closures, so burst decisions are bit-identical
across them by construction.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.hardware.pricing import CLOUD_PRICING_MODES, CloudCatalog
from repro.hardware.profile import parse_profile
from repro.simulation.faults import FaultSpec
from repro.simulation.fleet import FleetSimulator
from repro.utils.rng import derive_rng

if TYPE_CHECKING:  # import cycle: the cluster module imports this one
    from repro.simulation.cluster import ClusterInventory

__all__ = [
    "BurstPolicy",
    "CloudLedger",
    "bind_hybrid_capacity",
    "spot_preemption_specs",
]


@dataclass(frozen=True)
class BurstPolicy:
    """When and how far to burst a denied/clipped scale-up to the cloud.

    ``mode`` picks the purchasing mode for every rental this policy
    makes. ``max_cloud_pods`` caps the pods a tenant may hold in the
    cloud at once (``None`` = unbounded, the account quota still
    applies). ``price_cap_per_pod_hour`` refuses to rent at all when the
    pod-hour price under ``mode`` exceeds it — the "queue on-prem, the
    cloud is too expensive right now" decision.
    """

    mode: str = "on-demand"
    max_cloud_pods: int | None = None
    price_cap_per_pod_hour: float | None = None

    def __post_init__(self) -> None:
        if self.mode not in CLOUD_PRICING_MODES:
            raise ValueError(
                f"unknown cloud pricing mode {self.mode!r}; "
                f"expected one of {', '.join(CLOUD_PRICING_MODES)}"
            )
        if self.max_cloud_pods is not None and self.max_cloud_pods < 0:
            raise ValueError(
                f"max_cloud_pods must be >= 0, got {self.max_cloud_pods}"
            )
        if (
            self.price_cap_per_pod_hour is not None
            and self.price_cap_per_pod_hour < 0
        ):
            raise ValueError(
                f"price_cap_per_pod_hour must be >= 0, "
                f"got {self.price_cap_per_pod_hour}"
            )

    def burst_pods(
        self, shortfall: int, held_cloud_pods: int, pod_price_per_hour: float
    ) -> int:
        """How many of ``shortfall`` missing pods this policy rents.

        ``held_cloud_pods`` is what the tenant already rents (counted
        against ``max_cloud_pods``; :func:`bind_hybrid_capacity` keeps
        the count); ``pod_price_per_hour`` is the catalog's pod-hour
        price under :attr:`mode`, checked against the price cap. The
        account quota is the ledger's business, not the policy's — the
        binder clips the returned ask to the quota's headroom.
        """
        if shortfall <= 0:
            return 0
        if (
            self.price_cap_per_pod_hour is not None
            and pod_price_per_hour > self.price_cap_per_pod_hour
        ):
            return 0
        ask = shortfall
        if self.max_cloud_pods is not None:
            ask = min(ask, max(0, self.max_cloud_pods - held_cloud_pods))
        return ask


@dataclass
class CloudLedger:
    """A cloud catalog, the capacity rented from it, and the spot seed.

    :attr:`rented` is a :class:`~repro.simulation.cluster.ClusterInventory`
    whose capacity per GPU type is the catalog's account quota (``None``
    = unmetered; types the provider does not rent have no capacity), so
    renting past a quota raises exactly like over-allocating owned GPUs.
    Rentals and returns are its
    :class:`~repro.simulation.cluster.InventoryEvent`\\ s, with reasons
    ``"burst"``, ``"scale-down"`` and ``"spot-preempt"``; each tenant's
    purchasing mode lives on its :class:`BurstPolicy`. ``seed`` drives
    the spot-preemption schedules derived from the catalog.
    """

    catalog: CloudCatalog
    seed: int = 0
    rented: ClusterInventory = field(init=False)

    def __post_init__(self) -> None:
        from repro.simulation.cluster import ClusterInventory  # import cycle

        self.rented = ClusterInventory(capacity=self.catalog.quotas())


#: What a spot preemption does with the reclaimed pod's in-flight
#: requests: re-offer them to the front end, like a crash's default.
_SPOT_PREEMPT_MODE = "requeue"


def spot_preemption_specs(
    rate_per_hour: float, horizon_s: float, seed: int, *labels: str
) -> list[FaultSpec]:
    """A seeded Poisson schedule of untargeted ``"spot-preempt"`` faults.

    ``rate_per_hour`` is the catalog's per-instance interruption rate;
    event times are drawn over ``[0, horizon_s)`` from the stream
    ``derive_rng(seed, "spot-preemptions", *labels)``, so the schedule
    is exactly reproducible and independent per (seed, label) — one
    label per tenant keeps tenants' preemption draws uncorrelated.
    Victims resolve at fire time to the tenant's cloud pods only; a
    preemption that fires while no cloud pod is held is recorded as an
    ineffective fault event, exactly like a crash with no in-service
    victim. A preempted pod's in-flight requests are requeued.
    """
    if rate_per_hour < 0:
        raise ValueError(f"rate_per_hour must be >= 0, got {rate_per_hour}")
    if horizon_s <= 0:
        raise ValueError(f"horizon_s must be positive, got {horizon_s}")
    if rate_per_hour == 0:
        return []
    rng = derive_rng(seed, "spot-preemptions", *labels)
    rate_per_s = rate_per_hour / 3600.0
    specs: list[FaultSpec] = []
    t = float(rng.exponential(1.0 / rate_per_s))
    while t < horizon_s:
        specs.append(FaultSpec("spot-preempt", t, mode=_SPOT_PREEMPT_MODE))
        t += float(rng.exponential(1.0 / rate_per_s))
    return specs


def bind_hybrid_capacity(
    fleet: FleetSimulator,
    tenant: str,
    profile_name: str,
    inventory: ClusterInventory,
    cloud: CloudLedger | None,
    policy: BurstPolicy | None,
) -> None:
    """Bind ``fleet`` to on-prem-first, cloud-overflow capacity.

    The one acquire/release pair behind every capacity-bound fleet (see
    :meth:`~repro.simulation.fleet.FleetSimulator.bind_capacity`): each
    cluster tenant on the shared ``inventory``, and the elastic
    recommender's hybrid candidates on a private inventory the size of
    the owned tier. A scale-up fills from ``inventory`` first; only the
    shortfall of a denied or clipped ask is offered to ``cloud`` under
    ``policy`` (no policy: the fleet never bursts). A scale-up fully
    covered by bursting records no ``denied``/``clipped`` constraint —
    the tenant got every pod it asked for, just not for free. Releases
    return rented serials to ``cloud`` and the rest to ``inventory``.
    The binder counts the pods the tenant rents, for the policy's
    per-tenant cap.
    """
    profile = parse_profile(profile_name)
    rented_pods = 0

    def fill(ledger: ClusterInventory, ask: int) -> int:
        free = ledger.fillable_pods(profile_name)
        return ask if free is None else min(ask, free)  # None: unmetered

    def acquire(want: int, t: float) -> int:
        nonlocal rented_pods
        grant = fill(inventory, want)
        burst = 0
        shortfall = want - grant
        if (
            shortfall > 0
            and policy is not None
            and cloud.catalog.offers(profile.gpu.name)
        ):
            price = cloud.catalog.pod_cost(profile, policy.mode)
            ask = policy.burst_pods(shortfall, rented_pods, price)
            burst = fill(cloud.rented, ask)
            if burst > 0:
                # Serials are assigned sequentially after this grant
                # returns: the first ``grant`` new pods sit on-prem, the
                # last ``burst`` are rented (and, having the highest
                # serials, are first in line for newest-first scale-down
                # — rented capacity is returned before owned capacity
                # idles).
                start = fleet.next_serial + grant
                fleet.mark_cloud(range(start, start + burst))
                cloud.rented.allocate(
                    profile_name, burst, tenant=tenant, time_s=t, reason="burst"
                )
                rented_pods += burst
        if grant > 0:
            inventory.allocate(
                profile_name, grant, tenant=tenant, time_s=t, reason="scale-up"
            )
        return grant + burst

    def release(t: float, serials: list[int], reason: str = "scale-down") -> None:
        nonlocal rented_pods
        returned = sum(1 for s in serials if s in fleet.cloud_serials)
        if returned:
            if returned > rented_pods:
                raise ValueError(f"tenant {tenant!r} returns pods it never rented")
            cloud.rented.release(
                profile_name,
                returned,
                tenant=tenant,
                time_s=t,
                reason=reason if reason == "spot-preempt" else "scale-down",
            )
            rented_pods -= returned
        if len(serials) > returned:
            inventory.release(
                profile_name,
                len(serials) - returned,
                tenant=tenant,
                time_s=t,
                reason="scale-down",
            )

    fleet.bind_capacity(acquire, release)
