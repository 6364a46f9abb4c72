"""Multi-tenant co-simulation: N tenants contending on one shared clock.

The paper's conclusion names multi-tenancy as LLM-Pilot's next step —
"multiple users compete to deploy LLM inference services on the same
hardware resources". The static answer to that (which tenants *fit*) is
the packing problem ``repro.cluster.scheduler`` solves; this module
answers the dynamic question: what happens to each tenant's latency,
throughput and bill when their autoscalers compete for the same finite
GPUs *in time*.

* :class:`ClusterInventory` is the per-GPU-type ledger, generalized
  from the scheduler's static packing state into a clock-aware resource
  ledger whose allocations and releases are recorded as
  :class:`InventoryEvent`\\ s — the owned GPUs tenants share, and the
  cloud tier's rented GPUs (:class:`~repro.simulation.cloud.CloudLedger`);
* a :class:`TenantGroup` embeds one tenant's
  :class:`~repro.simulation.fleet.FleetSimulator` — its own traffic
  model, router, admission controller and autoscaler — in the cluster
  loop, with a GPU profile naming what each of its pods occupies;
* the :class:`ClusterSimulator` drives every tenant's fleet through the
  fleet's co-simulation interface on ONE virtual clock, globally
  ordering autoscale decisions by virtual time so tenants observe each
  other only through the inventory: a scale-up the ledger cannot fill is
  *denied* or *clipped* (recorded on the tenant's
  :class:`~repro.simulation.fleet.ScaleEvent`), and GPUs freed by one
  tenant's retirement become another tenant's scale-up headroom;
* the :class:`ClusterResult` carries per-tenant
  :class:`~repro.simulation.fleet.FleetResult`\\ s plus the cluster-level
  series — per-GPU-type occupancy over time, aggregate pod-seconds and
  the hourly-priced bill via :mod:`repro.hardware.pricing`.

A cluster of one tenant degenerates to ``FleetSimulator.run``: both run
the same event loop (:func:`~repro.simulation.frontier.run_event_loop`)
over the same fleet pieces, so the single-tenant path stays
golden-identical to the standalone fleet.
"""

from __future__ import annotations

import time as _time
from dataclasses import dataclass, field
from typing import ClassVar

import numpy as np

from repro.hardware.pricing import CloudCatalog, PricingTable
from repro.hardware.profile import parse_profile
from repro.simulation.cloud import (
    BurstPolicy,
    CloudLedger,
    bind_hybrid_capacity,
    spot_preemption_specs,
)
from repro.simulation.faults import FaultEvent, FaultInjector
from repro.simulation.fleet import FleetResult, FleetSimulator, ScaleEvent
from repro.simulation.frontier import ClusterFrontier, run_event_loop
from repro.simulation.results import fault_event_dict, json_float

__all__ = [
    "InventoryEvent",
    "ClusterInventory",
    "TenantGroup",
    "ClusterResult",
    "ClusterSimulator",
]


@dataclass(frozen=True)
class InventoryEvent:
    """One attributed change of the cluster ledger, on the shared clock.

    ``delta`` counts GPUs of type ``gpu`` (positive = allocated,
    negative = released); ``reason`` is ``"initial"`` for the t=0 tenant
    allocation, ``"scale-up"`` for autoscaler grants and ``"scale-down"``
    for cancelled cold starts and retired pods. On the cloud tier's
    ledger rentals are ``"burst"`` and a pod the provider reclaimed is
    returned as ``"spot-preempt"``.
    """

    time_s: float
    tenant: str
    gpu: str
    delta: int
    reason: str


@dataclass
class ClusterInventory:
    """GPU inventory, by GPU type name.

    Doubles as the static packing state of the multi-tenant scheduler
    (anonymous :meth:`allocate`/:meth:`release`, e.g. during the
    best-fit search) and as the clock-aware ledger of the cluster
    co-simulation: calls that name a ``tenant`` are stamped with virtual
    time and appended to :attr:`events`, so occupancy over time is
    reconstructible after a run. The same class books both tiers: the
    owned GPUs, and the cloud GPUs a
    :class:`~repro.simulation.cloud.CloudLedger` rents, whose capacity
    is the catalog's account quota. A ``None`` capacity is unmetered;
    a type absent from :attr:`capacity` has none.
    """

    capacity: dict[str, int | None]
    used: dict[str, int] = field(default_factory=dict)
    events: list[InventoryEvent] = field(default_factory=list)

    def __post_init__(self) -> None:
        for name, count in self.capacity.items():
            if count is not None and count < 0:
                raise ValueError(f"negative capacity for {name}")
            self.used.setdefault(name, 0)

    def available(self, gpu_name: str) -> int | None:
        """GPUs of this type not currently allocated (``None``: unmetered)."""
        cap = self.capacity.get(gpu_name, 0)
        return None if cap is None else cap - self.used.get(gpu_name, 0)

    def can_fit(self, profile_name: str, pods: int) -> bool:
        """Would ``pods`` pods of ``profile_name`` fit the remaining stock?"""
        profile = parse_profile(profile_name)
        free = self.available(profile.gpu.name)
        return free is None or free >= profile.count * pods

    def fillable_pods(self, profile_name: str) -> int | None:
        """How many whole pods of ``profile_name`` the remaining stock
        fills (``None``: unmetered)."""
        profile = parse_profile(profile_name)
        free = self.available(profile.gpu.name)
        return None if free is None else free // profile.count

    def allocate(
        self,
        profile_name: str,
        pods: int,
        tenant: str = "",
        time_s: float = 0.0,
        reason: str = "static",
    ) -> None:
        """Take ``pods`` pods' worth of GPUs (raises when it cannot fit).

        With a ``tenant`` the allocation is stamped with ``time_s`` and
        logged as an :class:`InventoryEvent`; anonymous calls (the
        scheduler's packing search) mutate the ledger silently.
        """
        profile = parse_profile(profile_name)
        need = profile.count * pods
        free = self.available(profile.gpu.name)
        if free is not None and free < need:
            raise ValueError(
                f"cannot allocate {need} x {profile.gpu.name}: only "
                f"{free} available"
            )
        self.used[profile.gpu.name] = self.used.get(profile.gpu.name, 0) + need
        if tenant and need:
            self.events.append(
                InventoryEvent(time_s, tenant, profile.gpu.name, need, reason)
            )

    def release(
        self,
        profile_name: str,
        pods: int,
        tenant: str = "",
        time_s: float = 0.0,
        reason: str = "static",
    ) -> None:
        """Hand back ``pods`` pods' worth of GPUs (the inverse of allocate)."""
        profile = parse_profile(profile_name)
        need = profile.count * pods
        if self.used.get(profile.gpu.name, 0) < need:
            raise ValueError("releasing more GPUs than allocated")
        self.used[profile.gpu.name] -= need
        if tenant and need:
            self.events.append(
                InventoryEvent(time_s, tenant, profile.gpu.name, -need, reason)
            )

    def utilization(self) -> dict[str, float]:
        """Fraction of each GPU type's capacity currently in use."""
        return {
            name: (self.used.get(name, 0) / cap if cap else 0.0)
            for name, cap in self.capacity.items()
        }


@dataclass
class TenantGroup:
    """One tenant embedded in the cluster loop.

    ``fleet`` carries the tenant's own traffic model, router (possibly
    an admission controller) and autoscaler; ``profile`` names the GPU
    profile each of its pods occupies in the shared inventory (e.g.
    ``"2xA100-40GB"``); ``slo_p95_ttft_s`` is the tenant's latency
    target, recorded for reporting only.
    """

    name: str
    fleet: FleetSimulator
    profile: str
    slo_p95_ttft_s: float | None = None

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("tenant name must be non-empty")
        parse_profile(self.profile)  # validate early


@dataclass
class ClusterResult:
    """Per-tenant outcomes plus the cluster-level contention record.

    Implements the :class:`~repro.simulation.results.SimResult`
    protocol (``kind``/``to_dict``/``summary``/``verify``), so the CLI
    serializes it through the same path as a standalone fleet run.
    """

    kind: ClassVar[str] = "cluster"

    duration_s: float
    warmup_s: float
    time_s: float
    capacity: dict[str, int]
    tenants: list[str]
    results: dict[str, FleetResult]
    profiles: dict[str, str]
    slos: dict[str, float | None]
    end_provisioned: dict[str, int]
    events: list[InventoryEvent] = field(default_factory=list, repr=False)
    base_used: dict[str, int] = field(default_factory=dict, repr=False)
    sim_events: int = 0
    wall_time_s: float = 0.0
    # Cloud-burst tier (absent on pure on-prem runs): the rented-capacity
    # event ledger, the catalog prices and quotas were taken from, and
    # each tenant's purchasing mode under the cluster's burst policy
    # (empty when no policy was set).
    cloud_events: list[InventoryEvent] = field(default_factory=list, repr=False)
    cloud_catalog: CloudCatalog | None = None
    cloud_modes: dict[str, str] = field(default_factory=dict)

    @property
    def events_per_second(self) -> float:
        """Co-simulator throughput: engine steps per wall-clock second.

        The cluster-level counterpart of
        :attr:`~repro.simulation.fleet.FleetResult.events_per_second`:
        ``sim_events`` sums every tenant fleet's engine steps simulated,
        ``wall_time_s`` covers the shared-clock loop from the first
        allocation to result assembly. 0.0 when timing was not captured.
        """
        if self.wall_time_s <= 0.0:
            return 0.0
        return self.sim_events / self.wall_time_s

    @property
    def arrivals_total(self) -> int:
        """Requests offered to the cluster, summed over every tenant."""
        return sum(r.arrivals for r in self.results.values())

    def contended_scale_events(self) -> list[tuple[str, ScaleEvent]]:
        """Every denied or clipped scale-up, attributed to its tenant."""
        out = []
        for tenant in self.tenants:
            for event in self.results[tenant].scale_events:
                if event.constraint:
                    out.append((tenant, event))
        return out

    def billing(self, pricing: PricingTable) -> dict[str, dict]:
        """Per-tenant, per-tier bill line items for the simulated window.

        Each tenant maps to an ``on_prem`` line (owned pod-seconds at the
        profile's c(G)) and, when the tenant burst, a ``cloud`` line
        (rented pod-seconds at the catalog's per-mode price) plus the
        ``total``. Tenants that never burst carry ``cloud: None``, so a
        pure on-prem bill reads exactly as before the cloud tier existed.
        """
        return {
            tenant: self.results[tenant].bill(
                parse_profile(self.profiles[tenant]),
                pricing,
                self.cloud_catalog,
                self.cloud_modes.get(tenant, "on-demand"),
            )
            for tenant in self.tenants
        }

    def cost(self, pricing: PricingTable) -> dict[str, float]:
        """Each tenant's bill: per-tier pod-seconds priced at that tier.

        On-prem pod-seconds are priced at the profile's c(G); cloud-burst
        pod-seconds at the result's catalog under the tenant's purchasing
        mode. Reduces to the pure on-prem bill when no tenant burst.
        """
        return {
            tenant: line["total"] for tenant, line in self.billing(pricing).items()
        }

    def total_cost(self, pricing: PricingTable) -> float:
        """The whole cluster's bill for the simulated window."""
        return sum(self.cost(pricing).values())

    def occupancy_series(self, gpu_name: str) -> tuple[np.ndarray, np.ndarray]:
        """(time_s, GPUs in use) step series for one GPU type.

        Replaying the event list is O(events); benchmarks and the
        conservation verifier call this repeatedly on a finished (hence
        immutable) result, so the series is computed once per
        ``gpu_name`` and cached. Treat the returned arrays as read-only.
        """
        cache = self.__dict__.setdefault("_occupancy_cache", {})
        series = cache.get(gpu_name)
        if series is None:
            running = self.base_used.get(gpu_name, 0)
            times = [0.0]
            used = [running]
            for event in sorted(self.events, key=lambda e: e.time_s):
                if event.gpu != gpu_name:
                    continue
                running += event.delta
                times.append(event.time_s)
                used.append(running)
            series = (np.array(times), np.array(used))
            cache[gpu_name] = series
        return series

    def peak_occupancy(self) -> dict[str, int]:
        """Max GPUs simultaneously in use, per GPU type."""
        peaks = {}
        for gpu in self.capacity:
            _, used = self.occupancy_series(gpu)
            peaks[gpu] = int(used.max())
        return peaks

    def peak_pods(self) -> dict[str, int]:
        """Max pods each tenant simultaneously held, replayed from the ledger.

        Counts every provisioned pod (serving, cold-starting, draining)
        since all of them hold GPUs. This is what the feedback scheduler
        pre-reserves: the demand the inventory actually *granted* the
        tenant, as opposed to what its autoscaler asked for.
        """
        held = {t: 0 for t in self.tenants}
        peak = {t: 0 for t in self.tenants}
        for event in self.events:
            if event.tenant not in held:
                continue
            held[event.tenant] += event.delta
            peak[event.tenant] = max(peak[event.tenant], held[event.tenant])
        return {
            t: peak[t] // parse_profile(self.profiles[t]).count
            for t in self.tenants
        }

    def contended_counts(self) -> dict[str, int]:
        """Denied + clipped scale-up events per tenant (0 when none)."""
        counts = {t: 0 for t in self.tenants}
        for tenant, _ in self.contended_scale_events():
            counts[tenant] += 1
        return counts

    def meets_slo(self, tenant: str) -> bool | None:
        """Did the tenant's p95 TTFT stay within its target (None: no SLO)."""
        slo = self.slos.get(tenant)
        if slo is None:
            return None
        return bool(self.results[tenant].ttft.p95_s <= slo)

    def fault_events(self) -> list[tuple[str, FaultEvent]]:
        """Every fault event, attributed to its tenant, in time order."""
        out = []
        for tenant in self.tenants:
            for event in self.results[tenant].fault_events:
                out.append((tenant, event))
        out.sort(key=lambda pair: pair[1].time_s)
        return out

    def recovery_time_s(self, tenant: str, window_s: float = 10.0) -> float | None:
        """Tenant's post-fault recovery time against its declared SLO.

        None when the tenant has no SLO or suffered no disruptive
        fault. A faulted tenant whose run dropped its samples raises
        (``keep_samples=True`` is required) — silently answering None
        there would be indistinguishable from a fault-free run.
        """
        slo = self.slos.get(tenant)
        if slo is None:
            return None
        return self.results[tenant].recovery_time_s(slo, window_s)

    def degraded_slo_attainment(
        self, tenant: str, window_s: float = 10.0
    ) -> float | None:
        """Tenant's post-fault windowed SLO attainment (None: see above)."""
        slo = self.slos.get(tenant)
        if slo is None:
            return None
        return self.results[tenant].degraded_slo_attainment(slo, window_s)

    def verify(self) -> None:
        """Uniform SimResult name for :meth:`verify_conservation`."""
        self.verify_conservation()

    def to_dict(
        self, pricing: PricingTable | None = None, window_s: float = 10.0
    ) -> dict:
        """The uniform JSON payload (see docs/cli.md for the schema).

        Without a ``pricing`` table the per-tenant ``cost`` and cluster
        ``total_cost`` fields are None.
        """
        billing = self.billing(pricing) if pricing is not None else None
        tenants = []
        for tenant in self.tenants:
            result = self.results[tenant]
            # A faulted tenant without samples would raise from the
            # recovery metrics (keep_samples=False is the cluster-run
            # default); the JSON payload reports null for them instead.
            measurable = result.metrics is not None or not any(
                e.disruptive for e in result.fault_events
            )
            line = None if billing is None else billing[tenant]
            tenants.append(
                {
                    "name": tenant,
                    "profile": self.profiles[tenant],
                    "pods_end": self.end_provisioned[tenant],
                    "arrivals": result.arrivals,
                    "shed": result.shed,
                    "lost": result.lost,
                    "requeued": result.requeued,
                    "requests_completed": result.requests_completed,
                    "throughput_tokens_per_s": json_float(
                        result.throughput_tokens_per_s
                    ),
                    "ttft_p95_s": json_float(result.ttft.p95_s),
                    "meets_slo": self.meets_slo(tenant),
                    "pod_seconds": result.pod_seconds,
                    "cloud_pod_seconds": result.cloud_pod_seconds,
                    "cost": None if line is None else line["total"],
                    "billing": line,
                    "recovery_time_s": json_float(
                        self.recovery_time_s(tenant, window_s)
                    )
                    if measurable
                    else None,
                    "degraded_slo_attainment": json_float(
                        self.degraded_slo_attainment(tenant, window_s)
                    )
                    if measurable
                    else None,
                }
            )
        cloud = None
        if self.cloud_catalog is not None:
            cloud = {
                "modes": dict(self.cloud_modes),
                "usage_events": len(self.cloud_events),
                "cloud_pod_seconds_total": sum(
                    r.cloud_pod_seconds for r in self.results.values()
                ),
                "quota_gpus": dict(sorted(self.cloud_catalog.quotas().items())),
            }
        occupancy = {}
        for gpu in sorted(self.capacity):
            times, used = self.occupancy_series(gpu)
            occupancy[gpu] = {
                "t": [float(v) for v in times],
                "used": [int(v) for v in used],
            }
        tenant_ttft = {}
        for tenant in self.tenants:
            metrics = self.results[tenant].metrics
            if metrics is None:
                continue
            t, p95 = metrics.ttft_p95_series(window_s)
            tenant_ttft[tenant] = {
                "t": [float(v) for v in t],
                "p95_s": [float(v) for v in p95],
            }
        return {
            "kind": self.kind,
            "duration_s": self.duration_s,
            "capacity": dict(self.capacity),
            "total_cost": None
            if billing is None
            else sum(line["total"] for line in billing.values()),
            "peak_occupancy": self.peak_occupancy(),
            "cloud": cloud,
            "tenants": tenants,
            "contended_scale_events": [
                {
                    "time_s": event.time_s,
                    "tenant": tenant,
                    "constraint": event.constraint,
                    "from_pods": event.from_pods,
                    "requested": event.requested,
                    "to_pods": event.to_pods,
                }
                for tenant, event in self.contended_scale_events()
            ],
            "fault_events": [
                {"tenant": tenant, **fault_event_dict(event)}
                for tenant, event in self.fault_events()
            ],
            "series": {
                "window_s": float(window_s),
                "occupancy": occupancy,
                "tenant_ttft_p95": tenant_ttft,
            },
        }

    def summary(self) -> str:
        """One-line human digest (uniform across SimResult kinds)."""
        line = (
            f"{len(self.tenants)} tenants ({self.duration_s:.0f}s): "
            f"{self.arrivals_total} arrivals, "
            f"{len(self.contended_scale_events())} contended scale-ups"
        )
        faults = self.fault_events()
        if faults:
            line += f", {len(faults)} fault events"
        cloud_ps = sum(r.cloud_pod_seconds for r in self.results.values())
        if cloud_ps > 0:
            line += f", {cloud_ps:.0f} cloud pod-seconds burst"
        return line

    def verify_conservation(self) -> None:
        """Raise if any tenant leaked requests or the ledger went wrong.

        Checks, in order: per-tenant request conservation (arrivals ==
        admitted + shed == completed + in-flight + shed), the replay of
        both ledgers — owned GPUs against the inventory's capacity,
        rented GPUs against the catalog's account quotas — and that each
        tenant's net allocated GPUs, on-prem plus rented, equal what its
        still-provisioned pods occupy at the end.
        """
        for result in self.results.values():
            result.verify_conservation()
        net: dict[str, int] = {}
        _replay_ledger("on-prem", self.events, self.base_used, self.capacity, net)
        quotas = {} if self.cloud_catalog is None else self.cloud_catalog.quotas()
        _replay_ledger("cloud", self.cloud_events, {}, quotas, net)
        for tenant in self.tenants:
            per_pod = parse_profile(self.profiles[tenant]).count
            holds = self.end_provisioned[tenant] * per_pod
            if net.get(tenant, 0) != holds:
                raise ValueError(
                    f"ledger mismatch for {tenant}: net allocation "
                    f"{net.get(tenant, 0)} != {holds} GPUs held at end"
                )


def _replay_ledger(
    tier: str,
    events: list[InventoryEvent],
    base_used: dict[str, int],
    capacity: dict[str, int | None],
    net: dict[str, int],
) -> None:
    """Replay one ledger's events in causal order, adding into ``net``.

    Usage starts at ``base_used`` and must stay within ``[0, capacity]``
    at every event (``None`` capacity: unmetered); a violation raises
    naming the ledger's ``tier``, the GPU type and the time. Each
    event's delta also counts toward its tenant's ``net`` allocation.
    """
    running = dict(base_used)
    for event in events:
        used = running[event.gpu] = running.get(event.gpu, 0) + event.delta
        cap = capacity.get(event.gpu, 0)
        if used < 0:
            raise ValueError(
                f"{tier} ledger leak: {event.gpu} below zero at t={event.time_s}"
            )
        if cap is not None and used > cap:
            raise ValueError(
                f"{tier} ledger over capacity: {event.gpu} at {used} > "
                f"{cap} at t={event.time_s}"
            )
        net[event.tenant] = net.get(event.tenant, 0) + event.delta


class ClusterSimulator:
    """Runs N tenant fleets on one virtual clock over a shared inventory.

    Each tenant's initial pods are allocated from the inventory at t=0
    (raising if they do not fit — feed placements through the
    multi-tenant scheduler first); thereafter every tenant autoscaler
    ask is filled, clipped or denied by what the ledger holds at that
    virtual instant. Decisions across tenants are processed in global
    (time, tenant-order) order, so contention is deterministic for
    seeded runs.

    With a ``cloud`` ledger and a ``burst`` policy, every tenant bursts
    under that one policy: the shortfall of a denied or clipped scale-up
    rents from the ledger. Without a policy no tenant bursts.
    """

    def __init__(
        self,
        tenants: list[TenantGroup],
        inventory: ClusterInventory,
        cloud: CloudLedger | None = None,
        burst: BurstPolicy | None = None,
    ) -> None:
        if not tenants:
            raise ValueError("ClusterSimulator needs at least one tenant")
        names = [t.name for t in tenants]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate tenant names: {names}")
        if burst is not None and cloud is None:
            raise ValueError("a burst policy needs a cloud ledger to rent from")
        self.tenants = list(tenants)
        self.inventory = inventory
        self.cloud = cloud
        self.burst = burst
        self._spot_wired = False

    def _wire_spot_preemptions(self, t_end: float) -> None:
        """Merge seeded spot-preemption schedules into the tenants' faults.

        Only when the cluster's policy bursts in ``spot`` mode: one
        independent Poisson stream per tenant, derived from the cloud
        ledger's seed and the tenant name, at the catalog's per-type
        interruption rate. The schedule flows
        through the ordinary fault-injection path (victims resolve to
        cloud pods at fire time), so production and reference runs —
        which share the seed — see the identical schedule. Idempotent across
        repeated ``run`` calls on one simulator.
        """
        if self._spot_wired or self.burst is None or self.burst.mode != "spot":
            return
        self._spot_wired = True
        for group in self.tenants:
            profile = parse_profile(group.profile)
            if not self.cloud.catalog.offers(profile.gpu.name):
                continue
            rate = self.cloud.catalog.spot_interruptions_per_hour(
                profile.gpu.name
            )
            specs = spot_preemption_specs(
                rate, t_end, self.cloud.seed, group.name
            )
            if not specs:
                continue
            injector = group.fleet.faults
            if injector is None:
                group.fleet.faults = FaultInjector(
                    specs, seed=self.cloud.seed
                )
            else:
                group.fleet.faults = FaultInjector(
                    injector.specs + specs, seed=injector.seed
                )

    def run(
        self,
        duration_s: float,
        warmup_s: float = 0.0,
        keep_samples: bool = False,
    ) -> ClusterResult:
        """Co-simulate a ``warmup_s + duration_s`` window of virtual time.

        The loop is the fleet's own event loop lifted one level: inject
        every tenant's due arrivals, find the globally earliest busy
        pod, run every fault and autoscale decision due at or before
        that frontier (earliest virtual time first, across tenants),
        then step that one pod. Tenants interact *only* through the
        inventory, so per-tenant causality is exactly the standalone
        fleet's.
        """
        if duration_s <= 0:
            raise ValueError(f"duration_s must be positive, got {duration_s}")
        if warmup_s < 0:
            raise ValueError(f"warmup_s must be >= 0, got {warmup_s}")
        t_end = warmup_s + duration_s
        wall_start = _time.perf_counter()
        base_used = dict(self.inventory.used)
        ledger_mark = len(self.inventory.events)
        granted: list[TenantGroup] = []
        for group in self.tenants:
            try:
                self.inventory.allocate(
                    group.profile,
                    len(group.fleet.pods),
                    tenant=group.name,
                    time_s=0.0,
                    reason="initial",
                )
            except ValueError as exc:
                # Roll back the earlier tenants' grants so a failed run
                # leaves the caller's inventory exactly as it found it:
                # the anonymous releases restore the counts, truncating
                # the event list drops the now-spurious initial entries.
                for done in granted:
                    self.inventory.release(done.profile, len(done.fleet.pods))
                del self.inventory.events[ledger_mark:]
                raise ValueError(
                    f"initial allocation for tenant {group.name!r} does not "
                    f"fit the inventory: {exc}"
                ) from exc
            granted.append(group)
        self._wire_spot_preemptions(t_end)
        for group in self.tenants:
            bind_hybrid_capacity(
                group.fleet,
                group.name,
                group.profile,
                self.inventory,
                self.cloud,
                self.burst,
            )
            group.fleet.begin(duration_s, warmup_s)

        self._run_loop(t_end)
        for group in self.tenants:
            group.fleet.drain_pending()

        results = {
            g.name: g.fleet.collect(duration_s, warmup_s, keep_samples)
            for g in self.tenants
        }
        sim_events = sum(r.sim_events for r in results.values())
        wall_time_s = _time.perf_counter() - wall_start
        return ClusterResult(
            duration_s=duration_s,
            warmup_s=warmup_s,
            time_s=max(r.time_s for r in results.values()),
            capacity=dict(self.inventory.capacity),
            tenants=[g.name for g in self.tenants],
            results=results,
            profiles={g.name: g.profile for g in self.tenants},
            slos={g.name: g.slo_p95_ttft_s for g in self.tenants},
            end_provisioned={g.name: g.fleet.provisioned for g in self.tenants},
            events=list(self.inventory.events),
            base_used=base_used,
            sim_events=sim_events,
            wall_time_s=wall_time_s,
            cloud_events=[] if self.cloud is None else list(self.cloud.rented.events),
            cloud_catalog=None if self.cloud is None else self.cloud.catalog,
            cloud_modes={}
            if self.burst is None
            else {g.name: self.burst.mode for g in self.tenants},
        )

    def _run_loop(self, t_end: float) -> None:
        """Run the shared event loop over a :class:`ClusterFrontier`.

        O(log tenants) per event, and bit-identical to the straight-line
        scan loop of
        :class:`repro.simulation.reference.ReferenceClusterSimulator`,
        which overrides this method (the parity suites hold them equal).
        """
        frontier = ClusterFrontier([group.fleet for group in self.tenants])
        run_event_loop(
            t_end,
            frontier.inject_due,
            frontier.peek_pod,
            frontier.peek_control,
            frontier.control_tick,
            frontier.step_pod,
        )
