"""Multi-tenant cluster scheduling (the paper's declared next step).

The paper's conclusion: "we intend to extend LLM-Pilot to cover the
multi-tenancy scenario, in which multiple users compete to deploy LLM
inference services on the same hardware resources." This module
implements that extension over the reproduction's machinery:

* a :class:`ClusterInventory` of finite per-GPU-type capacity (the
  clock-aware ledger from :mod:`repro.simulation.cluster`, used here as
  static packing state);
* placement of each tenant's *ranked* deployment options (as produced
  by the recommendation tool's per-profile assessments) under capacity
  constraints;
* two policies — greedy-by-cost and a global best-fit that minimizes
  total cluster cost while serving every tenant it can;
* a bridge from the static answer to the dynamic one:
  :meth:`ScheduleResult.to_cluster_sim` turns the placements into the
  initial tenant allocations of a shared-clock
  :class:`~repro.simulation.cluster.ClusterSimulator`;
* a :class:`FeedbackScheduler` that co-simulates the placement and
  right-sizes or moves the tenants the inventory keeps rejecting.

Scheduling works on the owned inventory alone: the cloud-burst tier
belongs to the co-simulation, which takes one burst policy per cluster
run, and nothing here rents.

Pods keep exclusive GPU access (no co-location, matching §II-C), so
multi-tenancy is a packing problem over GPU counts.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING

from repro.hardware.profile import parse_profile
from repro.recommendation.recommender import ProfileAssessment, Recommendation
from repro.simulation.autoscale import Autoscaler
from repro.simulation.cluster import (
    ClusterInventory,
    ClusterResult,
    ClusterSimulator,
)

if TYPE_CHECKING:
    from repro.cluster.deployment import Deployment
    from repro.simulation.fleet import Router
    from repro.simulation.traffic import TrafficModel

__all__ = [
    "ClusterInventory",
    "TenantRequest",
    "Placement",
    "ScheduleResult",
    "MultiTenantScheduler",
    "FeedbackIteration",
    "FeedbackOutcome",
    "FeedbackScheduler",
]


@dataclass(frozen=True)
class TenantRequest:
    """One tenant's deployment request: the ranked feasible options.

    ``options`` come straight from ``Recommendation.assessments`` —
    every profile with a positive umax, with pod counts and costs
    already derived from the tenant's SLA and user count.
    """

    tenant: str
    options: tuple[ProfileAssessment, ...]

    @classmethod
    def from_recommendation(cls, tenant: str, rec: Recommendation) -> "TenantRequest":
        usable = tuple(
            sorted(
                (a for a in rec.assessments if a.umax >= 1),
                key=lambda a: (a.total_cost, a.n_pods),
            )
        )
        return cls(tenant=tenant, options=usable)


@dataclass(frozen=True)
class Placement:
    tenant: str
    profile: str
    n_pods: int
    total_cost: float


@dataclass
class ScheduleResult:
    placements: list[Placement] = field(default_factory=list)
    unplaced: list[str] = field(default_factory=list)

    @property
    def total_cost(self) -> float:
        return sum(p.total_cost for p in self.placements)

    @property
    def n_placed(self) -> int:
        return len(self.placements)

    def to_cluster_sim(
        self,
        deployments: dict[str, "Deployment"],
        traffics: dict[str, "TrafficModel"],
        capacity: dict[str, int],
        routers: dict[str, "Router"] | None = None,
        autoscalers: dict[str, "Autoscaler"] | None = None,
        slos: dict[str, float] | None = None,
    ) -> ClusterSimulator:
        """Turn the static packing answer into a shared-clock co-simulation.

        Each placement becomes a tenant's initial allocation: the
        tenant's :class:`~repro.cluster.deployment.Deployment` template
        (which carries its LLM, workload generator and seed) is
        reconfigured to the *scheduled* profile and pod count — with the
        max batch weight re-tuned when the scheduler picked a different
        profile than the template's — and embedded as a
        :class:`~repro.simulation.cluster.TenantGroup` drawing from a
        fresh :class:`~repro.simulation.cluster.ClusterInventory` of
        ``capacity``. Per-tenant traffic is required; routers (possibly
        admission controllers), autoscalers and reporting SLOs are
        optional. Unplaced tenants are simply absent from the cluster,
        exactly as the scheduler left them.
        """
        routers = routers or {}
        autoscalers = autoscalers or {}
        slos = slos or {}
        groups = []
        for placement in self.placements:
            template = deployments[placement.tenant]
            scheduled = template.reconfigure(
                profile=parse_profile(placement.profile),
                n_pods=placement.n_pods,
            )
            groups.append(
                scheduled.tenant_group(
                    placement.tenant,
                    traffics[placement.tenant],
                    router=routers.get(placement.tenant),
                    autoscaler=autoscalers.get(placement.tenant),
                    slo_p95_ttft_s=slos.get(placement.tenant),
                )
            )
        return ClusterSimulator(groups, ClusterInventory(capacity=dict(capacity)))


class MultiTenantScheduler:
    """Places competing tenants onto a finite GPU inventory."""

    def __init__(self, inventory: ClusterInventory) -> None:
        self.inventory = inventory

    # ---- policies -----------------------------------------------------------

    def schedule_greedy(self, tenants: list[TenantRequest]) -> ScheduleResult:
        """First-come-first-served: each tenant takes its cheapest option
        that still fits the remaining inventory."""
        result = ScheduleResult()
        for tenant in tenants:
            placed = False
            for option in tenant.options:
                if self.inventory.can_fit(option.profile, option.n_pods):
                    self.inventory.allocate(option.profile, option.n_pods)
                    result.placements.append(
                        Placement(
                            tenant=tenant.tenant,
                            profile=option.profile,
                            n_pods=option.n_pods,
                            total_cost=option.total_cost,
                        )
                    )
                    placed = True
                    break
            if not placed:
                result.unplaced.append(tenant.tenant)
        return result

    def schedule_best_fit(self, tenants: list[TenantRequest]) -> ScheduleResult:
        """Global policy: maximize placed tenants, then minimize total cost.

        Exact search over per-tenant options with branch-and-bound; the
        paper-scale problem (tens of tenants, <=14 options each) is far
        within reach because options per tenant are few and dominated
        branches prune aggressively.
        """
        tenants = list(tenants)
        best: tuple[int, float, list[Placement]] = (0, float("inf"), [])

        def dfs(i: int, placements: list[Placement], cost: float) -> None:
            nonlocal best
            placed_now = len(placements)
            remaining = len(tenants) - i
            # Bound: even placing everyone left cannot beat the best.
            if (placed_now + remaining, -cost) < (best[0], -best[1]) and (
                placed_now + remaining < best[0]
                or (placed_now + remaining == best[0] and cost >= best[1])
            ):
                return
            if i == len(tenants):
                if placed_now > best[0] or (placed_now == best[0] and cost < best[1]):
                    best = (placed_now, cost, list(placements))
                return
            tenant = tenants[i]
            # Option branches (cheapest first), then the skip branch.
            for option in tenant.options:
                if not self.inventory.can_fit(option.profile, option.n_pods):
                    continue
                self.inventory.allocate(option.profile, option.n_pods)
                placements.append(
                    Placement(
                        tenant=tenant.tenant,
                        profile=option.profile,
                        n_pods=option.n_pods,
                        total_cost=option.total_cost,
                    )
                )
                dfs(i + 1, placements, cost + option.total_cost)
                placements.pop()
                self.inventory.release(option.profile, option.n_pods)
            dfs(i + 1, placements, cost)

        dfs(0, [], 0.0)
        placed_tenants = {p.tenant for p in best[2]}
        result = ScheduleResult(
            placements=best[2],
            unplaced=[t.tenant for t in tenants if t.tenant not in placed_tenants],
        )
        # Commit the chosen allocation to the inventory.
        for p in result.placements:
            self.inventory.allocate(p.profile, p.n_pods)
        return result


@dataclass
class FeedbackIteration:
    """One pass of the schedule -> co-simulate -> adjust loop."""

    placements: list[Placement]
    result: ClusterResult
    contended: dict[str, int]
    adjustments: dict[str, str] = field(default_factory=dict)

    @property
    def contended_total(self) -> int:
        return sum(self.contended.values())

    @property
    def contended_rate_per_min(self) -> float:
        """Denied + clipped scale-ups per minute of simulated time."""
        return self.contended_total / (self.result.duration_s / 60.0)


@dataclass
class FeedbackOutcome:
    """The loop's trajectory: every iteration, oldest first."""

    iterations: list[FeedbackIteration]
    converged: bool

    @property
    def placements(self) -> list[Placement]:
        return self.iterations[-1].placements

    def contended_totals(self) -> list[int]:
        return [it.contended_total for it in self.iterations]

    def contended_rates(self) -> list[float]:
        return [it.contended_rate_per_min for it in self.iterations]


class FeedbackScheduler:
    """Feeds co-simulation contention back into placement.

    The static scheduler packs tenants by their Eq. (2) pod counts, but
    the co-simulation shows what the packing *does* under real traffic:
    some tenants' scale-ups keep getting denied or clipped by the
    shared inventory (:class:`~repro.simulation.fleet.ScaleEvent`
    constraints). This loop schedules, co-simulates, and then adjusts
    the tenants the inventory keeps rejecting:

    * **right-size** — raise the tenant's *initial* allocation and its
      autoscaler's ``min_pods`` floor to the peak pod count the ledger
      actually granted it during the run (pre-reserving capacity it
      otherwise fights for mid-run — the floor keeps the reservation
      from being released at the first trough), and cap its autoscaler's
      ``max_pods`` at that reservation plus its share of the remaining
      slack, so it stops asking for pods that cannot exist;
    * **re-schedule** — when the tenant's GPU type has no slack left at
      all, move it to its next ranked profile option (from its
      :class:`TenantRequest`) on a GPU type that still has stock.

    Iteration stops once a co-simulation records no denied/clipped
    events (``converged``), no further adjustment is possible, or
    ``max_iterations`` is reached. Traffic is supplied as factories —
    each iteration replays a fresh, identically seeded arrival process,
    so the trajectory is deterministic and iterations are comparable.
    Every co-simulation is on-prem only: the loop moves and caps
    reservations on the owned inventory and never rents.
    """

    def __init__(
        self,
        capacity: dict[str, int],
        duration_s: float,
        max_iterations: int = 4,
    ) -> None:
        if duration_s <= 0:
            raise ValueError(f"duration_s must be positive, got {duration_s}")
        if max_iterations < 1:
            raise ValueError(f"max_iterations must be >= 1, got {max_iterations}")
        self.capacity = dict(capacity)
        self.duration_s = float(duration_s)
        self.max_iterations = int(max_iterations)

    def run(
        self,
        requests: list[TenantRequest],
        deployments: dict[str, "Deployment"],
        traffic_factories: dict[str, Callable[[], "TrafficModel"]],
        routers: dict[str, "Router"] | None = None,
        autoscalers: dict[str, Autoscaler] | None = None,
        slos: dict[str, float] | None = None,
    ) -> FeedbackOutcome:
        """Iterate schedule -> co-simulate -> adjust until stable.

        Raises ``ValueError`` before any co-simulation when the first
        schedule places no tenant.
        """
        scheduler = MultiTenantScheduler(
            ClusterInventory(capacity=dict(self.capacity))
        )
        schedule = scheduler.schedule_best_fit(requests)
        if not schedule.placements:
            raise ValueError(
                f"no tenant's profile options fit the capacity {self.capacity}; "
                f"unplaced tenants: {schedule.unplaced}"
            )
        placements = list(schedule.placements)
        unplaced = list(schedule.unplaced)
        autoscalers = dict(autoscalers or {})
        options = {r.tenant: r.options for r in requests}
        iterations: list[FeedbackIteration] = []
        converged = False
        while True:
            result = self._simulate(
                placements,
                unplaced,
                deployments,
                traffic_factories,
                routers,
                autoscalers,
                slos,
            )
            contended = result.contended_counts()
            iterations.append(
                FeedbackIteration(
                    placements=list(placements),
                    result=result,
                    contended=contended,
                )
            )
            if sum(contended.values()) == 0:
                converged = True
                break
            if len(iterations) >= self.max_iterations:
                break
            placements, autoscalers, adjustments = self._adjust(
                placements, result, autoscalers, options
            )
            if not adjustments:
                break
            iterations[-1].adjustments = adjustments
        return FeedbackOutcome(iterations=iterations, converged=converged)

    # ---- internals --------------------------------------------------------

    def _simulate(
        self,
        placements,
        unplaced,
        deployments,
        traffic_factories,
        routers,
        autoscalers,
        slos,
    ) -> ClusterResult:
        traffics = {p.tenant: traffic_factories[p.tenant]() for p in placements}
        sim = ScheduleResult(
            placements=list(placements), unplaced=list(unplaced)
        ).to_cluster_sim(
            deployments,
            traffics,
            capacity=self.capacity,
            routers=routers,
            autoscalers=autoscalers,
            slos=slos,
        )
        result = sim.run(self.duration_s)
        result.verify_conservation()
        return result

    def _adjust(
        self,
        placements: list[Placement],
        result: ClusterResult,
        autoscalers: dict[str, Autoscaler],
        options: dict[str, tuple[ProfileAssessment, ...]],
    ) -> tuple[list[Placement], dict[str, Autoscaler], dict[str, str]]:
        """Right-size or re-schedule the tenants the inventory rejected."""
        peak = result.peak_pods()
        contended = {t: n for t, n in result.contended_counts().items() if n > 0}
        by_tenant = {p.tenant: p for p in placements}
        inventory = ClusterInventory(capacity=dict(self.capacity))
        for p in placements:
            inventory.allocate(p.profile, p.n_pods)
        adjustments: dict[str, str] = {}
        autoscalers = dict(autoscalers)
        # Most-rejected tenants claim slack first (ties: tenant order).
        order = sorted(contended, key=lambda t: -contended[t])
        for tenant in order:
            p = by_tenant[tenant]
            target = max(p.n_pods, peak.get(tenant, 0))
            extra = min(target - p.n_pods, inventory.fillable_pods(p.profile))
            if extra > 0:
                inventory.allocate(p.profile, extra)
                reserved = p.n_pods + extra
                by_tenant[tenant] = Placement(
                    tenant=tenant,
                    profile=p.profile,
                    n_pods=reserved,
                    total_cost=p.total_cost / p.n_pods * reserved,
                )
                # Make the reservation *hold*: raising only the initial
                # allocation would hand the pods straight back to the
                # ledger at the first scale-down, where a neighbor grabs
                # them — so the tenant's autoscaler floor rises with it.
                scaler = autoscalers.get(tenant)
                if scaler is not None:
                    autoscalers[tenant] = Autoscaler(
                        scaler.policy,
                        replace(
                            scaler.config,
                            min_pods=reserved,
                            max_pods=max(scaler.config.max_pods, reserved),
                        ),
                    )
                adjustments[tenant] = f"right-sized {p.n_pods} -> {reserved}"
            elif inventory.fillable_pods(p.profile) == 0 and target > p.n_pods:
                moved = self._reschedule(tenant, p, inventory, options)
                if moved is not None:
                    by_tenant[tenant] = moved
                    adjustments[tenant] = (
                        f"re-scheduled {p.profile} -> {moved.profile}"
                    )
        # Cap every rejected tenant's ask at its reservation plus a fair
        # share of what is left — asks beyond that can never be granted.
        for tenant in order:
            scaler = autoscalers.get(tenant)
            if scaler is None:
                continue
            reserved = by_tenant[tenant].n_pods
            slack = inventory.fillable_pods(by_tenant[tenant].profile)
            cap = max(1, reserved + slack // len(order))
            if cap < scaler.config.max_pods:
                autoscalers[tenant] = Autoscaler(
                    scaler.policy,
                    replace(
                        scaler.config,
                        max_pods=cap,
                        min_pods=min(scaler.config.min_pods, cap),
                    ),
                )
                adjustments[tenant] = (
                    adjustments.get(tenant, "").rstrip()
                    + f" capped max_pods at {cap}"
                ).strip()
        return (
            [by_tenant[p.tenant] for p in placements],
            autoscalers,
            adjustments,
        )

    def _reschedule(
        self, tenant, placement, inventory, options
    ) -> Placement | None:
        """Move a starved tenant to its next option with free stock.

        The move is sized by the option's *own* pod count (the observed
        peak is measured in pods of the old profile and means nothing on
        hardware with a different per-pod GPU count and throughput).
        The old allocation stays put until a fit is found: same-GPU
        options are skipped, so releasing it early could not free
        anything the candidate check reads.
        """
        current_gpu = parse_profile(placement.profile).gpu.name
        for option in options.get(tenant, ()):
            gpu = parse_profile(option.profile).gpu.name
            if gpu == current_gpu:
                continue
            if inventory.fillable_pods(option.profile) >= option.n_pods:
                inventory.release(placement.profile, placement.n_pods)
                inventory.allocate(option.profile, option.n_pods)
                return Placement(
                    tenant=tenant,
                    profile=option.profile,
                    n_pods=option.n_pods,
                    total_cost=option.total_cost,
                )
        return None
