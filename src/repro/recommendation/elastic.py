"""Elastic recommendation: cost-aware autoscaler-in-the-loop sizing.

The paper's recommendation (Eqs. 1-3) answers the sizing question with a
*fixed* pod count — under time-varying traffic that count must be sized
for the peak, and the trough is pure waste. The simulation substrate can
now resize fleets on a shared clock (autoscaling, cold starts, draining,
pod-second billing), so the recommendation layer can exploit it:

* a :class:`CostObjective` scores one simulated run as dollars: the
  pod-second bill (via :class:`~repro.hardware.pricing.PricingTable`)
  plus a configurable SLO-penalty function of the run's p95 TTFT
  (:class:`LinearSLOPenalty` scales with the relative breach,
  :class:`StepSLOPenalty` charges a flat rate while breached — or any
  ``Callable[[FleetResult], float]``);
* an :class:`ElasticRecommender` sweeps ``(policy, min_pods, max_pods)``
  candidates through :class:`~repro.simulation.fleet.FleetSimulator`
  under a caller-supplied traffic model — every candidate replays the
  identical seeded arrival process and workload stream, so the sweep is
  a controlled experiment — and scores each with the objective. The
  factory may return any open-loop model, including
  :class:`~repro.simulation.replay.ReplayTraffic` over a recorded
  arrival log: recommending against the traffic a platform *actually
  saw* (CLI: ``recommend-elastic --traffic replay --arrivals FILE``)
  rather than a synthetic stand-in;
* the :class:`ElasticRecommendation` carries the full
  pod-hours-vs-SLO-penalty trade curve (:class:`TradePoint` per
  candidate, including the static sizing ladder), the chosen config and
  its savings against the peak-sized static baseline.

``GPURecommendationTool.recommend(..., elastic=ElasticOptions(...))``
closes the loop with the paper's pipeline: Eqs. (1)-(3) pick the profile
and the peak-static pod count, then the sweep recommends
``min_pods``/``max_pods`` and a policy on that profile instead of the
fixed count.
"""

from __future__ import annotations

import logging
import math
from collections.abc import Callable, Sequence
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.hardware.pricing import CLOUD_PRICING_MODES, CloudCatalog, PricingTable
from repro.utils.parallel import fork_map
from repro.simulation.cloud import BurstPolicy, CloudLedger, bind_hybrid_capacity
from repro.simulation.autoscale import (
    Autoscaler,
    AutoscaleConfig,
    AutoscalePolicy,
    PredictivePolicy,
    TargetUtilizationPolicy,
    ThresholdPolicy,
)
from repro.simulation.cluster import ClusterInventory
from repro.simulation.fleet import FleetResult, Router
from repro.simulation.replay import RecordedTraffic

if TYPE_CHECKING:
    from repro.cluster.deployment import Deployment
    from repro.simulation.fleet import FleetSimulator
    from repro.simulation.traffic import TrafficModel
    from repro.workload.generator import WorkloadGenerator

__all__ = [
    "SLOPenaltyFn",
    "LinearSLOPenalty",
    "StepSLOPenalty",
    "CostObjective",
    "ElasticCandidate",
    "TradePoint",
    "PrunedCandidate",
    "ElasticRecommendation",
    "ElasticOptions",
    "ElasticRecommender",
    "default_candidates",
]

logger = logging.getLogger(__name__)

#: Maps one simulated run to an SLO-penalty charge in dollars.
SLOPenaltyFn = Callable[[FleetResult], float]


def _breached(result: FleetResult, slo_p95_ttft_s: float) -> bool:
    """Did the run's p95 TTFT breach the SLO?

    A NaN tail with admitted work means nothing was served at all —
    the worst possible breach, not a free pass; a NaN tail on an idle
    run (nothing admitted) is vacuously within SLO.
    """
    p95 = result.ttft.p95_s
    if math.isnan(p95):
        return result.admitted > 0 and result.completed_total == 0
    return p95 > slo_p95_ttft_s


@dataclass(frozen=True)
class LinearSLOPenalty:
    """Dollars per hour, scaled by the relative p95 TTFT excess.

    ``penalty = rate * hours * max(0, p95/slo - 1)`` — a 2x breach of
    the SLO for the whole window costs ``penalty_per_hour * hours``.
    ``penalty_per_shed`` additionally charges every request the
    admission controller rejected, so shedding cannot masquerade as a
    latency win for free.
    """

    slo_p95_ttft_s: float
    penalty_per_hour: float = 50.0
    penalty_per_shed: float = 0.0

    def __post_init__(self) -> None:
        if self.slo_p95_ttft_s <= 0:
            raise ValueError(
                f"slo_p95_ttft_s must be positive, got {self.slo_p95_ttft_s}"
            )
        if self.penalty_per_hour < 0 or self.penalty_per_shed < 0:
            raise ValueError("penalty rates must be >= 0")

    def __call__(self, result: FleetResult) -> float:
        hours = result.duration_s / 3600.0
        shed_cost = self.penalty_per_shed * result.shed
        p95 = result.ttft.p95_s
        if math.isnan(p95):
            if _breached(result, self.slo_p95_ttft_s):
                # Nothing served at all: charge as a total (1x) breach.
                return self.penalty_per_hour * hours + shed_cost
            return shed_cost
        excess = max(0.0, p95 / self.slo_p95_ttft_s - 1.0)
        return self.penalty_per_hour * hours * excess + shed_cost


@dataclass(frozen=True)
class StepSLOPenalty:
    """Flat dollars per hour while the p95 TTFT sits above the SLO."""

    slo_p95_ttft_s: float
    penalty_per_hour: float = 50.0
    penalty_per_shed: float = 0.0

    def __post_init__(self) -> None:
        if self.slo_p95_ttft_s <= 0:
            raise ValueError(
                f"slo_p95_ttft_s must be positive, got {self.slo_p95_ttft_s}"
            )
        if self.penalty_per_hour < 0 or self.penalty_per_shed < 0:
            raise ValueError("penalty rates must be >= 0")

    def __call__(self, result: FleetResult) -> float:
        hours = result.duration_s / 3600.0
        penalty = (
            self.penalty_per_hour * hours
            if _breached(result, self.slo_p95_ttft_s)
            else 0.0
        )
        return penalty + self.penalty_per_shed * result.shed


@dataclass(frozen=True)
class CostObjective:
    """Scores one simulated run in dollars: compute bill + SLO penalty.

    The compute bill is the run's provisioned pod-seconds priced at the
    profile's hourly c(G) — exactly what an elastic deployment pays,
    as opposed to Eq. (1)'s ``n * c(G)`` flat rate for a static one.

    With ``cloud`` set the bill is *mixed*: the run's on-prem
    pod-seconds stay at the pricing table's rate, while its cloud
    pod-seconds (a hybrid fleet's burst tier) are priced from the
    catalog under ``cloud_mode``. A run that rented cloud capacity
    cannot be scored without a catalog — that is a hard error, not a
    silently on-prem-priced bill.
    """

    pricing: PricingTable
    penalty: SLOPenaltyFn
    cloud: CloudCatalog | None = None
    cloud_mode: str = "on-demand"

    def __post_init__(self) -> None:
        if self.cloud_mode not in CLOUD_PRICING_MODES:
            raise ValueError(
                f"unknown cloud pricing mode {self.cloud_mode!r}; "
                f"expected one of {', '.join(CLOUD_PRICING_MODES)}"
            )

    def compute_cost(self, result: FleetResult, profile) -> float:
        """Pod-second bill of the run on ``profile``, in dollars.

        Splits into on-prem and cloud tiers when the run burst to the
        cloud (see :meth:`~repro.simulation.fleet.FleetResult.bill`).
        """
        return result.bill(profile, self.pricing, self.cloud, self.cloud_mode)["total"]

    def slo_penalty(self, result: FleetResult) -> float:
        """The penalty function's charge for the run, in dollars."""
        return float(self.penalty(result))


@dataclass(frozen=True)
class ElasticCandidate:
    """One configuration of the sweep: a policy between pod bounds.

    ``make_policy`` mints a fresh policy per run (policies may hold
    state); ``None`` means a static fleet of ``min_pods == max_pods``
    pods with no autoscaler at all — the baseline rungs of the curve.
    """

    policy: str
    min_pods: int
    max_pods: int
    make_policy: Callable[[], AutoscalePolicy] | None = field(
        default=None, compare=False, repr=False
    )

    def __post_init__(self) -> None:
        if self.min_pods < 1:
            raise ValueError(f"min_pods must be >= 1, got {self.min_pods}")
        if self.max_pods < self.min_pods:
            raise ValueError(
                f"max_pods {self.max_pods} must be >= min_pods {self.min_pods}"
            )
        if self.make_policy is None and self.min_pods != self.max_pods:
            raise ValueError("a static candidate needs min_pods == max_pods")

    @property
    def label(self) -> str:
        """Human-readable tag, e.g. ``threshold[1..6]`` or ``static[4]``."""
        if self.make_policy is None:
            return f"static[{self.min_pods}]"
        return f"{self.policy}[{self.min_pods}..{self.max_pods}]"


@dataclass
class TradePoint:
    """One point of the pod-hours-vs-SLO trade curve."""

    policy: str
    min_pods: int
    max_pods: int
    pod_hours: float
    compute_cost: float
    slo_penalty: float
    total_cost: float
    p95_ttft_s: float
    meets_slo: bool
    arrivals: int
    shed: int
    requests_completed: int
    scale_events: int
    denied_or_clipped: int
    result: FleetResult | None = field(default=None, repr=False)

    @property
    def label(self) -> str:
        """Human-readable tag matching the candidate that produced it."""
        if self.policy == "static":
            return f"static[{self.min_pods}]"
        return f"{self.policy}[{self.min_pods}..{self.max_pods}]"

    def as_dict(self) -> dict:
        """JSON-ready view (no simulation payload).

        A NaN tail (nothing served in the window) maps to ``None`` —
        bare ``NaN`` is not valid JSON and breaks strict parsers.
        """
        return {
            "policy": self.policy,
            "min_pods": self.min_pods,
            "max_pods": self.max_pods,
            "pod_hours": self.pod_hours,
            "compute_cost": self.compute_cost,
            "slo_penalty": self.slo_penalty,
            "total_cost": self.total_cost,
            "p95_ttft_s": None if math.isnan(self.p95_ttft_s) else self.p95_ttft_s,
            "meets_slo": self.meets_slo,
            "arrivals": self.arrivals,
            "shed": self.shed,
            "requests_completed": self.requests_completed,
            "scale_events": self.scale_events,
            "denied_or_clipped": self.denied_or_clipped,
        }


@dataclass(frozen=True)
class PrunedCandidate:
    """A sweep candidate skipped by the cost-lower-bound prune — never silently.

    Records the arithmetic that justified the skip: the candidate's
    unavoidable compute-bill floor (its ``min_pods`` provisioned for the
    whole scored window) already exceeded the total cost of an
    SLO-meeting incumbent, so simulating it could not have changed the
    recommendation.
    """

    label: str
    policy: str
    min_pods: int
    max_pods: int
    cost_floor: float
    incumbent_cost: float
    incumbent_label: str

    def as_dict(self) -> dict:
        """JSON-ready view of the prune decision."""
        return {
            "label": self.label,
            "policy": self.policy,
            "min_pods": self.min_pods,
            "max_pods": self.max_pods,
            "cost_floor": self.cost_floor,
            "incumbent_cost": self.incumbent_cost,
            "incumbent_label": self.incumbent_label,
        }


@dataclass
class ElasticRecommendation:
    """The sweep's answer: a config, its curve, and savings vs static.

    ``static`` is the peak-sized static baseline (Eq. 2's pod count when
    the sweep was invoked through ``GPURecommendationTool``, otherwise
    the smallest simulated static fleet that met the SLO); ``curve``
    holds every evaluated candidate including the static sizing ladder.
    """

    profile: str
    slo_p95_ttft_s: float
    chosen: TradePoint
    static: TradePoint
    curve: list[TradePoint] = field(default_factory=list)
    static_recommendation: object | None = field(default=None, repr=False)
    pruned: list[PrunedCandidate] = field(default_factory=list)

    @property
    def savings(self) -> float:
        """Dollars saved vs the static baseline over the simulated window."""
        return self.static.total_cost - self.chosen.total_cost

    @property
    def savings_fraction(self) -> float:
        """Savings as a fraction of the static baseline's cost."""
        if self.static.total_cost <= 0:
            return 0.0
        return self.savings / self.static.total_cost

    @property
    def meets_slo(self) -> bool:
        """Did the chosen configuration keep the p95 TTFT inside the SLO?"""
        return self.chosen.meets_slo

    def as_dict(self) -> dict:
        """JSON-ready view of the recommendation and its trade curve."""
        return {
            "profile": self.profile,
            "slo_p95_ttft_s": self.slo_p95_ttft_s,
            "chosen": self.chosen.as_dict(),
            "static": self.static.as_dict(),
            "curve": [p.as_dict() for p in self.curve],
            "pruned": [p.as_dict() for p in self.pruned],
            "savings": self.savings,
            "savings_fraction": self.savings_fraction,
            "meets_slo": self.meets_slo,
        }


#: The standard sweep's floor, the utilization its target-utilization
#: policy holds, and the fraction of the SLO its threshold policy holds.
_SWEEP_MIN_PODS = 1
_SWEEP_TARGET_UTILIZATION = 0.5
_SWEEP_SLO_FRACTION = 0.25


def default_candidates(
    slo_p95_ttft_s: float, max_pods: int, requests_per_pod_per_s: float
) -> list[ElasticCandidate]:
    """The standard sweep: all three adaptive policies from one pod up to
    ``max_pods``.

    The threshold policy reacts at a quarter of the end-to-end SLO: the
    run's p95 includes every scale-up transient, so a policy that only
    moves once the *windowed* tail breaches the full SLO has already
    lost it for the run. Reacting early keeps the end-to-end tail inside
    the target.
    """
    return [
        ElasticCandidate(
            "threshold",
            _SWEEP_MIN_PODS,
            max_pods,
            lambda: ThresholdPolicy(
                slo_p95_ttft_s=_SWEEP_SLO_FRACTION * slo_p95_ttft_s
            ),
        ),
        ElasticCandidate(
            "target-utilization",
            _SWEEP_MIN_PODS,
            max_pods,
            lambda: TargetUtilizationPolicy(target=_SWEEP_TARGET_UTILIZATION),
        ),
        ElasticCandidate(
            "predictive",
            _SWEEP_MIN_PODS,
            max_pods,
            lambda: PredictivePolicy(requests_per_pod_per_s=requests_per_pod_per_s),
        ),
    ]


@dataclass
class ElasticOptions:
    """What ``GPURecommendationTool.recommend(elastic=...)`` needs to sweep.

    The static pipeline (Eqs. 1-3) knows nothing about traffic over
    time; these options supply the missing dynamic context: the workload
    generator and seeded traffic factory to simulate under, the cost
    objective, and the sweep's knobs. ``max_batch_weight`` is tuned for
    the recommended profile when left ``None`` (the per-profile tuning
    the characterization tool performs). The sweep runs the default
    candidates behind the default router, with no warmup.
    """

    generator: "WorkloadGenerator"
    traffic_factory: Callable[[], "TrafficModel"]
    objective: CostObjective
    slo_p95_ttft_s: float
    duration_s: float
    max_batch_weight: int | None = None
    seed: int = 0
    decision_interval_s: float = 15.0
    cold_start_s: float = 10.0
    metrics_window_s: float = 30.0


class ElasticRecommender:
    """Sweeps autoscaling configs through the fleet simulator and scores them.

    ``traffic_factory`` must return a *fresh, identically seeded* traffic
    model on every call — each candidate replays the same arrival
    process, and the deployment's workload stream label is held fixed,
    so two candidates differ only in how the fleet resizes itself.

    That shared arrival process is generated exactly once per sweep —
    the factory is called once, its stream materialized as a
    :class:`RecordedTraffic`, and every candidate replays the shared
    arrays bit-identically — instead of regenerating identical
    timestamps and token draws per candidate.

    With ``on_prem_pods`` set the sweep is *hybrid*: each candidate's
    fleet is bound, through
    :func:`~repro.simulation.cloud.bind_hybrid_capacity`, to a private
    owned tier — the first ``on_prem_pods`` provisioned pods are owned,
    overflow rents from the objective's cloud catalog under ``burst``
    (default: an unbounded :class:`~repro.simulation.cloud.BurstPolicy`
    in the objective's ``cloud_mode``, the only mode a given policy may
    rent in) — and scored against the mixed bill.
    """

    def __init__(
        self,
        deployment: "Deployment",
        traffic_factory: Callable[[], "TrafficModel"],
        objective: CostObjective,
        slo_p95_ttft_s: float,
        duration_s: float,
        warmup_s: float = 0.0,
        decision_interval_s: float = 15.0,
        cold_start_s: float = 10.0,
        metrics_window_s: float = 30.0,
        router_factory: Callable[[], Router] | None = None,
        stream_label: object = "elastic",
        on_prem_pods: int | None = None,
        burst: BurstPolicy | None = None,
    ) -> None:
        if duration_s <= 0:
            raise ValueError(f"duration_s must be positive, got {duration_s}")
        if slo_p95_ttft_s <= 0:
            raise ValueError(f"slo_p95_ttft_s must be positive, got {slo_p95_ttft_s}")
        if on_prem_pods is not None:
            if on_prem_pods < 1:
                raise ValueError(
                    f"on_prem_pods must be >= 1, got {on_prem_pods}"
                )
            if objective.cloud is None:
                raise ValueError(
                    "a hybrid sweep (on_prem_pods set) needs a cloud "
                    "catalog to rent overflow from; construct the "
                    "objective with CostObjective(cloud=...)"
                )
            if burst is not None and burst.mode != objective.cloud_mode:
                raise ValueError(
                    f"the burst policy rents in {burst.mode!r} mode but the "
                    f"objective prices rentals at {objective.cloud_mode!r}; "
                    "give both the same cloud mode"
                )
        elif burst is not None:
            raise ValueError(
                "a burst policy without on_prem_pods has nothing to "
                "overflow from; set on_prem_pods to the owned-tier size"
            )
        # The sweep's premise is that every candidate faces the *same*
        # offered load. Purely completion-driven (closed-loop) traffic
        # has no scheduled arrivals — arrivals adapt to each candidate's
        # service rate, so a slow candidate would throttle its own load
        # and "save" money by serving less work. Reject it up front.
        if traffic_factory().peek() is None:
            raise ValueError(
                "ElasticRecommender needs an open-loop (scheduled-arrival) "
                "traffic model: closed-loop arrivals adapt to each "
                "candidate's service rate, so candidates would not face "
                "identical traffic and cost savings would be meaningless"
            )
        self.deployment = deployment
        self.traffic_factory = traffic_factory
        self.objective = objective
        self.slo_p95_ttft_s = float(slo_p95_ttft_s)
        self.duration_s = float(duration_s)
        self.warmup_s = float(warmup_s)
        self.decision_interval_s = float(decision_interval_s)
        self.cold_start_s = float(cold_start_s)
        self.metrics_window_s = float(metrics_window_s)
        self.router_factory = router_factory
        self.stream_label = stream_label
        self.on_prem_pods = None if on_prem_pods is None else int(on_prem_pods)
        if on_prem_pods is not None and burst is None:
            burst = BurstPolicy(mode=objective.cloud_mode)
        self.burst = burst
        self._recorded: RecordedTraffic | None = None

    # ---- the shared arrival stream ----------------------------------------

    def _traffic(self) -> "TrafficModel":
        """The traffic model one candidate evaluation runs under.

        The factory's seeded open-loop stream is materialized exactly
        once — timestamps and workload-stream token draws — and every
        candidate replays the shared arrays through a fresh
        :class:`RecordedTraffic` cursor, which is provably bit-identical
        to a factory-fresh model (see :meth:`RecordedTraffic.record`).
        """
        if self._recorded is None:
            self._recorded = RecordedTraffic.record(
                self.traffic_factory(),
                self.deployment.workload_source(self.stream_label),
                self.warmup_s + self.duration_s,
            )
        return self._recorded.replay()

    # ---- one candidate ----------------------------------------------------

    def evaluate(self, candidate: ElasticCandidate) -> TradePoint:
        """Simulate one candidate and score it with the objective."""
        autoscaler = None
        if candidate.make_policy is not None:
            autoscaler = Autoscaler(
                candidate.make_policy(),
                AutoscaleConfig(
                    decision_interval_s=self.decision_interval_s,
                    min_pods=candidate.min_pods,
                    max_pods=candidate.max_pods,
                    cold_start_s=self.cold_start_s,
                    metrics_window_s=self.metrics_window_s,
                ),
            )
        deployment = self.deployment.scale(candidate.min_pods)
        router = self.router_factory() if self.router_factory else None
        fleet = deployment.fleet(
            self._traffic(),
            router=router,
            stream_label=self.stream_label,
            autoscaler=autoscaler,
        )
        if self.on_prem_pods is not None:
            self._bind_owned_tier(fleet)
        result = fleet.run(
            duration_s=self.duration_s,
            warmup_s=self.warmup_s,
            keep_samples=False,
        )
        result.verify_conservation()
        profile = self.deployment.profile
        compute = self.objective.compute_cost(result, profile)
        penalty = self.objective.slo_penalty(result)
        return TradePoint(
            policy="static" if candidate.make_policy is None else candidate.policy,
            min_pods=candidate.min_pods,
            max_pods=candidate.max_pods,
            pod_hours=result.pod_hours,
            compute_cost=compute,
            slo_penalty=penalty,
            total_cost=compute + penalty,
            p95_ttft_s=result.ttft.p95_s,
            meets_slo=not _breached(result, self.slo_p95_ttft_s),
            arrivals=result.arrivals,
            shed=result.shed,
            requests_completed=result.requests_completed,
            scale_events=len(result.scale_events),
            denied_or_clipped=sum(1 for e in result.scale_events if e.constraint),
            result=result,
        )

    def _bind_owned_tier(self, fleet: "FleetSimulator") -> None:
        """Seat a hybrid candidate's fleet on its own owned tier.

        The first ``on_prem_pods`` provisioned pods are owned — a
        private inventory of that many pods' GPUs, holding the initial
        pods — and anything beyond rents from the objective's catalog,
        through the same binder a cluster tenant uses. A fresh inventory
        and ledger per evaluation keep candidates independent (and
        fork_map-safe): rented capacity never leaks between candidates.
        """
        n_pods = len(fleet.pods)
        if n_pods > self.on_prem_pods:
            # An initial fleet larger than the owned tier would start
            # life in the cloud, which no operator means.
            raise ValueError(
                f"initial fleet of {n_pods} pods exceeds the "
                f"{self.on_prem_pods}-pod on-prem tier"
            )
        profile = self.deployment.profile
        owned = ClusterInventory(
            capacity={profile.gpu.name: self.on_prem_pods * profile.count}
        )
        owned.allocate(profile.name, n_pods)
        bind_hybrid_capacity(
            fleet,
            "fleet",
            profile.name,
            owned,
            CloudLedger(self.objective.cloud, seed=self.deployment.seed),
            self.burst,
        )

    # ---- the sweep --------------------------------------------------------

    def evaluate_many(
        self, candidates: Sequence[ElasticCandidate], jobs: int = 1
    ) -> list[TradePoint]:
        """Evaluate candidates, in candidate order, optionally in parallel.

        Every candidate already replays an identically seeded arrival
        process with no shared mutable state, so evaluation order cannot
        influence any result — :func:`~repro.utils.parallel.fork_map`
        with ``jobs > 1`` fans the same calls across worker processes
        and returns the byte-identical list the serial loop produces.

        The arrival stream is materialized *before* the fork so workers
        inherit the recorded arrays instead of regenerating them per
        process.
        """
        candidates = list(candidates)
        if self._recorded is None and candidates:
            self._traffic()
        return fork_map(self.evaluate, candidates, jobs)

    def peak_static_pods(self, search_max: int = 8) -> tuple[int, list[TradePoint]]:
        """Autoscaler-in-the-loop sizing of the *static* baseline.

        Finds the smallest static pod count in 1..``search_max`` that
        meets the SLO under the sweep's traffic — the "peak-sized" fleet
        the paper's fixed answer corresponds to — by **bisection**:
        adding pods to a static fleet under fixed open-loop traffic
        never worsens its tail, so SLO attainment is monotone in the pod
        count and O(log search_max) simulated rungs pin the boundary
        (the old linear ladder climb simulated every rung up to the
        answer). The rungs actually simulated are returned, sorted by
        pod count, as trade-curve points; the answer's rung is always
        among them. When even ``search_max`` pods breach, it is returned
        anyway (honest infeasibility: its penalty dominates its score).
        Bisection is inherently sequential, so the ladder runs serially.
        """
        if search_max < 1:
            raise ValueError(f"search_max must be >= 1, got {search_max}")
        points: dict[int, TradePoint] = {}

        def meets(n_pods: int) -> bool:
            if n_pods not in points:
                points[n_pods] = self.evaluate(
                    ElasticCandidate("static", n_pods, n_pods)
                )
            return points[n_pods].meets_slo

        if meets(1) or search_max == 1:
            best = 1
        elif not meets(search_max):
            best = search_max
        else:
            # Invariant: lo breaches, hi meets; the boundary is in (lo, hi].
            lo, hi = 1, search_max
            while hi - lo > 1:
                mid = (lo + hi) // 2
                if meets(mid):
                    hi = mid
                else:
                    lo = mid
            best = hi
        return best, [points[n_pods] for n_pods in sorted(points)]

    def recommend(
        self,
        candidates: Sequence[ElasticCandidate] | None = None,
        static_pods: int | None = None,
        search_max: int = 8,
        headroom: int = 2,
        jobs: int = 1,
        prune: bool = False,
    ) -> ElasticRecommendation:
        """Run the sweep and pick the cheapest SLO-meeting configuration.

        ``static_pods`` pins the peak-sized baseline (e.g. Eq. 2's pod
        count); left ``None``, the static sizing ladder finds it by
        simulation. Default candidates sweep the three adaptive policies
        between 1 and ``static_pods + headroom`` pods, with the
        predictive policy's per-pod service rate estimated from the
        baseline run itself. Selection prefers SLO-meeting points, then
        the lowest total cost, then the fewest pod-hours; ``static``
        points compete on equal terms, so the recommendation degrades
        gracefully to "stay static" when elasticity does not pay.

        ``jobs > 1`` distributes the candidate sweep across worker
        processes; every candidate keeps its own deterministic seed, so
        the recommendation is byte-identical to the ``jobs=1`` serial
        sweep.

        ``prune=True`` skips candidates whose compute-bill *floor* —
        ``min_pods`` provisioned for the scored window, the cheapest run
        the candidate could possibly produce — already strictly exceeds
        the total cost of an SLO-meeting rung of the ladder. Such a
        candidate can never win the selection (assuming the objective's
        penalty is non-negative, as the built-in penalties guarantee),
        so its simulation is skipped; every skip is logged and recorded
        in the recommendation's ``pruned`` list, never silent.
        """
        ladder: list[TradePoint] = []
        if self.on_prem_pods is not None:
            # The static baseline of a hybrid sweep is the owned tier
            # alone: a static fleet cannot burst (it never scales), so
            # rungs beyond on_prem_pods are unbuildable. An owned tier
            # too small to meet the SLO statically is reported honestly
            # (penalty dominates) — exactly the case where bursting wins.
            search_max = min(search_max, self.on_prem_pods)
        if static_pods is None:
            static_pods, ladder = self.peak_static_pods(search_max)
            static_point = next(
                p for p in ladder if p.min_pods == static_pods
            )
        else:
            if static_pods < 1:
                raise ValueError(f"static_pods must be >= 1, got {static_pods}")
            static_point = self.evaluate(
                ElasticCandidate("static", static_pods, static_pods)
            )
            ladder = [static_point]
        if candidates is None:
            candidates = default_candidates(
                self.slo_p95_ttft_s,
                max_pods=static_pods + headroom,
                requests_per_pod_per_s=self._per_pod_rate(static_point, static_pods),
            )
        candidates = list(candidates)
        pruned: list[PrunedCandidate] = []
        if prune:
            candidates, pruned = self._prune(candidates, ladder)
        curve = ladder + self.evaluate_many(candidates, jobs)
        chosen = min(
            curve,
            key=lambda p: (not p.meets_slo, p.total_cost, p.pod_hours),
        )
        return ElasticRecommendation(
            profile=self.deployment.profile.name,
            slo_p95_ttft_s=self.slo_p95_ttft_s,
            chosen=chosen,
            static=static_point,
            curve=curve,
            pruned=pruned,
        )

    def _prune(
        self, candidates: list[ElasticCandidate], ladder: list[TradePoint]
    ) -> tuple[list[ElasticCandidate], list[PrunedCandidate]]:
        """Split candidates into (worth simulating, provably dominated).

        The bound: a candidate keeps at least ``min_pods`` provisioned
        for the whole billed window (the autoscaler cannot go below its
        floor), so its total cost is at least that compute bill. If that
        floor alone is strictly above an SLO-meeting incumbent's *total*
        cost, the candidate loses every leg of the selection key —
        ``meets_slo`` at best ties, ``total_cost`` is strictly worse —
        and simulating it cannot change the answer. Without an
        SLO-meeting incumbent nothing is pruned: an infeasible baseline
        proves nothing about the candidates.
        """
        incumbent = min(
            (p for p in ladder if p.meets_slo),
            key=lambda p: p.total_cost,
            default=None,
        )
        if incumbent is None:
            return candidates, []
        # Floors use ``duration_s`` only: whatever the billing window
        # includes beyond it (warmup, drain tails), the bill can only
        # grow, so the duration-only floor stays a valid lower bound.
        hours = self.duration_s / 3600.0
        pod_cost = self.objective.pricing.pod_cost(self.deployment.profile)
        if (
            self.on_prem_pods is not None
            and self.objective.cloud is not None
            and self.objective.cloud.offers(self.deployment.profile.gpu.name)
        ):
            # A hybrid candidate's floor pods may seat in whichever tier
            # is cheaper, so only the minimum of the two prices keeps
            # the floor a valid lower bound.
            pod_cost = min(
                pod_cost,
                self.objective.cloud.pod_cost(
                    self.deployment.profile, self.objective.cloud_mode
                ),
            )
        kept: list[ElasticCandidate] = []
        pruned: list[PrunedCandidate] = []
        for candidate in candidates:
            floor = candidate.min_pods * hours * pod_cost
            if floor > incumbent.total_cost:
                decision = PrunedCandidate(
                    label=candidate.label,
                    policy=candidate.policy,
                    min_pods=candidate.min_pods,
                    max_pods=candidate.max_pods,
                    cost_floor=floor,
                    incumbent_cost=incumbent.total_cost,
                    incumbent_label=incumbent.label,
                )
                pruned.append(decision)
                logger.info(
                    "pruned candidate %s: compute-bill floor $%.4f exceeds "
                    "incumbent %s total cost $%.4f",
                    decision.label,
                    decision.cost_floor,
                    decision.incumbent_label,
                    decision.incumbent_cost,
                )
            else:
                kept.append(candidate)
        return kept, pruned

    def _per_pod_rate(self, static_point: TradePoint, static_pods: int) -> float:
        """Sustainable per-pod arrival rate, from the baseline run.

        The peak-sized static fleet serves the whole offered load by
        construction, so its mean per-pod completion rate is a usable
        service-capacity estimate for the predictive policy.
        """
        rate = static_point.requests_completed / self.duration_s / static_pods
        return max(rate, 1e-6)
