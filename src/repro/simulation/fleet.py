"""Shared-clock fleet simulation: N pods, one virtual timeline.

``cluster.Deployment`` used to "simulate" multi-pod deployments by
statically splitting users across engines that never shared a clock —
fine for the paper's closed-loop Table I, but unable to express a front
end routing open-loop or bursty traffic over replicas. The
:class:`FleetSimulator` co-simulates every pod on one virtual clock:

* arrivals come from a :class:`~repro.simulation.traffic.TrafficModel`
  (scheduled open-loop arrivals and/or completion-driven closed-loop
  resubmissions);
* a pluggable :class:`Router` picks the pod for every arrival; a router
  that also implements ``admit()`` (the
  :class:`~repro.simulation.autoscale.AdmissionController`) may shed or
  defer arrivals before they reach a pod;
* an optional :class:`~repro.simulation.autoscale.Autoscaler` resizes
  the fleet on a fixed decision interval of the shared clock: new pods
  become routable after a cold-start delay, removed pods drain (finish
  the work already routed to them, reject new routes) and retire;
* the event loop always steps the busy pod with the smallest virtual
  time, so cross-pod causality (an arrival routed at time t can only be
  influenced by state no later than t) is preserved.

With a single pod and no autoscaler the loop is step-for-step identical
to the paper's hand-written closed-loop/open-loop drivers, which is what
lets ``characterization.loadtest`` delegate here without changing any
seeded output.
"""

from __future__ import annotations

import heapq
import time as _time
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, ClassVar, Iterable

import numpy as np

from repro.simulation.faults import FaultEvent, FaultInjector, FaultSpec
from repro.simulation.frontier import (
    EventFrontier,
    committed_load,
    least_loaded_pod,
    run_event_loop,
)
from repro.simulation.metrics import LatencyStats, MetricsCollector
from repro.simulation.results import (
    fault_event_dict,
    json_float,
    latency_dict,
    scale_event_dict,
)
from repro.simulation.traffic import RequestSource, TrafficModel

if TYPE_CHECKING:  # import cycle: the engine itself imports this package
    from repro.hardware.pricing import CloudCatalog, PricingTable
    from repro.hardware.profile import GPUProfile
    from repro.inference.engine import ContinuousBatchingEngine
    from repro.inference.request import InferenceRequest
    from repro.simulation.autoscale import Autoscaler, FleetView

__all__ = [
    "committed_load",
    "least_loaded_pod",
    "Router",
    "RoundRobinRouter",
    "LeastLoadedRouter",
    "JoinShortestQueueRouter",
    "WeightAwareRouter",
    "ROUTERS",
    "ScaleEvent",
    "PodStats",
    "FleetResult",
    "FleetSimulator",
]


class Router:
    """Chooses the pod index for each arrival."""

    name: str = "router"

    def route(
        self,
        request: InferenceRequest,
        arrival_time: float,
        pods: list[ContinuousBatchingEngine],
    ) -> int:
        raise NotImplementedError

    def reset(self) -> None:
        """Forget routing state before a fresh run."""


class RoundRobinRouter(Router):
    """Cycle through pods regardless of their load."""

    name = "round-robin"

    def __init__(self) -> None:
        self._next = 0

    def route(self, request, arrival_time, pods) -> int:
        i = self._next % len(pods)
        self._next += 1
        return i

    def reset(self) -> None:
        self._next = 0


class LeastLoadedRouter(Router):
    """Pick the pod with the least committed work, by batch weight.

    Load is the weight of the in-flight batch plus the weight still
    waiting in the pod's queue, i.e. every token the pod has accepted but
    not finished; ties break toward the lowest pod index.
    """

    name = "least-loaded"

    def route(self, request, arrival_time, pods) -> int:
        return least_loaded_pod(range(len(pods)), pods)


class JoinShortestQueueRouter(Router):
    """Classic JSQ: pick the pod with the fewest requests in the system."""

    name = "join-shortest-queue"

    def route(self, request, arrival_time, pods) -> int:
        return min(
            range(len(pods)),
            key=lambda i: (pods[i].queue_depth + pods[i].active_requests, i),
        )


class WeightAwareRouter(Router):
    """Route on estimated request cost: isolate heavy requests.

    Queue-depth routing (JSQ) treats a 4000-token summarization request
    and a 20-token lookup as equal units, so under heavy-tailed request
    sizes — exactly what replayed production traces exhibit — light
    requests end up queued behind elephants and the TTFT tail blows up.
    This router uses the per-request weight the arrival carries (for
    trace replay, the *recorded* token counts): requests above an
    online threshold are confined to a dedicated heavy tier (the
    ``heavy_pod_fraction`` of the fleet with the highest pod indices)
    while light requests keep the rest — size-interval assignment.
    The threshold is learned from a trailing window of observed weights
    so that the heavy tier's *share of total token weight* matches its
    share of pods (SITA-E balancing): the few elephants above it load
    their tier exactly as much as the many mice load theirs, and the
    count-p95 of latency sits safely inside the protected light tier.
    Within a tier, the pod with the least committed token weight wins,
    so each tier is itself least-loaded.

    Until ``warmup`` arrivals have been observed (or when the fleet has
    a single pod) the router degrades to plain least-loaded: with no
    weight history there is no defensible threshold.
    """

    name = "weight-aware"

    def __init__(
        self,
        heavy_pod_fraction: float = 0.25,
        warmup: int = 64,
        window: int = 512,
    ) -> None:
        if not 0.0 < heavy_pod_fraction < 1.0:
            raise ValueError(
                f"heavy_pod_fraction must be in (0, 1), got {heavy_pod_fraction}"
            )
        if warmup < 1 or window < 1:
            raise ValueError("warmup and window must be >= 1")
        self.heavy_pod_fraction = float(heavy_pod_fraction)
        self.warmup = int(warmup)
        self.window = int(window)
        self._weights: list[int] = []
        self._seen = 0

    def _threshold(self, heavy_share: float) -> float:
        """Weight above which the top tail carries ``heavy_share`` of load.

        Splits the windowed weights so the heaviest requests summing to
        ``heavy_share`` of total token weight sit strictly above the
        returned threshold — the SITA-E cutoff for the current mix. The
        threshold is the largest weight still inside the light group.
        """
        ordered = np.sort(np.asarray(self._weights, dtype=np.float64))
        cumulative = np.cumsum(ordered)
        light_target = (1.0 - heavy_share) * cumulative[-1]
        index = max(int(np.searchsorted(cumulative, light_target)), 1)
        return float(ordered[index - 1])

    def route(self, request, arrival_time, pods) -> int:
        weight = request.weight
        self._seen += 1
        self._weights.append(weight)
        if len(self._weights) > self.window:
            del self._weights[0]
        if len(pods) < 2 or self._seen < self.warmup:
            return least_loaded_pod(list(range(len(pods))), pods)
        n_heavy = max(1, round(self.heavy_pod_fraction * len(pods)))
        n_heavy = min(n_heavy, len(pods) - 1)
        threshold = self._threshold(n_heavy / len(pods))
        if threshold >= max(self._weights):
            # Degenerate window (near-constant weights): no request
            # would classify as heavy, so tiering would idle the heavy
            # pods. Fall back to fleet-wide least-loaded.
            return least_loaded_pod(list(range(len(pods))), pods)
        # The heavy tier sits at the top of the pod list; under
        # autoscaling that is the newest pods, which also drain first.
        split = len(pods) - n_heavy
        if weight > threshold:
            return least_loaded_pod(list(range(split, len(pods))), pods)
        return least_loaded_pod(list(range(split)), pods)

    def reset(self) -> None:
        self._weights = []
        self._seen = 0


#: Router registry for CLIs and benchmarks.
ROUTERS: dict[str, type[Router]] = {
    RoundRobinRouter.name: RoundRobinRouter,
    LeastLoadedRouter.name: LeastLoadedRouter,
    JoinShortestQueueRouter.name: JoinShortestQueueRouter,
    WeightAwareRouter.name: WeightAwareRouter,
}


@dataclass(frozen=True)
class ScaleEvent:
    """One autoscaler decision that (tried to) change the pod count.

    ``requested`` is the provisioned count the policy asked for; it only
    differs from ``to_pods`` when a finite cluster inventory could not
    fill the ask, in which case ``constraint`` records the outcome:
    ``"clipped"`` (partially filled) or ``"denied"`` (nothing granted).
    Standalone fleets always have ``requested is None`` and an empty
    ``constraint``.
    """

    time_s: float
    from_pods: int
    to_pods: int
    reason: str
    requested: int | None = None
    constraint: str = ""

    @property
    def direction(self) -> str:
        target = self.to_pods if self.requested is None else self.requested
        return "up" if target > self.from_pods else "down"

    @property
    def denied(self) -> bool:
        return self.constraint == "denied"

    @property
    def clipped(self) -> bool:
        return self.constraint == "clipped"


@dataclass
class PodStats:
    """Per-pod outcome of a fleet run."""

    pod: int
    arrivals_routed: int
    requests_completed: int
    tokens_generated: int
    throughput_tokens_per_s: float
    queue_depth_end: int
    active_requests_end: int
    time_s: float
    ttft: LatencyStats
    itl: LatencyStats
    state: str = "serving"
    zone: str = "zone-0"


@dataclass
class FleetResult:
    """Aggregate + per-pod outcome of one fleet simulation.

    ``arrivals`` counts every request *offered* to the front end;
    ``admitted`` the ones that reached a pod, ``shed`` the ones rejected
    by admission control (``arrivals == admitted + shed``, checked by
    :meth:`verify_conservation`). ``requests_completed`` counts
    completions of requests submitted inside the measured window (as the
    load-test harness reports), while ``completed_total`` counts every
    completion of the whole run — that is what conservation is stated
    over, together with the work still in flight at the end and the
    requests a crash destroyed (``lost``). ``requeued`` counts crash
    survivors re-offered to the front end; they are already part of the
    arrival/admission tallies, so they inform no invariant, only scale.

    Implements the :class:`~repro.simulation.results.SimResult`
    protocol (``kind``/``to_dict``/``summary``/``verify``).
    """

    kind: ClassVar[str] = "fleet"

    n_pods: int
    traffic: str
    router: str
    duration_s: float
    warmup_s: float
    time_s: float
    arrivals: int
    requests_completed: int
    tokens_generated: int
    throughput_tokens_per_s: float
    ttft: LatencyStats
    itl: LatencyStats
    e2e: LatencyStats
    admitted: int = 0
    shed: int = 0
    deferrals: int = 0
    completed_total: int = 0
    in_flight_end: int = 0
    pod_seconds: float = 0.0
    sim_events: int = 0
    wall_time_s: float = 0.0
    scale_events: list[ScaleEvent] = field(default_factory=list, repr=False)
    per_pod: list[PodStats] = field(default_factory=list, repr=False)
    metrics: MetricsCollector | None = field(default=None, repr=False)
    lost: int = 0
    requeued: int = 0
    fault_events: list[FaultEvent] = field(default_factory=list, repr=False)
    cloud_pod_seconds: float = 0.0

    @property
    def pod_hours(self) -> float:
        return self.pod_seconds / 3600.0

    @property
    def on_prem_pod_seconds(self) -> float:
        """Pod-seconds billed on owned hardware (total minus cloud-burst)."""
        return max(0.0, self.pod_seconds - self.cloud_pod_seconds)

    def bill(
        self,
        profile: GPUProfile,
        pricing: PricingTable,
        cloud: CloudCatalog | None = None,
        mode: str = "on-demand",
    ) -> dict:
        """The run's pod-second bill on ``profile``, per capacity tier.

        Owned pod-seconds are priced at the profile's c(G) from the
        ``pricing`` table, rented ones at the ``cloud`` catalog's pod-hour
        price under ``mode``. Returns ``{"on_prem": line, "cloud": line or
        None, "total": dollars}``; a line holds ``pod_seconds``,
        ``hourly_per_pod`` and ``cost`` (the cloud line its ``mode`` too).
        A run that rented nothing has no cloud line and a total equal to
        its on-prem cost. Rented pod-seconds without a catalog to price
        them are an error, not an on-prem-priced bill.
        """
        hourly = pricing.pod_cost(profile)
        cost = self.on_prem_pod_seconds / 3600.0 * hourly
        on_prem = {
            "pod_seconds": self.on_prem_pod_seconds,
            "hourly_per_pod": hourly,
            "cost": cost,
        }
        bill = {"on_prem": on_prem, "cloud": None, "total": cost}
        if self.cloud_pod_seconds > 0:
            if cloud is None:
                raise ValueError(
                    f"run billed {self.cloud_pod_seconds:.0f} cloud "
                    "pod-seconds but no cloud catalog was given to price them"
                )
            hourly = cloud.pod_cost(profile, mode)
            cloud_cost = self.cloud_pod_seconds / 3600.0 * hourly
            bill["cloud"] = {
                "pod_seconds": self.cloud_pod_seconds,
                "mode": mode,
                "hourly_per_pod": hourly,
                "cost": cloud_cost,
            }
            bill["total"] = cost + cloud_cost
        return bill

    @property
    def events_per_second(self) -> float:
        """Simulator throughput: engine steps per wall-clock second.

        ``sim_events`` counts the engine steps simulated, each step of a
        decode leap included, so it does not depend on how many event
        loop iterations the run took; ``wall_time_s`` is real time from
        ``begin()`` to result assembly. The uniform throughput figure
        every benchmark reports. 0.0 when timing was not captured.
        """
        if self.wall_time_s <= 0.0:
            return 0.0
        return self.sim_events / self.wall_time_s

    def verify_conservation(self) -> None:
        """Raise if any offered request was lost or double-counted.

        Every offered arrival is either admitted or shed, and every
        admitted request is either completed or still in flight (queued
        or decoding) when the run ends. Shed and drained requests can
        therefore never inflate throughput: tokens only come from
        admitted work, counted once per owning pod.
        """
        if self.admitted + self.shed != self.arrivals:
            raise ValueError(
                f"admission leak: admitted {self.admitted} + shed {self.shed} "
                f"!= arrivals {self.arrivals}"
            )
        if self.completed_total + self.in_flight_end + self.lost != self.admitted:
            raise ValueError(
                f"request leak: completed {self.completed_total} + in-flight "
                f"{self.in_flight_end} + lost {self.lost} "
                f"!= admitted {self.admitted}"
            )

    def verify(self) -> None:
        """Uniform SimResult name for :meth:`verify_conservation`."""
        self.verify_conservation()

    def ttft_p95_series(self, window_s: float = 10.0) -> tuple[np.ndarray, np.ndarray]:
        """(window_start_s, p95 TTFT) arrays; needs ``keep_samples=True``."""
        if self.metrics is None:
            raise ValueError(
                "windowed recovery metrics need a run with keep_samples=True"
            )
        return self.metrics.ttft_p95_series(window_s)

    def recovery_time_s(
        self, slo_p95_ttft_s: float, window_s: float = 10.0
    ) -> float | None:
        """Worst-case post-fault SLO recovery time, in seconds.

        For every disruptive fault event, the time from the fault to the
        end of the first sampled window starting at or after it whose
        windowed p95 TTFT is back within ``slo_p95_ttft_s``. Returns the
        worst across faults, ``inf`` when some fault's tail never
        re-entered the SLO in the observed windows, and None for a
        fault-free run. Needs ``keep_samples=True``.
        """
        disruptive = [e for e in self.fault_events if e.disruptive]
        if not disruptive:
            return None
        if self.metrics is None:
            raise ValueError(
                "recovery_time_s needs per-request samples but this run "
                "dropped them; re-run with keep_samples=True"
            )
        starts, tails = self.ttft_p95_series(window_s)
        worst = 0.0
        for event in disruptive:
            recovered = float("inf")
            for start, tail in zip(starts, tails):
                if start < event.time_s:
                    continue
                if tail <= slo_p95_ttft_s:
                    recovered = start + window_s - event.time_s
                    break
            worst = max(worst, recovered)
        return worst

    def degraded_slo_attainment(
        self, slo_p95_ttft_s: float, window_s: float = 10.0
    ) -> float | None:
        """Fraction of post-first-fault windows whose p95 TTFT met the SLO.

        None for a fault-free run or when no window overlaps the
        degraded span. Needs ``keep_samples=True``.
        """
        disruptive = [e for e in self.fault_events if e.disruptive]
        if not disruptive:
            return None
        if self.metrics is None:
            raise ValueError(
                "degraded_slo_attainment needs per-request samples but this "
                "run dropped them; re-run with keep_samples=True"
            )
        first_fault = min(e.time_s for e in disruptive)
        starts, tails = self.ttft_p95_series(window_s)
        overlapping = starts + window_s > first_fault
        if not overlapping.any():
            return None
        return float(np.mean(tails[overlapping] <= slo_p95_ttft_s))

    def to_dict(
        self, slo_p95_ttft_s: float | None = None, window_s: float = 10.0
    ) -> dict:
        """The uniform JSON payload (see docs/cli.md for the schema).

        The ``recovery`` block is populated when an SLO is given, the
        run kept its samples, and at least one fault event fired;
        otherwise it is None.
        """
        series = None
        if self.metrics is not None:
            ttft_t, ttft_p95 = self.metrics.ttft_p95_series(window_s)
            tput_t, tput = self.metrics.throughput_timeseries()
            series = {
                "window_s": float(window_s),
                "ttft_p95": {
                    "t": [float(v) for v in ttft_t],
                    "p95_s": [float(v) for v in ttft_p95],
                },
                "throughput": {
                    "t": [float(v) for v in tput_t],
                    "tokens_per_s": [float(v) for v in tput],
                },
            }
        recovery = None
        if (
            slo_p95_ttft_s is not None
            and self.metrics is not None
            and any(e.disruptive for e in self.fault_events)
        ):
            recovery = {
                "slo_p95_ttft_s": float(slo_p95_ttft_s),
                "window_s": float(window_s),
                "recovery_time_s": json_float(
                    self.recovery_time_s(slo_p95_ttft_s, window_s)
                ),
                "degraded_slo_attainment": json_float(
                    self.degraded_slo_attainment(slo_p95_ttft_s, window_s)
                ),
            }
        return {
            "kind": self.kind,
            "n_pods": self.n_pods,
            "traffic": self.traffic,
            "router": self.router,
            "duration_s": self.duration_s,
            "warmup_s": self.warmup_s,
            "time_s": self.time_s,
            "arrivals": self.arrivals,
            "admitted": self.admitted,
            "shed": self.shed,
            "deferrals": self.deferrals,
            "requests_completed": self.requests_completed,
            "completed_total": self.completed_total,
            "in_flight_end": self.in_flight_end,
            "lost": self.lost,
            "requeued": self.requeued,
            "tokens_generated": self.tokens_generated,
            "throughput_tokens_per_s": json_float(self.throughput_tokens_per_s),
            "pod_seconds": self.pod_seconds,
            "cloud_pod_seconds": self.cloud_pod_seconds,
            "ttft": latency_dict(self.ttft),
            "itl": latency_dict(self.itl),
            "e2e": latency_dict(self.e2e),
            "scale_events": [scale_event_dict(e) for e in self.scale_events],
            "fault_events": [fault_event_dict(e) for e in self.fault_events],
            "recovery": recovery,
            "series": series,
            "per_pod": [
                {
                    "pod": p.pod,
                    "zone": p.zone,
                    "state": p.state,
                    "arrivals_routed": p.arrivals_routed,
                    "requests_completed": p.requests_completed,
                    "tokens_generated": p.tokens_generated,
                    "throughput_tokens_per_s": json_float(p.throughput_tokens_per_s),
                    "queue_depth_end": p.queue_depth_end,
                    "active_requests_end": p.active_requests_end,
                }
                for p in self.per_pod
            ],
        }

    def summary(self) -> str:
        """One-line human digest (uniform across SimResult kinds)."""
        line = (
            f"{self.n_pods} pods ({self.traffic}/{self.router}, "
            f"{self.duration_s:.0f}s): {self.arrivals} arrivals, "
            f"{self.requests_completed} completed, "
            f"{self.throughput_tokens_per_s:.1f} tok/s, "
            f"TTFT p95 {self.ttft.p95_s:.3f}s"
        )
        if self.fault_events:
            line += (
                f", {len(self.fault_events)} fault events "
                f"({self.requeued} requeued, {self.lost} lost)"
            )
        return line


class FleetSimulator:
    """Co-simulates N pods under one traffic model and router.

    With ``autoscaler`` set, ``pod_factory`` must be able to mint a fresh
    engine for any pod serial (stable seeds per serial keep runs
    reproducible); the initial ``pods`` occupy serials ``0..len-1``.
    """

    def __init__(
        self,
        pods: list[ContinuousBatchingEngine],
        traffic: TrafficModel,
        router: Router,
        source: RequestSource,
        autoscaler: "Autoscaler | None" = None,
        pod_factory: Callable[[int], "ContinuousBatchingEngine"] | None = None,
        faults: FaultInjector | None = None,
        zone_of: Callable[[int], str] | None = None,
    ) -> None:
        if not pods:
            raise ValueError("FleetSimulator needs at least one pod")
        if autoscaler is not None and pod_factory is None:
            raise ValueError("an autoscaled fleet needs a pod_factory")
        if faults is not None and faults.needs_factory and pod_factory is None:
            raise ValueError("faults with restart_delay_s need a pod_factory")
        self.pods = list(pods)
        self.traffic = traffic
        self.router = router
        self.source = source
        self.autoscaler = autoscaler
        self.pod_factory = pod_factory
        # Admission control is duck-typed off the router to keep the
        # Router protocol minimal (see autoscale.AdmissionController).
        self._admission = router if hasattr(router, "admit") else None
        self.arrivals = 0
        self.shed = 0
        self.deferrals = 0
        self.routed_counts = [0] * len(self.pods)
        self.initial_routed_counts = [0] * len(self.pods)
        self.scale_events: list[ScaleEvent] = []
        # Every engine ever provisioned, in serial order; self.pods is
        # the routable subset, _starting/_draining/_retired the rest.
        self._all_pods = list(self.pods)
        self._serials = {id(pod): i for i, pod in enumerate(self.pods)}
        self._routable = set(range(len(self.pods)))
        self._starting: list[tuple[float, int, "ContinuousBatchingEngine"]] = []
        self._draining: list["ContinuousBatchingEngine"] = []
        self._completions = 0
        self._seq = 0
        self._pending: list = []
        self._pod_seconds = 0.0
        self._billed_to = 0.0
        # Cloud-burst tier (simulation.cloud): serials whose capacity was
        # rented rather than owned. Billed separately so mixed bills can
        # price the tiers apart; empty for every non-bursting fleet, in
        # which case no cloud accounting runs at all.
        self.cloud_serials: set[int] = set()
        self._cloud_pod_seconds = 0.0
        self._window_arrivals: dict[int, int] = {}
        self._arrival_window_s = (
            autoscaler.config.metrics_window_s if autoscaler else 10.0
        )
        # Capacity hooks (see bind_capacity): a cluster inventory may
        # clip or deny scale-ups and reclaim GPUs on retirement. Unbound
        # (the standalone case) every ask is granted in full.
        self._acquire: Callable[[int, float], int] | None = None
        self._release: Callable[..., None] | None = None
        self._warmed_up = True
        self._warmup_s = 0.0
        self._t_end = float("inf")
        # Whether pods learn a horizon, so a step may leap through a run of
        # decode steps (see _reindex); decided when the in-service pods change.
        self._horizons = False
        # Sticky closed-loop traffic with no scheduled arrivals, faults or
        # admission control keeps the pods independent: a follow-up only
        # reaches the pod that drew it. Such a fleet with several pods
        # leaps under per-pod horizons (_sticky) and queues each
        # completion's draw in _draws until the loop top can make it in
        # the one-step loop's order. _routed holds the times of pending
        # arrivals the router will place, which every horizon keeps.
        self._independent = (
            traffic.sticky
            and type(traffic).peek is TrafficModel.peek
            and faults is None
            and self._admission is None
        )
        self._sticky = False
        self._draws: list = []
        self._draw_seq = 0
        self._routed: list[float] = []
        self._next_decision = float("inf")
        # Fault layer (simulation.faults): a seeded injector feeds the
        # run loop crash / slowdown / zone-outage events on the shared
        # clock; zone_of maps a pod serial to its zone label (restart
        # replacements inherit the crashed pod's zone via overrides).
        self.faults = faults
        self._zone_of = zone_of
        self._zone_overrides: dict[int, str] = {}
        self.fault_events: list[FaultEvent] = []
        self.lost = 0
        self.requeued = 0
        self._crashed: set[int] = set()
        self._slow_targets: dict[int, list[int]] = {}
        self._next_fault = float("inf")
        # O(log pods) frontier lookups through a lazily invalidated heap
        # (see simulation.frontier); simulation.reference swaps in the
        # O(pods) scan it is bit-identical to.
        self._frontier = EventFrontier()
        self._events = 0
        self._wall_start = _time.perf_counter()

    def bind_capacity(
        self,
        acquire: Callable[[int, float], int],
        release: Callable[..., None],
    ) -> None:
        """Subject this fleet's elasticity to a finite resource ledger.

        ``acquire(n, t)`` is consulted before provisioning ``n`` extra
        pods at virtual time ``t`` and returns how many were granted
        (0..n); ``release(n, t, serials)`` hands capacity back when pods
        retire or a cold start is cancelled, with the serials of the
        released pods so a ledger that tracks tiers (on-prem vs
        cloud-burst, see :mod:`repro.simulation.cloud`) can credit the
        right one. :func:`repro.simulation.cloud.bind_hybrid_capacity`
        installs the pair for cluster tenants contending for one
        :class:`ClusterInventory` and for hybrid sweep candidates.
        """
        self._acquire = acquire
        self._release = release

    @property
    def next_serial(self) -> int:
        """The serial the next provisioned pod will get.

        Pod serials are assigned sequentially in provisioning order, so
        a capacity ledger that grants a scale-up synchronously (inside
        ``acquire``) can pre-attribute the about-to-be-minted serials —
        the cloud tier marks the last ``burst`` of them as rented via
        :meth:`mark_cloud`.
        """
        return len(self._all_pods)

    def mark_cloud(self, serials: Iterable[int]) -> None:
        """Record these pod serials as cloud-burst (rented) capacity."""
        self.cloud_serials.update(int(s) for s in serials)

    @property
    def all_pods(self) -> list["ContinuousBatchingEngine"]:
        """Every engine ever provisioned, in pod-serial order."""
        return list(self._all_pods)

    @property
    def provisioned(self) -> int:
        """Pods currently billed: serving, cold-starting or draining."""
        return len(self.pods) + len(self._starting) + len(self._draining)

    def arrival_rate_series(
        self, before_s: float | None = None
    ) -> tuple[np.ndarray, np.ndarray]:
        """(window_start_s, arrivals_per_s) offered-traffic series.

        ``before_s`` drops the window containing it (and any later ones):
        at a decision boundary the current window is only partially
        observed and would bias a rate estimate low.
        """
        cut = int(before_s / self._arrival_window_s) if before_s is not None else None
        windows = [w for w in self._window_arrivals if cut is None or w < cut]
        if not windows:
            return np.empty(0), np.empty(0)
        lo, hi = min(windows), max(windows)
        span = np.arange(lo, hi + 1)
        counts = np.array([self._window_arrivals.get(int(w), 0) for w in span])
        return span * self._arrival_window_s, counts / self._arrival_window_s

    # ---- event loop -------------------------------------------------------

    def run(
        self,
        duration_s: float,
        warmup_s: float = 0.0,
        keep_samples: bool = True,
        assemble_result: bool = True,
    ) -> FleetResult | None:
        """Simulate a ``warmup_s + duration_s`` window of virtual time.

        Metric collection restarts at the warmup boundary (exactly as the
        single-pod harness does); scheduled arrivals stop at the end of
        the window, and the run ends once every pod's clock has reached
        it (or all work and arrivals are exhausted). With
        ``keep_samples=False`` the returned result carries only the
        aggregate statistics, not the merged per-request sample
        collector — retain-many sweeps should use that to avoid pinning
        O(requests) memory per result. ``assemble_result=False`` skips
        result assembly entirely (an O(samples) merge plus percentile
        sorts) and returns None — for callers that read the pod
        engines/collectors directly, like the single-pod load-test
        wrappers.
        """
        self.begin(duration_s, warmup_s)
        # Injection and the frontier peek go straight to the private
        # pieces: the loop calls them once per simulated event.
        run_event_loop(
            warmup_s + duration_s,
            self._inject_due,
            self._frontier.peek,
            self.next_control,
            self.control_tick,
            self.step_pod,
        )
        self.drain_pending()
        if not assemble_result:
            return None
        return self._result(duration_s, warmup_s, keep_samples)

    # ---- co-simulation interface ------------------------------------------
    #
    # ``run`` above hands these pieces to the shared event loop for one
    # tenant; the cluster co-simulation (repro.simulation.cluster) drives
    # N fleets through the same methods on one shared clock, globally
    # ordering autoscale decisions so tenants contend for inventory in
    # virtual-time order.

    def begin(self, duration_s: float, warmup_s: float = 0.0) -> None:
        """Validate, reset routing/scaling state, submit the t=0 population."""
        if duration_s <= 0:
            raise ValueError(f"duration_s must be positive, got {duration_s}")
        if warmup_s < 0:
            raise ValueError(f"warmup_s must be >= 0, got {warmup_s}")
        for pod in self.pods:
            if pod.time > 0 or pod.has_work():
                raise ValueError("FleetSimulator requires fresh engines")
        self.router.reset()
        self._events = 0
        self._wall_start = _time.perf_counter()
        self._reindex()
        if self.autoscaler is not None:
            self.autoscaler.reset()
        self._next_decision = (
            self.autoscaler.config.decision_interval_s
            if self.autoscaler is not None
            else float("inf")
        )
        self.fault_events = []
        self.lost = 0
        self.requeued = 0
        self._crashed = set()
        self._zone_overrides = {}
        self._slow_targets = {}
        if self.faults is not None:
            self.faults.begin()
            self._next_fault = self.faults.next_time
        else:
            self._next_fault = float("inf")
        self._place_initial(self.traffic.initial_arrivals(self.source))
        # Where the router placed the initial population (for closed-loop
        # traffic this is the per-pod user assignment, since follow-ups
        # are sticky by default).
        self.initial_routed_counts = list(self.routed_counts)
        self._warmup_s = warmup_s
        self._warmed_up = warmup_s == 0.0
        self._t_end = warmup_s + duration_s

    def inject_due(self, cutoff: float) -> None:
        """Materialize every arrival due at this fleet's busy frontier."""
        self._inject_due(cutoff)

    def frontier_pod(self) -> "ContinuousBatchingEngine | None":
        """The busy pod with the smallest clock — the next one to step.

        None when the fleet is idle. Autoscale decisions never change
        which pod is busiest (activated pods start idle, draining pods
        stay in service), so the frontier found before processing due
        decisions is still the pod to hand to :meth:`step_pod` after.

        Answered from the :class:`EventFrontier` heap in O(log pods)
        amortized. The heap's tie-break replicates a scan's
        first-minimum-in-service-order semantics, so the reference
        fleet's O(pods) scan returns the *same* pod on equal clocks.
        """
        return self._frontier.peek()

    @property
    def next_decision(self) -> float:
        """Virtual time of the next autoscale decision (inf when none)."""
        return self._next_decision

    def autoscale_tick(self) -> None:
        """Run the decision due at ``next_decision`` and schedule the next."""
        self._autoscale_tick(self._next_decision)
        self._next_decision += self.autoscaler.config.decision_interval_s

    @property
    def next_fault(self) -> float:
        """Virtual time of the next fault event (inf when none)."""
        return self._next_fault

    def fault_tick(self) -> None:
        """Apply the fault due at ``next_fault`` and schedule the next.

        Part of the co-simulation interface: the cluster loop orders
        fault ticks and autoscale decisions across all tenants in global
        virtual-time order, exactly as :meth:`run` does for one fleet.
        """
        t, action, index, spec = self.faults.pop()
        if action == "slow-start":
            self._fault_slow_start(spec, t, index)
        elif action == "slow-end":
            self._fault_slow_end(spec, t, index)
        else:
            self._fault_crash(spec, t, action)
        self._next_fault = self.faults.next_time

    def next_control(self) -> float:
        """Virtual time of the next control event, fault or decision."""
        t_fault, t_decision = self._next_fault, self._next_decision
        return t_fault if t_fault <= t_decision else t_decision

    def control_tick(self) -> bool:
        """Run the control event due at :meth:`next_control`.

        Returns True when it was a fault. Faults and autoscale decisions
        share the clock: the earlier fires first, and a fault wins a
        same-instant tie so the decision observes the degraded fleet.
        With no injector ``next_fault`` is inf and only decisions fire.
        """
        if self._next_fault <= self._next_decision:
            self.fault_tick()
            return True
        self.autoscale_tick()
        return False

    def pod_zone(self, serial: int) -> str:
        """Zone label of pod ``serial`` (restart replacements inherit)."""
        zone = self._zone_overrides.get(serial)
        if zone is not None:
            return zone
        return self._zone_of(serial) if self._zone_of is not None else "zone-0"

    def step_pod(
        self, stepping: "ContinuousBatchingEngine", next_control: float
    ) -> None:
        """Step the frontier pod once; handle its completions.

        ``next_control`` is the time of the next control event on the
        clock the fleet runs on: its own, or in a cluster the earliest of
        every tenant's. Where the fleet allows it, the pod first learns
        its horizon (see :meth:`_horizon`), so the step may be a leap
        through a whole run of decode steps; the fleet counts every step
        simulated. The follow-ups of the requests it finished are drawn
        now, or queued where pods leap ahead of one another (see
        :meth:`_completed`).
        """
        if not self._warmed_up and stepping.time >= self._warmup_s:
            # Reset every engine ever provisioned, not just the ones
            # still in service: a pod retired before the warmup
            # boundary must not leak its warmup samples into the
            # merged result either.
            for pod in self._all_pods:
                pod.reset_metrics()
            self._warmed_up = True
        if self._horizons:
            stepping.horizon = self._horizon(stepping, next_control)
            steps = stepping.stats.steps
            finished = stepping.step()
            self._events += stepping.stats.steps - steps
        else:
            finished = stepping.step()
            self._events += 1
        if finished:
            self._completions += len(finished)
            self._completed(stepping, finished)
        if self._draining:
            self._retire_drained(stepping.time)
        # The step moved the pod's clock: its old heap entry is now
        # stale, so record the new frontier position (if still busy).
        self._frontier.push(stepping)

    def drain_pending(self) -> None:
        """Flush boundary-crossing resubmissions after the loop exits.

        Follow-ups drawn by completions right at the window edge can
        still be pending (their arrival lies beyond a lagging pod's
        clock when the loop exits). Dispatch them so every request
        drawn from the source is accounted as an arrival, exactly as
        the single-pod driver submits boundary-crossing resubmissions.
        They bypass admission control: shedding at the boundary would
        break arrival accounting parity with the single-pod driver.
        Draws still queued are made first, in their order.
        """
        while self._draws:
            self._follow_up(*heapq.heappop(self._draws)[3:])
        while self._pending:
            t, _, hint, request, counted = heapq.heappop(self._pending)
            self._dispatch(request, t, pod_hint=hint, force=True, counted=counted)

    def collect(
        self, duration_s: float, warmup_s: float = 0.0, keep_samples: bool = True
    ) -> FleetResult:
        """Assemble the :class:`FleetResult` after an externally driven run."""
        return self._result(duration_s, warmup_s, keep_samples)

    def _in_service(self) -> list["ContinuousBatchingEngine"]:
        """Pods that may still be doing work: routable + draining."""
        return self.pods + self._draining if self._draining else self.pods

    def _reindex(self) -> None:
        """Re-index the in-service pods after their membership changed.

        Also decides whether and how they may leap. A leap is safe while
        nothing outside a pod can reach its batch before
        :meth:`_horizon`, which fails in two cases. A draining fleet
        retires an idle draining pod at the end of whichever step any of
        its pods takes next, so a leap would move the retirement and its
        bill. And with several routable pods, a completion-driven
        follow-up may be routed to another pod, at a time only the
        completing pod's steps reveal. Sticky follow-ups are not routed:
        in an independent fleet (see ``__init__``) each pod leaps under
        its own horizon, which leaves out the follow-ups bound to other
        pods, and the completions' draws wait in order (see
        :meth:`_completed`). Pods of a fleet that stops leaping lose
        their last horizon, so every step() call is again one iteration.
        """
        in_service = self._in_service()
        self._frontier.rebuild(in_service)
        open_loop = type(self.traffic).on_complete is TrafficModel.on_complete
        several = len(self.pods) > 1 and not open_loop
        sticky = several and self._independent and not self._draining
        horizons = not self._draining and (sticky or not several)
        if sticky:
            routable = self._routable
            self._routed = sorted(
                t for t, _, hint, _, _ in self._pending if hint not in routable
            )
        if self._horizons and not horizons:
            for pod in in_service:
                pod.horizon = float("-inf")
        self._horizons = horizons
        self._sticky = sticky

    def _horizon(
        self, pod: "ContinuousBatchingEngine", next_control: float
    ) -> float:
        """The earliest time an event outside the fleet can reach ``pod``.

        The earliest of the next scheduled arrival, the pending heap's
        head (follow-ups, deferred retries and crash requeues), the next
        control event on the shared clock, the end of the window and,
        until it has passed, the warmup boundary. Every decode step that
        starts before it would run before any of those in a
        one-step-per-event loop.

        An independent fleet with several pods bounds each pod by the
        pending arrivals the router will place instead of the whole
        heap: those with no pod hint or a hint to a drained or retired
        pod. Its follow-ups bound to another routable pod never reach
        this one, and none is bound to the stepping pod itself: the loop
        top made its draws and injected their follow-ups, which are due
        by then at its clock.

        Another tenant's control event counts too. The loop steps its
        frontier pod right after a control tick, before the ticked
        tenant injects what the tick requeued; which pod that is depends
        on every tenant's clock, so no pod may run past the tick.
        """
        horizon = min(self._t_end, next_control)
        t = self.traffic.peek()
        if t is not None and t < horizon:
            horizon = t
        if self._sticky:
            # Routed arrivals at or before the frontier pod's clock were
            # injected at the loop top.
            routed = self._routed
            while routed and routed[0] <= pod._time:
                del routed[0]
            if routed and routed[0] < horizon:
                horizon = routed[0]
        elif self._pending and self._pending[0][0] < horizon:
            horizon = self._pending[0][0]
        if not self._warmed_up and self._warmup_s < horizon:
            horizon = self._warmup_s
        return horizon

    def _completed(
        self, stepping: "ContinuousBatchingEngine", finished: list
    ) -> None:
        """Draw the follow-ups of the requests one step finished.

        The one-step loop draws them from the shared source as the step
        runs, so draws come in the order of the completing steps' start
        times, then of the pods' service order (the frontier's
        tie-break), then of completion within the step. In a leaping
        independent fleet a pod may run ahead of pods whose steps start
        earlier and may complete too, so the draws wait in ``_draws``
        under that key; :meth:`_inject_due` makes each once no pod can
        still take a step that comes before it.
        """
        hint = self._serials[id(stepping)] if self.traffic.sticky else None
        if not self._sticky:
            self._follow_up(hint, finished)
            return
        self._draw_seq += 1
        heapq.heappush(
            self._draws,
            (
                stepping.step_start,
                self._frontier.order(stepping),
                self._draw_seq,
                hint,
                finished,
            ),
        )

    def _follow_up(self, hint: int | None, finished: list) -> None:
        """Draw each finished request's follow-up and make it pending at
        the request's finish time, bound to pod serial ``hint``."""
        for result in finished:
            t = result.finished_at
            follow_up = self.traffic.on_complete(result, t, self.source)
            if follow_up is not None:
                self._seq += 1
                heapq.heappush(self._pending, (t, self._seq, hint, follow_up, False))

    def _inject_due(self, cutoff: float) -> None:
        """Submit every arrival that is due at the current fleet frontier.

        An arrival at time t is due once no busy pod's clock is behind t
        (the pod chosen by the router is then guaranteed not to observe
        it in its past). When the whole fleet is idle the next arrival is
        due immediately — virtual time fast-forwards to it. Scheduled
        arrivals beyond ``cutoff`` are never materialized;
        completion-driven resubmissions and deferred retries (already
        materialized) always drain.

        Queued draws (see :meth:`_completed`) are made here too, in
        their order. A draw waits while the frontier pod's step comes
        before the completing one in the one-step loop: by start time,
        then service order. And an arrival due at or before a draw's
        step start goes first, because it may wake an idle pod whose
        step then comes before the draw.
        """
        draws = self._draws
        while True:
            t_sched = self.traffic.peek()
            if t_sched is not None and t_sched >= cutoff:
                t_sched = None
            t_pend = self._pending[0][0] if self._pending else None
            if t_pend is None and t_sched is None and not draws:
                return
            use_pending = t_pend is not None and (t_sched is None or t_pend <= t_sched)
            t = t_pend if use_pending else t_sched
            frontier = self._frontier.peek()
            if draws and (t is None or t > draws[0][0]):
                # The frontier's service order matters only on a tie of
                # clocks, so it is looked up only then.
                start, order = draws[0][0], draws[0][1]
                if frontier is not None and (
                    frontier._time < start
                    or (
                        frontier._time == start
                        and self._frontier.order(frontier) < order
                    )
                ):
                    return
                self._follow_up(*heapq.heappop(draws)[3:])
                continue
            if frontier is not None and t > frontier._time:
                return
            if use_pending:
                t, _, hint, request, counted = heapq.heappop(self._pending)
            else:
                t, request = self.traffic.pop(self.source)
                hint, counted = None, False
            self._dispatch(request, t, pod_hint=hint, counted=counted)

    def _dispatch(
        self,
        request: "InferenceRequest",
        arrival_time: float,
        pod_hint: int | None = None,
        force: bool = False,
        counted: bool = False,
    ) -> None:
        """Offer one arrival to the front end.

        ``pod_hint`` is a pod *serial* (sticky session affinity); a hint
        pointing at a draining or retired pod falls back to the router.
        ``counted`` marks deferred retries whose first offer was already
        tallied; ``force`` bypasses admission control (end-of-run drain).
        """
        if self._starting:
            self._activate_ready(arrival_time)
        if not counted:
            self.arrivals += 1
            window = int(arrival_time / self._arrival_window_s)
            self._window_arrivals[window] = self._window_arrivals.get(window, 0) + 1
        pod = None
        if pod_hint is not None and pod_hint in self._routable:
            pod = self._all_pods[pod_hint]
        if pod is None:
            if not self.pods:
                # Every routable pod is down (zone outage). Park the
                # arrival until the first replacement activates; with no
                # restart or scale-up pending it can never be served.
                if not self._starting:
                    raise ValueError(
                        "no routable pods and no restart pending: a fault "
                        "killed the whole fleet"
                    )
                ready = self._starting[0][0]
                self._seq += 1
                heapq.heappush(
                    self._pending,
                    (max(arrival_time, ready), self._seq, None, request, True),
                )
                return
            if pod_hint is None and not force and self._admission is not None:
                decision = self._admission.admit(request, arrival_time, self.pods)
                if decision == "shed":
                    self.shed += 1
                    return
                if decision == "defer":
                    self.deferrals += 1
                    self._seq += 1
                    heapq.heappush(
                        self._pending,
                        (
                            arrival_time + self._admission.retry_delay_s,
                            self._seq,
                            None,
                            request,
                            True,
                        ),
                    )
                    return
            i = self.router.route(request, arrival_time, self.pods)
            pod = self.pods[i]
        self._submit(pod, request, arrival_time)

    def _submit(
        self,
        pod: "ContinuousBatchingEngine",
        request: "InferenceRequest",
        arrival_time: float,
    ) -> None:
        """Hand a routed arrival to ``pod``."""
        was_busy = pod.has_work()
        if pod.time < arrival_time:
            pod.advance_to(arrival_time)
        pod.submit(request, arrival_time=arrival_time)
        if not was_busy:
            # The submit turned an idle pod busy (possibly moving its
            # clock first): it joins the event frontier now. Pods that
            # were already busy keep their valid heap entry — a busy
            # pod's clock never moves on submit.
            self._frontier.push(pod)
        self.routed_counts[self._serials[id(pod)]] += 1

    def _place_initial(self, requests: list["InferenceRequest"]) -> None:
        """Offer the t=0 population to the front end.

        A :class:`LeastLoadedRouter` picks the pod with the smallest
        ``(committed_load, index)``, and a placement moves only the
        chosen pod's load. So a heap of those keys places each request
        in O(log pods), where the router scans every pod. Any other
        router places one arrival at a time.
        """
        if type(self.router) is not LeastLoadedRouter:
            for request in requests:
                self._dispatch(request, 0.0)
            return
        self.arrivals += len(requests)
        self._window_arrivals[0] = self._window_arrivals.get(0, 0) + len(requests)
        pods = self.pods
        heap = [(committed_load(pod), i) for i, pod in enumerate(pods)]
        heapq.heapify(heap)
        for request in requests:
            i = heap[0][1]
            pod = pods[i]
            self._submit(pod, request, 0.0)
            heapq.heapreplace(heap, (committed_load(pod), i))

    # ---- fault handling ---------------------------------------------------

    def _fault_serials(self, spec: FaultSpec) -> list[int]:
        """In-service pod serials the fault spec resolves to, sorted.

        Explicit ``pod`` targets apply only while that pod is in service
        (a crashed or retired pod cannot crash again); ``zone`` targets
        hit every in-service pod in the zone; untargeted specs draw one
        seeded-random victim from the injector's stream. A
        ``spot-preempt`` spec resolves only among cloud-burst pods —
        the provider reclaims rented capacity, never owned hardware —
        including rented pods already draining (a spot reclaim does not
        wait for a graceful scale-down to finish).
        """
        serials = sorted(
            self._routable | {self._serials[id(pod)] for pod in self._draining}
        )
        if spec.kind == "spot-preempt":
            serials = [s for s in serials if s in self.cloud_serials]
        if spec.pod is not None:
            return [spec.pod] if spec.pod in serials else []
        if spec.zone is not None:
            return [s for s in serials if self.pod_zone(s) == spec.zone]
        if not serials:
            return []
        return [self.faults.pick_victim(serials)]

    def _fault_crash(self, spec: FaultSpec, t: float, kind: str) -> None:
        """Kill every pod the spec resolves to at virtual time ``t``.

        In-flight work is requeued (a client retry: it re-enters the
        front end at the crash instant, passes admission again, and its
        latency clock restarts) or counted lost, per ``spec.mode``. With
        ``restart_delay_s`` a replacement engine cold-starts in the
        crashed pod's zone on the same held capacity — the hardware
        reboots in place, so no inventory transaction occurs; without a
        restart the capacity is released back to the ledger. Draining
        pods can crash too (their residual work is destroyed the same
        way) but are never restarted — the autoscaler had already
        retired them.
        """
        self._bill(t)
        restart = spec.restart_delay_s
        # A zone outage also hits pods still cold-starting in the zone:
        # a permanent outage cancels them (capacity released), one with
        # a restart window just pushes their ready time out.
        if spec.zone is not None and self._starting:
            keep: list[tuple[float, int, "ContinuousBatchingEngine"]] = []
            cancelled: list[int] = []
            for ready, serial, pod in self._starting:
                if self.pod_zone(serial) != spec.zone:
                    keep.append((ready, serial, pod))
                elif restart is None:
                    cancelled.append(serial)
                else:
                    keep.append((max(ready, t + restart), serial, pod))
            if len(keep) != len(self._starting) or restart is not None:
                self._starting = sorted(keep, key=lambda e: (e[0], e[1]))
            if cancelled and self._release is not None:
                self._release(len(cancelled), t, cancelled)
        crashed = 0
        for serial in self._fault_serials(spec):
            pod = self._all_pods[serial]
            if serial in self._routable:
                role = "serving"
                self.pods.remove(pod)
                self._routable.discard(serial)
            elif pod in self._draining:
                role = "draining"
                self._draining.remove(pod)
            else:  # pragma: no cover - _fault_serials only yields in-service
                continue
            crashed += 1
            self._crashed.add(serial)
            queued, active = pod.evacuate()
            requeued = lost = 0
            if spec.mode == "lose":
                lost = len(queued) + len(active)
                self.lost += lost
            else:
                for request in queued + active:
                    self._seq += 1
                    heapq.heappush(self._pending, (t, self._seq, None, request, True))
                requeued = len(queued) + len(active)
                self.requeued += requeued
            restart_s = None
            if restart is not None and role == "serving":
                restart_s = t + restart
                new_serial = len(self._all_pods)
                replacement = self.pod_factory(new_serial)
                if replacement.time > 0 or replacement.has_work():
                    raise ValueError("pod_factory must return fresh engines")
                self._all_pods.append(replacement)
                self._serials[id(replacement)] = new_serial
                self.routed_counts.append(0)
                self._zone_overrides[new_serial] = self.pod_zone(serial)
                self._starting.append((restart_s, new_serial, replacement))
                if serial in self.cloud_serials:
                    # An in-place restart keeps the held capacity, so the
                    # replacement occupies the same rented instance.
                    self.cloud_serials.add(new_serial)
            elif self._release is not None:
                self._release(1, t, [serial], kind)
            self.fault_events.append(
                FaultEvent(
                    time_s=t,
                    kind=kind,
                    pod=serial,
                    zone=self.pod_zone(serial),
                    requeued=requeued,
                    lost=lost,
                    restart_s=restart_s,
                )
            )
        if crashed:
            if restart is not None:
                self._starting.sort(key=lambda e: (e[0], e[1]))
            self._reindex()
        else:
            # Nothing in service matched (empty zone, pod already gone):
            # record the scheduled event so fault schedules stay visible.
            self.fault_events.append(
                FaultEvent(time_s=t, kind=kind, pod=spec.pod, zone=spec.zone)
            )

    def _fault_slow_start(self, spec: FaultSpec, t: float, index: int) -> None:
        """Open a slowdown window: multiply the victims' step costs."""
        targets = self._fault_serials(spec)
        self._slow_targets[index] = targets
        for serial in targets:
            self._all_pods[serial].slow_factor = spec.factor
            self.fault_events.append(
                FaultEvent(
                    time_s=t,
                    kind="slowdown-start",
                    pod=serial,
                    zone=self.pod_zone(serial),
                    factor=spec.factor,
                )
            )

    def _fault_slow_end(self, spec: FaultSpec, t: float, index: int) -> None:
        """Close a slowdown window opened by the matching slow-start."""
        for serial in self._slow_targets.pop(index, []):
            self._all_pods[serial].slow_factor = 1.0
            self.fault_events.append(
                FaultEvent(
                    time_s=t,
                    kind="slowdown-end",
                    pod=serial,
                    zone=self.pod_zone(serial),
                    factor=1.0,
                )
            )

    # ---- elasticity -------------------------------------------------------

    def _bill(self, now: float) -> None:
        """Accrue pod-seconds for the provisioned fleet up to ``now``.

        Cloud-burst pods accrue a second, separate meter so mixed bills
        can price the rented tier apart from owned hardware; a fleet
        that never burst skips that accounting entirely.
        """
        if now > self._billed_to:
            dt = now - self._billed_to
            self._pod_seconds += dt * self.provisioned
            if self.cloud_serials:
                self._cloud_pod_seconds += dt * self._provisioned_cloud()
            self._billed_to = now

    def _provisioned_cloud(self) -> int:
        """Cloud-burst pods currently billed (serving, starting, draining)."""
        cloud = self.cloud_serials
        count = sum(1 for serial in self._routable if serial in cloud)
        count += sum(1 for _, serial, _ in self._starting if serial in cloud)
        count += sum(
            1 for pod in self._draining if self._serials[id(pod)] in cloud
        )
        return count

    def _activate_ready(self, now: float) -> None:
        """Move cold-started pods whose ready time has passed into service."""
        activated = False
        while self._starting and self._starting[0][0] <= now:
            ready, serial, pod = self._starting.pop(0)
            pod.advance_to(ready)
            self.pods.append(pod)
            self._routable.add(serial)
            activated = True
        if activated:
            # Appending to self.pods shifts every draining pod's
            # position in the in-service order — the heap's tie-break —
            # so the index must be rebuilt.
            self._reindex()

    def _retire_drained(self, now: float) -> None:
        """Retire draining pods that have finished their residual work."""
        still = []
        retired: list[int] = []
        for pod in self._draining:
            if pod.has_work():
                still.append(pod)
            else:
                # The pod actually went idle at its own clock, which can
                # precede the frontier we detect it at: bill to the
                # frontier, then refund the idle tail.
                serial = self._serials[id(pod)]
                self._bill(now)
                self._pod_seconds -= max(0.0, now - pod.time)
                if serial in self.cloud_serials:
                    self._cloud_pod_seconds -= max(0.0, now - pod.time)
                retired.append(serial)
        self._draining = still
        if retired:
            self._reindex()
        if retired and self._release is not None:
            self._release(len(retired), now, retired)

    def _autoscale_tick(self, t: float) -> None:
        """One decision boundary: observe, decide, resize."""
        self._activate_ready(t)
        self._retire_drained(t)
        view = self._view(t)
        desired = self.autoscaler.desired_pods(view)
        current = len(self.pods) + len(self._starting)
        if desired == current:
            return
        self._bill(t)
        requested: int | None = None
        constraint = ""
        to_pods = desired
        if desired > current:
            want = desired - current
            granted = want
            if self._acquire is not None:
                granted = self._acquire(want, t)
                if granted < want:
                    requested = desired
                    constraint = "denied" if granted == 0 else "clipped"
                    to_pods = current + granted
            cold = self.autoscaler.config.cold_start_s
            for _ in range(granted):
                serial = len(self._all_pods)
                pod = self.pod_factory(serial)
                if pod.time > 0 or pod.has_work():
                    raise ValueError("pod_factory must return fresh engines")
                self._all_pods.append(pod)
                self._serials[id(pod)] = serial
                self.routed_counts.append(0)
                self._starting.append((t + cold, serial, pod))
            # Appends are monotone in the fault-free world, but a zone
            # outage may have pushed an older entry's ready time past
            # these; _activate_ready pops from the front, so keep the
            # list ready-ordered (a no-op sort when already sorted).
            self._starting.sort(key=lambda e: (e[0], e[1]))
        else:
            delta = current - desired
            # Cancel pods still cold-starting first (newest first) —
            # but never the last provisioned pod: after a fault emptied
            # the routable set, the earliest cold start is the only
            # path back to service. (Fault-free, pods is never empty,
            # so this guard cannot bind.)
            cancelled: list[int] = []
            while delta and self._starting and len(self.pods) + len(self._starting) > 1:
                _, serial, _ = self._starting.pop()
                cancelled.append(serial)
                delta -= 1
            if cancelled and self._release is not None:
                self._release(len(cancelled), t, cancelled)
            # ...then drain serving pods, lightest committed load first,
            # newest first on ties; never drain the last routable pod.
            # (Draining pods keep their GPUs until they retire.)
            drained = False
            while delta and len(self.pods) > 1:
                victim = min(
                    self.pods,
                    key=lambda p: (committed_load(p), -self._serials[id(p)]),
                )
                self.pods.remove(victim)
                self._routable.discard(self._serials[id(victim)])
                self._draining.append(victim)
                drained = True
                delta -= 1
            if drained:
                self._reindex()
        self.scale_events.append(
            ScaleEvent(
                time_s=t,
                from_pods=current,
                to_pods=to_pods,
                reason=self.autoscaler.policy.name,
                requested=requested,
                constraint=constraint,
            )
        )

    def _view(self, t: float) -> "FleetView":
        from repro.simulation.autoscale import FleetView, recent_ttft_samples

        window = self.autoscaler.config.metrics_window_s
        samples = recent_ttft_samples(self._in_service(), t, window)
        p95 = float(np.percentile(samples, 95.0)) if samples.size else float("nan")
        if self.pods:
            utilization = float(
                np.mean(
                    [p.batch_weight_in_use / p.max_batch_weight for p in self.pods]
                )
            )
        else:
            utilization = float("nan")
        times, rates = self.arrival_rate_series(before_s=t)
        return FleetView(
            time=t,
            pods=len(self.pods),
            starting=len(self._starting),
            draining=len(self._draining),
            queue_depth=sum(p.queue_depth for p in self.pods),
            active_requests=sum(p.active_requests for p in self.pods),
            utilization=utilization,
            p95_ttft_s=p95,
            arrival_times_s=times,
            arrival_rates_per_s=rates,
        )

    # ---- result assembly --------------------------------------------------

    def _result(
        self, duration_s: float, warmup_s: float, keep_samples: bool
    ) -> FleetResult:
        t_end = warmup_s + duration_s
        time_s = max(max(pod.time for pod in self._all_pods), t_end)
        self._bill(time_s)
        elapsed = time_s - warmup_s
        collectors = [pod.metrics for pod in self._all_pods]
        merged = MetricsCollector.merged(collectors)
        tokens = sum(pod.stats.tokens_generated for pod in self._all_pods)
        draining = set(map(id, self._draining))
        starting = {id(pod) for _, _, pod in self._starting}
        per_pod = []
        for serial, pod in enumerate(self._all_pods):
            completed = [
                r for r in pod.metrics.completed if r.submitted_at >= warmup_s
            ]
            if serial in self._crashed:
                state = "crashed"
            elif serial in self._routable:
                state = "serving"
            elif id(pod) in draining:
                state = "draining"
            elif id(pod) in starting:
                state = "starting"
            else:
                state = "retired"
            per_pod.append(
                PodStats(
                    pod=serial,
                    arrivals_routed=self.routed_counts[serial],
                    requests_completed=len(completed),
                    tokens_generated=pod.stats.tokens_generated,
                    throughput_tokens_per_s=pod.stats.tokens_generated / elapsed,
                    queue_depth_end=pod.queue_depth,
                    active_requests_end=pod.active_requests,
                    time_s=pod.time,
                    ttft=pod.metrics.ttft_stats(),
                    itl=pod.metrics.itl_stats(),
                    state=state,
                    zone=self.pod_zone(serial),
                )
            )
        in_flight = sum(
            pod.queue_depth + pod.active_requests for pod in self._all_pods
        )
        return FleetResult(
            n_pods=len(self.pods),
            traffic=self.traffic.name,
            router=self.router.name,
            duration_s=elapsed,
            warmup_s=warmup_s,
            time_s=time_s,
            arrivals=self.arrivals,
            admitted=self.arrivals - self.shed,
            shed=self.shed,
            deferrals=self.deferrals,
            completed_total=self._completions,
            in_flight_end=in_flight,
            requests_completed=sum(p.requests_completed for p in per_pod),
            tokens_generated=tokens,
            throughput_tokens_per_s=tokens / elapsed,
            pod_seconds=self._pod_seconds,
            cloud_pod_seconds=self._cloud_pod_seconds,
            sim_events=self._events,
            wall_time_s=_time.perf_counter() - self._wall_start,
            scale_events=list(self.scale_events),
            lost=self.lost,
            requeued=self.requeued,
            fault_events=list(self.fault_events),
            ttft=merged.ttft_stats(),
            itl=merged.itl_stats(),
            e2e=LatencyStats.from_samples(merged.e2e_samples(warmup_s)),
            per_pod=per_pod,
            metrics=merged if keep_samples else None,
        )
