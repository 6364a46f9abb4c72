"""Deployments: replicated inference-service pods (paper §II-C).

A Deployment manages ``n`` pod replicas of the same (LLM, GPU profile)
service. Load tests co-simulate every pod on one shared virtual clock
through :class:`~repro.simulation.fleet.FleetSimulator`: a front-end
router (least-loaded by default) assigns each request to a pod the
moment it arrives, instead of the old static user split across engines
that never shared a timeline. ``run_load_test`` reproduces the Table I
experiment — per-pod throughput under a varying total user population,
demonstrating near-perfect scaling with the pod count — and, because the
pods now share a clock, the same deployment can also serve open-loop or
bursty traffic via :meth:`Deployment.simulate`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.characterization.loadtest import LoadTestResult
from repro.hardware.profile import GPUProfile
from repro.inference.engine import ContinuousBatchingEngine
from repro.models.llm import LLMSpec
from repro.simulation.faults import FaultInjector
from repro.simulation.fleet import (
    FleetResult,
    FleetSimulator,
    LeastLoadedRouter,
    RoundRobinRouter,
    Router,
)
from repro.simulation.autoscale import Autoscaler
from repro.simulation.cluster import TenantGroup
from repro.simulation.traffic import ClosedLoopTraffic, RequestSource, TrafficModel
from repro.utils.rng import derive_rng, spawn_seed
from repro.workload.generator import WorkloadGenerator

__all__ = ["Deployment", "DeploymentLoadTestResult"]


@dataclass
class DeploymentLoadTestResult:
    """Aggregated outcome of a deployment-level load test."""

    n_pods: int
    total_users: int
    per_pod: list[LoadTestResult] = field(default_factory=list)
    fleet: FleetResult | None = field(default=None, repr=False)

    @property
    def throughput_per_pod(self) -> np.ndarray:
        return np.array([p.throughput_tokens_per_s for p in self.per_pod])

    @property
    def mean_throughput_per_pod(self) -> float:
        active = self.throughput_per_pod
        return float(active.mean()) if active.size else 0.0

    @property
    def total_throughput(self) -> float:
        return float(self.throughput_per_pod.sum())

    def ttft_median_s(self) -> float:
        vals = [p.ttft_median_s for p in self.per_pod if np.isfinite(p.ttft_median_s)]
        return float(np.median(vals)) if vals else float("nan")

    def itl_median_s(self) -> float:
        vals = [p.itl_median_s for p in self.per_pod if np.isfinite(p.itl_median_s)]
        return float(np.median(vals)) if vals else float("nan")


class Deployment:
    """``n`` replicas of one inference service behind a load balancer."""

    #: The engine and fleet types this deployment builds (the reference
    #: module's subclass swaps in its scalar counterparts).
    engine_type = ContinuousBatchingEngine
    fleet_type = FleetSimulator

    def __init__(
        self,
        llm: LLMSpec,
        profile: GPUProfile,
        n_pods: int,
        max_batch_weight: int,
        generator: WorkloadGenerator,
        seed: int = 0,
        n_zones: int = 1,
    ) -> None:
        if n_pods < 1:
            raise ValueError(f"n_pods must be >= 1, got {n_pods}")
        if n_zones < 1:
            raise ValueError(f"n_zones must be >= 1, got {n_zones}")
        self.llm = llm
        self.profile = profile
        self.n_pods = n_pods
        self.max_batch_weight = max_batch_weight
        self.generator = generator
        self.seed = seed
        # Availability zones for correlated fault injection: pod serials
        # round-robin across zones (see zone_of), so any n_pods spread
        # evenly and autoscaled pods keep landing in rotation.
        self.n_zones = int(n_zones)

    def scale(self, n_pods: int) -> "Deployment":
        """A copy with a different replica count."""
        return type(self)(
            llm=self.llm,
            profile=self.profile,
            n_pods=n_pods,
            max_batch_weight=self.max_batch_weight,
            generator=self.generator,
            seed=self.seed,
            n_zones=self.n_zones,
        )

    def reconfigure(
        self, profile: GPUProfile | None = None, n_pods: int | None = None
    ) -> "Deployment":
        """A copy moved to another GPU profile and/or replica count.

        Changing the profile re-tunes the max batch weight for the new
        hardware (the per-profile tuning the characterization tool
        performs), since a weight tuned for one GPU's memory is wrong on
        another.
        """
        new_profile = profile or self.profile
        weight = self.max_batch_weight
        if new_profile.name != self.profile.name:
            from repro.characterization import BatchWeightTuner

            weight = BatchWeightTuner(self.llm, new_profile).tune().max_batch_weight
        return type(self)(
            llm=self.llm,
            profile=new_profile,
            n_pods=self.n_pods if n_pods is None else n_pods,
            max_batch_weight=weight,
            generator=self.generator,
            seed=self.seed,
            n_zones=self.n_zones,
        )

    def zone_of(self, pod_serial: int) -> str:
        """Zone label for pod ``pod_serial`` (round-robin across zones)."""
        return f"zone-{pod_serial % self.n_zones}"

    def tenant_group(
        self,
        name: str,
        traffic: TrafficModel,
        router: Router | None = None,
        autoscaler: Autoscaler | None = None,
        slo_p95_ttft_s: float | None = None,
        stream_label: object = None,
        faults: FaultInjector | None = None,
    ) -> TenantGroup:
        """Embed this deployment as one tenant of a cluster co-simulation.

        The cluster-level entry point: the returned
        :class:`~repro.simulation.cluster.TenantGroup` carries a fresh
        fleet (own traffic model, router/admission and autoscaler) plus
        the GPU profile its pods occupy, ready to be handed to a
        :class:`~repro.simulation.cluster.ClusterSimulator` where it
        contends with other tenants for one inventory on one clock.
        """
        label = name if stream_label is None else stream_label
        fleet = self.fleet(traffic, router, label, autoscaler, faults)
        return TenantGroup(
            name=name,
            fleet=fleet,
            profile=self.profile.name,
            slo_p95_ttft_s=slo_p95_ttft_s,
        )

    def pod_factory(self, pod_serial: int) -> ContinuousBatchingEngine:
        """A fresh engine for pod ``pod_serial`` with a stable seed.

        Serials beyond the initial replica count are what the autoscaler
        mints when it scales up; the seed derivation is the same, so an
        autoscaled run is exactly reproducible.
        """
        return self.engine_type(
            llm=self.llm,
            profile=self.profile,
            max_batch_weight=self.max_batch_weight,
            seed=spawn_seed(
                self.seed, "pod", self.llm.name, self.profile.name, pod_serial
            ),
        )

    def _pods(self) -> list[ContinuousBatchingEngine]:
        """Fresh engines, one per replica, with stable per-pod seeds."""
        return [self.pod_factory(pod_index) for pod_index in range(self.n_pods)]

    def workload_source(self, stream_label: object = "deployment") -> RequestSource:
        """The seeded workload stream a fleet under ``stream_label`` draws from.

        Exactly the :class:`RequestSource` :meth:`fleet` builds —
        same generator, same derived RNG, same weight cap — exposed so
        sweep layers (the elastic recommender's recorded arrival stream)
        can materialize the stream once and replay it bit-identically.
        Note the derivation ignores ``n_pods``: scaled copies of this
        deployment share the stream, which is what makes a candidate
        sweep a controlled experiment.
        """
        return RequestSource(
            self.generator,
            derive_rng(self.seed, "deployment-workload", stream_label),
            self.max_batch_weight,
        )

    def fleet(
        self,
        traffic: TrafficModel,
        router: Router | None = None,
        stream_label: object = "deployment",
        autoscaler: Autoscaler | None = None,
        faults: FaultInjector | None = None,
    ) -> FleetSimulator:
        """A ready-to-run fleet over this deployment (not yet started).

        :meth:`simulate` is this plus ``run``; callers that drive the
        co-simulation interface themselves — or hand the fleet to a
        scenario/cluster harness — use this to get the assembled
        simulator (fresh pods, seeded workload stream, router and
        optional autoscaler) without running it.
        """
        return self.fleet_type(
            self._pods(),
            traffic,
            router or LeastLoadedRouter(),
            self.workload_source(stream_label),
            autoscaler=autoscaler,
            pod_factory=self.pod_factory,
            faults=faults,
            zone_of=self.zone_of,
        )

    def simulate(
        self,
        traffic: TrafficModel,
        duration_s: float,
        router: Router | None = None,
        warmup_s: float = 0.0,
        stream_label: object = "deployment",
        keep_samples: bool = True,
        autoscaler: Autoscaler | None = None,
        faults: FaultInjector | None = None,
    ) -> FleetResult:
        """Co-simulate the deployment under an arbitrary traffic model.

        This is the general entry point the old static user split could
        not express: open-loop, diurnal or bursty arrivals hitting the
        whole replica set through a front-end router on one shared
        virtual clock. With ``autoscaler`` set, ``n_pods`` is only the
        *initial* fleet size — the policy resizes it on the shared clock
        (cold-started pods join late, drained pods finish their residual
        work and retire), and the result carries the scale-event log,
        provisioned pod-seconds and shed/admitted counts.
        """
        return self.fleet(traffic, router, stream_label, autoscaler, faults).run(
            duration_s=duration_s, warmup_s=warmup_s, keep_samples=keep_samples
        )

    def run_load_test(
        self, total_users: int, duration_s: float = 120.0
    ) -> DeploymentLoadTestResult:
        """Drive ``total_users`` closed-loop users against the deployment.

        All pods share one virtual clock. The initial users are dealt
        round-robin across the pods and their follow-ups stay with their
        pod: the paper's static per-pod user split. Per-pod metrics get
        independent measurement noise, the run-to-run spread that Table I
        quantifies with the relative standard deviation. Pods that never
        got work are omitted from ``per_pod`` (a single user saturates
        nothing).
        """
        if total_users < 1:
            raise ValueError(f"total_users must be >= 1, got {total_users}")
        fleet = self.fleet(
            ClosedLoopTraffic(total_users), RoundRobinRouter(), total_users
        )
        # Retained results carry aggregates only, mirroring the
        # single-pod keep_results=False default.
        fleet_result = fleet.run(duration_s=duration_s, keep_samples=False)
        pods = fleet.all_pods
        # Users placed on each pod at t=0 (an even split, give or take one).
        shares = fleet.initial_routed_counts
        out = DeploymentLoadTestResult(
            n_pods=self.n_pods, total_users=total_users, fleet=fleet_result
        )
        for pod_index, (engine, pod_stats) in enumerate(
            zip(pods, fleet_result.per_pod)
        ):
            if engine.stats.tokens_generated == 0 and pod_stats.arrivals_routed == 0:
                continue
            noise_rng = derive_rng(
                self.seed,
                "pod-noise",
                self.llm.name,
                self.profile.name,
                pod_index,
                total_users,
            )
            out.per_pod.append(
                LoadTestResult.measure(
                    engine,
                    engine.metrics.completed,
                    fleet_result.duration_s,
                    noise_rng,
                    concurrent_users=shares[pod_index],
                    arrivals=pod_stats.arrivals_routed,
                )
            )
        return out
