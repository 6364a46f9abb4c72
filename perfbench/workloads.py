"""The benchmark's three workloads.

Every workload is built in two steps. :meth:`Workload.setup` synthesizes
the seeded trace collection, fits the workload generator on it and
constructs the simulation; :meth:`Workload.measure` runs the measured
phase once and returns a :class:`Outcome`. Set-up objects are single-use
(a fleet runs once), so every measured pass sets up again.

The shapes are fixed here; only the seed varies the inputs. ``tiny``
shrinks the virtual durations and widths for the benchmark's self-test.

* ``pilot-pipeline`` — the paper's flow: characterize every catalog LLM
  on every default GPU profile over the 1-128 closed-loop user ladder,
  then recommend hardware for a held-out LLM and size it elastically
  under diurnal traffic. Decode-dominated, one-pod frontiers, hundreds
  of short fleet runs.
* ``fleet-closed-96`` — one 96-pod fleet with 6,144 sticky closed-loop
  users and least-loaded placement. Many pods, heavy admission, a big
  t=0 placement.
* ``cluster-open-96`` — 96 open-loop tenants with threshold autoscalers
  contending for a 144-GPU inventory, every fifth one under a crash and
  slowdown schedule. Arrival-driven, small batches; the control plane
  and the two-level cluster frontier do real work.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import time
from contextlib import contextmanager
from dataclasses import dataclass, field

import repro.characterization.runner as runner
from repro.characterization import CharacterizationConfig, CharacterizationTool
from repro.hardware import aws_like_pricing, default_profiles, parse_profile
from repro.inference import ContinuousBatchingEngine
from repro.models import LLM_CATALOG, get_llm
from repro.recommendation import (
    CostObjective,
    ElasticOptions,
    ElasticRecommendation,
    GPURecommendationTool,
    LatencyConstraints,
    LinearSLOPenalty,
)
from repro.recommendation.pilot import LLMPilotRecommender
from repro.simulation import (
    Autoscaler,
    AutoscaleConfig,
    ClosedLoopTraffic,
    ClusterInventory,
    ClusterSimulator,
    DiurnalTraffic,
    FaultInjector,
    FaultSpec,
    FleetSimulator,
    LeastLoadedRouter,
    PoissonTraffic,
    RequestSource,
    TenantGroup,
    ThresholdPolicy,
)
from repro.traces import TraceConfig, TraceSynthesizer
from repro.utils.rng import derive_rng, spawn_seed
from repro.workload import WorkloadGenerator

#: Trace requests synthesized in every workload's set-up.
TRACE_REQUESTS = 20_000

#: Seed of the synthesized trace corpus. The corpus stands in for the
#: platform's fixed production trace store, so it is the same for every
#: run; the workload seed drives every draw from the generator fitted on
#: it (requests, arrivals, engine noise). Seeding the corpus too made the
#: mean prompt length, and with it the simulated token count, differ by
#: up to 20% between seeds.
CORPUS_SEED = 0

#: FleetResult fields pinned exactly. ``sim_events`` (engine steps) is
#: left out on purpose: an optimization may take fewer steps to
#: simulate the same thing.
FLEET_FIELDS = (
    "time_s", "arrivals", "requests_completed", "tokens_generated",
    "throughput_tokens_per_s", "admitted", "shed", "deferrals",
    "completed_total", "in_flight_end", "pod_seconds", "lost", "requeued",
)


@dataclass
class Outcome:
    """What one measured pass produced."""

    wall_s: float
    #: Simulated output tokens, which do not depend on how many engine
    #: steps the code takes to produce them.
    tokens: int
    fingerprint: str
    #: Sub-phase wall times (pilot-pipeline only).
    phases: dict[str, float] = field(default_factory=dict)
    #: Wall time of every load test, in call order (pilot-pipeline only).
    loadtest_s: list[float] = field(default_factory=list)


def fingerprint(payload) -> str:
    """SHA-256 of a canonical JSON rendering (floats at full precision)."""
    text = json.dumps(
        payload, sort_keys=True, default=lambda o: o.item(), separators=(",", ":")
    )
    return hashlib.sha256(text.encode()).hexdigest()


def _fleet_payload(result) -> dict:
    payload = {name: getattr(result, name) for name in FLEET_FIELDS}
    for dist in ("ttft", "itl", "e2e"):
        payload[dist] = dataclasses.asdict(getattr(result, dist))
    payload["per_pod"] = [dataclasses.asdict(p) for p in result.per_pod]
    payload["scale_events"] = [dataclasses.asdict(e) for e in result.scale_events]
    payload["fault_events"] = [dataclasses.asdict(e) for e in result.fault_events]
    return payload


def _generator() -> WorkloadGenerator:
    traces = TraceSynthesizer(
        TraceConfig(n_requests=TRACE_REQUESTS), seed=CORPUS_SEED
    ).generate()
    return WorkloadGenerator.fit(traces)


@contextmanager
def _patched(owner, name: str, replacement):
    original = getattr(owner, name)
    setattr(owner, name, replacement)
    try:
        yield
    finally:
        setattr(owner, name, original)


class Workload:
    """Base: a seeded shape with a set-up and a measured phase."""

    name = ""

    def __init__(self, seed: int, tiny: bool = False) -> None:
        self.seed = seed
        self.tiny = tiny

    def setup(self) -> None:
        raise NotImplementedError

    def measure(self) -> Outcome:
        raise NotImplementedError


class PilotPipeline(Workload):
    """Characterize 10 LLMs x 14 profiles, then recommend for a held-out LLM."""

    name = "pilot-pipeline"
    HOLDOUT = "Llama-2-13b"
    TOTAL_USERS = 200
    #: The user's SLA: 100 ms nTTFT, 50 ms ITL.
    CONSTRAINTS = LatencyConstraints(nttft_s=0.100, itl_s=0.050)
    SLO_P95_TTFT_S = 10.0

    def setup(self) -> None:
        self.generator = _generator()
        self.tool = CharacterizationTool(
            self.generator,
            CharacterizationConfig(
                duration_s=2.0 if self.tiny else 10.0, seed=self.seed
            ),
        )
        pricing = aws_like_pricing()
        seed = self.seed
        self.options = ElasticOptions(
            generator=self.generator,
            traffic_factory=lambda: DiurnalTraffic(
                1.0, rng=derive_rng(seed, "pilot-diurnal"), period_s=300.0
            ),
            objective=CostObjective(pricing, LinearSLOPenalty(self.SLO_P95_TTFT_S)),
            slo_p95_ttft_s=self.SLO_P95_TTFT_S,
            duration_s=120.0 if self.tiny else 600.0,
            seed=seed,
            decision_interval_s=10.0,
            cold_start_s=5.0,
            metrics_window_s=20.0,
        )
        self.pricing = pricing

    def measure(self) -> Outcome:
        walls: list[float] = []
        tokens: list[int] = []
        load_test = runner.run_load_test
        perf = time.perf_counter

        def timed_load_test(*args, **kwargs):
            t0 = perf()
            result = load_test(*args, **kwargs)
            walls.append(perf() - t0)
            completed = result.requests_completed
            if completed > result.arrivals or not result.tokens_generated:
                raise ValueError(
                    f"load test completed {completed} of "
                    f"{result.arrivals} arrivals, {result.tokens_generated} tokens"
                )
            tokens.append(result.tokens_generated)
            return result

        profiles = default_profiles()
        with _patched(runner, "run_load_test", timed_load_test):
            t0 = perf()
            outcome = self.tool.run(list(LLM_CATALOG.values()), profiles)
            t1 = perf()
            pilot = LLMPilotRecommender(constraints=self.CONSTRAINTS, tune=False)
            pilot.fit(outcome.dataset.exclude_llm(self.HOLDOUT), dict(LLM_CATALOG))
            tool = GPURecommendationTool(
                perf_model=pilot.model_,
                pricing=self.pricing,
                constraints=self.CONSTRAINTS,
                max_request_weight=self.generator.max_request_weight(),
            )
            rec = tool.recommend(
                get_llm(self.HOLDOUT), profiles,
                total_users=self.TOTAL_USERS, elastic=self.options,
            )
            t2 = perf()

        payload = {
            "dataset": [dataclasses.astuple(r) for r in outcome.dataset],
            "tuned_weights": sorted(
                [*key, weight] for key, weight in outcome.tuned_weights.items()
            ),
        }
        sweep_tokens = 0
        if isinstance(rec, ElasticRecommendation):
            seen = set()
            for point in rec.curve:
                point.result.verify()
                if id(point) not in seen:
                    seen.add(id(point))
                    sweep_tokens += point.result.tokens_generated
            payload["recommendation"] = rec.as_dict()
            payload["static"] = dataclasses.asdict(rec.static_recommendation)
        else:
            payload["static"] = dataclasses.asdict(rec)
        return Outcome(
            wall_s=t2 - t0,
            tokens=sum(tokens) + sweep_tokens,
            fingerprint=fingerprint(payload),
            phases={"characterize_s": t1 - t0, "recommend_s": t2 - t1},
            loadtest_s=walls,
        )


class FleetClosed96(Workload):
    """96 pods, 6,144 sticky closed-loop users, least-loaded placement."""

    name = "fleet-closed-96"
    LLM = "Llama-2-13b"
    PROFILE = "1xA100-40GB"
    WEIGHT = 120_000

    def setup(self) -> None:
        pods, users = (8, 512) if self.tiny else (96, 6144)
        self.duration_s = 10.0 if self.tiny else 60.0
        generator = _generator()
        llm, profile = get_llm(self.LLM), parse_profile(self.PROFILE)
        engines = [
            ContinuousBatchingEngine(
                llm, profile, max_batch_weight=self.WEIGHT,
                seed=spawn_seed(self.seed, "pod", i),
            )
            for i in range(pods)
        ]
        source = RequestSource(
            generator, derive_rng(self.seed, self.name, users), self.WEIGHT
        )
        self.fleet = FleetSimulator(
            engines, ClosedLoopTraffic(users), LeastLoadedRouter(), source
        )

    def measure(self) -> Outcome:
        t0 = time.perf_counter()
        result = self.fleet.run(duration_s=self.duration_s)
        wall = time.perf_counter() - t0
        self.fleet = None
        result.verify()
        return Outcome(
            wall_s=wall,
            tokens=result.tokens_generated,
            fingerprint=fingerprint(_fleet_payload(result)),
        )


class ClusterOpen96(Workload):
    """96 autoscaled open-loop tenants on a shared 144-GPU inventory."""

    name = "cluster-open-96"
    LLM = "Llama-2-13b"
    PROFILE = "1xA100-40GB"
    WEIGHT = 20_000

    def setup(self) -> None:
        tenants = 10 if self.tiny else 96
        self.duration_s = duration = 15.0 if self.tiny else 45.0
        generator = _generator()
        llm, profile = get_llm(self.LLM), parse_profile(self.PROFILE)
        seed = self.seed
        groups = []
        for i in range(tenants):
            name = f"tenant-{i:02d}"

            def factory(serial, i=i):
                return ContinuousBatchingEngine(
                    llm, profile, max_batch_weight=self.WEIGHT,
                    seed=spawn_seed(seed, "pod", i, serial),
                )

            faults = None
            if i % 5 == 0:
                # Every faulted tenant crashes at the same instant, and
                # tenant 0 crashes twice then: same-instant collisions
                # across and within tenants.
                crash = FaultSpec(
                    kind="crash", time_s=duration / 3.0, restart_delay_s=5.0
                )
                second = crash if i == 0 else FaultSpec(
                    kind="slowdown", time_s=duration / 2.0,
                    duration_s=duration / 4.0, factor=2.5,
                )
                faults = FaultInjector([crash, second], seed=seed + i)
            fleet = FleetSimulator(
                [factory(0)],
                PoissonTraffic(
                    2.0 + 0.25 * (i % 8), rng=derive_rng(seed, "cluster-traffic", name)
                ),
                LeastLoadedRouter(),
                RequestSource(
                    generator, derive_rng(seed, "cluster-requests", name), self.WEIGHT
                ),
                autoscaler=Autoscaler(
                    ThresholdPolicy(slo_p95_ttft_s=1.0),
                    AutoscaleConfig(
                        decision_interval_s=10.0, max_pods=3,
                        cold_start_s=5.0, metrics_window_s=20.0,
                    ),
                ),
                pod_factory=factory,
                faults=faults,
            )
            groups.append(TenantGroup(name, fleet, profile.name))
        inventory = ClusterInventory(
            capacity={profile.gpu.name: tenants + tenants // 2}
        )
        self.cluster = ClusterSimulator(groups, inventory)

    def measure(self) -> Outcome:
        t0 = time.perf_counter()
        result = self.cluster.run(duration_s=self.duration_s)
        wall = time.perf_counter() - t0
        self.cluster = None
        result.verify()
        payload = {
            "tenants": {
                name: _fleet_payload(result.results[name]) for name in result.tenants
            },
            "end_provisioned": result.end_provisioned,
            "inventory": [dataclasses.astuple(e) for e in result.events],
        }
        return Outcome(
            wall_s=wall,
            tokens=sum(r.tokens_generated for r in result.results.values()),
            fingerprint=fingerprint(payload),
        )


WORKLOADS = {cls.name: cls for cls in (PilotPipeline, FleetClosed96, ClusterOpen96)}
