"""Property-based invariants of the simulation substrate.

Randomized seeds, traffic models, routers and autoscaling policies are
swept with hypothesis; whatever the draw, the substrate's conservation
laws must hold:

* request conservation — every offered arrival is admitted or shed, and
  every admitted request completes or is still in flight at the end
  (``FleetResult.verify_conservation``);
* ledger replay — the cluster inventory's event log, replayed in causal
  order, never goes negative and never exceeds capacity;
* billing sanity — pod-seconds are non-negative, never below the
  always-on single-pod floor, never above a flat-out ``max_pods`` fleet,
  and exactly ``pods * time`` for static fleets;
* degeneracy — a 1-tenant cluster with ample inventory is the standalone
  fleet simulation, number for number;
* reference parity — the production fleet and the reference fleet of
  ``repro.simulation.reference`` agree field for field;
* work conservation — the samples and counters an engine reports add up
  to what its submitted requests demand, computed from the requests and
  their results alone (no engine code path is shared, so a bug in the
  semantics both engines share still fails here).

``derandomize=True`` keeps CI deterministic: the sweep is a fixed,
diverse grid rather than a fresh random draw per run.
"""

import dataclasses
import json
import math

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.characterization import DEFAULT_USER_COUNTS, run_load_test
from repro.hardware import parse_profile
from repro.inference import ContinuousBatchingEngine, InferenceRequest
from repro.models import get_llm
from repro.simulation import (
    AdmissionController,
    Autoscaler,
    AutoscaleConfig,
    BurstyTraffic,
    ClusterInventory,
    ClusterSimulator,
    DiurnalTraffic,
    FaultInjector,
    FaultSpec,
    FleetSimulator,
    JoinShortestQueueRouter,
    LeastLoadedRouter,
    PoissonTraffic,
    PredictivePolicy,
    RequestSource,
    RoundRobinRouter,
    TargetUtilizationPolicy,
    TenantGroup,
    ThresholdPolicy,
)
from repro.simulation.reference import ReferenceEngine, ReferenceFleetSimulator
from repro.utils.rng import derive_rng, spawn_seed

LLM = get_llm("Llama-2-13b")
PROFILE = parse_profile("1xA100-80GB")
WEIGHT = 20_000
DURATION_S = 45.0

SETTINGS = settings(
    max_examples=8,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)

seeds = st.integers(min_value=0, max_value=10_000)
rates = st.floats(min_value=1.0, max_value=8.0, allow_nan=False)
traffic_kinds = st.sampled_from(["poisson", "diurnal", "bursty"])
policy_kinds = st.sampled_from(
    ["threshold", "target-utilization", "predictive", "none"]
)
router_kinds = st.sampled_from(["round-robin", "least-loaded", "jsq", "admission"])
max_pods = st.integers(min_value=2, max_value=5)


def _traffic(kind, rate, seed):
    rng = derive_rng(seed, "invariant-traffic", kind)
    if kind == "poisson":
        return PoissonTraffic(rate, rng=rng)
    if kind == "diurnal":
        return DiurnalTraffic(rate, rng=rng, amplitude=0.8, period_s=30.0)
    return BurstyTraffic(rate, rng=rng, mean_on_s=10.0, mean_off_s=10.0)


def _router(kind):
    if kind == "round-robin":
        return RoundRobinRouter()
    if kind == "least-loaded":
        return LeastLoadedRouter()
    if kind == "jsq":
        return JoinShortestQueueRouter()
    return AdmissionController(
        LeastLoadedRouter(), slo_p95_ttft_s=1.0, window_s=15.0, mode="shed"
    )


def _policy(kind):
    if kind == "threshold":
        return ThresholdPolicy(slo_p95_ttft_s=1.0)
    if kind == "target-utilization":
        return TargetUtilizationPolicy(target=0.5)
    if kind == "predictive":
        return PredictivePolicy(requests_per_pod_per_s=1.0)
    return None


def _fleet(generator, seed, kind, rate, router_kind="least-loaded",
           policy_kind="none", cap=4, label="fleet", faults=None, n_pods=1,
           reference=False):
    engine_type = ReferenceEngine if reference else ContinuousBatchingEngine
    fleet_type = ReferenceFleetSimulator if reference else FleetSimulator

    def factory(serial):
        return engine_type(
            LLM, PROFILE, max_batch_weight=WEIGHT,
            seed=spawn_seed(seed, "pod", serial),
        )

    policy = _policy(policy_kind)
    autoscaler = None
    if policy is not None:
        autoscaler = Autoscaler(
            policy,
            AutoscaleConfig(
                decision_interval_s=10.0, max_pods=cap,
                cold_start_s=5.0, metrics_window_s=15.0,
            ),
        )
    source = RequestSource(
        generator, derive_rng(seed, "invariant-source", label), WEIGHT
    )
    return fleet_type(
        [factory(i) for i in range(n_pods)],
        _traffic(kind, rate, seed),
        _router(router_kind),
        source,
        autoscaler=autoscaler,
        pod_factory=factory,
        faults=faults,
    )


class TestFleetInvariants:
    @SETTINGS
    @given(seed=seeds, kind=traffic_kinds, rate=rates,
           router_kind=router_kinds, policy_kind=policy_kinds, cap=max_pods)
    def test_request_conservation(
        self, generator, seed, kind, rate, router_kind, policy_kind, cap
    ):
        fleet = _fleet(generator, seed, kind, rate, router_kind, policy_kind, cap)
        res = fleet.run(duration_s=DURATION_S, keep_samples=False)
        res.verify_conservation()
        assert res.arrivals == res.admitted + res.shed
        # Every admitted request was routed to exactly one pod.
        assert res.admitted == sum(fleet.routed_counts)
        # Tokens come only from admitted work, counted once per pod.
        assert res.tokens_generated == sum(
            p.tokens_generated for p in res.per_pod
        )

    @SETTINGS
    @given(seed=seeds, kind=traffic_kinds, rate=rates, policy_kind=policy_kinds,
           cap=max_pods)
    def test_pod_seconds_bounds(self, generator, seed, kind, rate, policy_kind, cap):
        fleet = _fleet(generator, seed, kind, rate, policy_kind=policy_kind, cap=cap)
        res = fleet.run(duration_s=DURATION_S, keep_samples=False)
        assert res.pod_seconds >= 0.0
        # One pod is always routable (the fleet never drains its last),
        # so billing can never dip below the single-pod floor...
        assert res.pod_seconds >= res.time_s * (1.0 - 1e-9)
        # ...and a fleet flat-out at max_pods for the whole run is the
        # ceiling.
        assert res.pod_seconds <= cap * res.time_s * (1.0 + 1e-9)

    @SETTINGS
    @given(seed=seeds, kind=traffic_kinds, rate=rates,
           n_pods=st.integers(min_value=1, max_value=3))
    def test_static_fleet_bills_exactly(self, generator, seed, kind, rate, n_pods):
        def factory(serial):
            return ContinuousBatchingEngine(
                LLM, PROFILE, max_batch_weight=WEIGHT,
                seed=spawn_seed(seed, "pod", serial),
            )

        source = RequestSource(generator, derive_rng(seed, "static-bill"), WEIGHT)
        fleet = FleetSimulator(
            [factory(i) for i in range(n_pods)],
            _traffic(kind, rate, seed),
            LeastLoadedRouter(),
            source,
        )
        res = fleet.run(duration_s=DURATION_S, keep_samples=False)
        res.verify_conservation()
        assert res.pod_seconds == pytest.approx(n_pods * res.time_s)


def _result_fields(result) -> str:
    """Every FleetResult field but the wall clock and the sample store,
    canonically rendered (NaN-safe: empty pods carry NaN latencies)."""
    comparable = dataclasses.replace(result, metrics=None, wall_time_s=0.0)
    return json.dumps(dataclasses.asdict(comparable), sort_keys=True)


class TestReferenceParity:
    """The production fleet (heap frontier, finish-mark decoding, decode
    leaps, buffered noise, admission memo) and the reference fleet are
    one simulation: whatever the draw, they agree field for field and
    sample for sample. The drawn pod count and warmup make leaps run and
    get cut short by arrivals, control events and the warmup boundary."""

    @SETTINGS
    @given(seed=seeds, kind=traffic_kinds, rate=rates,
           router_kind=router_kinds, autoscaled=st.booleans(),
           chaos=st.booleans(), n_pods=st.sampled_from([1, 2]),
           warmup_s=st.sampled_from([0.0, 5.0]))
    def test_production_fleet_equals_reference(
        self, generator, seed, kind, rate, router_kind, autoscaled, chaos,
        n_pods, warmup_s,
    ):
        def run(reference):
            faults = None
            if chaos:
                faults = FaultInjector(
                    [
                        FaultSpec(kind="crash", time_s=12.0, restart_delay_s=5.0),
                        FaultSpec(kind="slowdown", time_s=20.0,
                                  duration_s=10.0, factor=3.0),
                    ],
                    seed=seed,
                )
            fleet = _fleet(
                generator, seed, kind, rate, router_kind,
                "threshold" if autoscaled else "none", faults=faults,
                n_pods=n_pods, label="parity", reference=reference,
            )
            return fleet.run(
                duration_s=DURATION_S, warmup_s=warmup_s, keep_samples=True
            )

        mine, ref = run(False), run(True)
        assert _result_fields(mine) == _result_fields(ref)
        np.testing.assert_array_equal(
            mine.metrics.itl_samples(), ref.metrics.itl_samples()
        )
        if chaos:
            assert mine.fault_events


class TestWorkConservation:
    """Engine output against the work its requests demand.

    Every expected value is computed from the submitted requests (or, for
    time, from each request's own first-token and finish stamps), never
    from an engine counter or helper, so these identities hold the
    production engine to account where parity with the reference cannot:
    both engines share admission, prefill and the step-time semantics.
    The engine runs with an unbounded decode horizon, so it may advance
    through a whole run of decode steps per ``step()`` call.
    """

    def _drain(self, seed, slow_factor):
        engine = ContinuousBatchingEngine(
            LLM, PROFILE, max_batch_weight=3_000, seed=seed
        )
        engine.slow_factor = slow_factor
        engine.horizon = float("inf")
        rng = np.random.default_rng(seed)
        requests = [
            InferenceRequest(
                request_id=i,
                input_tokens=int(rng.integers(20, 300)),
                output_tokens=int(rng.integers(1, 200)),
                batch_size=int(rng.integers(1, 4)),
            )
            for i in range(60)
        ]
        for request in requests:
            engine.submit(request)
        results = engine.step()
        # The whole population cannot fit one batch: admission blocks
        # behind the first one until completions free weight.
        assert engine.queue_depth > 0
        while engine.has_work():
            results.extend(engine.step())
        return engine, requests, results

    @pytest.mark.parametrize("seed,slow_factor", [(0, 1.0), (1, 2.5), (2, 0.7)])
    def test_drained_engine_conserves_tokens_and_time(self, seed, slow_factor):
        engine, requests, results = self._drain(seed, slow_factor)
        assert sorted(r.request.request_id for r in results) == list(
            range(len(requests))
        )
        assert any(r.batch_size > 1 for r in requests)
        gaps = engine.itl_samples()
        # One gap per output token after the first, per request...
        assert gaps.size == sum(r.output_tokens - 1 for r in requests)
        assert np.all(gaps > 0.0)
        # ...and each request's gaps telescope to its decode span.
        spans = math.fsum(r.finished_at - r.first_token_at for r in results)
        assert math.fsum(gaps) == pytest.approx(spans, rel=1e-9)
        # Client-visible tokens: every output token of every batch entry.
        assert engine.stats.tokens_generated == sum(
            r.output_tokens * r.batch_size for r in requests
        )
        assert engine.stats.requests_completed == len(requests)
        # Everything was submitted at t=0 and the engine never idled, so
        # its busy time is its clock, to the bit.
        assert engine.stats.busy_time_s == engine.time
        assert engine.time == max(r.finished_at for r in results)

    @pytest.mark.parametrize("users", DEFAULT_USER_COUNTS)
    def test_closed_loop_pod_is_never_idle(self, generator, users):
        """A one-pod closed loop resubmits at every completion, so with no
        warmup reset the busy time the engine accumulates is its clock."""
        engine = ContinuousBatchingEngine(
            LLM, PROFILE, max_batch_weight=WEIGHT, seed=users
        )
        res = run_load_test(engine, generator, users, duration_s=20.0, seed=users)
        assert res.requests_completed > 0
        assert engine.stats.busy_time_s == engine.time


class TestClusterInvariants:
    @SETTINGS
    @given(seed=seeds, rate_a=rates, rate_b=rates, kind=traffic_kinds,
           policy_kind=st.sampled_from(["threshold", "target-utilization"]),
           capacity=st.integers(min_value=2, max_value=4))
    def test_ledger_replay_and_conservation(
        self, generator, seed, rate_a, rate_b, kind, policy_kind, capacity
    ):
        tenants = [
            TenantGroup(
                "a",
                _fleet(generator, seed, kind, rate_a,
                       policy_kind=policy_kind, cap=4, label="a"),
                PROFILE.name,
            ),
            TenantGroup(
                "b",
                _fleet(generator, seed + 1, kind, rate_b,
                       policy_kind=policy_kind, cap=4, label="b"),
                PROFILE.name,
            ),
        ]
        sim = ClusterSimulator(
            tenants, ClusterInventory(capacity={PROFILE.gpu.name: capacity})
        )
        res = sim.run(duration_s=DURATION_S)
        # Per-tenant conservation + causal ledger replay (occupancy never
        # negative, never above capacity) + end-state holds match.
        res.verify_conservation()
        _, used = res.occupancy_series(PROFILE.gpu.name)
        assert used.min() >= 0
        assert used.max() <= capacity
        assert res.peak_occupancy()[PROFILE.gpu.name] == used.max()
        # Peak pods per tenant replays from the same ledger: every tenant
        # held at least its initial pod and never more than the capacity.
        peaks = res.peak_pods()
        assert all(1 <= v <= capacity for v in peaks.values())
        # Pod-second billing stays within the per-tenant bounds.
        for result in res.results.values():
            assert result.pod_seconds >= 0.0
            assert result.pod_seconds <= 4 * result.time_s * (1.0 + 1e-9)

    @SETTINGS
    @given(seed=seeds, kind=traffic_kinds, rate=rates,
           policy_kind=st.sampled_from(["threshold", "predictive", "none"]))
    def test_one_tenant_cluster_equals_standalone_fleet(
        self, generator, seed, kind, rate, policy_kind
    ):
        standalone = _fleet(
            generator, seed, kind, rate, policy_kind=policy_kind, label="solo"
        ).run(duration_s=DURATION_S, keep_samples=False)
        clustered_fleet = _fleet(
            generator, seed, kind, rate, policy_kind=policy_kind, label="solo"
        )
        sim = ClusterSimulator(
            [TenantGroup("solo", clustered_fleet, PROFILE.name)],
            ClusterInventory(capacity={PROFILE.gpu.name: 64}),
        )
        res = sim.run(duration_s=DURATION_S)
        clustered = res.results["solo"]
        assert clustered.arrivals == standalone.arrivals
        assert clustered.shed == standalone.shed
        assert clustered.tokens_generated == standalone.tokens_generated
        assert clustered.requests_completed == standalone.requests_completed
        assert clustered.ttft.median_s == standalone.ttft.median_s
        assert clustered.ttft.p95_s == standalone.ttft.p95_s
        assert clustered.itl.p95_s == standalone.itl.p95_s
        assert clustered.pod_seconds == standalone.pod_seconds
        assert clustered.scale_events == standalone.scale_events


class TestFaultInvariants:
    """Conservation laws must survive chaos: crashes requeue or lose
    in-flight work, but never invent or leak requests."""

    @SETTINGS
    @given(seed=seeds, kind=traffic_kinds, rate=rates,
           mode=st.sampled_from(["requeue", "lose"]),
           t1=st.floats(min_value=1.0, max_value=40.0, allow_nan=False),
           t2=st.floats(min_value=1.0, max_value=40.0, allow_nan=False),
           restart=st.booleans())
    def test_conservation_under_crashes(
        self, generator, seed, kind, rate, mode, t1, t2, restart
    ):
        delay = 5.0 if restart else None
        faults = FaultInjector(
            [
                FaultSpec(kind="crash", time_s=t1, mode=mode,
                          restart_delay_s=delay),
                FaultSpec(kind="crash", time_s=t2, mode=mode,
                          restart_delay_s=delay),
            ],
            seed=seed,
        )
        fleet = _fleet(generator, seed, kind, rate, faults=faults,
                       n_pods=3, label="chaos")
        res = fleet.run(duration_s=DURATION_S, keep_samples=False)
        res.verify_conservation()
        assert res.arrivals == res.admitted + res.shed
        assert (
            res.completed_total + res.in_flight_end + res.lost == res.admitted
        )
        if mode == "requeue":
            assert res.lost == 0
        else:
            assert res.requeued == 0
        crashes = [e for e in res.fault_events if e.kind == "crash"]
        assert len(crashes) == 2
        assert res.lost == sum(e.lost for e in crashes)
        assert res.requeued == sum(e.requeued for e in crashes)

    @SETTINGS
    @given(seed=seeds, kind=traffic_kinds, rate=rates,
           policy_kind=st.sampled_from(["threshold", "target-utilization"]))
    def test_autoscaled_fleet_survives_crash(
        self, generator, seed, kind, rate, policy_kind
    ):
        faults = FaultInjector(
            [FaultSpec(kind="crash", time_s=10.0, restart_delay_s=4.0)],
            seed=seed,
        )
        fleet = _fleet(generator, seed, kind, rate, policy_kind=policy_kind,
                       faults=faults, n_pods=2, label="chaos-scaled")
        res = fleet.run(duration_s=DURATION_S, keep_samples=False)
        res.verify_conservation()
        assert res.lost == 0
        # The crash bills to the instant, the restart re-provisions: the
        # static bounds still hold against the autoscaler cap plus the
        # restart replacement.
        assert res.pod_seconds >= 0.0
        assert res.pod_seconds <= (4 + 1) * res.time_s * (1.0 + 1e-9)


class TestSweepCacheInvariants:
    """The elastic sweep's shared recorded arrival stream must be
    invisible: whatever the traffic model and seed, the recorded sweep
    equals a factory-fresh sweep candidate-for-candidate."""

    @SETTINGS
    @given(seed=seeds, kind=traffic_kinds, rate=rates)
    def test_cached_sweep_equals_fresh_candidate_for_candidate(
        self, generator, seed, kind, rate
    ):
        import json

        from repro.cluster import Deployment
        from repro.hardware import aws_like_pricing
        from repro.recommendation import (
            CostObjective,
            ElasticCandidate,
            ElasticRecommender,
            LinearSLOPenalty,
        )

        class FreshArrivals(ElasticRecommender):
            def _traffic(self):
                return self.traffic_factory()

        def recommender(fresh):
            deployment = Deployment(
                llm=LLM, profile=PROFILE, n_pods=1,
                max_batch_weight=WEIGHT, generator=generator, seed=seed,
            )
            return (FreshArrivals if fresh else ElasticRecommender)(
                deployment,
                lambda: _traffic(kind, rate, seed),
                CostObjective(
                    aws_like_pricing(),
                    LinearSLOPenalty(5.0, penalty_per_hour=100.0),
                ),
                slo_p95_ttft_s=5.0,
                duration_s=20.0,
                decision_interval_s=5.0,
                cold_start_s=2.0,
                metrics_window_s=10.0,
            )

        candidates = [
            ElasticCandidate("static", 1, 1),
            ElasticCandidate("static", 2, 2),
            ElasticCandidate(
                "threshold", 1, 3, lambda: ThresholdPolicy(slo_p95_ttft_s=1.0)
            ),
        ]
        cached = recommender(fresh=False).evaluate_many(candidates)
        fresh = recommender(fresh=True).evaluate_many(candidates)
        assert len(cached) == len(fresh)
        for mine, ref in zip(cached, fresh):
            assert json.dumps(mine.as_dict(), sort_keys=True) == json.dumps(
                ref.as_dict(), sort_keys=True
            )
