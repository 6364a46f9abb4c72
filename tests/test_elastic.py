"""Tests for the elastic recommender, cost objectives and the feedback
scheduler (schedule -> co-simulate -> adjust)."""

import json
import math
import multiprocessing
import os
from concurrent.futures.process import BrokenProcessPool

import pytest

from repro.cluster import Deployment, FeedbackScheduler, TenantRequest
from repro.hardware import aws_like_cloud_catalog, aws_like_pricing, parse_profile
from repro.models import get_llm
from repro.recommendation import (
    CostObjective,
    ElasticCandidate,
    ElasticOptions,
    ElasticRecommendation,
    ElasticRecommender,
    LinearSLOPenalty,
    StepSLOPenalty,
    default_candidates,
)
from repro.recommendation.recommender import ProfileAssessment
from repro.simulation import (
    Autoscaler,
    AutoscaleConfig,
    BurstPolicy,
    BurstyTraffic,
    DiurnalTraffic,
    PoissonTraffic,
    ThresholdPolicy,
)
from repro.simulation.fleet import FleetResult
from repro.simulation.metrics import LatencyStats
from repro.utils.parallel import fork_map
from repro.utils.rng import derive_rng

LLM = get_llm("Llama-2-13b")
PROFILE = parse_profile("1xA100-80GB")
WEIGHT = 20_000
PRICING = aws_like_pricing()


def _result(p95=1.0, pod_seconds=3600.0, duration_s=3600.0, shed=0, admitted=10,
            completed=10):
    stats = LatencyStats(
        median_s=p95, p95_s=p95, p99_s=p95, mean_s=p95, count=completed
    )
    return FleetResult(
        n_pods=1, traffic="poisson", router="rr", duration_s=duration_s,
        warmup_s=0.0, time_s=duration_s, arrivals=admitted + shed,
        requests_completed=completed, tokens_generated=100,
        throughput_tokens_per_s=1.0, ttft=stats, itl=stats, e2e=stats,
        admitted=admitted, shed=shed, completed_total=completed,
        in_flight_end=admitted - completed, pod_seconds=pod_seconds,
    )


def _deployment(generator, seed=0):
    return Deployment(
        llm=LLM, profile=PROFILE, n_pods=1, max_batch_weight=WEIGHT,
        generator=generator, seed=seed,
    )


class TestPenalties:
    def test_linear_zero_within_slo(self):
        penalty = LinearSLOPenalty(slo_p95_ttft_s=2.0, penalty_per_hour=100.0)
        assert penalty(_result(p95=1.5)) == 0.0

    def test_linear_scales_with_relative_excess(self):
        penalty = LinearSLOPenalty(slo_p95_ttft_s=2.0, penalty_per_hour=100.0)
        # 2x the SLO for one hour at $100/h -> $100.
        assert penalty(_result(p95=4.0)) == pytest.approx(100.0)
        # Half the window, same breach -> half the charge.
        assert penalty(
            _result(p95=4.0, duration_s=1800.0)
        ) == pytest.approx(50.0)

    def test_linear_charges_shed(self):
        penalty = LinearSLOPenalty(
            slo_p95_ttft_s=2.0, penalty_per_hour=0.0, penalty_per_shed=0.5
        )
        assert penalty(_result(p95=1.0, shed=8)) == pytest.approx(4.0)

    def test_step_flat_while_breached(self):
        penalty = StepSLOPenalty(slo_p95_ttft_s=2.0, penalty_per_hour=60.0)
        assert penalty(_result(p95=2.1)) == pytest.approx(60.0)
        assert penalty(_result(p95=100.0)) == pytest.approx(60.0)
        assert penalty(_result(p95=1.9)) == 0.0

    def test_nan_tail_with_admitted_work_is_a_breach(self):
        penalty = StepSLOPenalty(slo_p95_ttft_s=2.0, penalty_per_hour=60.0)
        starved = _result(p95=float("nan"), admitted=5, completed=0)
        assert penalty(starved) == pytest.approx(60.0)
        # An idle run served nothing because nothing arrived: no breach.
        idle = _result(p95=float("nan"), admitted=0, completed=0)
        assert penalty(idle) == 0.0

    def test_validation(self):
        with pytest.raises(ValueError):
            LinearSLOPenalty(slo_p95_ttft_s=0.0)
        with pytest.raises(ValueError):
            LinearSLOPenalty(slo_p95_ttft_s=1.0, penalty_per_hour=-1.0)
        with pytest.raises(ValueError):
            StepSLOPenalty(slo_p95_ttft_s=-1.0)


class TestCostObjective:
    def test_compute_cost_is_pod_hours_times_rate(self):
        objective = CostObjective(PRICING, LinearSLOPenalty(2.0))
        res = _result(pod_seconds=7200.0)
        assert objective.compute_cost(res, PROFILE) == pytest.approx(
            2.0 * PRICING.pod_cost(PROFILE)
        )


class TestElasticCandidate:
    def test_validation(self):
        with pytest.raises(ValueError, match="min_pods"):
            ElasticCandidate("threshold", 0, 2, lambda: ThresholdPolicy(1.0))
        with pytest.raises(ValueError, match="max_pods"):
            ElasticCandidate("threshold", 3, 2, lambda: ThresholdPolicy(1.0))
        with pytest.raises(ValueError, match="static"):
            ElasticCandidate("static", 1, 2)

    def test_labels(self):
        static = ElasticCandidate("static", 3, 3)
        assert static.label == "static[3]"
        elastic = ElasticCandidate("threshold", 1, 4, lambda: ThresholdPolicy(1.0))
        assert elastic.label == "threshold[1..4]"

    def test_default_candidates_cover_all_policies(self):
        candidates = default_candidates(
            slo_p95_ttft_s=4.0, max_pods=5, requests_per_pod_per_s=1.0
        )
        assert [c.policy for c in candidates] == [
            "threshold", "target-utilization", "predictive",
        ]
        for c in candidates:
            assert (c.min_pods, c.max_pods) == (1, 5)
            assert c.make_policy() is not c.make_policy()  # fresh per call

    def test_default_candidates_threshold_reacts_early(self):
        (threshold, _, _) = default_candidates(
            slo_p95_ttft_s=8.0, max_pods=4, requests_per_pod_per_s=1.0
        )
        # The threshold policy holds a quarter of the end-to-end SLO.
        assert threshold.make_policy().slo_p95_ttft_s == pytest.approx(2.0)


class TestElasticRecommender:
    SLO = 20.0

    def _recommender(self, generator, **kw):
        defaults = dict(
            slo_p95_ttft_s=self.SLO,
            duration_s=60.0,
            decision_interval_s=10.0,
            cold_start_s=5.0,
            metrics_window_s=15.0,
        )
        defaults.update(kw)
        return ElasticRecommender(
            _deployment(generator),
            lambda: PoissonTraffic(3.0, rng=derive_rng(0, "elastic-test")),
            CostObjective(
                PRICING,
                LinearSLOPenalty(self.SLO, penalty_per_hour=100.0),
            ),
            **defaults,
        )

    def test_evaluate_static_has_flat_bill(self, generator):
        point = self._recommender(generator).evaluate(
            ElasticCandidate("static", 2, 2)
        )
        assert point.policy == "static"
        assert point.scale_events == 0
        # A static fleet bills exactly pods * wall time.
        assert point.pod_hours == pytest.approx(
            2 * point.result.time_s / 3600.0
        )
        assert point.total_cost == point.compute_cost + point.slo_penalty

    def test_sweep_replays_identical_traffic(self, generator):
        recommender = self._recommender(generator)
        a = recommender.evaluate(ElasticCandidate("static", 1, 1))
        b = recommender.evaluate(ElasticCandidate("static", 1, 1))
        assert a.arrivals == b.arrivals
        assert a.p95_ttft_s == b.p95_ttft_s
        assert a.pod_hours == b.pod_hours

    def test_static_ladder_bisects_to_smallest_slo_meeting_count(self, generator):
        recommender = self._recommender(generator)
        pods, ladder = recommender.peak_static_pods(search_max=6)
        assert 1 <= pods <= 6
        by_pods = {point.min_pods: point for point in ladder}
        # The answer's rung is always among the simulated points, the
        # ladder is sorted, and bisection beats the linear climb.
        assert sorted(by_pods) == [point.min_pods for point in ladder]
        assert pods in by_pods
        assert by_pods[pods].meets_slo or pods == 6
        # Every simulated rung below the answer breaches, every rung at
        # or above it meets — the monotone boundary bisection relies on.
        for n, point in by_pods.items():
            assert point.meets_slo == (n >= pods) or (
                n == pods == 6 and not point.meets_slo
            )

    def test_static_ladder_matches_linear_climb(self, generator):
        """Bisection returns the same answer a full linear ladder finds."""
        recommender = self._recommender(generator)
        pods, _ = recommender.peak_static_pods(search_max=6)
        from repro.recommendation.elastic import ElasticCandidate as EC

        linear = next(
            (
                n
                for n in range(1, 7)
                if recommender.evaluate(EC("static", n, n)).meets_slo
            ),
            6,
        )
        assert pods == linear

    def test_recommend_prefers_slo_meeting_cheapest(self, generator):
        rec = self._recommender(generator).recommend(search_max=6)
        assert isinstance(rec, ElasticRecommendation)
        assert rec.chosen in rec.curve
        assert rec.static in rec.curve
        meeting = [p for p in rec.curve if p.meets_slo]
        if meeting:
            assert rec.chosen.meets_slo
            assert rec.chosen.total_cost == min(p.total_cost for p in meeting)
        # Savings is measured against the static baseline, never negative
        # when the static point itself was eligible for selection.
        assert rec.savings >= 0 or not rec.static.meets_slo

    def test_pinned_static_pods_becomes_baseline(self, generator):
        rec = self._recommender(generator).recommend(
            candidates=[
                ElasticCandidate(
                    "threshold", 1, 3,
                    lambda: ThresholdPolicy(slo_p95_ttft_s=5.0),
                )
            ],
            static_pods=2,
        )
        assert rec.static.policy == "static"
        assert rec.static.min_pods == 2
        assert len(rec.curve) == 2
        assert rec.as_dict()["static"]["min_pods"] == 2

    def test_as_dict_schema(self, generator):
        rec = self._recommender(generator).recommend(static_pods=1)
        data = rec.as_dict()
        assert set(data) == {
            "profile", "slo_p95_ttft_s", "chosen", "static", "curve",
            "pruned", "savings", "savings_fraction", "meets_slo",
        }
        for point in data["curve"]:
            assert math.isfinite(point["pod_hours"])
            assert point["policy"]

    def test_validation(self, generator):
        with pytest.raises(ValueError, match="duration_s"):
            self._recommender(generator, duration_s=0.0)
        with pytest.raises(ValueError, match="slo"):
            self._recommender(generator, slo_p95_ttft_s=0.0)
        with pytest.raises(ValueError, match="static_pods"):
            self._recommender(generator).recommend(static_pods=0)
        with pytest.raises(ValueError, match="search_max"):
            self._recommender(generator).peak_static_pods(search_max=0)

    def test_rejects_closed_loop_traffic(self, generator):
        """Closed-loop arrivals adapt to each candidate's service rate,
        so the identical-traffic premise of the sweep cannot hold."""
        from repro.simulation import ClosedLoopTraffic

        with pytest.raises(ValueError, match="open-loop"):
            ElasticRecommender(
                _deployment(generator),
                lambda: ClosedLoopTraffic(8),
                CostObjective(PRICING, LinearSLOPenalty(self.SLO)),
                slo_p95_ttft_s=self.SLO,
                duration_s=60.0,
            )

    def test_rejects_rental_and_pricing_mode_mismatch(self, generator):
        """A hybrid sweep that rents at spot but prices its rentals (and
        its prune floor) at the objective's on-demand default is wrong
        by construction."""
        with pytest.raises(ValueError, match="'spot'.*'on-demand'"):
            ElasticRecommender(
                _deployment(generator),
                lambda: PoissonTraffic(1.0, rng=derive_rng(0, "mode-mismatch")),
                CostObjective(
                    PRICING,
                    LinearSLOPenalty(self.SLO),
                    cloud=aws_like_cloud_catalog(),
                ),
                slo_p95_ttft_s=self.SLO,
                duration_s=60.0,
                on_prem_pods=1,
                burst=BurstPolicy(mode="spot"),
            )


class TestHybridSweepPin:
    """A hybrid sweep end to end: a 2-pod owned tier, overflow rented
    from the catalog. The chosen point and its mixed bill were recorded
    at the session fixtures' seeds; a change to the capacity binding or
    the event loop that moves them is a behaviour change."""

    SLO = 10.0
    ON_PREM = 2

    def _recommend(self, generator, mode):
        return ElasticRecommender(
            _deployment(generator),
            lambda: DiurnalTraffic(
                2.5, rng=derive_rng(0, "hybrid-pin"), period_s=180.0
            ),
            CostObjective(
                PRICING,
                LinearSLOPenalty(self.SLO, penalty_per_hour=100.0),
                cloud=aws_like_cloud_catalog(),
                cloud_mode=mode,
            ),
            slo_p95_ttft_s=self.SLO,
            duration_s=180.0,
            decision_interval_s=10.0,
            cold_start_s=5.0,
            metrics_window_s=15.0,
            on_prem_pods=self.ON_PREM,
            burst=BurstPolicy(mode=mode, max_cloud_pods=3),
        ).recommend(search_max=6)

    @pytest.mark.parametrize(
        "mode, label, total_cost",
        [
            ("on-demand", "predictive[1..4]", 0.6651416535126915),
            ("spot", "predictive[1..4]", 0.4278830389972961),
        ],
    )
    def test_sweep_pinned(self, generator, mode, label, total_cost):
        rec = self._recommend(generator, mode)
        assert any(p.result.cloud_pod_seconds > 0 for p in rec.curve)
        static = [p for p in rec.curve if p.policy == "static"]
        assert static
        assert all(p.min_pods <= self.ON_PREM for p in static)
        assert rec.chosen.label == label
        assert rec.chosen.total_cost == total_cost


class TestToolElasticWiring:
    def test_recommend_elastic_returns_trade_curve(self, small_dataset, generator):
        from repro.models import LLM_CATALOG
        from repro.recommendation import (
            GPURecommendationTool,
            LatencyConstraints,
            PerfModelHyperparams,
        )
        from repro.recommendation.pilot import LLMPilotRecommender

        constraints = LatencyConstraints(nttft_s=0.1, itl_s=0.05)
        pilot = LLMPilotRecommender(
            constraints=constraints,
            hyperparams=PerfModelHyperparams(n_estimators=40),
        )
        pilot.fit(small_dataset.dataset.exclude_llm("Llama-2-13b"), dict(LLM_CATALOG))
        tool = GPURecommendationTool(
            perf_model=pilot.model_,
            pricing=PRICING,
            constraints=constraints,
            max_request_weight=generator.max_request_weight(),
        )
        from repro.hardware import default_profiles

        static = tool.recommend(LLM, default_profiles(), total_users=20)
        assert static.feasible
        options = ElasticOptions(
            generator=generator,
            traffic_factory=lambda: PoissonTraffic(
                2.0, rng=derive_rng(0, "tool-elastic")
            ),
            objective=CostObjective(PRICING, LinearSLOPenalty(20.0)),
            slo_p95_ttft_s=20.0,
            duration_s=40.0,
            max_batch_weight=WEIGHT,
            decision_interval_s=10.0,
            cold_start_s=5.0,
            metrics_window_s=15.0,
        )
        rec = tool.recommend(LLM, default_profiles(), total_users=20, elastic=options)
        assert isinstance(rec, ElasticRecommendation)
        assert rec.profile == static.profile
        assert rec.static.min_pods == static.n_pods
        assert rec.static_recommendation is not None
        assert rec.static_recommendation.profile == static.profile
        assert len(rec.curve) >= 4  # baseline + three default policies


needs_fork = pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="fork start method unavailable",
)


def _boom_policy():
    raise RuntimeError("boom")


def _hard_exit(_index):
    os._exit(13)


class TestParallelSweeps:
    """Process-parallel sweeps must be a pure performance knob: same
    bytes out as serial, candidate order preserved, and a dead worker
    surfaces as an error instead of a hang."""

    SLO = 20.0

    def _recommender(self, generator):
        return ElasticRecommender(
            _deployment(generator),
            lambda: PoissonTraffic(3.0, rng=derive_rng(0, "elastic-test")),
            CostObjective(
                PRICING, LinearSLOPenalty(self.SLO, penalty_per_hour=100.0)
            ),
            slo_p95_ttft_s=self.SLO,
            duration_s=60.0,
            decision_interval_s=10.0,
            cold_start_s=5.0,
            metrics_window_s=15.0,
        )

    @needs_fork
    def test_recommend_jobs_byte_identical(self, generator):
        serial = self._recommender(generator).recommend(search_max=4, jobs=1)
        parallel = self._recommender(generator).recommend(search_max=4, jobs=4)
        assert json.dumps(serial.as_dict(), sort_keys=True) == json.dumps(
            parallel.as_dict(), sort_keys=True
        )

    @needs_fork
    def test_evaluate_many_preserves_candidate_order(self, generator):
        recommender = self._recommender(generator)
        candidates = [ElasticCandidate("static", n, n) for n in (3, 1, 2)]
        candidates.append(
            ElasticCandidate(
                "threshold", 1, 2, lambda: ThresholdPolicy(slo_p95_ttft_s=5.0)
            )
        )
        points = recommender.evaluate_many(candidates, jobs=4)
        assert [(p.policy, p.min_pods, p.max_pods) for p in points] == [
            (c.policy, c.min_pods, c.max_pods) for c in candidates
        ]
        serial = [recommender.evaluate(c) for c in candidates]
        assert [p.total_cost for p in points] == [p.total_cost for p in serial]
        assert [p.p95_ttft_s for p in points] == [p.p95_ttft_s for p in serial]

    @needs_fork
    def test_worker_exception_propagates(self, generator):
        recommender = self._recommender(generator)
        bad = ElasticCandidate("threshold", 1, 2, _boom_policy)
        good = ElasticCandidate("static", 1, 1)
        with pytest.raises(RuntimeError, match="boom"):
            recommender.evaluate_many([bad, good], jobs=2)

    @needs_fork
    def test_worker_crash_surfaces_as_error(self):
        # A worker that dies outright (os._exit skips all cleanup) must
        # break the pool, not leave the parent waiting forever.
        with pytest.raises(BrokenProcessPool):
            fork_map(_hard_exit, [0, 1], jobs=2)

    def test_serial_fallback_avoids_pool(self):
        # jobs=1 and single-item inputs never fork, so even a would-be
        # crasher runs inline (guard: call a harmless fn instead).
        assert fork_map(lambda x: x * 2, [1, 2, 3], jobs=1) == [2, 4, 6]
        assert fork_map(lambda x: x + 1, [41], jobs=8) == [42]

    def test_jobs_none_and_zero_run_serial(self):
        assert fork_map(lambda x: -x, [1, 2], jobs=None) == [-1, -2]
        assert fork_map(lambda x: -x, [1, 2], jobs=0) == [-1, -2]


def _option(n_pods):
    pod_cost = PRICING.pod_cost(PROFILE)
    return ProfileAssessment(
        profile=PROFILE.name, umax=10, n_pods=n_pods,
        pod_cost=pod_cost, total_cost=pod_cost * n_pods,
    )


def _scaler(max_pods):
    return Autoscaler(
        ThresholdPolicy(slo_p95_ttft_s=1.0),
        AutoscaleConfig(
            decision_interval_s=10.0, max_pods=max_pods,
            cold_start_s=5.0, metrics_window_s=20.0,
        ),
    )


class TestFeedbackScheduler:
    def _inputs(self, generator):
        requests = [
            TenantRequest("quiet", (_option(1),)),
            TenantRequest("noisy", (_option(1),)),
        ]
        deployments = {
            "quiet": _deployment(generator, seed=1),
            "noisy": _deployment(generator, seed=2),
        }
        factories = {
            "quiet": lambda: PoissonTraffic(
                1.0, rng=derive_rng(0, "fb-test", "quiet")
            ),
            "noisy": lambda: BurstyTraffic(
                8.0, rng=derive_rng(0, "fb-test", "noisy"),
                mean_on_s=20.0, mean_off_s=20.0,
            ),
        }
        autoscalers = {"quiet": _scaler(3), "noisy": _scaler(6)}
        return requests, deployments, factories, autoscalers

    def test_contended_cluster_improves(self, generator):
        requests, deployments, factories, autoscalers = self._inputs(generator)
        scheduler = FeedbackScheduler(
            capacity={PROFILE.gpu.name: 3}, duration_s=90.0, max_iterations=3
        )
        outcome = scheduler.run(
            requests, deployments, factories, autoscalers=autoscalers
        )
        totals = outcome.contended_totals()
        assert totals[0] > 0, "scenario must actually contend"
        assert len(outcome.iterations) >= 2
        assert totals[-1] < totals[0]
        assert all(b <= a for a, b in zip(totals, totals[1:]))
        # Adjustments were recorded on the iterations that triggered them.
        assert outcome.iterations[0].adjustments
        # Placements never exceed the inventory.
        for it in outcome.iterations:
            held = sum(
                p.n_pods * parse_profile(p.profile).count for p in it.placements
            )
            assert held <= 3

    def test_feedback_loop_pinned(self, generator):
        # The contended loop end to end, recorded at the session
        # fixtures' seeds: a change to scheduling, adjustment or the
        # co-simulation that moves any of these is a behaviour change.
        requests, deployments, factories, autoscalers = self._inputs(generator)
        outcome = FeedbackScheduler(
            capacity={PROFILE.gpu.name: 3}, duration_s=90.0, max_iterations=3
        ).run(requests, deployments, factories, autoscalers=autoscalers)
        assert outcome.contended_totals() == [9, 0]
        assert outcome.converged
        assert [
            [(p.tenant, p.profile, p.n_pods, p.total_cost) for p in it.placements]
            for it in outcome.iterations
        ] == [
            [
                ("quiet", "1xA100-80GB", 1, 5.12),
                ("noisy", "1xA100-80GB", 1, 5.12),
            ],
            [
                ("quiet", "1xA100-80GB", 1, 5.12),
                ("noisy", "1xA100-80GB", 2, 10.24),
            ],
        ]
        assert [it.adjustments for it in outcome.iterations] == [
            {
                "noisy": "right-sized 1 -> 2 capped max_pods at 2",
                "quiet": "capped max_pods at 1",
            },
            {},
        ]
        assert [
            {
                t: (r.pod_seconds, r.ttft.p95_s)
                for t, r in it.result.results.items()
            }
            for it in outcome.iterations
        ] == [
            {
                "quiet": (90.0091902244786, 0.6779407028144656),
                "noisy": (170.0454172570432, 23.52525963501295),
            },
            {
                "quiet": (90.0091902244786, 0.6779407028144656),
                "noisy": (180.21382658238346, 16.93779291094719),
            },
        ]

    def test_uncontended_cluster_converges_immediately(self, generator):
        requests, deployments, factories, autoscalers = self._inputs(generator)
        scheduler = FeedbackScheduler(
            capacity={PROFILE.gpu.name: 32}, duration_s=60.0, max_iterations=3
        )
        outcome = scheduler.run(
            requests, deployments, factories, autoscalers=autoscalers
        )
        assert outcome.converged
        assert len(outcome.iterations) == 1
        assert outcome.contended_totals() == [0]
        assert outcome.iterations[0].adjustments == {}

    def test_nothing_fits_raises_before_simulating(self, generator):
        requests, deployments, factories, autoscalers = self._inputs(generator)
        scheduler = FeedbackScheduler(
            capacity={"A100-40GB": 3}, duration_s=60.0, max_iterations=3
        )
        with pytest.raises(ValueError) as err:
            scheduler.run(requests, deployments, factories, autoscalers=autoscalers)
        message = str(err.value)
        assert "{'A100-40GB': 3}" in message
        assert "['quiet', 'noisy']" in message

    def test_deterministic(self, generator):
        def run():
            requests, deployments, factories, autoscalers = self._inputs(generator)
            return FeedbackScheduler(
                capacity={PROFILE.gpu.name: 3}, duration_s=60.0, max_iterations=2
            ).run(requests, deployments, factories, autoscalers=autoscalers)

        a, b = run(), run()
        assert a.contended_totals() == b.contended_totals()
        assert [
            [(p.tenant, p.profile, p.n_pods) for p in it.placements]
            for it in a.iterations
        ] == [
            [(p.tenant, p.profile, p.n_pods) for p in it.placements]
            for it in b.iterations
        ]

    def test_static_tenants_have_no_scale_events(self, generator):
        requests, deployments, factories, _ = self._inputs(generator)
        scheduler = FeedbackScheduler(
            capacity={PROFILE.gpu.name: 2}, duration_s=30.0, max_iterations=2
        )
        outcome = scheduler.run(requests, deployments, factories)
        assert outcome.converged
        assert outcome.contended_totals() == [0]

    def test_validation(self):
        with pytest.raises(ValueError, match="duration_s"):
            FeedbackScheduler(capacity={}, duration_s=0.0)
        with pytest.raises(ValueError, match="max_iterations"):
            FeedbackScheduler(capacity={}, duration_s=1.0, max_iterations=0)



class _FreshArrivals(ElasticRecommender):
    """Regenerates the arrival stream per candidate instead of replaying
    the recorded one: the baseline the recording must equal."""

    def _traffic(self):
        return self.traffic_factory()


class TestArrivalCache:
    """The shared recorded arrival stream must be a pure performance
    detail: one factory call per sweep, byte-identical recommendations."""

    SLO = 2.0

    def _recommender(self, generator, fresh=False, factory=None):
        recommender_type = _FreshArrivals if fresh else ElasticRecommender
        return recommender_type(
            _deployment(generator),
            factory
            or (lambda: PoissonTraffic(3.0, rng=derive_rng(0, "elastic-test"))),
            CostObjective(
                PRICING, LinearSLOPenalty(self.SLO, penalty_per_hour=100.0)
            ),
            slo_p95_ttft_s=self.SLO,
            duration_s=60.0,
            decision_interval_s=10.0,
            cold_start_s=5.0,
            metrics_window_s=15.0,
        )

    def test_cached_recommendation_byte_identical_to_fresh(self, generator):
        cached = self._recommender(generator).recommend(search_max=4)
        fresh = self._recommender(generator, fresh=True).recommend(search_max=4)
        assert json.dumps(cached.as_dict(), sort_keys=True) == json.dumps(
            fresh.as_dict(), sort_keys=True
        )

    def test_factory_called_once_per_sweep(self, generator):
        calls = []

        def factory():
            calls.append(1)
            return PoissonTraffic(3.0, rng=derive_rng(0, "elastic-test"))

        recommender = self._recommender(generator, factory=factory)
        calls.clear()  # the constructor's open-loop probe does not count
        recommender.evaluate(ElasticCandidate("static", 1, 1))
        recommender.evaluate(ElasticCandidate("static", 2, 2))
        assert len(calls) == 1

    def test_evaluate_many_keeps_distinct_policy_closures(self, generator):
        """Same label and bounds, different policy factories: candidate
        equality ignores the closure, yet each candidate runs its own
        policy."""
        recommender = self._recommender(generator)
        a = ElasticCandidate(
            "threshold", 1, 2, lambda: ThresholdPolicy(slo_p95_ttft_s=0.5)
        )
        b = ElasticCandidate(
            "threshold", 1, 2, lambda: ThresholdPolicy(slo_p95_ttft_s=10.0)
        )
        assert a == b  # dataclass equality is blind to the closure
        tight, loose = recommender.evaluate_many([a, b])
        # The 0.5 s threshold scales out early: more pod-hours buy a
        # shorter tail than the 10 s threshold gets.
        assert tight.pod_hours > loose.pod_hours
        assert tight.p95_ttft_s < loose.p95_ttft_s


class TestCostPruning:
    SLO = 2.0

    def _recommender(self, generator):
        return ElasticRecommender(
            _deployment(generator),
            lambda: PoissonTraffic(3.0, rng=derive_rng(0, "elastic-test")),
            CostObjective(
                PRICING, LinearSLOPenalty(self.SLO, penalty_per_hour=100.0)
            ),
            slo_p95_ttft_s=self.SLO,
            duration_s=60.0,
            decision_interval_s=10.0,
            cold_start_s=5.0,
            metrics_window_s=15.0,
        )

    def test_prune_skips_dominated_candidate_and_records_it(
        self, generator, caplog
    ):
        expensive = ElasticCandidate(
            "threshold", 50, 60, lambda: ThresholdPolicy(slo_p95_ttft_s=0.5)
        )
        cheap = ElasticCandidate(
            "threshold", 1, 4, lambda: ThresholdPolicy(slo_p95_ttft_s=0.5)
        )
        with caplog.at_level("INFO", logger="repro.recommendation.elastic"):
            rec = self._recommender(generator).recommend(
                candidates=[expensive, cheap], static_pods=3, prune=True
            )
        assert rec.static.meets_slo  # the prune needs an incumbent
        assert [p.label for p in rec.pruned] == ["threshold[50..60]"]
        pruned = rec.pruned[0]
        assert pruned.cost_floor > pruned.incumbent_cost
        assert pruned.incumbent_label == rec.static.label
        # Never silent: the skip is logged and serialized.
        assert any("pruned candidate" in r.message for r in caplog.records)
        assert rec.as_dict()["pruned"][0]["label"] == "threshold[50..60]"
        # Only the surviving candidate was simulated.
        assert [p.label for p in rec.curve] == ["static[3]", "threshold[1..4]"]

    def test_prune_without_slo_meeting_incumbent_keeps_everything(
        self, generator
    ):
        # static[1] breaches this SLO, so there is no incumbent and
        # nothing may be pruned — an infeasible baseline proves nothing.
        expensive = ElasticCandidate(
            "threshold", 50, 60, lambda: ThresholdPolicy(slo_p95_ttft_s=0.5)
        )
        rec = self._recommender(generator).recommend(
            candidates=[expensive], static_pods=1, prune=True
        )
        assert not rec.static.meets_slo
        assert rec.pruned == []
        assert len(rec.curve) == 2

    def test_prune_off_by_default(self, generator):
        expensive = ElasticCandidate(
            "threshold", 50, 60, lambda: ThresholdPolicy(slo_p95_ttft_s=0.5)
        )
        rec = self._recommender(generator).recommend(
            candidates=[expensive], static_pods=3
        )
        assert rec.pruned == []
        assert len(rec.curve) == 2
