"""Tests for the multi-tenant cluster scheduler (paper's next-step
extension) and the analytic steady-state estimator."""

import pytest

from repro.cluster import (
    ClusterInventory,
    MultiTenantScheduler,
    TenantRequest,
)
from repro.characterization import BatchWeightTuner, run_load_test
from repro.hardware import parse_profile
from repro.inference import ContinuousBatchingEngine, SteadyStateEstimator
from repro.models import get_llm
from repro.recommendation.recommender import ProfileAssessment, Recommendation


def _option(profile, pods, cost, umax=8):
    return ProfileAssessment(
        profile=profile, umax=umax, n_pods=pods, pod_cost=cost / pods, total_cost=cost
    )


class TestInventory:
    def test_allocate_release_roundtrip(self):
        inv = ClusterInventory(capacity={"A100-40GB": 8})
        inv.allocate("2xA100-40GB", 2)  # 4 GPUs
        assert inv.available("A100-40GB") == 4
        inv.release("2xA100-40GB", 2)
        assert inv.available("A100-40GB") == 8

    def test_over_allocation_rejected(self):
        inv = ClusterInventory(capacity={"T4-16GB": 3})
        with pytest.raises(ValueError, match="cannot allocate"):
            inv.allocate("4xT4-16GB", 1)

    def test_over_release_rejected(self):
        inv = ClusterInventory(capacity={"T4-16GB": 4})
        with pytest.raises(ValueError, match="releasing"):
            inv.release("1xT4-16GB", 1)

    def test_negative_capacity_rejected(self):
        with pytest.raises(ValueError):
            ClusterInventory(capacity={"T4-16GB": -1})

    def test_utilization(self):
        inv = ClusterInventory(capacity={"T4-16GB": 4, "H100-80GB": 2})
        inv.allocate("1xT4-16GB", 2)
        util = inv.utilization()
        assert util["T4-16GB"] == pytest.approx(0.5)
        assert util["H100-80GB"] == 0.0


class TestTenantRequest:
    def test_from_recommendation_filters_and_sorts(self):
        rec = Recommendation(
            profile="1xT4-16GB",
            n_pods=2,
            total_cost=1.06,
            assessments=[
                _option("1xA100-40GB", 1, 4.10),
                _option("1xT4-16GB", 2, 1.06),
                ProfileAssessment(
                    profile="1xV100-16GB", umax=0, n_pods=0, pod_cost=3.06,
                    total_cost=float("inf"),
                ),
            ],
        )
        req = TenantRequest.from_recommendation("tenant-a", rec)
        assert [o.profile for o in req.options] == ["1xT4-16GB", "1xA100-40GB"]


class TestScheduler:
    def test_greedy_takes_cheapest_fitting(self):
        inv = ClusterInventory(capacity={"T4-16GB": 2, "A100-40GB": 4})
        sched = MultiTenantScheduler(inv)
        tenants = [
            TenantRequest("a", (_option("1xT4-16GB", 2, 1.06),
                                _option("1xA100-40GB", 1, 4.10))),
            TenantRequest("b", (_option("1xT4-16GB", 2, 1.06),
                                _option("1xA100-40GB", 1, 4.10))),
        ]
        result = sched.schedule_greedy(tenants)
        assert result.n_placed == 2
        # First tenant exhausts T4s; second falls back to A100.
        assert result.placements[0].profile == "1xT4-16GB"
        assert result.placements[1].profile == "1xA100-40GB"

    def test_greedy_unplaced_when_no_capacity(self):
        inv = ClusterInventory(capacity={"T4-16GB": 1})
        sched = MultiTenantScheduler(inv)
        tenants = [
            TenantRequest("a", (_option("1xT4-16GB", 1, 0.53),)),
            TenantRequest("b", (_option("1xT4-16GB", 1, 0.53),)),
        ]
        result = sched.schedule_greedy(tenants)
        assert result.n_placed == 1
        assert result.unplaced == ["b"]

    def test_best_fit_beats_greedy_on_packing(self):
        # Greedy gives tenant a the cheap big allocation and strands b;
        # best-fit places both.
        def tenants():
            return [
                TenantRequest("a", (_option("4xT4-16GB", 1, 2.12),
                                    _option("1xA100-40GB", 1, 4.10))),
                TenantRequest("b", (_option("4xT4-16GB", 1, 2.12),)),
            ]

        greedy = MultiTenantScheduler(
            ClusterInventory(capacity={"T4-16GB": 4, "A100-40GB": 1})
        ).schedule_greedy(tenants())
        assert greedy.n_placed == 1

        best = MultiTenantScheduler(
            ClusterInventory(capacity={"T4-16GB": 4, "A100-40GB": 1})
        ).schedule_best_fit(tenants())
        assert best.n_placed == 2
        assert best.unplaced == []

    def test_best_fit_minimizes_cost_among_max_placements(self):
        inv = ClusterInventory(capacity={"T4-16GB": 8, "A100-40GB": 8})
        sched = MultiTenantScheduler(inv)
        tenants = [
            TenantRequest("a", (_option("1xA100-40GB", 1, 4.10),
                                _option("1xT4-16GB", 2, 1.06))),
        ]
        result = sched.schedule_best_fit(tenants)
        assert result.n_placed == 1
        assert result.total_cost == pytest.approx(1.06)

    def test_best_fit_commits_inventory(self):
        inv = ClusterInventory(capacity={"T4-16GB": 2})
        sched = MultiTenantScheduler(inv)
        sched.schedule_best_fit(
            [TenantRequest("a", (_option("1xT4-16GB", 2, 1.06),))]
        )
        assert inv.available("T4-16GB") == 0


class TestSteadyStateEstimator:
    @pytest.fixture(scope="class")
    def setup(self, generator):
        llm = get_llm("Llama-2-13b")
        profile = parse_profile("1xA100-40GB")
        tuned = BatchWeightTuner(llm, profile).tune()
        est = SteadyStateEstimator(
            llm, profile, tuned.max_batch_weight, generator, seed=1
        )
        return llm, profile, tuned.max_batch_weight, est

    def test_saturation_flag(self, setup):
        _, _, _, est = setup
        assert not est.estimate(1).saturated
        assert est.estimate(128).saturated

    def test_throughput_monotone_until_saturation(self, setup):
        _, _, _, est = setup
        tputs = [est.estimate(u).throughput_tokens_per_s for u in (1, 2, 4, 8)]
        assert all(b >= a for a, b in zip(tputs, tputs[1:]))

    def test_ttft_grows_past_saturation(self, setup):
        _, _, _, est = setup
        assert est.estimate(128).ttft_s > 5 * est.estimate(1).ttft_s

    def test_agrees_with_simulator_at_saturation(self, setup, generator):
        """The analytic fast path must land within 2x of the event sim."""
        llm, profile, weight, est = setup
        engine = ContinuousBatchingEngine(llm, profile, max_batch_weight=weight, seed=2)
        sim = run_load_test(engine, generator, 64, duration_s=60.0, warmup_s=10.0, seed=2)
        ana = est.estimate(64)
        ratio_tput = ana.throughput_tokens_per_s / sim.throughput_tokens_per_s
        ratio_itl = ana.itl_s / sim.itl_median_s
        assert 0.5 < ratio_tput < 2.0, f"throughput ratio {ratio_tput:.2f}"
        assert 0.5 < ratio_itl < 2.0, f"ITL ratio {ratio_itl:.2f}"

    def test_validation(self, setup, generator):
        llm, profile, weight, est = setup
        with pytest.raises(ValueError):
            est.estimate(0)
        with pytest.raises(ValueError):
            SteadyStateEstimator(llm, profile, 1, generator)
