"""Tests for the deployment layer: load balancing and pod scaling."""

import pytest

from repro.cluster import Deployment
from repro.hardware import parse_profile
from repro.models import get_llm
from repro.utils.stats import relative_std


class TestDeployment:
    @pytest.fixture()
    def deployment(self, generator):
        return Deployment(
            llm=get_llm("Llama-2-13b"),
            profile=parse_profile("1xA100-40GB"),
            n_pods=2,
            max_batch_weight=12_000,
            generator=generator,
            seed=3,
        )

    def test_per_pod_results(self, deployment):
        res = deployment.run_load_test(total_users=8, duration_s=10.0)
        assert res.n_pods == 2
        assert len(res.per_pod) == 2
        assert res.total_throughput == pytest.approx(res.throughput_per_pod.sum())

    def test_scale_copy(self, deployment):
        scaled = deployment.scale(4)
        assert scaled.n_pods == 4
        assert deployment.n_pods == 2

    def test_near_perfect_scaling(self, generator):
        """Table I: same users-per-pod ratio => similar per-pod throughput."""
        base = Deployment(
            llm=get_llm("Llama-2-13b"),
            profile=parse_profile("1xH100-80GB"),
            n_pods=1,
            max_batch_weight=60_000,
            generator=generator,
            seed=11,
        )
        r1 = base.run_load_test(total_users=4, duration_s=20.0)
        r2 = base.scale(2).run_load_test(total_users=8, duration_s=20.0)
        per_pod_1 = r1.mean_throughput_per_pod
        per_pod_2 = r2.mean_throughput_per_pod
        assert abs(per_pod_1 - per_pod_2) / per_pod_1 < 0.25

    def test_rsd_small_across_pods(self, generator):
        dep = Deployment(
            llm=get_llm("Llama-2-13b"),
            profile=parse_profile("1xH100-80GB"),
            n_pods=4,
            max_batch_weight=60_000,
            generator=generator,
            seed=13,
        )
        res = dep.run_load_test(total_users=32, duration_s=20.0)
        assert relative_std(res.throughput_per_pod) < 0.15

    def test_zero_user_pods_skipped(self, deployment):
        res = deployment.run_load_test(total_users=1, duration_s=5.0)
        assert len(res.per_pod) == 1

    def test_invalid_args(self, generator):
        with pytest.raises(ValueError):
            Deployment(
                llm=get_llm("Llama-2-13b"),
                profile=parse_profile("1xA100-40GB"),
                n_pods=0,
                max_batch_weight=10_000,
                generator=generator,
            )
        dep = Deployment(
            llm=get_llm("Llama-2-13b"),
            profile=parse_profile("1xA100-40GB"),
            n_pods=1,
            max_batch_weight=10_000,
            generator=generator,
        )
        with pytest.raises(ValueError):
            dep.run_load_test(total_users=0)
