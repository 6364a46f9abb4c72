"""Bill pins: every place that prices tier pod-seconds, bit for bit.

Three code paths turn pod-seconds into dollars: the elastic sweep's
``CostObjective.compute_cost``, the cluster's ``ClusterResult.billing``
(and ``total_cost`` over it), and the scenario library's ``cost_usd``
observation. These tests pin each of them with exact float literals on
an on-prem fleet run, an on-prem cluster run and a mixed on-prem + spot
cloud cluster run from the curated library, so a refactor of the
pricing arithmetic cannot move a bill by even one ulp.
"""

import pytest

from repro.hardware.pricing import aws_like_pricing
from repro.hardware.profile import parse_profile
from repro.recommendation.elastic import CostObjective, LinearSLOPenalty
from repro.simulation import evaluate_expectations, load_by_name

PRICING = aws_like_pricing()


@pytest.fixture(scope="module")
def runs():
    out = {}
    for name in ("diurnal-retail", "noisy-neighbor", "spot-burst-hybrid"):
        spec = load_by_name(name)
        out[name] = (spec, spec.run())
    return out


def _library_cost(spec, result) -> float:
    (check,) = [
        c
        for c in evaluate_expectations(spec, result).checks
        if c.name == "cost_max_usd"
    ]
    return check.observed


def _compute_cost(result, tenant: str) -> float:
    objective = CostObjective(
        PRICING,
        LinearSLOPenalty(1.0),
        cloud=result.cloud_catalog,
        cloud_mode=result.cloud_modes.get(tenant, "on-demand"),
    )
    return objective.compute_cost(
        result.results[tenant], parse_profile(result.profiles[tenant])
    )


class TestOnPremFleet:
    def test_library_cost(self, runs):
        spec, result = runs["diurnal-retail"]
        assert result.pod_seconds == 628.5891954132852
        assert _library_cost(spec, result) == 0.1763541909353939

    def test_compute_cost(self, runs):
        spec, result = runs["diurnal-retail"]
        objective = CostObjective(PRICING, LinearSLOPenalty(1.0))
        cost = objective.compute_cost(result, parse_profile(spec.profile))
        assert cost == 0.1763541909353939


class TestOnPremCluster:
    BILLING = {
        "chat": {
            "on_prem": {
                "pod_seconds": 240.03597279198846,
                "hourly_per_pod": 1.01,
                "cost": 0.06734342569997454,
            },
            "cloud": None,
            "total": 0.06734342569997454,
        },
        "neighbor": {
            "on_prem": {
                "pod_seconds": 310.12270834357514,
                "hourly_per_pod": 1.01,
                "cost": 0.08700664872972524,
            },
            "cloud": None,
            "total": 0.08700664872972524,
        },
    }

    def test_billing(self, runs):
        _, result = runs["noisy-neighbor"]
        assert result.billing(PRICING) == self.BILLING
        assert result.total_cost(PRICING) == 0.15435007442969978

    def test_library_cost(self, runs):
        spec, result = runs["noisy-neighbor"]
        assert _library_cost(spec, result) == 0.15435007442969978

    def test_compute_cost(self, runs):
        _, result = runs["noisy-neighbor"]
        assert _compute_cost(result, "chat") == 0.06734342569997454
        assert _compute_cost(result, "neighbor") == 0.08700664872972524


class TestMixedCluster:
    BILLING = {
        "api": {
            "on_prem": {
                "pod_seconds": 228.241443740771,
                "hourly_per_pod": 1.01,
                "cost": 0.06403440504949408,
            },
            "cloud": {
                "pod_seconds": 291.3139075353093,
                "mode": "spot",
                "hourly_per_pod": 0.303,
                "cost": 0.02451892055088853,
            },
            "total": 0.0885533256003826,
        },
        "background": {
            "on_prem": {
                "pod_seconds": 120.00964996305608,
                "hourly_per_pod": 1.01,
                "cost": 0.033669374017412955,
            },
            "cloud": None,
            "total": 0.033669374017412955,
        },
    }

    def test_billing(self, runs):
        _, result = runs["spot-burst-hybrid"]
        assert result.billing(PRICING) == self.BILLING
        assert result.total_cost(PRICING) == 0.12222269961779555

    def test_library_cost(self, runs):
        spec, result = runs["spot-burst-hybrid"]
        assert _library_cost(spec, result) == 0.12222269961779555

    def test_compute_cost(self, runs):
        _, result = runs["spot-burst-hybrid"]
        assert result.results["api"].cloud_pod_seconds == 291.3139075353093
        assert _compute_cost(result, "api") == 0.0885533256003826
        assert _compute_cost(result, "background") == 0.033669374017412955
