"""GPU recommendation per the paper's Eqs. (1)-(3).

Given latency predictions for an unseen LLM across GPU profiles and user
counts, the recommender computes for each profile the maximum per-pod
user count umax under the SLA constraints (Eq. 3 — latencies must hold
for *all* user counts up to umax), the pod count n = ceil(U / umax)
(Eq. 2), and picks the profile minimizing n * c(G) (Eq. 1).
"""

from __future__ import annotations

from collections.abc import Callable, Sequence
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from repro.characterization.feasibility import check_feasibility
from repro.characterization.loadtest import DEFAULT_USER_COUNTS
from repro.hardware.pricing import PricingTable
from repro.hardware.profile import GPUProfile
from repro.models.llm import LLMSpec
from repro.recommendation.weights import LatencyConstraints

if TYPE_CHECKING:
    from repro.recommendation.elastic import ElasticOptions, ElasticRecommendation

__all__ = [
    "Recommendation",
    "ProfileAssessment",
    "umax_from_latencies",
    "recommend_from_predictions",
    "GPURecommendationTool",
]

#: Signature of a latency predictor: (llm, profile_name, user_counts) ->
#: (nTTFT array, ITL array).
LatencyPredictor = Callable[
    [LLMSpec, str, Sequence[int]], tuple[np.ndarray, np.ndarray]
]


@dataclass(frozen=True)
class ProfileAssessment:
    """Per-profile intermediate results of a recommendation."""

    profile: str
    umax: int
    n_pods: int
    pod_cost: float
    total_cost: float


@dataclass
class Recommendation:
    """Final output of the recommendation tool."""

    profile: str | None
    n_pods: int
    total_cost: float
    assessments: list[ProfileAssessment] = field(default_factory=list)

    @property
    def feasible(self) -> bool:
        return self.profile is not None


def umax_from_latencies(
    user_counts: Sequence[int],
    nttft: np.ndarray,
    itl: np.ndarray,
    constraints: LatencyConstraints,
) -> int:
    """Eq. (3): the largest u such that BOTH constraints hold for every
    u' <= u. Returns 0 when even the smallest user count violates."""
    order = np.argsort(user_counts)
    umax = 0
    for k in order:
        l1, l2 = nttft[k], itl[k]
        if not (np.isfinite(l1) and np.isfinite(l2)):
            break
        if l1 <= constraints.nttft_s and l2 <= constraints.itl_s:
            umax = int(user_counts[k])
        else:
            break
    return umax


def recommend_from_predictions(
    predictor: LatencyPredictor,
    llm: LLMSpec,
    profiles: Sequence[str],
    pricing: PricingTable,
    constraints: LatencyConstraints,
    total_users: int,
    user_counts: Sequence[int] = DEFAULT_USER_COUNTS,
) -> Recommendation:
    """Apply Eqs. (1)-(3) on top of any latency predictor."""
    if total_users < 1:
        raise ValueError("total_users must be >= 1")
    from repro.hardware.profile import parse_profile

    assessments = []
    best: ProfileAssessment | None = None
    for name in profiles:
        nttft, itl = predictor(llm, name, list(user_counts))
        umax = umax_from_latencies(list(user_counts), nttft, itl, constraints)
        pod_cost = pricing.pod_cost(parse_profile(name))
        if umax < 1:
            assessments.append(
                ProfileAssessment(
                    profile=name,
                    umax=0,
                    n_pods=0,
                    pod_cost=pod_cost,
                    total_cost=float("inf"),
                )
            )
            continue
        n_pods = int(np.ceil(total_users / umax))
        total_cost = n_pods * pod_cost
        a = ProfileAssessment(
            profile=name,
            umax=umax,
            n_pods=n_pods,
            pod_cost=pod_cost,
            total_cost=total_cost,
        )
        assessments.append(a)
        if best is None or a.total_cost < best.total_cost or (
            a.total_cost == best.total_cost and a.n_pods < best.n_pods
        ):
            best = a
    if best is None:
        return Recommendation(
            profile=None, n_pods=0, total_cost=float("inf"), assessments=assessments
        )
    return Recommendation(
        profile=best.profile,
        n_pods=best.n_pods,
        total_cost=best.total_cost,
        assessments=assessments,
    )


class GPURecommendationTool:
    """LLM-Pilot's online recommendation front end (paper Fig 5).

    Combines a fitted :class:`PerformanceModel` with static feasibility
    screening (profiles whose memory cannot host the LLM are never
    recommended — a pure datasheet computation, no measurements of the
    unseen LLM) and the pricing table.
    """

    def __init__(
        self,
        perf_model,
        pricing: PricingTable,
        constraints: LatencyConstraints,
        max_request_weight: int,
        user_counts: Sequence[int] = DEFAULT_USER_COUNTS,
    ) -> None:
        self.perf_model = perf_model
        self.pricing = pricing
        self.constraints = constraints
        self.max_request_weight = max_request_weight
        self.user_counts = list(user_counts)

    def feasible_profiles(
        self, llm: LLMSpec, profiles: Sequence[GPUProfile]
    ) -> list[str]:
        """Datasheet-level screening of the candidate profiles."""
        return [
            p.name
            for p in profiles
            if check_feasibility(llm, p, self.max_request_weight).feasible
        ]

    def recommend(
        self,
        llm: LLMSpec,
        profiles: Sequence[GPUProfile],
        total_users: int,
        elastic: "ElasticOptions | None" = None,
    ):
        """Recommend hardware; with ``elastic``, also how to run it.

        The static path (Eqs. 1-3) returns a :class:`Recommendation` —
        one profile and a fixed pod count sized for ``total_users``.
        With ``elastic`` set (an
        :class:`~repro.recommendation.elastic.ElasticOptions`), that
        fixed count becomes the peak-sized baseline of an
        autoscaler-in-the-loop sweep on the recommended profile, and an
        :class:`~repro.recommendation.elastic.ElasticRecommendation` is
        returned instead — carrying the (policy, min_pods, max_pods)
        choice, the full trade curve and the savings vs the static
        answer. An infeasible static recommendation is returned as-is
        (there is no profile to simulate on).
        """
        names = self.feasible_profiles(llm, profiles)
        rec = recommend_from_predictions(
            predictor=self.perf_model.predict,
            llm=llm,
            profiles=names,
            pricing=self.pricing,
            constraints=self.constraints,
            total_users=total_users,
            user_counts=self.user_counts,
        )
        if elastic is None or not rec.feasible:
            return rec
        return self._recommend_elastic(llm, rec, elastic)

    def _recommend_elastic(
        self, llm: LLMSpec, rec: Recommendation, opts: "ElasticOptions"
    ) -> "ElasticRecommendation":
        # Deployment pulls in the engine/cluster stack; keep the static
        # recommendation path importable without it.
        from repro.characterization import BatchWeightTuner
        from repro.cluster.deployment import Deployment
        from repro.hardware.profile import parse_profile
        from repro.recommendation.elastic import ElasticRecommender

        profile = parse_profile(rec.profile)
        weight = opts.max_batch_weight
        if weight is None:
            weight = BatchWeightTuner(llm, profile).tune().max_batch_weight
        deployment = Deployment(
            llm=llm,
            profile=profile,
            n_pods=rec.n_pods,
            max_batch_weight=weight,
            generator=opts.generator,
            seed=opts.seed,
        )
        recommender = ElasticRecommender(
            deployment,
            opts.traffic_factory,
            opts.objective,
            slo_p95_ttft_s=opts.slo_p95_ttft_s,
            duration_s=opts.duration_s,
            decision_interval_s=opts.decision_interval_s,
            cold_start_s=opts.cold_start_s,
            metrics_window_s=opts.metrics_window_s,
        )
        out = recommender.recommend(static_pods=rec.n_pods)
        out.static_recommendation = rec
        return out
