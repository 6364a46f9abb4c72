"""End-to-end integration tests across the full pipeline."""

from repro.baselines.base import BaseRecommender
from repro.characterization import PerfDataset
from repro.cluster import ClusterInventory, MultiTenantScheduler, TenantRequest
from repro.evaluation.harness import EvaluationConfig, evaluate_method
from repro.hardware import aws_like_pricing, default_profiles
from repro.models import LLM_CATALOG, get_llm
from repro.recommendation import (
    GPURecommendationTool,
    LatencyConstraints,
    PerfModelHyperparams,
)
from repro.recommendation.pilot import LLMPilotRecommender

CONSTRAINTS = LatencyConstraints(nttft_s=0.1, itl_s=0.05)


class TestFullPipeline:
    def test_characterize_persist_train_recommend(
        self, small_dataset, generator, tmp_path
    ):
        """The complete admin->user workflow through disk persistence."""
        # 1. Admin persists the characterization dataset.
        path = str(tmp_path / "dataset.npz")
        small_dataset.dataset.save(path)
        dataset = PerfDataset.load(path)
        assert len(dataset) == len(small_dataset.dataset)

        # 2. User trains on historical LLMs (excluding the target).
        target = "Llama-2-13b"
        train = dataset.exclude_llm(target)
        pilot = LLMPilotRecommender(
            constraints=CONSTRAINTS,
            hyperparams=PerfModelHyperparams(n_estimators=40),
            user_counts=(1, 4, 16, 64),
        )
        pilot.fit(train, dict(LLM_CATALOG))

        # 3. Recommendation through the public tool.
        tool = GPURecommendationTool(
            perf_model=pilot.model_,
            pricing=aws_like_pricing(),
            constraints=CONSTRAINTS,
            max_request_weight=generator.max_request_weight(),
            user_counts=(1, 4, 16, 64),
        )
        rec = tool.recommend(get_llm(target), default_profiles(), total_users=50)
        assert rec.feasible
        assert rec.total_cost > 0

        # 4. Recommendation feeds straight into multi-tenant scheduling.
        request = TenantRequest.from_recommendation("tenant", rec)
        inventory = ClusterInventory(
            capacity={g: 16 for g in ("H100-80GB", "A100-40GB", "A10-24GB",
                                      "T4-16GB", "V100-16GB")}
        )
        schedule = MultiTenantScheduler(inventory).schedule_greedy([request])
        assert schedule.n_placed == 1
        assert schedule.placements[0].total_cost <= rec.total_cost + 1e-9

    def test_evaluation_is_deterministic(self, small_dataset, generator):
        cfg = EvaluationConfig(
            total_users=50,
            user_counts=(1, 4, 16, 64),
            max_request_weight=generator.max_request_weight(),
        )

        def factory():
            return LLMPilotRecommender(
                constraints=cfg.constraints,
                hyperparams=PerfModelHyperparams(n_estimators=30),
                user_counts=(1, 4, 16, 64),
            )

        a = evaluate_method(factory, small_dataset.dataset, dict(LLM_CATALOG), config=cfg)
        b = evaluate_method(factory, small_dataset.dataset, dict(LLM_CATALOG), config=cfg)
        assert a.success_rate == b.success_rate
        assert a.so == b.so
        assert [o.recommended_profile for o in a.outcomes] == [
            o.recommended_profile for o in b.outcomes
        ]

    def test_recommender_interface_contract(self):
        """Every recommender subclass advertises the harness contract."""
        from repro.baselines import (
            MorphlingRecommender,
            PARISRecommender,
            PerfNetRecommender,
            PerfNetV2Recommender,
            RFRecommender,
            SelectaRecommender,
            StaticRecommender,
        )

        for cls in (
            RFRecommender,
            PARISRecommender,
            SelectaRecommender,
            MorphlingRecommender,
            PerfNetRecommender,
            PerfNetV2Recommender,
            StaticRecommender,
            LLMPilotRecommender,
        ):
            assert issubclass(cls, BaseRecommender)
            assert isinstance(cls.name, str) and cls.name
            assert isinstance(cls.requires_reference, bool)
