"""Tests for the GPU recommendation tool: features, Eq. (4) weights,
performance model, Eqs. (1)-(3) and HP tuning."""

import numpy as np
import pytest

from repro.characterization import PerfDataset, PerfRecord
from repro.hardware import aws_like_pricing, default_profiles, parse_profile
from repro.models import LLM_CATALOG, get_llm
from repro.recommendation import (
    FeatureSpace,
    LatencyConstraints,
    PerformanceModel,
    PerfModelHyperparams,
    constraint_proximity_weights,
    recommend_from_predictions,
    tune_performance_model,
    umax_from_latencies,
    GPURecommendationTool,
)
from repro.recommendation.pilot import LLMPilotRecommender


CONSTRAINTS = LatencyConstraints(nttft_s=0.1, itl_s=0.05)


class TestFeatureSpace:
    def test_fixed_feature_order(self):
        space = FeatureSpace.fit(list(LLM_CATALOG.values()))
        a = space.transform_one(get_llm("Llama-2-7b"), "1xT4-16GB", 4)
        b = space.transform_one(get_llm("Llama-2-7b"), "1xT4-16GB", 4)
        np.testing.assert_array_equal(a, b)
        assert len(a) == space.n_features

    def test_users_feature_index(self):
        space = FeatureSpace.fit(list(LLM_CATALOG.values()))
        x4 = space.transform_one(get_llm("Llama-2-7b"), "1xT4-16GB", 4)
        x8 = space.transform_one(get_llm("Llama-2-7b"), "1xT4-16GB", 8)
        diff = np.nonzero(x4 != x8)[0]
        assert diff.tolist() == [space.users_feature_index]

    def test_unknown_model_type_coded_negative(self):
        space = FeatureSpace.fit([get_llm("Llama-2-7b")])
        x = space.transform_one(get_llm("google/flan-t5-xl"), "1xT4-16GB", 1)
        type_idx = space.feature_names.index("llm_type_code")
        assert x[type_idx] == -1

    def test_profile_accepts_object_or_name(self):
        space = FeatureSpace.fit([get_llm("Llama-2-7b")])
        a = space.transform_one(get_llm("Llama-2-7b"), "2xA10-24GB", 2)
        b = space.transform_one(get_llm("Llama-2-7b"), parse_profile("2xA10-24GB"), 2)
        np.testing.assert_array_equal(a, b)

    def test_empty_llms_rejected(self):
        with pytest.raises(ValueError):
            FeatureSpace.fit([])


def _mk_dataset(rows):
    """rows: (llm, profile, users, nttft, itl)"""
    ds = PerfDataset()
    for llm, prof, users, nttft, itl in rows:
        ds.add(
            PerfRecord(
                llm=llm, profile=prof, gpu_name=prof.split("x")[1],
                gpu_count=int(prof.split("x")[0]), concurrent_users=users,
                max_batch_weight=10_000, ttft_median_s=nttft * 100,
                nttft_median_s=nttft, itl_median_s=itl,
                throughput_tokens_per_s=100.0, e2e_median_s=1.0,
            )
        )
    return ds


class TestWeights:
    def test_point_on_constraint_gets_weight_one(self):
        ds = _mk_dataset([
            ("m", "1xT4-16GB", 1, 0.1, 0.05),   # exactly on both constraints
            ("m", "1xT4-16GB", 2, 0.2, 0.10),
        ])
        w = constraint_proximity_weights(ds, CONSTRAINTS)
        assert w[0] == pytest.approx(1.0)
        assert w[1] == pytest.approx(0.0)

    def test_weights_in_unit_interval(self):
        ds = _mk_dataset([
            ("m", "1xT4-16GB", u, 0.01 * u, 0.01 + 0.005 * u) for u in (1, 2, 4, 8)
        ])
        w = constraint_proximity_weights(ds, CONSTRAINTS)
        assert np.all((0 <= w) & (w <= 1))

    def test_normalization_is_per_group(self):
        ds = _mk_dataset([
            ("m", "1xT4-16GB", 1, 0.1, 0.05),
            ("m", "1xT4-16GB", 2, 0.3, 0.2),
            ("m", "2xT4-16GB", 1, 0.1, 0.05),
            ("m", "2xT4-16GB", 2, 5.0, 3.0),  # far away, different group
        ])
        w = constraint_proximity_weights(ds, CONSTRAINTS)
        # The near-constraint point of each group gets weight 1 regardless
        # of the other group's spread.
        assert w[0] == pytest.approx(1.0)
        assert w[2] == pytest.approx(1.0)

    def test_degenerate_group_all_ones(self):
        ds = _mk_dataset([("m", "1xT4-16GB", 1, 0.1, 0.05)])
        w = constraint_proximity_weights(ds, CONSTRAINTS)
        assert w[0] == pytest.approx(1.0)

    def test_constraint_validation(self):
        with pytest.raises(ValueError):
            LatencyConstraints(nttft_s=0.0, itl_s=0.05)


class TestUmax:
    def test_all_satisfied_returns_max(self):
        users = [1, 2, 4, 8]
        nttft = np.array([0.01, 0.02, 0.03, 0.04])
        itl = np.array([0.01, 0.01, 0.02, 0.03])
        assert umax_from_latencies(users, nttft, itl, CONSTRAINTS) == 8

    def test_violation_stops_scan(self):
        users = [1, 2, 4, 8]
        nttft = np.array([0.01, 0.02, 0.20, 0.01])  # violates at 4
        itl = np.array([0.01, 0.01, 0.01, 0.01])
        assert umax_from_latencies(users, nttft, itl, CONSTRAINTS) == 2

    def test_violation_at_first_user_returns_zero(self):
        users = [1, 2]
        nttft = np.array([0.5, 0.5])
        itl = np.array([0.01, 0.01])
        assert umax_from_latencies(users, nttft, itl, CONSTRAINTS) == 0

    def test_requires_all_smaller_counts_to_hold(self):
        """Eq. (3): satisfaction must hold for every u' <= u."""
        users = [1, 2, 4]
        nttft = np.array([0.01, 0.9, 0.01])
        itl = np.array([0.01, 0.01, 0.01])
        assert umax_from_latencies(users, nttft, itl, CONSTRAINTS) == 1

    def test_unsorted_input_handled(self):
        users = [8, 1, 4, 2]
        nttft = np.array([0.04, 0.01, 0.03, 0.02])
        itl = np.full(4, 0.01)
        assert umax_from_latencies(users, nttft, itl, CONSTRAINTS) == 8

    def test_nan_prediction_stops(self):
        users = [1, 2]
        nttft = np.array([0.01, np.nan])
        itl = np.array([0.01, 0.01])
        assert umax_from_latencies(users, nttft, itl, CONSTRAINTS) == 1


class TestRecommendFromPredictions:
    def _predictor(self, table):
        def predict(llm, profile, user_counts):
            nttft, itl = table[profile]
            return np.array(nttft), np.array(itl)
        return predict

    def test_picks_cheapest_satisfying(self):
        pricing = aws_like_pricing()
        # T4 supports 2 users/pod; A100 supports 8 users/pod.
        table = {
            "1xT4-16GB": ([0.01, 0.01, 0.2], [0.01, 0.01, 0.2]),
            "1xA100-40GB": ([0.01, 0.01, 0.01], [0.01, 0.01, 0.01]),
        }
        rec = recommend_from_predictions(
            self._predictor(table), get_llm("Llama-2-7b"),
            ["1xT4-16GB", "1xA100-40GB"], pricing, CONSTRAINTS,
            total_users=16, user_counts=[1, 2, 8],
        )
        # T4: umax 2 -> 8 pods * 0.53 = 4.24; A100: umax 8 -> 2 pods * 4.10 = 8.20.
        assert rec.profile == "1xT4-16GB"
        assert rec.n_pods == 8
        assert rec.total_cost == pytest.approx(8 * 0.53)

    def test_infeasible_everywhere(self):
        table = {"1xT4-16GB": ([9.0], [9.0])}
        rec = recommend_from_predictions(
            self._predictor(table), get_llm("Llama-2-7b"), ["1xT4-16GB"],
            aws_like_pricing(), CONSTRAINTS, total_users=10, user_counts=[1],
        )
        assert not rec.feasible
        assert rec.profile is None

    def test_assessments_cover_all_profiles(self):
        table = {
            "1xT4-16GB": ([9.0], [9.0]),
            "1xA100-40GB": ([0.01], [0.01]),
        }
        rec = recommend_from_predictions(
            self._predictor(table), get_llm("Llama-2-7b"),
            ["1xT4-16GB", "1xA100-40GB"], aws_like_pricing(), CONSTRAINTS,
            total_users=10, user_counts=[1],
        )
        assert len(rec.assessments) == 2
        by_name = {a.profile: a for a in rec.assessments}
        assert by_name["1xT4-16GB"].umax == 0
        assert by_name["1xA100-40GB"].n_pods == 10

    def test_invalid_users(self):
        with pytest.raises(ValueError):
            recommend_from_predictions(
                self._predictor({}), get_llm("Llama-2-7b"), [],
                aws_like_pricing(), CONSTRAINTS, total_users=0,
            )


class TestPerformanceModel:
    def test_fit_predict_on_small_dataset(self, small_dataset):
        ds = small_dataset.dataset
        lookup = dict(LLM_CATALOG)
        space = FeatureSpace.fit([lookup[m] for m in ds.llms()])
        model = PerformanceModel(
            feature_space=space, constraints=CONSTRAINTS,
            hyperparams=PerfModelHyperparams(n_estimators=40),
        ).fit(ds, lookup)
        nttft, itl = model.predict(get_llm("Llama-2-13b"), "1xA100-40GB", [1, 4, 16, 64])
        assert nttft.shape == (4,)
        assert np.all(np.isfinite(nttft)) and np.all(np.isfinite(itl))
        assert np.all(itl > 0)

    def test_monotone_in_users(self, small_dataset):
        ds = small_dataset.dataset
        lookup = dict(LLM_CATALOG)
        space = FeatureSpace.fit([lookup[m] for m in ds.llms()])
        model = PerformanceModel(
            feature_space=space, constraints=CONSTRAINTS,
            hyperparams=PerfModelHyperparams(n_estimators=60),
        ).fit(ds, lookup)
        for prof in ds.profiles():
            nttft, itl = model.predict(
                get_llm("google/flan-t5-xxl"), prof, [1, 2, 4, 8, 16, 32, 64, 128]
            )
            assert np.all(np.diff(nttft) >= -1e-12)
            assert np.all(np.diff(itl) >= -1e-12)

    def test_without_monotone_constraint_flag(self, small_dataset):
        ds = small_dataset.dataset
        lookup = dict(LLM_CATALOG)
        space = FeatureSpace.fit([lookup[m] for m in ds.llms()])
        model = PerformanceModel(
            feature_space=space, constraints=CONSTRAINTS,
            hyperparams=PerfModelHyperparams(n_estimators=20),
            use_monotone_constraint=False,
        ).fit(ds, lookup)
        assert model._model_itl.monotone_constraints == {}

    def test_predict_before_fit_raises(self):
        space = FeatureSpace.fit([get_llm("Llama-2-7b")])
        model = PerformanceModel(feature_space=space, constraints=CONSTRAINTS)
        with pytest.raises(RuntimeError):
            model.predict(get_llm("Llama-2-7b"), "1xT4-16GB", [1])


class TestHPOAndTool:
    def test_tuning_returns_grid_member(self, small_dataset):
        ds = small_dataset.dataset
        grid = {"n_estimators": [30], "max_depth": [2, 4]}
        hp, score = tune_performance_model(ds, dict(LLM_CATALOG), CONSTRAINTS, grid=grid)
        assert hp.n_estimators == 30
        assert hp.max_depth in (2, 4)
        assert np.isfinite(score)

    def test_recommendation_tool_end_to_end(self, small_dataset, generator):
        ds = small_dataset.dataset
        lookup = dict(LLM_CATALOG)
        pilot = LLMPilotRecommender(
            constraints=CONSTRAINTS,
            hyperparams=PerfModelHyperparams(n_estimators=40),
        )
        train = ds.exclude_llm("Llama-2-13b")
        pilot.fit(train, lookup)
        tool = GPURecommendationTool(
            perf_model=pilot.model_,
            pricing=aws_like_pricing(),
            constraints=CONSTRAINTS,
            max_request_weight=generator.max_request_weight(),
        )
        rec = tool.recommend(get_llm("Llama-2-13b"), default_profiles(), total_users=50)
        assert rec.feasible
        assert rec.n_pods >= 1
        # Statically infeasible profiles must never be recommended.
        assert rec.profile != "1xA10-24GB"
        assert rec.profile != "1xT4-16GB"
