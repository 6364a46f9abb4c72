"""Tests for the random forest and gradient-boosting ensembles."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.ml import (
    GradientBoostingRegressor,
    RandomForestRegressor,
    r2_score,
)


def _toy(n=500, seed=0, d=6):
    rng = np.random.default_rng(seed)
    X = rng.uniform(-2, 2, size=(n, d))
    y = 2 * X[:, 0] + np.sin(3 * X[:, 1]) + X[:, 2] ** 2
    return X, y + 0.1 * rng.standard_normal(n)


class TestRandomForest:
    def test_fits_signal(self):
        X, y = _toy()
        f = RandomForestRegressor(n_estimators=25, random_state=0).fit(X, y)
        assert r2_score(y, f.predict(X)) > 0.9

    def test_generalizes(self):
        X, y = _toy(800, seed=1)
        Xt, yt = _toy(300, seed=2)
        f = RandomForestRegressor(n_estimators=25, random_state=0).fit(X, y)
        assert r2_score(yt, f.predict(Xt)) > 0.8

    def test_reproducible(self):
        X, y = _toy()
        a = RandomForestRegressor(n_estimators=10, random_state=3).fit(X, y).predict(X)
        b = RandomForestRegressor(n_estimators=10, random_state=3).fit(X, y).predict(X)
        np.testing.assert_array_equal(a, b)

    def test_seed_matters(self):
        X, y = _toy()
        a = RandomForestRegressor(n_estimators=10, random_state=3).fit(X, y).predict(X)
        b = RandomForestRegressor(n_estimators=10, random_state=4).fit(X, y).predict(X)
        assert not np.array_equal(a, b)

    def test_mdi_importances_normalized(self):
        X, y = _toy()
        f = RandomForestRegressor(n_estimators=15, random_state=0).fit(X, y)
        assert f.feature_importances_.sum() == pytest.approx(1.0)
        assert np.all(f.feature_importances_ >= 0)

    def test_mdi_identifies_signal_over_noise(self):
        rng = np.random.default_rng(7)
        X = rng.uniform(size=(600, 6))
        y = 5 * X[:, 0] + 0.05 * rng.standard_normal(600)
        f = RandomForestRegressor(n_estimators=20, random_state=0).fit(X, y)
        imp = f.feature_importances_
        assert imp[0] > 10 * max(imp[1:])

    def test_validation(self):
        with pytest.raises(ValueError):
            RandomForestRegressor(n_estimators=0)
        with pytest.raises(RuntimeError):
            RandomForestRegressor().predict(np.ones((2, 2)))


class TestGBM:
    def test_fits_signal_better_than_single_tree(self):
        X, y = _toy()
        g = GradientBoostingRegressor(n_estimators=150, max_depth=3).fit(X, y)
        assert r2_score(y, g.predict(X)) > 0.98

    def test_learning_rate_tradeoff(self):
        X, y = _toy()
        fast = GradientBoostingRegressor(n_estimators=10, learning_rate=0.5).fit(X, y)
        slow = GradientBoostingRegressor(n_estimators=10, learning_rate=0.01).fit(X, y)
        assert r2_score(y, fast.predict(X)) > r2_score(y, slow.predict(X))

    def test_base_prediction_weighted_mean(self):
        X, y = _toy(100)
        w = np.random.default_rng(0).uniform(size=100)
        g = GradientBoostingRegressor(n_estimators=1).fit(X, y, sample_weight=w)
        assert g.base_prediction_ == pytest.approx(np.dot(w, y) / w.sum())

    def test_subsample_and_colsample(self):
        X, y = _toy()
        g = GradientBoostingRegressor(
            n_estimators=80, subsample=0.7, random_state=1
        ).fit(X, y)
        assert r2_score(y, g.predict(X)) > 0.9

    def test_reproducible(self):
        X, y = _toy()
        a = GradientBoostingRegressor(n_estimators=20, subsample=0.8, random_state=5).fit(X, y)
        b = GradientBoostingRegressor(n_estimators=20, subsample=0.8, random_state=5).fit(X, y)
        np.testing.assert_array_equal(a.predict(X), b.predict(X))

    def test_importances_normalized(self):
        X, y = _toy()
        g = GradientBoostingRegressor(n_estimators=30).fit(X, y)
        assert g.feature_importances_.sum() == pytest.approx(1.0)

    def test_hyperparameter_validation(self):
        for kwargs in (
            dict(n_estimators=0),
            dict(learning_rate=0.0),
            dict(learning_rate=1.5),
            dict(subsample=0.0),
        ):
            with pytest.raises(ValueError):
                GradientBoostingRegressor(**kwargs)

    def test_unknown_monotone_feature_rejected(self):
        X, y = _toy(100)
        with pytest.raises(ValueError, match="unknown feature"):
            GradientBoostingRegressor(monotone_constraints={99: 1}).fit(X, y)

    def test_predict_shape_validation(self):
        X, y = _toy(100)
        g = GradientBoostingRegressor(n_estimators=5).fit(X, y)
        with pytest.raises(ValueError):
            g.predict(X[:, :3])
        with pytest.raises(RuntimeError):
            GradientBoostingRegressor().predict(X)


class TestGBMMonotone:
    def _check(self, model, d, feature, rng, n_ctx=20):
        for _ in range(n_ctx):
            ctx = rng.uniform(-2, 2, size=d)
            pts = np.tile(ctx, (40, 1))
            pts[:, feature] = np.linspace(-2, 2, 40)
            assert np.all(np.diff(model.predict(pts)) >= -1e-9)

    def test_ensemble_globally_monotone(self):
        X, y = _toy(600, seed=4)
        g = GradientBoostingRegressor(
            n_estimators=100, max_depth=4, monotone_constraints={0: 1}
        ).fit(X, y)
        self._check(g, 6, 0, np.random.default_rng(0))

    def test_monotone_with_subsampling(self):
        X, y = _toy(600, seed=5)
        g = GradientBoostingRegressor(
            n_estimators=60, subsample=0.6,
            monotone_constraints={0: 1}, random_state=2,
        ).fit(X, y)
        self._check(g, 6, 0, np.random.default_rng(1))

    def test_monotone_still_fits_monotone_signal(self):
        rng = np.random.default_rng(6)
        X = rng.uniform(0, 1, size=(500, 3))
        y = np.log1p(5 * X[:, 0]) + 0.3 * X[:, 1]
        g = GradientBoostingRegressor(
            n_estimators=100, monotone_constraints={0: 1, 1: 1}
        ).fit(X, y)
        assert r2_score(y, g.predict(X)) > 0.95

    @given(st.integers(0, 10_000))
    @settings(max_examples=10, deadline=None)
    def test_monotone_property_on_noise(self, seed):
        """The paper's guarantee must hold even on pure noise targets."""
        rng = np.random.default_rng(seed)
        X = rng.uniform(-1, 1, size=(120, 3))
        y = rng.standard_normal(120)
        g = GradientBoostingRegressor(
            n_estimators=25, max_depth=3, monotone_constraints={2: 1},
            random_state=seed,
        ).fit(X, y)
        self._check(g, 3, 2, rng, n_ctx=6)
