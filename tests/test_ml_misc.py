"""Tests for MLP, matrix factorization, preprocessing, metrics and CV."""

import numpy as np
import pytest

from repro.ml import (
    GridSearch,
    MatrixFactorization,
    MLPRegressor,
    StandardScaler,
    grid_iter,
    leave_one_group_out,
    r2_score,
    weighted_mape,
)


class TestMLP:
    def _toy(self, n=400, seed=0):
        rng = np.random.default_rng(seed)
        X = rng.uniform(-1, 1, size=(n, 4))
        y = X[:, 0] - 2 * X[:, 1] + 0.5 * X[:, 2] * X[:, 3]
        return X, y

    def test_fits_linear_plus_interaction(self):
        X, y = self._toy()
        m = MLPRegressor(hidden_layers=(32, 32), n_epochs=200, random_state=0).fit(X, y)
        assert r2_score(y, m.predict(X)) > 0.95

    def test_loss_decreases(self):
        X, y = self._toy()
        m = MLPRegressor(hidden_layers=(16,), n_epochs=50, random_state=1).fit(X, y)
        assert m.loss_curve_[-1] < m.loss_curve_[0]

    def test_multi_output(self):
        X, y = self._toy()
        Y = np.column_stack([y, -y])
        m = MLPRegressor(hidden_layers=(32,), n_epochs=150, random_state=2).fit(X, Y)
        pred = m.predict(X)
        assert pred.shape == (len(X), 2)
        assert r2_score(Y[:, 1], pred[:, 1]) > 0.9

    def test_partial_fit_improves(self):
        X, y = self._toy()
        m = MLPRegressor(hidden_layers=(16,), n_epochs=20, random_state=3).fit(X, y)
        before = np.mean((y - m.predict(X)) ** 2)
        m.partial_fit(X, y, n_epochs=100)
        after = np.mean((y - m.predict(X)) ** 2)
        assert after < before

    def test_reproducible(self):
        X, y = self._toy()
        a = MLPRegressor(n_epochs=30, random_state=4).fit(X, y).predict(X)
        b = MLPRegressor(n_epochs=30, random_state=4).fit(X, y).predict(X)
        np.testing.assert_array_equal(a, b)

    def test_validation(self):
        with pytest.raises(ValueError):
            MLPRegressor(hidden_layers=())
        with pytest.raises(ValueError):
            MLPRegressor(hidden_layers=(0,))
        with pytest.raises(RuntimeError):
            MLPRegressor().predict(np.ones((2, 2)))

    def test_shape_mismatch(self):
        X, y = self._toy(50)
        m = MLPRegressor(n_epochs=5).fit(X, y)
        with pytest.raises(ValueError):
            m.predict(X[:, :2])


class TestMatrixFactorization:
    def _ratings(self, seed=0, u=25, i=18, rank=3, frac=0.6):
        rng = np.random.default_rng(seed)
        R = rng.normal(size=(u, rank)) @ rng.normal(size=(i, rank)).T + 2.0
        mask = rng.random((u, i)) < frac
        us, its = np.nonzero(mask)
        return R, mask, us, its

    def test_completes_low_rank_matrix(self):
        R, mask, us, its = self._ratings()
        mf = MatrixFactorization(n_factors=5, n_epochs=150, random_state=0)
        mf.fit(us, its, R[us, its], n_users=R.shape[0], n_items=R.shape[1])
        pred = mf.predict_full()
        heldout_rmse = np.sqrt(np.mean((pred[~mask] - R[~mask]) ** 2))
        assert heldout_rmse < 0.6 * R.std()

    def test_predict_subset_matches_full(self):
        R, mask, us, its = self._ratings(seed=1)
        mf = MatrixFactorization(n_factors=4, n_epochs=60, random_state=1)
        mf.fit(us, its, R[us, its], n_users=R.shape[0], n_items=R.shape[1])
        full = mf.predict_full()
        sub = mf.predict(us[:10], its[:10])
        np.testing.assert_allclose(sub, full[us[:10], its[:10]], rtol=1e-9)

    def test_validation(self):
        with pytest.raises(ValueError):
            MatrixFactorization(n_factors=0)
        mf = MatrixFactorization()
        with pytest.raises(ValueError):
            mf.fit(np.array([0]), np.array([0, 1]), np.array([1.0]))
        with pytest.raises(ValueError):
            mf.fit(np.array([], dtype=int), np.array([], dtype=int), np.array([]))
        with pytest.raises(ValueError):
            mf.fit(np.array([2]), np.array([0]), np.array([1.0]), n_users=2)
        with pytest.raises(RuntimeError):
            MatrixFactorization().predict(np.array([0]), np.array([0]))


class TestPreprocessing:
    def test_scaler_standardizes(self):
        rng = np.random.default_rng(0)
        X = rng.normal(5, 3, size=(1000, 3))
        s = StandardScaler().fit(X)
        Z = s.transform(X)
        np.testing.assert_allclose(Z.mean(axis=0), 0, atol=1e-9)
        np.testing.assert_allclose(Z.std(axis=0), 1, atol=1e-9)

    def test_scaler_constant_column_safe(self):
        X = np.ones((10, 2))
        Z = StandardScaler().fit(X).transform(X)
        assert np.all(np.isfinite(Z))

    def test_unfit_raises(self):
        with pytest.raises(RuntimeError):
            StandardScaler().transform(np.ones((2, 2)))


class TestMetrics:
    def test_perfect_predictions(self):
        y = np.array([1.0, 2.0, 3.0])
        assert r2_score(y, y) == 1.0
        assert weighted_mape(y, y, np.ones(3)) == 0

    def test_r2_of_mean_is_zero(self):
        y = np.array([1.0, 2.0, 3.0])
        assert r2_score(y, np.full(3, 2.0)) == pytest.approx(0.0)

    def test_mape_relative(self):
        got = weighted_mape(np.array([100.0]), np.array([110.0]), np.ones(1))
        assert got == pytest.approx(0.1)

    def test_weighted_mape_weighting(self):
        y = np.array([1.0, 100.0])
        p = np.array([2.0, 100.0])  # 100% error on first, 0% on second
        w_first = weighted_mape(y, p, np.array([1.0, 0.0]))
        w_second = weighted_mape(y, p, np.array([0.0, 1.0]))
        assert w_first == pytest.approx(1.0)
        assert w_second == pytest.approx(0.0)

    def test_weighted_mape_validation(self):
        y = np.ones(3)
        with pytest.raises(ValueError):
            weighted_mape(y, y, np.ones(2))
        with pytest.raises(ValueError):
            weighted_mape(y, y, -np.ones(3))
        with pytest.raises(ValueError):
            weighted_mape(y, y, np.zeros(3))

    def test_empty_inputs_raise(self):
        with pytest.raises(ValueError):
            r2_score(np.array([]), np.array([]))

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            r2_score(np.ones(3), np.ones(4))


class TestCV:
    def test_logo_covers_all_groups(self):
        groups = ["a", "a", "b", "c", "b"]
        splits = list(leave_one_group_out(groups))
        held = [g for _, _, g in splits]
        assert held == ["a", "b", "c"]
        for train, val, g in splits:
            assert set(train) | set(val) == set(range(5))
            assert not set(train) & set(val)

    def test_logo_needs_two_groups(self):
        with pytest.raises(ValueError):
            list(leave_one_group_out(["a", "a"]))

    def test_grid_iter_product(self):
        combos = list(grid_iter({"a": [1, 2], "b": ["x"]}))
        assert combos == [{"a": 1, "b": "x"}, {"a": 2, "b": "x"}]

    def test_grid_iter_empty(self):
        assert list(grid_iter({})) == [{}]

    def test_grid_search_picks_best(self):
        groups = ["a"] * 5 + ["b"] * 5

        def evaluate(params, train_idx, val_idx):
            return abs(params["x"] - 3)

        gs = GridSearch({"x": [1, 3, 7]}, evaluate)
        best = gs.run(groups)
        assert best == {"x": 3}
        assert gs.best_score_ == 0

    def test_grid_search_all_nan_raises(self):
        gs = GridSearch({"x": [1]}, lambda p, t, v: float("nan"))
        with pytest.raises(RuntimeError):
            gs.run(["a", "b"])
