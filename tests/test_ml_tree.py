"""Tests for the histogram tree engine, including monotonicity properties."""

import itertools
import struct

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.ml import DecisionTreeRegressor, FeatureBinner, r2_score
from repro.ml.tree import _clip


def _toy(n=400, seed=0, d=4):
    rng = np.random.default_rng(seed)
    X = rng.uniform(-2, 2, size=(n, d))
    y = 1.5 * X[:, 0] - X[:, 1] ** 2 + 0.05 * rng.standard_normal(n)
    return X, y


def _leaves(node):
    if node.is_leaf:
        return 1
    return _leaves(node.left) + _leaves(node.right)


def _depth(node):
    if node.is_leaf:
        return 0
    return 1 + max(_depth(node.left), _depth(node.right))


class TestFeatureBinner:
    def test_low_cardinality_thresholds(self):
        X = np.array([[0.0], [1.0], [1.0], [3.0]])
        b = FeatureBinner(max_bins=8).fit(X)
        codes = b.transform(X)
        assert b.n_bins(0) == 3
        assert codes[:, 0].tolist() == [0, 1, 1, 2]

    def test_constant_column_single_bin(self):
        X = np.ones((10, 1))
        b = FeatureBinner().fit(X)
        assert b.n_bins(0) == 1

    def test_codes_within_bins(self):
        X, _ = _toy(1000)
        b = FeatureBinner(max_bins=32).fit(X)
        codes = b.transform(X)
        for j in range(X.shape[1]):
            assert codes[:, j].max() < b.n_bins(j)

    def test_threshold_values_are_raw_scale(self):
        X, _ = _toy(500)
        b = FeatureBinner(max_bins=16).fit(X)
        thr = b.threshold_value(0, 0)
        assert X[:, 0].min() < thr < X[:, 0].max()

    def test_invalid_max_bins(self):
        with pytest.raises(ValueError):
            FeatureBinner(max_bins=1)
        with pytest.raises(ValueError):
            FeatureBinner(max_bins=256)

    def test_transform_before_fit_raises(self):
        with pytest.raises(RuntimeError):
            FeatureBinner().transform(np.ones((2, 2)))


class TestClip:
    def test_matches_np_clip_bit_for_bit(self):
        """The scalar clamp returns what ``np.clip`` returns, down to
        the sign of a zero and which operand's NaN comes back."""

        def bits(x):
            return struct.unpack("<Q", struct.pack("<d", x))[0]

        def nan(payload, negative=False):
            raw = 0x7FF8000000000000 | payload | (negative << 63)
            return struct.unpack("<d", struct.pack("<Q", raw))[0]

        values = [
            nan(1), nan(2, negative=True), nan(3), -0.0, 0.0, 1.0, -1.0, 2.5,
            np.inf, -np.inf, 5e-324, -5e-324, 1e308, -1e308,
        ]
        for x, lo, hi in itertools.product(values, repeat=3):
            expected = float(np.clip(np.float64(x), lo, hi))
            assert bits(_clip(np.float64(x), lo, hi)) == bits(expected), (x, lo, hi)


class TestDecisionTree:
    def test_fits_signal(self):
        X, y = _toy()
        t = DecisionTreeRegressor(max_depth=8).fit(X, y)
        assert r2_score(y, t.predict(X)) > 0.9

    def test_depth_zero_predicts_mean(self):
        X, y = _toy()
        t = DecisionTreeRegressor(max_depth=0).fit(X, y)
        np.testing.assert_allclose(t.predict(X), y.mean(), rtol=1e-9)

    def test_depth_bounded(self):
        X, y = _toy()
        t = DecisionTreeRegressor(max_depth=3).fit(X, y)
        assert _depth(t.root_) <= 3
        assert _leaves(t.root_) <= 8

    def test_min_samples_leaf(self):
        X, y = _toy(100)
        t = DecisionTreeRegressor(max_depth=10, min_samples_leaf=40).fit(X, y)
        assert _leaves(t.root_) <= 100 // 40 + 1

    def test_sample_weight_zero_ignores_points(self):
        X, y = _toy(300)
        w = np.ones(300)
        outlier = X.copy()
        y_out = y.copy()
        y_out[:50] += 100.0
        w_out = w.copy()
        w_out[:50] = 0.0
        t = DecisionTreeRegressor(max_depth=5).fit(outlier, y_out, sample_weight=w_out)
        # Predictions should look like the clean signal, not the outliers.
        assert np.abs(t.predict(X[50:]) - y[50:]).mean() < 2.0

    def test_weight_validation(self):
        X, y = _toy(50)
        with pytest.raises(ValueError):
            DecisionTreeRegressor().fit(X, y, sample_weight=-np.ones(50))
        with pytest.raises(ValueError):
            DecisionTreeRegressor().fit(X, y, sample_weight=np.zeros(50))

    def test_shape_validation(self):
        X, y = _toy(50)
        with pytest.raises(ValueError):
            DecisionTreeRegressor().fit(X, y[:-1])
        with pytest.raises(ValueError):
            DecisionTreeRegressor().fit(np.empty((0, 3)), np.empty(0))
        t = DecisionTreeRegressor().fit(X, y)
        with pytest.raises(ValueError):
            t.predict(X[:, :2])

    def test_predict_before_fit_raises(self):
        with pytest.raises(RuntimeError):
            DecisionTreeRegressor().predict(np.ones((2, 2)))

    def test_feature_importances_sum_to_one(self):
        X, y = _toy()
        t = DecisionTreeRegressor(max_depth=6).fit(X, y)
        assert t.feature_importances_.sum() == pytest.approx(1.0)

    def test_importances_identify_signal_feature(self):
        rng = np.random.default_rng(3)
        X = rng.uniform(size=(500, 5))
        y = 10 * X[:, 2] + 0.01 * rng.standard_normal(500)
        t = DecisionTreeRegressor(max_depth=6).fit(X, y)
        assert np.argmax(t.feature_importances_) == 2

    def test_training_routes_rows_like_predict(self):
        """A leaf's value is the mean of the training rows ``predict``
        sends to it, also for rows on a bin threshold: every integer
        value below repeats, and 12 of the 300 rows sit on one of the
        seven quantile thresholds."""
        x = np.repeat(np.arange(100), 3).astype(float)
        X = x[:, None]
        thresholds = FeatureBinner(max_bins=8).fit(X).thresholds_[0]
        assert np.isin(x, thresholds).sum() == 12
        y = np.sin(x / 7.0)
        pred = DecisionTreeRegressor(max_depth=3, max_bins=8).fit(X, y).predict(X)
        for value in np.unique(pred):
            np.testing.assert_allclose(value, y[pred == value].mean(), atol=1e-12)

    def test_constant_target_single_leaf(self):
        X, _ = _toy(100)
        t = DecisionTreeRegressor(max_depth=5).fit(X, np.full(100, 3.3))
        assert _leaves(t.root_) == 1
        np.testing.assert_allclose(t.predict(X[:5]), 3.3, rtol=1e-9)


class TestMonotoneTree:
    def _check_monotone(self, model, d, feature, sign, rng, n_ctx=25):
        for _ in range(n_ctx):
            ctx = rng.uniform(-2, 2, size=d)
            pts = np.tile(ctx, (40, 1))
            pts[:, feature] = np.linspace(-2, 2, 40)
            diffs = np.diff(model.predict(pts))
            assert np.all(sign * diffs >= -1e-9)

    def test_increasing_constraint(self):
        X, y = _toy(500, seed=1)
        t = DecisionTreeRegressor(max_depth=7, monotone_constraints={0: 1}).fit(X, y)
        self._check_monotone(t, 4, 0, +1, np.random.default_rng(0))

    def test_decreasing_constraint(self):
        X, y = _toy(500, seed=2)
        y = -y
        t = DecisionTreeRegressor(max_depth=7, monotone_constraints={0: -1}).fit(X, y)
        self._check_monotone(t, 4, 0, -1, np.random.default_rng(1))

    def test_constraint_against_signal_degrades_fit(self):
        X, y = _toy(500, seed=3)
        free = DecisionTreeRegressor(max_depth=6).fit(X, y)
        forced = DecisionTreeRegressor(max_depth=6, monotone_constraints={0: -1}).fit(X, y)
        assert r2_score(y, forced.predict(X)) < r2_score(y, free.predict(X))

    def test_invalid_direction(self):
        with pytest.raises(ValueError):
            DecisionTreeRegressor(monotone_constraints={0: 2})

    def test_unknown_feature_index(self):
        X, y = _toy(100)
        with pytest.raises(ValueError, match="unknown feature"):
            DecisionTreeRegressor(monotone_constraints={10: 1}).fit(X, y)

    @given(st.integers(0, 10_000))
    @settings(max_examples=15, deadline=None)
    def test_monotone_property_random_data(self, seed):
        rng = np.random.default_rng(seed)
        X = rng.uniform(-1, 1, size=(150, 3))
        y = rng.standard_normal(150)  # pure noise: hardest case
        t = DecisionTreeRegressor(max_depth=5, monotone_constraints={1: 1}).fit(X, y)
        self._check_monotone(t, 3, 1, +1, rng, n_ctx=8)
