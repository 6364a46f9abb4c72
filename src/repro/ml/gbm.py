"""Gradient-boosted regression trees — the paper's XGBoost stand-in.

Supports the features the paper's regressor relies on (§IV-B2/3):
sample weights, per-feature monotonicity constraints, learning rate,
row subsampling, histogram split finding over every feature with a
configurable bin count, and the hyperparameters tuned in §IV-B3 (number
of boosted trees, maximum depth, learning rate, subsampling rate, number
of bins).

Squared-error boosting: each stage fits a weighted tree to the current
residuals. Because every stage tree individually satisfies the monotone
constraints and the prediction is a non-negatively-weighted sum, the
ensemble is globally monotone — the property Eq. (IV-B2) requires.
"""

from __future__ import annotations

import numpy as np

from repro.ml.tree import DecisionTreeRegressor, FeatureBinner

__all__ = ["GradientBoostingRegressor"]


class GradientBoostingRegressor:
    """Weighted, monotone-constrained gradient boosting for regression."""

    def __init__(
        self,
        n_estimators: int = 200,
        max_depth: int = 4,
        learning_rate: float = 0.1,
        subsample: float = 1.0,
        min_samples_leaf: int = 1,
        min_child_weight: float = 1e-6,
        max_bins: int = 64,
        monotone_constraints: dict[int, int] | None = None,
        random_state: int = 0,
    ) -> None:
        if n_estimators < 1:
            raise ValueError("n_estimators must be >= 1")
        if not 0.0 < learning_rate <= 1.0:
            raise ValueError("learning_rate must be in (0, 1]")
        if not 0.0 < subsample <= 1.0:
            raise ValueError("subsample must be in (0, 1]")
        self.n_estimators = n_estimators
        self.max_depth = max_depth
        self.learning_rate = learning_rate
        self.subsample = subsample
        self.min_samples_leaf = min_samples_leaf
        self.min_child_weight = min_child_weight
        self.max_bins = max_bins
        self.monotone_constraints = dict(monotone_constraints or {})
        self.random_state = random_state
        self.base_prediction_: float = 0.0
        self.trees_: list[DecisionTreeRegressor] = []
        self.n_features_: int = 0
        self.feature_importances_: np.ndarray | None = None

    def fit(
        self,
        X: np.ndarray,
        y: np.ndarray,
        sample_weight: np.ndarray | None = None,
    ) -> "GradientBoostingRegressor":
        X = np.asarray(X, dtype=float)
        y = np.asarray(y, dtype=float)
        if X.ndim != 2:
            raise ValueError("X must be 2-D")
        if len(X) != len(y):
            raise ValueError("X and y length mismatch")
        if len(X) == 0:
            raise ValueError("cannot fit on empty data")
        w = (
            np.ones(len(y))
            if sample_weight is None
            else np.asarray(sample_weight, dtype=float)
        )
        if np.any(w < 0):
            raise ValueError("sample weights must be non-negative")
        if w.sum() <= 0:
            raise ValueError("sample weights must not all be zero")

        n, self.n_features_ = X.shape
        for j in self.monotone_constraints:
            if not 0 <= j < self.n_features_:
                raise ValueError(f"monotone constraint on unknown feature {j}")

        rng = np.random.default_rng(self.random_state)
        binner = FeatureBinner(max_bins=self.max_bins).fit(X)
        codes = binner.transform(X)

        self.base_prediction_ = float(np.dot(w, y) / w.sum())
        pred = np.full(n, self.base_prediction_)
        self.trees_ = []
        importances = np.zeros(self.n_features_)

        n_rows = max(1, int(round(self.subsample * n)))

        for _ in range(self.n_estimators):
            residual = y - pred
            if self.subsample < 1.0:
                idx = rng.choice(n, size=n_rows, replace=False)
            else:
                idx = np.arange(n)
            tree = DecisionTreeRegressor(
                max_depth=self.max_depth,
                min_samples_leaf=self.min_samples_leaf,
                min_child_weight=self.min_child_weight,
                monotone_constraints=self.monotone_constraints,
                max_bins=self.max_bins,
            )
            tree.fit(
                X[idx],
                residual[idx],
                sample_weight=w[idx],
                binner=binner,
                codes=codes[idx],
            )
            self.trees_.append(tree)
            importances += tree.feature_importances_
            pred += self.learning_rate * tree.predict(X)

        total = importances.sum()
        self.feature_importances_ = importances / total if total > 0 else importances
        return self

    def predict(self, X: np.ndarray) -> np.ndarray:
        if not self.trees_:
            raise RuntimeError("model must be fit before predict")
        X = np.asarray(X, dtype=float)
        if X.ndim != 2 or X.shape[1] != self.n_features_:
            raise ValueError(f"X must have shape (n, {self.n_features_})")
        out = np.full(len(X), self.base_prediction_)
        for tree in self.trees_:
            out += self.learning_rate * tree.predict(X)
        return out
