"""Random-forest regressor with MDI feature importances.

Used in three places in the paper: the §III-A trace-latency importance
study (R^2 ~ 0.93, MDI ranking), the Fig 4 deployment-knob study, and
the RF / PARIS recommendation baselines (§V-C).
"""

from __future__ import annotations

import numpy as np

from repro.ml.tree import DecisionTreeRegressor, FeatureBinner

__all__ = ["RandomForestRegressor"]


class RandomForestRegressor:
    """Bagged ensemble of histogram regression trees.

    Every tree fits a bootstrap resample of the rows and scans every
    feature at each split (the modern sklearn regression default:
    decorrelation comes from bagging alone).
    """

    def __init__(
        self,
        n_estimators: int = 100,
        max_depth: int = 12,
        min_samples_leaf: int = 1,
        max_bins: int = 64,
        random_state: int = 0,
    ) -> None:
        if n_estimators < 1:
            raise ValueError("n_estimators must be >= 1")
        self.n_estimators = n_estimators
        self.max_depth = max_depth
        self.min_samples_leaf = min_samples_leaf
        self.max_bins = max_bins
        self.random_state = random_state
        self.trees_: list[DecisionTreeRegressor] = []
        self.feature_importances_: np.ndarray | None = None
        self.n_features_: int = 0

    def fit(
        self,
        X: np.ndarray,
        y: np.ndarray,
        sample_weight: np.ndarray | None = None,
    ) -> "RandomForestRegressor":
        X = np.asarray(X, dtype=float)
        y = np.asarray(y, dtype=float)
        if len(X) != len(y):
            raise ValueError("X and y length mismatch")
        if len(X) == 0:
            raise ValueError("cannot fit on empty data")
        w = (
            np.ones(len(y))
            if sample_weight is None
            else np.asarray(sample_weight, dtype=float)
        )
        self.n_features_ = X.shape[1]
        n = len(y)
        rng = np.random.default_rng(self.random_state)
        binner = FeatureBinner(max_bins=self.max_bins).fit(X)
        codes = binner.transform(X)

        self.trees_ = []
        importances = np.zeros(self.n_features_)
        for _ in range(self.n_estimators):
            idx = rng.integers(0, n, size=n)
            tree = DecisionTreeRegressor(
                max_depth=self.max_depth,
                min_samples_leaf=self.min_samples_leaf,
                max_bins=self.max_bins,
            )
            tree.fit(
                X[idx], y[idx], sample_weight=w[idx], binner=binner, codes=codes[idx]
            )
            self.trees_.append(tree)
            importances += tree.feature_importances_
        total = importances.sum()
        self.feature_importances_ = importances / total if total > 0 else importances
        return self

    def predict(self, X: np.ndarray) -> np.ndarray:
        if not self.trees_:
            raise RuntimeError("forest must be fit before predict")
        X = np.asarray(X, dtype=float)
        out = np.zeros(len(X))
        for tree in self.trees_:
            out += tree.predict(X)
        return out / len(self.trees_)
