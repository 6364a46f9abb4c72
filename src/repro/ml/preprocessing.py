"""Feature preprocessing: standardization.

A minimal, numpy-only equivalent of the sklearn transformer the neural
baselines use (the MLPs want standardized inputs).
"""

from __future__ import annotations

import numpy as np

__all__ = ["StandardScaler"]


class StandardScaler:
    """Column-wise standardization to zero mean / unit variance."""

    def __init__(self) -> None:
        self.mean_: np.ndarray | None = None
        self.scale_: np.ndarray | None = None

    def fit(self, X: np.ndarray) -> "StandardScaler":
        X = np.asarray(X, dtype=float)
        self.mean_ = X.mean(axis=0)
        std = X.std(axis=0)
        self.scale_ = np.where(std > 0, std, 1.0)
        return self

    def transform(self, X: np.ndarray) -> np.ndarray:
        if self.mean_ is None or self.scale_ is None:
            raise RuntimeError("StandardScaler must be fit before transform")
        return (np.asarray(X, dtype=float) - self.mean_) / self.scale_
