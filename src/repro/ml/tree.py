"""Histogram-based regression trees with sample weights and per-feature
monotonicity constraints.

This is the tree engine under both the RandomForest baseline and the
gradient-boosting regressor (the paper's XGBoost stand-in). Features are
pre-binned to at most ``max_bins`` quantile bins; every split scans the
per-bin weighted histograms of every feature, so a tree draws nothing at
random (the ensembles resample rows). Monotone constraints follow the
LightGBM/XGBoost scheme: a split on a constrained feature is rejected
when the child means violate the direction, and child value bounds
propagate down the tree (mid-point clamping), which guarantees *global*
monotonicity of the fitted function.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["FeatureBinner", "DecisionTreeRegressor", "TreeNode"]

_EPS = 1e-12


class FeatureBinner:
    """Quantile pre-binning of a feature matrix to small integer codes."""

    def __init__(self, max_bins: int = 64) -> None:
        if not 2 <= max_bins <= 255:
            raise ValueError(f"max_bins must be in [2, 255], got {max_bins}")
        self.max_bins = max_bins
        self.thresholds_: list[np.ndarray] | None = None

    def fit(self, X: np.ndarray) -> "FeatureBinner":
        X = np.asarray(X, dtype=float)
        thresholds = []
        for j in range(X.shape[1]):
            col = X[:, j]
            uniq = np.unique(col)
            if len(uniq) <= 1:
                thresholds.append(np.empty(0))
            elif len(uniq) <= self.max_bins:
                thresholds.append((uniq[:-1] + uniq[1:]) / 2.0)
            else:
                qs = np.quantile(col, np.linspace(0, 1, self.max_bins + 1)[1:-1])
                thresholds.append(np.unique(qs))
        self.thresholds_ = thresholds
        return self

    def transform(self, X: np.ndarray) -> np.ndarray:
        if self.thresholds_ is None:
            raise RuntimeError("FeatureBinner must be fit before transform")
        X = np.asarray(X, dtype=float)
        out = np.empty(X.shape, dtype=np.uint8)
        for j, thr in enumerate(self.thresholds_):
            out[:, j] = np.searchsorted(thr, X[:, j], side="right")
        return out

    def n_bins(self, j: int) -> int:
        if self.thresholds_ is None:
            raise RuntimeError("FeatureBinner must be fit first")
        return len(self.thresholds_[j]) + 1

    def threshold_value(self, j: int, bin_index: int) -> float:
        """Raw-value threshold corresponding to splitting after ``bin_index``."""
        return float(self.thresholds_[j][bin_index])


@dataclass
class TreeNode:
    """One node of a fitted tree (threshold splits on raw feature values)."""

    value: float
    feature: int = -1
    threshold: float = 0.0
    left: "TreeNode | None" = None
    right: "TreeNode | None" = None

    @property
    def is_leaf(self) -> bool:
        return self.left is None


@dataclass
class _Workspace:
    """Shared split-search state for one tree fit."""

    codes: np.ndarray
    y: np.ndarray
    w: np.ndarray
    binner: FeatureBinner
    importances: np.ndarray
    n_bins: np.ndarray
    directions: np.ndarray


class DecisionTreeRegressor:
    """Weighted regression tree with optional monotone constraints.

    Parameters
    ----------
    max_depth:
        Maximum tree depth (root = depth 0).
    min_samples_leaf / min_child_weight:
        Minimum row count / weight mass per leaf.
    monotone_constraints:
        Map of feature index to direction (+1 increasing, -1 decreasing).
    max_bins:
        Histogram resolution for split search.
    """

    def __init__(
        self,
        max_depth: int = 6,
        min_samples_leaf: int = 1,
        min_child_weight: float = 1e-6,
        monotone_constraints: dict[int, int] | None = None,
        max_bins: int = 64,
    ) -> None:
        if max_depth < 0:
            raise ValueError("max_depth must be >= 0")
        if min_samples_leaf < 1:
            raise ValueError("min_samples_leaf must be >= 1")
        self.max_depth = max_depth
        self.min_samples_leaf = min_samples_leaf
        self.min_child_weight = min_child_weight
        self.monotone_constraints = dict(monotone_constraints or {})
        for j, d in self.monotone_constraints.items():
            if d not in (-1, 1):
                raise ValueError(f"monotone direction must be +-1, got {d} for {j}")
        self.max_bins = max_bins
        self.root_: TreeNode | None = None
        self.n_features_: int = 0
        self.feature_importances_: np.ndarray | None = None

    # ---- fitting ------------------------------------------------------------

    def fit(
        self,
        X: np.ndarray,
        y: np.ndarray,
        sample_weight: np.ndarray | None = None,
        binner: FeatureBinner | None = None,
        codes: np.ndarray | None = None,
    ) -> "DecisionTreeRegressor":
        """Fit the tree. ``binner``/``codes`` can be shared across trees
        (the GBM pre-bins once for the whole ensemble)."""
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

        self.n_features_ = X.shape[1]
        if binner is None:
            binner = FeatureBinner(max_bins=self.max_bins).fit(X)
            codes = binner.transform(X)
        elif codes is None:
            codes = binner.transform(X)

        directions = np.zeros(self.n_features_, dtype=np.int64)
        for j, d in self.monotone_constraints.items():
            if not 0 <= j < self.n_features_:
                raise ValueError(f"monotone constraint on unknown feature {j}")
            directions[j] = d
        ws = _Workspace(
            codes=codes,
            y=y,
            w=w,
            binner=binner,
            importances=np.zeros(self.n_features_),
            n_bins=np.array([binner.n_bins(j) for j in range(self.n_features_)]),
            directions=directions,
        )
        idx = np.arange(len(y))
        self.root_ = self._grow(ws, idx, depth=0, lo=-np.inf, hi=np.inf)
        total = ws.importances.sum()
        self.feature_importances_ = (
            ws.importances / total if total > 0 else ws.importances
        )
        return self

    def _grow(
        self, ws: _Workspace, idx: np.ndarray, depth: int, lo: float, hi: float
    ) -> TreeNode:
        w = ws.w[idx]
        y = ws.y[idx]
        sw = w.sum()
        value = float(np.clip(np.dot(w, y) / (sw + _EPS), lo, hi))
        node = TreeNode(value=value)
        if (
            depth >= self.max_depth
            or len(idx) < 2 * self.min_samples_leaf
            or np.all(y == y[0])
        ):
            return node

        split = self._best_split(ws, idx, lo, hi)
        if split is None:
            return node
        feature, bin_thr, gain, left_mask, vl, vr = split
        ws.importances[feature] += gain

        node.feature = feature
        node.threshold = ws.binner.threshold_value(feature, bin_thr)

        direction = ws.directions[feature]
        if direction == 0:
            l_lo, l_hi, r_lo, r_hi = lo, hi, lo, hi
        else:
            mid = 0.5 * (vl + vr)
            if direction > 0:
                l_lo, l_hi = lo, min(hi, mid)
                r_lo, r_hi = max(lo, mid), hi
            else:
                l_lo, l_hi = max(lo, mid), hi
                r_lo, r_hi = lo, min(hi, mid)

        left_idx = idx[left_mask]
        right_idx = idx[~left_mask]
        node.left = self._grow(ws, left_idx, depth + 1, l_lo, l_hi)
        node.right = self._grow(ws, right_idx, depth + 1, r_lo, r_hi)
        return node

    def _best_split(
        self, ws: _Workspace, idx: np.ndarray, lo: float, hi: float
    ):
        """Find the best (feature, bin) split via weighted histograms.

        Every feature is scanned at once: per-feature bin codes are
        offset into a single flat index so one ``bincount`` builds every
        histogram, and the gain/validity logic runs on (feature, bin)
        matrices.
        """
        y = ws.y[idx]
        w = ws.w[idx]
        wy = w * y
        sw = w.sum()
        swy = wy.sum()
        n = len(idx)
        parent_score = swy * swy / (sw + _EPS)

        bins = ws.n_bins
        max_bins = int(bins.max(initial=0))
        if max_bins < 2:
            return None
        f = len(bins)
        sub = ws.codes[idx].astype(np.int64)
        flat = (sub + (np.arange(f) * max_bins)[None, :]).ravel(order="F")
        size = f * max_bins
        hist_w = np.bincount(flat, weights=np.tile(w, f), minlength=size)
        hist_wy = np.bincount(flat, weights=np.tile(wy, f), minlength=size)
        hist_n = np.bincount(flat, minlength=size)
        hist_w = hist_w.reshape(f, max_bins)
        hist_wy = hist_wy.reshape(f, max_bins)
        hist_n = hist_n.reshape(f, max_bins)

        # Split after bin k: cumulative sums over k in [0, max_bins-2].
        cw = np.cumsum(hist_w, axis=1)[:, :-1]
        cwy = np.cumsum(hist_wy, axis=1)[:, :-1]
        cn = np.cumsum(hist_n, axis=1)[:, :-1]
        rw = sw - cw
        rwy = swy - cwy
        rn = n - cn

        ks = np.arange(max_bins - 1)
        valid = (
            (cn >= self.min_samples_leaf)
            & (rn >= self.min_samples_leaf)
            & (cw >= self.min_child_weight)
            & (rw >= self.min_child_weight)
            & (ks[None, :] < (bins - 1)[:, None])  # threshold must exist
        )
        vl = cwy / (cw + _EPS)
        vr = rwy / (rw + _EPS)
        directions = ws.directions[:, None]
        increasing = directions > 0
        decreasing = directions < 0
        valid &= ~(increasing & (vl > vr))
        valid &= ~(decreasing & (vl < vr))
        constrained = directions != 0
        # Both child values must be representable inside the node's bounds,
        # otherwise clipping would destroy the gain estimate.
        valid &= ~(constrained & (np.minimum(vl, vr) > hi))
        valid &= ~(constrained & (np.maximum(vl, vr) < lo))
        if not valid.any():
            return None

        gains = np.where(
            valid,
            cwy * cwy / (cw + _EPS) + rwy * rwy / (rw + _EPS) - parent_score,
            -np.inf,
        )
        fi, k = np.unravel_index(int(np.argmax(gains)), gains.shape)
        best_gain = float(gains[fi, k])
        if best_gain <= 1e-9:
            return None
        left_mask = sub[:, fi] <= k
        return (
            int(fi),
            int(k),
            best_gain,
            left_mask,
            float(np.clip(vl[fi, k], lo, hi)),
            float(np.clip(vr[fi, k], lo, hi)),
        )

    # ---- prediction ----------------------------------------------------------

    def predict(self, X: np.ndarray) -> np.ndarray:
        if self.root_ is None:
            raise RuntimeError("tree must be fit before predict")
        X = np.asarray(X, dtype=float)
        if X.ndim != 2 or X.shape[1] != self.n_features_:
            raise ValueError(f"X must have shape (n, {self.n_features_})")
        out = np.empty(len(X))
        self._predict_into(self.root_, X, np.arange(len(X)), out)
        return out

    def _predict_into(
        self, node: TreeNode, X: np.ndarray, idx: np.ndarray, out: np.ndarray
    ) -> None:
        """Route rows ``idx`` through ``node``, writing leaf values."""
        if node.is_leaf:
            out[idx] = node.value
            return
        if idx.size == 0:
            return
        mask = X[idx, node.feature] <= node.threshold
        self._predict_into(node.left, X, idx[mask], out)
        self._predict_into(node.right, X, idx[~mask], out)
