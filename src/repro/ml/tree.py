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

Trees grow level by level, as LightGBM's histogram method does (Ke et
al., NeurIPS 2017): one pass builds the histograms of every open node of
a level at once. Each histogram bin still adds its rows in ascending row
order, and each node's sums are still numpy's sums over the node's rows,
so a tree is the same, float for float, as one grown node by node.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["FeatureBinner", "DecisionTreeRegressor", "TreeNode"]

_EPS = 1e-12
#: Histogram cells (node x feature x bin) one level pass fills at a
#: time. A level's open nodes are searched in blocks under this budget,
#: which keeps the pass's transient arrays to a few MB however many
#: nodes a deep level holds.
_BLOCK_CELLS = 1 << 16


def _clip(x, lo, hi) -> float:
    """``float(np.clip(x, lo, hi))`` for scalars, bit for bit: signed
    zeros and the NaN numpy returns included, without a ufunc call."""
    if lo != lo:
        return float(lo)
    if hi != hi:
        return float(hi)
    if x != x:
        return float(x)
    if x < lo:
        x = lo
    if x > hi:
        x = hi
    return float(x)


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
            # A value equal to threshold k gets code k, so a split after
            # bin k trains it in the left child, where ``predict``'s
            # ``x <= threshold`` sends it.
            out[:, j] = np.searchsorted(thr, X[:, j], side="left")
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
class _SplitSpace:
    """The histogram layout of one tree fit. A node's histogram has
    ``shape = (features, width)`` cells; a row's cell for feature ``j``
    is ``offsets[j] + codes[row, j]``. ``pos_cell`` and ``pos_dir`` give
    the cell and monotone direction of every real split position."""

    codes: np.ndarray
    offsets: np.ndarray
    shape: tuple[int, int]
    pos_cell: np.ndarray
    pos_dir: np.ndarray


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
        self.root_, importances = self._grow(codes, y, w, binner, directions)
        total = importances.sum()
        self.feature_importances_ = importances / total if total > 0 else importances
        return self

    def _grow(
        self,
        codes: np.ndarray,
        y: np.ndarray,
        w: np.ndarray,
        binner: FeatureBinner,
        directions: np.ndarray,
    ) -> tuple[TreeNode, np.ndarray]:
        """Grow the tree level by level; returns the root and the split
        gains summed per feature.

        ``rows`` holds the rows of a level's nodes, node after node, each
        node's rows ascending. Every node of the level first gets its
        value: the weighted mean of its rows, clamped to the bounds its
        ancestors' monotone splits set. :meth:`_search` then finds the
        best split of every node that may still split, and each split
        node's rows are partitioned into the next level, left child
        first.
        """
        n, f = codes.shape
        n_bins = np.array([binner.n_bins(j) for j in range(f)], dtype=np.intp)
        width = int(n_bins.max(initial=1))
        # The real split positions (feature j, after bin k < n_bins[j] - 1)
        # in row-major order, so argmax ties break as in a dense scan.
        n_pos = n_bins - 1
        pos_feature = np.repeat(np.arange(f), n_pos)
        first_pos = np.cumsum(n_pos) - n_pos
        pos_bin = np.arange(pos_feature.size) - np.repeat(first_pos, n_pos)
        space = _SplitSpace(
            codes=codes,
            offsets=np.arange(f, dtype=np.intp) * width,
            shape=(f, width),
            pos_cell=pos_feature * width + pos_bin,
            pos_dir=directions[pos_feature],
        )
        pos_feature_l, pos_bin_l = pos_feature.tolist(), pos_bin.tolist()
        dirs = directions.tolist()
        twice_leaf = 2 * self.min_samples_leaf

        root = TreeNode(value=0.0)
        gains: dict[int, float] = {}
        nodes, lo, hi = [root], [-np.inf], [np.inf]
        rows, counts = np.arange(n), [n]
        depth = 0
        while True:
            rw, ry = w[rows], y[rows]
            ends = np.cumsum(counts).tolist()
            starts = [e - c for e, c in zip(ends, counts)]
            search = depth < self.max_depth and pos_feature.size > 0
            if search:
                uniform = np.logical_and.reduceat(
                    ry == ry[np.repeat(starts, counts)], starts
                ).tolist()
            open_: list[int] = []
            sw: list[float] = []
            for i, node in enumerate(nodes):
                a, b = starts[i], ends[i]
                total = rw[a:b].sum()
                node.value = _clip(
                    np.dot(rw[a:b], ry[a:b]) / (total + _EPS), lo[i], hi[i]
                )
                if search and b - a >= twice_leaf and not uniform[i]:
                    open_.append(i)
                    sw.append(total)
            if not open_:
                break
            if len(open_) < len(nodes):
                keep = np.zeros(len(nodes), dtype=bool)
                keep[open_] = True
                in_open = np.repeat(keep, counts)
                rows, rw, ry = rows[in_open], rw[in_open], ry[in_open]
                nodes = [nodes[i] for i in open_]
                lo = [lo[i] for i in open_]
                hi = [hi[i] for i in open_]
                counts = [counts[i] for i in open_]
                starts = (np.cumsum(counts) - counts).tolist()
            rwy = rw * ry
            swy = [rwy[a:a + c].sum() for a, c in zip(starts, counts)]
            best, gain, vl, vr = self._search(
                space, rows, rw, rwy, counts, sw, swy, lo, hi
            )

            parents, parent_counts = nodes, counts
            nodes, lo_next, hi_next = [], [], []
            child: list[int] = []
            for s, node in enumerate(parents):
                g = gain[s]
                if g <= 1e-9:
                    child.append(-1)
                    continue
                fi, k = pos_feature_l[best[s]], pos_bin_l[best[s]]
                node.feature = fi
                node.threshold = binner.threshold_value(fi, k)
                gains[id(node)] = g
                p_lo, p_hi = lo[s], hi[s]
                if dirs[fi] == 0:
                    l_lo, l_hi, r_lo, r_hi = p_lo, p_hi, p_lo, p_hi
                else:
                    mid = 0.5 * (_clip(vl[s], p_lo, p_hi) + _clip(vr[s], p_lo, p_hi))
                    if dirs[fi] > 0:
                        l_lo, l_hi = p_lo, min(p_hi, mid)
                        r_lo, r_hi = max(p_lo, mid), p_hi
                    else:
                        l_lo, l_hi = max(p_lo, mid), p_hi
                        r_lo, r_hi = p_lo, min(p_hi, mid)
                child.append(len(nodes))
                node.left = TreeNode(value=0.0)
                node.right = TreeNode(value=0.0)
                nodes += [node.left, node.right]
                lo_next += [l_lo, r_lo]
                hi_next += [l_hi, r_hi]
            if not nodes:
                break
            lo, hi = lo_next, hi_next
            # Each split node's rows go left (code <= bin) or right; a
            # stable sort by child keeps every child's rows ascending.
            owner = np.repeat(np.arange(len(parents)), parent_counts)
            target = np.array(child)[owner]
            if len(nodes) < 2 * len(parents):
                moved = target >= 0
                rows, owner, target = rows[moved], owner[moved], target[moved]
            target += (
                codes[rows, pos_feature[best][owner]] > pos_bin[best][owner]
            )
            rows = rows[np.argsort(target, kind="stable")]
            counts = np.bincount(target, minlength=len(nodes)).tolist()
            depth += 1

        # Sum the gains in depth-first pre-order: float addition is not
        # associative, and the pinned importances are this order's sums.
        importances = np.zeros(f)
        stack = [root]
        while stack:
            node = stack.pop()
            if not node.is_leaf:
                importances[node.feature] += gains[id(node)]
                stack += [node.right, node.left]
        return root, importances

    def _search(
        self,
        space: "_SplitSpace",
        rows: np.ndarray,
        rw: np.ndarray,
        rwy: np.ndarray,
        counts: list[int],
        sw: list[float],
        swy: list[float],
        lo: list[float],
        hi: list[float],
    ) -> tuple[list[int], list[float], list[float], list[float]]:
        """Best split of every open node of a level.

        Returns, per node, the best split position (an index into the
        real positions), its gain (``-inf`` when no split is valid) and
        the unclamped left and right child values.

        Nodes are taken in blocks under :data:`_BLOCK_CELLS`. In a
        block, every row's cells are offset by its node's slot into one
        flat ``(node, feature, bin)`` index, so three ``bincount`` calls
        build every histogram. ``bincount`` adds each bin's rows in input
        order, ascending within a node, so each histogram and cumulative
        sum is the float a one-node scan computes. Gains are computed on
        the real split positions only.
        """
        f, width = space.shape
        node_cells = f * width
        per_block = max(1, _BLOCK_CELLS // node_cells)
        increasing = space.pos_dir > 0
        decreasing = space.pos_dir < 0
        constrained = space.pos_dir != 0
        any_constrained = bool(constrained.any())
        msl, mcw = self.min_samples_leaf, self.min_child_weight
        best: list[int] = []
        gain: list[float] = []
        vl_best: list[float] = []
        vr_best: list[float] = []
        a = 0
        for s0 in range(0, len(counts), per_block):
            block = counts[s0:s0 + per_block]
            slots = len(block)
            b = a + sum(block)
            flat = space.codes[rows[a:b]] + space.offsets
            if slots > 1:
                flat += np.repeat(np.arange(slots) * node_cells, block)[:, None]
            flat = flat.ravel()
            size = slots * node_cells
            shape = (slots, *space.shape)
            hists = (
                np.bincount(flat, weights=np.repeat(rw[a:b], f), minlength=size),
                np.bincount(flat, weights=np.repeat(rwy[a:b], f), minlength=size),
                np.bincount(flat, minlength=size),
            )
            cw, cwy, cn = (
                np.cumsum(h.reshape(shape), axis=2)
                .reshape(slots, -1)[:, space.pos_cell]
                for h in hists
            )
            a = b
            w_tot = np.array(sw[s0:s0 + slots])[:, None]
            wy_tot = np.array(swy[s0:s0 + slots])[:, None]
            rw_ = w_tot - cw
            rwy_ = wy_tot - cwy
            rn = np.array(block)[:, None] - cn
            valid = (np.minimum(cn, rn) >= msl) & (np.minimum(cw, rw_) >= mcw)
            dl = cw + _EPS
            dr = rw_ + _EPS
            vl = cwy / dl
            vr = rwy_ / dr
            if any_constrained:
                valid &= ~(increasing & (vl > vr))
                valid &= ~(decreasing & (vl < vr))
                # Both child values must be representable inside the
                # node's bounds, otherwise clipping would destroy the
                # gain estimate.
                n_hi = np.array(hi[s0:s0 + slots])[:, None]
                n_lo = np.array(lo[s0:s0 + slots])[:, None]
                valid &= ~(constrained & (np.minimum(vl, vr) > n_hi))
                valid &= ~(constrained & (np.maximum(vl, vr) < n_lo))
            gains = cwy * cwy / dl + rwy_ * rwy_ / dr - wy_tot * wy_tot / (w_tot + _EPS)
            gains[~valid] = -np.inf
            pick = np.argmax(gains, axis=1)
            take = np.arange(slots)
            best += pick.tolist()
            gain += gains[take, pick].tolist()
            vl_best += vl[take, pick].tolist()
            vr_best += vr[take, pick].tolist()
        return best, gain, vl_best, vr_best

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
