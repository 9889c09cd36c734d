"""CART regression tree.

Standard variance-reduction splitting with optional feature subsampling
(used by the ensemble engines).  The fitted tree is stored in flat arrays
so prediction is a vectorised level-by-level descent.
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np

from repro.ml.base import Regressor
from repro.utils.rng import RngLike, ensure_rng


class _TreeArrays:
    """Flat tree storage: children, split feature/threshold, leaf value."""

    def __init__(self):
        self.feature: List[int] = []
        self.threshold: List[float] = []
        self.left: List[int] = []
        self.right: List[int] = []
        self.value: List[float] = []

    def new_node(self, value: float) -> int:
        self.feature.append(-1)
        self.threshold.append(0.0)
        self.left.append(-1)
        self.right.append(-1)
        self.value.append(value)
        return len(self.value) - 1

    def finalize(self):
        self.feature = np.asarray(self.feature, dtype=np.int64)
        self.threshold = np.asarray(self.threshold, dtype=np.float64)
        self.left = np.asarray(self.left, dtype=np.int64)
        self.right = np.asarray(self.right, dtype=np.int64)
        self.value = np.asarray(self.value, dtype=np.float64)


def _best_split(X, y, features, min_samples_leaf):
    """Best (feature, threshold, sse_gain) over the candidate features.

    One search for the whole node: the ``X[:, features]`` block is
    sorted column-wise and every cut point of every candidate is scored
    at once.  Ties resolve to the first minimum within a column and to
    the first column, in ``features`` order, with the largest gain.
    Returns ``(None, 0.0, 0.0)`` when no candidate has a valid cut.
    """
    n = y.size
    total_sum = y.sum()
    total_sq = float(y @ y)
    base_sse = total_sq - total_sum**2 / n
    block = X[:, features]
    order = np.argsort(block, axis=0, kind="stable")
    xs = np.take_along_axis(block, order, axis=0)
    ys = y[order]
    csum = np.cumsum(ys, axis=0)[:-1]
    csq = np.cumsum(ys * ys, axis=0)[:-1]
    left_n = np.arange(1, n)[:, None]
    right_n = n - left_n
    sse = (
        (csq - csum**2 / left_n)
        + (total_sq - csq)
        - (total_sum - csum) ** 2 / right_n
    )
    valid = xs[1:] != xs[:-1]
    if min_samples_leaf > 1:
        valid &= (left_n >= min_samples_leaf) & (
            right_n >= min_samples_leaf
        )
    usable = valid.any(axis=0)
    if not usable.any():
        return (None, 0.0, 0.0)
    sse = np.where(valid, sse, np.inf)
    cut = sse.argmin(axis=0)
    cols = np.arange(len(features))
    gain = np.where(usable, base_sse - sse[cut, cols], -np.inf)
    c = int(gain.argmax())
    k = cut[c]
    lo, hi = xs[k, c], xs[k + 1, c]
    threshold = 0.5 * (lo + hi)
    if threshold == hi:
        # Adjacent doubles: the midpoint rounds up onto the right
        # value, which would send every sample left.
        threshold = lo
    return (features[c], threshold, float(gain[c]))


class DecisionTreeRegressor(Regressor):
    """CART regressor (variance reduction, axis-aligned splits)."""

    def __init__(
        self,
        max_depth: Optional[int] = None,
        min_samples_split: int = 2,
        min_samples_leaf: int = 1,
        max_features: Optional[float] = None,
        rng: RngLike = 0,
    ):
        super().__init__()
        if max_depth is not None and max_depth < 1:
            raise ValueError("max_depth must be >= 1")
        if min_samples_split < 2:
            raise ValueError("min_samples_split must be >= 2")
        if min_samples_leaf < 1:
            raise ValueError("min_samples_leaf must be >= 1")
        if max_features is not None and not 0.0 < max_features <= 1.0:
            raise ValueError("max_features must be in (0, 1]")
        self.max_depth = max_depth
        self.min_samples_split = min_samples_split
        self.min_samples_leaf = min_samples_leaf
        self.max_features = max_features
        self.rng = rng

    def _fit(self, X, y):
        gen = ensure_rng(self.rng)
        d = X.shape[1]
        n_candidates = (
            d
            if self.max_features is None
            else max(1, int(round(self.max_features * d)))
        )
        tree = _TreeArrays()

        def grow(idx: np.ndarray, depth: int) -> int:
            ys = y[idx]
            node = tree.new_node(float(ys.mean()))
            if (
                idx.size < self.min_samples_split
                or (self.max_depth is not None and depth >= self.max_depth)
                or np.all(ys == ys[0])
            ):
                return node
            if n_candidates < d:
                features = gen.choice(d, size=n_candidates, replace=False)
            else:
                features = np.arange(d)
            j, threshold, gain = _best_split(
                X[idx], ys, features, self.min_samples_leaf
            )
            if j is None or gain <= 1e-12:
                return node
            mask = X[idx, j] <= threshold
            tree.feature[node] = j
            tree.threshold[node] = threshold
            left = grow(idx[mask], depth + 1)
            right = grow(idx[~mask], depth + 1)
            tree.left[node] = left
            tree.right[node] = right
            return node

        grow(np.arange(X.shape[0]), 0)
        tree.finalize()
        self._tree = tree

    def _predict(self, X):
        tree = self._tree
        nodes = np.zeros(X.shape[0], dtype=np.int64)
        active = tree.feature[nodes] >= 0
        while np.any(active):
            idx = np.nonzero(active)[0]
            cur = nodes[idx]
            go_left = (
                X[idx, tree.feature[cur]] <= tree.threshold[cur]
            )
            nodes[idx] = np.where(
                go_left, tree.left[cur], tree.right[cur]
            )
            active[idx] = tree.feature[nodes[idx]] >= 0
        return tree.value[nodes]

    def node_count(self) -> int:
        """Number of nodes in the fitted tree."""
        return int(self._tree.value.size)
