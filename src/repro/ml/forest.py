"""Random forest regressor (bagged CART trees).

The paper's winning engine: 100 trees (§4.1.2).  Bootstrap sampling plus
per-split feature subsampling decorrelate the trees; predictions average.
Trees are independent, so :meth:`RandomForestRegressor.fit` fits
contiguous chunks of them on the shared runtime's worker pool, one chunk
per worker of the runtime's count.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.ml.base import Regressor
from repro.ml.trees import DecisionTreeRegressor
from repro.utils.rng import RngLike, ensure_rng, spawn_rngs


class RandomForestRegressor(Regressor):
    """Bagging ensemble of :class:`DecisionTreeRegressor`."""

    def __init__(
        self,
        n_estimators: int = 100,
        max_depth: Optional[int] = None,
        min_samples_leaf: int = 1,
        max_features: Optional[float] = None,
        rng: RngLike = 0,
    ):
        super().__init__()
        if n_estimators < 1:
            raise ValueError("n_estimators must be >= 1")
        self.n_estimators = n_estimators
        self.max_depth = max_depth
        self.min_samples_leaf = min_samples_leaf
        self.max_features = max_features
        self.rng = rng

    def _fit(self, X, y):
        """Fit the trees in chunks, one per worker.

        The chunk count is the runtime's worker count
        (:func:`~repro.core.runtime.default_workers`).  Every tree draws
        from its own child generator, spawned here in tree order, so the
        fitted forest is byte-identical for any count; the count is not
        stored on the model.
        """
        from repro.core.runtime import default_workers, get_runtime

        rngs = spawn_rngs(ensure_rng(self.rng), self.n_estimators)
        n_chunks = min(default_workers() or 1, len(rngs))
        step = -(-len(rngs) // n_chunks)
        params = {
            "max_depth": self.max_depth,
            "min_samples_leaf": self.min_samples_leaf,
            "max_features": self.max_features,
        }
        chunks = [
            (params, rngs[lo:lo + step])
            for lo in range(0, len(rngs), step)
        ]
        parts = get_runtime().map(
            _fit_trees,
            chunks,
            context=(X, y),
            label="forest-fit",
        )
        self._trees = [tree for part in parts for tree in part]
        self._compiled = None

    def _compile(self):
        """Concatenate all trees into flat arrays for joint traversal.

        Prediction then descends every tree of the forest simultaneously
        with vectorised gathers — crucial for the hill-climbing loop,
        which asks for single-row predictions ~10**5 times.
        """
        feats, thrs, lefts, rights, values, roots = [], [], [], [], [], []
        offset = 0
        for tree in self._trees:
            t = tree._tree
            size = t.value.size
            roots.append(offset)
            feats.append(t.feature)
            thrs.append(t.threshold)
            child_shift = np.where(t.left >= 0, offset, 0)
            lefts.append(t.left + child_shift)
            rights.append(t.right + np.where(t.right >= 0, offset, 0))
            values.append(t.value)
            offset += size
        self._compiled = (
            np.concatenate(feats),
            np.concatenate(thrs),
            np.concatenate(lefts),
            np.concatenate(rights),
            np.concatenate(values),
            np.asarray(roots, dtype=np.int64),
        )

    def _predict(self, X):
        if self._compiled is None:
            self._compile()
        feat, thr, left, right, value, roots = self._compiled
        n = X.shape[0]
        n_trees = roots.size
        nodes = np.tile(roots, (n, 1))
        rows = np.broadcast_to(
            np.arange(n)[:, None], (n, n_trees)
        )
        active = feat[nodes] >= 0
        while np.any(active):
            cur = nodes[active]
            go_left = X[rows[active], feat[cur]] <= thr[cur]
            nodes[active] = np.where(go_left, left[cur], right[cur])
            active[active] = feat[nodes[active]] >= 0
        return value[nodes].mean(axis=1)


def _fit_trees(context, task):
    """Runtime task: fit one contiguous chunk of a forest's trees."""
    X, y = context
    params, rngs = task
    n = X.shape[0]
    trees = []
    for tree_rng in rngs:
        idx = tree_rng.integers(0, n, size=n)
        tree = DecisionTreeRegressor(rng=tree_rng, **params)
        tree.fit(X[idx], y[idx])
        trees.append(tree)
    return trees
