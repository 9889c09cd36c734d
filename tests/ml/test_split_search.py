"""CART's node split search: oracle, tie-break contract, edge cases.

``_best_split`` scores every cut point of every candidate feature in one
vectorised search.  The oracle below is the straightforward per-feature
loop it replaced; every tree engine must predict byte-identically with
either one in place.
"""

import numpy as np
import pytest

from repro.ml import trees
from repro.ml.boosting import AdaBoostRegressor, GradientBoostingRegressor
from repro.ml.forest import RandomForestRegressor
from repro.ml.trees import DecisionTreeRegressor, _best_split


def _loop_best_split(X, y, features, min_samples_leaf):
    """Reference: one sort and two cumsums per candidate feature."""
    n = y.size
    total_sum = y.sum()
    total_sq = float(y @ y)
    base_sse = total_sq - total_sum**2 / n
    best = (None, 0.0, 0.0)
    for j in features:
        order = np.argsort(X[:, j], kind="stable")
        xs = X[order, j]
        ys = y[order]
        csum = np.cumsum(ys)[:-1]
        csq = np.cumsum(ys * ys)[:-1]
        left_n = np.arange(1, n)
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
        if not np.any(valid):
            continue
        sse = np.where(valid, sse, np.inf)
        k = int(np.argmin(sse))
        gain = base_sse - float(sse[k])
        if best[0] is None or gain > best[2]:
            threshold = 0.5 * (xs[k] + xs[k + 1])
            if threshold == xs[k + 1]:
                threshold = xs[k]
            best = (j, threshold, gain)
    return best


def _random_case(seed):
    """Seeded data covering ties, constant columns and tiny sizes."""
    rng = np.random.default_rng(seed)
    n = (2, 3)[seed % 2] if seed % 8 == 0 else int(rng.integers(4, 40))
    d = int(rng.integers(1, 7))
    if seed % 3 == 0:  # integer-valued X and y: ties everywhere
        X = rng.integers(0, 4, (n, d)).astype(float)
        y = rng.integers(0, 3, n).astype(float)
    else:
        X = rng.normal(size=(n, d))
        y = rng.normal(size=n)
    if seed % 5 == 0:
        X[:, int(rng.integers(d))] = 2.5  # a constant column
    queries = np.vstack([X, rng.normal(size=(10, d))])
    return X, y, queries, 1 + seed % 3


ENGINES = {
    "DT": lambda seed, leaf: DecisionTreeRegressor(
        min_samples_leaf=leaf, rng=seed
    ),
    "RF": lambda seed, leaf: RandomForestRegressor(
        n_estimators=4, max_features=0.7, min_samples_leaf=leaf,
        rng=seed,
    ),
    "GB": lambda seed, leaf: GradientBoostingRegressor(
        n_estimators=4, rng=seed
    ),
    "Ada": lambda seed, leaf: AdaBoostRegressor(n_estimators=4, rng=seed),
}


@pytest.mark.parametrize("engine", sorted(ENGINES))
def test_matches_per_feature_loop(engine, monkeypatch):
    make = ENGINES[engine]
    cases = [_random_case(seed) for seed in range(160)]
    # In-process: the patched oracle must run in this process, not in
    # pool workers that never saw the patch.
    monkeypatch.setenv("REPRO_WORKERS", "1")
    fast = [
        make(seed, leaf).fit(X, y).predict(Q)
        for seed, (X, y, Q, leaf) in enumerate(cases)
    ]
    monkeypatch.setattr(trees, "_best_split", _loop_best_split)
    for seed, (X, y, Q, leaf) in enumerate(cases):
        ref = make(seed, leaf).fit(X, y).predict(Q)
        assert fast[seed].tobytes() == ref.tobytes(), (engine, seed)


class TestTieBreak:
    # Columns 0 and 2 split y identically (equal gain); column 1 is
    # constant and never usable.
    X = np.array([
        [0.0, 7.0, 10.0],
        [0.0, 7.0, 10.0],
        [1.0, 7.0, 20.0],
        [1.0, 7.0, 20.0],
    ])
    y = np.array([0.0, 0.0, 1.0, 1.0])

    def test_first_in_features_order_wins(self):
        j, threshold, gain = _best_split(
            self.X, self.y, np.array([2, 0]), 1
        )
        assert (j, threshold, gain) == (2, 15.0, 1.0)
        j, threshold, _ = _best_split(self.X, self.y, np.array([0, 2]), 1)
        assert (j, threshold) == (0, 0.5)

    def test_first_minimum_within_a_feature(self):
        # Cutting after row 0 or after row 2 both leave SSE 2/3 + 0.
        X = np.array([[0.0], [1.0], [2.0], [3.0]])
        y = np.array([0.0, 1.0, 1.0, 0.0])
        j, threshold, _ = _best_split(X, y, np.array([0]), 1)
        assert (j, threshold) == (0, 0.5)

    def test_constant_candidates_give_no_split(self):
        assert _best_split(self.X, self.y, np.array([1]), 1)[0] is None

    def test_all_constant_node_is_a_leaf(self):
        X = np.full((6, 3), 4.0)
        y = np.arange(6.0)
        model = DecisionTreeRegressor().fit(X, y)
        assert model.node_count() == 1
        assert np.all(model.predict(X) == 2.5)

    def test_min_samples_leaf_masks_every_cut(self):
        X = np.array([[0.0], [1.0], [2.0]])
        y = np.array([0.0, 1.0, 2.0])
        assert _best_split(X, y, np.array([0]), 2)[0] is None


class TestAdjacentFloats:
    """The midpoint of adjacent doubles can round onto the right one."""

    a = np.nextafter(1.0, 2.0)
    b = np.nextafter(a, 10.0)

    def test_threshold_falls_back_to_left_value(self):
        X = np.array([[self.a], [self.b]])
        _, threshold, _ = _best_split(
            X, np.array([0.0, 1.0]), np.array([0]), 1
        )
        assert threshold == self.a

    def test_tree_separates_adjacent_values(self):
        X = np.array([[self.a], [self.b]])
        model = DecisionTreeRegressor().fit(X, [0.0, 1.0])
        assert model.node_count() == 3
        assert model.predict(X).tolist() == [0.0, 1.0]
