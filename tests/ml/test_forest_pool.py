"""The pooled random-forest fit against the in-process one.

``RandomForestRegressor.fit`` sends contiguous chunks of its trees to
the shared runtime's pool.  Every tree owns a child generator spawned in
tree order before the fan-out, so the pooled forest must equal the
in-process forest byte for byte: the same trees in the same order, the
same predictions, and no trace of the worker count on the model.
"""

import pickle

import numpy as np
import pytest

from repro.core import runtime as rt
from repro.ml.forest import RandomForestRegressor


@pytest.fixture()
def pool(monkeypatch):
    """A fresh runtime that fans out to two workers on any host."""
    monkeypatch.setattr(rt, "usable_cores", lambda: 2)
    monkeypatch.delenv("REPRO_PARALLEL", raising=False)
    rt.reset_runtime()
    yield rt.get_runtime()
    rt.reset_runtime()


def _case(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(3, 60))
    d = int(rng.integers(1, 7))
    if seed % 3 == 0:  # integer-valued X and y: ties everywhere
        X = rng.integers(0, 4, (n, d)).astype(float)
        y = rng.integers(0, 3, n).astype(float)
    else:
        X = rng.normal(size=(n, d))
        y = rng.normal(size=n)
    queries = np.vstack([X, rng.normal(size=(10, d))])
    return X, y, queries


def _forest(seed, n_estimators):
    return RandomForestRegressor(
        n_estimators=n_estimators,
        max_features=None if seed % 2 else 0.7,
        min_samples_leaf=1 + seed % 3,
        rng=seed,
    )


def _tree_bytes(forest):
    return [pickle.dumps(tree) for tree in forest._trees]


def _state_bytes(forest):
    state = dict(vars(forest))
    del state["_trees"]
    return pickle.dumps(state)


#: (n_estimators, workers): one tree; fewer trees than workers; uneven
#: and even chunks; more workers than usable cores.
SHAPES = [(1, 2), (2, 3), (3, 2), (5, 3), (8, 2), (25, 4)]


@pytest.mark.parametrize("n_estimators,workers", SHAPES)
def test_pooled_fit_matches_in_process(n_estimators, workers, pool):
    for seed in range(12):
        X, y, queries = _case(seed)
        serial = _forest(seed, n_estimators).fit(X, y, workers=1)
        before = pool.stats["parallel_batches"]
        pooled = _forest(seed, n_estimators).fit(X, y, workers=workers)
        fanned = pool.stats["parallel_batches"] - before
        assert fanned == (1 if n_estimators > 1 else 0), seed
        assert len(pooled._trees) == n_estimators
        assert _tree_bytes(pooled) == _tree_bytes(serial), seed
        # The worker count is not stored: every other attribute of the
        # forest pickles equal too.
        assert _state_bytes(pooled) == _state_bytes(serial), seed
        assert (
            pooled.predict(queries).tobytes()
            == serial.predict(queries).tobytes()
        ), seed


def test_shared_memory_context_matches_in_process(pool):
    """A training set large enough to travel through shared memory."""
    rng = np.random.default_rng(5)
    X = rng.normal(size=(400, 6))
    y = X @ rng.normal(size=6) + rng.normal(size=400)
    assert X.nbytes >= rt.MIN_SHARED_ARRAY_BYTES
    serial = _forest(1, 6).fit(X, y, workers=1)
    pooled = _forest(1, 6).fit(X, y, workers=2)
    assert pool.stats["segments_created"] > 0
    assert _tree_bytes(pooled) == _tree_bytes(serial)
    assert pooled.predict(X).tobytes() == serial.predict(X).tobytes()


def test_default_workers_fan_out(pool, monkeypatch):
    monkeypatch.delenv("REPRO_WORKERS", raising=False)
    X, y, queries = _case(4)
    serial = _forest(4, 6).fit(X, y, workers=1)
    assert pool.stats["parallel_batches"] == 0
    default = _forest(4, 6).fit(X, y)
    assert pool.stats["parallel_batches"] == 1
    assert _tree_bytes(default) == _tree_bytes(serial)
