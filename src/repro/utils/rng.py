"""Random-number-generator plumbing.

Everything stochastic in the library (library generation, training-set
sampling, hill climbing, random-search baselines) accepts either a seed or a
:class:`numpy.random.Generator`.  These helpers normalise the two forms and
derive independent child generators so that parallel stages do not share
streams.
"""

from __future__ import annotations

from typing import List, Optional, Union

import numpy as np

RngLike = Union[None, int, "np.random.Generator"]


def ensure_rng(rng: RngLike = None) -> np.random.Generator:
    """Return a :class:`numpy.random.Generator` for ``rng``.

    ``None`` yields a fresh unseeded generator, an ``int`` seeds a new
    generator, and an existing generator is passed through unchanged.
    """
    if rng is None:
        return np.random.default_rng()
    if isinstance(rng, np.random.Generator):
        return rng
    if isinstance(rng, (int, np.integer)):
        return np.random.default_rng(int(rng))
    raise TypeError(f"cannot build a Generator from {type(rng).__name__}")


def spawn_rngs(rng: RngLike, count: int) -> List[np.random.Generator]:
    """Derive ``count`` statistically independent child generators."""
    if count < 0:
        raise ValueError("count must be non-negative")
    parent = ensure_rng(rng)
    seeds = parent.integers(0, 2**63 - 1, size=count, dtype=np.int64)
    return [np.random.default_rng(int(s)) for s in seeds]
