"""Error characterisation of approximate circuits.

Every library component is "fully characterised" (paper §1) by standard
error metrics computed against the exact operation:

* ``med`` — mean error distance, E[|approx - exact|]
* ``wce`` — worst-case error, max |approx - exact|
* ``mre`` — mean relative error distance, E[|approx - exact| / max(1, |exact|)]
* ``error_prob`` — probability of producing any wrong output
* ``error_var`` — variance of the signed error
* ``mse`` — mean squared error

For operand widths up to :data:`~repro.circuits.luts.MAX_LUT_WIDTH` the
metrics are exhaustive over all input pairs (uniform input distribution);
wider circuits are characterised on a seeded uniform random sample.  The
mode that actually ran is recorded on :attr:`ErrorStats.exhaustive` —
sampled metrics are estimates (``wce`` in particular is only a lower
bound on the true worst case), so consumers must be able to tell the two
apart.

:func:`characterize_many` is the batched front end for library
construction: it computes the same statistics for a whole chunk of
circuits while sharing the operand sample per width and the exact
reference per (operation, width); exhaustive exact tables are memoised
process-wide by :func:`~repro.circuits.luts.build_exact_lut`.

All statistics go through one routine, :func:`_stats_from_outputs`,
which reduces ten-bit tables (``2**20`` outputs) in tiles of
:data:`~repro.circuits.luts.TILE` entries through two reused tile
buffers instead of a dozen whole-array temporaries.  It stays bit
identical to the whole-array numpy reductions: numpy sums float64
arrays pairwise, and for a power-of-two length the pairwise halving
falls on tile boundaries, so tile sums combined in a binary tree are
exactly numpy's sum.  Other lengths (most samples) are one tile.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.circuits.base import ArithmeticCircuit
from repro.circuits.luts import (
    MAX_LUT_WIDTH,
    TILE,
    build_exact_lut,
    build_lut,
)
from repro.utils.bitops import bit_mask
from repro.utils.rng import RngLike, ensure_rng

#: Process-local count of circuits characterised since import.  The
#: warm-rebuild tests assert this stays flat across a fully cached
#: library build (mirroring ``repro.core.modeling.fit_count``).
_RUNS = 0


def characterization_count() -> int:
    """Circuits characterised by this process since import."""
    return _RUNS


@dataclass(frozen=True)
class ErrorStats:
    """Summary error metrics of one approximate circuit.

    ``exhaustive`` records whether the metrics cover *all* input pairs
    (True) or a uniform random sample (False).  Sampled statistics are
    estimates; sampled ``wce`` is a lower bound on the true worst-case
    error.
    """

    med: float
    wce: int
    mre: float
    error_prob: float
    error_var: float
    mse: float
    exhaustive: bool = True

    def is_exact(self) -> bool:
        """True when no evaluated input produced an error."""
        return self.wce == 0


def _tile_length(n: int) -> int:
    """Tile length of the statistics over ``n`` outputs.

    numpy sums a contiguous float64 array pairwise: it halves the array
    down to blocks of at most 128 entries.  For ``n`` a power of two
    above :data:`~repro.circuits.luts.TILE`, the halving lands exactly
    on tile boundaries, so per-tile sums combined in a binary tree
    (:func:`_tree_sum`) reproduce numpy's whole-array sum bit for bit.
    Any other ``n`` is one tile: the whole array, as numpy sums it.
    """
    if n > TILE and n & (n - 1) == 0:
        return TILE
    return n


def _tree_sum(parts: List[float]) -> float:
    """Pairwise (binary-tree) sum of a power-of-two count of tile sums."""
    while len(parts) > 1:
        parts = [parts[i] + parts[i + 1] for i in range(0, len(parts), 2)]
    return parts[0]


def _stats_from_outputs(
    approx: np.ndarray,
    exact: np.ndarray,
    exhaustive: bool,
    denom: Optional[np.ndarray] = None,
) -> ErrorStats:
    """Error metrics of ``approx`` against ``exact`` (flat int64 arrays).

    Reduces tile by tile (see :func:`_tile_length`) through two
    preallocated float64 tile buffers instead of a dozen whole-array
    temporaries.
    Every sum is bit-identical to the whole-array numpy reduction:
    ``med``, ``mre`` and ``mse`` are sums divided by ``n``, and
    ``error_var`` is ``var()``'s two-pass mean of ``(err - mean)**2``.
    ``wce`` is a max and ``error_prob`` a nonzero count, both exact.
    ``denom`` (the MRE denominator ``max(|exact|, 1)``) is derived per
    tile when not supplied.
    """
    global _RUNS
    _RUNS += 1
    n = approx.size
    tile = _tile_length(n)
    err = np.empty(tile, dtype=np.float64)
    work = np.empty(tile, dtype=np.float64)
    sum_err, sum_abs, sum_rel, sum_sq = [], [], [], []
    wce = 0.0
    nonzero = 0
    for lo in range(0, n, tile):
        hi = lo + tile
        np.subtract(approx[lo:hi], exact[lo:hi], out=err)
        sum_err.append(err.sum())
        np.multiply(err, err, out=work)
        sum_sq.append(work.sum())
        np.abs(err, out=work)
        sum_abs.append(work.sum())
        wce = max(wce, work.max())
        nonzero += np.count_nonzero(work)
        if denom is None:
            np.abs(exact[lo:hi], out=err)
            np.maximum(err, 1.0, out=err)
            np.divide(work, err, out=work)
        else:
            np.divide(work, denom[lo:hi], out=work)
        sum_rel.append(work.sum())
    mean = _tree_sum(sum_err) / n
    sum_dev = []
    for lo in range(0, n, tile):
        hi = lo + tile
        np.subtract(approx[lo:hi], exact[lo:hi], out=err)
        np.subtract(err, mean, out=err)
        np.multiply(err, err, out=err)
        sum_dev.append(err.sum())
    return ErrorStats(
        med=float(_tree_sum(sum_abs) / n),
        wce=int(wce),
        mre=float(_tree_sum(sum_rel) / n),
        error_prob=float(nonzero / n),
        error_var=float(_tree_sum(sum_dev) / n),
        mse=float(_tree_sum(sum_sq) / n),
        exhaustive=exhaustive,
    )


def sample_operands(
    width: int, count: int, rng: RngLike = None
) -> Tuple[np.ndarray, np.ndarray]:
    """Uniform random operand pairs for a ``width``-bit circuit."""
    gen = ensure_rng(rng)
    high = bit_mask(width) + 1
    a = gen.integers(0, high, size=count, dtype=np.int64)
    b = gen.integers(0, high, size=count, dtype=np.int64)
    return a, b


def characterize(
    circuit: ArithmeticCircuit,
    sample_size: int = 1 << 15,
    rng: RngLike = 0,
    exhaustive: Optional[bool] = None,
) -> ErrorStats:
    """Compute :class:`ErrorStats` for ``circuit``.

    ``exhaustive=None`` (default) chooses exhaustive evaluation whenever
    the operand width permits a LUT, falling back to ``sample_size``
    seeded uniform samples otherwise.  ``sample_size`` and ``rng`` only
    take effect in sampled mode; the returned stats carry the mode that
    ran on :attr:`ErrorStats.exhaustive` so callers can tell a true
    worst case from a sampled lower bound.
    """
    if exhaustive is None:
        exhaustive = circuit.width <= MAX_LUT_WIDTH
    if exhaustive:
        approx = build_lut(circuit)
        exact = build_exact_lut(circuit)
    else:
        a, b = sample_operands(circuit.width, sample_size, rng)
        approx = np.asarray(circuit.evaluate(a, b), dtype=np.int64)
        exact = np.asarray(circuit.exact(a, b), dtype=np.int64)
    return _stats_from_outputs(approx, exact, exhaustive)


def characterize_many(
    circuits: Sequence[ArithmeticCircuit],
    sample_size: int = 1 << 15,
    rng: RngLike = 0,
) -> List[ErrorStats]:
    """Characterise a batch of circuits, amortising shared inputs.

    Produces exactly the stats of ``[characterize(c, sample_size, rng)
    for c in circuits]`` when ``rng`` is a seed (each distinct width
    re-seeds its operand sample, matching :func:`characterize`'s
    per-call seeding), while drawing the operand sample only once per
    width and computing the exact reference outputs and the MRE
    denominator only once per (operation, width) — the same arrays,
    hence bit-identical statistics.  Passing a live ``Generator``
    instead consumes it once per distinct width in first-use order.
    """
    operands: dict = {}
    references: dict = {}
    stats: List[ErrorStats] = []
    for circuit in circuits:
        exhaustive = circuit.width <= MAX_LUT_WIDTH
        if exhaustive:
            approx = build_lut(circuit)
        else:
            if circuit.width not in operands:
                # A seed re-seeds per width (matching characterize's
                # per-call default); a live Generator passes through
                # ensure_rng and is consumed once per distinct width.
                operands[circuit.width] = sample_operands(
                    circuit.width, sample_size, rng
                )
            a, b = operands[circuit.width]
            approx = np.asarray(circuit.evaluate(a, b), dtype=np.int64)
        key = (circuit.op.value, circuit.width)
        if key not in references:
            if exhaustive:
                exact = build_exact_lut(circuit)
            else:
                exact = np.asarray(circuit.exact(a, b), dtype=np.int64)
            denom = np.maximum(np.abs(exact).astype(np.float64), 1.0)
            references[key] = (exact, denom)
        exact, denom = references[key]
        stats.append(
            _stats_from_outputs(approx, exact, exhaustive, denom=denom)
        )
    return stats
