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
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.circuits.base import ArithmeticCircuit
from repro.circuits.luts import MAX_LUT_WIDTH, build_exact_lut, build_lut
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


def _stats_from_outputs(
    approx: np.ndarray,
    exact: np.ndarray,
    exhaustive: bool,
    denom: Optional[np.ndarray] = None,
) -> ErrorStats:
    global _RUNS
    _RUNS += 1
    signed_err = (approx - exact).astype(np.float64)
    abs_err = np.abs(signed_err)
    if denom is None:
        denom = np.maximum(np.abs(exact).astype(np.float64), 1.0)
    return ErrorStats(
        med=float(abs_err.mean()),
        wce=int(abs_err.max()),
        mre=float((abs_err / denom).mean()),
        error_prob=float((abs_err > 0).mean()),
        error_var=float(signed_err.var()),
        mse=float((signed_err**2).mean()),
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
