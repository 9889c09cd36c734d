"""Weighted mean error distance (paper §2.2).

``WMED_k(M~) = sum_i D_k(i) * |M(i) - M~(i)|`` — the mean error distance of
an approximate circuit under the *empirical operand distribution* of the
operation it would replace.  Narrow operations use the profiler's dense
PMF (exact expectation); wide operations fall back to the recorded operand
samples (empirical expectation over the same distribution).

Circuits are evaluated only on the PMF's support, never tabulated; the
errors fill a zeroed grid-sized buffer so WMED stays the dense ``pmf @
buf`` dot, bit-identical to ``pmf @ |lut - exact|`` (same order, and
off-support terms are ``0 * x = 0`` either way).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Sequence

import numpy as np

from repro.circuits.luts import build_exact_lut
from repro.utils.bitops import bit_mask

if TYPE_CHECKING:
    from repro.accelerators.profiler import OperandProfile
    from repro.library.component import ComponentRecord


def wmed(record: ComponentRecord, profile: OperandProfile) -> float:
    """WMED of ``record`` under the operand distribution of ``profile``."""
    return float(wmed_table([record], profile)[0])


def wmed_table(
    records: Sequence[ComponentRecord], profile: OperandProfile
) -> np.ndarray:
    """WMED of every record in ``records`` (float64 array)."""
    for record in records:
        if record.signature != profile.signature:
            raise ValueError(
                f"signature mismatch: component {record.signature} vs "
                f"profile {profile.signature}"
            )
    table = np.zeros(len(records), dtype=np.float64)
    if not records:
        return table
    pmf = profile.pmf
    if pmf is None:
        a, b = profile.sample_a, profile.sample_b
        exact = np.asarray(records[0].circuit.exact(a, b), dtype=np.int64)
    else:
        support = np.flatnonzero(pmf)
        a, b = support >> profile.width, support & bit_mask(profile.width)
        exact = build_exact_lut(records[0].circuit)[support]
        buf = np.zeros(pmf.size, dtype=np.float64)
    for i, record in enumerate(records):
        approx = np.asarray(record.circuit.evaluate(a, b), dtype=np.int64)
        if pmf is None:
            table[i] = np.mean(np.abs(approx - exact))
        else:
            buf[support] = np.abs(approx - exact)
            table[i] = pmf @ buf
    return table
