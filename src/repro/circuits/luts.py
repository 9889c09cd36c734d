"""Lookup-table compilation for small-width circuits.

Accelerator simulation evaluates each operation on ~10**5 pixel values per
image.  For operand widths up to :data:`MAX_LUT_WIDTH` bits we pre-compute
the full truth table once per circuit; the hot path then reduces to a numpy
gather.  The flat index of operand pair ``(a, b)`` is ``(a << n) | b``.

Behavioural models run on broadcast operands ``v[r:r + rows, None],
v[None, :]`` (``v = 0 .. 2**n - 1``), one row tile of :data:`TILE`
entries at a time, into a preallocated table: every pass a model makes
over its operands touches a cache-sized tile instead of allocating a
fresh 8 MB temporary for a ten-bit table.  The result does not depend on
the tiling — each entry is a pure function of its operand pair.
Netlist-backed circuits (``packed_lut`` hooks) simulate bit-planes
instead and are not tiled.  Exact tables are built once per process and
shared read-only.
"""

from __future__ import annotations

import numpy as np

from repro.circuits.base import ArithmeticCircuit
from repro.errors import CircuitError
from repro.utils.bitops import bit_mask

#: Widest operands for which an exhaustive LUT is reasonable (2**20 entries).
MAX_LUT_WIDTH = 10

#: Entries per tile of the table builds and of the error statistics
#: (:mod:`repro.circuits.characterization`): 2**15 int64 entries are
#: 256 KiB, so a tile and the model's temporaries stay in cache instead
#: of streaming (and page-faulting) whole 8 MB tables per pass.
TILE = 1 << 15

#: Per-width flat operand grids for the packed netlist hooks, which
#: simulate bit-planes over explicit ``4**width``-length operand
#: vectors.  Cached read-only so those hooks share one grid per width.
_OPERAND_GRIDS: dict = {}

#: Exact tables keyed by ``(operation, width)``, read-only.
_EXACT_LUTS: dict = {}


def _check_width(n: int) -> None:
    if n > MAX_LUT_WIDTH:
        raise CircuitError(
            f"LUT for {n}-bit operands would need {4**n} entries; "
            f"widths above {MAX_LUT_WIDTH} must use evaluate()"
        )


def operand_grid(width: int):
    """The exhaustive ``(a, b)`` operand arrays of ``width``-bit pairs.

    Cached and read-only: all packed LUT builds of the same width share
    one grid.  ``a`` varies in the high bits (index ``(a << width) | b``).
    """
    _check_width(width)
    grid = _OPERAND_GRIDS.get(width)
    if grid is None:
        size = 1 << width
        pairs = np.arange(size * size, dtype=np.int64)
        a = pairs >> width
        b = pairs & bit_mask(width)
        a.flags.writeable = False
        b.flags.writeable = False
        _OPERAND_GRIDS[width] = grid = (a, b)
    return grid


def lut_index(a: np.ndarray, b: np.ndarray, width: int) -> np.ndarray:
    """Flat LUT index of operand pair ``(a, b)`` at the given width."""
    mask = bit_mask(width)
    return ((np.asarray(a, dtype=np.int64) & mask) << width) | (
        np.asarray(b, dtype=np.int64) & mask
    )


def _tabulate(fn, width: int) -> np.ndarray:
    """``fn`` over all operand pairs, as a flat writeable int64 table.

    Fills a preallocated ``(2**width, 2**width)`` table one row tile of
    :data:`TILE` entries at a time, so each model's temporaries stay
    cache-sized.  Broadcast assignment covers models that ignore an
    operand (a ``(rows, 1)``, ``(1, size)`` or scalar result).
    """
    size = 1 << width
    v = np.arange(size, dtype=np.int64)
    out = np.empty((size, size), dtype=np.int64)
    rows = max(1, TILE // size)
    for r in range(0, size, rows):
        out[r:r + rows] = fn(v[r:r + rows, None], v[None, :])
    return out.reshape(-1)


def build_lut(circuit: ArithmeticCircuit) -> np.ndarray:
    """Exhaustive output table of ``circuit`` (int64, length ``4**width``).

    Netlist-backed circuits (anything exposing a ``packed_lut`` hook,
    e.g. :class:`~repro.circuits.netlist_backed.NetlistCircuit`) are
    simulated over the flat grid with bit-packed planes — 64 operand
    pairs per machine word per gate — instead of ``4**width`` word-mode
    gate evaluations; the table is bit-identical either way.
    """
    _check_width(circuit.width)
    packed = getattr(circuit, "packed_lut", None)
    if callable(packed):
        return np.asarray(packed(*operand_grid(circuit.width)), dtype=np.int64)
    return _tabulate(circuit.evaluate, circuit.width)


def build_exact_lut(circuit: ArithmeticCircuit) -> np.ndarray:
    """Exhaustive table of the *exact* operation at the circuit's width.

    The arithmetic table is memoised per ``(operation, width)`` and
    returned read-only.  Netlist-backed circuits route through their
    ``packed_exact_lut`` hook (bit-packed simulation of the exact
    netlist); the result is bit-identical to the arithmetic reference.
    """
    _check_width(circuit.width)
    packed = getattr(circuit, "packed_exact_lut", None)
    if callable(packed):
        return np.asarray(packed(*operand_grid(circuit.width)), dtype=np.int64)
    key = (circuit.op, circuit.width)
    lut = _EXACT_LUTS.get(key)
    if lut is None:
        lut = _tabulate(circuit.exact, circuit.width)
        lut.flags.writeable = False
        _EXACT_LUTS[key] = lut
    return lut
