"""Oracles for the tiled truth tables and error statistics.

``_stats_from_outputs`` reduces in tiles and ``_tabulate`` fills its
table in row tiles; both must reproduce the whole-array computations
they replace exactly — the statistics bit for bit, since stored
component records are compared byte for byte.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.circuits.base import ExactAdder
from repro.circuits.characterization import (
    ErrorStats,
    _stats_from_outputs,
    characterize,
    characterize_many,
    sample_operands,
)
from repro.circuits.luts import TILE, _tabulate, build_exact_lut, build_lut
from repro.circuits.multipliers import PerforatedMultiplier
from repro.library.component import FAMILY_REGISTRY


def whole_array_stats(approx, exact, exhaustive, denom=None):
    """The untiled statistics: the reference the tiles must reproduce."""
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


def untiled_table(fn, width):
    """``fn`` over all operand pairs in one broadcast call."""
    size = 1 << width
    v = np.arange(size, dtype=np.int64)
    out = np.asarray(fn(v[:, None], v[None, :]), dtype=np.int64)
    return np.broadcast_to(out, (size, size)).reshape(-1)


def _params(family, width):
    """One approximate instance of every family (exact ones take none)."""
    top = width - 5
    return {
        "TruncatedAdder": {"trunc_bits": 3, "fill": "half"},
        "LowerOrAdder": {"or_bits": 4},
        "AlmostCorrectAdder": {"window": 3},
        "GeArAdder": {"resultant": 2, "previous": 1},
        "QuAdAdder": {"blocks": [3, 2, top], "predictions": [0, 2, 1]},
        "TruncatedSubtractor": {"trunc_bits": 3, "fill": "copy"},
        "BlockSubtractor": {"blocks": [2, 3, top], "predictions": [0, 1, 3]},
        "MaskedMultiplier": {
            "row_masks": [(0x3C5A >> i) & ((1 << width) - 1)
                          for i in range(width)],
        },
        "BrokenArrayMultiplier": {"vbl": width, "hbl": 3},
        "PerforatedMultiplier": {"omitted_rows": [1, 4]},
        "TruncatedMultiplier": {"trunc_a": 3, "trunc_b": 1},
        "RecursiveApproxMultiplier": {"approx_leaves": [0, 5, 10]},
        "MitchellMultiplier": {"frac_bits": 4},
        "DrumMultiplier": {"k": 5},
    }.get(family, {})


def family_circuits(widths):
    """Every registered family at each width it supports."""
    circuits = []
    for width in widths:
        for family, klass in sorted(FAMILY_REGISTRY.items()):
            if family == "RecursiveApproxMultiplier" and width & (width - 1):
                continue  # needs a power-of-two width
            circuits.append(klass(width, **_params(family, width)))
    return circuits


EXHAUSTIVE = family_circuits((8, 9, 10))
SAMPLED = family_circuits((12, 16))


def test_every_family_is_covered():
    assert {type(c).__name__ for c in EXHAUSTIVE} == set(FAMILY_REGISTRY)
    assert {type(c).__name__ for c in SAMPLED} == set(FAMILY_REGISTRY)


@pytest.mark.parametrize("circuit", EXHAUSTIVE, ids=lambda c: c.name)
def test_exhaustive_stats_bit_identical(circuit):
    approx = build_lut(circuit)
    exact = build_exact_lut(circuit)
    assert approx.size > TILE  # the tiled reduction runs
    expected = whole_array_stats(approx, exact, True)
    assert _stats_from_outputs(approx, exact, True) == expected
    assert characterize(circuit) == expected
    assert characterize_many([circuit]) == [expected]


@pytest.mark.parametrize("sample_size", [1 << 15, 1000, 3 << 14, 1 << 16])
def test_sampled_stats_bit_identical(sample_size):
    expected = []
    for circuit in SAMPLED:
        a, b = sample_operands(circuit.width, sample_size, 0)
        approx = np.asarray(circuit.evaluate(a, b), dtype=np.int64)
        exact = np.asarray(circuit.exact(a, b), dtype=np.int64)
        stats = whole_array_stats(approx, exact, False)
        assert _stats_from_outputs(approx, exact, False) == stats
        assert characterize(circuit, sample_size=sample_size) == stats
        expected.append(stats)
    assert characterize_many(SAMPLED, sample_size=sample_size) == expected


def test_exact_circuit_has_all_zero_error():
    circuit = ExactAdder(10)
    approx = build_lut(circuit)
    exact = build_exact_lut(circuit)
    stats = _stats_from_outputs(approx, exact, True)
    assert stats == whole_array_stats(approx, exact, True)
    assert stats == ErrorStats(0.0, 0, 0.0, 0.0, 0.0, 0.0, True)


def test_squared_errors_beyond_float_precision():
    # Dropping the top row of a 10-bit multiplier makes errors so large
    # that the sum of squared errors cannot be held exactly in float64.
    circuit = PerforatedMultiplier(10, [9])
    approx = build_lut(circuit)
    exact = build_exact_lut(circuit)
    stats = _stats_from_outputs(approx, exact, True)
    assert stats.wce**2 * 4**10 > 2**53
    assert stats == whole_array_stats(approx, exact, True)


@pytest.mark.parametrize("width", [8, 10])
def test_tabulate_matches_untiled_for_every_family(width):
    for circuit in family_circuits((width,)):
        for fn in (circuit.evaluate, circuit.exact):
            table = _tabulate(fn, width)
            assert table.dtype == np.int64 and table.flags.writeable
            np.testing.assert_array_equal(table, untiled_table(fn, width))


@pytest.mark.parametrize("width", [3, 8, 10])
@pytest.mark.parametrize(
    "fn",
    [
        lambda a, b: a * 3 + 1,  # (rows, 1): ignores b
        lambda a, b: b ^ 5,      # (1, size): ignores a
        lambda a, b: 7,          # scalar
    ],
    ids=["rows-by-1", "1-by-size", "scalar"],
)
def test_tabulate_broadcasts_partial_models(fn, width):
    np.testing.assert_array_equal(
        _tabulate(fn, width), untiled_table(fn, width)
    )
