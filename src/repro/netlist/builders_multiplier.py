"""Structural netlist builders for the multiplier families.

The masked array multiplier (covering the exact, broken-array, perforated
and truncated variants) and the recursive 2x2 multiplier produce full gate
netlists.  The logarithmic families (Mitchell, DRUM) are emitted as
parametric macro cells: their datapaths (leading-one detectors and barrel
shifters) are modelled by calibrated area/delay/power formulas instead of
individual gates, which keeps them opaque to intra-component constant
propagation.  This substitutes a model for gate-level synthesis of those
designs: their area/delay/power still track the datapath width, but
constant inputs do not shrink them.
"""

from __future__ import annotations

import math
from typing import Dict, List

from repro.circuits.multipliers import (
    DrumMultiplier,
    MaskedMultiplier,
    MitchellMultiplier,
    RecursiveApproxMultiplier,
)
from repro.netlist.cells import CELLS, macro_cell
from repro.netlist.netlist import CONST0, Netlist
from repro.netlist.vector_ops import vector_add


def _compress_columns(
    nl: Netlist, columns: List[List[int]], width: int
) -> List[int]:
    """Reduce partial-product columns to one bit each (FA/HA tree + CPA)."""
    # Carry-save reduction to height <= 2, LSB column first so that carries
    # always land in a column that has not been processed yet.
    for k in range(width):
        while len(columns[k]) > 2:
            x, y, z = columns[k][:3]
            del columns[k][:3]
            s, c = nl.add_gate(CELLS["FA"], [x, y, z])
            columns[k].append(s)
            if k + 1 < width:
                columns[k + 1].append(c)
    # Final carry-propagate chain.
    result: List[int] = []
    carry = CONST0
    for k in range(width):
        items = [n for n in columns[k] if n != CONST0]
        if carry != CONST0:
            items.append(carry)
        if not items:
            result.append(CONST0)
            carry = CONST0
        elif len(items) == 1:
            result.append(items[0])
            carry = CONST0
        elif len(items) == 2:
            s, carry = nl.add_gate(CELLS["HA"], items)
            result.append(s)
        else:
            s, carry = nl.add_gate(CELLS["FA"], items)
            result.append(s)
    return result


def build_masked_multiplier(circuit: MaskedMultiplier) -> Netlist:
    """AND-array partial products + carry-save reduction + final CPA."""
    n = circuit.width
    nl = Netlist(circuit.name)
    a = nl.add_input("a", n)
    b = nl.add_input("b", n)
    width = 2 * n
    columns: List[List[int]] = [[] for _ in range(width)]
    for i, mask in enumerate(circuit.row_masks):
        for j in range(n):
            if (mask >> j) & 1:
                (pp,) = nl.add_gate(CELLS["AND2"], [a[j], b[i]])
                columns[i + j].append(pp)
    nl.add_output("y", _compress_columns(nl, columns, width))
    return nl


def _leaf_2x2(
    nl: Netlist, a0: int, a1: int, b0: int, b1: int, approximate: bool
) -> List[int]:
    """2x2 multiplier block: 4 bits exact, 3 bits (Kulkarni) approximate."""
    (p00,) = nl.add_gate(CELLS["AND2"], [a0, b0])
    (p10,) = nl.add_gate(CELLS["AND2"], [a1, b0])
    (p01,) = nl.add_gate(CELLS["AND2"], [a0, b1])
    (p11,) = nl.add_gate(CELLS["AND2"], [a1, b1])
    if approximate:
        (mid,) = nl.add_gate(CELLS["OR2"], [p10, p01])
        return [p00, mid, p11, CONST0]
    (mid,) = nl.add_gate(CELLS["XOR2"], [p10, p01])
    (both,) = nl.add_gate(CELLS["AND2"], [p10, p01])
    (hi,) = nl.add_gate(CELLS["XOR2"], [p11, both])
    (top,) = nl.add_gate(CELLS["AND2"], [p11, both])
    return [p00, mid, hi, top]


def build_recursive_multiplier(circuit: RecursiveApproxMultiplier) -> Netlist:
    """Recursive 2x2 composition with ripple adder combination stages."""
    n = circuit.width
    nl = Netlist(circuit.name)
    a = nl.add_input("a", n)
    b = nl.add_input("b", n)
    half_leaves = n // 2

    def multiply(a_bits: List[int], b_bits: List[int], a_base: int,
                 b_base: int) -> List[int]:
        k = len(a_bits)
        if k == 2:
            leaf_index = (b_base // 2) * half_leaves + (a_base // 2)
            return _leaf_2x2(
                nl,
                a_bits[0],
                a_bits[1],
                b_bits[0],
                b_bits[1],
                leaf_index in circuit.approx_leaves,
            )
        h = k // 2
        ll = multiply(a_bits[:h], b_bits[:h], a_base, b_base)
        hl = multiply(a_bits[h:], b_bits[:h], a_base + h, b_base)
        lh = multiply(a_bits[:h], b_bits[h:], a_base, b_base + h)
        hh = multiply(a_bits[h:], b_bits[h:], a_base + h, b_base + h)
        mid = vector_add(nl, hl, lh)  # 2h + 1 bits
        # ll occupies bits [0, 2h), hh bits [2h, 4h): concatenation is free.
        base = ll + hh
        shifted_mid = [CONST0] * h + mid
        return vector_add(nl, base, shifted_mid)[: 2 * k]

    nl.add_output("y", multiply(list(a), list(b), 0, 0))
    return nl


def _lod_cost(n: int) -> Dict[str, float]:
    """Leading-one detector + priority encoder cost model (~3 gates/bit)."""
    return {
        "area": 3.0 * n * 1.06,
        "delay": 0.020 * n,
        "power": 3.0 * n * 0.5,
    }


def _barrel_cost(width: int, stages: int) -> Dict[str, float]:
    """Barrel shifter: ``stages`` levels of MUX2 across ``width`` bits."""
    mux = CELLS["MUX2"]
    return {
        "area": stages * width * mux.area,
        "delay": stages * mux.delay,
        "power": stages * width * mux.power,
    }


def build_mitchell_multiplier(circuit: MitchellMultiplier) -> Netlist:
    """Mitchell log multiplier as a calibrated macro cell.

    Structure: two LODs, two log-stage encoders (barrel shifters producing
    ``frac_bits`` mantissas), a ``(log2 n + frac_bits)``-bit adder and an
    antilog barrel shifter over the ``2n``-bit result.
    """
    n, f = circuit.width, circuit.frac_bits
    log_n = max(1, math.ceil(math.log2(n)))
    parts = [
        _lod_cost(n),
        _lod_cost(n),
        _barrel_cost(f, log_n),
        _barrel_cost(f, log_n),
        {
            "area": (log_n + f) * CELLS["FA"].area,
            "delay": (log_n + f) * CELLS["FA"].delay,
            "power": (log_n + f) * CELLS["FA"].power,
        },
        _barrel_cost(2 * n, log_n + 1),
    ]
    area = sum(p["area"] for p in parts)
    delay = max(p["delay"] for p in parts[:4]) + parts[4]["delay"] + parts[5][
        "delay"
    ]
    power = sum(p["power"] for p in parts)

    nl = Netlist(circuit.name)
    a = nl.add_input("a", n)
    b = nl.add_input("b", n)
    cell = macro_cell(
        f"MITCHELL_{n}_{f}", area, delay, power, 2 * n, 2 * n
    )
    outs = nl.add_gate(cell, list(a) + list(b))
    nl.add_output("y", outs)
    return nl


def build_drum_multiplier(circuit: DrumMultiplier) -> Netlist:
    """DRUM as a macro: two LODs, two steering shifters, a k x k exact
    multiplier core and the output shifter."""
    n, k = circuit.width, circuit.k
    log_n = max(1, math.ceil(math.log2(n)))
    # k x k exact array multiplier core cost.
    core_ands = k * k
    core_fas = max(0, k * k - 2 * k)
    core = {
        "area": core_ands * CELLS["AND2"].area + core_fas * CELLS["FA"].area,
        "delay": 0.02 + (2 * k) * CELLS["FA"].delay,
        "power": core_ands * CELLS["AND2"].power
        + core_fas * CELLS["FA"].power,
    }
    parts = [
        _lod_cost(n),
        _lod_cost(n),
        _barrel_cost(k, log_n),
        _barrel_cost(k, log_n),
        core,
        _barrel_cost(2 * n, log_n + 1),
    ]
    area = sum(p["area"] for p in parts)
    delay = parts[0]["delay"] + parts[2]["delay"] + core["delay"] + parts[5][
        "delay"
    ]
    power = sum(p["power"] for p in parts)

    nl = Netlist(circuit.name)
    a = nl.add_input("a", n)
    b = nl.add_input("b", n)
    cell = macro_cell(f"DRUM_{n}_{k}", area, delay, power, 2 * n, 2 * n)
    outs = nl.add_gate(cell, list(a) + list(b))
    nl.add_output("y", outs)
    return nl
