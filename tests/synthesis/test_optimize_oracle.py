"""Oracle: the worklist optimiser reproduces the rescan-to-fixpoint one.

The reference below is the optimiser as it was before constant
propagation re-simplified only what changed and the dead-gate and
dead-pin passes became one shared liveness pass: every pass rescans the whole gate list,
constant propagation until nothing changes, and rounds repeat until a
round changes nothing.  Its per-gate rewrite rules (``_simplify``) and
net-state tracking are copied from that version too, so the reference
shares only the reporting with the production code.

Both optimisers must give the same :class:`SynthesisReport` (every
field, ``cells`` in the same order), the same live gate sequence and the
same output ports — which is what keeps reports, synthesis caches and
``export-verilog --optimize`` byte-identical.
"""

from typing import Dict, List, Optional, Tuple

import numpy as np
import pytest

from repro.circuits.multipliers import MaskedMultiplier
from repro.errors import NetlistError
from repro.library.component import FAMILY_REGISTRY, ComponentRecord
from repro.library.generation import (
    enumerate_adders,
    enumerate_multipliers,
    enumerate_subtractors,
)
from repro.netlist.builders import build_netlist
from repro.netlist.cells import CELLS
from repro.netlist.netlist import CONST0, CONST1, Gate, Netlist
from repro.synthesis import synthesizer
from repro.synthesis.synthesizer import optimize, report, synthesize
from repro.workloads.registry import WORKLOADS

_CONST_VALUE = {CONST0: 0, CONST1: 1}
_CONST_NET = {0: CONST0, 1: CONST1}

#: Random configurations per catalogued accelerator.
CONFIGS_PER_ACCELERATOR = 50

#: Library components per signature the configurations draw from.
COMPONENTS_PER_SIGNATURE = 16


# -- the reference optimiser ------------------------------------------------

class _NetState:
    """Tracks constant values and alias links discovered during the pass."""

    def __init__(self):
        self.consts: Dict[int, int] = {}
        self.alias: Dict[int, int] = {}

    def resolve(self, net: int) -> int:
        """Follow alias links (with path compression) to the canonical net."""
        seen: List[int] = []
        while net in self.alias:
            seen.append(net)
            net = self.alias[net]
        if net in self.consts:
            net = _CONST_NET[self.consts[net]]
        for n in seen:
            self.alias[n] = net
        return net

    def value(self, net: int) -> Optional[int]:
        """Constant value of ``net`` if known, else ``None``."""
        net = self.resolve(net)
        if net in _CONST_VALUE:
            return _CONST_VALUE[net]
        return self.consts.get(net)

    def set_const(self, net: int, value: int) -> None:
        self.consts[self.resolve(net)] = value

    def set_alias(self, net: int, target: int) -> None:
        net = self.resolve(net)
        target = self.resolve(target)
        if net != target:
            self.alias[net] = target


def _simplify(
    gate: Gate, state: _NetState
) -> Optional[Tuple[str, object]]:
    """Return a simplification action for ``gate`` or ``None``.

    Actions: ``("drop", [(out, "const", v) | (out, "alias", net), ...])``
    removes the gate after recording its outputs, and
    ``("rewrite", Gate)`` replaces it with a cheaper gate.
    """
    cell = gate.cell.name
    if gate.cell.is_macro:
        return None
    ins = [state.resolve(n) for n in gate.inputs]
    vals = [state.value(n) for n in ins]

    def drop_const(*pairs):
        return ("drop", [(o, "const", v) for o, v in pairs])

    def drop_alias(*pairs):
        return ("drop", [(o, "alias", n) for o, n in pairs])

    def rewrite(new_cell: str, new_inputs, outputs=None):
        return (
            "rewrite",
            Gate(
                CELLS[new_cell],
                tuple(new_inputs),
                gate.outputs if outputs is None else tuple(outputs),
            ),
        )

    out = gate.outputs

    if cell in ("BUF",):
        if vals[0] is not None:
            return drop_const((out[0], vals[0]))
        return drop_alias((out[0], ins[0]))

    if cell == "INV":
        if vals[0] is not None:
            return drop_const((out[0], 1 - vals[0]))
        return None

    if cell in ("AND2", "NAND2", "OR2", "NOR2"):
        a, b = ins
        va, vb = vals
        inverted = cell in ("NAND2", "NOR2")
        is_and = cell in ("AND2", "NAND2")
        absorbing = 0 if is_and else 1
        if va == absorbing or vb == absorbing:
            return drop_const((out[0], absorbing ^ (1 if inverted else 0)))
        if va == 1 - absorbing:
            return (
                rewrite("INV", [b]) if inverted else drop_alias((out[0], b))
            )
        if vb == 1 - absorbing:
            return (
                rewrite("INV", [a]) if inverted else drop_alias((out[0], a))
            )
        if a == b:
            return (
                rewrite("INV", [a]) if inverted else drop_alias((out[0], a))
            )
        return None

    if cell in ("XOR2", "XNOR2"):
        a, b = ins
        va, vb = vals
        odd = cell == "XOR2"
        if va is not None and vb is not None:
            return drop_const((out[0], (va ^ vb) if odd else 1 - (va ^ vb)))
        if a == b:
            return drop_const((out[0], 0 if odd else 1))
        for x, vx, other in ((a, va, b), (b, vb, a)):
            if vx == 0:
                return (
                    drop_alias((out[0], other))
                    if odd
                    else rewrite("INV", [other])
                )
            if vx == 1:
                return (
                    rewrite("INV", [other])
                    if odd
                    else drop_alias((out[0], other))
                )
        return None

    if cell == "MUX2":
        d0, d1, sel = ins
        vs = vals[2]
        if vs == 0:
            return drop_alias((out[0], d0))
        if vs == 1:
            return drop_alias((out[0], d1))
        if d0 == d1:
            return drop_alias((out[0], d0))
        if vals[0] == 0 and vals[1] == 1:
            return drop_alias((out[0], sel))
        if vals[0] == 1 and vals[1] == 0:
            return rewrite("INV", [sel])
        return None

    if cell == "MAJ3":
        known = [(i, v) for i, v in enumerate(vals) if v is not None]
        if len(known) == 3:
            return drop_const((out[0], 1 if sum(vals) >= 2 else 0))
        if known:
            i, v = known[0]
            rest = [ins[j] for j in range(3) if j != i]
            if v == 0:
                return rewrite("AND2", rest)
            return rewrite("OR2", rest)
        if ins[0] == ins[1]:
            return drop_alias((out[0], ins[0]))
        if ins[0] == ins[2]:
            return drop_alias((out[0], ins[0]))
        if ins[1] == ins[2]:
            return drop_alias((out[0], ins[1]))
        return None

    if cell == "XOR3":
        known = [(i, v) for i, v in enumerate(vals) if v is not None]
        if len(known) == 3:
            return drop_const((out[0], vals[0] ^ vals[1] ^ vals[2]))
        if known:
            i, v = known[0]
            rest = [ins[j] for j in range(3) if j != i]
            return rewrite("XOR2" if v == 0 else "XNOR2", rest)
        return None

    if cell == "HA":
        a, b = ins
        va, vb = vals
        s_out, c_out = out
        if va is not None and vb is not None:
            return drop_const((s_out, va ^ vb), (c_out, va & vb))
        for x, vx, other in ((a, va, b), (b, vb, a)):
            if vx == 0:
                return ("drop", [(s_out, "alias", other), (c_out, "const", 0)])
            if vx == 1:
                return (
                    "rewrite_multi",
                    [
                        Gate(CELLS["INV"], (other,), (s_out,)),
                    ],
                    [(c_out, "alias", other)],
                )
        return None

    if cell == "FA":
        a, b, c = ins
        known = [(i, v) for i, v in enumerate(vals) if v is not None]
        s_out, c_out = out
        if len(known) == 3:
            total = sum(vals)
            return drop_const((s_out, total & 1), (c_out, total >> 1))
        if known:
            i, v = known[0]
            rest = [ins[j] for j in range(3) if j != i]
            if v == 0:
                return rewrite("HA", rest)
            return (
                "rewrite_multi",
                [
                    Gate(CELLS["XNOR2"], tuple(rest), (s_out,)),
                    Gate(CELLS["OR2"], tuple(rest), (c_out,)),
                ],
                [],
            )
        return None

    return None


def _rescan_constant_propagation(netlist: Netlist) -> int:
    state = _NetState()
    total_changes = 0
    changed = True
    while changed:
        changed = False
        for idx, gate in enumerate(netlist.gates):
            if gate is None:
                continue
            action = _simplify(gate, state)
            if action is None:
                resolved = tuple(state.resolve(n) for n in gate.inputs)
                if resolved != gate.inputs:
                    netlist.gates[idx] = Gate(
                        gate.cell, resolved, gate.outputs
                    )
                continue
            if action[0] == "drop":
                _record(state, action[1])
                netlist.gates[idx] = None
            elif action[0] == "rewrite":
                netlist.gates[idx] = action[1]
            else:
                _, new_gates, records = action
                netlist.gates[idx] = new_gates[0]
                netlist.gates.extend(new_gates[1:])
                _record(state, records)
            changed = True
            total_changes += 1
    for idx, gate in enumerate(netlist.gates):
        if gate is None:
            continue
        resolved = tuple(state.resolve(n) for n in gate.inputs)
        if resolved != gate.inputs:
            netlist.gates[idx] = Gate(gate.cell, resolved, gate.outputs)
    for name, nets in netlist.outputs.items():
        netlist.outputs[name] = [state.resolve(n) for n in nets]
    return total_changes


def _record(state: _NetState, records) -> None:
    for net, kind, value in records:
        if kind == "const":
            state.set_const(net, value)
        else:
            state.set_alias(net, value)


#: {cell: {live_pin_index: replacement_cell}}
_DEAD_PIN_REWRITES = {
    "FA": {0: "XOR3", 1: "MAJ3"},
    "HA": {0: "XOR2", 1: "AND2"},
}


def _live_nets(netlist: Netlist, order: List[int]) -> set:
    live = set()
    for nets in netlist.outputs.values():
        live.update(nets)
    for idx in reversed(order):
        gate = netlist.gates[idx]
        if any(net in live for net in gate.outputs):
            live.update(gate.inputs)
    return live


def _rescan_dead_gate_elimination(netlist: Netlist) -> int:
    order = netlist.topological_order()
    live = _live_nets(netlist, order)
    removed = 0
    for idx in order:
        if not any(net in live for net in netlist.gates[idx].outputs):
            netlist.gates[idx] = None
            removed += 1
    return removed


def _rescan_dead_pin_rewrite(netlist: Netlist) -> int:
    order = netlist.topological_order()
    live = _live_nets(netlist, order)
    rewritten = 0
    for idx in order:
        gate = netlist.gates[idx]
        if gate.cell.name not in _DEAD_PIN_REWRITES:
            continue
        pins = [pin for pin, net in enumerate(gate.outputs) if net in live]
        if len(pins) != 1:
            continue
        netlist.gates[idx] = Gate(
            CELLS[_DEAD_PIN_REWRITES[gate.cell.name][pins[0]]],
            gate.inputs,
            (gate.outputs[pins[0]],),
        )
        rewritten += 1
    return rewritten


def reference_optimize(netlist: Netlist, max_rounds: int = 20) -> Netlist:
    for _ in range(max_rounds):
        changes = _rescan_constant_propagation(netlist)
        changes += _rescan_dead_gate_elimination(netlist)
        changes += _rescan_dead_pin_rewrite(netlist)
        if changes == 0:
            break
    return netlist


# -- comparison ---------------------------------------------------------------

def _live_gates(netlist: Netlist):
    return [(g.cell.name, g.inputs, g.outputs) for g in netlist.live_gates()]


def assert_same_optimisation(netlist: Netlist) -> None:
    """Optimise copies both ways; reports and gate lists must match."""
    expected = reference_optimize(netlist.copy())
    expected_report = report(expected)
    actual = netlist.copy()
    actual_report = synthesize(actual, in_place=True)
    assert actual_report == expected_report
    assert list(actual_report.cells.items()) == list(
        expected_report.cells.items()
    )
    assert _live_gates(actual) == _live_gates(expected)
    assert actual.outputs == expected.outputs


# -- corpora ------------------------------------------------------------------

_ENUMERATE = {
    "add": enumerate_adders,
    "sub": enumerate_subtractors,
    "mul": enumerate_multipliers,
}


@pytest.fixture(scope="module")
def component_pool():
    """Signature -> records, uncharacterised (synthesis needs circuits)."""
    pools: Dict[tuple, List[ComponentRecord]] = {}

    def pool(signature):
        if signature not in pools:
            kind, width = signature
            circuits = _ENUMERATE[kind](
                width, COMPONENTS_PER_SIGNATURE, rng=width
            )
            pools[signature] = [
                ComponentRecord(c, None, None) for c in circuits
            ]
        return pools[signature]

    return pool


@pytest.mark.parametrize("workload", WORKLOADS.names())
def test_random_configurations_match_reference(workload, component_pool):
    accelerator = WORKLOADS.get(workload).build_accelerator()
    slots = accelerator.op_slots()
    rng = np.random.default_rng(sorted(WORKLOADS.names()).index(workload))
    for _ in range(CONFIGS_PER_ACCELERATOR):
        records = {}
        for slot in slots:
            pool = component_pool(slot.signature)
            records[slot.name] = pool[int(rng.integers(len(pool)))]
        assert_same_optimisation(accelerator.to_netlist(records))


def _family_circuits():
    """A few circuits of every family the library registry knows."""
    by_family: Dict[str, list] = {}
    candidates = (
        enumerate_adders(8, 120, rng=0)
        + enumerate_subtractors(10, 40, rng=0)
        + enumerate_multipliers(8, 400, rng=0)
        + [MaskedMultiplier(8, [0xF0, 0xF8, 0xFC, 0xFE] + [0xFF] * 4)]
    )
    for circuit in candidates:
        family = by_family.setdefault(type(circuit).__name__, [])
        if len(family) < 3:
            family.append(circuit)
    assert set(by_family) == set(FAMILY_REGISTRY)
    return [c for family in by_family.values() for c in family]


@pytest.mark.parametrize(
    "circuit", _family_circuits(), ids=lambda c: c.name
)
def test_component_netlists_match_reference(circuit):
    assert_same_optimisation(build_netlist(circuit))


# -- the round bound ------------------------------------------------------------

def test_round_bound_raises_instead_of_returning_unsettled(monkeypatch):
    # An FA whose sum is unobserved is downsized to MAJ3 in round one;
    # with equal inputs that MAJ3 folds to a wire only in round two.
    nl = Netlist("two_rounds")
    a = nl.add_input("a", 2)
    _, carry = nl.add_gate(CELLS["FA"], [a[0], a[0], a[1]])
    nl.add_output("y", [carry])
    monkeypatch.setattr(synthesizer, "_MAX_ROUNDS", 1)
    with pytest.raises(NetlistError, match="no fixpoint"):
        optimize(nl.copy())
    monkeypatch.setattr(synthesizer, "_MAX_ROUNDS", 2)
    optimize(nl)
    assert nl.gate_count() == 0
    assert nl.outputs["y"] == [a[0]]
