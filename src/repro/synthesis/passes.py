"""Logic optimisation passes.

:func:`constant_propagation` folds constants through the netlist, rewrites
partially-constant cells to cheaper ones (FA with a zero carry becomes an
HA, a majority cell with a zero input becomes an AND...), and merges nets
that become aliases of one another.  It runs to its fixpoint in passes
over the gate list in index order, but a pass only re-simplifies the
gates whose cell was rewritten or whose inputs were folded since their
last visit; every other gate is at its fixpoint already and costs one set
test.  Keeping the visiting order of a full rescan-until-unchanged loop
keeps the order in which the gates of multi-gate rewrites are appended,
so the optimised gate list is exactly that loop's.

:func:`dead_gate_elimination` removes every gate whose outputs cannot
reach a primary output and :func:`dead_pin_rewrite` downsizes FA/HA cells
with one unused output.  Both are one backward pass over a topological
order (:func:`liveness`), which
:func:`repro.synthesis.synthesizer.optimize` runs once per round for both
jobs.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set, Tuple

from repro.netlist.cells import CELLS
from repro.netlist.netlist import CONST0, CONST1, Gate, Netlist

_CONST_VALUE = {CONST0: 0, CONST1: 1}
_CONST_NET = {0: CONST0, 1: CONST1}


def _drop_const(*pairs):
    return ("drop", [(o, "const", v) for o, v in pairs])


def _drop_alias(*pairs):
    return ("drop", [(o, "alias", n) for o, n in pairs])


def _rewrite(gate: Gate, new_cell: str, new_inputs):
    return (
        "rewrite", Gate(CELLS[new_cell], tuple(new_inputs), gate.outputs)
    )


def _simplify(
    gate: Gate, ins: Tuple[int, ...]
) -> Optional[Tuple[str, object]]:
    """Return a simplification action for ``gate`` or ``None``.

    ``ins`` are the gate's input nets resolved through every fold so far
    (a folded constant resolves to ``CONST0``/``CONST1``).  Actions:
    ``("drop", [(out, "const", v) | (out, "alias", net), ...])`` removes
    the gate after recording its outputs, ``("rewrite", Gate)`` replaces
    it with a cheaper gate and ``("rewrite_multi", [Gate, ...], records)``
    replaces it with several, recording folds like ``drop``.
    """
    if gate.cell.is_macro:
        return None
    cell = gate.cell.name
    vals = [_CONST_VALUE.get(n) for n in ins]

    out = gate.outputs

    if cell in ("BUF",):
        if vals[0] is not None:
            return _drop_const((out[0], vals[0]))
        return _drop_alias((out[0], ins[0]))

    if cell == "INV":
        if vals[0] is not None:
            return _drop_const((out[0], 1 - vals[0]))
        return None

    if cell in ("AND2", "NAND2", "OR2", "NOR2"):
        a, b = ins
        va, vb = vals
        inverted = cell in ("NAND2", "NOR2")
        is_and = cell in ("AND2", "NAND2")
        absorbing = 0 if is_and else 1
        if va == absorbing or vb == absorbing:
            return _drop_const((out[0], absorbing ^ (1 if inverted else 0)))
        if va == 1 - absorbing:
            return (
                _rewrite(gate, "INV", [b])
                if inverted
                else _drop_alias((out[0], b))
            )
        if vb == 1 - absorbing:
            return (
                _rewrite(gate, "INV", [a])
                if inverted
                else _drop_alias((out[0], a))
            )
        if a == b:
            return (
                _rewrite(gate, "INV", [a])
                if inverted
                else _drop_alias((out[0], a))
            )
        return None

    if cell in ("XOR2", "XNOR2"):
        a, b = ins
        va, vb = vals
        odd = cell == "XOR2"
        if va is not None and vb is not None:
            parity = va ^ vb
            return _drop_const((out[0], parity if odd else 1 - parity))
        if a == b:
            return _drop_const((out[0], 0 if odd else 1))
        for x, vx, other in ((a, va, b), (b, vb, a)):
            if vx == 0:
                return (
                    _drop_alias((out[0], other))
                    if odd
                    else _rewrite(gate, "INV", [other])
                )
            if vx == 1:
                return (
                    _rewrite(gate, "INV", [other])
                    if odd
                    else _drop_alias((out[0], other))
                )
        return None

    if cell == "MUX2":
        d0, d1, sel = ins
        vs = vals[2]
        if vs == 0:
            return _drop_alias((out[0], d0))
        if vs == 1:
            return _drop_alias((out[0], d1))
        if d0 == d1:
            return _drop_alias((out[0], d0))
        if vals[0] == 0 and vals[1] == 1:
            return _drop_alias((out[0], sel))
        if vals[0] == 1 and vals[1] == 0:
            return _rewrite(gate, "INV", [sel])
        return None

    if cell == "MAJ3":
        known = [(i, v) for i, v in enumerate(vals) if v is not None]
        if len(known) == 3:
            return _drop_const((out[0], 1 if sum(vals) >= 2 else 0))
        if known:
            i, v = known[0]
            rest = [ins[j] for j in range(3) if j != i]
            if v == 0:
                return _rewrite(gate, "AND2", rest)
            return _rewrite(gate, "OR2", rest)
        if ins[0] == ins[1]:
            return _drop_alias((out[0], ins[0]))
        if ins[0] == ins[2]:
            return _drop_alias((out[0], ins[0]))
        if ins[1] == ins[2]:
            return _drop_alias((out[0], ins[1]))
        return None

    if cell == "XOR3":
        known = [(i, v) for i, v in enumerate(vals) if v is not None]
        if len(known) == 3:
            return _drop_const((out[0], vals[0] ^ vals[1] ^ vals[2]))
        if known:
            i, v = known[0]
            rest = [ins[j] for j in range(3) if j != i]
            return _rewrite(gate, "XOR2" if v == 0 else "XNOR2", rest)
        return None

    if cell == "HA":
        a, b = ins
        va, vb = vals
        s_out, c_out = out
        if va is not None and vb is not None:
            return _drop_const((s_out, va ^ vb), (c_out, va & vb))
        for x, vx, other in ((a, va, b), (b, vb, a)):
            if vx == 0:
                return (
                    "drop", [(s_out, "alias", other), (c_out, "const", 0)]
                )
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
            return _drop_const((s_out, total & 1), (c_out, total >> 1))
        if known:
            i, v = known[0]
            rest = [ins[j] for j in range(3) if j != i]
            if v == 0:
                return _rewrite(gate, "HA", rest)
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


class _Folds:
    """Nets folded away so far: constants and aliases.

    ``link`` maps a folded net to a constant net or to the net it
    aliases, which may itself be folded later; :meth:`resolve` follows
    the chain (with path compression).
    """

    def __init__(self):
        self.link: Dict[int, int] = {}

    def resolve(self, net: int) -> int:
        link = self.link
        seen: List[int] = []
        while net in link:
            seen.append(net)
            net = link[net]
        for n in seen:
            link[n] = net
        return net

    def record(self, records) -> None:
        for net, kind, value in records:
            net = self.resolve(net)
            if kind == "const":
                target = _CONST_NET[value]
            else:
                target = self.resolve(value)
            if net != target:
                self.link[net] = target


def propagate(
    netlist: Netlist,
    order: Optional[List[int]] = None,
    pending: Optional[Set[int]] = None,
) -> Tuple[int, Optional[List[int]]]:
    """Constant propagation to fixpoint, revisiting only what changed.

    Passes visit the gate list in index order, and a gate appended by a
    multi-gate rewrite is visited at the end of the pass that appended
    it — the visiting rule of a rescan-until-unchanged loop, which fixes
    the order appended gates end up in.  A pass only simplifies the
    gates whose cell changed since their last visit (``pending``: every
    gate when ``None``, else those indices) or whose inputs were folded
    since; any other gate is at its fixpoint already and is skipped
    after one membership test.  Passes repeat until one folds nothing
    and leaves nothing pending.

    Returns the change count and, when ``order`` lists the live gates in
    topological order, a topological order of the gates left: ``order``
    without the dropped gates, or a fresh one when gates were appended.
    """
    gates = netlist.gates
    folds = _Folds()
    link = folds.link
    visit_all = pending is None
    pending = set() if pending is None else set(pending)
    appended = False
    changes = 0
    resolve = folds.resolve
    while True:
        folded_before = len(link)
        start = 0
        while start < len(gates):  # again for gates appended meanwhile
            stop = len(gates)
            for idx in range(start, stop):
                gate = gates[idx]
                if gate is None or not (
                    visit_all
                    or idx in pending
                    or not link.keys().isdisjoint(gate.inputs)
                ):
                    continue
                pending.discard(idx)
                ins = gate.inputs
                if link:
                    ins = tuple([
                        resolve(n) if n in link else n for n in ins
                    ])
                action = _simplify(gate, ins)
                if action is None:
                    if ins != gate.inputs:
                        gates[idx] = Gate(gate.cell, ins, gate.outputs)
                    continue
                changes += 1
                if action[0] == "drop":
                    folds.record(action[1])
                    gates[idx] = None
                    continue
                # A rewritten gate is simplified again in the next pass;
                # appended gates later in this one.
                if action[0] == "rewrite":
                    gates[idx] = action[1]
                else:
                    _, new_gates, records = action
                    gates[idx] = new_gates[0]
                    for extra in new_gates[1:]:
                        appended = True
                        pending.add(len(gates))
                        gates.append(extra)
                    folds.record(records)
                pending.add(idx)
            start = stop
        visit_all = False
        if not pending and len(link) == folded_before:
            break
    for name, nets in netlist.outputs.items():
        netlist.outputs[name] = [resolve(n) for n in nets]
    if order is None:
        return changes, None
    if appended:
        return changes, netlist.topological_order()
    return changes, [idx for idx in order if gates[idx] is not None]


def constant_propagation(netlist: Netlist) -> int:
    """Fold constants / rewrite cells to fixpoint.  Returns change count."""
    return propagate(netlist)[0]


#: Rewrites for multi-output cells with one dead output pin: the cheaper
#: single-output cell computing the remaining live pin.
#: {cell: {live_pin_index: replacement_cell}}
_DEAD_PIN_REWRITES = {
    "FA": {0: "XOR3", 1: "MAJ3"},  # live sum -> XOR3, live carry -> MAJ3
    "HA": {0: "XOR2", 1: "AND2"},
}


def liveness(
    netlist: Netlist,
    order: List[int],
    remove: bool = True,
    downsize: bool = True,
) -> Tuple[int, List[int], List[int]]:
    """One backward pass over ``order`` marking what reaches an output.

    With ``remove``, gates none of whose outputs are live are deleted;
    with ``downsize``, FA/HA cells with exactly one live output pin are
    replaced by the single-output cell computing it (see
    :func:`dead_pin_rewrite`).  Neither changes which nets are live, so
    one pass does both.  Returns the number of removed gates, the
    indices of the downsized gates and the order of the live gates.
    """
    gates = netlist.gates
    live = set()
    for nets in netlist.outputs.values():
        live.update(nets)
    removed = 0
    downsized: List[int] = []
    kept: List[int] = []
    for idx in reversed(order):
        gate = gates[idx]
        outputs = gate.outputs
        live_pins = [pin for pin, net in enumerate(outputs) if net in live]
        if not live_pins:
            if remove:
                gates[idx] = None
                removed += 1
            continue
        if downsize and len(live_pins) == 1 and len(outputs) > 1:
            replacement = _DEAD_PIN_REWRITES.get(gate.cell.name, {}).get(
                live_pins[0]
            )
            if replacement is not None:
                gates[idx] = Gate(
                    CELLS[replacement],
                    gate.inputs,
                    (outputs[live_pins[0]],),
                )
                downsized.append(idx)
        live.update(gate.inputs)
        kept.append(idx)
    kept.reverse()
    return removed, downsized, kept


def dead_gate_elimination(netlist: Netlist) -> int:
    """Remove gates that cannot reach a primary output.  Returns count."""
    return liveness(
        netlist, netlist.topological_order(), downsize=False
    )[0]


def dead_pin_rewrite(netlist: Netlist) -> int:
    """Downsize multi-output cells whose outputs are partially unused.

    A ripple adder whose sum bits are never read still has to propagate
    its carry; a real synthesis tool strips the sum logic and keeps a
    majority (carry) chain.  This pass performs that rewrite for FA and
    HA cells, which is what lets a heavily-truncated downstream component
    shrink its upstream producers — the non-additive area effect the
    paper's learned hardware models capture (§4.1.2).  Returns the number
    of rewritten gates.
    """
    return len(
        liveness(netlist, netlist.topological_order(), remove=False)[1]
    )
