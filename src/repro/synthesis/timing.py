"""Static timing analysis: longest combinational path."""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.netlist.netlist import CONST0, CONST1, Netlist


def critical_path_delay(
    netlist: Netlist, order: Optional[List[int]] = None
) -> float:
    """Worst arrival time at any primary output (ns).

    Primary inputs and constants arrive at t=0; every cell adds its single
    pin-to-pin delay on all input-to-output arcs.  ``order`` is a
    topological order of the live gates, computed when omitted.
    """
    arrival: Dict[int, float] = {CONST0: 0.0, CONST1: 0.0}
    for nets in netlist.inputs.values():
        for net in nets:
            arrival[net] = 0.0
    if order is None:
        order = netlist.topological_order()
    gates = netlist.gates
    for idx in order:
        gate = gates[idx]
        at = max((arrival.get(n, 0.0) for n in gate.inputs), default=0.0)
        out_at = at + gate.cell.delay
        for net in gate.outputs:
            arrival[net] = out_at
    worst = 0.0
    for nets in netlist.outputs.values():
        for net in nets:
            worst = max(worst, arrival.get(net, 0.0))
    return worst
