"""Netlist data structure.

A netlist is a DAG of gates connected by integer-numbered nets.  Net 0 is
constant zero and net 1 constant one.  Ports are named bit vectors (LSB
first).  The structure is deliberately simple — plain dicts and lists — so
the synthesis passes stay fast enough to run inside design-space
exploration loops.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.errors import NetlistError
from repro.netlist.cells import CELLS, CellType

CONST0 = 0
CONST1 = 1


@dataclass
class Gate:
    """One cell instance: its type and the nets on its pins."""

    cell: CellType
    inputs: Tuple[int, ...]
    outputs: Tuple[int, ...]


class Netlist:
    """Mutable gate-level netlist with named vector ports."""

    def __init__(self, name: str = "netlist"):
        self.name = name
        self._next_net = 2  # 0 and 1 are the constant nets
        self.gates: List[Optional[Gate]] = []
        self.inputs: Dict[str, List[int]] = {}
        self.outputs: Dict[str, List[int]] = {}

    # -- construction -----------------------------------------------------

    def new_net(self) -> int:
        """Allocate and return a fresh net id."""
        net = self._next_net
        self._next_net += 1
        return net

    def new_nets(self, count: int) -> List[int]:
        """Allocate ``count`` fresh nets."""
        return [self.new_net() for _ in range(count)]

    @property
    def net_count(self) -> int:
        """Total number of allocated nets, including the two constants."""
        return self._next_net

    def add_input(self, name: str, width: int) -> List[int]:
        """Declare a primary input vector and return its nets (LSB first)."""
        if name in self.inputs:
            raise NetlistError(f"duplicate input port {name!r}")
        nets = self.new_nets(width)
        self.inputs[name] = nets
        return nets

    def add_output(self, name: str, nets: Sequence[int]) -> None:
        """Declare a primary output vector driven by ``nets`` (LSB first)."""
        if name in self.outputs:
            raise NetlistError(f"duplicate output port {name!r}")
        self.outputs[name] = [int(n) for n in nets]

    def add_gate(
        self,
        cell: CellType,
        inputs: Sequence[int],
        outputs: Optional[Sequence[int]] = None,
    ) -> List[int]:
        """Instantiate ``cell``; allocate output nets unless provided."""
        if isinstance(cell, str):
            cell = CELLS[cell]
        if len(inputs) != cell.num_inputs:
            raise NetlistError(
                f"{cell.name} needs {cell.num_inputs} inputs, got {len(inputs)}"
            )
        if outputs is None:
            outputs = self.new_nets(cell.num_outputs)
        if len(outputs) != cell.num_outputs:
            raise NetlistError(
                f"{cell.name} drives {cell.num_outputs} outputs, "
                f"got {len(outputs)}"
            )
        self.gates.append(Gate(cell, tuple(inputs), tuple(outputs)))
        return list(outputs)

    def copy(self) -> "Netlist":
        """Structural copy sharing only the immutable cell types.

        Gates are re-instantiated so in-place optimisation of the copy
        (or the original) cannot leak into the other.
        """
        clone = Netlist(self.name)
        clone._next_net = self._next_net
        clone.gates = [
            Gate(g.cell, tuple(g.inputs), tuple(g.outputs))
            if g is not None
            else None
            for g in self.gates
        ]
        clone.inputs = {k: list(v) for k, v in self.inputs.items()}
        clone.outputs = {k: list(v) for k, v in self.outputs.items()}
        return clone

    # -- queries ------------------------------------------------------------

    def live_gates(self) -> Iterable[Gate]:
        """Iterate over gates that have not been removed by optimisation."""
        return (g for g in self.gates if g is not None)

    def gate_count(self) -> int:
        """Number of live gates."""
        return sum(1 for _ in self.live_gates())

    def area(self) -> float:
        """Total cell area of live gates (um^2)."""
        return sum(g.cell.area for g in self.live_gates())

    def power(self) -> float:
        """Total nominal power of live gates (uW)."""
        return sum(g.cell.power for g in self.live_gates())

    def cell_histogram(self) -> Dict[str, int]:
        """Live-gate count per cell type."""
        hist: Dict[str, int] = {}
        for gate in self.live_gates():
            hist[gate.cell.name] = hist.get(gate.cell.name, 0) + 1
        return hist

    def topological_order(self) -> List[int]:
        """Indices of live gates in topological order.

        A gate whose drivers are all placed is placed at once, so a gate
        list that is already topological (as every builder emits it)
        comes back in index order in one linear pass; the depth-first
        search only runs from gates that read a later gate's output.
        Raises :class:`NetlistError` when the netlist has a combinational
        cycle.
        """
        gates = self.gates
        driver: Dict[int, int] = {}
        for idx, gate in enumerate(gates):
            if gate is None:
                continue
            for net in gate.outputs:
                if net in driver:
                    raise NetlistError(f"net {net} has multiple drivers")
                driver[net] = idx

        order: List[int] = []
        state: Dict[int, int] = {}  # 0 = visiting, 1 = done

        for start, gate in enumerate(gates):
            if gate is None or start in state:
                continue
            for net in gate.inputs:
                dep = driver.get(net)
                if dep is not None and state.get(dep) != 1:
                    break
            else:
                state[start] = 1
                order.append(start)
                continue
            stack = [(start, 0)]
            while stack:
                idx, pin = stack.pop()
                if pin == 0:
                    if state.get(idx) == 1:
                        continue
                    if state.get(idx) == 0:
                        raise NetlistError("combinational cycle detected")
                    state[idx] = 0
                    stack.append((idx, 1))
                    for net in gates[idx].inputs:
                        dep = driver.get(net)
                        if dep is not None and state.get(dep) != 1:
                            if state.get(dep) == 0:
                                raise NetlistError(
                                    "combinational cycle detected"
                                )
                            stack.append((dep, 0))
                else:
                    state[idx] = 1
                    order.append(idx)
        return order

    def validate(self) -> None:
        """Check structural sanity: single drivers, no cycles, driven nets."""
        self.topological_order()  # raises on cycles / multiple drivers
        driven = {CONST0, CONST1}
        for nets in self.inputs.values():
            driven.update(nets)
        for gate in self.live_gates():
            driven.update(gate.outputs)
        for gate in self.live_gates():
            for net in gate.inputs:
                if net not in driven:
                    raise NetlistError(f"gate input net {net} has no driver")
        for name, nets in self.outputs.items():
            for net in nets:
                if net not in driven:
                    raise NetlistError(
                        f"output {name!r} bit net {net} has no driver"
                    )

    # -- composition --------------------------------------------------------

    def instantiate(
        self, other: "Netlist", port_map: Dict[str, Sequence[int]]
    ) -> Dict[str, List[int]]:
        """Copy ``other`` into this netlist.

        ``port_map`` maps every input port of ``other`` to nets of this
        netlist (same width).  Returns a map from ``other``'s output port
        names to the newly created nets in this netlist.
        """
        remap: Dict[int, int] = {CONST0: CONST0, CONST1: CONST1}
        for name, nets in other.inputs.items():
            if name not in port_map:
                raise NetlistError(f"input port {name!r} not connected")
            bound = port_map[name]
            if len(bound) != len(nets):
                raise NetlistError(
                    f"port {name!r} width mismatch: "
                    f"{len(nets)} vs {len(bound)}"
                )
            for inner, outer in zip(nets, bound):
                remap[inner] = int(outer)

        def mapped(net: int) -> int:
            if net not in remap:
                remap[net] = self.new_net()
            return remap[net]

        # No add_gate arity checks: ``other``'s gates passed them when it
        # was built.  ``other`` is only read, so a shared template can be
        # instantiated any number of times.
        gates = self.gates
        for gate in other.gates:
            if gate is not None:
                gates.append(
                    Gate(
                        gate.cell,
                        tuple([mapped(n) for n in gate.inputs]),
                        tuple([mapped(n) for n in gate.outputs]),
                    )
                )
        return {
            name: [mapped(n) for n in nets]
            for name, nets in other.outputs.items()
        }

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"<Netlist {self.name}: {self.gate_count()} gates, "
            f"{len(self.inputs)} in, {len(self.outputs)} out>"
        )
