"""Top-level synthesis driver: optimise and report.

``synthesize`` plays the role the paper assigns to Synopsys Design Compiler
(45 nm target): it optimises the netlist and reports total cell area,
critical-path delay and nominal power.  Energy is reported as
``power * delay`` — the usual energy-per-operation proxy for a
combinational datapath.

Optimisation runs in rounds over one topological order.  A round is
constant propagation to its fixpoint (see
:func:`~repro.synthesis.passes.propagate`) followed by one backward
liveness pass that removes dead gates and downsizes half-dead FA/HA
cells.  Only those downsized cells (and whatever their folding reaches)
can simplify again, so the next round re-simplifies just them, and the
netlist is at its fixpoint once a round changes nothing.  The final order
is reused by the timing report.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.errors import NetlistError
from repro.netlist.netlist import Netlist
from repro.synthesis.passes import liveness, propagate
from repro.synthesis.timing import critical_path_delay

#: Process-local count of synthesis reports produced since import.  The
#: warm-rebuild tests assert this stays flat across fully cached
#: builds (mirroring ``repro.core.modeling.fit_count``).
_RUNS = 0


def synthesis_run_count() -> int:
    """Synthesis reports produced by this process since import."""
    return _RUNS


@dataclass(frozen=True)
class SynthesisReport:
    """Post-synthesis quality-of-results record."""

    area: float
    delay: float
    power: float
    gate_count: int
    cells: Dict[str, int] = field(default_factory=dict)

    @property
    def energy(self) -> float:
        """Energy-per-operation proxy (uW * ns = fJ)."""
        return self.power * self.delay


#: Rounds after which optimisation gives up with a :class:`NetlistError`
#: rather than return a netlist short of its fixpoint.  Library and
#: accelerator netlists settle in two or three.
_MAX_ROUNDS = 20


def _optimize(netlist: Netlist) -> List[int]:
    """Optimise in place; return the topological order of the result."""
    order = netlist.topological_order()
    pending = None  # the first round simplifies every gate
    for _ in range(_MAX_ROUNDS):
        changes, order = propagate(netlist, order, pending)
        if pending is not None and not changes:
            return order
        _, downsized, order = liveness(netlist, order)
        if not downsized:
            return order
        pending = set(downsized)
    raise NetlistError(
        f"{netlist.name}: no fixpoint after {_MAX_ROUNDS} optimisation "
        f"rounds"
    )


def optimize(netlist: Netlist) -> Netlist:
    """Optimise ``netlist`` in place to its fixpoint and return it."""
    _optimize(netlist)
    return netlist


def report(
    netlist: Netlist, order: Optional[List[int]] = None
) -> SynthesisReport:
    """Measure an (already optimised) netlist.

    ``order`` is a topological order of its live gates, computed when
    omitted.
    """
    global _RUNS
    _RUNS += 1
    return SynthesisReport(
        area=netlist.area(),
        delay=critical_path_delay(netlist, order),
        power=netlist.power(),
        gate_count=netlist.gate_count(),
        cells=netlist.cell_histogram(),
    )


def synthesize(netlist: Netlist, in_place: bool = False) -> SynthesisReport:
    """Optimise ``netlist`` and return its report.

    By default the optimisation passes run on a structural copy, so the
    caller's netlist is left untouched — composed netlists are often
    reused (e.g. as keys of the evaluation engine's synthesis memo) and a
    silent in-place dead-gate sweep is a trap.  Pass ``in_place=True`` to
    skip the copy on hot paths where the netlist is freshly built and
    immediately discarded.
    """
    target = netlist if in_place else netlist.copy()
    return report(target, _optimize(target))
