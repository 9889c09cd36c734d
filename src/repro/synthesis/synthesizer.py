"""Top-level synthesis driver: optimise and report.

``synthesize`` plays the role the paper assigns to Synopsys Design Compiler
(45 nm target): it optimises the netlist (constant propagation + dead-gate
sweeps to fixpoint) and reports total cell area, critical-path delay and
nominal power.  Energy is reported as ``power * delay`` — the usual
energy-per-operation proxy for a combinational datapath.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict

from repro.netlist.netlist import Netlist
from repro.synthesis.passes import (
    constant_propagation,
    dead_gate_elimination,
    dead_pin_rewrite,
)
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


def optimize(netlist: Netlist, max_rounds: int = 20) -> Netlist:
    """Run constant propagation and dead-gate elimination to fixpoint."""
    for _ in range(max_rounds):
        changes = constant_propagation(netlist)
        changes += dead_gate_elimination(netlist)
        changes += dead_pin_rewrite(netlist)
        if changes == 0:
            break
    return netlist


def report(netlist: Netlist) -> SynthesisReport:
    """Measure an (already optimised) netlist."""
    global _RUNS
    _RUNS += 1
    return SynthesisReport(
        area=netlist.area(),
        delay=critical_path_delay(netlist),
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
    optimize(target)
    return report(target)
