"""Characterised library component records.

A :class:`ComponentRecord` bundles everything the methodology needs to know
about one approximate circuit: its behavioural model (lazily reconstructed
from family + parameters), its uniform-input error statistics and its
post-synthesis hardware cost.  Records are cheap to serialise — circuits
are rebuilt from the family registry, never pickled.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

import numpy as np

from repro.circuits.adders import (
    AlmostCorrectAdder,
    GeArAdder,
    LowerOrAdder,
    QuAdAdder,
    TruncatedAdder,
)
from repro.circuits.base import (
    ArithmeticCircuit,
    ExactAdder,
    ExactMultiplier,
    ExactSubtractor,
    Operation,
)
from repro.circuits.characterization import ErrorStats, characterize_many
from repro.circuits.luts import MAX_LUT_WIDTH, build_lut
from repro.circuits.multipliers import (
    BrokenArrayMultiplier,
    DrumMultiplier,
    MaskedMultiplier,
    MitchellMultiplier,
    PerforatedMultiplier,
    RecursiveApproxMultiplier,
    TruncatedMultiplier,
)
from repro.circuits.subtractors import BlockSubtractor, TruncatedSubtractor
from repro.errors import LibraryError
from repro.netlist.builders import build_netlist
from repro.netlist.netlist import Netlist
from repro.synthesis.synthesizer import report as synth_report
from repro.synthesis.synthesizer import optimize

#: Operation signature: (kind, operand width), e.g. ("add", 8).
OpSignature = Tuple[str, int]

#: Reconstruction registry: family name -> circuit class.  Exact classes
#: take only the width; approximate classes take width + their params.
FAMILY_REGISTRY = {
    klass.__name__: klass
    for klass in (
        ExactAdder,
        ExactSubtractor,
        ExactMultiplier,
        TruncatedAdder,
        LowerOrAdder,
        AlmostCorrectAdder,
        GeArAdder,
        QuAdAdder,
        TruncatedSubtractor,
        BlockSubtractor,
        MaskedMultiplier,
        BrokenArrayMultiplier,
        PerforatedMultiplier,
        TruncatedMultiplier,
        RecursiveApproxMultiplier,
        MitchellMultiplier,
        DrumMultiplier,
    )
}


@dataclass(frozen=True)
class HardwareCost:
    """Post-synthesis parameters of one isolated component."""

    area: float
    delay: float
    power: float
    gate_count: int

    @property
    def energy(self) -> float:
        """Energy-per-operation proxy (power * delay)."""
        return self.power * self.delay


class ComponentRecord:
    """One fully characterised library circuit."""

    def __init__(
        self,
        circuit: ArithmeticCircuit,
        errors: ErrorStats,
        hardware: HardwareCost,
    ):
        self._circuit = circuit
        self.errors = errors
        self.hardware = hardware
        self._lut: Optional[np.ndarray] = None
        self._template: Optional[Netlist] = None

    def __getstate__(self) -> Dict[str, object]:
        # The netlist template is rebuilt on demand: pickles (pool
        # contexts, stored search contexts) carry no gate lists.
        state = dict(self.__dict__)
        del state["_template"]
        return state

    def __setstate__(self, state: Dict[str, object]) -> None:
        self.__dict__.update(state)
        self._template = None

    # -- identity -----------------------------------------------------------

    @property
    def name(self) -> str:
        return self._circuit.name

    @property
    def op(self) -> Operation:
        return self._circuit.op

    @property
    def width(self) -> int:
        return self._circuit.width

    @property
    def family(self) -> str:
        return type(self._circuit).__name__

    @property
    def signature(self) -> OpSignature:
        return (self.op.value, self.width)

    @property
    def circuit(self) -> ArithmeticCircuit:
        return self._circuit

    def is_exact(self) -> bool:
        return self._circuit.is_exact()

    # -- behaviour ------------------------------------------------------------

    def lut(self) -> np.ndarray:
        """Cached exhaustive output table (widths <= MAX_LUT_WIDTH only)."""
        if self._lut is None:
            if self.width > MAX_LUT_WIDTH:
                raise LibraryError(
                    f"{self.name}: {self.width}-bit operands exceed the LUT "
                    f"limit; use circuit.evaluate"
                )
            self._lut = build_lut(self._circuit)
        return self._lut

    def netlist_template(self) -> Netlist:
        """This component's validated, unoptimised netlist, built once.

        The template is shared: callers must only read it, e.g. through
        :meth:`~repro.netlist.netlist.Netlist.instantiate`, which copies
        its gates.  Use :meth:`build_netlist` for a netlist to modify.
        """
        if self._template is None:
            self._template = build_netlist(self._circuit)
        return self._template

    def build_netlist(self) -> Netlist:
        """Fresh (unoptimised) netlist instance of this component."""
        return self.netlist_template().copy()

    def to_dict(self) -> Dict[str, object]:
        """JSON-serialisable description (circuit rebuilt via registry)."""
        return {
            "family": self.family,
            "width": self.width,
            "params": self._circuit.params(),
            "errors": dict(vars(self.errors)),
            "hardware": {
                "area": self.hardware.area,
                "delay": self.hardware.delay,
                "power": self.hardware.power,
                "gate_count": self.hardware.gate_count,
            },
        }

    @staticmethod
    def from_dict(data: Dict[str, object]) -> "ComponentRecord":
        family = data["family"]
        if family not in FAMILY_REGISTRY:
            raise LibraryError(f"unknown circuit family {family!r}")
        klass = FAMILY_REGISTRY[family]
        circuit = klass(data["width"], **data["params"])
        error_fields = dict(data["errors"])
        if "exhaustive" not in error_fields:
            # Libraries serialised before the flag existed always used
            # characterize()'s auto mode, so the width determines it.
            error_fields["exhaustive"] = (
                int(data["width"]) <= MAX_LUT_WIDTH
            )
        errors = ErrorStats(**error_fields)
        hw = HardwareCost(**data["hardware"])
        return ComponentRecord(circuit, errors, hw)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"<ComponentRecord {self.name} med={self.errors.med:.3g} "
            f"area={self.hardware.area:.1f}>"
        )


def record_from_circuit(
    circuit: ArithmeticCircuit, sample_size: int = 1 << 15
) -> ComponentRecord:
    """Characterise ``circuit`` (errors + synthesised hardware cost)."""
    return records_from_circuits([circuit], sample_size=sample_size)[0]


def records_from_circuits(
    circuits, sample_size: int = 1 << 15
) -> "list[ComponentRecord]":
    """Characterise a batch of circuits into records.

    The batched error characterisation shares operand samples and
    reference outputs across the batch (see
    :func:`~repro.circuits.characterization.characterize_many`).
    Synthesis still runs per circuit — each netlist is independent.
    """
    all_errors = characterize_many(circuits, sample_size=sample_size)
    records = []
    for circuit, errors in zip(circuits, all_errors):
        netlist = build_netlist(circuit)
        optimize(netlist)
        rep = synth_report(netlist)
        hw = HardwareCost(
            area=rep.area,
            delay=rep.delay,
            power=rep.power,
            gate_count=rep.gate_count,
        )
        records.append(ComponentRecord(circuit, errors, hw))
    return records
