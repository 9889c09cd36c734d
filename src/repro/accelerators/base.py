"""Shared machinery of the image-processing accelerators.

An :class:`ImageAccelerator` owns a dataflow graph over an odd N x N pixel
window (inputs ``x0..x{N*N-1}``, row-major; ``window`` defaults to the
paper's 3).  It provides:

* vectorised software simulation over whole images, with pluggable
  approximate implementations per arithmetic op (the paper's C++ model);
* lowering to a composed gate netlist given a component assignment (the
  paper's Verilog model), on which the synthesis substitute measures the
  *real* accelerator hardware cost.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.accelerators.graph import (
    APPROXIMABLE,
    DataflowGraph,
    Node,
    NodeKind,
    OpImpl,
)
from repro.errors import AcceleratorError
from repro.library.component import ComponentRecord, OpSignature
from repro.netlist.cells import CELLS
from repro.netlist.netlist import CONST0, CONST1, Netlist


@dataclass(frozen=True)
class OpSlot:
    """One replaceable operation of an accelerator."""

    name: str
    signature: OpSignature


class ImageAccelerator:
    """Base class of the case-study and window-family accelerators."""

    #: subclasses set a human-readable name
    name: str = "accelerator"

    #: pixel-window side length (odd); ``x`` inputs are row-major
    window: int = 3

    def __init__(self):
        if self.window < 1 or self.window % 2 == 0:
            raise AcceleratorError(
                f"window side must be odd and positive, got {self.window}"
            )
        self.graph = self._build_graph()
        self._slots = [
            OpSlot(node.name, (node.kind.value, node.width))
            for node in self.graph.approximable_ops()
        ]

    def _build_graph(self) -> DataflowGraph:
        raise NotImplementedError

    # -- structure ----------------------------------------------------------

    def op_slots(self) -> List[OpSlot]:
        """The replaceable operations, in graph order."""
        return list(self._slots)

    def op_inventory(self) -> Dict[OpSignature, int]:
        """Operation count per signature (the paper's Table 1 row)."""
        inventory: Dict[OpSignature, int] = {}
        for slot in self._slots:
            inventory[slot.signature] = inventory.get(slot.signature, 0) + 1
        return inventory

    # -- software model -------------------------------------------------------

    def window_inputs(self, image: np.ndarray) -> Dict[str, np.ndarray]:
        """Flattened N x N neighbourhoods of ``image`` (edge replication)."""
        image = np.asarray(image)
        if image.ndim != 2:
            raise AcceleratorError("expected a 2-D gray-scale image")
        side = self.window
        padded = np.pad(image.astype(np.int64), side // 2, mode="edge")
        rows, cols = image.shape
        inputs: Dict[str, np.ndarray] = {}
        k = 0
        for dr in range(side):
            for dc in range(side):
                inputs[f"x{k}"] = padded[
                    dr : dr + rows, dc : dc + cols
                ].reshape(-1)
                k += 1
        return inputs

    def extra_inputs(self) -> Dict[str, int]:
        """Non-pixel inputs (e.g. filter coefficients); default none."""
        return {}

    def compute(
        self,
        image: np.ndarray,
        assignment: Optional[Dict[str, OpImpl]] = None,
        extra: Optional[Dict[str, int]] = None,
        capture: Optional[Dict[str, Tuple[np.ndarray, np.ndarray]]] = None,
    ) -> np.ndarray:
        """Run the accelerator over ``image``; returns the output image."""
        inputs = self.window_inputs(image)
        merged_extra = self.extra_inputs()
        if extra:
            merged_extra.update(extra)
        size = image.size
        for name, value in merged_extra.items():
            inputs[name] = np.full(size, int(value), dtype=np.int64)
        out = self.graph.evaluate(inputs, assignment, capture)
        return out.reshape(image.shape)

    def golden(
        self, image: np.ndarray, extra: Optional[Dict[str, int]] = None
    ) -> np.ndarray:
        """Exact (accurate accelerator) output for ``image``."""
        return self.compute(image, assignment=None, extra=extra)

    # -- hardware model ---------------------------------------------------------

    def _node_width(self, node: Node, widths: Dict[str, int]) -> int:
        """Bit-width of a node's value in the lowered netlist."""
        if node.kind is NodeKind.INPUT:
            return node.width
        if node.kind is NodeKind.CONST:
            return node.width
        if node.kind is NodeKind.ADD:
            return node.width + 1
        if node.kind is NodeKind.SUB:
            return node.width + 1
        if node.kind is NodeKind.MUL:
            return 2 * node.width
        if node.kind is NodeKind.SHL:
            return widths[node.operands[0]] + node.attrs["amount"]
        if node.kind is NodeKind.SHR:
            return max(1, widths[node.operands[0]] - node.attrs["amount"])
        if node.kind is NodeKind.ABS:
            return widths[node.operands[0]]
        if node.kind is NodeKind.CLIP:
            return max(1, int(node.attrs["high"]).bit_length())
        raise AcceleratorError(f"unhandled node kind {node.kind}")

    @staticmethod
    def _adjust(nl: Netlist, bits: List[int], width: int) -> List[int]:
        """Zero-extend or truncate a bit vector to ``width``."""
        if len(bits) >= width:
            return bits[:width]
        return bits + [CONST0] * (width - len(bits))

    def _lower_abs(self, nl: Netlist, bits: List[int]) -> List[int]:
        """|x| of a two's-complement vector: XOR with sign, add sign."""
        sign = bits[-1]
        out: List[int] = []
        carry = sign
        for bit in bits:
            (x,) = nl.add_gate(CELLS["XOR2"], [bit, sign])
            s, carry = nl.add_gate(CELLS["HA"], [x, carry])
            out.append(s)
        return out

    def _lower_clip(
        self, nl: Netlist, bits: List[int], low: int, high: int, width: int
    ) -> List[int]:
        """Saturating clip of a non-negative value to [0, 2**k - 1]."""
        if low != 0 or (high + 1) & high:
            raise AcceleratorError(
                "netlist lowering supports clip to [0, 2**k - 1] only"
            )
        keep = bits[:width]
        overflow_bits = bits[width:]
        if not overflow_bits:
            return self._adjust(nl, keep, width)
        over = overflow_bits[0]
        for bit in overflow_bits[1:]:
            (over,) = nl.add_gate(CELLS["OR2"], [over, bit])
        return [nl.add_gate(CELLS["OR2"], [b, over])[0] for b in keep]

    def _lower_clip_signed(
        self, nl: Netlist, bits: List[int], low: int, high: int, width: int
    ) -> List[int]:
        """Clip of a two's-complement value to [0, 2**k - 1].

        Negative inputs clamp to 0 (matching ``np.clip`` on the signed
        software value), positive overflow saturates to ``high``: each
        output bit is ``(keep | overflow) & ~sign``.
        """
        if low != 0 or (high + 1) & high:
            raise AcceleratorError(
                "netlist lowering supports clip to [0, 2**k - 1] only"
            )
        sign = bits[-1]
        body = bits[:-1]
        keep = self._adjust(nl, body, width)
        overflow_bits = body[width:]
        if overflow_bits:
            over = overflow_bits[0]
            for bit in overflow_bits[1:]:
                (over,) = nl.add_gate(CELLS["OR2"], [over, bit])
            keep = [
                nl.add_gate(CELLS["OR2"], [b, over])[0] for b in keep
            ]
        (not_sign,) = nl.add_gate(CELLS["INV"], [sign])
        return [
            nl.add_gate(CELLS["AND2"], [b, not_sign])[0] for b in keep
        ]

    def scenario_extras(
        self, scenarios: Sequence[Optional[Dict[str, int]]]
    ) -> List[Dict[str, int]]:
        """Merged non-pixel inputs of every scenario (defaults + extra)."""
        merged_list = []
        for extra in scenarios:
            merged = self.extra_inputs()
            if extra:
                merged.update(extra)
            merged_list.append(merged)
        return merged_list

    def stack_runs(
        self,
        images: Sequence[np.ndarray],
        scenarios: Sequence[Optional[Dict[str, int]]],
    ) -> Dict[str, np.ndarray]:
        """All (image x scenario) runs as one broadcastable 3-D batch.

        Pixel inputs are emitted as ``(images, 1, pixels)`` arrays and
        non-pixel inputs as ``(1, scenarios, 1)`` columns, so elementwise
        graph execution broadcasts them to ``(images, scenarios,
        pixels)`` without ever materialising the scenario-duplicated
        pixel rows.  Run order is the canonical image-major,
        scenario-minor one: reshaping an output to ``(images *
        scenarios, pixels)`` yields run ``i * len(scenarios) + s``.
        """
        pixel_rows: Dict[str, List[np.ndarray]] = {}
        for image in images:
            for name, flat in self.window_inputs(image).items():
                pixel_rows.setdefault(name, []).append(flat)
        stacked = {
            name: np.stack(rows, axis=0)[:, None, :]
            for name, rows in pixel_rows.items()
        }
        extras = self.scenario_extras(scenarios)
        for name in extras[0].keys():
            stacked[name] = np.asarray(
                [int(e[name]) for e in extras], dtype=np.int64
            )[None, :, None]
        return stacked

    def to_netlist(
        self, records: Optional[Dict[str, ComponentRecord]] = None
    ) -> Netlist:
        """Lower the accelerator to one composed gate netlist.

        ``records`` assigns a library component to each arithmetic op node
        (by node name); unassigned ops raise — use
        :meth:`exact_assignment` helpers at the core layer to fill gaps.
        """
        records = records or {}
        nl = Netlist(self.name)
        widths: Dict[str, int] = {}
        bits: Dict[str, List[int]] = {}
        # Which nodes carry two's-complement (possibly negative) values:
        # subtraction introduces a sign, magnitude removes it, wiring
        # operators propagate it.  Clipping a signed value needs the
        # sign-aware lowering to match ``np.clip`` on the software side.
        signed: Dict[str, bool] = {}
        for node in self.graph.nodes():
            width = self._node_width(node, widths)
            widths[node.name] = width
            signed[node.name] = (
                node.kind is NodeKind.SUB
                or (
                    node.kind
                    in (NodeKind.SHL, NodeKind.SHR, NodeKind.CLIP)
                    and signed.get(node.operands[0], False)
                )
            )
            if node.kind is NodeKind.INPUT:
                bits[node.name] = nl.add_input(node.name, node.width)
            elif node.kind is NodeKind.CONST:
                value = node.attrs["value"]
                bits[node.name] = [
                    CONST1 if (value >> i) & 1 else CONST0
                    for i in range(width)
                ]
            elif node.kind in APPROXIMABLE:
                if node.name not in records:
                    raise AcceleratorError(
                        f"no component assigned to op {node.name!r}"
                    )
                record = records[node.name]
                if record.signature != (node.kind.value, node.width):
                    raise AcceleratorError(
                        f"component {record.name!r} signature "
                        f"{record.signature} does not match op "
                        f"{node.name!r} ({node.kind.value}, {node.width})"
                    )
                a = self._adjust(nl, bits[node.operands[0]], node.width)
                b = self._adjust(nl, bits[node.operands[1]], node.width)
                outs = nl.instantiate(
                    record.netlist_template(), {"a": a, "b": b}
                )
                bits[node.name] = outs["y"]
            elif node.kind is NodeKind.SHL:
                amount = node.attrs["amount"]
                bits[node.name] = [CONST0] * amount + bits[node.operands[0]]
            elif node.kind is NodeKind.SHR:
                amount = node.attrs["amount"]
                src = bits[node.operands[0]]
                bits[node.name] = src[amount:] or [CONST0]
            elif node.kind is NodeKind.ABS:
                bits[node.name] = self._lower_abs(
                    nl, bits[node.operands[0]]
                )
            elif node.kind is NodeKind.CLIP:
                lower = (
                    self._lower_clip_signed
                    if signed[node.operands[0]]
                    else self._lower_clip
                )
                bits[node.name] = lower(
                    nl,
                    bits[node.operands[0]],
                    node.attrs["low"],
                    node.attrs["high"],
                    width,
                )
                signed[node.name] = False
            else:  # pragma: no cover - exhaustive
                raise AcceleratorError(f"unhandled node kind {node.kind}")
        nl.add_output("out", bits[self.graph.output])
        return nl
