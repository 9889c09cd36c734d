"""Dataflow-graph IR for accelerators.

Nodes are primary inputs, constants, *approximable* arithmetic operations
(add/sub/mul at a declared operand width) and free wiring operators
(shifts, absolute value, clipping).  Evaluation is vectorised: node values
are numpy int64 arrays.

The arithmetic op nodes are the replacement points of the methodology: the
evaluator takes an *assignment* mapping op-node names to implementation
callables ``f(a, b) -> array`` (an exact op, or an approximate component's
LUT/evaluate).  Nodes not present in the assignment use the exact
operation.

Two evaluation paths exist:

* :meth:`DataflowGraph.evaluate` — compiles the node dict once (cached)
  into a :class:`GraphProgram` and executes it.  The program is a flat
  instruction list with resolved register indices and precomputed bit
  masks, so repeated evaluation skips all per-node name lookups; the
  instructions are plain tuples, which keeps programs picklable for the
  multiprocessing evaluation engine.  Input arrays may have any shape —
  in particular a stacked batch of all (image x scenario) runs — since
  every operation is elementwise.
* :meth:`DataflowGraph.evaluate_interpreted` — the original dict-walking
  interpreter, kept as the reference for differential tests.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import AcceleratorError
from repro.utils.bitops import bit_mask

OpImpl = Callable[[np.ndarray, np.ndarray], np.ndarray]

class NodeKind(enum.Enum):
    INPUT = "input"
    CONST = "const"
    ADD = "add"
    SUB = "sub"
    MUL = "mul"
    SHL = "shl"
    SHR = "shr"
    ABS = "abs"
    CLIP = "clip"


#: Node kinds that can be replaced by approximate library components.
APPROXIMABLE = (NodeKind.ADD, NodeKind.SUB, NodeKind.MUL)


@dataclass(frozen=True)
class Node:
    """One dataflow node; ``attrs`` hold kind-specific parameters."""

    name: str
    kind: NodeKind
    operands: Tuple[str, ...] = ()
    width: int = 0  # operand width for approximable ops
    attrs: Dict[str, int] = field(default_factory=dict)


#: GraphProgram step opcodes (plain ints: cheap to compare, picklable).
_OP = 0    # approximable arithmetic (add/sub/mul, possibly reassigned)
_SHL = 1
_SHR = 2
_ABS = 3
_CLIP = 4

#: Exact-semantics codes of the approximable kinds inside an ``_OP`` step.
_EXACT_ADD = 0
_EXACT_SUB = 1
_EXACT_MUL = 2

_EXACT_CODES = {
    NodeKind.ADD: _EXACT_ADD,
    NodeKind.SUB: _EXACT_SUB,
    NodeKind.MUL: _EXACT_MUL,
}

class GraphProgram:
    """A :class:`DataflowGraph` lowered to a flat register program.

    The program holds only plain tuples and numpy scalars, so it pickles
    cleanly into multiprocessing workers.  ``execute`` is semantically
    identical (bit-identical outputs) to the dict interpreter, but skips
    per-node name resolution, enum dispatch and ``bit_mask`` calls.
    """

    def __init__(self, graph: "DataflowGraph"):
        order = graph.nodes()
        index = {node.name: i for i, node in enumerate(order)}
        self.name = graph.name
        self.n_regs = len(order)
        self.out_reg = index[graph.output]
        inputs: List[Tuple[str, int, int]] = []
        consts: List[Tuple[int, np.int64]] = []
        steps: List[Tuple[int, ...]] = []
        op_names: List[str] = []
        for node in order:
            reg = index[node.name]
            if node.kind is NodeKind.INPUT:
                inputs.append((node.name, reg, bit_mask(node.width)))
            elif node.kind is NodeKind.CONST:
                consts.append(
                    (reg,
                     np.int64(node.attrs["value"] & bit_mask(node.width)))
                )
            elif node.kind in APPROXIMABLE:
                steps.append(
                    (
                        _OP,
                        reg,
                        index[node.operands[0]],
                        index[node.operands[1]],
                        bit_mask(node.width),
                        _EXACT_CODES[node.kind],
                        len(op_names),
                    )
                )
                op_names.append(node.name)
            elif node.kind is NodeKind.SHL:
                steps.append(
                    (_SHL, reg, index[node.operands[0]],
                     node.attrs["amount"])
                )
            elif node.kind is NodeKind.SHR:
                steps.append(
                    (_SHR, reg, index[node.operands[0]],
                     node.attrs["amount"])
                )
            elif node.kind is NodeKind.ABS:
                steps.append((_ABS, reg, index[node.operands[0]]))
            elif node.kind is NodeKind.CLIP:
                steps.append(
                    (
                        _CLIP,
                        reg,
                        index[node.operands[0]],
                        node.attrs["low"],
                        node.attrs["high"],
                    )
                )
            else:  # pragma: no cover - exhaustive
                raise AcceleratorError(f"unhandled node kind {node.kind}")
        self.inputs: Tuple[Tuple[str, int, int], ...] = tuple(inputs)
        self.consts: Tuple[Tuple[int, np.int64], ...] = tuple(consts)
        self.steps: Tuple[Tuple[int, ...], ...] = tuple(steps)
        self.op_names: Tuple[str, ...] = tuple(op_names)
        self._no_impls: Tuple[None, ...] = (None,) * len(op_names)
        # Register liveness: after a step, drop registers whose last
        # consumer it was, so batch execution keeps only live values
        # instead of every node's full-width array.
        last_use: Dict[int, int] = {}
        for i, step in enumerate(steps):
            if step[0] == _OP:
                last_use[step[2]] = i
                last_use[step[3]] = i
            else:
                last_use[step[2]] = i
        out = self.out_reg
        self.releases: Tuple[Tuple[int, ...], ...] = tuple(
            tuple(
                reg
                for reg, last in last_use.items()
                if last == i and reg != out
            )
            for i in range(len(steps))
        )
    def _load_inputs(
        self, input_values: Dict[str, np.ndarray], assume_masked: bool
    ) -> List[Optional[np.ndarray]]:
        """Register file with the (masked) inputs and constants loaded."""
        regs: List[Optional[np.ndarray]] = [None] * self.n_regs
        for name, reg, mask in self.inputs:
            if name not in input_values:
                raise AcceleratorError(
                    f"missing value for input {name!r}"
                )
            if assume_masked:
                regs[reg] = input_values[name]
            else:
                regs[reg] = (
                    np.asarray(input_values[name], dtype=np.int64) & mask
                )
        for reg, value in self.consts:
            regs[reg] = value
        return regs

    def execute(
        self,
        input_values: Dict[str, np.ndarray],
        assignment: Optional[Dict[str, OpImpl]] = None,
        capture: Optional[Dict[str, Tuple[np.ndarray, np.ndarray]]] = None,
        assume_masked: bool = False,
    ) -> np.ndarray:
        """Run the program on vector (or stacked batch) inputs.

        Accepts arrays of any shape — including a stacked batch of all
        (image x scenario) runs — because every step is elementwise;
        broadcasting-compatible shapes (e.g. per-run ``(R, 1)`` scenario
        inputs against ``(R, P)`` pixel inputs) combine as usual.

        ``assume_masked=True`` skips the defensive input masking; only
        callers that keep pre-masked int64 input batches around (the
        evaluation engine) may set it.
        """
        regs = self._load_inputs(input_values, assume_masked)
        if assignment:
            impls = tuple(assignment.get(n) for n in self.op_names)
        else:
            impls = self._no_impls
        return self._run(regs, impls, capture)

    def execute_batch(
        self,
        input_values: Dict[str, np.ndarray],
        tables: Sequence[Optional[Tuple[np.ndarray, np.ndarray, int, int]]],
        assume_masked: bool = False,
    ) -> np.ndarray:
        """Run the program for ``C`` configurations in one pass.

        ``tables`` aligns with :attr:`op_names`; each entry is ``None``
        (the op stays exact for every configuration) or a tuple
        ``(flat_lut, rows, width, mask)`` where ``flat_lut`` is the
        concatenation of the candidate LUTs of that op (``4**width``
        entries per candidate, int64) and ``rows`` holds the ``(C,)``
        per-configuration candidate indices.  Each such op becomes a
        single gather ``flat_lut[((a & mask) << width | (b & mask)) +
        (rows << 2*width)]`` that grows a leading configuration axis;
        exact ops and the wiring steps broadcast across it for free.

        Per configuration ``c`` the result is bit-identical to
        ``execute(input_values, assignment_c)``: the gathers run through
        the same step loop as per-configuration impls, the gathered
        values are exactly the per-record LUT entries, and the
        exact/wiring steps run the same ufuncs on the same int64 values
        (broadcasting only adds the leading axis).  The returned array
        broadcasts against ``(C,) + batch_shape``; the leading
        configuration axis is present as soon as any op consumed a
        table.  Capture mode is not supported here — callers that need
        operand capture use the per-configuration :meth:`execute` path.
        """
        if len(tables) != len(self.op_names):
            raise AcceleratorError(
                f"expected {len(self.op_names)} table entries, "
                f"got {len(tables)}"
            )
        regs = self._load_inputs(input_values, assume_masked)
        # Pad every input array to one common rank so the configuration
        # axis added by the gathers is unambiguous (always axis 0).
        # Leading length-1 axes broadcast exactly like absent axes, so
        # values are unchanged.
        base_rank = max(
            (
                regs[reg].ndim
                for _, reg, _ in self.inputs
                if isinstance(regs[reg], np.ndarray)
            ),
            default=0,
        )
        for _, reg, _ in self.inputs:
            value = regs[reg]
            if (
                isinstance(value, np.ndarray)
                and 0 < value.ndim < base_rank
            ):
                regs[reg] = value.reshape(
                    (1,) * (base_rank - value.ndim) + value.shape
                )
        row_shape = (-1,) + (1,) * base_rank
        impls = tuple(
            None if entry is None else _gather_impl(entry, row_shape)
            for entry in tables
        )
        return self._run(regs, impls, None)

    def _run(self, regs, impls, capture):
        """The step loop: one allocating numpy call per sub-expression."""
        op_names = self.op_names
        for step, dead in zip(self.steps, self.releases):
            code = step[0]
            if code == _OP:
                _, dest, a, b, mask, exact, opi = step
                av = regs[a]
                bv = regs[b]
                if capture is not None:
                    capture[op_names[opi]] = (av & mask, bv & mask)
                impl = impls[opi]
                if impl is not None:
                    regs[dest] = impl(av, bv)
                elif exact == _EXACT_ADD:
                    regs[dest] = (av & mask) + (bv & mask)
                elif exact == _EXACT_SUB:
                    regs[dest] = (av & mask) - (bv & mask)
                else:
                    regs[dest] = (av & mask) * (bv & mask)
            elif code == _SHL:
                regs[step[1]] = regs[step[2]] << step[3]
            elif code == _SHR:
                regs[step[1]] = regs[step[2]] >> step[3]
            elif code == _ABS:
                regs[step[1]] = np.abs(regs[step[2]])
            else:  # _CLIP
                regs[step[1]] = np.clip(regs[step[2]], step[3], step[4])
            for reg in dead:
                regs[reg] = None
        return regs[self.out_reg]


def _gather_impl(entry, row_shape) -> OpImpl:
    """A batched table entry as an op impl gathering ``(C,)`` LUT rows.

    Row ``c`` of ``impl(a, b)`` reads ``flat_lut`` at configuration
    ``c``'s LUT block, offset ``rows[c] << 2*width`` — exactly the
    entries the per-configuration LUT impl reads.
    """
    flat, rows, width, mask = entry
    offsets = (rows << (2 * width)).reshape(row_shape)

    def impl(a, b):
        return flat[(((a & mask) << width) | (b & mask)) + offsets]

    return impl


class DataflowGraph:
    """A DAG of named nodes with a single output."""

    def __init__(self, name: str):
        self.name = name
        self._nodes: Dict[str, Node] = {}
        self._order: List[str] = []
        self._output: Optional[str] = None
        self._program: Optional[GraphProgram] = None

    # -- construction -----------------------------------------------------

    def _add(self, node: Node) -> str:
        if node.name in self._nodes:
            raise AcceleratorError(f"duplicate node name {node.name!r}")
        for dep in node.operands:
            if dep not in self._nodes:
                raise AcceleratorError(
                    f"node {node.name!r} references unknown node {dep!r}"
                )
        self._nodes[node.name] = node
        self._order.append(node.name)
        self._program = None
        return node.name

    def add_input(self, name: str, width: int) -> str:
        return self._add(Node(name, NodeKind.INPUT, width=width))

    def add_const(self, name: str, value: int, width: int) -> str:
        return self._add(
            Node(name, NodeKind.CONST, width=width, attrs={"value": value})
        )

    def add_op(self, name: str, kind: NodeKind, width: int, a: str, b: str
               ) -> str:
        if kind not in APPROXIMABLE:
            raise AcceleratorError(f"{kind} is not an arithmetic op kind")
        return self._add(Node(name, kind, (a, b), width=width))

    def add_shl(self, name: str, x: str, amount: int) -> str:
        return self._add(
            Node(name, NodeKind.SHL, (x,), attrs={"amount": amount})
        )

    def add_shr(self, name: str, x: str, amount: int) -> str:
        return self._add(
            Node(name, NodeKind.SHR, (x,), attrs={"amount": amount})
        )

    def add_abs(self, name: str, x: str) -> str:
        return self._add(Node(name, NodeKind.ABS, (x,)))

    def add_clip(self, name: str, x: str, low: int, high: int) -> str:
        return self._add(
            Node(name, NodeKind.CLIP, (x,), attrs={"low": low, "high": high})
        )

    def set_output(self, name: str) -> None:
        if name not in self._nodes:
            raise AcceleratorError(f"unknown output node {name!r}")
        self._output = name
        self._program = None

    # -- queries ------------------------------------------------------------

    @property
    def output(self) -> str:
        if self._output is None:
            raise AcceleratorError("graph output has not been set")
        return self._output

    def node(self, name: str) -> Node:
        return self._nodes[name]

    def nodes(self) -> List[Node]:
        """All nodes in insertion (topological) order."""
        return [self._nodes[n] for n in self._order]

    def inputs(self) -> List[Node]:
        return [n for n in self.nodes() if n.kind is NodeKind.INPUT]

    def approximable_ops(self) -> List[Node]:
        """Arithmetic op nodes in insertion order."""
        return [n for n in self.nodes() if n.kind in APPROXIMABLE]

    # -- evaluation ----------------------------------------------------------

    def compile(self) -> GraphProgram:
        """Lower the graph to a flat :class:`GraphProgram` (cached).

        The cache is invalidated whenever a node is added or the output
        changes, so accelerators can keep calling ``compile()`` freely.
        """
        if self._program is None:
            self._program = GraphProgram(self)
        return self._program

    def evaluate(
        self,
        input_values: Dict[str, np.ndarray],
        assignment: Optional[Dict[str, OpImpl]] = None,
        capture: Optional[Dict[str, Tuple[np.ndarray, np.ndarray]]] = None,
    ) -> np.ndarray:
        """Evaluate the graph on vector inputs.

        ``assignment`` overrides the implementation of arithmetic op nodes
        by name; omitted ops are exact.  If ``capture`` is a dict, it is
        filled with the operand pair of every arithmetic op (used by the
        profiler).  Thin wrapper over the compiled program; results are
        bit-identical to :meth:`evaluate_interpreted`.
        """
        return self.compile().execute(input_values, assignment, capture)

    def evaluate_interpreted(
        self,
        input_values: Dict[str, np.ndarray],
        assignment: Optional[Dict[str, OpImpl]] = None,
        capture: Optional[Dict[str, Tuple[np.ndarray, np.ndarray]]] = None,
    ) -> np.ndarray:
        """The original per-node dict interpreter.

        Kept as the differential-testing reference; prefer
        :meth:`evaluate`, which compiles once and runs much faster.
        """
        assignment = assignment or {}
        values: Dict[str, np.ndarray] = {}
        for node in self.nodes():
            if node.kind is NodeKind.INPUT:
                if node.name not in input_values:
                    raise AcceleratorError(
                        f"missing value for input {node.name!r}"
                    )
                values[node.name] = (
                    np.asarray(input_values[node.name], dtype=np.int64)
                    & bit_mask(node.width)
                )
            elif node.kind is NodeKind.CONST:
                values[node.name] = np.int64(
                    node.attrs["value"] & bit_mask(node.width)
                )
            elif node.kind in APPROXIMABLE:
                a = values[node.operands[0]]
                b = values[node.operands[1]]
                if capture is not None:
                    mask = bit_mask(node.width)
                    capture[node.name] = (a & mask, b & mask)
                impl = assignment.get(node.name)
                if impl is None:
                    if node.kind is NodeKind.ADD:
                        out = (a & bit_mask(node.width)) + (
                            b & bit_mask(node.width)
                        )
                    elif node.kind is NodeKind.SUB:
                        out = (a & bit_mask(node.width)) - (
                            b & bit_mask(node.width)
                        )
                    else:
                        out = (a & bit_mask(node.width)) * (
                            b & bit_mask(node.width)
                        )
                else:
                    out = impl(a, b)
                values[node.name] = out
            elif node.kind is NodeKind.SHL:
                values[node.name] = values[node.operands[0]] << node.attrs[
                    "amount"
                ]
            elif node.kind is NodeKind.SHR:
                values[node.name] = values[node.operands[0]] >> node.attrs[
                    "amount"
                ]
            elif node.kind is NodeKind.ABS:
                values[node.name] = np.abs(values[node.operands[0]])
            elif node.kind is NodeKind.CLIP:
                values[node.name] = np.clip(
                    values[node.operands[0]],
                    node.attrs["low"],
                    node.attrs["high"],
                )
            else:  # pragma: no cover - exhaustive
                raise AcceleratorError(f"unhandled node kind {node.kind}")
        return values[self.output]
