"""Approximate adder families.

Implemented families (operand width ``n``, result width ``n+1``):

* :class:`TruncatedAdder` — the lowest ``t`` bits are not computed; the
  result's low bits are filled with zeros, a mid-point constant, or a copy
  of operand ``a``.
* :class:`LowerOrAdder` (LOA) — the lowest ``l`` result bits are ``a | b``;
  the upper part is an exact adder whose carry-in is ``a[l-1] & b[l-1]``.
* :class:`AlmostCorrectAdder` (ACA) — every carry is speculated from a
  sliding window of the previous ``w`` bit positions.
* :class:`GeArAdder` — generic accuracy-configurable adder: overlapping
  sub-adders of ``R`` result bits with ``P`` previous bits used for carry
  prediction.
* :class:`QuAdAdder` — quality-area optimal adders: an arbitrary partition
  of the ``n`` bits into independent blocks, each with a configurable
  number of carry-prediction bits.  This family has an exponentially large
  configuration space and supplies most of the library volume (the paper's
  Table 2 lists 6979 8-bit adders).
"""

from __future__ import annotations

from typing import Dict, Sequence, Tuple

import numpy as np

from repro.circuits.base import ArithmeticCircuit, Operation
from repro.errors import CircuitError
from repro.utils.bitops import bit_mask

_TRUNC_FILLS = ("zero", "half", "copy")


class TruncatedAdder(ArithmeticCircuit):
    """Adder that ignores the ``t`` least significant bits of both operands."""

    op = Operation.ADD

    def __init__(self, width: int, trunc_bits: int, fill: str = "zero"):
        if not 0 <= trunc_bits <= width:
            raise CircuitError(
                f"trunc_bits must be in [0, {width}], got {trunc_bits}"
            )
        if fill not in _TRUNC_FILLS:
            raise CircuitError(f"fill must be one of {_TRUNC_FILLS}, got {fill!r}")
        super().__init__(width, name=f"add{width}_tra_t{trunc_bits}_{fill}")
        self.trunc_bits = int(trunc_bits)
        self.fill = fill

    def is_exact(self) -> bool:
        return self.trunc_bits == 0

    def params(self) -> Dict[str, object]:
        return {"trunc_bits": self.trunc_bits, "fill": self.fill}

    def _compute(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        t = self.trunc_bits
        upper = ((a >> t) + (b >> t)) << t
        if t == 0 or self.fill == "zero":
            return upper
        if self.fill == "half":
            return upper + (1 << (t - 1))
        return upper + (a & bit_mask(t))


class LowerOrAdder(ArithmeticCircuit):
    """LOA: lower ``l`` bits approximated by a bitwise OR."""

    op = Operation.ADD

    def __init__(self, width: int, or_bits: int):
        if not 0 <= or_bits <= width:
            raise CircuitError(f"or_bits must be in [0, {width}], got {or_bits}")
        super().__init__(width, name=f"add{width}_loa_l{or_bits}")
        self.or_bits = int(or_bits)

    def is_exact(self) -> bool:
        return self.or_bits == 0

    def params(self) -> Dict[str, object]:
        return {"or_bits": self.or_bits}

    def _compute(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        l = self.or_bits
        if l == 0:
            return a + b
        low = (a | b) & bit_mask(l)
        carry = (a >> (l - 1)) & (b >> (l - 1)) & 1
        upper = (a >> l) + (b >> l) + carry
        return (upper << l) | low


class AlmostCorrectAdder(ArithmeticCircuit):
    """ACA: each carry is speculated from the previous ``window`` positions."""

    op = Operation.ADD

    def __init__(self, width: int, window: int):
        if not 1 <= window <= width:
            raise CircuitError(f"window must be in [1, {width}], got {window}")
        super().__init__(width, name=f"add{width}_aca_w{window}")
        self.window = int(window)

    def is_exact(self) -> bool:
        return self.window == self.width

    def params(self) -> Dict[str, object]:
        return {"window": self.window}

    def _compute(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        n, w = self.width, self.window
        result = np.zeros_like(a)
        for i in range(n + 1):
            start = max(0, i - w)
            seg_mask = bit_mask(i - start)
            seg_sum = ((a >> start) & seg_mask) + ((b >> start) & seg_mask)
            carry_in = (seg_sum >> (i - start)) & 1
            if i == n:
                result = result | (carry_in << n)
            else:
                bit = ((a >> i) ^ (b >> i) ^ carry_in) & 1
                result = result | (bit << i)
        return result


def _block_layout(
    width: int, blocks: Sequence[int], predictions: Sequence[int]
) -> Tuple[Tuple[int, ...], Tuple[int, ...], Tuple[int, ...]]:
    """Validated ``(blocks, predictions, offsets)`` of a block circuit."""
    blocks = tuple(int(x) for x in blocks)
    if not blocks or any(x < 1 for x in blocks):
        raise CircuitError(f"blocks must be positive, got {blocks}")
    if sum(blocks) != width:
        raise CircuitError(
            f"blocks {blocks} must sum to the operand width {width}"
        )
    predictions = tuple(int(p) for p in predictions) or (0,) * len(blocks)
    if len(predictions) != len(blocks):
        raise CircuitError("predictions must match blocks in length")
    offsets = tuple(sum(blocks[:k]) for k in range(len(blocks)))
    for k, pred in enumerate(predictions):
        if pred < 0 or pred > offsets[k]:
            raise CircuitError(
                f"prediction {pred} of block {k} exceeds available "
                f"lower bits ({offsets[k]})"
            )
    return blocks, predictions, offsets


class QuAdAdder(ArithmeticCircuit):
    """QuAd-style block adder with per-block carry prediction.

    ``blocks`` lists the block lengths from LSB to MSB and must sum to the
    operand width.  ``predictions[k]`` is the number of bits directly below
    block ``k`` used to speculate its carry-in (0 means carry-in is tied to
    zero).  The first block always has carry-in zero.
    """

    op = Operation.ADD

    def __init__(
        self,
        width: int,
        blocks: Sequence[int],
        predictions: Sequence[int] = (),
    ):
        blocks, predictions, offsets = _block_layout(
            width, blocks, predictions
        )
        tag = "-".join(f"{l}p{p}" for l, p in zip(blocks, predictions))
        super().__init__(width, name=f"add{width}_quad_{tag}")
        self.blocks = blocks
        self.predictions = predictions
        self._offsets = offsets

    def is_exact(self) -> bool:
        return len(self.blocks) == 1

    def params(self) -> Dict[str, object]:
        return {"blocks": list(self.blocks), "predictions": list(self.predictions)}

    def _compute(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        result = np.zeros_like(a)
        for k, (length, pred) in enumerate(zip(self.blocks, self.predictions)):
            offset = self._offsets[k]
            start = offset - pred
            seg_bits = pred + length
            seg_mask = bit_mask(seg_bits)
            seg_sum = ((a >> start) & seg_mask) + ((b >> start) & seg_mask)
            block_val = (seg_sum >> pred) & bit_mask(length)
            result = result | (block_val << offset)
            if k == len(self.blocks) - 1:
                carry_out = (seg_sum >> seg_bits) & 1
                result = result | (carry_out << self.width)
        return result


class GeArAdder(QuAdAdder):
    """GeAr(n, R, P): uniform sub-adders of ``R`` bits with ``P`` prediction
    bits — a regular special case of the QuAd block structure."""

    def __init__(self, width: int, resultant: int, previous: int):
        if resultant < 1:
            raise CircuitError("resultant block size R must be >= 1")
        if previous < 0:
            raise CircuitError("prediction length P must be >= 0")
        blocks = []
        remaining = width
        while remaining > 0:
            blocks.append(min(resultant, remaining))
            remaining -= blocks[-1]
        predictions = [0]
        offset = blocks[0]
        for length in blocks[1:]:
            predictions.append(min(previous, offset))
            offset += length
        super().__init__(width, blocks, predictions)
        self.resultant = int(resultant)
        self.previous = int(previous)
        self.name = f"add{width}_gear_r{resultant}p{previous}"

    def params(self) -> Dict[str, object]:
        return {"resultant": self.resultant, "previous": self.previous}
