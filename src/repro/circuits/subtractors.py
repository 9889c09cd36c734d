"""Approximate subtractor families.

A subtractor computes ``a - b`` for unsigned ``n``-bit operands and returns
a signed value in ``(-2**n, 2**n)`` (an ``n+1``-bit two's-complement word in
hardware).  The approximations mirror the adder families: truncation of low
bits, and a QuAd-like partition into blocks with speculative borrow-in.
"""

from __future__ import annotations

from typing import Dict, Sequence

import numpy as np

from repro.circuits.adders import _block_layout
from repro.circuits.base import ArithmeticCircuit, Operation
from repro.errors import CircuitError
from repro.utils.bitops import bit_mask

_TRUNC_FILLS = ("zero", "copy")


class TruncatedSubtractor(ArithmeticCircuit):
    """Subtractor that ignores the ``t`` least significant operand bits."""

    op = Operation.SUB

    def __init__(self, width: int, trunc_bits: int, fill: str = "zero"):
        if not 0 <= trunc_bits <= width:
            raise CircuitError(
                f"trunc_bits must be in [0, {width}], got {trunc_bits}"
            )
        if fill not in _TRUNC_FILLS:
            raise CircuitError(f"fill must be one of {_TRUNC_FILLS}, got {fill!r}")
        super().__init__(width, name=f"sub{width}_tra_t{trunc_bits}_{fill}")
        self.trunc_bits = int(trunc_bits)
        self.fill = fill

    def is_exact(self) -> bool:
        return self.trunc_bits == 0

    def params(self) -> Dict[str, object]:
        return {"trunc_bits": self.trunc_bits, "fill": self.fill}

    def _compute(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        t = self.trunc_bits
        upper = ((a >> t) - (b >> t)) << t
        if t == 0 or self.fill == "zero":
            return upper
        return upper + (a & bit_mask(t))


class BlockSubtractor(ArithmeticCircuit):
    """Block subtractor with speculative borrow-in per block.

    The bit positions are partitioned into blocks (LSB first).  Each block
    subtracts its operand slices independently; its borrow-in is speculated
    by comparing the ``predictions[k]`` bits directly below the block
    (borrow-in 1 when the ``a`` slice is smaller).  The sign of the overall
    result comes from the most significant block's borrow-out.
    """

    op = Operation.SUB

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
        super().__init__(width, name=f"sub{width}_blk_{tag}")
        self.blocks = blocks
        self.predictions = predictions
        self._offsets = offsets

    def is_exact(self) -> bool:
        return len(self.blocks) == 1

    def params(self) -> Dict[str, object]:
        return {"blocks": list(self.blocks), "predictions": list(self.predictions)}

    def _compute(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        result = np.zeros_like(a)
        sign = np.zeros_like(a)
        for k, (length, pred) in enumerate(zip(self.blocks, self.predictions)):
            offset = self._offsets[k]
            start = offset - pred
            seg_bits = pred + length
            seg_mask = bit_mask(seg_bits)
            seg_diff = ((a >> start) & seg_mask) - ((b >> start) & seg_mask)
            block_val = (seg_diff >> pred) & bit_mask(length)
            result = result | (block_val << offset)
            if k == len(self.blocks) - 1:
                sign = (seg_diff < 0).astype(np.int64)
        return result - (sign << self.width)
