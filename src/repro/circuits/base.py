"""Core circuit abstractions and the exact reference implementations.

Conventions
-----------
* An ``n``-bit **adder** adds two ``n``-bit unsigned operands and produces an
  ``n+1``-bit unsigned result (carry-out included).
* An ``n``-bit **subtractor** subtracts two ``n``-bit unsigned operands and
  produces a signed result in ``(-2**n, 2**n)`` (an ``n+1``-bit
  two's-complement word in hardware).
* An ``n``-bit **multiplier** multiplies two ``n``-bit unsigned operands and
  produces a ``2n``-bit unsigned result.

``evaluate`` is vectorised: it accepts scalars or integer numpy arrays and
performs all arithmetic in int64 (safe up to 16x16-bit products).  Inputs
are masked to the operand width, so callers may pass wider garbage in the
high bits.
"""

from __future__ import annotations

import enum
from typing import Dict, Union

import numpy as np

from repro.errors import CircuitError
from repro.utils.bitops import bit_mask

IntArray = Union[int, np.ndarray]


class Operation(enum.Enum):
    """Kind of arithmetic operation a circuit implements."""

    ADD = "add"
    SUB = "sub"
    MUL = "mul"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


class ArithmeticCircuit:
    """Base class of all behavioural circuit models.

    Subclasses set :attr:`op` as a class attribute, validate their family
    parameters in ``__init__`` and implement :meth:`_compute` on masked
    int64 operands.
    """

    op: Operation

    #: Version of the behavioural model.  Store keys of characterised
    #: components and libraries include it, so bump it in any subclass
    #: whose ``_compute`` changes its outputs: cached records of the
    #: old model then miss instead of being served.
    model_version = 1

    def __init__(self, width: int, name: str):
        if width < 1:
            raise CircuitError(f"operand width must be >= 1, got {width}")
        self.width = int(width)
        self.name = str(name)

    # -- public API -------------------------------------------------------

    @property
    def result_width(self) -> int:
        """Number of bits of the result word."""
        if self.op is Operation.MUL:
            return 2 * self.width
        return self.width + 1

    def evaluate(self, a: IntArray, b: IntArray) -> IntArray:
        """Return the circuit's output for operands ``a`` and ``b``."""
        scalar = np.isscalar(a) and np.isscalar(b)
        mask = bit_mask(self.width)
        a64 = np.asarray(a, dtype=np.int64) & mask
        b64 = np.asarray(b, dtype=np.int64) & mask
        result = self._compute(a64, b64)
        if scalar:
            return int(result)
        return result

    def exact(self, a: IntArray, b: IntArray) -> IntArray:
        """Exact result of this circuit's operation (golden reference)."""
        mask = bit_mask(self.width)
        a64 = np.asarray(a, dtype=np.int64) & mask
        b64 = np.asarray(b, dtype=np.int64) & mask
        if self.op is Operation.ADD:
            out = a64 + b64
        elif self.op is Operation.SUB:
            out = a64 - b64
        else:
            out = a64 * b64
        if np.isscalar(a) and np.isscalar(b):
            return int(out)
        return out

    def is_exact(self) -> bool:
        """True when the circuit never deviates from the exact operation."""
        return False

    def params(self) -> Dict[str, object]:
        """Family parameters, sufficient to reconstruct the instance."""
        return {}

    # -- subclass hook ------------------------------------------------------

    def _compute(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<{type(self).__name__} {self.name} width={self.width}>"


class ExactAdder(ArithmeticCircuit):
    """Exact ripple-carry adder reference."""

    op = Operation.ADD

    def __init__(self, width: int):
        super().__init__(width, name=f"add{width}_exact")

    def is_exact(self) -> bool:
        return True

    def _compute(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        return a + b


class ExactSubtractor(ArithmeticCircuit):
    """Exact subtractor reference (signed result)."""

    op = Operation.SUB

    def __init__(self, width: int):
        super().__init__(width, name=f"sub{width}_exact")

    def is_exact(self) -> bool:
        return True

    def _compute(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        return a - b


class ExactMultiplier(ArithmeticCircuit):
    """Exact array multiplier reference."""

    op = Operation.MUL

    def __init__(self, width: int):
        super().__init__(width, name=f"mul{width}_exact")

    def is_exact(self) -> bool:
        return True

    def _compute(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        return a * b
