import numpy as np
import pytest

from repro.circuits.adders import TruncatedAdder
from repro.circuits.base import ExactAdder, ExactMultiplier, ExactSubtractor
from repro.circuits.luts import (
    MAX_LUT_WIDTH,
    build_exact_lut,
    build_lut,
    lut_index,
    operand_grid,
)
from repro.circuits.multipliers import MaskedMultiplier
from repro.circuits.netlist_backed import wrap_netlist
from repro.errors import CircuitError
from repro.library.generation import enumerate_plan, scaled_plan


class TestLutIndex:
    def test_formula(self):
        assert lut_index(3, 5, 8) == (3 << 8) | 5

    def test_masks_inputs(self):
        assert lut_index(0x1FF, 0x1FF, 8) == (0xFF << 8) | 0xFF

    def test_vectorised(self):
        a = np.array([0, 1, 2])
        b = np.array([3, 4, 5])
        idx = lut_index(a, b, 4)
        assert np.array_equal(idx, (a << 4) | b)


class TestBuildLut:
    def test_adder_lut(self):
        lut = build_lut(ExactAdder(4))
        assert lut.shape == (256,)
        assert lut[lut_index(7, 9, 4)] == 16

    def test_subtractor_lut_signed(self):
        lut = build_lut(ExactSubtractor(4))
        assert lut[lut_index(0, 15, 4)] == -15

    def test_lut_consistent_with_evaluate(self, rng):
        circ = TruncatedAdder(8, 3, "half")
        lut = build_lut(circ)
        a = rng.integers(0, 256, 500)
        b = rng.integers(0, 256, 500)
        assert np.array_equal(
            lut[lut_index(a, b, 8)], circ.evaluate(a, b)
        )

    def test_exact_lut(self):
        lut = build_exact_lut(TruncatedAdder(4, 2))
        assert lut[lut_index(3, 3, 4)] == 6

    def test_width_limit(self):
        with pytest.raises(CircuitError):
            build_lut(ExactMultiplier(16))
        with pytest.raises(CircuitError):
            build_exact_lut(ExactMultiplier(16))


def _narrow_circuits():
    circuits = [
        c
        for _, c in enumerate_plan(scaled_plan(0.02, seed=0))
        if c.width <= MAX_LUT_WIDTH
    ]
    circuits += [
        MaskedMultiplier(4, [0, 0, 0, 0]),
        MaskedMultiplier(4, [0, 0b1000, 0, 0]),
        MaskedMultiplier(6, [0b101010, 0, 0b111, 0, 0b1, 0b111111]),
    ]
    return circuits


class TestBroadcastBuild:
    """``build_lut`` on broadcast operands equals the flat-grid evaluate."""

    def test_identity_over_scaled_plan(self):
        circuits = _narrow_circuits()
        assert len(circuits) == 866 + 3
        for circuit in circuits:
            lut = build_lut(circuit)
            flat = np.asarray(
                circuit.evaluate(*operand_grid(circuit.width)),
                dtype=np.int64,
            )
            assert lut.dtype == np.int64, circuit.name
            assert lut.shape == (4 ** circuit.width,), circuit.name
            assert lut.flags.c_contiguous, circuit.name
            assert lut.flags.writeable, circuit.name
            assert lut.tobytes() == flat.tobytes(), circuit.name

    def test_netlist_circuit_uses_packed_hook(self, monkeypatch):
        wrapped = wrap_netlist(TruncatedAdder(4, 2))
        calls = []
        packed = wrapped.packed_lut

        def spy(a, b):
            calls.append(a.size)
            return packed(a, b)

        monkeypatch.setattr(wrapped, "packed_lut", spy)
        lut = build_lut(wrapped)
        assert calls == [256]
        assert np.array_equal(lut, build_lut(TruncatedAdder(4, 2)))


class TestExactMemo:
    def test_shared_read_only(self):
        first = build_exact_lut(TruncatedAdder(6, 2))
        second = build_exact_lut(ExactAdder(6))
        assert first is second
        assert not first.flags.writeable
        assert np.array_equal(first, build_lut(ExactAdder(6)))

    def test_keyed_by_operation(self):
        add = build_exact_lut(ExactAdder(5))
        sub = build_exact_lut(ExactSubtractor(5))
        assert add is not sub
        assert sub[lut_index(0, 31, 5)] == -31
