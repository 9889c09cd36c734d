import pickle

import numpy as np
import pytest

from repro.accelerators import SobelEdgeDetector
from repro.circuits.adders import QuAdAdder, TruncatedAdder
from repro.circuits.base import ExactAdder, ExactMultiplier
from repro.circuits.multipliers import RecursiveApproxMultiplier
from repro.errors import LibraryError
from repro.library.component import (
    FAMILY_REGISTRY,
    ComponentRecord,
    HardwareCost,
    record_from_circuit,
)
from repro.core.engine import EvaluationEngine
from repro.synthesis.synthesizer import optimize, synthesize


class TestRecordFromCircuit:
    def test_exact_adder(self):
        rec = record_from_circuit(ExactAdder(8))
        assert rec.signature == ("add", 8)
        assert rec.is_exact()
        assert rec.errors.med == 0.0
        assert rec.hardware.area > 0
        assert rec.hardware.gate_count > 0

    def test_approximate_has_error(self):
        rec = record_from_circuit(TruncatedAdder(8, 4))
        assert not rec.is_exact()
        assert rec.errors.med > 0

    def test_energy_property(self):
        hw = HardwareCost(area=10, delay=2, power=3, gate_count=4)
        assert hw.energy == 6

    def test_lut_cached(self):
        rec = record_from_circuit(TruncatedAdder(8, 2))
        assert rec.lut() is rec.lut()

    def test_lut_width_limit(self):
        rec = record_from_circuit(ExactMultiplier(16), sample_size=256)
        with pytest.raises(LibraryError):
            rec.lut()

    def test_netlist_fresh_instances(self):
        rec = record_from_circuit(ExactAdder(8))
        assert rec.build_netlist() is not rec.build_netlist()


class TestNetlistTemplate:
    """One validated netlist per record, shared by every composition."""

    @staticmethod
    def _gates(netlist):
        return [
            (g.cell.name, g.inputs, g.outputs) for g in netlist.gates
        ]

    @staticmethod
    def _sobel_records(tiny_library, pick):
        records = {}
        for slot in SobelEdgeDetector().op_slots():
            components = tiny_library.components(slot.signature)
            records[slot.name] = components[pick % len(components)]
        return records

    def test_synthesis_leaves_template_untouched(self, tiny_library):
        sobel = SobelEdgeDetector()
        # add1/add3 and add2/add4 share a record: two slots, one template
        records = self._sobel_records(tiny_library, pick=3)
        assert records["add1"] is records["add3"]
        templates = {
            name: (rec.netlist_template(),
                   self._gates(rec.netlist_template()))
            for name, rec in records.items()
        }
        first = synthesize(sobel.to_netlist(records), in_place=True)
        second = synthesize(sobel.to_netlist(records), in_place=True)
        assert first == second
        for name, rec in records.items():
            template, gates = templates[name]
            assert rec.netlist_template() is template
            assert self._gates(template) == gates
        # records rebuilt from scratch (no shared template) agree
        fresh = {
            name: pickle.loads(pickle.dumps(rec))
            for name, rec in records.items()
        }
        assert synthesize(sobel.to_netlist(fresh), in_place=True) == first

    def test_engine_resynthesis_matches(self, tiny_library, small_images):
        engine = EvaluationEngine(SobelEdgeDetector(), small_images[:1])
        records = self._sobel_records(tiny_library, pick=5)
        first = engine.hardware(records)
        engine._synth_memo.clear()
        assert engine.hardware(records) == first
        assert engine.synth_misses == 2

    def test_build_netlist_is_independent(self):
        rec = record_from_circuit(TruncatedAdder(8, 4))
        template = rec.netlist_template()
        gates = self._gates(template)
        netlist = rec.build_netlist()
        assert netlist is not template
        assert self._gates(netlist) == gates
        assert netlist.outputs == template.outputs
        optimize(netlist)
        netlist.outputs["y"][0] = 0
        assert self._gates(netlist) != gates
        assert self._gates(template) == gates
        assert self._gates(rec.build_netlist()) == gates
        assert rec.build_netlist().outputs == template.outputs

    def test_template_not_pickled(self):
        rec = record_from_circuit(ExactAdder(8))
        before = pickle.dumps(rec)
        rec.netlist_template()
        assert pickle.dumps(rec) == before
        clone = pickle.loads(before)
        assert self._gates(clone.netlist_template()) == self._gates(
            rec.netlist_template()
        )


class TestSerialisation:
    @pytest.mark.parametrize(
        "circuit",
        [
            ExactAdder(8),
            TruncatedAdder(8, 3, "half"),
            QuAdAdder(9, [4, 5], [0, 3]),
            RecursiveApproxMultiplier(8, [1, 2, 3]),
        ],
        ids=lambda c: c.name,
    )
    def test_roundtrip(self, circuit):
        rec = record_from_circuit(circuit, sample_size=1 << 10)
        data = rec.to_dict()
        rec2 = ComponentRecord.from_dict(data)
        assert rec2.name == rec.name
        assert rec2.signature == rec.signature
        assert rec2.errors == rec.errors
        assert rec2.hardware.area == rec.hardware.area
        a = np.arange(1 << circuit.width)
        assert np.array_equal(
            rec2.circuit.evaluate(a, a[::-1].copy()),
            rec.circuit.evaluate(a, a[::-1].copy()),
        )

    def test_exhaustive_flag_roundtrips(self):
        narrow = record_from_circuit(TruncatedAdder(8, 2))
        assert narrow.errors.exhaustive
        clone = ComponentRecord.from_dict(narrow.to_dict())
        assert clone.errors.exhaustive

        wide = record_from_circuit(ExactMultiplier(16),
                                   sample_size=256)
        assert not wide.errors.exhaustive
        clone = ComponentRecord.from_dict(wide.to_dict())
        assert not clone.errors.exhaustive

    @pytest.mark.parametrize("width,expected", [(8, True), (16, False)])
    def test_legacy_dict_without_flag_infers_from_width(
        self, width, expected
    ):
        """Pre-flag library blobs deserialise with the historic mode."""
        klass = ExactAdder if width == 8 else ExactMultiplier
        rec = record_from_circuit(klass(width), sample_size=256)
        data = rec.to_dict()
        del data["errors"]["exhaustive"]  # as serialised by old code
        clone = ComponentRecord.from_dict(data)
        assert clone.errors.exhaustive is expected

    def test_unknown_family_rejected(self):
        with pytest.raises(LibraryError):
            ComponentRecord.from_dict(
                {"family": "Bogus", "width": 8, "params": {},
                 "errors": {}, "hardware": {}}
            )

    def test_registry_covers_all_families(self):
        assert "ExactAdder" in FAMILY_REGISTRY
        assert "RecursiveApproxMultiplier" in FAMILY_REGISTRY
        assert len(FAMILY_REGISTRY) >= 15
