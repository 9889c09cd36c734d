import numpy as np
import pytest

from repro.accelerators.profiler import OperandProfile, profile_accelerator
from repro.circuits.luts import build_exact_lut, build_lut
from repro.core.preprocessing import pareto_filter_indices, reduce_library
from repro.core.wmed import wmed, wmed_table
from repro.errors import LibraryError
from repro.library.component import ComponentRecord, record_from_circuit
from repro.library.library import ComponentLibrary
from repro.circuits.adders import TruncatedAdder
from repro.circuits.base import ExactAdder
from repro.workloads import build_bundle


def _oracle(records, profile):
    """The paper's dense WMED: ``pmf @ |M - M~|`` over full tables."""
    return np.asarray(
        [
            profile.pmf
            @ np.abs(build_lut(r.circuit) - build_exact_lut(r.circuit))
            for r in records
        ],
        dtype=np.float64,
    )


def _synthetic_profile(signature, pmf):
    empty = np.zeros(0, dtype=np.int64)
    return OperandProfile("synthetic", signature, 1, pmf, empty, empty)


class TestWMED:
    def test_exact_circuit_zero(self, sobel_profiles, tiny_library):
        exact = tiny_library.exact_component(("add", 8))
        assert wmed(exact, sobel_profiles["add1"]) == 0.0

    def test_positive_for_approximate(self, sobel_profiles):
        rec = record_from_circuit(TruncatedAdder(8, 4))
        assert wmed(rec, sobel_profiles["add1"]) > 0.0

    def test_weighted_by_distribution(self, sobel_profiles):
        """WMED under the application PMF differs from uniform MED: the
        Sobel operand distribution is not uniform."""
        rec = record_from_circuit(TruncatedAdder(8, 4, "copy"))
        application = wmed(rec, sobel_profiles["add1"])
        uniform = rec.errors.med
        assert application != pytest.approx(uniform, rel=0.01)

    def test_signature_mismatch(self, sobel_profiles):
        rec = record_from_circuit(TruncatedAdder(9, 2))
        with pytest.raises(ValueError):
            wmed(rec, sobel_profiles["add1"])

    def test_table_shape(self, sobel_profiles):
        recs = [
            record_from_circuit(TruncatedAdder(8, t)) for t in (1, 2, 3)
        ]
        table = wmed_table(recs, sobel_profiles["add1"])
        assert table.shape == (3,)
        assert np.all(np.diff(table) > 0)  # deeper truncation, more error

    def test_sample_based_path(self, small_images):
        """Wide ops (no dense PMF) estimate WMED from operand samples."""
        from repro.accelerators import (
            GenericGaussianFilter,
            profile_accelerator,
        )

        acc = GenericGaussianFilter()
        profiles = profile_accelerator(acc, small_images, rng=0)
        rec = record_from_circuit(
            TruncatedAdder(16, 6), sample_size=1 << 10
        )
        value = wmed(rec, profiles["sum1"])
        assert value > 0.0


class TestWMEDOracle:
    """``wmed_table`` equals the dense oracle byte for byte."""

    def test_every_sobel_slot(self, sobel, tiny_library, sobel_profiles):
        for slot in sobel.op_slots():
            records = tiny_library.components(slot.signature)
            profile = sobel_profiles[slot.name]
            assert (
                wmed_table(records, profile).tobytes()
                == _oracle(records, profile).tobytes()
            ), slot.name

    def test_generic_gf_mul8_slot(self, tiny_library):
        bundle = build_bundle("generic_gf", n_images=1, image_shape=(32, 48))
        profiles = profile_accelerator(
            bundle.accelerator, bundle.images,
            scenarios=bundle.scenarios[:3], rng=0,
        )
        profile = profiles["mul4"]
        assert profile.pmf is not None
        records = tiny_library.components(("mul", 8))
        assert (
            wmed_table(records, profile).tobytes()
            == _oracle(records, profile).tobytes()
        )

    def test_full_support_pmf(self, tiny_library):
        records = tiny_library.components(("add", 8))
        weights = np.random.default_rng(7).random(1 << 16) + 0.5
        profile = _synthetic_profile(("add", 8), weights / weights.sum())
        assert np.all(profile.pmf > 0)
        assert (
            wmed_table(records, profile).tobytes()
            == _oracle(records, profile).tobytes()
        )

    def test_single_entry_pmf(self, tiny_library):
        records = tiny_library.components(("sub", 10))
        pmf = np.zeros(1 << 20)
        pmf[(3 << 10) | 1000] = 1.0
        profile = _synthetic_profile(("sub", 10), pmf)
        table = wmed_table(records, profile)
        assert table.tobytes() == _oracle(records, profile).tobytes()
        for record, value in zip(records, table):
            assert value == abs(record.circuit.evaluate(3, 1000) - (3 - 1000))

    def test_table_signature_mismatch(self, sobel_profiles):
        records = [
            record_from_circuit(TruncatedAdder(8, 2)),
            record_from_circuit(TruncatedAdder(9, 2)),
        ]
        with pytest.raises(ValueError):
            wmed_table(records, sobel_profiles["add1"])

    def test_reduction_caches_no_discarded_table(
        self, sobel, tiny_library, sobel_profiles
    ):
        """Scoring never builds a candidate's truth table, so records
        dropped by the reduction hold none."""
        fresh = ComponentLibrary(
            ComponentRecord.from_dict(r.to_dict())
            for sig in tiny_library.signatures()
            for r in tiny_library.components(sig)
        )
        space = reduce_library(sobel, fresh, sobel_profiles)
        kept = {id(r) for group in space.choices for r in group}
        for sig in fresh.signatures():
            for record in fresh.components(sig):
                if id(record) not in kept:
                    assert record._lut is None, record.name


class TestParetoFilter:
    def test_filters_dominated(self):
        scores = np.array([0.0, 1.0, 2.0, 1.5])
        costs = np.array([10.0, 5.0, 1.0, 8.0])
        keep = pareto_filter_indices(scores, costs)
        assert sorted(keep.tolist()) == [0, 1, 2]

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            pareto_filter_indices(np.zeros(3), np.zeros(4))


class TestReduceLibrary:
    def test_space_structure(self, sobel, sobel_space):
        assert sobel_space.n_slots == 5
        assert all(size >= 1 for size in sobel_space.slot_sizes())

    def test_candidates_on_front(self, sobel_space):
        """Within each slot, only the force-kept exact circuit may be
        dominated in (wmed, area).  (An approximate circuit whose errors
        never occur under the application PMF can have zero WMED at a
        lower area than the exact implementation.)"""
        for wmeds, group in zip(sobel_space.wmeds, sobel_space.choices):
            areas = np.array([r.hardware.area for r in group])
            for i in range(len(group)):
                better_score = wmeds <= wmeds[i]
                better_area = areas <= areas[i]
                strictly = (wmeds < wmeds[i]) | (areas < areas[i])
                dominated = better_score & better_area & strictly
                if dominated.any():
                    assert group[i].is_exact()

    def test_exact_reachable(self, sobel_space):
        config = sobel_space.exact_configuration()
        for k, idx in enumerate(config):
            assert sobel_space.choices[k][idx].is_exact()

    def test_per_op_cap(self, sobel, tiny_library, sobel_profiles):
        space = reduce_library(
            sobel, tiny_library, sobel_profiles, per_op_cap=3
        )
        assert all(s <= 4 for s in space.slot_sizes())  # cap + exact

    def test_reduction_shrinks_space(self, sobel, tiny_library,
                                     sobel_space):
        full = 1.0
        for slot in sobel.op_slots():
            full *= tiny_library.size(slot.signature)
        assert sobel_space.size() < full

    def test_missing_profile_rejected(self, sobel, tiny_library,
                                      sobel_profiles):
        incomplete = dict(sobel_profiles)
        del incomplete["sub"]
        with pytest.raises(LibraryError):
            reduce_library(sobel, tiny_library, incomplete)
