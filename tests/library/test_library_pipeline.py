"""The parallel store-backed library construction pipeline.

The load-bearing property: whatever the worker count, chunking or store
temperature, the pipeline produces a library component-for-component
identical to the serial seed path (per-signature ``generate_*`` calls on
:func:`~repro.utils.rng.spawn_rngs` children).
"""

import json

import pytest

from repro.circuits.characterization import characterization_count
from repro.cli import ACCELERATORS
from repro.library.component import ComponentRecord
from repro.library.generation import (
    GenerationPlan,
    enumerate_adders,
    enumerate_plan,
    generate_adders,
    generate_library,
    generate_multipliers,
    generate_subtractors,
    scaled_plan,
)
from repro.library.io import library_payload
from repro.library.library import ComponentLibrary
from repro.library.pipeline import (
    COMPONENT_KIND,
    build_library,
    component_key,
)
from repro.store import ArtifactStore, RunLedger
from repro.synthesis.synthesizer import synthesis_run_count
from repro.utils.rng import spawn_rngs

#: Counts straddle the systematic families (the add/sub quotas overflow
#: into random QuAd / block sampling), so the tests cover the seeded
#: sampling path, not just deterministic enumeration.
PLAN = GenerationPlan(
    {("add", 4): 30, ("sub", 4): 12, ("mul", 4): 20},
    seed=7,
    sample_size=1 << 8,
)

SERIAL_GENERATORS = {
    "add": generate_adders,
    "sub": generate_subtractors,
    "mul": generate_multipliers,
}


def payload_text(library: ComponentLibrary) -> str:
    return json.dumps(library_payload(library), sort_keys=True)


def serial_seed_path(plan: GenerationPlan) -> ComponentLibrary:
    """The reference construction: per-signature serial generation."""
    library = ComponentLibrary()
    items = sorted(plan.counts.items())
    children = spawn_rngs(plan.seed, len(items))
    for ((kind, width), count), child in zip(items, children):
        library.extend(
            SERIAL_GENERATORS[kind](
                width, count, rng=child, sample_size=plan.sample_size
            )
        )
    return library


@pytest.fixture(scope="module")
def reference():
    return payload_text(serial_seed_path(PLAN))


class TestWorkerEquivalence:
    @pytest.mark.parametrize("workers", [1, 2, 4])
    def test_identical_for_any_worker_count(self, workers, reference,
                                            monkeypatch):
        monkeypatch.setenv("REPRO_WORKERS", str(workers))
        result = build_library(PLAN, chunk_size=8)
        assert payload_text(result.library) == reference

    def test_identical_for_any_chunk_size(self, reference, monkeypatch):
        monkeypatch.setenv("REPRO_WORKERS", "2")
        for chunk_size in (1, 5, 64):
            result = build_library(PLAN, chunk_size=chunk_size)
            assert payload_text(result.library) == reference

    def test_generate_library_is_the_pipeline(self, reference):
        assert payload_text(generate_library(PLAN)) == reference

    def test_stats_without_store(self, monkeypatch):
        monkeypatch.setenv("REPRO_WORKERS", "1")
        result = build_library(PLAN)
        assert result.stats.components == PLAN.total()
        assert result.stats.characterized == PLAN.total()
        assert result.stats.synthesized == PLAN.total()
        assert result.stats.store_hits == 0
        assert result.run_id is None
        assert result.stats.per_signature == {
            "add4": 30, "mul4": 20, "sub4": 12,
        }


class TestStoreMemoisation:
    def test_warm_rebuild_is_free_and_identical(self, tmp_path,
                                                reference, monkeypatch):
        store = ArtifactStore(tmp_path / "store")
        monkeypatch.setenv("REPRO_WORKERS", "2")
        cold = build_library(PLAN, store=store)
        assert cold.stats.characterized == PLAN.total()

        chars_before = characterization_count()
        synth_before = synthesis_run_count()
        # In-process, so the counters above see any work it does.
        monkeypatch.setenv("REPRO_WORKERS", "1")
        warm = build_library(PLAN, store=store)
        assert warm.stats.store_hits == PLAN.total()
        assert warm.stats.characterized == 0
        assert warm.stats.synthesized == 0
        # process-level proof, not just accounting: nothing ran
        assert characterization_count() == chars_before
        assert synthesis_run_count() == synth_before
        assert payload_text(warm.library) == reference
        assert payload_text(cold.library) == reference

    def test_rescaled_build_pays_only_for_new_components(self,
                                                         tmp_path):
        store = ArtifactStore(tmp_path / "store")
        small = GenerationPlan(
            {("add", 4): 10}, seed=7, sample_size=1 << 8
        )
        grown = GenerationPlan(
            {("add", 4): 20}, seed=7, sample_size=1 << 8
        )
        build_library(small, store=store)
        result = build_library(grown, store=store)
        # the first 10 circuits are the same systematic prefix
        assert result.stats.store_hits == 10
        assert result.stats.characterized == 10

    def test_crossplan_sharing(self, tmp_path):
        """Another plan containing the same signature reuses entries."""
        store = ArtifactStore(tmp_path / "store")
        build_library(
            GenerationPlan({("add", 4): 10}, seed=0,
                           sample_size=1 << 8),
            store=store,
        )
        result = build_library(
            GenerationPlan(
                {("add", 4): 10, ("sub", 4): 5}, seed=3,
                sample_size=1 << 8,
            ),
            store=store,
        )
        # systematic add4 prefix is plan- and seed-independent
        assert result.stats.store_hits == 10
        assert result.stats.characterized == 5

    def test_ledger_manifest_records_build(self, tmp_path):
        store = ArtifactStore(tmp_path / "store")
        result = build_library(PLAN, store=store)
        manifest = RunLedger(store.root).get(result.run_id)
        assert manifest["kind"] == "library-build"
        assert manifest["extra"]["build"]["characterized"] == (
            PLAN.total()
        )
        warm = build_library(PLAN, store=store)
        warm_manifest = RunLedger(store.root).get(warm.run_id)
        assert warm_manifest["extra"]["build"]["synthesized"] == 0
        assert warm_manifest["stages"][0]["cache"] == "hit"

    def test_record_run_off_writes_no_manifest(self, tmp_path):
        store = ArtifactStore(tmp_path / "store")
        result = build_library(PLAN, store=store, record_run=False)
        assert result.run_id is None
        assert RunLedger(store.root).runs() == []

    def test_gc_keeps_component_pool(self, tmp_path):
        store = ArtifactStore(tmp_path / "store")
        build_library(PLAN, store=store)
        store.gc(RunLedger(store.root).referenced_artifacts())
        warm = build_library(PLAN, store=store)
        assert warm.stats.characterized == 0

    def test_corrupt_component_entry_recomputes(self, tmp_path):
        store = ArtifactStore(tmp_path / "store")
        plan = GenerationPlan(
            {("add", 4): 4}, seed=0, sample_size=1 << 8
        )
        build_library(plan, store=store)
        ref = store.entries(COMPONENT_KIND)[0]
        ref.path.write_text("{ not json")
        result = build_library(plan, store=store)
        assert result.stats.characterized == 1
        assert result.stats.store_hits == 3


class TestComponentKey:
    def test_narrow_key_ignores_sample_size(self):
        circuit = enumerate_adders(4, 3)[1]
        assert component_key(circuit, 1 << 8) == (
            component_key(circuit, 1 << 15)
        )

    def test_wide_key_depends_on_sample_size(self):
        circuit = enumerate_adders(16, 3)[1]
        assert component_key(circuit, 1 << 8) != (
            component_key(circuit, 1 << 15)
        )

    def test_distinct_circuits_distinct_keys(self):
        circuits = enumerate_adders(4, 20)
        keys = {component_key(c, 1 << 8) for c in circuits}
        assert len(keys) == len(circuits)


class TestModelVersion:
    def test_version_bump_invalidates_exactly_that_family(
        self, tmp_path, monkeypatch
    ):
        from repro.circuits.adders import LowerOrAdder
        from repro.experiments.setup import default_library_key

        store = ArtifactStore(tmp_path / "store")
        plan = GenerationPlan(
            {("add", 4): 12}, seed=0, sample_size=1 << 8
        )
        build_library(plan, store=store)
        circuits = [circuit for _, circuit in enumerate_plan(plan)]
        keys = [component_key(c, plan.sample_size) for c in circuits]
        library_key = default_library_key(plan, 0.01)

        monkeypatch.setattr(LowerOrAdder, "model_version", 2)
        bumped = [type(c) is LowerOrAdder for c in circuits]
        assert 0 < sum(bumped) < len(circuits)
        for circuit, key, is_bumped in zip(circuits, keys, bumped):
            changed = component_key(circuit, plan.sample_size) != key
            assert changed == is_bumped
        assert default_library_key(plan, 0.01) != library_key

        warm = build_library(plan, store=store)
        assert warm.stats.characterized == sum(bumped)
        assert warm.stats.store_hits == len(circuits) - sum(bumped)


class TestStoreRoundTrip:
    def test_component_payload_roundtrips_through_store(self,
                                                        tmp_path):
        store = ArtifactStore(tmp_path / "store")
        plan = GenerationPlan(
            {("add", 16): 6}, seed=0, sample_size=1 << 8
        )
        cold = build_library(plan, store=store)
        warm = build_library(plan, store=store)
        for a, b in zip(cold.library, warm.library):
            assert a.name == b.name
            assert a.errors == b.errors  # exact float round-trip
            assert not a.errors.exhaustive  # 16-bit => sampled
            assert a.hardware == b.hardware

    def test_payloads_rebuild_records(self):
        result = build_library(
            GenerationPlan({("mul", 4): 6}, seed=0,
                           sample_size=1 << 8)
        )
        for record in result.library:
            clone = ComponentRecord.from_dict(record.to_dict())
            assert clone.errors == record.errors


class TestSignatureScope:
    """``signatures=`` builds the full plan's records of those
    signatures: same circuits, same RNG streams, same order."""

    @pytest.fixture(scope="class", params=[0, 1], ids=["seed0", "seed1"])
    def full(self, request):
        scaled = scaled_plan(0.0005, seed=request.param, floor=8)
        plan = GenerationPlan(
            scaled.counts, seed=scaled.seed, sample_size=1 << 8
        )
        return plan, build_library(plan).library

    @pytest.mark.parametrize("accelerator", sorted(ACCELERATORS))
    def test_equals_full_plan_filtered(self, full, accelerator):
        plan, library = full
        signatures = ACCELERATORS[accelerator]().op_inventory()
        scoped = build_library(plan, signatures=signatures)
        expected = [
            record.to_dict() for record in library
            if record.signature in signatures
        ]
        assert [r.to_dict() for r in scoped.library] == expected
        assert scoped.stats.components == len(expected)
        assert set(scoped.stats.per_signature) == {
            f"{kind}{width}" for kind, width in signatures
        }

    def test_manifest_records_the_restriction(self, tmp_path):
        store = ArtifactStore(tmp_path / "store")
        full = build_library(PLAN, store=store)
        scoped = build_library(PLAN, store=store, signatures=[("sub", 4)])
        assert scoped.stats.characterized == 0
        assert scoped.stats.store_hits == PLAN.counts[("sub", 4)]
        ledger = RunLedger(store)
        whole = ledger.get(full.run_id)
        manifest = ledger.get(scoped.run_id)
        assert "signatures" not in whole["params"]
        assert manifest["params"]["signatures"] == [["sub", 4]]
        assert manifest["params"]["counts"] == [["sub", 4, 12]]
        assert manifest["label"] == "library:sub4"
        assert manifest["config_hash"] != whole["config_hash"]


class TestValidation:
    def test_bad_chunk_size(self):
        with pytest.raises(ValueError, match="chunk_size"):
            build_library(PLAN, chunk_size=0)

    def test_bad_workers(self, monkeypatch):
        monkeypatch.setenv("REPRO_WORKERS", "many")
        with pytest.raises(ValueError, match="REPRO_WORKERS"):
            build_library(PLAN)
