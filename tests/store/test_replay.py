"""A warm replay is one store lookup.

A pipeline command whose identical run is already recorded is served
from that run's ``result`` artifact: the recorded output document, all
stages reported as hits, nothing built or decoded, and no new manifest
(the replay is counted on the manifest it was served from).  Any failed
check falls back to the stage path, which gives the same front and
records the result again.  The result is keyed by the command's params
(without ``--out``), a digest of the package source and a ``--library``
file's bytes, so an edit to either re-executes once through the stored
stages.  ``--no-store``, ``run --library FILE`` and the direct
``AutoAx.run`` API keep their behaviour.
"""

import json

import numpy as np
import pytest

from repro.cli import main
from repro.store import ArtifactStore, RunLedger, content_hash

RUN = [
    "run", "--accelerator", "sobel", "--scale", "0.0005", "--images", "1",
    "--train", "6", "--evals", "60", "--seed", "0",
]


def _json(capsys, argv):
    capsys.readouterr()
    assert main(argv + ["--json"]) == 0
    return json.loads(capsys.readouterr().out)


@pytest.fixture()
def store(tmp_path):
    return ArtifactStore(tmp_path / "store")


@pytest.fixture()
def cold(store, capsys):
    doc = _json(capsys, RUN + ["--store", str(store.root)])
    assert set(doc["stage_cache"].values()) == {"miss"}
    return doc


def _replay(store, capsys):
    return _json(capsys, RUN + ["--store", str(store.root)])


def _result(store):
    [ref] = store.entries("result")
    return ref


def _assert_served(doc, cold, label="accelerator"):
    assert doc["run_id"] == cold["run_id"]
    assert doc["stage_cache"] == {name: "hit" for name in cold["stage_cache"]}
    assert doc["timings"] == {name: 0.0 for name in cold["timings"]}
    assert doc["engine_stats"] == {
        "engine_built": False, "model_fits": 0, "synth_hits": 0,
        "synth_store_hits": 0, "synth_misses": 0,
    }
    for key in ("front", "models", "space", label):
        assert doc[key] == cold[key], key


class TestServed:
    def test_replay_is_the_recorded_document(self, store, cold, capsys):
        from repro.store.replay import source_digest

        doc = _replay(store, capsys)
        _assert_served(doc, cold)
        [manifest] = RunLedger(store).runs()
        assert manifest["run_id"] == cold["run_id"]
        assert manifest["replays"] == 1
        assert manifest["last_replayed_at"]
        assert manifest["result"] == {
            "kind": "result", "key": _result(store).key,
            "source": source_digest(),
        }

    def test_result_records_the_stage_artifacts(self, store, cold):
        recorded = store.get("result", _result(store).key)
        manifest = RunLedger(store).get(cold["run_id"])
        assert recorded["run_id"] == cold["run_id"]
        assert recorded["artifacts"] == [
            artifact
            for stage in manifest["stages"]
            for artifact in stage["artifacts"]
        ]
        assert recorded["doc"]["front"] == cold["front"]

    def test_human_replay_and_csv(self, store, cold, tmp_path,
                                  monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        cold_csv, replay_csv = tmp_path / "cold.csv", tmp_path / "re.csv"
        capsys.readouterr()
        assert main(RUN + ["--no-store", "--out", str(cold_csv)]) == 0
        assert main(RUN + ["--store", str(store.root),
                           "--out", str(replay_csv)]) == 0
        out = capsys.readouterr().out
        assert f"run {cold['run_id']}: 5/5 stages from cache" in out
        assert replay_csv.read_bytes() == cold_csv.read_bytes()
        lines = cold_csv.read_text().splitlines()
        assert lines[0] == "ssim,area"
        assert [[float(v) for v in line.split(",")]
                for line in lines[1:]] == cold["front"]

    def test_other_command_does_not_share_the_result(self, store, cold,
                                                     capsys):
        doc = _json(capsys, RUN[:-1] + ["1", "--store", str(store.root)])
        assert doc["run_id"] != cold["run_id"]
        assert len(store.entries("result")) == 2


class TestFallback:
    """Each failed check re-runs the stages, gives the same front and
    records the result again."""

    def _check_fallback(self, store, cold, capsys):
        doc = _replay(store, capsys)
        assert doc["run_id"] != cold["run_id"]
        assert doc["front"] == cold["front"]
        assert doc["models"] == cold["models"]
        recorded = store.get("result", _result(store).key, verified=True)
        assert recorded["run_id"] == doc["run_id"]
        # and the rewritten result serves the next replay
        again = _replay(store, capsys)
        assert again["run_id"] == doc["run_id"]
        assert set(again["stage_cache"].values()) == {"hit"}
        return doc

    def test_referenced_blob_deleted(self, store, cold, capsys):
        manifest = RunLedger(store).get(cold["run_id"])
        [artifact] = manifest["stages"][3]["artifacts"]  # pseudo_pareto
        [ref] = [r for r in store.entries(artifact["kind"])
                 if r.key == artifact["key"]]
        ref.path.unlink()
        doc = self._check_fallback(store, cold, capsys)
        assert doc["stage_cache"]["pseudo_pareto"] == "miss"
        assert doc["stage_cache"]["model_construction"] == "hit"

    def test_result_blob_truncated(self, store, cold, capsys):
        ref = _result(store)
        data = ref.path.read_bytes()
        ref.path.write_bytes(data[: len(data) // 2])
        doc = self._check_fallback(store, cold, capsys)
        assert set(doc["stage_cache"].values()) == {"hit"}

    def test_result_blob_altered_but_valid_json(self, store, cold,
                                                capsys):
        """The checksum, not the decoder, decides."""
        ref = _result(store)
        recorded = json.loads(ref.path.read_text())
        recorded["doc"]["front"] = [[0.5, 1.0]]
        ref.path.write_text(json.dumps(recorded, sort_keys=True))
        self._check_fallback(store, cold, capsys)

    def test_served_manifest_removed(self, store, cold, capsys):
        (store.root / "runs" / f"{cold['run_id']}.json").unlink()
        doc = self._check_fallback(store, cold, capsys)
        assert set(doc["stage_cache"].values()) == {"hit"}
        assert [m["run_id"] for m in RunLedger(store).runs()] == [
            doc["run_id"]
        ]


class TestLedgerGrowth:
    def test_replays_count_on_one_manifest(self, store, cold, capsys):
        for _ in range(30):
            _replay(store, capsys)
        listed = _json(capsys, ["runs", "list", "--store-dir",
                                str(store.root)])["runs"]
        assert [m["run_id"] for m in listed] == [cold["run_id"]]
        assert listed[0]["replays"] == 30

        assert main(["runs", "list", "--store-dir", str(store.root)]) == 0
        out = capsys.readouterr().out
        assert "replays" in out.splitlines()[0]
        assert " 30 " in out
        assert main(["runs", "show", cold["run_id"],
                     "--store-dir", str(store.root)]) == 0
        assert "replays: 30 (last " in capsys.readouterr().out

        # gc keeps the result (the manifest references it) and every
        # stage artifact: the next replay is still served
        gc = _json(capsys, ["runs", "gc", "--store-dir", str(store.root)])
        assert "result" not in gc["gc"]["by_kind"]
        doc = _replay(store, capsys)
        _assert_served(doc, cold)
        [manifest] = RunLedger(store).runs()
        assert manifest["replays"] == 31

    def test_resume_re_executes(self, store, cold, capsys):
        doc = _json(capsys, ["runs", "resume", cold["run_id"],
                             "--store-dir", str(store.root)])
        assert doc["resumed_from"] == cold["run_id"]
        assert doc["run_id"] != cold["run_id"]
        assert set(doc["stage_cache"].values()) == {"hit"}
        assert len(RunLedger(store).runs()) == 2
        # the resume recorded the result: a replay is served from it
        replay = _replay(store, capsys)
        assert replay["run_id"] == doc["run_id"]
        assert "resumed_from" not in replay


class TestReplayKey:
    """The result is keyed by the command and the package source;
    ``--out`` is no part of it.  (An edited ``--library`` file:
    ``TestUnchanged.test_library_file_keeps_its_content_fingerprint``.)"""

    def test_source_change_re_executes_through_the_stages(
        self, store, cold, monkeypatch, capsys
    ):
        from repro.store import replay

        monkeypatch.setattr(replay, "source_digest", lambda: "0" * 64)
        doc = _replay(store, capsys)
        assert doc["run_id"] != cold["run_id"]
        assert doc["stage_cache"] == {
            name: "hit" for name in cold["stage_cache"]
        }
        assert doc["front"] == cold["front"]
        assert len(RunLedger(store).runs()) == 2
        assert len(store.entries("result")) == 2
        # the edited source's result serves its next replay
        again = _replay(store, capsys)
        assert again["run_id"] == doc["run_id"]
        assert len(RunLedger(store).runs()) == 2

    def test_gc_drops_the_result_of_other_source(
        self, store, cold, monkeypatch, capsys
    ):
        """Each result's manifest reference names the source digest it
        was keyed with; ``runs gc`` keeps only the current code's."""
        from repro.store import replay

        old = _result(store).key
        monkeypatch.setattr(replay, "source_digest", lambda: "0" * 64)
        doc = _replay(store, capsys)
        assert doc["run_id"] != cold["run_id"]
        [new] = [r.key for r in store.entries("result") if r.key != old]
        gc = _json(capsys, ["runs", "gc", "--store-dir", str(store.root)])
        assert gc["gc"]["by_kind"]["result"]["count"] == 1
        assert [r.key for r in store.entries("result")] == [new]
        # both manifests remain, and so do their stage artifacts
        assert len(RunLedger(store).runs()) == 2
        again = _replay(store, capsys)
        assert again["run_id"] == doc["run_id"]
        assert set(again["stage_cache"].values()) == {"hit"}

    def test_out_is_not_in_the_key(self, tmp_path):
        """Where the CSV goes changes no result (the CLI side is
        ``TestServed.test_human_replay_and_csv``: a cold run without
        ``--out`` serves a replay with one)."""
        from repro.store.replay import replay_key

        params = {"command": "run", "accelerator": "sobel", "scale": 0.5,
                  "out": None}
        assert replay_key(params) == replay_key(
            {**params, "out": str(tmp_path / "front.csv")}
        )
        assert replay_key(params) != replay_key({**params, "scale": 0.6})


class TestUnchanged:
    def test_no_store(self, store, cold, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        doc = _json(capsys, RUN + ["--no-store"])
        assert set(doc["stage_cache"].values()) == {"off"}
        assert doc["run_id"] is None
        assert doc["front"] == cold["front"]
        assert not (tmp_path / ".repro-store").exists()

    def test_library_file_keeps_its_content_fingerprint(
        self, store, tmp_path, capsys
    ):
        from repro.accelerators.sobel import SobelEdgeDetector
        from repro.core.pipeline import AutoAxConfig
        from repro.imaging.datasets import benchmark_images
        from repro.library.io import load_library, save_library
        from repro.store import (
            accelerator_fingerprint,
            images_fingerprint,
            library_fingerprint,
        )

        def config_hash(library):
            inputs = {
                "accelerator": content_hash(
                    accelerator_fingerprint(SobelEdgeDetector())
                ),
                "library": content_hash(library_fingerprint(library)),
                "images": content_hash(
                    images_fingerprint(benchmark_images(1))
                ),
                "scenarios": None,
            }
            config = AutoAxConfig(n_train=6, n_test=3, max_evaluations=60)
            return content_hash(
                {"inputs": inputs, "config": config.cache_payload()}
            )

        path = tmp_path / "lib.json"
        generated = _json(capsys, RUN + ["--store", str(store.root)])
        library = store.get("library", store.entries("library")[0].key)
        assert RunLedger(store).get(generated["run_id"])["config_hash"] \
            == config_hash(library)
        save_library(library, str(path))
        argv = RUN + ["--library", str(path), "--store", str(store.root)]
        cold = _json(capsys, argv)
        assert cold["front"] == generated["front"]
        manifest = RunLedger(store).get(cold["run_id"])
        assert manifest["config_hash"] == config_hash(
            load_library(str(path))
        )
        # The file holds the generated library's records: every stage
        # hits.
        assert set(cold["stage_cache"].values()) == {"hit"}
        replay = _json(capsys, argv)
        assert replay["run_id"] == cold["run_id"]
        assert set(replay["stage_cache"].values()) == {"hit"}
        # Other bytes, same components: the result misses, every stage
        # hits.
        with path.open("a") as handle:
            handle.write("\n")
        edited = _json(capsys, argv)
        assert edited["run_id"] != cold["run_id"]
        assert set(edited["stage_cache"].values()) == {"hit"}
        assert edited["front"] == cold["front"]

    def test_cli_and_direct_api_share_stage_keys(self, store, cold):
        """The CLI names a run's inputs by content, as the direct API
        does: ``AutoAx`` on the library, images and config of a
        ``repro run --store`` hits all five stages on that store."""
        from repro.accelerators.sobel import SobelEdgeDetector
        from repro.core.pipeline import AutoAx, AutoAxConfig
        from repro.experiments.setup import scaled_library
        from repro.imaging.datasets import benchmark_images

        accelerator = SobelEdgeDetector()
        direct = AutoAx(
            accelerator,
            scaled_library(0.0005, seed=0,
                           signatures=accelerator.op_inventory()),
            benchmark_images(1),
            config=AutoAxConfig(n_train=6, n_test=3, max_evaluations=60),
            store=store,
        ).run()
        assert direct.stage_cache == {
            name: "hit" for name in cold["stage_cache"]
        }
        assert direct.engine_stats["engine_built"] is False
        manifest = RunLedger(store).get(direct.run_id)
        assert manifest["config_hash"] == RunLedger(store).get(
            cold["run_id"]
        )["config_hash"]
        order = direct.final_points[:, 1].argsort()
        assert [[float(s), float(a)] for s, a in
                direct.final_points[order]] == cold["front"]

    def test_direct_api_keys_by_content(self, sobel, tiny_library,
                                        small_images, store):
        """``AutoAx.run`` fingerprints its inputs, records no result
        and references none."""
        from repro.core.pipeline import AutoAx, AutoAxConfig
        from repro.store import (
            accelerator_fingerprint,
            images_fingerprint,
            library_fingerprint,
        )

        config = AutoAxConfig(n_train=8, n_test=4,
                              engines=("K-Neighbors",),
                              max_evaluations=100, seed=1)
        images = small_images[:1]
        result = AutoAx(sobel, tiny_library, images, config=config,
                        store=store).run()
        manifest = RunLedger(store).get(result.run_id)
        base = {
            "accelerator": content_hash(accelerator_fingerprint(sobel)),
            "library": content_hash(library_fingerprint(tiny_library)),
            "images": content_hash(images_fingerprint(images)),
            "scenarios": None,
        }
        assert manifest["config_hash"] == content_hash(
            {"inputs": base, "config": config.cache_payload()}
        )
        assert "result" not in manifest
        assert store.entries("result") == []
        assert result.artifacts == [
            a for stage in manifest["stages"] for a in stage["artifacts"]
        ]
        warm = AutoAx(sobel, tiny_library, images, config=config,
                      store=store).run()
        assert set(warm.stage_cache.values()) == {"hit"}
        assert warm.run_id != result.run_id
        np.testing.assert_array_equal(warm.final_points,
                                      result.final_points)


class TestOtherCommands:
    SIZES = ["--scale", "0.0005", "--images", "1", "--train", "12",
             "--seed", "0"]

    def test_workloads_run_replay(self, store, capsys):
        argv = ["workloads", "run", "box3_6b", *self.SIZES,
                "--evals", "150", "--store", str(store.root)]
        cold = _json(capsys, argv)
        doc = _json(capsys, argv)
        _assert_served(doc, cold, label="workload")
        assert doc["workload"] == "box3_6b"
        assert doc["runs_per_config"] == cold["runs_per_config"]
        capsys.readouterr()
        assert main(argv) == 0
        out = capsys.readouterr().out
        runs = cold["runs_per_config"]
        assert (f"workload box3_6b: {runs} runs/config (1 images x "
                f"{runs} scenarios)") in out

    def test_search_replay(self, store, capsys):
        argv = ["search", "--workload", "box3_6b", *self.SIZES,
                "--test", "6", "--budget", "100", "--store",
                str(store.root)]
        cold = _json(capsys, argv)["search"]
        doc = _json(capsys, argv)["search"]
        assert doc == cold
        [manifest] = RunLedger(store).runs()
        assert manifest["replays"] == 1
        assert len(manifest["stages"]) == 4
