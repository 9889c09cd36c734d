"""Stores written before the search work queue and the portfolio runner
were retired stay usable.

Older stores may hold the artifacts of store-backed distributed search:
``work-queue``/``work-item``/``work-lease``/``work-result`` JSON
documents and a zlib-compressed pickle of kind ``search-context``
(``.pklz`` blobs).  They may also hold portfolio-search runs: a
``search`` manifest whose params carry ``strategies`` and whose
per-round checkpoint (a ``search`` artifact) is referenced only from the
manifest's ``extra``.  No stage references any of these artifacts and
none is a shared kind, so ``repro runs gc`` sweeps them, while the runs
recorded next to them keep decoding and listing exactly as before.
Resuming a portfolio run fails with one error line instead of silently
running a different search.  A plain ``search`` manifest from before
search ran through the pipeline resumes through it.
"""

import hashlib
import json
import pickle
import sqlite3
import time
import zlib
from contextlib import closing

import numpy as np

from repro.cli import main
from repro.store import ArtifactStore, RunLedger, content_hash

QUEUE_KINDS = ("work-queue", "work-item", "work-lease", "work-result")

PORTFOLIO_RUN = "20260101T000001Z-00000001"


def _put_legacy_blob(root, kind, key, data, ext):
    """Index a blob whose kind no codec knows any more, the way the
    retired writer laid it out: file plus ``artifacts`` row."""
    path = root / "objects" / kind / key[:2] / f"{key}.{ext}"
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_bytes(data)
    with closing(sqlite3.connect(root / "index.sqlite3")) as conn, conn:
        conn.execute(
            "INSERT INTO artifacts "
            "(kind, key, filename, sha256, size, created_at, meta) "
            "VALUES (?, ?, ?, ?, ?, ?, '{}')",
            (kind, key, str(path.relative_to(root)),
             hashlib.sha256(data).hexdigest(), len(data), time.time()),
        )


def _fill(root):
    """A store with one recorded run plus leftover queue artifacts."""
    store = ArtifactStore(root)
    run_artifacts = {
        "dse": {"configs": [[0, 1], [2, 3]], "points": [[0.9, 10.0]]},
        "training-set": {"qor": [0.5, 0.7], "area": [3.0, 4.0]},
        "models": {"weights": np.arange(6.0).reshape(2, 3)},
    }
    refs = []
    for kind, obj in run_artifacts.items():
        ref = store.put(kind, content_hash({"kind": kind}), obj)
        refs.append({"kind": ref.kind, "key": ref.key})
    RunLedger(store).record(
        "20260101T000000Z-00000000", kind="search", label="search:sobel",
        params={"command": "search"}, config_hash=content_hash("cfg"),
        stages=[{"name": "round_0", "seconds": 0.5, "cache": "miss",
                 "artifacts": refs}],
        seed=0,
    )
    queue_id = "search:sobel@20260101T000000Z-00000000"
    for kind in QUEUE_KINDS:
        store.put(kind, content_hash({kind: queue_id}),
                  {"queue": queue_id, "status": "open"})
    context = zlib.compress(pickle.dumps(("space", "models")), 6)
    _put_legacy_blob(
        root, "search-context", content_hash({"search-context": queue_id}),
        context, ext="pklz",
    )
    checkpoint = store.put(
        "search", content_hash({"run": PORTFOLIO_RUN}),
        {"version": 1, "round": 2, "rounds": 2, "spent": 150,
         "max_evaluations": 150, "strategies": ["hill", "random"],
         "front": {"configs": [[0, 1]], "points": [[0.9, 10.0]]}},
    )
    RunLedger(store).record(
        PORTFOLIO_RUN, kind="search", label="search:sobel",
        params={"command": "search", "workload": "sobel",
                "scale": 0.0005, "images": 1, "train": 12, "test": 6,
                "budget": 150, "strategies": ["hill", "random"],
                "rounds": 2, "seed": 0, "engines": ["K-Neighbors"]},
        config_hash=content_hash("portfolio"),
        stages=[{"name": "round_1", "seconds": 0.1, "cache": "miss",
                 "evaluations": 150}],
        seed=0,
        extra={"checkpoint": {"kind": checkpoint.kind,
                              "key": checkpoint.key}},
    )
    return store, run_artifacts


def _cli_json(capsys, *argv):
    capsys.readouterr()
    assert main(list(argv)) == 0
    return json.loads(capsys.readouterr().out)


def test_gc_sweeps_queue_leftovers(tmp_path, capsys):
    root = tmp_path / "store"
    store, run_artifacts = _fill(root)
    listed = _cli_json(capsys, "runs", "list", "--store-dir", str(root),
                       "--json")
    assert [m["run_id"] for m in listed["runs"]] == [
        "20260101T000000Z-00000000", PORTFOLIO_RUN,
    ]

    doc = _cli_json(capsys, "runs", "gc", "--store-dir", str(root),
                    "--json")
    gone = {*QUEUE_KINDS, "search-context", "search"}
    assert set(doc["gc"]["by_kind"]) == gone
    assert doc["gc"]["removed"] == len(gone)
    assert doc["gc"]["kept"] == len(run_artifacts)
    assert not any(ref.kind in gone for ref in store.entries())
    assert not list((root / "objects").rglob("*.pklz"))

    for kind, obj in run_artifacts.items():
        got = store.get(kind, content_hash({"kind": kind}))
        if kind == "models":
            np.testing.assert_array_equal(got["weights"], obj["weights"])
        else:
            assert got == obj
    assert _cli_json(capsys, "runs", "list", "--store-dir", str(root),
                     "--json") == listed


def test_portfolio_run_refuses_to_resume(tmp_path, capsys):
    root = tmp_path / "store"
    store, _ = _fill(root)
    before = {(ref.kind, ref.key) for ref in store.entries()}
    capsys.readouterr()
    assert main(["runs", "resume", PORTFOLIO_RUN,
                 "--store-dir", str(root)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.strip().splitlines()
    assert len(lines) == 1
    assert lines[0].startswith("error:")
    assert "portfolio" in lines[0] and PORTFOLIO_RUN in lines[0]
    # Nothing ran: no new manifest, no new artifact.
    assert [m["run_id"] for m in RunLedger(store).runs()] == [
        "20260101T000000Z-00000000", PORTFOLIO_RUN,
    ]
    assert {(ref.kind, ref.key) for ref in store.entries()} == before


def test_old_search_manifest_shows_and_resumes(tmp_path, monkeypatch,
                                               capsys):
    """A ``search`` manifest written before search ran through the
    pipeline (stages ``fit``/``dse``, no artifacts, ``scale: null``)
    still renders, and resumes through the pipeline at the library
    scale the environment gives, spending exactly its budget."""
    root = tmp_path / "store"
    monkeypatch.setenv("REPRO_SCALE", "0.0005")
    params = {"command": "search", "workload": "sobel", "scale": None,
              "images": 1, "train": 12, "test": 6, "budget": 120,
              "seed": 0, "engines": ["K-Neighbors"]}
    run_id = RunLedger.new_run_id()
    RunLedger(ArtifactStore(root)).record(
        run_id, kind="search", label="search:sobel", params=params,
        config_hash=content_hash(params),
        stages=[{"name": "fit", "seconds": 1.25, "cache": "miss"},
                {"name": "dse", "seconds": 0.5, "cache": "miss",
                 "evaluations": 120}],
        seed=0,
        extra={"front_size": 3, "evaluations": 120,
               "max_evaluations": 120},
    )
    capsys.readouterr()
    assert main(["runs", "show", run_id, "--store-dir", str(root)]) == 0
    out = capsys.readouterr().out
    assert "fit" in out and "dse" in out and "search:sobel" in out

    resumed = _cli_json(capsys, "runs", "resume", run_id,
                        "--store-dir", str(root), "--json")["search"]
    assert resumed["resumed_from"] == run_id
    assert resumed["evaluations"] == resumed["max_evaluations"] == 120
    run = _cli_json(capsys, "runs", "show", resumed["run_id"],
                    "--store-dir", str(root), "--json")["run"]
    assert run["params"] == {**params, "scale": 0.0005}
    assert [s["name"] for s in run["stages"]] == [
        "preprocessing", "training_set", "model_construction",
        "pseudo_pareto",
    ]


def test_dense_profiles_blob_still_hits(tmp_path, monkeypatch, sobel,
                                        tiny_library, small_images):
    """A ``profiles`` blob pickled densely (before profiles pickled
    their PMF sparsely) decodes to equal profiles, and the
    ``preprocessing`` stage it belongs to stays a hit."""
    from repro.accelerators.profiler import OperandProfile
    from repro.core.pipeline import AutoAx, AutoAxConfig

    store = ArtifactStore(tmp_path / "store")
    config = AutoAxConfig(n_train=12, n_test=6, engines=("K-Neighbors",),
                          max_evaluations=150, seed=0)

    def run():
        return AutoAx(sobel, tiny_library, small_images[:1],
                      config=config, store=store).run()

    monkeypatch.delattr(OperandProfile, "__getstate__")
    cold = run()
    monkeypatch.undo()
    [ref] = store.entries("profiles")
    assert b"pmf_sparse" not in ref.path.read_bytes()

    warm = run()
    assert set(warm.stage_cache.values()) == {"hit"}
    assert list(warm.profiles) == list(cold.profiles)
    for name, profile in cold.profiles.items():
        clone = warm.profiles[name]
        assert clone.total_count == profile.total_count
        for field in ("pmf", "sample_a", "sample_b"):
            expected, array = getattr(profile, field), getattr(clone, field)
            assert array.dtype == expected.dtype
            assert array.tobytes() == expected.tobytes()
    assert warm.final_points.tolist() == cold.final_points.tolist()


def test_run_store_from_before_input_keys_replays_after_one_miss(
    tmp_path, capsys
):
    """A ``run`` store filled before runs were named by input keys,
    when the stage keys fingerprinted the library's records and the
    images' bytes and no ``result`` was recorded.  Its stages miss once
    (the key move), the library is read from its stored blob (no
    component characterised), the front is the same, and the next run
    is served through the result lookup."""
    from repro.accelerators.sobel import SobelEdgeDetector
    from repro.core.pipeline import AutoAx, AutoAxConfig
    from repro.experiments.setup import scaled_library
    from repro.imaging.datasets import benchmark_images
    from repro.telemetry import reset_metrics

    root = tmp_path / "store"
    store = ArtifactStore(root)
    params = {"command": "run", "accelerator": "sobel", "library": None,
              "scale": 0.0005, "images": 1, "train": 6, "evals": 60,
              "seed": 0, "out": None}
    argv = ["run", "--accelerator", "sobel", "--scale", "0.0005",
            "--images", "1", "--train", "6", "--evals", "60", "--seed",
            "0", "--store", str(root), "--json"]
    # What ``repro run --store`` recorded before: the same library and
    # images, through the direct API that still keys by content.
    accelerator = SobelEdgeDetector()
    old = AutoAx(
        accelerator,
        scaled_library(0.0005, seed=0, store=store,
                       signatures=accelerator.op_inventory()),
        benchmark_images(1, store=store),
        config=AutoAxConfig(n_train=6, n_test=3, max_evaluations=60),
        store=store, run_kind="run", run_label="sobel", run_params=params,
    ).run()
    assert store.entries("result") == []

    reset_metrics()
    cold = _cli_json(capsys, *argv)
    assert set(cold["stage_cache"].values()) == {"miss"}
    order = old.final_points[:, 1].argsort()
    assert cold["front"] == [
        [float(s), float(a)] for s, a in old.final_points[order]
    ]
    manifest = RunLedger(store).get(cold["run_id"])
    counters = manifest["extra"]["metrics"]["counters"]
    assert counters.get("library.components_built", 0) == 0
    assert manifest["result"]["kind"] == "result"

    replay = _cli_json(capsys, *argv)
    assert replay["run_id"] == cold["run_id"]
    assert set(replay["stage_cache"].values()) == {"hit"}
    assert replay["front"] == cold["front"]
    assert RunLedger(store).get(cold["run_id"])["replays"] == 1
    assert len(RunLedger(store).runs()) == 2


def test_result_under_identity_key_re_executes_once(tmp_path, capsys):
    """A store whose ``result`` is keyed the way it was before results
    were keyed by command and package source: by the run's config hash,
    its stop stage and the manifest kind and label.  That result is
    never looked up: the command re-executes once through its recorded
    stages (no component characterised, the same front), records a
    result under the new key, and the next run is served from it."""
    from repro.telemetry import reset_metrics

    root = tmp_path / "store"
    store = ArtifactStore(root)
    argv = ["run", "--accelerator", "sobel", "--scale", "0.0005",
            "--images", "1", "--train", "6", "--evals", "60", "--seed",
            "0", "--store", str(root), "--json"]
    recorded = _cli_json(capsys, *argv)
    # Re-key the recorded result as the older code did, and point the
    # manifest at it.
    [ref] = store.entries("result")
    result = store.get("result", ref.key)
    ledger = RunLedger(store)
    manifest = ledger.get(recorded["run_id"])
    old_key = content_hash({"result": manifest["config_hash"],
                            "stop": "final_analysis", "kind": "run",
                            "label": "sobel"})
    store.delete("result", ref.key)
    store.put("result", old_key, result)
    manifest["result"] = {"kind": "result", "key": old_key}
    (root / "runs" / f"{recorded['run_id']}.json").write_text(
        json.dumps(manifest)
    )
    assert [r.key for r in store.entries("result")] == [old_key]

    reset_metrics()
    cold = _cli_json(capsys, *argv)
    assert cold["run_id"] != recorded["run_id"]
    assert set(cold["stage_cache"].values()) == {"hit"}
    assert cold["front"] == recorded["front"]
    counters = ledger.get(cold["run_id"])["extra"]["metrics"]["counters"]
    assert counters.get("library.components_built", 0) == 0
    assert len(store.entries("result")) == 2

    replay = _cli_json(capsys, *argv)
    assert replay["run_id"] == cold["run_id"]
    assert set(replay["stage_cache"].values()) == {"hit"}
    assert replay["front"] == recorded["front"]
    assert ledger.get(cold["run_id"])["replays"] == 1
    assert ledger.get(recorded["run_id"]).get("replays", 0) == 0
