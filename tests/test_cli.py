"""CLI surface tests (``python -m repro``)."""

import json

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["frobnicate"])

    def test_search_has_one_local_topology(self):
        with pytest.raises(SystemExit) as info:
            build_parser().parse_args(["search", "--distributed", "1"])
        assert info.value.code == 2
        with pytest.raises(SystemExit):
            build_parser().parse_args(["search-worker"])
        for flag in ("--strategies", "--rounds"):
            with pytest.raises(SystemExit):
                build_parser().parse_args(["search", flag, "2"])

    def test_search_rejects_http_store_before_any_work(self, tmp_path,
                                                       monkeypatch,
                                                       capsys):
        monkeypatch.chdir(tmp_path)
        assert main(
            ["search", "--store", "http://x", "--budget", "10"]
        ) == 2
        assert "sqlite:PATH" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_accelerator_choices(self):
        args = build_parser().parse_args(
            ["profile", "--accelerator", "fixed_gf"]
        )
        assert args.accelerator == "fixed_gf"
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["profile", "--accelerator", "bogus"]
            )

    def test_workloads_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["workloads"])

    def test_workers_parses_verbatim(self):
        args = build_parser().parse_args(["run", "--workers", "4"])
        assert args.workers == 4
        # an explicit 1 must survive to the engine: it forces serial
        # evaluation even when REPRO_WORKERS requests a pool
        args = build_parser().parse_args(["run", "--workers", "1"])
        assert args.workers == 1

    def test_explicit_workers_one_overrides_env(self, tmp_path,
                                                monkeypatch, capsys):
        from repro.core import runtime as rt

        monkeypatch.setenv("REPRO_WORKERS", "8")
        monkeypatch.setattr(rt, "usable_cores", lambda: 2)
        runtime = rt.get_runtime()
        before = runtime.stats["parallel_batches"]
        assert main(["generate-library", "--scale", "0.0005",
                     "--workers", "1", "--no-store",
                     "--out", str(tmp_path / "lib.json")]) == 0
        capsys.readouterr()
        # in-process, env ignored
        assert runtime.stats["parallel_batches"] == before

    def test_workers_reach_library_build(self, tmp_path, monkeypatch):
        import repro.library.pipeline as library_pipeline
        from repro.core import runtime as rt

        class Built(Exception):
            pass

        seen = {}

        def fake_build_library(plan, **kwargs):
            seen["workers"] = rt.default_workers()
            raise Built  # the library build is all this test needs

        monkeypatch.setenv("REPRO_WORKERS", "1")
        monkeypatch.setattr(
            library_pipeline, "build_library", fake_build_library
        )
        with pytest.raises(Built):
            main(["run", "--scale", "0.0005", "--workers", "2",
                  "--store", str(tmp_path / "store")])
        assert seen["workers"] == 2

    def test_workers_fan_out_library_build(self, tmp_path, monkeypatch,
                                           capsys):
        """The trace shows ``--workers 2`` reaching the worker pool."""
        from repro.core import runtime as rt

        trace_path = tmp_path / "trace.json"
        monkeypatch.setenv("REPRO_TRACE", str(trace_path))
        monkeypatch.setattr(rt, "usable_cores", lambda: 2)
        rt.reset_runtime()
        try:
            assert main(["generate-library", "--scale", "0.001",
                         "--workers", "2", "--no-store",
                         "--out", str(tmp_path / "lib.json")]) == 0
        finally:
            rt.reset_runtime()
        capsys.readouterr()

        events = json.loads(trace_path.read_text())["traceEvents"]
        by_id = {e["args"]["span_id"]: e for e in events}
        (batch,) = [e for e in events if e["cat"] == "runtime"]
        tasks = [e for e in events if e["cat"] == "worker"]
        # every chunk of the batch ran in a worker, none in-process
        assert len(tasks) == batch["args"]["n_tasks"] > 1
        assert batch["name"] == "runtime.library-build"
        assert by_id[batch["args"]["parent"]]["name"] == "library.build"
        for task in tasks:
            assert task["name"] == "task:library-build"
            assert task["args"]["parent"] == batch["args"]["span_id"]

    @pytest.mark.parametrize("bad", ["-2", "2.5", "many"])
    def test_workers_rejects_bad_values(self, bad, capsys):
        for command in (
            ["run", f"--workers={bad}"],
            ["workloads", "run", "sobel", f"--workers={bad}"],
        ):
            with pytest.raises(SystemExit):
                build_parser().parse_args(command)
            err = capsys.readouterr().err
            assert "--workers" in err
            assert "worker count" in err or ">= 0" in err


class TestCommands:
    def test_inventory(self, capsys):
        assert main(["inventory"]) == 0
        out = capsys.readouterr().out
        assert "Sobel ED" in out
        assert "Generic GF" in out

    def test_generate_library_and_run(self, tmp_path, capsys):
        lib_path = tmp_path / "lib.json"
        assert main(
            ["generate-library", "--scale", "0.001", "--out",
             str(lib_path)]
        ) == 0
        assert lib_path.exists()

        front_path = tmp_path / "front.csv"
        assert main(
            ["run", "--library", str(lib_path), "--images", "1",
             "--train", "12", "--evals", "150", "--out",
             str(front_path)]
        ) == 0
        out = capsys.readouterr().out
        assert "models:" in out
        lines = front_path.read_text().splitlines()
        assert lines[0] == "ssim,area"
        assert len(lines) >= 2

    def test_generate_library_workers_byte_identical(self, tmp_path):
        paths = {}
        for workers in ("1", "2", "4"):
            paths[workers] = tmp_path / f"lib_w{workers}.json"
            assert main(
                ["generate-library", "--scale", "0.0005", "--workers",
                 workers, "--out", str(paths[workers])]
            ) == 0
        reference = paths["1"].read_bytes()
        assert paths["2"].read_bytes() == reference
        assert paths["4"].read_bytes() == reference

    def test_generate_library_store_json_and_warm(self, tmp_path,
                                                  monkeypatch,
                                                  capsys):
        monkeypatch.setenv("REPRO_STORE_DIR", str(tmp_path / "store"))
        argv = ["generate-library", "--scale", "0.0005", "--json"]
        assert main(argv) == 0
        cold = json.loads(capsys.readouterr().out)
        doc = cold["generate_library"]
        assert cold["version"] == 1
        assert doc["stats"]["characterized"] == doc["components"]
        assert doc["run_id"]

        assert main(argv) == 0
        warm = json.loads(capsys.readouterr().out)["generate_library"]
        assert warm["stats"]["characterized"] == 0
        assert warm["stats"]["synthesized"] == 0
        assert warm["stats"]["store_hits"] == warm["components"]
        assert warm["summary"] == doc["summary"]

    def test_generate_library_requires_out_or_store(self, capsys):
        assert main(
            ["generate-library", "--scale", "0.0005", "--no-store"]
        ) == 2
        assert capsys.readouterr().err.splitlines() == [
            "error: generate-library needs --out and/or --store"
        ]

    def test_profile(self, capsys):
        assert main(["profile", "--images", "1"]) == 0
        out = capsys.readouterr().out
        assert "add1" in out and "sub" in out

    def test_workloads_list(self, capsys):
        assert main(["workloads", "list"]) == 0
        out = capsys.readouterr().out
        # seed case studies plus the N x N family are all listed
        for name in ("sobel", "generic_gf", "gaussian5", "log5"):
            assert name in out
        assert "5x5" in out

    @pytest.mark.parametrize("name", ["sharpen3", "log5"])
    def test_workloads_run_family_dse(self, name, tmp_path,
                                      monkeypatch, capsys):
        """End-to-end DSE on new N x N family workloads."""
        monkeypatch.setenv("REPRO_STORE_DIR", str(tmp_path / "cache"))
        front_path = tmp_path / "front.csv"
        assert main(
            ["workloads", "run", name, "--scale", "0.001",
             "--images", "1", "--train", "12", "--evals", "150",
             "--out", str(front_path)]
        ) == 0
        out = capsys.readouterr().out
        assert f"workload {name}" in out
        assert "models:" in out
        lines = front_path.read_text().splitlines()
        assert lines[0] == "ssim,area"
        assert len(lines) >= 2

    def test_workloads_run_unknown_name(self, capsys):
        assert main(["workloads", "run", "frobnicate"]) == 1
        assert "registered" in capsys.readouterr().err

    def test_runs_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["runs"])

    def test_store_flag_tristate(self):
        args = build_parser().parse_args(["run"])
        assert args.store is None
        assert build_parser().parse_args(
            ["run", "--store"]
        ).store is True
        assert build_parser().parse_args(
            ["run", "--no-store"]
        ).store is False

    def test_export_verilog_stdout(self, capsys):
        assert main(["export-verilog", "--accelerator", "sobel"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("module sobel")

    def test_export_verilog_file(self, tmp_path, capsys):
        path = tmp_path / "sobel.v"
        assert main(
            ["export-verilog", "--accelerator", "sobel", "--optimize",
             "--out", str(path)]
        ) == 0
        assert path.read_text().startswith("module sobel")


WORKLOAD_RUN = [
    "workloads", "run", "sobel", "--scale", "0.0005", "--images", "1",
    "--train", "12", "--evals", "150",
]


@pytest.fixture()
def store_env(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_STORE_DIR", str(tmp_path / "store"))
    return tmp_path / "store"


class TestStoreCommands:
    """The experiment-store surface: --store, --json, repro runs."""

    def _run_json(self, capsys, extra=()):
        assert main(WORKLOAD_RUN + ["--json", *extra]) == 0
        return json.loads(capsys.readouterr().out)

    def test_workloads_run_json_versioned(self, store_env, capsys):
        doc = self._run_json(capsys)
        assert doc["version"] == 1
        assert doc["workload"] == "sobel"
        assert set(doc["stage_cache"].values()) == {"miss"}
        assert doc["front"]  # [ssim, area] rows
        # stable key order: the document re-serialises canonically
        assert list(doc) == sorted(doc)

    def test_store_env_enables_warm_second_run(self, store_env,
                                               capsys):
        self._run_json(capsys)
        warm = self._run_json(capsys)
        assert set(warm["stage_cache"].values()) == {"hit"}
        assert warm["engine_stats"]["synth_misses"] == 0
        assert warm["engine_stats"]["model_fits"] == 0

    def test_json_lists_every_fitted_model_candidate(self, store_env,
                                                     capsys):
        cold = self._run_json(capsys)["models"]
        for target in ("qor", "hw"):
            block = cold[target]
            names = [c["name"] for c in block["candidates"]]
            assert names == ["Random Forest", "Naive model"]
            for c in block["candidates"]:
                assert set(c) == {"name", "fidelity_test", "fit_seconds"}
                assert c["fit_seconds"] >= 0
            selected = next(
                c for c in block["candidates"] if c["name"] == block["name"]
            )
            best = max(c["fidelity_test"] for c in block["candidates"])
            assert block["fidelity_test"] == selected["fidelity_test"] == best
        warm = self._run_json(capsys)["models"]
        assert warm == cold  # replayed from the stored reports

    def test_search_rejects_unknown_engine_before_any_work(
        self, store_env, capsys
    ):
        assert main([
            "search", "--workload", "sobel", "--scale", "0.0005",
            "--engines", "K-Neighbors,Random Forrest", "--json",
        ]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        [line] = captured.err.splitlines()
        assert line.startswith("error: unknown --engines ['Random Forrest']")
        assert "'Random Forest'" in line  # the known names
        assert not store_env.exists()

    def test_search_rejects_empty_engine_list_before_any_work(
        self, store_env, capsys
    ):
        assert main([
            "search", "--workload", "sobel", "--scale", "0.0005",
            "--engines", ",", "--json",
        ]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [
            "error: --engines names no learning engine"
        ]
        assert not store_env.exists()

    def test_search_rejects_bad_budget_before_any_work(
        self, store_env, capsys
    ):
        assert main([
            "search", "--workload", "sobel", "--scale", "0.0005",
            "--budget", "0", "--json",
        ]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == ["error: --budget must be >= 1"]
        assert not store_env.exists()

    def test_no_store_flag_disables(self, store_env, capsys):
        doc = self._run_json(capsys, extra=["--no-store"])
        assert set(doc["stage_cache"].values()) == {"off"}
        assert doc["run_id"] is None

    @pytest.mark.parametrize("command", [
        WORKLOAD_RUN,
        ["search", "--workload", "sobel", "--scale", "0.0005",
         "--images", "1", "--train", "12", "--test", "6",
         "--budget", "60"],
    ], ids=["workloads-run", "search"])
    def test_no_store_writes_no_store(self, command, store_env, tmp_path,
                                      monkeypatch, capsys):
        """``--no-store`` reaches the workload library: neither the
        ``REPRO_STORE_DIR`` store nor ``./.repro-store`` is created."""
        monkeypatch.chdir(tmp_path)
        assert main(command + ["--no-store"]) == 0
        capsys.readouterr()
        assert not store_env.exists()
        assert not (tmp_path / ".repro-store").exists()

    def test_runs_list_show_and_json(self, store_env, capsys):
        run_id = self._run_json(capsys)["run_id"]
        assert main(["runs", "list"]) == 0
        out = capsys.readouterr().out
        assert run_id in out and "workload" in out

        assert main(["runs", "list", "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["version"] == 1
        assert [m["run_id"] for m in doc["runs"]] == [run_id]

        assert main(["runs", "show", run_id, "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        stages = doc["run"]["stages"]
        assert [s["name"] for s in stages] == [
            "preprocessing", "training_set", "model_construction",
            "pseudo_pareto", "final_analysis",
        ]

        assert main(["runs", "show", run_id]) == 0
        out = capsys.readouterr().out
        assert "config_hash" in out and "final_analysis" in out

    def test_runs_resume_is_fully_cached(self, store_env, capsys):
        run_id = self._run_json(capsys)["run_id"]
        assert main(["runs", "resume", run_id, "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["resumed_from"] == run_id
        assert set(doc["stage_cache"].values()) == {"hit"}
        assert doc["engine_stats"]["synth_misses"] == 0

    def test_search_records_and_resumes(self, store_env, capsys):
        assert main([
            "search", "--workload", "sobel", "--scale", "0.0005",
            "--images", "1", "--train", "12", "--test", "6",
            "--budget", "150", "--json",
        ]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["version"] == 1
        search = doc["search"]
        assert search["evaluations"] == 150  # exact budget spend
        assert search["max_evaluations"] == 150
        assert search["front_size"] == len(search["front"]["configs"])
        assert search["front_size"] >= 1
        assert search["inserts"] >= search["front_size"]
        assert search["run_id"]

        assert main(["runs", "list"]) == 0
        assert search["run_id"] in capsys.readouterr().out

        # gc keeps every stage artifact the manifest references: the
        # resume after it replays all four stages from the store and
        # reports the recorded front.
        assert main(["runs", "gc"]) == 0
        capsys.readouterr()
        assert main(
            ["runs", "resume", search["run_id"], "--json"]
        ) == 0
        resumed = json.loads(capsys.readouterr().out)["search"]
        assert resumed["resumed_from"] == search["run_id"]
        assert resumed["run_id"] not in (None, search["run_id"])
        assert resumed["front"] == search["front"]
        assert resumed["evaluations"] == search["evaluations"]
        assert main(["runs", "show", resumed["run_id"], "--json"]) == 0
        stages = json.loads(capsys.readouterr().out)["run"]["stages"]
        assert [s["name"] for s in stages] == [
            "preprocessing", "training_set", "model_construction",
            "pseudo_pareto",
        ]
        assert {s["cache"] for s in stages} == {"hit"}

    def test_search_without_store_has_no_run_id(self, store_env,
                                                capsys):
        assert main([
            "search", "--workload", "sobel", "--scale", "0.0005",
            "--images", "1", "--train", "12", "--test", "6",
            "--budget", "120", "--no-store", "--json",
        ]) == 0
        search = json.loads(capsys.readouterr().out)["search"]
        assert search["run_id"] is None
        assert search["evaluations"] == 120

    def test_runs_gc_keeps_referenced(self, store_env, capsys):
        self._run_json(capsys)
        assert main(["runs", "gc", "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["gc"]["kept"] > 0
        # a second run is still fully warm after gc
        warm = self._run_json(capsys)
        assert set(warm["stage_cache"].values()) == {"hit"}

    def test_runs_gc_dry_run_deletes_nothing(self, store_env,
                                             capsys):
        from repro.store import open_store

        self._run_json(capsys)
        store = open_store()
        store.put("dse", "f" * 64, {"orphan": True})

        assert main(["runs", "gc", "--dry-run", "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["gc"]["dry_run"] is True
        assert doc["gc"]["removed"] >= 1
        assert doc["gc"]["by_kind"]["dse"]["count"] >= 1
        assert doc["gc"]["by_kind"]["dse"]["bytes"] > 0
        # nothing was deleted: the orphan is still there
        assert store.get("dse", "f" * 64) == {"orphan": True}

        # human-readable output shows would-delete per kind
        assert main(["runs", "gc", "--dry-run"]) == 0
        out = capsys.readouterr().out
        assert "would remove" in out and "dse" in out

        # and the real pass removes exactly what the dry run promised
        assert main(["runs", "gc", "--json"]) == 0
        real = json.loads(capsys.readouterr().out)["gc"]
        assert real["removed"] == doc["gc"]["removed"]
        assert store.get("dse", "f" * 64) is None

    def test_runs_gc_missing_store_exits_nonzero(self, tmp_path,
                                                 monkeypatch, capsys):
        monkeypatch.setenv(
            "REPRO_STORE_DIR", str(tmp_path / "absent")
        )
        assert main(["runs", "gc"]) == 1
        assert "no experiment store" in capsys.readouterr().err

    def test_runs_accept_store_uri(self, store_env, capsys):
        run_id = self._run_json(capsys)["run_id"]
        assert main(
            ["runs", "list", "--store-dir", f"sqlite:{store_env}",
             "--json"]
        ) == 0
        doc = json.loads(capsys.readouterr().out)
        assert [m["run_id"] for m in doc["runs"]] == [run_id]

    def test_store_flag_reaches_workload_library(self, store_env,
                                                 tmp_path, capsys):
        """``--store B`` caches the workload library and its components
        in B, not in the ``REPRO_STORE_DIR`` store."""
        from repro.store import open_store

        flagged = tmp_path / "flagged"
        self._run_json(capsys, extra=["--store", str(flagged)])
        env_store = open_store(str(store_env))
        assert env_store.entries("library") == []
        assert env_store.entries("component") == []
        flag_store = open_store(str(flagged))
        assert len(flag_store.entries("library")) == 1
        assert flag_store.entries("component")

    def test_runs_show_unknown_id(self, store_env, capsys):
        self._run_json(capsys)
        assert main(["runs", "show", "nope"]) == 1
        assert "no run" in capsys.readouterr().err

    def test_runs_against_missing_store(self, tmp_path, monkeypatch,
                                        capsys):
        monkeypatch.setenv(
            "REPRO_STORE_DIR", str(tmp_path / "absent")
        )
        assert main(["runs", "list"]) == 1
        assert "no experiment store" in capsys.readouterr().err


class TestSearchPipeline:
    """``search`` is the pipeline stopped after ``pseudo_pareto``: it
    profiles with the workload's scenarios, shares stage keys with
    ``workloads run``, and every pipeline command records the library
    scale it resolved."""

    SIZES = ["--scale", "0.0005", "--images", "1", "--train", "12",
             "--seed", "0"]

    @staticmethod
    def _json(capsys, argv):
        assert main(argv + ["--json"]) == 0
        return json.loads(capsys.readouterr().out)

    def _stages(self, capsys, run_id):
        run = self._json(capsys, ["runs", "show", run_id])["run"]
        return run, {s["name"]: s for s in run["stages"]}

    def test_search_shares_workload_stages(self, store_env, capsys):
        workload = self._json(capsys, [
            "workloads", "run", "box3_6b", *self.SIZES, "--evals", "150",
        ])
        search = self._json(capsys, [
            "search", "--workload", "box3_6b", *self.SIZES,
            "--test", "6", "--engines", "Random Forest",
            "--budget", "100",
        ])["search"]
        assert search["evaluations"] == 100
        _, ran = self._stages(capsys, workload["run_id"])
        run, searched = self._stages(capsys, search["run_id"])
        assert (run["kind"], run["label"]) == ("search", "search:box3_6b")
        assert list(searched) == [
            "preprocessing", "training_set", "model_construction",
            "pseudo_pareto",
        ]

        def space_key(stage):
            [key] = [a["key"] for a in stage["artifacts"]
                     if a["kind"] == "space"]
            return key

        # One reduced space: both profiled with the two scenarios.
        assert space_key(searched["preprocessing"]) == space_key(
            ran["preprocessing"]
        )
        for name in ("preprocessing", "training_set",
                     "model_construction"):
            assert searched[name]["cache"] == "hit", name
            assert searched[name]["artifacts"] == ran[name]["artifacts"]

    @pytest.mark.parametrize("command", ["workloads", "search"])
    def test_resume_keeps_the_recorded_scale(self, command, store_env,
                                             monkeypatch, capsys):
        argv = {
            "workloads": ["workloads", "run", "sobel", "--evals", "150"],
            "search": ["search", "--workload", "sobel", "--test", "6",
                       "--budget", "100"],
        }[command] + ["--images", "1", "--train", "12"]
        monkeypatch.setenv("REPRO_SCALE", "0.0005")
        doc = self._json(capsys, argv)
        doc = doc.get("search", doc)
        run, _ = self._stages(capsys, doc["run_id"])
        assert run["params"]["scale"] == 0.0005

        monkeypatch.setenv("REPRO_SCALE", "0.001")
        resumed = self._json(capsys, ["runs", "resume", doc["run_id"]])
        resumed = resumed.get("search", resumed)
        assert resumed["front"] == doc["front"]
        run, stages = self._stages(capsys, resumed["run_id"])
        assert run["params"]["scale"] == 0.0005
        assert {s["cache"] for s in stages.values()} == {"hit"}


class TestPoolSynthCounters:
    """Synthesis run in pool workers counts like in-process synthesis."""

    GF_RUN = [
        "workloads", "run", "generic_gf", "--scale", "0.001", "--images",
        "1", "--train", "12", "--evals", "300", "--json",
    ]

    def test_workers_two_reports_workers_one_synth_misses(
        self, tmp_path, monkeypatch, capsys
    ):
        from repro.core import runtime as rt

        # A real fan-out on any host.  ``never`` runs the chunks
        # in-process: their counts must not be added twice.
        monkeypatch.setattr(rt, "usable_cores", lambda: 2)
        runs = {"w1": ("1", "auto"), "w2": ("2", "auto"),
                "w2-inline": ("2", "never")}
        stats = {}
        pool_batches = {}
        rt.reset_runtime()
        try:
            for label, (workers, parallel) in runs.items():
                monkeypatch.setenv("REPRO_PARALLEL", parallel)
                monkeypatch.setenv("REPRO_STORE_DIR", str(tmp_path / label))
                before = rt.get_runtime().stats["parallel_batches"]
                assert main(self.GF_RUN + ["--workers", workers]) == 0
                pool_batches[label] = (
                    rt.get_runtime().stats["parallel_batches"] - before
                )
                doc = json.loads(capsys.readouterr().out)
                assert set(doc["stage_cache"].values()) == {"miss"}
                stats[label] = doc["engine_stats"]
                # the ledger manifest records the same counters
                assert main(["runs", "show", doc["run_id"], "--json"]) == 0
                manifest = json.loads(capsys.readouterr().out)
                assert manifest["run"]["extra"]["engine_stats"] == doc[
                    "engine_stats"
                ]
        finally:
            rt.reset_runtime()
        assert pool_batches["w2"] > 0
        assert pool_batches["w1"] == pool_batches["w2-inline"] == 0
        assert stats["w1"]["synth_misses"] > 0
        assert stats["w2"] == stats["w2-inline"] == stats["w1"]


class TestErrorExit:
    """A ``ReproError`` ends a command with one ``error:`` line on
    stderr and no traceback: exit 2 for a bad setting, else 1."""

    @staticmethod
    def _one_error_line(capsys, needle):
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1
        assert lines[0].startswith("error: ")
        assert needle in lines[0]
        assert "Traceback" not in captured.err

    def test_run_with_http_store(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        assert main(["run", "--store", "http://x"]) == 2
        self._one_error_line(capsys, "sqlite:PATH")
        assert list(tmp_path.iterdir()) == []

    def test_runs_list_with_https_store_dir(self, capsys):
        assert main(["runs", "list", "--store-dir", "https://x"]) == 2
        self._one_error_line(capsys, "sqlite:PATH")

    def test_runs_show_unknown_run(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("REPRO_STORE_DIR", str(tmp_path / "store"))
        assert main(["runs", "show", "nope"]) == 1
        self._one_error_line(capsys, "no experiment store")

    def test_retired_serve_job_manifest_stays_readable(
        self, store_env, capsys
    ):
        """Stores may hold ``serve-job`` manifests written by the
        retired HTTP service: they still list and gc, resuming one is
        one error line naming its kind, and ``serve`` is no command."""
        from repro.store import ArtifactStore, RunLedger

        request = {
            "workload": "sobel", "quality_target": 0.8, "evals": 300,
            "scale": 0.001, "images": 1, "train": 12, "seed": 0,
        }
        run_id = RunLedger.new_run_id()
        RunLedger(ArtifactStore(store_env)).record(
            run_id,
            kind="serve-job",
            label="serve:sobel",
            params={**request, "job_id": "job-000001",
                    "account": "ci", "api_key": "0123abcd"},
            config_hash="0" * 64,
            stages=[{"name": "serve", "seconds": 1.5,
                     "cache": "cold", "artifacts": []}],
            seed=0,
            extra={"source": "cold", "error": None},
        )

        assert main(["runs", "list", "--json", "--kind", "serve-job"]) == 0
        runs = json.loads(capsys.readouterr().out)["runs"]
        assert [r["run_id"] for r in runs] == [run_id]

        assert main(["runs", "gc", "--json"]) == 0
        assert json.loads(capsys.readouterr().out)["gc"]["removed"] == 0

        assert main(["runs", "resume", run_id]) == 1
        self._one_error_line(capsys, "(kind 'serve-job')")

        with pytest.raises(SystemExit) as info:
            main(["serve"])
        assert info.value.code == 2
        assert "invalid choice: 'serve'" in capsys.readouterr().err


class TestDefaultWorkers:
    """With no ``--workers`` and no ``REPRO_WORKERS``, every command that
    takes ``--workers`` uses every usable core: its batches fan out.
    ``--workers 1`` keeps every batch in-process (each batch sees the
    flag's count) and writes the same output."""

    RUN = [
        "run", "--accelerator", "sobel", "--scale", "0.001",
        "--images", "1", "--train", "12", "--evals", "150",
    ]
    FANNED = {"library-build", "evaluate_many", "forest-fit"}
    SEARCH = [
        "search", "--workload", "sobel", "--scale", "0.001",
        "--images", "1", "--train", "12", "--test", "6",
        "--budget", "150", "--json",
    ]

    @pytest.fixture()
    def two_cores(self, monkeypatch):
        """Two usable cores, no count from the environment, and a spy
        recording the worker count the runtime sees at every batch."""
        from repro.core import runtime as rt

        monkeypatch.delenv("REPRO_WORKERS", raising=False)
        monkeypatch.delenv("REPRO_PARALLEL", raising=False)
        monkeypatch.setattr(rt, "usable_cores", lambda: 2)
        seen = []
        pool_size = rt.ParallelRuntime._pool_size

        def spy(runtime, *args):
            seen.append(rt.default_workers())
            return pool_size(runtime, *args)

        monkeypatch.setattr(rt.ParallelRuntime, "_pool_size", spy)
        rt.reset_runtime()
        yield seen
        rt.reset_runtime()

    @staticmethod
    def _batches(argv):
        """Run ``argv``; return the parallel batches it ran."""
        from repro.core import runtime as rt

        before = rt.get_runtime().stats["parallel_batches"]
        assert main(argv) == 0
        return rt.get_runtime().stats["parallel_batches"] - before

    def _run(self, tmp_path, label, extra=()):
        trace = tmp_path / f"{label}.json"
        front = tmp_path / f"{label}.csv"
        batches = self._batches(self.RUN + [
            "--store", str(tmp_path / f"store-{label}"),
            "--trace", str(trace), "--out", str(front), *extra,
        ])
        events = json.loads(trace.read_text())["traceEvents"]
        by_id = {e["args"]["span_id"]: e for e in events}
        pooled = {
            by_id[e["args"]["parent"]]["name"].split(".", 1)[1]
            for e in events if e["cat"] == "worker"
        }
        return front.read_bytes(), batches, pooled

    def test_default_fans_out_and_workers_one_stays_in_process(
        self, tmp_path, two_cores, capsys
    ):
        front, batches, pooled = self._run(tmp_path, "default")
        assert set(two_cores) == {2}
        two_cores.clear()
        serial_front, serial_batches, serial_pooled = self._run(
            tmp_path, "w1", ["--workers", "1"]
        )
        capsys.readouterr()
        assert self.FANNED <= pooled
        assert batches >= len(self.FANNED)
        assert serial_pooled == set()
        assert serial_batches == 0
        assert set(two_cores) == {None}
        assert serial_front == front

    def _generate_library(self, tmp_path, label, extra, capsys):
        out = tmp_path / f"{label}.json"
        batches = self._batches([
            "generate-library", "--scale", "0.001", "--no-store",
            "--out", str(out), *extra,
        ])
        capsys.readouterr()
        return batches, out.read_bytes()

    def _workloads_run(self, tmp_path, label, extra, capsys):
        out = tmp_path / f"{label}.csv"
        batches = self._batches([
            "workloads", "run", "sobel", "--scale", "0.001",
            "--images", "1", "--train", "12", "--evals", "150",
            "--store", str(tmp_path / f"store-{label}"),
            "--out", str(out), *extra,
        ])
        capsys.readouterr()
        return batches, out.read_bytes()

    def _search(self, tmp_path, label, extra, capsys):
        batches = self._batches(self.SEARCH + [
            "--store", str(tmp_path / f"store-{label}"), *extra,
        ])
        return batches, json.loads(capsys.readouterr().out)["search"][
            "front"
        ]

    def _runs_resume(self, tmp_path, label, extra, capsys):
        from repro.store import ArtifactStore, RunLedger

        # The search is recorded in-process on a store of its own, and
        # only its manifest is copied to the resume's store: a resume
        # on the recording store would replay every stage from cache
        # and start no batch, so it would show nothing about the flag.
        recorded = ArtifactStore(tmp_path / f"recorded-{label}")
        assert main(
            self.SEARCH + ["--store", str(recorded.root), "--workers", "1"]
        ) == 0
        run_id = json.loads(capsys.readouterr().out)["search"]["run_id"]
        manifest = RunLedger(recorded).get(run_id)
        store = str(tmp_path / f"store-{label}")
        RunLedger(ArtifactStore(store)).record(run_id, **{
            key: manifest[key]
            for key in ("kind", "label", "params", "config_hash",
                        "stages", "seed")
        })
        batches = self._batches([
            "runs", "resume", run_id, "--store-dir", store, "--json",
            *extra,
        ])
        return batches, json.loads(capsys.readouterr().out)["search"][
            "front"
        ]

    @pytest.mark.parametrize(
        "command",
        ["generate-library", "workloads-run", "search", "runs-resume"],
    )
    def test_every_workers_command_follows_the_flag(
        self, command, tmp_path, two_cores, capsys
    ):
        drive = getattr(self, "_" + command.replace("-", "_"))
        batches, output = drive(tmp_path, "default", (), capsys)
        assert batches > 0
        assert set(two_cores) >= {2}
        two_cores.clear()
        serial_batches, serial_output = drive(
            tmp_path, "w1", ("--workers", "1"), capsys
        )
        assert serial_batches == 0
        assert set(two_cores) == {None}
        assert serial_output == output
        # the flag held for its command only
        from repro.core.runtime import default_workers

        assert default_workers() == 2


class TestJsonStdoutPurity:
    """With ``--json``, stdout carries one JSON document and nothing
    else; progress and diagnostics go to stderr."""

    @staticmethod
    def _pure_json(capsys):
        """stdout must parse as exactly one JSON document."""
        captured = capsys.readouterr()
        doc = json.loads(captured.out)  # raises on any stray prose
        assert doc["version"] == 1
        return doc, captured.err

    def test_workloads_run_json_with_out(self, store_env, tmp_path,
                                         capsys):
        front_path = tmp_path / "front.csv"
        assert main(
            WORKLOAD_RUN + ["--json", "--out", str(front_path)]
        ) == 0
        doc, err = self._pure_json(capsys)
        assert doc["workload"] == "sobel"
        # --out is honoured in json mode; the note goes to stderr
        lines = front_path.read_text().splitlines()
        assert lines[0] == "ssim,area"
        assert len(lines) == len(doc["front"]) + 1
        assert str(front_path) in err

    def test_run_json_with_out(self, store_env, tmp_path, capsys):
        front_path = tmp_path / "front.csv"
        assert main([
            "run", "--scale", "0.0005", "--images", "1",
            "--train", "12", "--evals", "150", "--json",
            "--out", str(front_path),
        ]) == 0
        doc, _ = self._pure_json(capsys)
        assert doc["accelerator"] == "sobel"
        assert doc["front"]
        assert front_path.read_text().startswith("ssim,area")

    def test_search_json(self, store_env, capsys):
        assert main([
            "search", "--workload", "sobel", "--scale", "0.0005",
            "--images", "1", "--train", "12", "--test", "6",
            "--budget", "120", "--json",
        ]) == 0
        doc, _ = self._pure_json(capsys)
        assert doc["search"]["evaluations"] == 120

    def test_runs_commands_json(self, store_env, capsys):
        assert main(WORKLOAD_RUN + ["--json"]) == 0
        run_id = self._pure_json(capsys)[0]["run_id"]
        for argv in (
            ["runs", "list", "--json"],
            ["runs", "show", run_id, "--json"],
            ["runs", "resume", run_id, "--json"],
            ["runs", "gc", "--json"],
        ):
            assert main(argv) == 0
            self._pure_json(capsys)

    def test_generate_library_json(self, store_env, capsys):
        assert main([
            "generate-library", "--scale", "0.0005", "--store",
            "--json",
        ]) == 0
        doc, err = self._pure_json(capsys)
        assert doc["generate_library"]["components"] > 0
        assert "generating" in err  # progress went to stderr

    def test_runs_list_kind_filter(self, store_env, capsys):
        assert main(WORKLOAD_RUN + ["--json"]) == 0
        self._pure_json(capsys)
        assert main(
            ["runs", "list", "--json", "--kind", "workload"]
        ) == 0
        doc, _ = self._pure_json(capsys)
        assert len(doc["runs"]) == 1
        assert main(
            ["runs", "list", "--json", "--kind", "search"]
        ) == 0
        doc, _ = self._pure_json(capsys)
        assert doc["runs"] == []
