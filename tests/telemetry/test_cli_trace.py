"""The CLI trace surface: ``--trace``, ``REPRO_TRACE``, ledger metrics.

The acceptance bar pinned here: ``repro workloads run --trace`` on a
cold workload writes valid Chrome trace-event JSON whose top-level
``cli.workloads`` span covers (almost) the whole command, with the
pipeline stages recorded beneath it — and the run's ledger manifest
carries the metrics snapshot of exactly that run.
"""

import json
import time

import pytest

from repro.cli import main

RUN = [
    "workloads", "run", "sobel", "--scale", "0.0005", "--images", "1",
    "--train", "12", "--evals", "150",
]


@pytest.fixture()
def store_env(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_STORE_DIR", str(tmp_path / "store"))
    return tmp_path


class TestTraceFlag:
    def test_workloads_run_trace_covers_the_command(self, store_env,
                                                    capsys):
        trace_path = store_env / "trace.json"
        start = time.perf_counter()
        assert main(RUN + ["--json", "--trace", str(trace_path)]) == 0
        wall = time.perf_counter() - start
        json.loads(capsys.readouterr().out)  # stdout purity holds

        doc = json.loads(trace_path.read_text())
        events = doc["traceEvents"]
        assert events and doc["otherData"]["trace_id"]
        (top,) = [e for e in events if e["name"] == "cli.workloads"]
        # the top-level span covers >= 95% of the command's wall time
        assert top["dur"] >= 0.95 * wall * 1e6
        names = {e["name"] for e in events}
        assert "pipeline.preprocessing" in names
        assert "pipeline.final_analysis" in names
        # every pipeline stage nests (transitively) under the CLI span
        by_id = {e["args"]["span_id"]: e for e in events}
        for event in events:
            if event is top:
                continue
            seen = set()
            node = event
            while "parent" in node["args"]:
                parent = node["args"]["parent"]
                assert parent not in seen  # no cycles
                seen.add(parent)
                node = by_id[parent]
            assert node is top

    def test_trace_env_fallback(self, store_env, monkeypatch, capsys):
        trace_path = store_env / "env-trace.json"
        monkeypatch.setenv("REPRO_TRACE", str(trace_path))
        assert main(["inventory"]) == 0
        capsys.readouterr()
        doc = json.loads(trace_path.read_text())
        assert any(
            e["name"] == "cli.inventory" for e in doc["traceEvents"]
        )

    def test_blank_trace_env_rejected(self, monkeypatch, capsys):
        monkeypatch.setenv("REPRO_TRACE", "  ")
        assert main(["inventory"]) == 2
        assert "REPRO_TRACE" in capsys.readouterr().err

    def test_flag_beats_env(self, store_env, monkeypatch, capsys):
        flag_path = store_env / "flag.json"
        env_path = store_env / "env.json"
        monkeypatch.setenv("REPRO_TRACE", str(env_path))
        assert main(RUN + ["--json", "--trace", str(flag_path)]) == 0
        capsys.readouterr()
        assert flag_path.is_file()
        assert not env_path.exists()


class TestLedgerMetrics:
    def test_manifest_carries_metrics_snapshot(self, store_env,
                                               capsys):
        assert main(RUN + ["--json"]) == 0
        run_id = json.loads(capsys.readouterr().out)["run_id"]
        assert main(["runs", "show", run_id, "--json"]) == 0
        manifest = json.loads(capsys.readouterr().out)["run"]
        metrics = manifest["extra"]["metrics"]
        assert metrics["counters"]["pipeline.runs"] == 1
        assert metrics["counters"]["engine.evaluations"] > 0
        assert "pipeline.stage_seconds.final_analysis" in (
            metrics["histograms"]
        )

    def test_runs_show_renders_summary_table(self, store_env, capsys):
        assert main(RUN + ["--json"]) == 0
        run_id = json.loads(capsys.readouterr().out)["run_id"]
        assert main(["runs", "show", run_id]) == 0
        out = capsys.readouterr().out
        assert "% of total" in out
        assert "cache:" in out
        assert "final_analysis" in out
        assert "engine.evaluations" in out
