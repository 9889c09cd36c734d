"""Start-up reach: a command loads only the subsystems it runs.

``repro``, ``repro.experiments`` and the ``core``, ``accelerators``,
``library`` and ``imaging`` packages resolve their public names on
first access, and both image synthesis and SSIM blur with the package's
numpy Gaussian window (:mod:`repro.imaging.gaussian`).  So importing the
CLI and the pipeline pulls in none of the paper drivers, and no command
— a warm ``repro run`` served from the store, or a cold ``repro run`` or
``workloads run`` that scores every image — ever imports scipy, which
stays a test-only oracle.  A warm replay, served from its run's recorded
result, loads neither the pipeline nor the engines, and no numpy: the
lookup runs before either is imported.
"""

import ast
import contextlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro
import repro.experiments
from repro.cli import main

SRC = Path(repro.__file__).resolve().parents[1]

SMOKE_RUN = [
    "run", "--accelerator", "sobel", "--scale", "0.0005", "--images", "1",
    "--train", "6", "--evals", "60", "--seed", "0",
]


def _modules_after(code: str, tmp_path: Path) -> list:
    """Run ``code`` in a fresh interpreter; return its ``sys.modules``."""
    dump = tmp_path / "modules.json"
    script = (
        f"{code}\n"
        "import json, sys\n"
        f"open({str(dump)!r}, 'w').write(json.dumps(sorted(sys.modules)))\n"
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p
    )
    subprocess.run(
        [sys.executable, "-c", script], env=env, check=True,
        stdout=subprocess.DEVNULL,
    )
    return json.loads(dump.read_text())


def _reached(modules, prefix):
    return [m for m in modules if m == prefix or m.startswith(prefix + ".")]


def test_imports_load_no_scipy(tmp_path):
    modules = _modules_after(
        "import repro, repro.cli, repro.experiments.setup, "
        "repro.core.pipeline",
        tmp_path,
    )
    assert "repro.core.pipeline" in modules  # non-vacuous
    assert _reached(modules, "scipy") == []
    # the paper drivers stay unloaded until asked for
    assert "repro.experiments.table4_dse" not in modules


#: Pipeline modules a full-hit replay must not load: it is served from
#: the run's recorded result, so nothing is built, fit or scored.
PIPELINE_MODULES = (
    "repro.ml",
    "repro.core.engine",
    "repro.core.modeling",
    "repro.core.dse",
    "repro.core.pipeline",
    "repro.imaging.metrics",
)


#: One small command of each replayable kind.
REPLAYED = {
    "run": SMOKE_RUN,
    "workloads-run": [
        "workloads", "run", "box3_6b", "--scale", "0.0005", "--images",
        "1", "--train", "6", "--evals", "60", "--seed", "0",
    ],
    "search": [
        "search", "--workload", "box3_6b", "--scale", "0.0005",
        "--images", "1", "--train", "6", "--test", "3", "--budget", "60",
        "--seed", "0",
    ],
}


def _warm_replay_modules(tmp_path: Path, command: str = "run") -> list:
    """Fill a store with a cold run, then replay it in a fresh
    interpreter, which asserts that it was served: the cold run's run
    id, counted as a replay on its manifest, and (``search`` reports no
    stages) all five stages a hit."""
    argv = REPLAYED[command] + ["--store", str(tmp_path / "store"),
                                "--json"]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(argv) == 0  # cold: fills the store
    cold = json.loads(out.getvalue())
    run_id = cold.get("search", cold)["run_id"]
    return _modules_after(
        "import contextlib, io, json, pathlib\n"
        "from repro.cli import main\n"
        "out = io.StringIO()\n"
        "with contextlib.redirect_stdout(out):\n"
        f"    assert main({argv!r}) == 0\n"
        "doc = json.loads(out.getvalue())\n"
        f"assert doc.get('search', doc)['run_id'] == {run_id!r}\n"
        f"[run] = pathlib.Path({argv[-2]!r}, 'runs').glob('*.json')\n"
        "assert json.loads(run.read_text())['replays'] == 1, run\n"
        "if 'search' not in doc:\n"
        "    cache = doc['stage_cache']\n"
        "    assert list(cache.values()) == ['hit'] * 5, cache",
        tmp_path,
    )


def test_warm_run_loads_no_scipy(tmp_path):
    modules = _warm_replay_modules(tmp_path)
    assert "repro.cli" in modules  # the replay ran (served, asserted)
    assert _reached(modules, "scipy") == []


def test_warm_replay_loads_no_pipeline(tmp_path):
    modules = _warm_replay_modules(tmp_path)
    assert "repro.store.ledger" in modules  # the lookup ran
    for prefix in PIPELINE_MODULES:
        assert _reached(modules, prefix) == [], prefix


@pytest.mark.parametrize("command", sorted(REPLAYED))
def test_full_hit_replay_loads_no_numpy(command, tmp_path):
    """A served ``run``, ``workloads run`` and ``search`` replay loads
    neither numpy nor any pipeline module."""
    modules = _warm_replay_modules(tmp_path, command)
    assert "repro.store.replay" in modules  # the lookup ran
    assert _reached(modules, "numpy") == []
    for prefix in PIPELINE_MODULES:
        assert _reached(modules, prefix) == [], prefix


def test_runtime_import_loads_no_learning_engines(tmp_path):
    modules = _modules_after("import repro.core.runtime", tmp_path)
    assert "repro.core.runtime" in modules
    assert _reached(modules, "repro.ml") == []
    assert "repro.core.pipeline" not in modules


def test_cold_runs_and_ssim_load_no_scipy(tmp_path):
    """Every image is built and scored in this interpreter (one worker),
    and none of it loads scipy."""
    run = SMOKE_RUN + ["--workers", "1", "--store", str(tmp_path / "a")]
    workload = [
        "workloads", "run", "box3_6b", "--scale", "0.0005",
        "--images", "1", "--train", "6", "--evals", "60", "--seed", "0",
        "--workers", "1", "--store", str(tmp_path / "b"),
    ]
    modules = _modules_after(
        "import numpy as np\n"
        "from repro.cli import main\n"
        f"assert main({run!r}) == 0\n"
        f"assert main({workload!r}) == 0\n"
        "from repro.imaging import ssim\n"
        "ssim(np.zeros((16, 16)), np.ones((16, 16)))",
        tmp_path,
    )
    # non-vacuous: both pipelines ran and scored images
    assert "repro.core.engine" in modules
    assert "repro.imaging.gaussian" in modules
    assert _reached(modules, "scipy") == []


def test_no_module_imports_scipy():
    """scipy is a test-only oracle: no module under ``repro`` imports it,
    at module level or inside a function."""
    paths = sorted((SRC / "repro").rglob("*.py"))
    assert len(paths) > 50  # non-vacuous: the package was scanned
    offenders = []
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            if any(n == "scipy" or n.startswith("scipy.") for n in names):
                offenders.append(f"{path.relative_to(SRC)}:{node.lineno}")
    assert offenders == []


def test_every_public_name_resolves():
    for package in (repro, repro.experiments):
        for name in package.__all__:
            assert getattr(package, name) is not None, name
        assert set(package.__all__) <= set(dir(package))


def test_public_names_are_the_defining_objects():
    from repro.core.pipeline import AutoAx
    from repro.experiments.table4_dse import table4_distances
    from repro.imaging.metrics import ssim

    assert repro.AutoAx is AutoAx
    assert repro.ssim is ssim
    assert repro.experiments.table4_distances is table4_distances


def test_star_import():
    namespace = {}
    exec("from repro import *", namespace)
    assert set(repro.__all__) <= set(namespace)
    namespace = {}
    exec("from repro.experiments import *", namespace)
    assert set(repro.experiments.__all__) <= set(namespace)


@pytest.mark.parametrize("package", [repro, repro.experiments])
def test_unknown_name_raises_attribute_error(package):
    with pytest.raises(AttributeError, match="no_such_name"):
        package.no_such_name
