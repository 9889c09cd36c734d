"""Start-up reach: a command loads only the subsystems it runs.

``repro`` and ``repro.experiments`` resolve their public names on first
access, image synthesis blurs in numpy, and SSIM imports scipy at its
first call.  So importing the CLI and the pipeline pulls in neither
scipy nor the paper drivers, and a warm ``repro run`` served from the
store (it scores no image) never imports scipy.
"""

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


def test_warm_run_loads_no_scipy(tmp_path):
    store = tmp_path / "store"
    argv = SMOKE_RUN + ["--store", str(store), "--json"]
    assert main(argv) == 0  # cold: fills the store
    modules = _modules_after(
        f"from repro.cli import main\nassert main({argv!r}) == 0",
        tmp_path,
    )
    assert "repro.core.pipeline" in modules  # the pipeline did run
    assert _reached(modules, "scipy") == []


def test_first_ssim_imports_scipy(tmp_path):
    modules = _modules_after(
        "import numpy as np\n"
        "from repro.imaging import ssim\n"
        "ssim(np.zeros((16, 16)), np.ones((16, 16)))",
        tmp_path,
    )
    assert "scipy.ndimage" in modules


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
