"""Every call site the timing benchmark wraps still exists.

``e2ebench/layers.py`` names ``(module, attribute path)`` pairs that a
traced run patches with timing wrappers.  A rename under ``src/`` would
otherwise surface only as a failed traced run of the benchmark; this
resolves each pair in the tier-1 suite.  The benchmark file is loaded
from disk, never edited.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

LAYERS = Path(__file__).resolve().parents[1] / "e2ebench" / "layers.py"


def _targets():
    spec = importlib.util.spec_from_file_location("_e2e_layers", LAYERS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return [(mod, path) for mod, path, _, _ in module.TARGETS]


TARGETS = _targets()


def test_targets_listed():
    assert len(TARGETS) >= 40  # non-vacuous: the table was read


@pytest.mark.parametrize(
    "module_name,attr_path", TARGETS,
    ids=[f"{mod}:{path}" for mod, path in TARGETS],
)
def test_target_resolves(module_name, attr_path):
    owner = importlib.import_module(module_name)
    for attr in attr_path.split("."):
        owner = getattr(owner, attr)
    assert callable(owner)
