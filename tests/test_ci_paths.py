"""The CI workflow names only scripts and tests that exist.

A job that runs a deleted script fails only on the CI runner; this scan
fails the local suite first.
"""

import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
WORKFLOW = ROOT / ".github" / "workflows" / "ci.yml"

#: Repo-relative paths under the directories CI runs code from.
PATH_RE = re.compile(
    r"(?<![\w./-])((?:benchmarks|tests|e2ebench)/[\w./-]+)"
)


def _ci_paths():
    return sorted(
        {m.rstrip(".") for m in PATH_RE.findall(WORKFLOW.read_text())}
    )


def test_ci_names_only_existing_paths():
    paths = _ci_paths()
    # non-vacuous: the scan sees every kind of path the workflow runs
    for prefix in ("benchmarks/", "tests/", "e2ebench/"):
        assert any(p.startswith(prefix) for p in paths), prefix
    missing = [p for p in paths if not (ROOT / p).exists()]
    assert not missing, f"{WORKFLOW.name} names missing paths: {missing}"
