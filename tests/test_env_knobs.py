"""README's "Environment knobs" table lists exactly the knobs the code reads.

A knob added, renamed or deleted under ``src/`` or ``benchmarks/``
without the table following (or the reverse) fails here.
"""

import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
KNOB = re.compile(r"\bREPRO_[A-Z0-9_]+\b")
ROW = re.compile(r"^\| `(REPRO_[A-Z0-9_]+)` \|", re.MULTILINE)


def _code_knobs():
    return {
        name
        for top in ("src", "benchmarks")
        for path in (ROOT / top).rglob("*.py")
        for name in KNOB.findall(path.read_text())
    }


def _table_knobs():
    text = (ROOT / "README.md").read_text()
    section = text.split("## Environment knobs", 1)[1].split("\n## ", 1)[0]
    return set(ROW.findall(section))


def test_knob_table_matches_code():
    code, table = _code_knobs(), _table_knobs()
    assert len(table) >= 10  # non-vacuous: the table was found
    assert sorted(code - table) == [], "knobs missing from the README table"
    assert sorted(table - code) == [], "README lists knobs no code reads"
