"""Table 2 — approximate circuits included in the initial library."""

from __future__ import annotations

from typing import Dict, Tuple

from repro.library.generation import PAPER_COUNTS
from repro.library.library import ComponentLibrary

#: The paper's library sizes per signature.
PAPER_TABLE2: Dict[Tuple[str, int], int] = dict(PAPER_COUNTS)


def table2_counts(
    library: ComponentLibrary,
) -> Dict[Tuple[str, int], Dict[str, float]]:
    """Per-signature component counts of ``library`` next to the paper's.

    ``fraction`` reports the generated count relative to the paper-scale
    count, making the scaling factor of the run explicit.
    """
    out: Dict[Tuple[str, int], Dict[str, float]] = {}
    summary = library.summary()
    for sig, paper_count in PAPER_TABLE2.items():
        generated = summary.get(sig, 0)
        out[sig] = {
            "generated": generated,
            "paper": paper_count,
            "fraction": generated / paper_count,
        }
    return out
