"""Shared infrastructure of the paper benchmarks.

Every benchmark regenerates one table or figure of the paper (plus the
NSGA-II extension and the ablations).  Timing of the pipeline as a whole
lives in ``e2ebench/``.  The experiment setup (characterised library +
benchmark images) is built once per session and cached on disk; results
are printed and archived under ``results/``.

Environment knobs:

* ``REPRO_SCALE``       — library scale relative to Table 2 (default 0.02;
                          1.0 regenerates the paper-size library).
* ``REPRO_PAPER_SCALE`` — set to 1 to run paper-size experiment settings
                          (1500/1500 training configurations, 10**6 DSE
                          evaluations, 384x256 images).  Expect hours.
* ``REPRO_STORE_DIR``   — persistent experiment-store root (library
                          cache, stage artifacts, run ledger; default
                          ``.repro-store``); blank values are rejected.
* ``REPRO_WORKERS``     — worker processes for every parallel stage
                          (default: every usable core; values <= 1 run
                          in-process).
"""

from __future__ import annotations

import os
from pathlib import Path
from typing import Optional

from repro.experiments.setup import (
    DEFAULT_SHAPE,
    PAPER_SHAPE,
    ExperimentSetup,
    default_setup,
)

__all__ = [
    "RESULTS_DIR",
    "paper_scale",
    "shared_setup",
    "sized",
    "write_result",
]

RESULTS_DIR = Path(os.environ.get("REPRO_RESULTS_DIR", "results"))

_SETUP: Optional[ExperimentSetup] = None


def paper_scale() -> bool:
    """True when paper-size experiment settings are requested."""
    return os.environ.get("REPRO_PAPER_SCALE", "0") not in ("0", "", "false")


def shared_setup() -> ExperimentSetup:
    """Session-cached experiment setup shared by all benchmarks."""
    global _SETUP
    if _SETUP is None:
        if paper_scale():
            _SETUP = default_setup(
                n_images=24, image_shape=PAPER_SHAPE
            )
        else:
            _SETUP = default_setup(n_images=4, image_shape=DEFAULT_SHAPE)
    return _SETUP


def sized(default: int, paper: int) -> int:
    """Pick the experiment size for the current scale mode."""
    return paper if paper_scale() else default


def write_result(name: str, text: str) -> None:
    """Print a result block and archive it under ``results/``."""
    RESULTS_DIR.mkdir(parents=True, exist_ok=True)
    (RESULTS_DIR / f"{name}.txt").write_text(text + "\n")
    print(f"\n===== {name} =====")
    print(text)
