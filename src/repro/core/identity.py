"""Identity of a pipeline run, computable before anything is built.

Every stage key of :meth:`repro.core.pipeline.AutoAx.run` hashes the
run's *inputs* — the accelerator, the library, the benchmark images and
the scenarios — together with its :class:`AutoAxConfig`.  This module
holds that identity and nothing heavy, so a caller can name a run (its
config hash, the key of its recorded result) from keys that already fix
the inputs, without loading the pipeline, the evaluation engine or the
learning engines.  The CLI does exactly that to serve a finished run
from the store; ``AutoAx.run`` derives its stage keys from the same
functions.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Dict, Optional, Sequence, Tuple

from repro.core.configuration import HW_FEATURES
from repro.errors import ValidationError
from repro.store.hashing import content_hash

#: Ledger stage names, in execution order.  The heavy stages a warm
#: store is expected to skip entirely.
PIPELINE_STAGES = (
    "preprocessing",
    "training_set",
    "model_construction",
    "pseudo_pareto",
    "final_analysis",
)


@dataclass(frozen=True)
class AutoAxConfig:
    """Tunables of the pipeline; defaults are laptop-scale."""

    n_train: int = 400
    n_test: int = 200
    engines: Tuple[str, ...] = ("Random Forest",)
    include_naive: bool = True
    hw_features: Tuple[str, ...] = HW_FEATURES
    max_evaluations: int = 20_000
    stagnation_limit: int = 50
    per_op_cap: Optional[int] = None
    max_samples: int = 1 << 16
    seed: int = 0

    def __post_init__(self):
        if self.n_train < 2 or self.n_test < 2:
            raise ValidationError("need at least two train and test samples")
        if not self.engines:
            raise ValidationError("at least one learning engine is required")

    def cache_payload(self) -> Dict[str, object]:
        """The hashable identity of this config."""
        payload = asdict(self)
        payload["engines"] = list(self.engines)
        payload["hw_features"] = list(self.hw_features)
        return payload


def idle_engine_stats() -> Dict[str, object]:
    """The engine counters of a run that built no engine and fit
    nothing."""
    return {
        "engine_built": False,
        "model_fits": 0,
        "synth_hits": 0,
        "synth_store_hits": 0,
        "synth_misses": 0,
    }


def stage_inputs(
    accelerator: str,
    library: str,
    images: str,
    scenarios: Optional[Sequence[Dict[str, int]]] = None,
) -> Dict[str, object]:
    """The input part of every stage key.

    ``accelerator``, ``library`` and ``images`` are identities: content
    hashes, or store keys that already fix the content.
    """
    return {
        "accelerator": accelerator,
        "library": library,
        "images": images,
        "scenarios": [dict(s) for s in scenarios] if scenarios else None,
    }


def config_hash(inputs: Dict[str, object], config: AutoAxConfig) -> str:
    """The manifest's ``config_hash``: the inputs plus the config."""
    return content_hash({"inputs": inputs, "config": config.cache_payload()})


def result_key(config_hash: str, stop: str, kind: str, label: str) -> str:
    """Store key of the recorded outcome of a run.

    The config hash fixes every stage; ``stop`` is the last stage run
    (``search`` stops after ``pseudo_pareto``), and the manifest kind
    and label name the output document the outcome holds.
    """
    return content_hash(
        {"result": config_hash, "stop": stop, "kind": kind, "label": label}
    )
