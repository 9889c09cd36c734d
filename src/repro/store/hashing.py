"""Canonical hashing — the cache keys of the experiment store.

Every artifact is addressed by the SHA-256 of a *canonical JSON*
rendering of its inputs.  Canonicalisation sorts dictionary keys,
normalises numpy scalars to Python numbers and replaces numpy arrays by
a ``{dtype, shape, sha256-of-bytes}`` digest triple, so semantically
equal inputs hash identically across processes, platforms and runs.

The fingerprint helpers describe the domain objects whose identity
matters for cache keys: accelerators (their full dataflow graph),
component libraries and benchmark-image sets.
"""

from __future__ import annotations

import hashlib
import json
from typing import TYPE_CHECKING, Dict, List, Sequence

import numpy as np

if TYPE_CHECKING:
    from repro.accelerators.base import ImageAccelerator
    from repro.library.library import ComponentLibrary

#: Bump when the canonicalisation scheme changes: old keys must not
#: alias new ones.
HASH_SCHEME = 1


def _canonize(obj):
    """Recursively convert ``obj`` into canonical-JSON-ready values."""
    if isinstance(obj, dict):
        out = {}
        for key in sorted(obj, key=str):
            out[str(key)] = _canonize(obj[key])
        return out
    if isinstance(obj, (list, tuple)):
        return [_canonize(item) for item in obj]
    if isinstance(obj, np.ndarray):
        data = np.ascontiguousarray(obj)
        return {
            "__ndarray__": {
                "dtype": str(data.dtype),
                "shape": list(data.shape),
                "sha256": hashlib.sha256(data.tobytes()).hexdigest(),
            }
        }
    if isinstance(obj, (np.bool_,)):
        return bool(obj)
    if isinstance(obj, np.integer):
        return int(obj)
    if isinstance(obj, np.floating):
        return float(obj)
    if obj is None or isinstance(obj, (bool, int, float, str)):
        return obj
    raise TypeError(
        f"cannot canonicalise {type(obj).__name__} for hashing"
    )


def canonical_json(obj) -> str:
    """Deterministic JSON text of ``obj`` (sorted keys, no whitespace)."""
    return json.dumps(
        _canonize(obj), sort_keys=True, separators=(",", ":")
    )


def content_hash(obj) -> str:
    """SHA-256 hex digest of the canonical JSON rendering of ``obj``."""
    payload = canonical_json({"scheme": HASH_SCHEME, "value": obj})
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


# -- domain fingerprints ----------------------------------------------------


def accelerator_fingerprint(accelerator: ImageAccelerator) -> Dict:
    """Identity of an accelerator: its complete dataflow graph.

    Two accelerator instances with identical graphs (nodes, wiring,
    widths, attributes, output, default extra inputs) are the same
    hardware; class names are included only as a human-readable anchor.
    """
    nodes = [
        {
            "name": node.name,
            "kind": node.kind.value,
            "operands": list(node.operands),
            "width": node.width,
            "attrs": dict(node.attrs),
        }
        for node in accelerator.graph.nodes()
    ]
    return {
        "class": type(accelerator).__name__,
        "name": accelerator.name,
        "window": accelerator.window,
        "nodes": nodes,
        "output": accelerator.graph.output,
        "extra_inputs": accelerator.extra_inputs(),
    }


def library_fingerprint(library: ComponentLibrary) -> Dict:
    """Identity of a characterised library: all component records."""
    components = sorted(
        (record.to_dict() for record in library),
        key=lambda d: (d["family"], d["width"], canonical_json(d)),
    )
    return {"components": components}


def images_fingerprint(images: Sequence[np.ndarray]) -> List:
    """Identity of a benchmark-image set (order matters)."""
    return [_canonize(np.asarray(img)) for img in images]
