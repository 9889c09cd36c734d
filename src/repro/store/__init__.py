"""Persistent experiment store: artifact cache, run ledger, resume.

The autoAx methodology front-loads expensive work — library
characterisation, thousands of synthesis runs, model fitting — that is
identical across many invocations.  This package makes that work
persistent and shareable:

* :class:`~repro.store.artifacts.ArtifactStore` — a content-addressed
  blob cache (sqlite3 index + files, stdlib only).  Artifacts are keyed
  by the SHA-256 of their canonical inputs (library fingerprint + scale,
  accelerator dataflow graph, configuration record tuples, model name +
  training-set hash — see :mod:`~repro.store.hashing`), written via
  atomic rename so concurrent readers and writers never observe a torn
  blob, and read back through typed codecs (libraries, synthesis
  reports, QoR evaluation matrices, benchmark images, fitted models,
  sparsely pickled operand profiles).
  Corrupt or stale entries are evicted and recomputed, never raised.
* :class:`~repro.store.ledger.RunLedger` — one JSON manifest per
  pipeline invocation (params, seed, config hash, per-stage timings and
  cache hits, artifact refs) under ``<root>/runs/``; the basis of the
  ``repro runs list|show|resume|gc`` CLI and of garbage collection
  (``gc`` keeps exactly the artifacts some manifest references).
* resumable pipelines — ``AutoAx.run()`` decomposes into cache-aware
  stages (characterize -> reduce -> train -> DSE -> real-evaluate) that
  skip any stage whose inputs hash to a stored artifact, and the
  evaluation engine's synthesis memo can be backed by
  :class:`~repro.store.synth_cache.StoreSynthCache` so reports are
  shared across processes and runs.

Every surface that takes a store location (``--store``,
``REPRO_STORE_DIR``) accepts a bare path or ``sqlite:PATH``, parsed by
:func:`~repro.store.artifacts.open_store`; any other scheme is
rejected.

Local disk layout — everything under ``REPRO_STORE_DIR``, else
``.repro-store``::

    index.sqlite3                       artifact index
    objects/<kind>/<k0k1>/<key>.<ext>   content-addressed blobs
    runs/<run_id>.json                  run-ledger manifests
"""

import importlib

# Submodule -> the public names it defines, imported on first access
# (PEP 562): the replay lookup reads the index and the ledger without
# loading the hashing helpers' numpy or the synthesis memo.
_EXPORTS = {
    "artifacts": (
        "ArtifactRef",
        "ArtifactStore",
        "DEFAULT_STORE_DIR",
        "STORE_ENV",
        "open_store",
        "require_store",
    ),
    "hashing": (
        "accelerator_fingerprint",
        "canonical_json",
        "content_hash",
        "images_fingerprint",
        "library_fingerprint",
    ),
    "ledger": ("MANIFEST_VERSION", "RunLedger"),
    "synth_cache": ("StoreSynthCache", "synth_cache_for"),
}
_ORIGIN = {
    name: module for module, names in _EXPORTS.items() for name in names
}

__all__ = [
    "ArtifactRef",
    "ArtifactStore",
    "DEFAULT_STORE_DIR",
    "MANIFEST_VERSION",
    "RunLedger",
    "STORE_ENV",
    "StoreSynthCache",
    "accelerator_fingerprint",
    "canonical_json",
    "content_hash",
    "images_fingerprint",
    "library_fingerprint",
    "open_store",
    "require_store",
    "synth_cache_for",
]


def __getattr__(name):
    module = _ORIGIN.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{module}"), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
