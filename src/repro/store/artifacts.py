"""Content-addressed artifact cache: typed codecs over the sqlite store.

:class:`ArtifactStore` is the facade every consumer uses; the actual
blob/index plumbing lives in :class:`~repro.store.backends.SqliteBackend`,
one sqlite index + blob tree::

    <root>/
      index.sqlite3             -- (kind, key) -> blob metadata
      objects/<kind>/<k0k1>/<key>.<ext>   -- the blobs themselves
      runs/<run_id>.json        -- run-ledger manifests (ledger.py)

Writes are crash- and concurrency-safe without locks: blobs land via
write-to-temp + :func:`os.replace` (atomic on POSIX within one
filesystem), and the sqlite index is only ever told about a blob after
the rename (:meth:`ArtifactStore.put_many` indexes a whole batch of
renamed blobs in one transaction).  Readers verify the blob's SHA-256 against the index row and
treat any mismatch, truncation or decode failure as a cache miss — the
offending entry is evicted and the caller recomputes.  A blob without an
index row (a writer died between rename and insert, or two processes
raced) is adopted back into the index on first read.

Typed codecs translate domain objects to blob bytes per *kind*:
libraries share the JSON format of :mod:`repro.library.io`, synthesis
reports and QoR evaluation matrices are canonical JSON, fitted models
and operand profiles are pickles (stdlib, local trusted cache).
"""

from __future__ import annotations

import json
import os
import pickle
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, Iterable, List, Optional, Set, Tuple

from repro.errors import StoreError
from repro.store.backends import ArtifactRef, SqliteBackend
from repro.store.uri import parse_store_uri
from repro.telemetry import get_metrics
from repro.utils.validation import check_env_dir

#: Environment knob: the store root (a path or store URI).
STORE_ENV = "REPRO_STORE_DIR"

#: Default store root in the working tree.
DEFAULT_STORE_DIR = ".repro-store"


def _env_store_root() -> str:
    """``REPRO_STORE_DIR`` if set (blank is an error), else the default."""
    value = os.environ.get(STORE_ENV)
    if value is None:
        return DEFAULT_STORE_DIR
    return check_env_dir(value, source=STORE_ENV)


def default_store_dir() -> Path:
    """Resolve the *local* store root: ``REPRO_STORE_DIR``, else
    ``.repro-store``.

    A set-but-blank value is a configuration error (see
    :func:`~repro.utils.validation.check_env_dir`), not a silent
    fallback.  Callers that also accept store URIs go through
    :func:`open_store` instead, which resolves the same knob through
    :func:`~repro.store.uri.parse_store_uri`.
    """
    return Path(_env_store_root())


# -- codecs -----------------------------------------------------------------


@dataclass(frozen=True)
class Codec:
    """Blob (de)serialisation of one artifact kind."""

    encode: Callable[[object], bytes]
    decode: Callable[[bytes], object]
    ext: str = "json"


def _json_encode(obj) -> bytes:
    return json.dumps(obj, sort_keys=True).encode("utf-8")


def _json_decode(data: bytes):
    return json.loads(data.decode("utf-8"))


def _library_encode(library) -> bytes:
    from repro.library.io import library_payload

    return _json_encode(library_payload(library))


def _library_decode(data: bytes):
    from repro.library.io import library_from_payload

    return library_from_payload(_json_decode(data))


def _synthesis_encode(report) -> bytes:
    return _json_encode(
        {
            "area": report.area,
            "delay": report.delay,
            "power": report.power,
            "gate_count": report.gate_count,
            "cells": dict(report.cells),
        }
    )


def _synthesis_decode(data: bytes):
    from repro.synthesis.synthesizer import SynthesisReport

    payload = _json_decode(data)
    return SynthesisReport(
        area=payload["area"],
        delay=payload["delay"],
        power=payload["power"],
        gate_count=payload["gate_count"],
        cells=dict(payload["cells"]),
    )


def _evaluations_encode(results) -> bytes:
    return _json_encode(
        [
            {
                "qor": r.qor,
                "area": r.area,
                "delay": r.delay,
                "power": r.power,
            }
            for r in results
        ]
    )


def _evaluations_decode(data: bytes):
    from repro.core.engine import EvaluationResult

    return [EvaluationResult(**entry) for entry in _json_decode(data)]


def _pickle_encode(obj) -> bytes:
    return pickle.dumps(obj, protocol=pickle.HIGHEST_PROTOCOL)


def _pickle_decode(data: bytes):
    return pickle.loads(data)


#: kind -> codec.  Unlisted kinds fall back to canonical JSON.
CODECS: Dict[str, Codec] = {
    "library": Codec(_library_encode, _library_decode, "json"),
    # Per-component memo entries of the library-construction pipeline:
    # plain ComponentRecord.to_dict documents, canonical JSON.
    "component": Codec(_json_encode, _json_decode, "json"),
    "synthesis": Codec(_synthesis_encode, _synthesis_decode, "json"),
    "evaluations": Codec(_evaluations_encode, _evaluations_decode, "json"),
    "training-set": Codec(_json_encode, _json_decode, "json"),
    "space": Codec(_json_encode, _json_decode, "json"),
    "dse": Codec(_json_encode, _json_decode, "json"),
    "profiles": Codec(_pickle_encode, _pickle_decode, "pkl"),
    "models": Codec(_pickle_encode, _pickle_decode, "pkl"),
}

_DEFAULT_CODEC = Codec(_json_encode, _json_decode, "json")


class ArtifactStore:
    """Typed content-addressed cache over one sqlite store.

    ``ArtifactStore(root)`` opens the
    :class:`~repro.store.backends.SqliteBackend` at ``root`` (a path or
    an existing backend).

    Stores are cheap to construct, safe to share across fork() and
    picklable into worker processes — live connections never cross
    either boundary (see :mod:`repro.store.backends`).
    """

    def __init__(self, root) -> None:
        self.backend = (
            root if isinstance(root, SqliteBackend)
            else SqliteBackend(Path(root))
        )

    def __getstate__(self):
        return {"backend": self.backend}

    def __setstate__(self, state):
        self.backend = state["backend"]

    @property
    def root(self) -> Path:
        """Root directory of the store."""
        return self.backend.root

    @property
    def uri(self) -> str:
        """Round-trippable store URI of the underlying backend."""
        return self.backend.uri

    # -- plumbing -----------------------------------------------------------

    @staticmethod
    def _codec(kind: str) -> Codec:
        return CODECS.get(kind, _DEFAULT_CODEC)

    def _evict(self, kind: str, key: str) -> None:
        self.backend.delete(kind, key, self._codec(kind).ext)

    # -- primary API --------------------------------------------------------

    def put(
        self, kind: str, key: str, obj, meta: Optional[Dict] = None
    ) -> ArtifactRef:
        """Encode and store ``obj`` under ``(kind, key)`` atomically."""
        return self.put_many(kind, [(key, obj, meta)])[0]

    def put_many(
        self,
        kind: str,
        items: Iterable[Tuple[str, object, Optional[Dict]]],
    ) -> List[ArtifactRef]:
        """Encode and store each ``(key, obj, meta)`` under ``kind``.

        Every blob lands atomically as with :meth:`put`; the index
        updates commit in one transaction.  Counts ``store.puts`` and ``store.bytes_written``
        per blob.
        """
        codec = self._codec(kind)
        blobs = [(key, codec.encode(obj), meta) for key, obj, meta in items]
        refs = self.backend.put_many(kind, blobs, ext=codec.ext)
        metrics = get_metrics()
        metrics.inc("store.puts", len(blobs))
        metrics.inc(
            "store.bytes_written", sum(len(data) for _, data, _ in blobs)
        )
        return refs

    def get(self, kind: str, key: str):
        """Decode the artifact at ``(kind, key)``; ``None`` on any miss.

        Corruption (truncated or undecodable blob) and staleness (index
        row without blob) are *transparent* misses: the entry is evicted
        and the caller recomputes.  The blob is the source of truth and
        the index only a cache of it — the backend adopts orphan blobs
        and re-indexes checksum drift on read (see
        :meth:`repro.store.backends.SqliteBackend.get_bytes`), while
        decode failures are evicted here, above the byte layer.
        """
        metrics = get_metrics()
        data = self.backend.get_bytes(
            kind, key, ext=self._codec(kind).ext
        )
        if data is None:
            metrics.inc("store.misses")
            return None
        try:
            obj = self._codec(kind).decode(data)
        except Exception:
            self._evict(kind, key)
            metrics.inc("store.evictions")
            metrics.inc("store.misses")
            return None
        metrics.inc("store.hits")
        metrics.inc("store.bytes_read", len(data))
        return obj

    def has(self, kind: str, key: str) -> bool:
        return self.get(kind, key) is not None

    def delete(self, kind: str, key: str) -> None:
        self._evict(kind, key)

    # -- enumeration / maintenance ------------------------------------------

    def entries(
        self, kind: Optional[str] = None
    ) -> List[ArtifactRef]:
        """Indexed artifacts as :class:`ArtifactRef`, optionally one kind."""
        return self.backend.iter_refs(kind)

    def keys(self, kind: str) -> List[str]:
        return [ref.key for ref in self.entries(kind)]

    def stats(self) -> Dict[str, Dict[str, int]]:
        """Per-kind artifact counts and byte totals."""
        out: Dict[str, Dict[str, int]] = {}
        for ref in self.entries():
            bucket = out.setdefault(ref.kind, {"count": 0, "bytes": 0})
            bucket["count"] += 1
            bucket["bytes"] += ref.size
        return out

    #: Kinds kept by default during gc even when no manifest references
    #: them: content-shared pools (one blob serves many runs), not
    #: run-owned stage outputs.  Per-component memo entries live here
    #: too — thousands of them serve every future library build, so
    #: manifests deliberately do not enumerate them.
    SHARED_KINDS = ("synthesis", "library", "component")

    def gc(
        self,
        referenced: Iterable[Tuple[str, str]],
        keep_kinds: Optional[Iterable[str]] = None,
        dry_run: bool = False,
    ) -> Dict:
        """Drop artifacts not in ``referenced`` plus orphan blob files.

        ``referenced`` lists the ``(kind, key)`` pairs to keep (typically
        the union of all run-ledger manifests' artifact refs).  Kinds in
        ``keep_kinds`` (default :data:`SHARED_KINDS`) survive without a
        reference — synthesis reports and libraries are shared across
        runs rather than owned by one manifest.  With ``dry_run``
        nothing is deleted; the statistics describe what a real pass
        would remove.  Returns removal statistics including per-kind
        ``by_kind`` count/byte buckets.
        """
        keep: Set[Tuple[str, str]] = set(
            (kind, key) for kind, key in referenced
        )
        shared = set(
            self.SHARED_KINDS if keep_kinds is None else keep_kinds
        )
        stats = self.backend.gc(keep, shared, dry_run=dry_run)
        metrics = get_metrics()
        metrics.inc("store.gc_runs")
        if not dry_run:
            metrics.inc("store.gc_removed", stats["removed"])
            metrics.inc("store.gc_freed_bytes", stats["freed_bytes"])
        return stats

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<ArtifactStore {self.uri}>"


def open_store(root=None) -> ArtifactStore:
    """An :class:`ArtifactStore` at ``root`` (default: env-resolved).

    ``root`` may be a path, a ``sqlite:PATH`` store URI, a backend,
    or an existing store (returned as-is);
    ``REPRO_STORE_DIR`` accepts the same URIs.
    """
    if isinstance(root, ArtifactStore):
        return root
    if root is None:
        root = _env_store_root()
    return ArtifactStore(parse_store_uri(root))


def require_store(root=None) -> ArtifactStore:
    """Like :func:`open_store` but the store must already exist."""
    store = open_store(root)
    if not store.backend.exists():
        raise StoreError(
            f"no experiment store at {store.uri} (run with --store or "
            f"set {STORE_ENV} first)"
        )
    return store
