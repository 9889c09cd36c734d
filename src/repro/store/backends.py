"""The byte layer under the artifact store: one sqlite index + blob tree.

:class:`SqliteBackend` holds content-addressed blobs (``put_bytes`` /
``put_many`` / ``get_bytes`` / ``delete`` / ``iter_refs`` / ``gc``)
under one root.  :class:`~repro.store.artifacts.ArtifactStore` layers
the typed codecs on top and every consumer (stage caches,
:class:`~repro.store.synth_cache.StoreSynthCache`, the library
pipeline) goes through that facade.

The backend is cheap to construct, picklable (live sqlite connections
and locks never cross pickling) and fork-aware: a cached connection is
pid-guarded the same way the runtime pid-guards its shared-memory
segments, so a forked child opens its own handle and never finalises
the parent's.
"""

from __future__ import annotations

import hashlib
import json
import os
import sqlite3
import tempfile
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.telemetry import get_metrics

#: Prefix of in-flight temp files (pre-rename); gc must never touch them.
_TMP_PREFIX = ".tmp-"

_SCHEMA = """
CREATE TABLE IF NOT EXISTS artifacts (
    kind TEXT NOT NULL,
    key TEXT NOT NULL,
    filename TEXT NOT NULL,
    sha256 TEXT NOT NULL,
    size INTEGER NOT NULL,
    created_at REAL NOT NULL,
    meta TEXT NOT NULL DEFAULT '{}',
    PRIMARY KEY (kind, key)
)
"""

#: sqlite connections inherited across ``fork`` are parked here instead
#: of being closed: sqlite3 forbids touching (even closing) a
#: connection from a process other than the one that created it, so a
#: forked child must never finalise the parent's handle — the same
#: discipline as the runtime's pid-guarded shared-memory segments,
#: which forked children never unlink.
_FORK_PARKED_CONNS: List[sqlite3.Connection] = []


def atomic_write_bytes(path: Path, data: bytes) -> None:
    """Write ``data`` to ``path`` via temp file + :func:`os.replace`.

    The rename is atomic within one filesystem, so concurrent readers
    see either the previous content or the full new content, never a
    torn write.  Shared by blob writes and ledger manifests.
    """
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(
        dir=path.parent, prefix=_TMP_PREFIX, suffix=path.suffix
    )
    try:
        with os.fdopen(fd, "wb") as handle:
            handle.write(data)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


@dataclass(frozen=True)
class ArtifactRef:
    """A stored artifact's address, blob file and metadata."""

    kind: str
    key: str
    path: Path
    sha256: str
    size: int


def _gc_count(stats: Dict, kind: str, size: int) -> None:
    stats["removed"] += 1
    stats["freed_bytes"] += size
    bucket = stats["by_kind"].setdefault(kind, {"count": 0, "bytes": 0})
    bucket["count"] += 1
    bucket["bytes"] += size


class SqliteBackend:
    """The local store layout: one sqlite index + blob tree.

    Persistent state is only the root path, so the backend is cheap to
    construct, safe to share across ``fork()`` and picklable into
    worker processes.  The sqlite connection is cached per process
    (keyed by pid: a forked child opens its own and *parks* the
    inherited parent handle rather than closing it, which sqlite
    forbids across processes) and opened with
    ``check_same_thread=False`` behind an instance lock so the serve
    layer's executor threads can share one backend.

    Keys are content hashes (hex), kinds are short identifiers; the
    codec layer above decides what the bytes mean.  ``ext`` is the blob
    filename suffix of the kind's codec.
    """

    def __init__(self, root) -> None:
        self._root = Path(root)
        self._conn: Optional[sqlite3.Connection] = None
        self._conn_pid: Optional[int] = None
        self._lock = threading.RLock()

    def __getstate__(self):
        return {"root": self._root}

    def __setstate__(self, state):
        self._root = state["root"]
        self._conn = None
        self._conn_pid = None
        self._lock = threading.RLock()

    @property
    def uri(self) -> str:
        """Round-trippable store URI of this backend."""
        return f"sqlite:{self._root}"

    @property
    def root(self) -> Path:
        return self._root

    def exists(self) -> bool:
        return self._root.is_dir()

    # -- plumbing ------------------------------------------------------------

    def _connect(self) -> sqlite3.Connection:
        pid = os.getpid()
        with self._lock:
            if self._conn is not None and self._conn_pid != pid:
                # Connected before a fork: the child parks the
                # inherited handle (never closes or reuses it) and
                # opens its own, exactly like the runtime's shm
                # segments are pid-guarded against child unlinks.
                _FORK_PARKED_CONNS.append(self._conn)
                self._conn = None
            if self._conn is None:
                self._root.mkdir(parents=True, exist_ok=True)
                conn = sqlite3.connect(
                    self._root / "index.sqlite3",
                    timeout=30.0,
                    check_same_thread=False,
                )
                conn.execute(_SCHEMA)
                self._conn = conn
                self._conn_pid = pid
            return self._conn

    def _blob_path(self, kind: str, key: str, ext: str) -> Path:
        return self._root / "objects" / kind / key[:2] / f"{key}.{ext}"

    def _index(
        self, kind: str, key: str, path: Path, digest: str,
        size: int, meta: Optional[Dict],
    ) -> None:
        self._index_many([(kind, key, path, digest, size, meta)])

    def _index_many(self, entries: List[Tuple]) -> None:
        """Index ``(kind, key, path, sha256, size, meta)`` entries in one
        transaction."""
        now = time.time()
        rows = [
            (
                kind,
                key,
                str(path.relative_to(self._root)),
                digest,
                size,
                now,
                json.dumps(meta or {}, sort_keys=True),
            )
            for kind, key, path, digest, size, meta in entries
        ]
        with self._lock, self._connect() as conn:
            conn.executemany(
                "INSERT OR REPLACE INTO artifacts "
                "(kind, key, filename, sha256, size, created_at, meta) "
                "VALUES (?, ?, ?, ?, ?, ?, ?)",
                rows,
            )

    def _row(self, kind: str, key: str):
        with self._lock, self._connect() as conn:
            return conn.execute(
                "SELECT filename, sha256 FROM artifacts "
                "WHERE kind = ? AND key = ?",
                (kind, key),
            ).fetchone()

    def _evict(self, kind: str, key: str, ext: str = "json") -> None:
        self._drop_row(kind, key)
        try:
            self._blob_path(kind, key, ext).unlink()
        except OSError:
            pass

    def _drop_row(self, kind: str, key: str) -> None:
        with self._lock, self._connect() as conn:
            conn.execute(
                "DELETE FROM artifacts WHERE kind = ? AND key = ?",
                (kind, key),
            )

    # -- blobs ---------------------------------------------------------------

    def put_bytes(
        self,
        kind: str,
        key: str,
        data: bytes,
        ext: str = "json",
        meta: Optional[Dict] = None,
    ) -> ArtifactRef:
        """Store ``data`` under ``(kind, key)``; idempotent."""
        return self.put_many(kind, [(key, data, meta)], ext=ext)[0]

    def put_many(
        self,
        kind: str,
        items: Sequence[Tuple[str, bytes, Optional[Dict]]],
        ext: str = "json",
    ) -> List[ArtifactRef]:
        """Write every blob (temp file, fsync, atomic rename), then
        index them all in one transaction.

        A crash between the renames and the commit leaves orphan blobs,
        which :meth:`get_bytes` adopts on first read.
        """
        entries = []
        for key, data, meta in items:
            digest = hashlib.sha256(data).hexdigest()
            path = self._blob_path(kind, key, ext)
            atomic_write_bytes(path, data)
            entries.append((kind, key, path, digest, len(data), meta))
        self._index_many(entries)
        return [
            ArtifactRef(kind, key, path, digest, size)
            for kind, key, path, digest, size, _ in entries
        ]

    def get_bytes(
        self, kind: str, key: str, ext: str = "json"
    ) -> Optional[bytes]:
        """The blob bytes at ``(kind, key)``, or ``None`` on a miss.

        Reads self-heal: stale index rows are evicted, orphan blobs
        adopted, checksum drift re-indexed.
        """
        row = self._row(kind, key)
        path = self._blob_path(kind, key, ext)
        if row is not None:
            path = self._root / row[0]
        try:
            data = path.read_bytes()
        except OSError:
            if row is not None:  # stale index entry: blob is gone
                self._evict(kind, key, ext)
                get_metrics().inc("store.evictions")
            return None
        digest = hashlib.sha256(data).hexdigest()
        if row is None or digest != row[1]:
            # A blob without an index row (a writer died between
            # rename and insert) is adopted; a checksum mismatch with
            # surviving bytes (two writers raced; the last rename won)
            # re-indexes them instead of discarding them.
            self._index(kind, key, path, digest, len(data), None)
        return data

    def delete(self, kind: str, key: str, ext: str = "json") -> None:
        """Drop ``(kind, key)``; missing entries are a no-op."""
        self._evict(kind, key, ext)

    def iter_refs(self, kind: Optional[str] = None) -> List[ArtifactRef]:
        """Indexed artifacts sorted by ``(kind, key)``."""
        if not (self._root / "index.sqlite3").exists():
            return []
        query = "SELECT kind, key, filename, sha256, size FROM artifacts"
        params: Tuple = ()
        if kind is not None:
            query += " WHERE kind = ?"
            params = (kind,)
        with self._lock, self._connect() as conn:
            rows = conn.execute(query + " ORDER BY kind, key",
                                params).fetchall()
        return [
            ArtifactRef(k, key, self._root / fn, sha, size)
            for k, key, fn, sha, size in rows
        ]

    def gc(
        self,
        referenced: Set[Tuple[str, str]],
        keep_kinds: Set[str],
        dry_run: bool = False,
    ) -> Dict:
        """Drop artifacts neither referenced nor of a kept kind, plus
        orphan blob files.

        With ``dry_run`` nothing is deleted; the returned statistics
        (``removed``/``freed_bytes``/``kept``/``by_kind``) describe
        what a real pass would remove.
        """
        stats = {
            "removed": 0,
            "freed_bytes": 0,
            "kept": 0,
            "dry_run": dry_run,
            "by_kind": {},
        }
        gone_paths: Set[Path] = set()
        keep_paths: Set[Path] = set()
        for ref in self.iter_refs():
            if (ref.kind, ref.key) in referenced or ref.kind in keep_kinds:
                stats["kept"] += 1
                keep_paths.add(ref.path)
                continue
            _gc_count(stats, ref.kind, ref.size)
            gone_paths.add(ref.path)
            if not dry_run:
                self._drop_row(ref.kind, ref.key)
                try:
                    ref.path.unlink()
                except OSError:
                    pass
        objects = self._root / "objects"
        if objects.is_dir():
            for path in sorted(objects.rglob("*")):
                if path.name.startswith(_TMP_PREFIX):
                    continue  # in-flight write of a concurrent process
                if (
                    path.is_file()
                    and path not in keep_paths
                    and path not in gone_paths
                ):
                    try:
                        size = path.stat().st_size
                        if not dry_run:
                            path.unlink()
                    except OSError:
                        continue
                    kind = path.relative_to(objects).parts[0]
                    _gc_count(stats, kind, size)
        return stats
