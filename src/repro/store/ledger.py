"""Run ledger — every pipeline invocation as a reproducible manifest.

A *manifest* is one JSON document recording what a run was (kind,
label, parameters, seed), what identified its inputs (the config
hash), how it went (per-stage wall time and cache hit/miss) and which
store artifacts it produced or reused.  Manifests make runs enumerable
(``repro runs list``), inspectable (``show``), re-executable against
the warm store (``resume``) and the root set for garbage collection
(``gc`` keeps exactly the artifacts some manifest references).

A pipeline manifest also references its run's ``result`` artifact, the
recorded output a later identical command is served from.  Such a
replay writes no manifest of its own: it counts itself on the manifest
it was served from (``replays``, ``last_replayed_at``).  The reference
names the package source digest the result was keyed with, so ``gc``
drops a result that no command of the current code can look up.

Manifests are ``<root>/runs/<run_id>.json`` files next to the
artifact index; construct the ledger from an
:class:`~repro.store.artifacts.ArtifactStore` or its bare root path —
both observe the same documents.
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path
from typing import Dict, List, Optional, Set, Tuple

from repro.errors import StoreError
from repro.store import replay
from repro.store.artifacts import atomic_write_bytes

#: Manifest format version (bump on incompatible schema changes).
MANIFEST_VERSION = 1


def _iso(ts: float) -> str:
    return time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime(ts))


class RunLedger:
    """Append-only collection of run manifests of one store."""

    def __init__(self, root) -> None:
        if not isinstance(root, (str, os.PathLike)):
            root = root.root  # an ArtifactStore
        self.root = Path(root)
        self.runs_dir = self.root / "runs"

    def _path(self, run_id: str) -> Path:
        return self.runs_dir / f"{run_id}.json"

    # -- creation -----------------------------------------------------------

    @staticmethod
    def new_run_id() -> str:
        """Sortable, collision-resistant run identifier."""
        stamp = time.strftime("%Y%m%dT%H%M%SZ", time.gmtime())
        return f"{stamp}-{os.urandom(4).hex()}"

    def record(
        self,
        run_id: str,
        kind: str,
        label: str,
        params: Dict,
        config_hash: str,
        stages: List[Dict],
        seed: Optional[int] = None,
        status: str = "complete",
        extra: Optional[Dict] = None,
        result_key: Optional[str] = None,
    ) -> Dict:
        """Write (atomically) and return the manifest of one run.

        ``result_key`` is the key of the ``result`` artifact that
        records the run's outcome, if the caller keeps one; its
        reference carries the :func:`~repro.store.replay.source_digest`
        that key was made with.
        """
        now = time.time()
        manifest = {
            "version": MANIFEST_VERSION,
            "run_id": run_id,
            "kind": kind,
            "label": label,
            "params": params,
            "seed": seed,
            "config_hash": config_hash,
            "status": status,
            "created_at": _iso(now),
            "created_ts": now,
            "stages": stages,
            "total_seconds": round(
                sum(s.get("seconds", 0.0) for s in stages), 6
            ),
        }
        if extra:
            manifest["extra"] = extra
        if result_key is not None:
            manifest["result"] = {
                "kind": "result", "key": result_key,
                "source": replay.source_digest(),
            }
        self._write(manifest)
        return manifest

    def _write(self, manifest: Dict) -> None:
        data = json.dumps(manifest, sort_keys=True, indent=2)
        atomic_write_bytes(
            self._path(manifest["run_id"]), data.encode("utf-8")
        )

    def record_replay(self, run_id: str) -> Optional[Dict]:
        """Count one replay served from ``run_id``'s recorded result.

        Bumps the manifest's ``replays`` and stamps
        ``last_replayed_at``, rewriting the file atomically; returns
        the updated manifest, or ``None`` when it is gone.  Two
        replays racing may count once.
        """
        try:
            manifest = json.loads(self._path(run_id).read_text())
        except (OSError, json.JSONDecodeError):
            return None
        manifest["replays"] = manifest.get("replays", 0) + 1
        manifest["last_replayed_at"] = _iso(time.time())
        self._write(manifest)
        return manifest

    # -- enumeration --------------------------------------------------------

    def runs(self, kind: Optional[str] = None) -> List[Dict]:
        """All manifests, oldest first (undecodable files are skipped).

        ``kind`` restricts the listing to one manifest kind (e.g.
        ``"workload"`` or ``"search"``).
        """
        manifests = []
        for path in sorted(self.runs_dir.glob("*.json")):
            if path.name.startswith("."):
                continue  # in-flight atomic write of another process
            try:
                manifests.append(json.loads(path.read_text()))
            except (OSError, json.JSONDecodeError):
                continue
        if kind is not None:
            manifests = [
                m for m in manifests if m.get("kind") == kind
            ]
        manifests.sort(
            key=lambda m: (m.get("created_ts", 0.0),
                           m.get("run_id", ""))
        )
        return manifests

    def get(self, run_id: str) -> Dict:
        try:
            return json.loads(self._path(run_id).read_text())
        except (OSError, json.JSONDecodeError):
            raise StoreError(
                f"no run {run_id!r} in ledger at {self.runs_dir}"
            ) from None

    # -- garbage-collection roots -------------------------------------------

    def referenced_artifacts(self) -> Set[Tuple[str, str]]:
        """The ``(kind, key)`` pairs referenced by any manifest.

        A ``result`` recorded under another package source digest is
        left out: its key carries that digest, so no command of the
        current code looks it up.  A reference without a digest
        (written before references carried one) is kept.
        """
        refs: Set[Tuple[str, str]] = set()
        source = replay.source_digest()
        for manifest in self.runs():
            for stage in manifest.get("stages", ()):
                for artifact in stage.get("artifacts", ()):
                    refs.add((artifact["kind"], artifact["key"]))
            result = manifest.get("result")
            if result and result.get("source", source) == source:
                refs.add((result["kind"], result["key"]))
        return refs

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<RunLedger {self.runs_dir}>"
