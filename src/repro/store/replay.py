"""Replay: serve a pipeline command from the result an identical run
recorded.

A ``run``, ``workloads run`` or ``search`` with a store records its
output document as a ``result`` artifact under :func:`replay_key`, a
hash of what the command *is*:

* its result-shaping params (``scale`` already resolved, ``out``
  dropped: where a CSV goes changes no result);
* :func:`source_digest`, a digest of every ``*.py`` file of the
  ``repro`` package, so a result never outlives the code that computed
  it;
* the bytes of a ``run --library FILE``, so an edited file misses.

None of that needs numpy or the pipeline, so the CLI looks the key up
before it imports either: :func:`lookup` serves a full hit from the
stdlib, the store index and the ledger alone.  Stage, component and
library keys do not carry the source digest, so after a code edit the
first run re-executes through its (still valid) stage artifacts and
records a new result.
"""

from __future__ import annotations

import functools
import hashlib
import os
from pathlib import Path
from typing import Dict, List, Optional

from repro.store.hashing import content_hash

#: Root of the ``repro`` package, the tree :func:`source_digest` hashes.
PACKAGE_ROOT = Path(__file__).resolve().parents[1]


@functools.lru_cache(maxsize=None)
def _tree_digest(root: Path) -> str:
    digest = hashlib.sha256()
    paths = []
    for folder, _, files in os.walk(root):
        paths.extend(
            os.path.join(folder, name) for name in files
            if name.endswith(".py")
        )
    for path in sorted(paths):
        name = os.path.relpath(path, root).replace(os.sep, "/")
        data = Path(path).read_bytes()
        digest.update(f"{name}\0{len(data)}\0".encode("utf-8"))
        digest.update(data)
    return digest.hexdigest()


def source_digest() -> str:
    """SHA-256 over the relative path and bytes of every ``*.py`` file
    under the ``repro`` package, computed once per process."""
    return _tree_digest(PACKAGE_ROOT)


def replay_key(params: Dict) -> str:
    """Store key of the ``result`` a command with ``params`` records.

    ``params`` are the command's recorded params with ``scale``
    resolved; a ``library`` file they name enters by its bytes.
    """
    shaping = {name: value for name, value in params.items()
               if name != "out"}
    if shaping.get("library"):
        data = Path(shaping["library"]).read_bytes()
        shaping["library"] = hashlib.sha256(data).hexdigest()
    return content_hash({"params": shaping, "source": source_digest()})


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


def lookup(store, key: str) -> Optional[Dict]:
    """The recorded document of a finished identical run, or ``None``.

    A hit needs the ``result`` blob to pass its checksum, every stage
    artifact it references to have an index row and a blob on disk,
    and the manifest of the run that recorded it to still exist; the
    replay is then counted on that manifest, and no other is written.
    The document is served as the stages would have reported it: every
    stage a hit that took no time, and no engine work.
    """
    from repro.store.ledger import RunLedger

    recorded = store.get("result", key, verified=True)
    if recorded is None:
        return None
    refs = [(a["kind"], a["key"]) for a in recorded["artifacts"]]
    if not store.present(refs):
        return None
    if RunLedger(store).record_replay(recorded["run_id"]) is None:
        return None
    doc = recorded["doc"]
    if "stage_cache" in doc:
        doc["stage_cache"] = {name: "hit" for name in doc["stage_cache"]}
        doc["timings"] = {name: 0.0 for name in doc["timings"]}
        doc["engine_stats"] = idle_engine_stats()
    return doc


def record(store, key: str, run_id: str, doc: Dict,
           artifacts: List[Dict[str, str]]) -> None:
    """Record a finished run's output ``doc`` under ``key``, with the
    stage ``artifacts`` a replay needs present."""
    store.put("result", key, {
        "run_id": run_id, "doc": doc, "artifacts": artifacts,
    })
