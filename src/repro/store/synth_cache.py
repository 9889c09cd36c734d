"""Synthesis-report caches pluggable into the evaluation engine.

The engine's in-memory memo dies with the process;
:class:`StoreSynthCache` backs it with an :class:`ArtifactStore` so
synthesis reports survive across processes and runs and are shared by
concurrent workers (atomic blob writes make racing puts harmless — both
sides write identical content-addressed reports).

The engine is duck-typed: any object with ``get(memo_key)`` /
``put(memo_key, report)`` works.  Keys are the engine's memo tuples
(sorted ``(op name, component name)`` pairs); the cache scopes them with
a *namespace* — the accelerator fingerprint hash — because the composed
netlist (and hence the report) depends on the accelerator, not just the
chosen components.
"""

from __future__ import annotations

from typing import Optional, Tuple

from repro.store.artifacts import ArtifactStore
from repro.store.hashing import content_hash

MemoKey = Tuple[Tuple[str, str], ...]


class StoreSynthCache:
    """Synthesis cache persisted in an :class:`ArtifactStore`.

    Holds only the store (a path) and the namespace string, so it is
    picklable and fork-safe for the engine's multiprocessing workers.
    """

    KIND = "synthesis"

    def __init__(self, store: ArtifactStore, namespace: str) -> None:
        self.store = store
        self.namespace = namespace

    def _key(self, memo_key: MemoKey) -> str:
        return content_hash(
            {
                "namespace": self.namespace,
                "records": [list(pair) for pair in memo_key],
            }
        )

    def get(self, memo_key: MemoKey):
        return self.store.get(self.KIND, self._key(memo_key))

    def put(self, memo_key: MemoKey, report) -> None:
        self.store.put(
            self.KIND,
            self._key(memo_key),
            report,
            meta={"namespace": self.namespace},
        )


def synth_cache_for(
    store: Optional[ArtifactStore], accelerator_hash: str
) -> Optional[StoreSynthCache]:
    """A store-backed cache scoped to one accelerator, or ``None``."""
    if store is None:
        return None
    return StoreSynthCache(store, accelerator_hash)
