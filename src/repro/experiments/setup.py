"""Shared experiment fixtures: the component library and benchmark images.

Generating and characterising a library takes tens of seconds, so the
default setup caches it in the persistent experiment store
(:mod:`repro.store`) — content-addressed by generation plan and circuit
model versions, under ``REPRO_STORE_DIR`` (else ``.repro-store``).
``REPRO_SCALE`` overrides the library scale: 1.0 regenerates the
paper-size Table 2 library (tens of thousands of components — expect a
long build).  :func:`workload_setup` keeps its benchmark images in the
same store (``images`` artifacts, see
:func:`~repro.imaging.datasets.benchmark_images`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.accelerators.base import ImageAccelerator
from repro.imaging.datasets import benchmark_images
from repro.library.component import FAMILY_REGISTRY, OpSignature
from repro.library.generation import (
    PAPER_COUNTS,
    GenerationPlan,
    scaled_plan,
)
from repro.library.library import ComponentLibrary
from repro.settings import (  # the scale knob, re-exported here
    DEFAULT_SCALE,
    SCALE_ENV,
    default_scale,
)
from repro.store import ArtifactStore, content_hash, open_store

if TYPE_CHECKING:
    from repro.core.engine import EvaluationEngine
    from repro.workloads import WorkloadBundle, WorkloadRegistry

#: Default benchmark image geometry (rows, cols).  The paper uses
#: 384x256 px; benches default to quarter-size for turnaround and accept
#: the paper geometry via ``paper_scale=True``.
DEFAULT_SHAPE = (128, 192)
PAPER_SHAPE = (256, 384)


@dataclass
class ExperimentSetup:
    """Everything the experiment drivers need."""

    library: ComponentLibrary
    images: List[np.ndarray]
    seed: int = 0

    @property
    def image_shape(self) -> Tuple[int, int]:
        return tuple(self.images[0].shape)


#: Per-kind Table 2 reference counts used to scale workload libraries
#: (the largest paper count of each kind, so e.g. any adder signature
#: scales like the 8-bit adder pool).
KIND_REFERENCE = {
    kind: max(
        count for (k, _), count in PAPER_COUNTS.items() if k == kind
    )
    for kind in ("add", "sub", "mul")
}


def _plan_key(
    kind: str,
    plan: GenerationPlan,
    scale: float,
    signatures: Optional[List[OpSignature]] = None,
) -> str:
    """Content key of a generated library: everything that shapes it,
    including the behavioural model version of every circuit family.

    ``signatures`` names the subset of a restricted library; it enters
    the payload only then, so whole-plan keys never change.
    """
    payload = {
        "kind": kind,
        "models": {
            family: klass.model_version
            for family, klass in FAMILY_REGISTRY.items()
        },
        "counts": [
            [k, w, count]
            for (k, w), count in sorted(plan.counts.items())
        ],
        "seed": plan.seed,
        "sample_size": plan.sample_size,
        "scale": scale,
    }
    if signatures is not None:
        payload["signatures"] = [list(sig) for sig in signatures]
    return content_hash(payload)


def default_library_key(plan: GenerationPlan, scale: float) -> str:
    """Store key of the whole-library blob of a default Table 2 plan.

    Public because two CLI surfaces must agree on it: ``repro
    generate-library --store`` writes the blob under this key so
    ``repro run --store`` / :func:`scaled_library` read it back warm.
    """
    return _plan_key("default-library", plan, scale)


@dataclass(frozen=True)
class LibraryRequest:
    """A generated library, named by its store key before it is built.

    The key fixes the content (plan, scale, circuit model versions,
    signature subset), so it is the library's identity in stage keys;
    :meth:`load` materialises it.
    """

    key: str
    plan: GenerationPlan
    signatures: Optional[List[OpSignature]] = None

    def load(self, store: Optional[ArtifactStore]) -> ComponentLibrary:
        """Read the library from ``store``, else build (and store) it."""
        return _cached_library(store, self.key, self.plan, self.signatures)


def _cached_library(
    store: Optional[ArtifactStore],
    key: str,
    plan: GenerationPlan,
    signatures: Optional[List[OpSignature]] = None,
) -> ComponentLibrary:
    """Load the library from the store, else build it.

    Misses build through the parallel construction pipeline
    (:func:`repro.library.pipeline.build_library`), restricted to
    ``signatures`` when given: the runtime's worker processes and
    per-component memoisation in ``store``, so even a whole-library
    miss only recomputes components no previous plan characterised.
    With ``store=None`` (``use_cache=False``) nothing is read or
    written — the library is always regenerated.
    """
    from repro.library.pipeline import build_library

    if store is not None:
        library = store.get("library", key)
        if library is not None:
            return library
    # record_run=False: this build is a sub-step of the calling
    # pipeline run, whose manifest counts it (``library.*`` counters)
    # — the ledger lists runs, not stages.
    library = build_library(
        plan, store=store, record_run=False, signatures=signatures
    ).library
    if store is not None:
        store.put(
            "library", key,
            library,
            meta={"components": len(library)},
        )
    return library


def workload_plan(
    accelerator: ImageAccelerator,
    scale: float,
    seed: int = 0,
    floor: int = 64,
) -> GenerationPlan:
    """A generation plan covering exactly ``accelerator``'s signatures.

    The window family derives operand widths from the arithmetic, so a
    workload may need signatures outside the paper's Table 2 set (e.g.
    14-bit adders); this sizes each one from the per-kind Table 2
    reference count at ``scale``, floored so small signatures stay
    populated enough for per-op Pareto filtering.
    """
    counts = {
        (kind, width): max(floor, int(round(KIND_REFERENCE[kind] * scale)))
        for kind, width in accelerator.op_inventory()
    }
    return GenerationPlan(counts, seed=seed)


def workload_library_request(
    accelerator: ImageAccelerator, scale: float, seed: int = 0
) -> LibraryRequest:
    """The library covering ``accelerator``'s signatures (see
    :func:`workload_plan`), cached per signature set."""
    plan = workload_plan(accelerator, scale, seed=seed)
    return LibraryRequest(_plan_key("workload-library", plan, scale), plan)


@dataclass
class WorkloadSetup:
    """A materialised workload plus the library covering its signatures."""

    bundle: WorkloadBundle
    library: ComponentLibrary
    seed: int = 0

    @property
    def accelerator(self) -> ImageAccelerator:
        return self.bundle.accelerator

    @property
    def images(self) -> List[np.ndarray]:
        return self.bundle.images

    @property
    def scenarios(self):
        return self.bundle.scenarios


def workload_setup(
    name: str,
    scale: Optional[float] = None,
    n_images: int = 4,
    image_shape: Optional[Tuple[int, int]] = None,
    seed: int = 0,
    use_cache: bool = True,
    registry: Optional[WorkloadRegistry] = None,
    store: Optional[ArtifactStore] = None,
) -> WorkloadSetup:
    """Build (or load from cache) everything a workload DSE run needs.

    The library is cached per *signature set*, so workloads sharing
    operation signatures (e.g. ``gaussian5`` and ``box5``) share one
    characterised library on disk; misses build through the parallel
    pipeline.  The cache is ``store`` when given, else the shared
    experiment store (:func:`~repro.store.open_store`); the bundle's
    benchmark images are read from (or written to) the same store.
    """
    from repro.workloads import build_bundle

    if scale is None:
        scale = default_scale()
    if image_shape is None:
        image_shape = DEFAULT_SHAPE
    if not use_cache:
        store = None
    elif store is None:
        store = open_store()
    bundle = build_bundle(
        name, n_images=n_images, image_shape=image_shape,
        registry=registry, store=store,
    )
    library = workload_library_request(
        bundle.accelerator, scale, seed=seed
    ).load(store)
    return WorkloadSetup(bundle=bundle, library=library, seed=seed)


def fit_search_models(
    space,
    engine: EvaluationEngine,
    n_train: int,
    n_test: int,
    engines: Sequence[str] = ("K-Neighbors",),
    seed: int = 0,
):
    """Fit the (QoR, area) estimation models a driver's search consumes.

    The training and held-out sets follow the ``rng=seed`` /
    ``seed + 1`` convention, engines are fidelity-ranked per target,
    and the best model of each target is returned as
    ``(qor_model, hw_model)``.
    """
    from repro.core.modeling import (
        build_training_set,
        fit_engines,
        select_best_model,
    )

    train = build_training_set(space, engine, n_train, rng=seed)
    test = build_training_set(space, engine, n_test, rng=seed + 1)
    qor_model = select_best_model(
        fit_engines(space, train, test, target="qor",
                    engines=list(engines), seed=seed)
    ).model
    hw_model = select_best_model(
        fit_engines(space, train, test, target="area",
                    engines=list(engines), seed=seed)
    ).model
    return qor_model, hw_model


def scaled_library(
    scale: float,
    seed: int = 0,
    store: Optional[ArtifactStore] = None,
    signatures: Optional[Iterable[OpSignature]] = None,
) -> ComponentLibrary:
    """The Table 2 library at ``scale``, store-cached when asked.

    See :func:`scaled_library_request` for ``signatures`` and the key.
    """
    return scaled_library_request(scale, seed, signatures).load(store)


def scaled_library_request(
    scale: float,
    seed: int = 0,
    signatures: Optional[Iterable[OpSignature]] = None,
) -> LibraryRequest:
    """The Table 2 library at ``scale``, named before it is built.

    ``signatures`` (an accelerator's ``op_inventory()``) keeps only the
    components of those operation signatures, the only candidates
    autoAx's Step 1 considers: the Table 2 plan is enumerated as a
    whole (same per-signature RNG streams, same records) and only the
    kept signatures are characterised.  A restricted library is stored
    under its own key; without a restriction (or one covering every
    plan signature) the key is :func:`default_library_key`, shared
    with :func:`default_setup` and ``generate-library --store``.
    """
    plan = scaled_plan(scale, seed=seed)
    kept = None
    if signatures is not None:
        kept = sorted({tuple(sig) for sig in signatures} & set(plan.counts))
        if kept == sorted(plan.counts):
            kept = None
    return LibraryRequest(
        _plan_key("default-library", plan, scale, kept), plan, kept
    )


def default_setup(
    scale: Optional[float] = None,
    n_images: int = 8,
    image_shape: Optional[Tuple[int, int]] = None,
    seed: int = 0,
    use_cache: bool = True,
) -> ExperimentSetup:
    """Build (or load from the store) the default experiment setup."""
    if scale is None:
        scale = default_scale()
    if image_shape is None:
        image_shape = DEFAULT_SHAPE
    store = open_store() if use_cache else None
    library = scaled_library(scale, seed=seed, store=store)
    images = benchmark_images(n_images, shape=image_shape)
    return ExperimentSetup(library=library, images=images, seed=seed)
