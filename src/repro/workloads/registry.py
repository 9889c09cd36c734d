"""The workload registry: named (accelerator, images, scenarios) bundles.

A *workload* is everything one DSE run needs, under a stable name: a
factory for the accelerator, a scenario generator (the per-run ``extra``
coefficient sets) and benchmark-image defaults.  The registry maps names
to workloads so every consumer — experiment drivers, the CLI, benchmarks,
examples — resolves scenarios the same way instead of re-hard-coding the
three case studies.

Workloads are declared cheap (factories, not instances); nothing heavy is
built until :func:`build_bundle` materialises the accelerator, images and
scenario list for an actual run.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, Iterator, List, Optional, Tuple

import numpy as np

from repro.accelerators.base import ImageAccelerator
from repro.errors import WorkloadError
from repro.imaging.datasets import benchmark_images

#: Scenario factory: returns the ``extra``-input dict of every scenario,
#: or None for a single default-coefficient run.
ScenarioFactory = Callable[[], Optional[List[Dict[str, int]]]]

#: Default benchmark-image count and geometry of workload bundles.
DEFAULT_IMAGES = 4
DEFAULT_IMAGE_SHAPE = (64, 96)


@dataclass(frozen=True)
class Workload:
    """One registered workload (all parts lazy)."""

    name: str
    description: str
    factory: Callable[[], ImageAccelerator]
    scenario_factory: Optional[ScenarioFactory] = None
    tags: Tuple[str, ...] = ()

    def build_accelerator(self) -> ImageAccelerator:
        accelerator = self.factory()
        if not isinstance(accelerator, ImageAccelerator):
            raise WorkloadError(
                f"workload {self.name!r} factory returned "
                f"{type(accelerator).__name__}, not an ImageAccelerator"
            )
        return accelerator

    def build_scenarios(self) -> Optional[List[Dict[str, int]]]:
        if self.scenario_factory is None:
            return None
        scenarios = self.scenario_factory()
        if scenarios is not None and not scenarios:
            raise WorkloadError(
                f"workload {self.name!r} produced an empty scenario list"
            )
        return scenarios


@dataclass
class WorkloadBundle:
    """A materialised workload, ready for an evaluation engine."""

    workload: Workload
    accelerator: ImageAccelerator
    images: List[np.ndarray]
    scenarios: Optional[List[Dict[str, int]]]

    @property
    def run_count(self) -> int:
        """(image x scenario) simulation runs per configuration."""
        return len(self.images) * len(self.scenarios or [None])


class WorkloadRegistry:
    """Name -> :class:`Workload` mapping with insertion order."""

    def __init__(self):
        self._workloads: Dict[str, Workload] = {}

    def register(self, workload: Workload) -> Workload:
        if not workload.name:
            raise WorkloadError("workload name must be non-empty")
        if workload.name in self._workloads:
            raise WorkloadError(
                f"workload {workload.name!r} is already registered"
            )
        self._workloads[workload.name] = workload
        return workload

    def add(
        self,
        name: str,
        description: str,
        factory: Callable[[], ImageAccelerator],
        scenario_factory: Optional[ScenarioFactory] = None,
        tags: Tuple[str, ...] = (),
    ) -> Workload:
        """Build and register a :class:`Workload` in one call."""
        return self.register(
            Workload(name, description, factory, scenario_factory, tags)
        )

    def get(self, name: str) -> Workload:
        try:
            return self._workloads[name]
        except KeyError:
            known = ", ".join(sorted(self._workloads)) or "<none>"
            raise WorkloadError(
                f"unknown workload {name!r}; registered: {known}"
            ) from None

    def names(self) -> List[str]:
        return list(self._workloads)

    def __iter__(self) -> Iterator[Workload]:
        return iter(self._workloads.values())

    def __len__(self) -> int:
        return len(self._workloads)

    def __contains__(self, name: str) -> bool:
        return name in self._workloads


#: The process-wide default registry (populated by the catalog module).
WORKLOADS = WorkloadRegistry()


def build_bundle(
    name: str,
    n_images: int = DEFAULT_IMAGES,
    image_shape: Tuple[int, int] = DEFAULT_IMAGE_SHAPE,
    registry: Optional[WorkloadRegistry] = None,
    store=None,
) -> WorkloadBundle:
    """Materialise workload ``name`` into an engine-ready bundle.

    With an experiment ``store`` the benchmark images are read from
    (and on a miss written to) it; see
    :func:`~repro.imaging.datasets.benchmark_images`.
    """
    registry = registry if registry is not None else WORKLOADS
    workload = registry.get(name)
    return WorkloadBundle(
        workload=workload,
        accelerator=workload.build_accelerator(),
        images=benchmark_images(n_images, shape=image_shape, store=store),
        scenarios=workload.build_scenarios(),
    )
