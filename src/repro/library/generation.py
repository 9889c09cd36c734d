"""Library generation: populate thousands of approximate variants.

The paper's initial library (Table 2) combines EvoApprox8b, QuAd adders and
BAM multipliers — e.g. 6979 8-bit adders and 29911 8-bit multipliers.  This
module regenerates libraries of configurable size from the circuit families
of :mod:`repro.circuits`: the systematically enumerable families
(truncation, LOA, ACA, GeAr, BAM, Mitchell, DRUM) are exhausted first and
the exponentially large ones (QuAd partitions, perforation subsets,
recursive 2x2 leaf subsets) are sampled without replacement until the target
count is reached.

Enumeration (cheap: circuit objects only) is separated from
characterisation (expensive: exhaustive LUT grids plus synthesis):
``enumerate_*``/:func:`enumerate_plan` produce the deterministic circuit
inventory, and the construction pipeline
(:mod:`repro.library.pipeline`) characterises it in parallel chunks
with per-component store memoisation.  :func:`generate_library` is the
front door and drives the pipeline; per-signature child RNGs derive via
the repo-wide :func:`~repro.utils.rng.spawn_rngs` convention.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, Iterator, List, Sequence, Set, Tuple

from repro.circuits.adders import (
    AlmostCorrectAdder,
    GeArAdder,
    LowerOrAdder,
    QuAdAdder,
    TruncatedAdder,
)
from repro.circuits.base import (
    ArithmeticCircuit,
    ExactAdder,
    ExactMultiplier,
    ExactSubtractor,
)
from repro.circuits.multipliers import (
    BrokenArrayMultiplier,
    DrumMultiplier,
    MitchellMultiplier,
    PerforatedMultiplier,
    RecursiveApproxMultiplier,
    TruncatedMultiplier,
)
from repro.circuits.subtractors import BlockSubtractor, TruncatedSubtractor
from repro.library.component import (
    ComponentRecord,
    OpSignature,
    record_from_circuit,
)
from repro.library.library import ComponentLibrary
from repro.utils.rng import RngLike, ensure_rng, spawn_rngs


def _random_partition(rng, total: int, max_blocks: int) -> List[int]:
    """Random composition of ``total`` into at most ``max_blocks`` parts."""
    blocks: List[int] = []
    remaining = total
    while remaining > 0:
        if len(blocks) == max_blocks - 1:
            blocks.append(remaining)
            break
        size = int(rng.integers(1, remaining + 1))
        blocks.append(size)
        remaining -= size
    return blocks


def _random_quad(rng, width: int) -> QuAdAdder:
    blocks = _random_partition(rng, width, max_blocks=width)
    predictions = [0]
    offset = blocks[0]
    for length in blocks[1:]:
        predictions.append(int(rng.integers(0, min(offset, 6) + 1)))
        offset += length
    return QuAdAdder(width, blocks, predictions)


def _random_block_sub(rng, width: int) -> BlockSubtractor:
    blocks = _random_partition(rng, width, max_blocks=width)
    predictions = [0]
    offset = blocks[0]
    for length in blocks[1:]:
        predictions.append(int(rng.integers(0, min(offset, 6) + 1)))
        offset += length
    return BlockSubtractor(width, blocks, predictions)


def _collect_circuits(
    circuits: Iterator[ArithmeticCircuit],
    count: int,
    seen: Set[str],
) -> List[ArithmeticCircuit]:
    """Pull up to ``count`` unseen circuits out of an iterator."""
    out: List[ArithmeticCircuit] = []
    for circuit in circuits:
        if len(out) >= count:
            break
        if circuit.name in seen:
            continue
        seen.add(circuit.name)
        out.append(circuit)
    return out


def _enumerate(
    systematic: Iterator[ArithmeticCircuit],
    sampled: Iterator[ArithmeticCircuit],
    count: int,
) -> List[ArithmeticCircuit]:
    seen: Set[str] = set()
    circuits = _collect_circuits(systematic, count, seen)
    if len(circuits) < count:
        circuits += _collect_circuits(
            sampled, count - len(circuits), seen
        )
    return circuits


def enumerate_adders(
    width: int, count: int, rng: RngLike = 0
) -> List[ArithmeticCircuit]:
    """Enumerate up to ``count`` distinct ``width``-bit adder circuits.

    The exact adder is always first.  Systematic families are enumerated
    in an interleaved error-sweep order; random QuAd partitions then fill
    the remaining quota.  No characterisation happens here — circuit
    construction only.
    """
    gen = ensure_rng(rng)

    def systematic() -> Iterator[ArithmeticCircuit]:
        yield ExactAdder(width)
        for t in range(1, width):
            for fill in ("zero", "half", "copy"):
                yield TruncatedAdder(width, t, fill)
        for l in range(1, width + 1):
            yield LowerOrAdder(width, l)
        for w in range(1, width):
            yield AlmostCorrectAdder(width, w)
        for r in range(1, width):
            for p in range(0, r + 1):
                if r + p < width:
                    yield GeArAdder(width, r, p)

    def sampled() -> Iterator[ArithmeticCircuit]:
        while True:
            yield _random_quad(gen, width)

    return _enumerate(systematic(), sampled(), count)


def enumerate_subtractors(
    width: int, count: int, rng: RngLike = 0
) -> List[ArithmeticCircuit]:
    """Enumerate up to ``count`` distinct ``width``-bit subtractors."""
    gen = ensure_rng(rng)

    def systematic() -> Iterator[ArithmeticCircuit]:
        yield ExactSubtractor(width)
        for t in range(1, width):
            for fill in ("zero", "copy"):
                yield TruncatedSubtractor(width, t, fill)

    def sampled() -> Iterator[ArithmeticCircuit]:
        while True:
            yield _random_block_sub(gen, width)

    return _enumerate(systematic(), sampled(), count)


def enumerate_multipliers(
    width: int, count: int, rng: RngLike = 0
) -> List[ArithmeticCircuit]:
    """Enumerate up to ``count`` distinct ``width``-bit multipliers."""
    gen = ensure_rng(rng)

    def systematic() -> Iterator[ArithmeticCircuit]:
        yield ExactMultiplier(width)
        for k in range(2, width):
            yield DrumMultiplier(width, k)
        for f in range(2, 2 * width + 1, 2):
            yield MitchellMultiplier(width, f)
        for vbl in range(1, 2 * width - 1):
            for hbl in range(0, width + 1):
                yield BrokenArrayMultiplier(width, vbl, hbl)
        for ta in range(0, width):
            for tb in range(0, width):
                if ta or tb:
                    yield TruncatedMultiplier(width, ta, tb)

    def sampled() -> Iterator[ArithmeticCircuit]:
        half = width // 2
        n_leaves = half * half
        while True:
            if gen.random() < 0.7 and width >= 4 and width & (width - 1) == 0:
                n_approx = int(gen.integers(1, n_leaves + 1))
                leaves = gen.choice(n_leaves, size=n_approx, replace=False)
                yield RecursiveApproxMultiplier(width, leaves.tolist())
            else:
                n_omit = int(gen.integers(1, width))
                rows = gen.choice(width, size=n_omit, replace=False)
                yield PerforatedMultiplier(width, rows.tolist())

    return _enumerate(systematic(), sampled(), count)


def _characterize_all(
    circuits: Sequence[ArithmeticCircuit], sample_size: int
) -> List[ComponentRecord]:
    return [
        record_from_circuit(circuit, sample_size=sample_size)
        for circuit in circuits
    ]


def generate_adders(
    width: int,
    count: int,
    rng: RngLike = 0,
    sample_size: int = 1 << 15,
) -> List[ComponentRecord]:
    """Generate up to ``count`` characterised ``width``-bit adders."""
    return _characterize_all(
        enumerate_adders(width, count, rng), sample_size
    )


def generate_subtractors(
    width: int,
    count: int,
    rng: RngLike = 0,
    sample_size: int = 1 << 15,
) -> List[ComponentRecord]:
    """Generate up to ``count`` characterised ``width``-bit subtractors."""
    return _characterize_all(
        enumerate_subtractors(width, count, rng), sample_size
    )


def generate_multipliers(
    width: int,
    count: int,
    rng: RngLike = 0,
    sample_size: int = 1 << 15,
) -> List[ComponentRecord]:
    """Generate up to ``count`` characterised ``width``-bit multipliers."""
    return _characterize_all(
        enumerate_multipliers(width, count, rng), sample_size
    )


@dataclass(frozen=True)
class GenerationPlan:
    """How many components to generate per operation signature."""

    counts: Dict[tuple, int] = field(default_factory=dict)
    seed: int = 0
    sample_size: int = 1 << 15

    def total(self) -> int:
        return sum(self.counts.values())


#: Signatures used by the three case-study accelerators (paper Table 1/2).
PAPER_SIGNATURES = (
    ("add", 8),
    ("add", 9),
    ("add", 16),
    ("sub", 10),
    ("sub", 16),
    ("mul", 8),
)

#: Paper-scale library sizes (Table 2).
PAPER_COUNTS = {
    ("add", 8): 6979,
    ("add", 9): 332,
    ("add", 16): 884,
    ("sub", 10): 365,
    ("sub", 16): 460,
    ("mul", 8): 29911,
}


def paper_scale_plan(seed: int = 0) -> GenerationPlan:
    """The full Table 2 library (tens of thousands of components)."""
    return GenerationPlan(dict(PAPER_COUNTS), seed=seed)


def scaled_plan(
    scale: float = 0.02, seed: int = 0, floor: int = 64
) -> GenerationPlan:
    """A proportionally scaled-down Table 2 library.

    ``scale=0.02`` yields roughly a thousand components — large enough
    that exhaustive configuration enumeration stays intractable while
    library generation remains minutes-scale on a laptop.  ``floor``
    keeps the small signatures populated (the paper's *reduced* per-op
    libraries alone hold ~35 circuits, so the initial pool must exceed
    that).
    """
    if scale <= 0:
        raise ValueError("scale must be positive")
    counts = {
        sig: max(floor, int(round(count * scale)))
        for sig, count in PAPER_COUNTS.items()
    }
    return GenerationPlan(counts, seed=seed)


_ENUMERATORS: Dict[str, Callable] = {
    "add": enumerate_adders,
    "sub": enumerate_subtractors,
    "mul": enumerate_multipliers,
}

def enumerate_plan(
    plan: GenerationPlan,
) -> List[Tuple[OpSignature, ArithmeticCircuit]]:
    """The deterministic circuit inventory of ``plan``, in library order.

    Signatures are visited sorted; each gets its own child generator
    from one :func:`~repro.utils.rng.spawn_rngs` call on the plan seed
    (indexed by position in the sorted signature list).  Construction
    is cheap (no characterisation, no synthesis) — this runs serially
    in the pipeline driver.
    """
    items = sorted(plan.counts.items())
    children = spawn_rngs(plan.seed, len(items))
    inventory: List[Tuple[OpSignature, ArithmeticCircuit]] = []
    for ((kind, width), count), child in zip(items, children):
        for circuit in _ENUMERATORS[kind](width, count, rng=child):
            inventory.append(((kind, width), circuit))
    return inventory


def generate_library(
    plan: GenerationPlan,
    workers=None,
    store=None,
    progress=None,
) -> ComponentLibrary:
    """Generate a characterised library according to ``plan``.

    Delegates to the construction pipeline
    (:func:`repro.library.pipeline.build_library`): ``workers`` worker
    processes (``None`` falls back to ``REPRO_WORKERS``, then every
    usable core) and optional per-component memoisation in ``store``.
    The result is bit-identical for every ``workers`` setting and for
    warm vs. cold stores.
    """
    from repro.library.pipeline import build_library

    return build_library(
        plan, workers=workers, store=store, progress=progress
    ).library
