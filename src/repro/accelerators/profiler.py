"""Operand profiling — methodology Step 1's data collection.

Runs the accurate accelerator over benchmark data and records, for every
replaceable operation, the empirical joint distribution of its operand
pair: a dense probability mass function for narrow operands (the paper's
Fig. 3) and a subsampled list of raw operand pairs for wide ones (used to
estimate WMED by empirical expectation).

Like the evaluation engine, profiling runs on the compiled graph program:
when all benchmark images share a shape, every (image x scenario) run is
stacked into one batch and captured in a single vectorised pass.  The
captured stack is then consumed run-major in the same order as the old
per-run loop, so subsampling draws the identical RNG stream and profiles
are bit-for-bit reproducible across both paths.

Profiles are cached in the experiment store as ``profiles`` pickles.
:class:`OperandProfile` pickles its mostly-zero PMF sparsely (support
indices plus values) and its samples in the narrowest unsigned dtype,
and unpickles to the identical dense ``float64``/``int64`` arrays;
dense pickles written before that still load.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.accelerators.base import ImageAccelerator
from repro.library.component import OpSignature
from repro.utils.rng import RngLike, ensure_rng

#: Widest operands for which a dense PMF array is kept (2**20 bins).
DENSE_PMF_MAX_WIDTH = 10


@dataclass
class OperandProfile:
    """Empirical operand distribution of one operation."""

    op_name: str
    signature: OpSignature
    total_count: int
    pmf: Optional[np.ndarray]  # flat, length 4**width, sums to 1 (or None)
    sample_a: np.ndarray
    sample_b: np.ndarray

    @property
    def width(self) -> int:
        return self.signature[1]

    def pmf_2d(self) -> np.ndarray:
        """The dense PMF as a (2**w, 2**w) matrix (operand a rows)."""
        if self.pmf is None:
            raise ValueError(
                f"{self.op_name}: no dense PMF at width {self.width}"
            )
        size = 1 << self.width
        return self.pmf.reshape(size, size)

    def __getstate__(self) -> Dict:
        """Compact pickled form (the ``profiles`` store blobs).

        A profiled PMF is mostly zero bins (Sobel's 10-bit ``sub``
        fills 61,521 of its 2**20), so it pickles as its ``uint32``
        support plus the ``float64`` values there; the operand samples
        pickle in the narrowest unsigned dtype that holds them.
        :meth:`__setstate__` rebuilds the identical dense arrays.
        """
        state = dict(self.__dict__)
        pmf = state.pop("pmf")
        if pmf is not None:
            support = np.flatnonzero(pmf)
            state["pmf_sparse"] = (
                pmf.size, support.astype(np.uint32), pmf[support]
            )
        else:
            state["pmf_sparse"] = None
        for name in ("sample_a", "sample_b"):
            sample = state[name]
            narrow = sample
            if (sample.size and sample.dtype.kind in "iu"
                    and sample.min() >= 0):
                narrow = sample.astype(np.min_scalar_type(sample.max()))
            state[name] = (str(sample.dtype), narrow)
        return state

    def __setstate__(self, state: Dict) -> None:
        """Rebuild a profile from its compact form or, for blobs stored
        before it, from the dense attribute dict."""
        state = dict(state)
        if "pmf_sparse" in state:
            sparse = state.pop("pmf_sparse")
            pmf = None
            if sparse is not None:
                size, support, values = sparse
                pmf = np.zeros(size, dtype=values.dtype)
                pmf[support] = values
            state["pmf"] = pmf
            for name in ("sample_a", "sample_b"):
                dtype, sample = state[name]
                state[name] = sample.astype(dtype)
        self.__dict__.update({f.name: state[f.name] for f in fields(self)})


#: Memory bound of batched profiling: elements per captured operand
#: array per chunk (runs-per-chunk = this // pixels, at least 1 run).
PROFILE_CHUNK_ELEMS = 1 << 20


def _operand_row(value: np.ndarray, row: int) -> np.ndarray:
    """Row ``row`` of a captured operand (scalars broadcast to all rows)."""
    return value if np.ndim(value) == 0 else value[row]


def profile_accelerator(
    accelerator: ImageAccelerator,
    images: Sequence[np.ndarray],
    scenarios: Optional[Sequence[Dict[str, int]]] = None,
    max_samples: int = 1 << 16,
    rng: RngLike = 0,
) -> Dict[str, OperandProfile]:
    """Profile every replaceable op of ``accelerator`` on ``images``.

    ``scenarios`` lists ``extra``-input dicts (e.g. kernel coefficients for
    the generic Gaussian filter); ``None`` runs each image once with the
    accelerator defaults.
    """
    if not images:
        raise ValueError("need at least one benchmark image")
    gen = ensure_rng(rng)
    runs = scenarios if scenarios else [None]

    slots = accelerator.op_slots()
    hists: Dict[str, np.ndarray] = {}
    samples: Dict[str, List[Tuple[np.ndarray, np.ndarray]]] = {
        s.name: [] for s in slots
    }
    counts: Dict[str, int] = {s.name: 0 for s in slots}
    widths = {s.name: s.signature[1] for s in slots}

    for slot in slots:
        if widths[slot.name] <= DENSE_PMF_MAX_WIDTH:
            hists[slot.name] = np.zeros(
                1 << (2 * widths[slot.name]), dtype=np.float64
            )

    per_run_quota = max(1, max_samples // (len(images) * len(runs)))

    def _consume_run(
        capture: Dict[str, Tuple[np.ndarray, np.ndarray]]
    ) -> None:
        """Fold one run's captured operand pairs into the accumulators."""
        for name, (a, b) in capture.items():
            if name not in counts:
                continue
            if np.shape(a) != np.shape(b):
                # e.g. a CONST operand: one scalar against pixels
                a, b = np.broadcast_arrays(a, b)
            a = np.asarray(a).reshape(-1)
            b = np.asarray(b).reshape(-1)
            counts[name] += a.size
            if name in hists:
                w = widths[name]
                flat = (a << w) | b
                hists[name] += np.bincount(
                    flat, minlength=1 << (2 * w)
                ).astype(np.float64)
            take = min(per_run_quota, a.size)
            if take < a.size:
                idx = gen.choice(a.size, size=take, replace=False)
                samples[name].append((a[idx], b[idx]))
            else:
                samples[name].append((a, b))

    if len({np.asarray(img).shape for img in images}) == 1:
        # Uniform geometry: capture runs in compiled batch passes.  The
        # run list is streamed in chunks of at most ``rows_per_chunk``
        # consecutive (image, scenario) runs, so stacked inputs *and*
        # capture arrays stay bounded by PROFILE_CHUNK_ELEMS elements
        # per operand array regardless of the image/scenario counts.
        # Runs are consumed image-major, scenario-minor — the per-run
        # reference order, so the subsampling RNG stream is unchanged.
        program = accelerator.graph.compile()
        pixels = int(np.asarray(images[0]).size)
        rows_per_chunk = max(1, PROFILE_CHUNK_ELEMS // pixels)
        scen_extras = accelerator.scenario_extras(runs)
        extra_names = list(scen_extras[0].keys())
        run_list = [
            (i, s)
            for i in range(len(images))
            for s in range(len(runs))
        ]
        for start in range(0, len(run_list), rows_per_chunk):
            chunk_runs = run_list[start : start + rows_per_chunk]
            # Windows of the distinct images in this chunk; an image
            # straddling a chunk boundary is re-windowed once — cheap
            # next to executing the graph over the chunk.
            windows = {
                i: accelerator.window_inputs(images[i])
                for i in {i for i, _ in chunk_runs}
            }
            first = next(iter(windows.values()))
            chunk_inputs: Dict[str, np.ndarray] = {
                name: np.stack(
                    [windows[i][name] for i, _ in chunk_runs]
                )
                for name in first
            }
            for name in extra_names:
                column = np.asarray(
                    [
                        int(scen_extras[s][name])
                        for _, s in chunk_runs
                    ],
                    dtype=np.int64,
                )[:, None]
                # full batch width: captured operand pairs must line
                # up with the per-run reference path, where extras
                # arrive as np.full(pixels, value) arrays
                chunk_inputs[name] = np.broadcast_to(
                    column, (len(chunk_runs), pixels)
                )
            capture: Dict[str, Tuple[np.ndarray, np.ndarray]] = {}
            program.execute(chunk_inputs, capture=capture)
            for r in range(len(chunk_runs)):
                _consume_run(
                    {
                        name: (
                            _operand_row(a, r),
                            _operand_row(b, r),
                        )
                        for name, (a, b) in capture.items()
                    }
                )
    else:
        for image in images:
            for extra in runs:
                capture = {}
                accelerator.compute(image, assignment=None, extra=extra,
                                    capture=capture)
                _consume_run(capture)

    profiles: Dict[str, OperandProfile] = {}
    for slot in slots:
        name = slot.name
        pmf = None
        if name in hists:
            total = hists[name].sum()
            pmf = hists[name] / total if total > 0 else hists[name]
        sample_a = np.concatenate([a for a, _ in samples[name]])
        sample_b = np.concatenate([b for _, b in samples[name]])
        if sample_a.size > max_samples:
            idx = gen.choice(sample_a.size, size=max_samples, replace=False)
            sample_a = sample_a[idx]
            sample_b = sample_b[idx]
        profiles[name] = OperandProfile(
            op_name=name,
            signature=slot.signature,
            total_count=counts[name],
            pmf=pmf,
            sample_a=sample_a,
            sample_b=sample_b,
        )
    return profiles
