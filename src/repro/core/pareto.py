"""Pareto-front utilities.

All helpers treat objectives as *minimised*; callers negate
maximise-objectives (e.g. SSIM) before use.  Includes the archive used by
Algorithm 1 (``ParetoInsert``), non-dominated filtering for final front
construction (any dimension count, used for the area/SSIM/energy selection
of §4.2), 2-D hypervolume, and the directed front distances of Table 4.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

import numpy as np


def dominates(p: np.ndarray, q: np.ndarray) -> bool:
    """True when point ``p`` Pareto-dominates ``q`` (all <=, one <)."""
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    return bool(np.all(p <= q) and np.any(p < q))


def pareto_front_indices(points: np.ndarray) -> np.ndarray:
    """Indices of the non-dominated rows of ``points`` (minimisation).

    O(n log n) sweep for two objectives, O(n^2 / batch) mask elimination
    otherwise.
    """
    points = np.asarray(points, dtype=float)
    if points.ndim != 2 or points.shape[0] == 0:
        raise ValueError("points must be a non-empty 2-D array")
    n, d = points.shape
    if d == 2:
        order = np.lexsort((points[:, 1], points[:, 0]))
        best_second = np.inf
        keep: List[int] = []
        for idx in order:
            if points[idx, 1] < best_second:
                keep.append(idx)
                best_second = points[idx, 1]
        return np.asarray(sorted(keep), dtype=np.int64)
    alive = np.ones(n, dtype=bool)
    for i in range(n):
        if not alive[i]:
            continue
        p = points[i]
        beaten_by_p = np.all(p <= points, axis=1) & np.any(
            p < points, axis=1
        )
        alive &= ~beaten_by_p
        beats_p = np.all(points[alive] <= p, axis=1) & np.any(
            points[alive] < p, axis=1
        )
        alive[i] = not bool(np.any(beats_p))
    return np.nonzero(alive)[0].astype(np.int64)


class ParetoArchive:
    """Mutable archive of non-dominated (objective vector, payload) pairs."""

    def __init__(self, n_objectives: int = 2):
        if n_objectives < 1:
            raise ValueError("need at least one objective")
        self.n_objectives = n_objectives
        self._points = np.empty((0, n_objectives), dtype=float)
        self._payloads: List[object] = []

    def __len__(self) -> int:
        return len(self._payloads)

    @property
    def points(self) -> np.ndarray:
        """Objective vectors of the archive members (copy)."""
        return self._points.copy()

    @property
    def payloads(self) -> List[object]:
        return list(self._payloads)

    def insert(self, point: Sequence[float], payload: object) -> bool:
        """ParetoInsert: add unless dominated; evict dominated members.

        Returns True when the point entered the archive (the paper's
        condition for accepting a hill-climbing move).  Duplicates of an
        existing objective vector are rejected.
        """
        point = np.asarray(point, dtype=float).reshape(-1)
        if point.shape[0] != self.n_objectives:
            raise ValueError(
                f"expected {self.n_objectives} objectives, got {point.shape}"
            )
        if len(self._payloads):
            dominated_by = np.all(self._points <= point, axis=1) & np.any(
                self._points < point, axis=1
            )
            duplicate = np.all(self._points == point, axis=1)
            if np.any(dominated_by) or np.any(duplicate):
                return False
            wiped = np.all(point <= self._points, axis=1) & np.any(
                point < self._points, axis=1
            )
            if np.any(wiped):
                keep = ~wiped
                self._points = self._points[keep]
                self._payloads = [
                    pl for pl, k in zip(self._payloads, keep) if k
                ]
        self._points = np.vstack([self._points, point[None, :]])
        self._payloads.append(payload)
        return True


def hypervolume_2d(
    points: np.ndarray, reference: Sequence[float]
) -> float:
    """Dominated hypervolume of a 2-D minimisation front w.r.t. reference."""
    points = np.asarray(points, dtype=float)
    reference = np.asarray(reference, dtype=float)
    if points.ndim != 2 or points.shape[1] != 2:
        raise ValueError("hypervolume_2d expects (n, 2) points")
    front = points[pareto_front_indices(points)]
    front = front[np.argsort(front[:, 0])]
    # Sweep in x, accumulating the horizontal strip each point adds.
    volume = 0.0
    last_y = reference[1]
    for x, y in front:
        if x >= reference[0]:
            break
        y = min(y, last_y)
        if y < last_y:
            volume += (reference[0] - x) * (last_y - y)
            last_y = y
    return float(volume)


def _normalise(
    points: np.ndarray, low: np.ndarray, span: np.ndarray
) -> np.ndarray:
    return (points - low) / span


def front_distances(
    obtained: np.ndarray,
    optimal: np.ndarray,
    bounds: Optional[Tuple[np.ndarray, np.ndarray]] = None,
) -> dict:
    """The paper's Table 4 distance statistics between two fronts.

    Objective vectors are normalised to [0, 1] (jointly, unless explicit
    ``bounds = (low, high)`` are given).  Returns the average and maximum
    of the directed Euclidean distances obtained->optimal ("to optimal")
    and optimal->obtained ("from optimal").
    """
    obtained = np.asarray(obtained, dtype=float)
    optimal = np.asarray(optimal, dtype=float)
    if obtained.ndim != 2 or optimal.ndim != 2:
        raise ValueError("fronts must be 2-D arrays")
    if obtained.shape[1] != optimal.shape[1]:
        raise ValueError("fronts must share the objective count")
    if bounds is None:
        stacked = np.vstack([obtained, optimal])
        low = stacked.min(axis=0)
        high = stacked.max(axis=0)
    else:
        low, high = (np.asarray(b, dtype=float) for b in bounds)
    span = np.where(high - low > 0, high - low, 1.0)
    a = _normalise(obtained, low, span)
    b = _normalise(optimal, low, span)
    d2 = (
        np.sum(a**2, axis=1)[:, None]
        - 2.0 * a @ b.T
        + np.sum(b**2, axis=1)[None, :]
    )
    d = np.sqrt(np.maximum(d2, 0.0))
    to_optimal = d.min(axis=1)
    from_optimal = d.min(axis=0)
    return {
        "to_optimal_avg": float(to_optimal.mean()),
        "to_optimal_max": float(to_optimal.max()),
        "from_optimal_avg": float(from_optimal.mean()),
        "from_optimal_max": float(from_optimal.max()),
    }
