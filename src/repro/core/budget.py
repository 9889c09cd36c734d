"""Exact evaluation-budget accounting for design-space exploration.

The paper's Table 4 compares search algorithms *at matched
model-evaluation budgets*, so an evaluation that is estimated but never
consumed (e.g. the tail of a candidate batch discarded after an accepted
hill-climbing move) still costs one model call and must be counted.  The
seed implementation kept the counter next to the consumption loop and
silently dropped those tails; this module closes that bug class by
construction:

* :class:`EvaluationBudget` is the single ledger of model calls.  It is
  charged *before* the models run and refuses (raises
  :class:`~repro.errors.BudgetExceededError`) to go negative, so no code
  path can issue more model calls than the budget allows.
* :class:`MeteredEstimator` is the only sanctioned way for a search to
  invoke the QoR/HW estimation models: every configuration that reaches
  ``predict`` is charged exactly once (one *evaluation* = one
  configuration estimated by both the QoR and the hardware model, the
  paper's unit).

One budget can be shared by several searches; each search's own spend
is its estimator's ``count``.
"""

from __future__ import annotations

import math
import threading
from typing import Optional

import numpy as np

from repro.errors import BudgetExceededError, DSEError
from repro.telemetry import get_metrics


class EvaluationBudget:
    """A hard cap on model evaluations, charged before the models run.

    ``total=None`` means unlimited (spend is still tracked).  ``grant``
    answers "how many of ``requested`` may I still estimate?" without
    reserving anything; ``charge`` commits the spend and raises when it
    would exceed the cap — callers are expected to ``grant`` first and
    size their batch accordingly.

    The ledger is **thread-safe**: ``charge`` checks and commits under
    one internal lock, so concurrent callers sharing one budget can
    never jointly spend past ``total``.
    """

    __slots__ = ("total", "_spent", "_lock")

    def __init__(self, total: Optional[int] = None):
        if total is not None:
            total = int(total)
            if total < 1:
                raise DSEError("evaluation budget must be >= 1")
        self.total = total
        self._spent = 0
        self._lock = threading.Lock()

    # Budgets may travel inside worker-task payloads; locks do not
    # pickle, so rebuild one on the other side.
    def __getstate__(self):
        return {"total": self.total, "spent": self._spent}

    def __setstate__(self, state):
        self.total = state["total"]
        self._spent = state["spent"]
        self._lock = threading.Lock()

    @property
    def spent(self) -> int:
        """Model evaluations charged so far."""
        return self._spent

    @property
    def remaining(self) -> float:
        """Evaluations left (``inf`` for an unlimited budget)."""
        if self.total is None:
            return math.inf
        return self.total - self._spent

    @property
    def exhausted(self) -> bool:
        return self.remaining <= 0

    def grant(self, requested: int) -> int:
        """Largest batch size <= ``requested`` the budget still allows."""
        if requested < 0:
            raise DSEError("cannot request a negative batch")
        return int(min(requested, max(0, self.remaining)))

    def charge(self, count: int) -> None:
        """Commit ``count`` evaluations; raise instead of overdrawing."""
        if count < 0:
            raise DSEError("cannot charge a negative evaluation count")
        with self._lock:
            if (
                self.total is not None
                and self._spent + count > self.total
            ):
                raise BudgetExceededError(
                    f"charging {count} evaluations would exceed the "
                    f"budget ({self._spent}/{self.total} spent)"
                )
            self._spent += count

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        cap = "inf" if self.total is None else str(self.total)
        return f"<EvaluationBudget {self._spent}/{cap}>"


class MeteredEstimator:
    """Budget-charging gateway to the QoR and hardware estimation models.

    ``estimate(configs)`` returns the ``(n, 2)`` array of
    ``(estimated QoR, estimated cost)`` rows and charges ``n``
    evaluations to the budget *first* — a batch that would overdraw the
    budget raises before any model call is issued.

    Each batch runs both models through one fused pass over a genome
    matrix built once.
    """

    def __init__(
        self,
        qor_model,
        hw_model,
        budget: Optional[EvaluationBudget] = None,
    ):
        self.qor_model = qor_model
        self.hw_model = hw_model
        self.budget = budget if budget is not None else EvaluationBudget()
        self.count = 0  # configurations this estimator charged
        self.calls = 0  # estimate() invocations
        # Guards the charge-then-count sequence: concurrent estimate()
        # callers must observe spend == count at every instant, and two
        # threads must never interleave their budget checks.
        self._meter_lock = threading.Lock()

    def __getstate__(self):
        state = {
            slot: getattr(self, slot)
            for slot in self.__dict__
            if slot != "_meter_lock"
        }
        return state

    def __setstate__(self, state):
        self.__dict__.update(state)
        self._meter_lock = threading.Lock()

    # -- estimation ----------------------------------------------------------

    def estimate(self, configs) -> np.ndarray:
        """Charge and estimate a batch of configurations."""
        n = len(configs)
        if n == 0:
            return np.empty((0, 2), dtype=float)
        with self._meter_lock:
            self.budget.charge(n)
            self.count += n
            self.calls += 1
        metrics = get_metrics()
        metrics.inc("search.evaluations", n)
        metrics.inc("search.estimate_calls")
        metrics.observe("search.estimate_batch", n)
        # One genome matrix for the whole generation; both models
        # predict from the same compiled array.
        genomes = np.asarray(configs)
        return np.stack(
            [self.qor_model.predict(genomes), self.hw_model.predict(genomes)],
            axis=1,
        )
