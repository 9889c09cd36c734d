"""Command settings resolved before anything heavy is imported.

The CLI names a pipeline command — and serves a recorded result for it
— before it loads numpy, so the settings that shape a command's params
live here, on the stdlib alone:

* the library scale a command falls back to (``REPRO_SCALE``);
* the learning-engine names ``search --engines`` accepts, in the
  paper's Table 3 order (:mod:`repro.ml.registry` builds the engines;
  a tier-1 test keeps the two lists equal);
* the ``--workers`` count applied for the running command, which
  :func:`repro.core.runtime.default_workers` reads.
"""

from __future__ import annotations

import contextlib
import os
from typing import Iterator, Optional

from repro.errors import ValidationError

#: Default library scale relative to Table 2 (0.02 => ~800 components).
DEFAULT_SCALE = 0.02

#: Environment knob overriding the default library scale.
SCALE_ENV = "REPRO_SCALE"

#: Table 3 learning engines, in the paper's row order.
ENGINE_NAMES = (
    "Random Forest",
    "Decision Tree",
    "K-Neighbors",
    "Bayesian Ridge",
    "Partial least squares",
    "Lasso",
    "Ada Boost",
    "Least-angle",
    "Gradient Boosting",
    "MLP neural network",
    "Gaussian process",
    "Kernel ridge",
    "Stochastic Gradient Descent",
)


def default_scale() -> float:
    """Library scale from ``REPRO_SCALE`` (validated), else the default.

    Blank or non-numeric values raise a
    :class:`~repro.errors.ValidationError` naming the knob instead of a
    raw ``float()`` traceback mid-setup.
    """
    raw = os.environ.get(SCALE_ENV)
    if raw is None:
        return DEFAULT_SCALE
    from repro.utils.validation import check_env_float

    return check_env_float(raw, source=SCALE_ENV, minimum=0.0)


def validate_workers(value, source: str = "workers") -> Optional[int]:
    """Normalise a worker-count setting to ``None`` (serial) or ``>= 2``.

    Accepts ``None``, integers and integer-valued strings; 0 and 1 mean
    in-process evaluation.  Non-integer or negative values raise a
    :class:`~repro.errors.ValidationError` (a ``ValueError`` subclass)
    naming ``source`` (the knob the value came from) — silently falling
    back to serial evaluation would hide the misconfiguration for the
    entire (expensive) run.
    """
    if value is None:
        return None
    if isinstance(value, bool) or isinstance(value, float):
        raise ValidationError(
            f"{source} must be an integer worker count, got {value!r}"
        )
    try:
        count = int(str(value).strip())
    except ValueError:
        raise ValidationError(
            f"{source} must be an integer worker count, got {value!r}"
        ) from None
    if count < 0:
        raise ValidationError(
            f"{source} must be >= 0 (0 or 1 run in-process), "
            f"got {count}"
        )
    return count if count > 1 else None


#: The ``--workers`` count applied for the running command (``None``:
#: not given).  Set only through :func:`use_workers`.
_APPLIED_WORKERS: Optional[int] = None


@contextlib.contextmanager
def use_workers(count: Optional[int]) -> Iterator[None]:
    """Apply a validated ``--workers`` count while the block runs.

    ``repro.cli.main`` wraps each command in this; ``None`` (no flag)
    changes nothing.  The previous value is restored on exit, so
    in-process callers that run several commands do not leak one
    command's count into the next.
    """
    global _APPLIED_WORKERS
    if count is None:
        yield
        return
    previous = _APPLIED_WORKERS
    _APPLIED_WORKERS = count
    try:
        yield
    finally:
        _APPLIED_WORKERS = previous


def applied_workers() -> Optional[int]:
    """The count :func:`use_workers` applies right now, else ``None``."""
    return _APPLIED_WORKERS
