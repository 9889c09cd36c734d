"""Argument-validation helpers shared across the package."""

from __future__ import annotations

import numbers
from typing import TYPE_CHECKING, Optional

from repro.errors import ValidationError

if TYPE_CHECKING:
    import numpy as np


def check_env_dir(value: object, source: str) -> str:
    """Validate a directory path from an environment variable or flag.

    Empty or whitespace-only values would silently create odd relative
    paths (``Path("")`` is the current directory); reject them with a
    :class:`~repro.errors.ValidationError` naming ``source`` instead, the
    same contract as ``validate_workers`` for ``REPRO_WORKERS``.
    """
    text = str(value) if value is not None else ""
    if not text.strip():
        raise ValidationError(
            f"{source} must be a non-empty directory path, got {value!r}"
        )
    return text


def check_env_float(
    value: object,
    source: str,
    minimum: Optional[float] = None,
) -> float:
    """Validate a floating-point environment knob (or flag) value.

    Same contract as :func:`check_env_dir`: blank or non-numeric input
    is a configuration error named after its knob, never a raw
    ``ValueError`` traceback (and never a silent fallback).
    """
    text = str(value).strip() if value is not None else ""
    if not text:
        raise ValidationError(
            f"{source} must be a number, got {value!r}"
        )
    try:
        number = float(text)
    except ValueError:
        raise ValidationError(
            f"{source} must be a number, got {value!r}"
        ) from None
    if number != number:  # NaN never compares; reject it explicitly
        raise ValidationError(f"{source} must be a number, got NaN")
    if minimum is not None and number < minimum:
        raise ValidationError(
            f"{source} must be >= {minimum}, got {number}"
        )
    return number


def check_env_choice(
    value: object,
    source: str,
    choices: tuple,
) -> str:
    """Validate an enumerated environment knob (or flag) value.

    Matching is case-insensitive; the canonical (lower-case) choice is
    returned. Blank or unknown values raise a
    :class:`~repro.errors.ValidationError` naming ``source``, the same
    contract as the other ``check_env_*`` helpers.
    """
    text = str(value).strip().lower() if value is not None else ""
    if text not in choices:
        options = "|".join(choices)
        raise ValidationError(
            f"{source} must be one of {options}, got {value!r}"
        )
    return text


def check_positive(value: numbers.Real, name: str) -> None:
    """Raise ``ValueError`` unless ``value`` is strictly positive."""
    if not value > 0:
        raise ValueError(f"{name} must be positive, got {value!r}")


def check_in_range(
    value: numbers.Real,
    name: str,
    low: Optional[numbers.Real] = None,
    high: Optional[numbers.Real] = None,
) -> None:
    """Raise ``ValueError`` unless ``low <= value <= high`` (bounds optional)."""
    if low is not None and value < low:
        raise ValueError(f"{name} must be >= {low}, got {value!r}")
    if high is not None and value > high:
        raise ValueError(f"{name} must be <= {high}, got {value!r}")


def check_probability_vector(p: np.ndarray, name: str = "p") -> None:
    """Raise ``ValueError`` unless ``p`` is non-negative and sums to ~1."""
    import numpy as np

    p = np.asarray(p, dtype=float)
    if p.ndim == 0:
        raise ValueError(f"{name} must be array-like")
    if np.any(p < 0):
        raise ValueError(f"{name} must be non-negative")
    total = float(p.sum())
    if not np.isclose(total, 1.0, rtol=1e-6, atol=1e-9):
        raise ValueError(f"{name} must sum to 1, sums to {total}")
