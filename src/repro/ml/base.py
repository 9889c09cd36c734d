"""Common regressor interface and input validation."""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from repro.errors import ModelError


def check_xy(X, y) -> Tuple[np.ndarray, np.ndarray]:
    """Validate and coerce a training set to float64 arrays."""
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if X.ndim != 2:
        raise ModelError(f"X must be 2-D, got shape {X.shape}")
    if y.ndim != 1:
        raise ModelError(f"y must be 1-D, got shape {y.shape}")
    if X.shape[0] != y.shape[0]:
        raise ModelError(
            f"X has {X.shape[0]} rows but y has {y.shape[0]} values"
        )
    if X.shape[0] == 0:
        raise ModelError("cannot fit on an empty training set")
    if not np.all(np.isfinite(X)) or not np.all(np.isfinite(y)):
        raise ModelError("training data contains NaN or infinity")
    return X, y


class Regressor:
    """Base class: ``fit(X, y)`` then ``predict(X)``."""

    def __init__(self):
        self._n_features: Optional[int] = None

    def fit(self, X, y) -> "Regressor":
        """Fit on ``(X, y)``."""
        X, y = check_xy(X, y)
        self._n_features = X.shape[1]
        self._fit(X, y)
        return self

    def predict(self, X) -> np.ndarray:
        if self._n_features is None:
            raise ModelError(
                f"{type(self).__name__} must be fit before predicting"
            )
        X = np.asarray(X, dtype=np.float64)
        if X.ndim != 2 or X.shape[1] != self._n_features:
            raise ModelError(
                f"expected shape (*, {self._n_features}), got {X.shape}"
            )
        return self._predict(X)

    # -- subclass hooks -----------------------------------------------------

    def _fit(self, X: np.ndarray, y: np.ndarray) -> None:
        raise NotImplementedError

    def _predict(self, X: np.ndarray) -> np.ndarray:
        raise NotImplementedError
