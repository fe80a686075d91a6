"""Estimator plumbing: parameter introspection and input validation helpers.

The estimators in this package follow the scikit-learn convention
(``fit``/``transform``/``predict`` plus ``get_params``/``set_params``) so they
can be scripted, cloned, and configured uniformly without depending on
scikit-learn itself.
"""
from __future__ import annotations

import inspect

import numpy as np

from .errors import DataError, NotFittedError


class ParamsMixin:
    """get_params / set_params derived from the signature of ``__init__``."""

    @classmethod
    def _param_names(cls):
        sig = inspect.signature(cls.__init__)
        return tuple(
            name
            for name, p in sig.parameters.items()
            if name != "self" and p.kind not in (p.VAR_POSITIONAL, p.VAR_KEYWORD)
        )

    def get_params(self, deep: bool = True) -> dict:
        return {name: getattr(self, name) for name in self._param_names()}

    def set_params(self, **params):
        valid = set(self._param_names())
        for name, value in params.items():
            if name not in valid:
                raise ValueError(
                    f"invalid parameter {name!r} for {type(self).__name__}; "
                    f"valid parameters: {sorted(valid)}"
                )
            setattr(self, name, value)
        return self

    def __repr__(self) -> str:
        args = ", ".join(f"{k}={v!r}" for k, v in self.get_params().items())
        return f"{type(self).__name__}({args})"


def check_is_fitted(estimator, attribute: str) -> None:
    if getattr(estimator, attribute, None) is None:
        raise NotFittedError(
            f"{type(estimator).__name__} is not fitted; call fit() first"
        )


def as_float_matrix(X, name: str = "X") -> np.ndarray:
    """Coerce to a finite 2-D float64 array."""
    arr = np.asarray(X, dtype=np.float64)
    if arr.ndim != 2:
        raise DataError(f"{name} must be 2-dimensional, got shape {arr.shape}")
    if arr.size and not np.isfinite(arr).all():
        raise DataError(f"{name} contains NaN or infinite values")
    return arr


def as_label_vector(y, n_rows: int | None = None, name: str = "y") -> np.ndarray:
    arr = np.asarray(y)
    if arr.ndim != 1:
        raise DataError(f"{name} must be 1-dimensional, got shape {arr.shape}")
    if n_rows is not None and arr.shape[0] != n_rows:
        raise DataError(f"{name} has {arr.shape[0]} entries, expected {n_rows}")
    return arr.astype(np.int64)


def check_binary_labels(y: np.ndarray, name: str = "y") -> None:
    values = np.unique(y)
    if not np.isin(values, (0, 1)).all():
        raise DataError(f"{name} must contain only 0/1 labels, got {values[:8]}")
    if values.size < 2:
        raise DataError(f"{name} must contain both classes, got only {values}")


def stratified_split(y: np.ndarray, holdout_fraction: float, rng: np.random.Generator):
    """Deterministic per-class shuffle split; returns (train_idx, holdout_idx).

    Every class keeps at least one row on each side when it has >= 2 members.
    """
    if not 0.0 < holdout_fraction < 1.0:
        raise ValueError("holdout_fraction must be in (0, 1)")
    train_parts, holdout_parts = [], []
    for cls in np.unique(y):
        idx = np.flatnonzero(y == cls)
        idx = idx[rng.permutation(idx.size)]
        n_hold = int(round(idx.size * holdout_fraction))
        if idx.size >= 2:
            n_hold = min(max(n_hold, 1), idx.size - 1)
        else:
            n_hold = 0
        holdout_parts.append(idx[:n_hold])
        train_parts.append(idx[n_hold:])
    train = np.sort(np.concatenate(train_parts))
    holdout = np.sort(np.concatenate(holdout_parts))
    return train, holdout


def binary_f1(y_true: np.ndarray, y_pred: np.ndarray) -> float:
    """F1 of the positive class; 0.0 whenever precision or recall is undefined."""
    y_true = np.asarray(y_true)
    y_pred = np.asarray(y_pred)
    tp = int(np.sum((y_pred == 1) & (y_true == 1)))
    fp = int(np.sum((y_pred == 1) & (y_true == 0)))
    fn = int(np.sum((y_pred == 0) & (y_true == 1)))
    precision = tp / (tp + fp) if tp + fp else 0.0
    recall = tp / (tp + fn) if tp + fn else 0.0
    if precision + recall == 0.0:
        return 0.0
    return 2.0 * precision * recall / (precision + recall)


def sigmoid(x):
    """Logistic function without overflow: exp only ever sees -|x|.

    Gives 1 / (1 + e) where x >= 0 and e / (1 + e) elsewhere, e = exp(-|x|);
    the numerator max(e, x >= 0) is exactly 1 or e, so no select is needed.
    """
    e = np.exp(-np.abs(x))
    return np.maximum(e, x >= 0) / (1.0 + e)
