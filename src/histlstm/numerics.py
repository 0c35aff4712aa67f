"""Dense vector/matrix primitives, activations, losses, finite differences,
and the range checks of the config classes.

Everything here works on plain float64 numpy arrays: vectors are 1-D,
matrices are 2-D row-major; softmax and cross_entropy work over the last
axis. All public operations keep values finite.
"""

from __future__ import annotations

import dataclasses
import math
from typing import Callable

import numpy as np

# Classification losses are floored at this value so downstream loss ratios
# and log-ratios stay finite even for perfect predictions.
EPS_LOSS_FLOOR = 1e-6


class ShapeError(ValueError):
    """Raised when operand dimensions do not compose."""


def check_fields(cfg, minimums: dict) -> None:
    """Reject a config dataclass whose float fields are not finite, or whose
    named fields fall below their minimum; every message names the field."""
    for f in dataclasses.fields(cfg):
        value = getattr(cfg, f.name)
        if isinstance(value, float) and not math.isfinite(value):
            raise ValueError(f"{f.name} must be finite, got {value}")
    for name, low in minimums.items():
        if getattr(cfg, name) < low:
            raise ValueError(f"{name} must be >= {low}, got {getattr(cfg, name)}")


def as_vec(x) -> np.ndarray:
    v = np.asarray(x, dtype=np.float64)
    if v.ndim != 1:
        raise ShapeError(f"expected a 1-D vector, got shape {v.shape}")
    return v


def sigmoid(z: np.ndarray) -> np.ndarray:
    """Logistic function via the tanh identity, stable for any magnitude:
    exp never overflows and saturation lands exactly on 0.0 / 1.0."""
    z = np.asarray(z, dtype=np.float64)
    return 0.5 * (1.0 + np.tanh(0.5 * z))


def softmax(z: np.ndarray) -> np.ndarray:
    """exp(z - max z) / sum over the last axis; shift-invariant and overflow-safe."""
    z = np.asarray(z, dtype=np.float64)
    if not np.all(np.isfinite(z)):
        raise ValueError(f"softmax input must be finite, got {z}")
    e = np.exp(z - z.max(axis=-1, keepdims=True))
    return e / e.sum(axis=-1, keepdims=True)


def cross_entropy(p: np.ndarray, label: int):
    """Floored negative log-likelihood: max(-ln p[label], EPS_LOSS_FLOOR).

    p is one probability vector (C,), scored as a float, or a stack (..., C)
    scored row by row into an array of its leading shape. The floor keeps the
    loss strictly positive so callers may divide by it or take its logarithm.
    """
    p = np.asarray(p, dtype=np.float64)
    if p.ndim == 0:
        raise ShapeError("expected probabilities over the last axis, got a scalar")
    if not 0 <= label < p.shape[-1]:
        raise IndexError(f"label {label} out of range for {p.shape[-1]} classes")
    if p.ndim == 1:
        return max(-float(np.log(p[label])), EPS_LOSS_FLOOR)
    return np.maximum(-np.log(p[..., label]), EPS_LOSS_FLOOR)


def finite_diff(f: Callable[[np.ndarray], float], theta: np.ndarray, h: float = 1e-5) -> np.ndarray:
    """Central-difference gradient of a scalar function, one coordinate at a time."""
    if h <= 0:
        raise ValueError(f"step must be positive, got {h}")
    theta = as_vec(theta)
    grad = np.empty_like(theta)
    for i in range(theta.shape[0]):
        tp = theta.copy()
        tm = theta.copy()
        tp[i] += h
        tm[i] -= h
        grad[i] = (f(tp) - f(tm)) / (2.0 * h)
    return grad
