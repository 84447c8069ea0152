"""Kernel functions and Nadaraya-Watson neighbor weights.

All kernels are nonincreasing on [0, inf) with K(0) = 1.  The compact ones
vanish beyond u = 1 but keep their boundary value at exactly u = 1, so the
support is closed.  The bandwidth is adaptive: distances are scaled by the
largest neighbor distance, which lands the furthest neighbor exactly on the
support boundary.  Consequence worth remembering: of the smooth kernels
only the gaussian leaves the furthest neighbor any weight, and the naive
kernel weights every neighbor equally, which turns the weighted mean into
a plain arithmetic mean.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InputError, NoNeighborsError

# Below this, a kernel-weight sum is considered vanished and weights fall
# back to uniform over the neighbors.
KERNEL_SUM_FLOOR = 1e-12


def _naive(u):
    return (u <= 1.0).astype(float)


def _gaussian(u):
    return np.exp(-(u**2))


def _epanechnikov(u):
    return np.where(u <= 1.0, 1.0 - u**2, 0.0)


def _triangular(u):
    return np.where(u <= 1.0, 1.0 - u, 0.0)


def _quartic(u):
    return np.where(u <= 1.0, (1.0 - u**2) ** 2, 0.0)


def _triweight(u):
    return np.where(u <= 1.0, (1.0 - u**2) ** 3, 0.0)


def _tricube(u):
    return np.where(u <= 1.0, (1.0 - u**3) ** 3, 0.0)


_KERNELS = {
    "naive": _naive,
    "gaussian": _gaussian,
    "epanechnikov": _epanechnikov,
    "triangular": _triangular,
    "quartic": _quartic,
    "triweight": _triweight,
    "tricube": _tricube,
}

KERNEL_NAMES = tuple(_KERNELS)


@dataclass(frozen=True)
class WeightVector:
    """Normalized neighbor weights for one imputation.

    `fallback_used` marks that the kernel weights vanished (or every
    distance was zero) and uniform weights were substituted.
    """

    weights: dict[str, float]
    fallback_used: bool


def kernel_weight_rows(kind: str, dist: np.ndarray, obs: np.ndarray):
    """Vectorized neighbor weights for a batch of imputations.

    Args:
        kind: kernel name.
        dist: (B, N) nonnegative distances from each row's target to every
            candidate neighbor; entries where `obs` is False are ignored.
            An observed NaN or infinity, or a row whose observed distances
            are all negative, is rejected.
        obs: (B, N) boolean neighbor availability; each row needs >= 1
            True entry.

    Returns:
        (weights, fallback): (B, N) weights summing to 1 over each row's
        observed entries (0 elsewhere), and a (B,) bool flag marking rows
        that fell back to uniform weights.

    Raises:
        InputError: on an unknown kernel or a rejected distance.
        NoNeighborsError: if a row has no observed entry.
    """
    if kind not in _KERNELS:
        raise InputError(
            f"unknown kernel {kind!r}; choose from {', '.join(KERNEL_NAMES)}"
        )
    dist = np.asarray(dist, dtype=float)
    obs = np.asarray(obs, dtype=bool)
    if not obs.any(axis=1).all():
        raise NoNeighborsError("a batch row has no observed neighbors")
    h = np.where(obs, dist, -np.inf).max(axis=1)
    if not np.all((h >= 0) & (h < np.inf)):
        raise InputError("distances must be finite and >= 0")
    safe_h = np.where(h > 0, h, 1.0)
    k = _KERNELS[kind](dist / safe_h[:, None]) * obs
    total = k.sum(axis=1)
    fallback = (h <= 0) | (total < KERNEL_SUM_FLOOR)
    weights = k / np.where(fallback, 1.0, total)[:, None]
    uniform = obs[fallback]
    weights[fallback] = uniform / uniform.sum(axis=1)[:, None]
    return weights, fallback
