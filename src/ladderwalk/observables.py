"""Scalar diagnostics of walk distributions, and the sector magnetization
closed form that :func:`~ladderwalk.spectral.sweep_summary` and the
``walk1d`` spread prediction share."""

from __future__ import annotations

import math

import numpy as np

__all__ = [
    "second_moment",
    "total_variation",
]


def second_moment(probs: np.ndarray, sites: np.ndarray, origin: float = 0.0) -> float:
    """``sum_m P(m) (m - origin)^2`` about the starting site.

    Taken about the origin rather than the running mean: the ballistic
    spread law is stated for this moment and it reproduces ``n^2`` for
    dispersionless motion.
    """
    probs = np.asarray(probs, dtype=float)
    sites = np.asarray(sites, dtype=float)
    if probs.shape != sites.shape:
        raise ValueError("probs and sites must have the same shape")
    return float(np.sum(probs * (sites - origin) ** 2))


def _sector_magnetization(gamma: float) -> float:
    """``M = 1 - |sin(gamma / 2)|`` of one sector walk with coin angle
    ``gamma``.

    ``M`` measures the asymptotic imbalance between up and down coin
    occupation; it is even in the angle and invariant under
    ``gamma -> 2*pi - gamma``.  For a single conventional walk with coin
    angle ``gamma``, ``M`` is also the ballistic coefficient of its second
    moment, ``<m^2> / n^2 -> 1 - |sin(gamma/2)|``.  The ladder's ``m1, m2``
    are ``M`` of the two sector angles and ``m`` is their mean.
    """
    return 1.0 - abs(math.sin(gamma / 2.0))


def total_variation(p: np.ndarray, q: np.ndarray) -> float:
    """Total variation distance ``0.5 * sum |p - q|`` between two distributions."""
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    if p.shape != q.shape:
        raise ValueError(f"length mismatch: {p.shape} vs {q.shape}")
    return 0.5 * float(np.sum(np.abs(p - q)))
