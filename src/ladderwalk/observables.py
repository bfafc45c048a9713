"""Scalar diagnostics of walk distributions."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "MagnetizationTriple",
    "second_moment",
    "magnetization",
    "total_variation",
]


@dataclass(frozen=True)
class MagnetizationTriple:
    """Magnetization-like parameters of the two sector walks and their mean."""

    m1: float
    m2: float
    m: float


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


def magnetization(gamma1: float, gamma2: float) -> MagnetizationTriple:
    """``M_i = 1 - |sin(gamma_i / 2)|`` for each sector, and their average.

    ``M`` measures the asymptotic imbalance between up and down coin
    occupation; it is even in the angle and invariant under
    ``gamma -> 2*pi - gamma``.  For a single conventional walk with coin
    angle ``gamma``, ``M`` is also the ballistic coefficient of its second
    moment, ``<m^2> / n^2 -> 1 - |sin(gamma/2)|``.
    """
    m1, m2 = _sector_magnetization(gamma1), _sector_magnetization(gamma2)
    return MagnetizationTriple(m1=m1, m2=m2, m=(m1 + m2) / 2.0)


def _sector_magnetization(gamma: float) -> float:
    """``1 - |sin(gamma / 2)|``: one sector's term of :func:`magnetization`."""
    return 1.0 - abs(math.sin(gamma / 2.0))


def total_variation(p: np.ndarray, q: np.ndarray) -> float:
    """Total variation distance ``0.5 * sum |p - q|`` between two distributions."""
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    if p.shape != q.shape:
        raise ValueError(f"length mismatch: {p.shape} vs {q.shape}")
    return 0.5 * float(np.sum(np.abs(p - q)))
