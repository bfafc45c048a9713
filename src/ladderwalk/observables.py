"""Scalar diagnostics of walk distributions."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import LadderState

__all__ = [
    "MagnetizationTriple",
    "second_moment",
    "magnetization",
    "discriminant",
    "side_marginals",
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
    m1, m2 = (1.0 - abs(math.sin(gamma / 2.0)) for gamma in (gamma1, gamma2))
    return MagnetizationTriple(m1=m1, m2=m2, m=(m1 + m2) / 2.0)


def discriminant(gamma: float) -> float:
    """Normalized eigenvalue gap of the asymptotic coin density matrix.

    ``(|cos(gamma/4)| - |sin(gamma/4)|) / (|cos(gamma/4)| + |sin(gamma/4)|)``;
    equals ``(1 - sin(gamma/2)) / cos(gamma/2)`` on ``[0, pi)``, running
    from 1 at ``gamma = 0`` to 0 at ``gamma = pi``.
    """
    if not math.isfinite(gamma):
        raise ValueError(f"gamma must be finite, got {gamma!r}")
    c = abs(math.cos(gamma / 4.0))
    s = abs(math.sin(gamma / 4.0))
    return (c - s) / (c + s)


def side_marginals(state: LadderState) -> tuple[np.ndarray, np.ndarray]:
    """Unnormalized rung profiles of the two sides.

    Each vector is ``P(y, x)`` summed over spin; the two together sum
    to one.  Renormalize before comparing shapes, since the side masses
    need not be equal at finite times.
    """
    joint = np.sum(np.abs(state.amplitudes) ** 2, axis=0)
    return joint[0].copy(), joint[1].copy()


def total_variation(p: np.ndarray, q: np.ndarray) -> float:
    """Total variation distance ``0.5 * sum |p - q|`` between two distributions."""
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    if p.shape != q.shape:
        raise ValueError(f"length mismatch: {p.shape} vs {q.shape}")
    return 0.5 * float(np.sum(np.abs(p - q)))
