"""Quasi-momentum decomposition of the ladder walk.

The periodic two-site ring along x quantizes the transverse momentum to
``k_x in {0, pi}``.  Each sector is an invariant subspace of the one-step
unitary and evolves as an independent one-dimensional conventional walk
along the rungs; the sector coin angles follow from adding up the three
spin rotations of a step, with the x half-shifts contributing ``+-1``
phases in the ``k_x = pi`` sector.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .core import DEFAULT_GAMMA_Y, LadderState, WalkerState1D, _require_finite

__all__ = [
    "EMPTY_SECTOR_WEIGHT",
    "Angle",
    "EffectiveAngles",
    "SectorPair",
    "WalkPattern",
    "effective_angles",
    "reduce_angle",
    "reduce_pi_fraction",
    "sector_project",
    "reconstruct_ladder",
    "classify_pattern",
]

# Sector weights below this are treated as empty sectors.
EMPTY_SECTOR_WEIGHT = 1e-14

_SQRT_HALF = 1.0 / math.sqrt(2.0)


@dataclass(frozen=True)
class Angle:
    """An angle in radians, remembering its exact pi-fraction if it has one."""

    radians: float
    pi_fraction: Fraction | None = None


# The default long-side coin with its exact pi-fraction, so that the
# default keeps pi-rational alpha and beta on the exact path.
_DEFAULT_GAMMA_Y = Angle(DEFAULT_GAMMA_Y, Fraction(-1, 2))


class WalkPattern(enum.Enum):
    """Qualitative ladder walk regimes as a function of the coin angles."""

    ALTERNATING = "alternating"
    ONE_SIDED = "one-sided"
    IDENTICAL_DOMINATED = "identical-dominated"
    HADAMARD_DEGENERATE = "hadamard-degenerate"
    GENERIC = "generic"


_ANGLE_TOL = 1e-9


def _congruent(angle: float, target: float, period: float) -> bool:
    return abs(math.remainder(angle - target, period)) < _ANGLE_TOL


@dataclass(frozen=True)
class EffectiveAngles:
    """Coin angles of the two sector walks and their phase difference.

    ``gamma1`` and ``gamma2`` are unreduced; ``gamma1_reduced`` and
    ``gamma2_reduced`` are the same angles reduced into ``(-pi, pi]``.
    """

    gamma1: float
    gamma2: float
    phi: float
    gamma1_reduced: float
    gamma2_reduced: float

    @property
    def pattern(self) -> WalkPattern:
        """Qualitative regime; earlier rules win on ties.

        ``beta = 0`` (``phi/2 = pi - beta = pi``): the walker hops sides
        deterministically each step.  ``beta = pi``: the walker never
        leaves its starting side.  When a sector coin angle is a multiple
        of ``pi`` that sector is extremal, the other sector dominates the
        spreading and both sides show identical profiles.  When
        ``alpha + gamma_y = (gamma1 + gamma2)/2 - pi`` is a multiple of
        ``pi`` the two sector magnetizations coincide for every ``beta``
        and no sector can dominate.  Congruences hold to ``1e-9`` rad.
        """
        half_phi = self.phi / 2.0
        if _congruent(half_phi, math.pi, 2.0 * math.pi):
            return WalkPattern.ALTERNATING
        if _congruent(half_phi, 0.0, 2.0 * math.pi):
            return WalkPattern.ONE_SIDED
        if _congruent(self.gamma1, 0.0, math.pi) or _congruent(self.gamma2, 0.0, math.pi):
            return WalkPattern.IDENTICAL_DOMINATED
        if _congruent((self.gamma1 + self.gamma2) / 2.0, 0.0, math.pi):
            return WalkPattern.HADAMARD_DEGENERATE
        return WalkPattern.GENERIC


def _as_angle(name: str, value: Angle | float) -> Angle:
    angle = value if isinstance(value, Angle) else Angle(float(value))
    _require_finite(name, angle.radians)
    return angle


def effective_angles(alpha: Angle | float, beta: Angle | float,
                     gamma_y: Angle | float = _DEFAULT_GAMMA_Y) -> EffectiveAngles:
    """Effective 1D coin angles of the ``k_x = 0`` and ``k_x = pi`` sectors.

    ``gamma1 = alpha + beta + gamma_y`` and ``gamma2 = gamma1 + phi`` with
    ``phi = 2*pi - 2*beta``; with the default long-side coin
    ``gamma_y = -pi/2`` that is ``gamma2 = alpha - beta + 3*pi/2``.

    Each angle is a float in radians or an :class:`Angle`.  When all
    three carry a pi-fraction the angles are added and reduced in exact
    ``Fraction`` arithmetic, so identities such as ``gamma1 = 0`` at
    ``(alpha, beta) = (-pi/4, 3*pi/4)`` hold exactly; otherwise in floats.
    """
    angles = [_as_angle(name, value) for name, value in
              (("alpha", alpha), ("beta", beta), ("gamma_y", gamma_y))]
    if all(angle.pi_fraction is not None for angle in angles):
        a, b, gy = (angle.pi_fraction for angle in angles)
        half_turn, reduce = Fraction(1), reduce_pi_fraction

        def radians(f: Fraction) -> float:
            return float(f) * math.pi
    else:
        a, b, gy = (angle.radians for angle in angles)
        half_turn, reduce, radians = math.pi, reduce_angle, float
    gamma1 = a + b + gy
    phi = 2 * (half_turn - b)
    gamma2 = gamma1 + phi
    return EffectiveAngles(
        gamma1=radians(gamma1),
        gamma2=radians(gamma2),
        phi=radians(phi),
        gamma1_reduced=radians(reduce(gamma1)),
        gamma2_reduced=radians(reduce(gamma2)),
    )


def reduce_angle(gamma: float) -> float:
    """Reduce an angle modulo ``2*pi`` into ``(-pi, pi]``."""
    r = math.remainder(gamma, 2.0 * math.pi)
    if r <= -math.pi:
        r += 2.0 * math.pi
    return r


def reduce_pi_fraction(f: Fraction) -> Fraction:
    """Reduce an angle given in units of pi modulo 2 into ``(-1, 1]``."""
    return 1 - (1 - f) % 2


@dataclass(frozen=True, eq=False)
class SectorPair:
    """Normalized sector states with their probability weights.

    A sector whose weight falls below :data:`EMPTY_SECTOR_WEIGHT` is
    flagged empty and its state left as the zero vector; downstream
    consumers must check the flags before normalizing or conditioning.
    """

    sector_k0: WalkerState1D
    sector_kpi: WalkerState1D
    weight_k0: float
    weight_kpi: float

    @property
    def k0_is_empty(self) -> bool:
        return self.weight_k0 < EMPTY_SECTOR_WEIGHT

    @property
    def kpi_is_empty(self) -> bool:
        return self.weight_kpi < EMPTY_SECTOR_WEIGHT


def sector_project(state: LadderState) -> SectorPair:
    """Project a ladder state onto the ``k_x = 0`` and ``k_x = pi`` sectors.

    The unnormalized sector amplitudes are ``(psi(s, x=0, y) +- psi(s, x=1, y)) / sqrt(2)``;
    each sector is returned renormalized with its squared norm recorded as
    the weight.
    """
    amps = state.amplitudes
    raw_k0 = (amps[:, 0, :] + amps[:, 1, :]) * _SQRT_HALF
    raw_kpi = (amps[:, 0, :] - amps[:, 1, :]) * _SQRT_HALF
    w0 = float(np.sum(np.abs(raw_k0) ** 2))
    wpi = float(np.sum(np.abs(raw_kpi) ** 2))
    k0 = raw_k0 / math.sqrt(w0) if w0 >= EMPTY_SECTOR_WEIGHT else np.zeros_like(raw_k0)
    kpi = raw_kpi / math.sqrt(wpi) if wpi >= EMPTY_SECTOR_WEIGHT else np.zeros_like(raw_kpi)
    return SectorPair(
        sector_k0=WalkerState1D(amplitudes=k0, origin=state.origin,
                                steps_taken=state.steps_taken),
        sector_kpi=WalkerState1D(amplitudes=kpi, origin=state.origin,
                                 steps_taken=state.steps_taken),
        weight_k0=w0,
        weight_kpi=wpi,
    )


def reconstruct_ladder(pair: SectorPair, origin: int | None = None) -> LadderState:
    """Rebuild the ladder state from its sector decomposition."""
    raw_k0 = pair.sector_k0.amplitudes * math.sqrt(pair.weight_k0)
    raw_kpi = pair.sector_kpi.amplitudes * math.sqrt(pair.weight_kpi)
    n_rungs = raw_k0.shape[1]
    amps = np.zeros((2, 2, n_rungs), dtype=np.complex128)
    amps[:, 0, :] = (raw_k0 + raw_kpi) * _SQRT_HALF
    amps[:, 1, :] = (raw_k0 - raw_kpi) * _SQRT_HALF
    return LadderState(
        amplitudes=amps,
        origin=pair.sector_k0.origin if origin is None else origin,
        steps_taken=pair.sector_k0.steps_taken,
    )


def classify_pattern(alpha: Angle | float, beta: Angle | float,
                     gamma_y: Angle | float = _DEFAULT_GAMMA_Y) -> WalkPattern:
    """Qualitative regime of the ladder walk; see :attr:`EffectiveAngles.pattern`."""
    return effective_angles(alpha, beta, gamma_y).pattern
