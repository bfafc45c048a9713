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
import numbers
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .core import (
    DEFAULT_GAMMA_Y,
    LadderState,
    WalkerState1D,
    _probabilities,
    _require_finite,
    _require_real,
)

__all__ = [
    "Angle",
    "EffectiveAngles",
    "SectorPair",
    "WalkPattern",
    "effective_angles",
    "reduce_angle",
    "sector_project",
]

# Sector weights below this are treated as empty sectors.
_EMPTY_SECTOR_WEIGHT = 1e-14

_SQRT_HALF = 1.0 / math.sqrt(2.0)


@dataclass(frozen=True)
class Angle:
    """An angle in radians, remembering its exact pi-fraction if it has one.
    A ``pi_fraction`` that is neither None nor a rational (a bool included)
    is refused with ``TypeError``.  Radians that differ from ``pi_fraction *
    pi`` by more than a relative ``1e-12`` are refused with ``ValueError``,
    as the exact sums would describe another angle than the radians; radians
    that are not a finite number, and a pi-fraction whose radians are past
    the float range, are left to the callers, which refuse them."""

    radians: float
    pi_fraction: Fraction | None = None

    def __post_init__(self) -> None:
        frac, radians = self.pi_fraction, self.radians
        if frac is None:
            return
        if isinstance(frac, bool) or not isinstance(frac, numbers.Rational):
            raise TypeError(f"pi_fraction must be a rational or None, not {type(frac).__name__}")
        if isinstance(radians, bool) or not isinstance(radians, numbers.Real):
            return
        try:
            exact = float(frac) * math.pi
        except OverflowError:
            return
        if (math.isfinite(exact) and math.isfinite(radians)
                and not math.isclose(radians, exact, rel_tol=1e-12)):
            raise ValueError(f"radians {radians!r} disagree with pi_fraction {frac}, "
                             f"which is {exact!r} radians")


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


_PATTERNS = tuple(WalkPattern)
_ANGLE_TOL = 1e-9


def _congruent(angle, target: float, period: float):
    """``abs(math.remainder(angle - target, period)) < 1e-9`` for a finite
    float, or elementwise for an array of them.

    ``f = fmod(|angle - target|, period)`` is exact, and so is
    ``period - f`` (Sterbenz) whenever it is the smaller; the smaller of
    the two is the remainder's magnitude.
    """
    f = np.fmod(abs(angle - target), period)
    return (f < _ANGLE_TOL) | (period - f < _ANGLE_TOL)


def _pattern_rules(half_phi, gamma1, gamma2) -> list:
    """The regime rules in ``WalkPattern``'s order, each a bool, or a bool
    array for arrays of angles; the first rule that holds wins, and
    ``GENERIC`` is left when none does."""
    mean = (gamma1 + gamma2) / 2.0
    if not (np.isfinite(half_phi).all() and np.isfinite(mean).all()):
        raise ValueError("a walk pattern needs finite angles")
    return [
        _congruent(half_phi, math.pi, 2.0 * math.pi),
        _congruent(half_phi, 0.0, 2.0 * math.pi),
        _congruent(gamma1, 0.0, math.pi) | _congruent(gamma2, 0.0, math.pi),
        _congruent(mean, 0.0, math.pi),
    ]


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
        rules = _pattern_rules(self.phi / 2.0, self.gamma1, self.gamma2)
        return next((pattern for pattern, holds in zip(_PATTERNS, rules) if holds),
                    WalkPattern.GENERIC)


def _as_angle(name: str, value: Angle | float) -> Angle:
    """``value`` as an :class:`Angle`, an ``Angle`` itself unchanged; a
    value, or an ``Angle``'s radians, that :func:`_require_real` refuses
    is refused with its ``TypeError``, a non-finite number is left to the
    caller."""
    if isinstance(value, Angle):
        _require_real(name, value.radians)
        return value
    return Angle(_require_real(name, value))


def effective_angles(alpha: Angle | float, beta: Angle | float,
                     gamma_y: Angle | float = _DEFAULT_GAMMA_Y) -> EffectiveAngles:
    """Effective 1D coin angles of the ``k_x = 0`` and ``k_x = pi`` sectors.

    ``gamma1 = alpha + beta + gamma_y`` and ``gamma2 = gamma1 + phi`` with
    ``phi = 2*pi - 2*beta``; with the default long-side coin
    ``gamma_y = -pi/2`` that is ``gamma2 = alpha - beta + 3*pi/2``.

    Each angle is a float in radians or an :class:`Angle`.  When all
    three carry a pi-fraction the angles are added and reduced exactly,
    as integer numerators over the common denominator, so identities
    such as ``gamma1 = 0`` at ``(alpha, beta) = (-pi/4, 3*pi/4)`` hold
    exactly; otherwise in floats.
    """
    names = ("alpha", "beta", "gamma_y")
    angles = [_as_angle(name, value) for name, value in zip(names, (alpha, beta, gamma_y))]
    for name, angle in zip(names, angles):
        _require_finite(name, angle.radians)
    (a, b, gy), half_turn, reduce, radians = _angle_arithmetic(angles)
    gamma1 = a + b + gy
    phi = 2 * (half_turn - b)
    gamma2 = gamma1 + phi
    # finite inputs can still add up past the float range
    g1, ph, g2 = (_require_finite(name, radians(value)) for name, value in
                  (("gamma1", gamma1), ("phi", phi), ("gamma2", gamma2)))
    return EffectiveAngles(
        gamma1=g1,
        gamma2=g2,
        phi=ph,
        gamma1_reduced=radians(reduce(gamma1)),
        gamma2_reduced=radians(reduce(gamma2)),
    )


def _angle_arithmetic(angles: list[Angle]):
    """``(values, half_turn, reduce, radians)`` for adding up ``angles``:
    integer numerators over one common denominator (``half_turn``) when
    every angle carries a pi-fraction and finite radians, else radians
    (``half_turn = pi``), so that a non-finite angle is refused downstream.
    The radians of an exact sum do not depend on the denominator chosen.
    """
    if not all(angle.pi_fraction is not None and math.isfinite(angle.radians)
               for angle in angles):
        return [angle.radians for angle in angles], math.pi, reduce_angle, float
    den = math.lcm(*(angle.pi_fraction.denominator for angle in angles))

    def reduce(n: int) -> int:
        return den - (den - n) % (2 * den)

    def radians(n: int) -> float:
        # int / int is correctly rounded: the float nearest the exact ratio
        try:
            return n / den * math.pi
        except OverflowError:  # past the float range: the callers refuse it
            return math.inf if n > 0 else -math.inf

    values = [angle.pi_fraction.numerator * (den // angle.pi_fraction.denominator)
              for angle in angles]
    return values, den, reduce, radians


def reduce_angle(gamma: float) -> float:
    """Reduce an angle modulo ``2*pi`` into ``(-pi, pi]``; a non-finite
    angle is refused with ``ValueError``."""
    r = math.remainder(_require_finite("gamma", gamma), 2.0 * math.pi)
    if r <= -math.pi:
        r += 2.0 * math.pi
    return r


@dataclass(frozen=True, eq=False)
class SectorPair:
    """Normalized sector states with their probability weights.

    A sector whose weight falls below ``1e-14`` is empty and its state
    left as the zero vector; downstream consumers must check the weights
    before normalizing or conditioning.
    """

    sector_k0: WalkerState1D
    sector_kpi: WalkerState1D
    weight_k0: float
    weight_kpi: float


def _sector_blocks(block: np.ndarray, lo: int, hi: int, sectors: np.ndarray,
                   sector_probs: np.ndarray) -> np.ndarray:
    """The sectors of a block of ladder states (axes: state, spin, side,
    rung), renormalized, into the columns ``[lo, hi)`` of ``sectors`` (axes:
    state, sector, spin, rung), zero outside them; returns the weights,
    each a sum of ``|raw|^2`` (left in ``sector_probs``) over whole rows.

    A real multiply of the float64 parts by ``1 / sqrt(weight)`` has the
    bits of numpy's complex division by ``sqrt(weight) + 0j`` on every
    nonzero part, at a fraction of the cost.  An empty sector is ``+0.0``.
    """
    amps = block[..., lo:hi]
    raw = sectors[..., lo:hi]
    np.add(amps[:, :, 0], amps[:, :, 1], out=raw[:, 0])
    np.subtract(amps[:, :, 0], amps[:, :, 1], out=raw[:, 1])
    np.multiply(raw, _SQRT_HALF, out=raw)
    _probabilities(sectors, lo, hi, sector_probs)
    weights = np.sum(sector_probs.reshape(len(block), 2, -1), axis=-1)
    empty = ~(weights >= _EMPTY_SECTOR_WEIGHT)
    parts = raw.view(np.float64)
    np.multiply(parts, 1.0 / np.sqrt(np.where(empty, 1.0, weights))[..., None, None], out=parts)
    raw[empty] = 0.0
    return weights


def sector_project(state: LadderState) -> SectorPair:
    """Project a ladder state onto the ``k_x = 0`` and ``k_x = pi`` sectors,
    ``(psi(s, x=0, y) +- psi(s, x=1, y)) / sqrt(2)``.

    Each sector is returned renormalized with its squared norm recorded as
    the weight.  It is the one-state view of the block observable
    ``_sector_blocks``, which the ``ladder`` command runs on every step:
    it writes the weights and averages the sector states' coin density
    matrices into the finite-time mutual information.
    """
    if not isinstance(state, LadderState):
        raise TypeError(f"sector_project needs a LadderState, got {type(state).__name__}")
    amps = state.amplitudes[None]
    sectors = np.empty(amps.shape, np.complex128)
    weights = _sector_blocks(amps, 0, amps.shape[-1], sectors, np.empty(amps.shape))
    k0, kpi = (WalkerState1D(sector, state.origin, state.steps_taken) for sector in sectors[0])
    return SectorPair(k0, kpi, *weights[0].tolist())
