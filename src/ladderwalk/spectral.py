"""Momentum-space spectral analysis and coin-space density matrices.

The one-step unitary of a conventional walk is diagonal in quasi-momentum,
``U(k) = T(k) C(gamma/2)`` with ``T(k) = diag(e^{ik}, e^{-ik})``.  Its
eigenphases obey ``cos(omega) = cos(gamma/2) cos(k)``, which yields a
closed-form n-step propagator and, after dephasing between the two bands,
closed forms for the long-time coin density matrix and its entropy.
Every 2x2 density matrix is diagonalized in closed form,
``lambda = (tr rho +- sqrt((rho11 - rho22)^2 + 4 |rho12|^2)) / 2``.

:func:`mode_eigensystem` is the single eigensystem of ``U(k)``, evaluated
on a whole momentum grid at once; :func:`evolve_spectral` applies it on a
discrete ring as an oracle that is independent of the position-space
stepping in :mod:`ladderwalk.core`.  :func:`walk_summary` is the single
path from ``(alpha, beta, gamma_y)`` to the sector analytics.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import (
    CoinSpinor,
    Conventional,
    WalkerState1D,
    _require_finite,
    evolve,
    localized_walker,
)
from .observables import MagnetizationTriple, magnetization
from .sectors import _DEFAULT_GAMMA_Y, Angle, EffectiveAngles, effective_angles, reduce_angle

__all__ = [
    "AliasingError",
    "DegenerateCoinError",
    "DensityMatrix2",
    "MomentumMode",
    "WalkSummary",
    "dispersion",
    "mode_eigensystem",
    "evolve_spectral",
    "asymptotic_rho",
    "rho_eigenvalues",
    "entropy",
    "average_rho",
    "mutual_information",
    "finite_n_rho",
    "cesaro_rho",
    "walk_summary",
]

_DEGENERATE_TOL = 1e-12
_PSD_TOL = 1e-12


class DegenerateCoinError(ValueError):
    """The closed-form eigensystem needs ``sin(gamma/2) != 0``; for a coin
    angle congruent to zero the unitary is already diagonal."""


class AliasingError(ValueError):
    """The momentum ring is too small for the requested number of steps."""


@dataclass(frozen=True, eq=False)
class DensityMatrix2:
    """2x2 coin density matrix: Hermitian, unit trace, positive semidefinite.

    Only the upper off-diagonal entry is stored; ``rho21`` is its
    conjugate.
    """

    rho11: float
    rho22: float
    rho12: complex

    def __post_init__(self):
        if abs(self.rho11 + self.rho22 - 1.0) > 1e-12:
            raise ValueError(f"trace must be 1, got {self.rho11 + self.rho22!r}")
        if min(self.rho11, self.rho22) < -_PSD_TOL:
            raise ValueError("negative diagonal entry")
        if self.determinant < -_PSD_TOL:
            raise ValueError(f"not positive semidefinite, det = {self.determinant!r}")

    @property
    def determinant(self) -> float:
        return self.rho11 * self.rho22 - abs(self.rho12) ** 2

    def matrix(self) -> np.ndarray:
        return np.array(
            [[self.rho11, self.rho12],
             [np.conj(self.rho12), self.rho22]],
            dtype=np.complex128,
        )


@dataclass(frozen=True, eq=False)
class MomentumMode:
    """Eigensystem of the one-step unitary on quasi-momenta ``k``.

    ``e_plus`` carries eigenvalue ``e^{-i omega}`` and ``e_minus`` carries
    ``e^{+i omega}``, matching the spectral form of the n-step propagator.
    ``k``, ``omega`` and the eigenvalues have the shape of the momenta
    given; the eigenvectors hold the spin index first, shape
    ``(2,) + k.shape``.
    """

    k: np.ndarray
    omega: np.ndarray
    e_plus: np.ndarray
    e_minus: np.ndarray
    lambda_plus: np.ndarray
    lambda_minus: np.ndarray


def dispersion(gamma: float, k: float):
    """Dispersion angle ``omega = arccos(cos(gamma/2) cos k)`` in ``[0, pi]``."""
    cosw = np.cos(gamma / 2.0) * np.cos(k)
    return np.arccos(np.clip(cosw, -1.0, 1.0))


def _unitary_at(gamma: float, k: float) -> np.ndarray:
    c = math.cos(gamma / 2.0)
    s = math.sin(gamma / 2.0)
    t = np.array([[np.exp(1j * k), 0.0], [0.0, np.exp(-1j * k)]])
    coin = np.array([[c, -s], [s, c]])
    return t @ coin


def mode_eigensystem(gamma: float, k) -> MomentumMode:
    """Closed-form eigenvectors and eigenvalues of ``U(k) = T(k) C(gamma/2)``.

    ``k`` is one momentum or an array of them.  The unnormalized
    eigenvector for eigenvalue ``lambda`` is
    ``(e^{ik}, (cos(gamma/2) e^{ik} - lambda) / sin(gamma/2))``; each is
    scaled to unit norm.
    """
    gamma = _require_finite("gamma", gamma)
    k = np.asarray(k, dtype=float)
    if not np.all(np.isfinite(k)):
        raise ValueError("k must be finite")
    s = math.sin(gamma / 2.0)
    c = math.cos(gamma / 2.0)
    if abs(s) < _DEGENERATE_TOL:
        raise DegenerateCoinError(
            "coin angle congruent to 0 mod 2*pi: U(k) is diagonal")
    omega = dispersion(gamma, k)
    lam_plus = np.exp(-1j * omega)
    lam_minus = np.exp(1j * omega)
    u = np.exp(1j * k)

    def vector(lam: np.ndarray) -> np.ndarray:
        raw = np.stack([u, (c * u - lam) / s])
        return raw / np.linalg.norm(raw, axis=0)

    return MomentumMode(
        k=k,
        omega=omega,
        e_plus=vector(lam_plus),
        e_minus=vector(lam_minus),
        lambda_plus=lam_plus,
        lambda_minus=lam_minus,
    )


def evolve_spectral(initial: CoinSpinor, gamma: float, n: int,
                    ring_size: int) -> WalkerState1D:
    """Evolve a localized walker ``n`` steps through the spectral propagator.

    The walker starts at the center of a periodic ring of ``ring_size``
    sites; the propagator ``U(k)^n`` is applied on the momentum grid
    ``k_j = 2 pi j / ring_size`` band by band and transformed back.  With
    ``ring_size > 2 n`` the wave front cannot wrap, so the result equals
    open-lattice evolution.
    """
    gamma = _require_finite("gamma", gamma)
    if ring_size % 2 != 0:
        raise AliasingError("ring_size must be even")
    if n < 0:
        raise ValueError("n must be >= 0")
    if ring_size <= 2 * n:
        raise AliasingError(
            f"ring_size {ring_size} aliases after {n} steps; need ring_size > 2n")
    if abs(initial.norm_sq() - 1.0) > 1e-12:
        raise ValueError("initial coin state must be normalized")

    c = math.cos(gamma / 2.0)
    s = math.sin(gamma / 2.0)
    k = 2.0 * math.pi * np.arange(ring_size) / ring_size
    chi = initial.as_array()

    if abs(s) < _DEGENERATE_TOL:
        # Diagonal unitary: each spin component only accumulates phase.
        up_hat = chi[0] * (c * np.exp(1j * k)) ** n
        down_hat = chi[1] * (c * np.exp(-1j * k)) ** n
        psi_hat = np.stack([up_hat, down_hat])
    else:
        mode = mode_eigensystem(gamma, k)
        coef_plus = np.sum(np.conj(mode.e_plus) * chi[:, None], axis=0)
        coef_minus = np.sum(np.conj(mode.e_minus) * chi[:, None], axis=0)
        psi_hat = (np.exp(-1j * mode.omega * n) * coef_plus * mode.e_plus
                   + np.exp(1j * mode.omega * n) * coef_minus * mode.e_minus)

    # psi(m) = (1/L) sum_j psi_hat(k_j) e^{-i k_j m}; ring index 0 is the
    # starting site, so roll it to the array center afterwards.
    psi = np.fft.fft(psi_hat, axis=1) / ring_size
    half = ring_size // 2
    amps = np.zeros((2, ring_size + 1), dtype=np.complex128)
    amps[:, :ring_size] = np.roll(psi, half, axis=1)
    return WalkerState1D(amplitudes=amps, origin=0, steps_taken=n)


def asymptotic_rho(gamma: float) -> DensityMatrix2:
    """Long-time coin density matrix of a conventional walk started in the
    up state.

    Valid closed form on ``gamma in [0, pi]``:
    ``rho11 = 1 - |sin(gamma/2)| / 2`` and
    ``rho12 = -(1 - sin(gamma/2)) tan(gamma/2) / 2``.  Other angles are
    reduced modulo ``2*pi`` into ``(-pi, pi]``; a negative reduced angle is
    mapped through conjugation by ``diag(1, -1)``, which flips the sign of
    ``rho12``.  At ``|gamma| = pi`` the off-diagonal limit is zero.
    """
    reduced = reduce_angle(_require_finite("gamma", gamma))
    a = abs(reduced)
    s = math.sin(a / 2.0)
    rho11 = 1.0 - 0.5 * s
    # (1 - sin) vanishes fast enough at a = pi that the product has a
    # finite limit of zero despite the tangent blowing up; adding 0.0
    # folds a -0.0 result back to +0.0 so serialized output is sign-stable.
    rho12 = -0.5 * (1.0 - s) * math.tan(a / 2.0) + 0.0
    if reduced < 0.0:
        rho12 = -rho12 + 0.0
    return DensityMatrix2(rho11=rho11, rho22=1.0 - rho11, rho12=complex(rho12))


def rho_eigenvalues(rho: DensityMatrix2) -> tuple[float, float]:
    """Eigenvalues ``(lambda_plus, lambda_minus)`` with
    ``lambda_plus >= lambda_minus >= 0``, each clamped into ``[0, 1]``.

    Closed form ``(tr rho +- sqrt((rho11 - rho22)^2 + 4 |rho12|^2)) / 2``.
    """
    trace = rho.rho11 + rho.rho22
    root = math.hypot(rho.rho11 - rho.rho22, 2.0 * abs(rho.rho12))
    lo, hi = (trace - root) / 2.0, (trace + root) / 2.0
    if lo < -_PSD_TOL:
        raise ValueError(f"density matrix has negative eigenvalue {lo!r}")
    return min(max(hi, 0.0), 1.0), min(max(lo, 0.0), 1.0)


def entropy(rho: DensityMatrix2) -> float:
    """Von Neumann entropy in bits, with ``0 log 0 = 0``."""
    result = 0.0
    for lam in rho_eigenvalues(rho):
        if lam > 0.0:
            result -= lam * math.log2(lam)
    return result


def average_rho(rho1: DensityMatrix2, rho2: DensityMatrix2) -> DensityMatrix2:
    """Equal-weight mixture ``(rho1 + rho2) / 2``."""
    return DensityMatrix2(
        rho11=0.5 * (rho1.rho11 + rho2.rho11),
        rho22=0.5 * (rho1.rho22 + rho2.rho22),
        rho12=0.5 * (rho1.rho12 + rho2.rho12),
    )


def mutual_information(rho1: DensityMatrix2, rho2: DensityMatrix2) -> float:
    """``I = S(rho1) + S(rho2) - S((rho1 + rho2) / 2)``.

    With the mixture in place of a joint state this may come out negative;
    the value is reported as is.
    """
    return entropy(rho1) + entropy(rho2) - entropy(average_rho(rho1, rho2))


def finite_n_rho(state: WalkerState1D) -> DensityMatrix2:
    """Coin density matrix of a finite-time state: partial trace over position."""
    amps = state.amplitudes
    rho11 = float(np.sum(np.abs(amps[0]) ** 2))
    rho22 = float(np.sum(np.abs(amps[1]) ** 2))
    rho12 = complex(np.sum(amps[0] * np.conj(amps[1])))
    return DensityMatrix2(rho11=rho11, rho22=rho22, rho12=rho12)


def cesaro_rho(gamma: float, n_steps: int,
               initial: CoinSpinor | None = None) -> DensityMatrix2:
    """Running time-average of the coin density matrix over steps ``1 .. n``.

    The instantaneous coin matrix oscillates persistently; the Cesaro mean
    converges to :func:`asymptotic_rho` and is the right finite-time
    object to compare against it.
    """
    if n_steps < 1:
        raise ValueError("n_steps must be >= 1")
    state = localized_walker(initial, half_width=n_steps + 2)
    acc11 = acc22 = 0.0
    acc12 = 0j
    spec = Conventional(gamma)
    for _ in range(n_steps):
        state = evolve(state, spec, 1)
        rho = finite_n_rho(state)
        acc11 += rho.rho11
        acc22 += rho.rho22
        acc12 += rho.rho12
    return DensityMatrix2(rho11=acc11 / n_steps, rho22=acc22 / n_steps,
                          rho12=acc12 / n_steps)


@dataclass(frozen=True)
class WalkSummary:
    """Per-parameter-point analytics of the two sector walks."""

    effective: EffectiveAngles
    magnetization: MagnetizationTriple
    d1: float
    d2: float
    mutual_information: float
    s1: float
    s2: float


def walk_summary(alpha: Angle | float, beta: Angle | float,
                 gamma_y: Angle | float = _DEFAULT_GAMMA_Y) -> WalkSummary:
    """Sector angles, magnetizations, eigenvalue gaps, entropies and mutual
    information for one ``(alpha, beta, gamma_y)`` parameter point.

    Angles are floats in radians or :class:`~ladderwalk.sectors.Angle`;
    when all three carry a pi-fraction the sector angles are reduced in
    exact arithmetic (see :func:`~ladderwalk.sectors.effective_angles`).
    Everything else is evaluated on the reduced angles; ``d1, d2`` are the
    eigenvalue gaps of the sector density matrices.
    """
    eff = effective_angles(alpha, beta, gamma_y)
    rho1 = asymptotic_rho(eff.gamma1_reduced)
    rho2 = asymptotic_rho(eff.gamma2_reduced)
    lam1 = rho_eigenvalues(rho1)
    lam2 = rho_eigenvalues(rho2)
    return WalkSummary(
        effective=eff,
        magnetization=magnetization(eff.gamma1_reduced, eff.gamma2_reduced),
        d1=lam1[0] - lam1[1],
        d2=lam2[0] - lam2[1],
        mutual_information=mutual_information(rho1, rho2),
        s1=entropy(rho1),
        s2=entropy(rho2),
    )
