"""Momentum-space spectral analysis and coin-space density matrices.

The one-step unitary of a conventional walk is diagonal in quasi-momentum,
``U(k) = T(k) C(gamma/2)`` with ``T(k) = diag(e^{ik}, e^{-ik})``.  Its
eigenphases obey ``cos(omega) = cos(gamma/2) cos(k)``, which yields a
closed-form n-step propagator and, after dephasing between the two bands,
closed forms for the long-time coin density matrix, its eigenvalues and
its entropy.  :func:`evolve_spectral` uses the propagator on a discrete
momentum grid as an oracle that is independent of the position-space
stepping in :mod:`ladderwalk.core`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import CoinSpinor, Conventional, WalkerState1D, evolve, localized_walker
from .observables import MagnetizationTriple, magnetization
from .sectors import EffectiveAngles, effective_angles, reduce_angle

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
    "walk_summary_from_angles",
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
    """Eigensystem of the one-step unitary at quasi-momentum ``k``.

    ``e_plus`` carries eigenvalue ``e^{-i omega}`` and ``e_minus`` carries
    ``e^{+i omega}``, matching the spectral form of the n-step propagator.
    """

    k: float
    omega: float
    e_plus: np.ndarray
    e_minus: np.ndarray
    lambda_plus: complex
    lambda_minus: complex


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


def mode_eigensystem(gamma: float, k: float) -> MomentumMode:
    """Closed-form eigenvectors and eigenvalues of ``U(k) = T(k) C(gamma/2)``.

    The unnormalized eigenvector for eigenvalue ``lambda`` is
    ``(e^{ik}, e^{ik} cot(gamma/2) - lambda / sin(gamma/2))``; the
    normalizer is ``sin(gamma/2) / sqrt(2 (sin^2 omega +- cos(gamma/2) sin k sin omega))``
    with the plus sign for the ``e^{-i omega}`` branch.
    """
    if not (math.isfinite(gamma) and math.isfinite(k)):
        raise ValueError("gamma and k must be finite")
    s = math.sin(gamma / 2.0)
    c = math.cos(gamma / 2.0)
    if abs(s) < _DEGENERATE_TOL:
        raise DegenerateCoinError(
            "coin angle congruent to 0 mod 2*pi: U(k) is diagonal")
    omega = float(dispersion(gamma, k))
    lam_plus = np.exp(-1j * omega)
    lam_minus = np.exp(1j * omega)
    u = np.exp(1j * k)
    sw = math.sin(omega)

    def vector(lam: complex, sign: float) -> np.ndarray:
        raw = np.array([u, (c * u - lam) / s])
        norm = abs(s) / math.sqrt(2.0 * (sw * sw + sign * c * math.sin(k) * sw))
        return raw * norm

    return MomentumMode(
        k=float(k),
        omega=omega,
        e_plus=vector(lam_plus, +1.0),
        e_minus=vector(lam_minus, -1.0),
        lambda_plus=complex(lam_plus),
        lambda_minus=complex(lam_minus),
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
        omega = dispersion(gamma, k)
        u = np.exp(1j * k)
        e_plus = np.stack([u, (c * u - np.exp(-1j * omega)) / s])
        e_minus = np.stack([u, (c * u - np.exp(1j * omega)) / s])
        e_plus /= np.linalg.norm(e_plus, axis=0)
        e_minus /= np.linalg.norm(e_minus, axis=0)
        coef_plus = np.sum(np.conj(e_plus) * chi[:, None], axis=0)
        coef_minus = np.sum(np.conj(e_minus) * chi[:, None], axis=0)
        psi_hat = (np.exp(-1j * omega * n) * coef_plus * e_plus
                   + np.exp(1j * omega * n) * coef_minus * e_minus)

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
    if not math.isfinite(gamma):
        raise ValueError(f"gamma must be finite, got {gamma!r}")
    reduced = reduce_angle(gamma)
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
    ``lambda_plus >= lambda_minus >= 0``, by direct diagonalization."""
    lo, hi = np.linalg.eigvalsh(rho.matrix())
    if lo < -_PSD_TOL:
        raise ValueError(f"density matrix has negative eigenvalue {lo!r}")
    return float(np.clip(hi, 0.0, 1.0)), float(np.clip(lo, 0.0, 1.0))


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


def walk_summary_from_angles(effective: EffectiveAngles,
                             gamma1_reduced: float,
                             gamma2_reduced: float) -> WalkSummary:
    """Summary computed from already-reduced sector angles.

    Split out from :func:`walk_summary` so callers that reduce the angles
    in exact arithmetic can feed the results straight in.
    """
    triple = magnetization(gamma1_reduced, gamma2_reduced)
    rho1 = asymptotic_rho(gamma1_reduced)
    rho2 = asymptotic_rho(gamma2_reduced)
    lam1 = rho_eigenvalues(rho1)
    lam2 = rho_eigenvalues(rho2)
    s1 = entropy(rho1)
    s2 = entropy(rho2)
    return WalkSummary(
        effective=effective,
        magnetization=triple,
        d1=lam1[0] - lam1[1],
        d2=lam2[0] - lam2[1],
        mutual_information=s1 + s2 - entropy(average_rho(rho1, rho2)),
        s1=s1,
        s2=s2,
    )


def walk_summary(alpha: float, beta: float) -> WalkSummary:
    """Sector angles, magnetizations, eigenvalue gaps, entropies and mutual
    information for one ``(alpha, beta)`` parameter point.

    The eigenvalue gaps ``d1, d2`` are those of the sector density
    matrices, i.e. the discriminant evaluated on the reduced angles.
    """
    eff = effective_angles(alpha, beta)
    return walk_summary_from_angles(
        eff, reduce_angle(eff.gamma1), reduce_angle(eff.gamma2))
