"""Momentum-space spectral analysis and coin-space density matrices.

The one-step unitary of a conventional walk is diagonal in quasi-momentum,
``U(k) = T(k) C(gamma/2)`` with ``T(k) = diag(e^{ik}, e^{-ik})``.  Its
eigenphases obey ``cos(omega) = cos(gamma/2) cos(k)``, which yields a
closed-form n-step propagator and, after dephasing between the two bands,
closed forms for the long-time coin density matrix and its entropy.
Every 2x2 density matrix is diagonalized in closed form,
``lambda = (tr rho +- sqrt((rho11 - rho22)^2 + 4 |rho12|^2)) / 2``.

:func:`mode_eigensystem` is the single eigensystem of ``U(k)``, evaluated
on a whole momentum grid at once.  A walk from a point mass on a discrete
ring splits into its two bands, ``e^{-i omega t} a + e^{i omega t} b`` at
each momentum after ``t`` steps, and the two oracles read that one
decomposition: :func:`evolve_spectral` transforms it back to sites, and
:func:`cesaro_rho` takes the time-averaged coin density matrix from it in
closed form.  Neither runs a walk, so neither shares the position-space
stepping of :mod:`ladderwalk.core`.  :func:`sweep_summary` is the one
path from ``(alpha, beta, gamma_y)`` to the sector analytics, over a
whole ``(alpha, beta)`` grid or a one-point grid.  It evaluates the
sector closed forms (density matrix, eigenvalue gap, entropy,
magnetization) once per distinct reduced sector angle of the whole grid,
into one table, so per point it does only what depends on both sectors:
gathers, the mean magnetization, the pattern rules and the entropy of the
mixture.  Those per-point steps run on blocks of whole alpha rows, about
2,048 points each: rows where an angle, the phase or a sector-angle sum
is not finite are checked point by point, by ``effective_angles``, before
their block is filled; and the mixture entropies come from the scalar
2x2 closed form that :func:`rho_eigenvalues` and :func:`entropy` also
take a single matrix through, whose negative-eigenvalue refusal is the
one numeric check on a mixture.  A mixture's bits depend only on the
``rho11``, ``rho22`` and ``|rho12|`` bits of its two sector matrices, a
class per distinct such triple, and the relative sign of their ``rho12``,
so where a grid has fewer such combinations than points, as a pi-fraction
grid has, each distinct mixture's entropy is taken once, at its first
point, into a table that the blocks share.  A
mixture needs no ``DensityMatrix2`` check of its own: each sector matrix
is an :func:`asymptotic_rho`, with determinant ``s / (2 (1 + s))`` for
``s = |sin(gamma/2)|``, and an equal mixture of two density matrices is
one.  Every sector closed form lives here; the magnetization is also the
``walk1d`` command's spread prediction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import (
    CoinSpinor,
    LadderState,
    WalkerState1D,
    _check_initial_coin,
    _probabilities,
    _require_finite,
    _require_integer,
)
from .sectors import (
    _DEFAULT_GAMMA_Y,
    Angle,
    WalkPattern,
    _angle_arithmetic,
    _as_angle,
    _pattern_rules,
    effective_angles,
    reduce_angle,
)

__all__ = [
    "AliasingError",
    "DegenerateCoinError",
    "DensityMatrix2",
    "DensityMatrixError",
    "MomentumMode",
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
    "sweep_summary",
]

_DEGENERATE_TOL = 1e-12
_PSD_TOL = 1e-12


class DegenerateCoinError(ValueError):
    """The closed-form eigensystem needs ``sin(gamma/2) != 0``; for a coin
    angle congruent to zero the unitary is already diagonal."""


class AliasingError(ValueError):
    """The momentum ring is too small for the requested number of steps."""


class DensityMatrixError(ValueError):
    """A coin density matrix fails its unit-trace or positivity check; for
    a computed matrix that is a numeric invariant violation."""


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
        # each comparison fails on nan, so a non-finite entry is refused
        if not abs(self.rho11 + self.rho22 - 1.0) <= 1e-12:
            raise DensityMatrixError(
                f"trace must be 1, got {self.rho11 + self.rho22!r}")
        if not min(self.rho11, self.rho22) >= -_PSD_TOL:
            raise DensityMatrixError("negative diagonal entry")
        if not self.determinant >= -_PSD_TOL:
            raise DensityMatrixError(
                f"not positive semidefinite, det = {self.determinant!r}")

    @property
    def determinant(self) -> float:
        return self.rho11 * self.rho22 - abs(self.rho12) ** 2


@dataclass(frozen=True, eq=False)
class MomentumMode:
    """Eigensystem of the one-step unitary on quasi-momenta ``k``.

    ``e_plus`` carries eigenvalue ``e^{-i omega}`` and ``e_minus`` carries
    ``e^{+i omega}``, matching the spectral form of the n-step propagator.
    ``k`` and ``omega`` have the shape of the momenta given; the
    eigenvectors hold the spin index first, shape ``(2,) + k.shape``.
    """

    k: np.ndarray
    omega: np.ndarray
    e_plus: np.ndarray
    e_minus: np.ndarray


def _dispersion(gamma: float, k) -> tuple[float | np.ndarray, ...]:
    """``gamma`` and ``k`` through the entry gates, then ``s =
    sin(gamma/2)``, the float momenta ``k``, ``c sin k`` with ``c =
    cos(gamma/2)``, ``sin(omega)`` and ``omega`` on them.

    ``gamma`` is a finite number and ``k`` one finite number or an array or
    sequence of them; a bool, also one among numbers, or a text is refused
    with ``TypeError``.  As ``cos(omega) = c cos k`` and ``c^2 + s^2 = 1``,
    ``sin(omega) = hypot(s, c sin k)`` with no cancellation, and ``omega =
    atan2(sin(omega), c cos k)`` keeps its relative precision next to 0
    and pi, where ``arccos`` loses it.
    """
    gamma = _require_finite("gamma", gamma)
    if np.ndim(k) == 0 and not isinstance(k, np.ndarray):
        k = _require_finite("k", k)
    elif not isinstance(k, np.ndarray) and any(
            isinstance(x, (bool, np.bool_)) for x in np.asarray(k, dtype=object).flat):
        # numpy would take a bool among numbers as 0 or 1
        raise TypeError("k must hold numbers, not bool")
    k = np.asarray(k)
    if k.dtype.kind not in "iuf":
        raise TypeError(f"k must hold numbers, not {k.dtype.type.__name__}")
    k = k.astype(float)
    if not np.all(np.isfinite(k)):
        raise ValueError(f"k must be finite, got {float(k[~np.isfinite(k)][0])!r}")
    c, s = math.cos(gamma / 2.0), math.sin(gamma / 2.0)
    c_sin_k = c * np.sin(k)
    sin_omega = np.hypot(s, c_sin_k)
    return s, k, c_sin_k, sin_omega, np.arctan2(sin_omega, c * np.cos(k))


def dispersion(gamma: float, k):
    """Dispersion angle ``omega`` in ``[0, pi]`` with ``cos(omega) =
    cos(gamma/2) cos k``, on one momentum ``k`` or an array of them."""
    return _dispersion(gamma, k)[-1]


def mode_eigensystem(gamma: float, k) -> MomentumMode:
    """Closed-form eigenvectors and eigenvalues of ``U(k) = T(k) C(gamma/2)``.

    ``k`` is one momentum or an array of them.  With ``c, s = cos(gamma/2),
    sin(gamma/2)``, ``c e^{ik} - e^{-+i omega} = i (c sin k +- sin(omega))``;
    the product of the two is ``-s^2``, and the larger one, ``q = c sin k
    + sign(c sin k) sin(omega)``, adds two terms of one sign.  Each
    eigenvector is the null vector of the row of ``U - lambda`` that holds
    ``q``, ``(s e^{ik}, i q)`` or ``(-i q, -s e^{-ik})``, scaled to unit
    norm, so no entry comes from a cancellation, also next to a diagonal
    coin.
    """
    s, k, c_sin_k, sin_omega, omega = _dispersion(gamma, k)
    if abs(s) < _DEGENERATE_TOL:
        raise DegenerateCoinError(
            "coin angle congruent to 0 mod 2*pi: U(k) is diagonal")
    # the sign bit, so that c sin k = -0.0 picks one row for both vectors
    negative = np.signbit(c_sin_k)
    q = c_sin_k + np.copysign(sin_omega, c_sin_k)
    u = np.exp(1j * k)
    norm = np.hypot(s, q)
    first_row = np.stack([s * u, 1j * q]) / norm
    second_row = np.stack([-1j * q, -s * np.conj(u)]) / norm
    return MomentumMode(k=k, omega=omega, e_plus=np.where(negative, second_row, first_row),
                        e_minus=np.where(negative, first_row, second_row))


def _bands(initial: CoinSpinor, gamma: float, ring_size: int) -> tuple[np.ndarray, ...]:
    """``omega, a, b`` of a walk from a point mass in the coin state
    ``initial`` on a ring of ``ring_size`` sites, on the momenta ``k_j = 2
    pi j / ring_size``: after ``t`` steps its momentum amplitudes are
    ``e^{-i omega t} a + e^{i omega t} b``, ``a`` and ``b`` of shape ``(2,
    ring_size)`` being the coin state's parts in the two bands.

    A diagonal coin, ``|sin(gamma/2)| < 1e-12`` and so ``c =
    cos(gamma/2) = +-1``, turns each spin by its own phase: the up part by
    ``c e^{ik} = e^{-i omega}`` and the down part by its conjugate.
    """
    k = 2.0 * math.pi * np.arange(ring_size) / ring_size
    chi = initial.as_array()
    if abs(math.sin(gamma / 2.0)) < _DEGENERATE_TOL:
        a, b = np.diag(chi)[:, :, None] * np.ones(ring_size)
        return -k - (math.pi if math.cos(gamma / 2.0) < 0.0 else 0.0), a, b
    mode = mode_eigensystem(gamma, k)
    a, b = (np.sum(np.conj(e) * chi[:, None], axis=0) * e
            for e in (mode.e_plus, mode.e_minus))
    return mode.omega, a, b


def evolve_spectral(initial: CoinSpinor, gamma: float, n: int,
                    ring_size: int) -> WalkerState1D:
    """Evolve a localized walker ``n`` steps through the spectral propagator.

    The walker starts at the center of a periodic ring of ``ring_size``
    sites; the propagator ``U(k)^n`` is applied on the momentum grid
    ``k_j = 2 pi j / ring_size`` band by band and transformed back.  With
    ``ring_size > 2 n`` the wave front cannot wrap, so the result equals
    open-lattice evolution.  ``n`` and ``ring_size`` must be integers (a
    bool is refused).
    """
    n, ring_size = _require_integer("n", n), _require_integer("ring_size", ring_size)
    gamma = _require_finite("gamma", gamma)
    if ring_size % 2 != 0:
        raise AliasingError("ring_size must be even")
    if n < 0:
        raise ValueError("n must be >= 0")
    if ring_size <= 2 * n:
        raise AliasingError(
            f"ring_size {ring_size} aliases after {n} steps; need ring_size > 2n")
    _check_initial_coin(initial)

    omega, a, b = _bands(initial, gamma, ring_size)
    psi_hat = np.exp(-1j * omega * n) * a + np.exp(1j * omega * n) * b

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


def _spectra(rho11, rho22, rho12) -> tuple[list[tuple[float, float]], list[float]]:
    """Closed-form spectra of the 2x2 density matrices with entries
    ``rho11[i], rho22[i], rho12[i]``: the eigenvalues ``(lambda_plus,
    lambda_minus)`` of each, clamped into ``[0, 1]``, and its von Neumann
    entropy in bits, with ``0 log 0 = 0``.

    One scalar pass through ``math``: numpy's ``hypot`` and ``log2`` differ
    from it in the last bit.  A matrix with an eigenvalue below
    ``-_PSD_TOL`` is refused with ``DensityMatrixError``: for the computed
    matrices given here that is a numeric invariant violation.
    """
    hypot, log2 = math.hypot, math.log2
    eigenvalues, entropies = [], []
    for x, y, z in zip(rho11, rho22, rho12):
        trace = x + y
        root = hypot(x - y, 2.0 * abs(z))
        lo, hi = (trace - root) / 2.0, (trace + root) / 2.0
        if lo < -_PSD_TOL:
            raise DensityMatrixError(f"density matrix has negative eigenvalue {lo!r}")
        # min(max(lam, 0.0), 1.0), nan and -0.0 included, without the calls
        hi = 0.0 if hi < 0.0 else 1.0 if hi > 1.0 else hi
        lo = 0.0 if lo < 0.0 else 1.0 if lo > 1.0 else lo
        bits = 0.0
        if hi > 0.0:
            bits -= hi * log2(hi)
        if lo > 0.0:
            bits -= lo * log2(lo)
        eigenvalues.append((hi, lo))
        entropies.append(bits)
    return eigenvalues, entropies


def rho_eigenvalues(rho: DensityMatrix2) -> tuple[float, float]:
    """Eigenvalues ``(lambda_plus, lambda_minus)`` with
    ``lambda_plus >= lambda_minus >= 0``, each clamped into ``[0, 1]``.

    Closed form ``(tr rho +- sqrt((rho11 - rho22)^2 + 4 |rho12|^2)) / 2``.
    """
    return _spectra((rho.rho11,), (rho.rho22,), (rho.rho12,))[0][0]


def entropy(rho: DensityMatrix2) -> float:
    """Von Neumann entropy in bits, with ``0 log 0 = 0``."""
    return _spectra((rho.rho11,), (rho.rho22,), (rho.rho12,))[1][0]


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


def _coin_rho_sums(block: np.ndarray, lo: int, hi: int, spin_probs: np.ndarray,
                   cross: np.ndarray) -> tuple[list, list, list]:
    """``rho11``, ``rho22`` and ``rho12`` of each state of a block (spin
    axis second to last) as nested lists, given ``spin_probs = |block|^2``,
    each summed over whole rows; the cross terms go into the columns
    ``[lo, hi)`` of ``cross``, never over an input of the product (an
    in-place one-element complex multiply has other bits)."""
    np.multiply(block[..., 0, lo:hi], np.conjugate(block[..., 1, lo:hi]), out=cross[..., lo:hi])
    return (np.sum(spin_probs[..., 0, :], axis=-1).tolist(),
            np.sum(spin_probs[..., 1, :], axis=-1).tolist(),
            np.sum(cross, axis=-1).tolist())


def finite_n_rho(state: WalkerState1D) -> DensityMatrix2:
    """Coin density matrix of a finite-time state, traced over position and
    the side of a ladder state: the one-state view of ``_coin_rho_sums``,
    the block observable of the ``walk1d`` and ``ladder`` commands."""
    if not isinstance(state, (WalkerState1D, LadderState)):
        raise TypeError(f"unsupported state {type(state).__name__}")
    amps = state.amplitudes.reshape(1, 2, -1)
    spin_probs, cross = np.empty(amps.shape), np.empty((1, amps.shape[-1]), np.complex128)
    _probabilities(amps, 0, amps.shape[-1], spin_probs)
    (rho11,), (rho22,), (rho12,) = _coin_rho_sums(amps, 0, amps.shape[-1], spin_probs, cross)
    return DensityMatrix2(rho11=rho11, rho22=rho22, rho12=rho12)


def cesaro_rho(gamma: float, n_steps: int,
               initial: CoinSpinor | None = None) -> DensityMatrix2:
    """Running time-average of the coin density matrix over steps ``1 .. n``.

    The instantaneous coin matrix oscillates persistently; the Cesaro mean
    converges to :func:`asymptotic_rho` and is the right finite-time
    object to compare against it.

    It is taken in closed form on the momenta of a ring of ``2 n + 2``
    sites, where the walk from a point mass cannot wrap: at step ``t`` the
    coin matrix is the mean over ``k`` of ``psi_t psi_t^dagger`` with
    ``psi_t = e^{-i omega t} a + e^{i omega t} b``, so the Cesaro mean is
    the mean over ``k`` of ``a a^dagger + b b^dagger + f a b^dagger + conj(f)
    b a^dagger``, where ``f`` is the mean of ``e^{-2 i omega t}`` over ``t
    = 1 .. n``.  No walk is run: the ``ladder`` command takes the same
    mean of each sector from the ladder's own states, and the tests hold
    the two routes together.  ``initial`` defaults to the up state;
    ``n_steps`` must be an integer (a bool is refused).
    """
    n_steps = _require_integer("n_steps", n_steps)
    if n_steps < 1:
        raise ValueError("n_steps must be >= 1")
    initial = initial if initial is not None else CoinSpinor()
    _check_initial_coin(initial)
    ring_size = 2 * n_steps + 2
    omega, a, b = _bands(initial, _require_finite("gamma", gamma), ring_size)
    # e^{-2 i omega t} = e^{-2 i theta t} for theta = omega mod pi in
    # [-pi/2, pi/2], whose Dirichlet ratio keeps its precision near
    # omega = pi; the ratio is 1 where sin(theta) = 0
    theta = omega - math.pi * np.round(omega / math.pi)
    sin_theta = np.sin(theta)
    ratio = np.divide(np.sin(n_steps * theta), n_steps * sin_theta,
                      out=np.ones_like(theta), where=sin_theta != 0.0)
    f = np.exp(-1j * (n_steps + 1) * theta) * ratio
    terms = a[:, None] * np.conj(a + np.conj(f) * b) + b[:, None] * np.conj(b + f * a)
    (rho11, rho12), (_, rho22) = np.sum(terms, axis=-1) / ring_size
    return DensityMatrix2(float(rho11.real), float(rho22.real), complex(rho12))


def _sector_closed_forms(gamma_reduced: float) -> tuple[DensityMatrix2, float, float]:
    """Asymptotic density matrix, eigenvalue gap and entropy of the sector
    walk with reduced coin angle ``gamma_reduced``."""
    rho = asymptotic_rho(gamma_reduced)
    lam_plus, lam_minus = rho_eigenvalues(rho)
    return rho, lam_plus - lam_minus, entropy(rho)


def _sector_magnetization(gamma: float) -> float:
    """``M = 1 - |sin(gamma / 2)|`` of one sector walk with coin angle
    ``gamma``.

    ``M`` measures the asymptotic imbalance between up and down coin
    occupation; it is even in the angle and invariant under
    ``gamma -> 2*pi - gamma``.  For a single conventional walk with coin
    angle ``gamma``, ``M`` is also the ballistic coefficient of its second
    moment, ``<m^2> / n^2 -> 1 - |sin(gamma/2)|``: the ``walk1d`` spread
    prediction.  The ladder's ``m1, m2`` are ``M`` of the two sector
    angles and ``m`` is their mean.
    """
    return 1.0 - abs(math.sin(gamma / 2.0))


_PATTERN_LABELS = np.array([pattern.value for pattern in WalkPattern])
_SWEEP_DTYPE = np.dtype([
    *((name, np.float64) for name in ("alpha", "beta", "gamma1", "gamma2", "m1", "m2", "m",
                                       "d1", "d2", "s1", "s2", "mutual_information")),
    ("pattern", _PATTERN_LABELS.dtype)])
# Exact numerators below this bound add up in int64 without overflow.
_INT64_NUMERATOR = 2 ** 59
# Points in a block of alpha rows that sweep_summary fills in one pass; a
# block holds at least one row.
_SWEEP_BLOCK = 2048


def _distinct(x: np.ndarray) -> np.ndarray:
    """The distinct values of ``x``, sorted, as ``np.unique`` gives them
    without its import of ``numpy.ma``."""
    x = np.sort(x, axis=None)
    keep = np.ones(x.shape, bool)
    keep[1:] = x[1:] != x[:-1]
    return x[keep]


def _sector_table(keys: np.ndarray, exact: bool, reduce, radians) -> tuple[np.ndarray, ...]:
    """The sector closed forms of the distinct sector-angle sums ``keys``,
    exact numerators or the bits of float sums, evaluated once per distinct
    reduced angle, which is keyed as the sums are.

    Returns ``gamma``, the radians of each sum; ``sector``, the table row of
    each sum; ``forms``, the table, one row per distinct reduced angle and a
    last row of nans for the sums that are not finite, which are refused at
    their first point, with columns rho11, rho22, Re rho12 (its imaginary
    part is +0.0), d, s, m; and ``classes``, one per row, the index of its
    rho11, rho22 and |rho12| bits among the table's distinct such triples,
    so that two rows share a class exactly when those bits are equal.
    """
    values = keys if exact else keys.view(np.float64)
    gamma = np.array([radians(n) for n in values.tolist()], dtype=np.float64)
    finite = np.isfinite(gamma)
    reduced = np.array([reduce(n) for n in values[finite].tolist()],
                       dtype=values.dtype).view(keys.dtype)
    angles = _distinct(reduced)
    forms = np.full((len(angles) + 1, 6), math.nan)
    for j, n in enumerate(angles.view(values.dtype).tolist()):
        angle = radians(n)
        rho, d, s = _sector_closed_forms(angle)
        forms[j] = rho.rho11, rho.rho22, rho.rho12.real, d, s, _sector_magnetization(angle)
    sector = np.full(len(keys), len(angles))
    sector[finite] = np.searchsorted(angles, reduced)
    # each row's three bit patterns as one 24-byte value, sorted and
    # compared bytewise
    triples = np.column_stack([forms[:, 0], forms[:, 1], np.abs(forms[:, 2])]).view(
        np.dtype((np.void, 24))).ravel()
    return gamma, sector, forms, np.searchsorted(_distinct(triples), triples)


def sweep_summary(alpha_grid: list[Angle | float], beta_grid: list[Angle | float],
                  gamma_y: Angle | float = _DEFAULT_GAMMA_Y) -> np.ndarray:
    """Sector analytics at every point of ``alpha_grid x beta_grid`` with
    long-side coin ``gamma_y``: a structured array with one row per point
    in alpha-major order, float64 ``alpha, beta`` (radians), ``gamma1,
    gamma2, m1, m2, m, d1, d2, s1, s2, mutual_information`` and the text
    ``pattern``.

    ``gamma1, gamma2`` and ``pattern`` are those of
    :func:`~ladderwalk.sectors.effective_angles`, which also gives the
    reduced angles and ``phi``; everything else is evaluated on the
    reduced angles, ``d1, d2`` being the eigenvalue gaps of the sector
    density matrices.  Angles are floats in radians or
    :class:`~ladderwalk.sectors.Angle`; when every angle carries a
    pi-fraction the sector angles are added and reduced in exact
    arithmetic.  Each grid holds pi-fractions only or plain floats only; a
    grid mixing the two is refused with ``ValueError``.  The sector closed
    forms are evaluated once per distinct reduced sector angle of the whole
    grid, into one table of float columns, and the rows are filled from
    it a block of consecutive alpha rows at a time, about 2,048 points and
    at least one row.  Per block, the entropies of the points' equal-weight
    mixtures of their two sector matrices come from one scalar ``math``
    pass, with the bits :func:`entropy` gives.  Sector matrices of the same
    ``rho11``, ``rho22`` and ``|rho12|`` bits form a class, and two points
    whose matrices have the same two classes and the same relative sign of
    ``rho12`` have mixtures of the same bits.  Where a table with a slot
    for each such code, ``2 K^2`` slots for ``K`` classes, is no larger
    than the grid, mixtures repeat, and each distinct one is taken once, at
    its first point, into that table (2,113 mixtures for the 16,641 points
    of the 129x129 pi grid).  A point that
    ``effective_angles`` or its pattern refuses is refused with the same
    exception, at the first such point; a non-finite angle is refused there
    too, so an empty grid, which has no points, gives an empty array even
    next to a non-finite angle.  Rows where an angle, the phase or a
    sector-angle sum is not finite are checked point by point, by
    ``effective_angles``, before their block is filled, so these refusals
    come where a row-by-row pass gives them.  A mixture with an eigenvalue
    below ``-1e-12``, which no two sector matrices make, raises
    ``DensityMatrixError`` as its block is filled: after every pattern
    refusal of the whole block, and at the first such point of the block.
    """
    alphas = [_as_angle("alpha", value) for value in alpha_grid]
    betas = [_as_angle("beta", value) for value in beta_grid]
    gamma_y = _as_angle("gamma_y", gamma_y)
    for name, angles in (("alpha", alphas), ("beta", betas)):
        if len({angle.pi_fraction is None for angle in angles}) > 1:
            raise ValueError(f"the {name} grid mixes pi-fractions and plain floats")
    if not (alphas and betas):
        return np.empty(0, dtype=_SWEEP_DTYPE)
    values, half_turn, reduce, radians = _angle_arithmetic([*alphas, *betas, gamma_y])
    exact = isinstance(half_turn, int)
    dtype = (np.float64 if not exact else
             np.int64 if max(map(abs, [*values, half_turn])) < _INT64_NUMERATOR else object)
    a, b = np.array(values[:len(alphas)], dtype=dtype), np.array(values[len(alphas):-1], dtype=dtype)
    with np.errstate(over="ignore"):  # refused per point below
        phi_sum = 2 * (half_turn - b)
    phi = np.array([radians(n) for n in phi_sum.tolist()], dtype=np.float64)
    block_rows = max(1, _SWEEP_BLOCK // len(betas))

    def sums(lo: int, hi: int) -> tuple[np.ndarray, np.ndarray]:
        # gamma1 and gamma2 of the rows [lo, hi) as effective_angles adds
        # them; float sums keyed on their bits, so that a nan sum (inf - inf)
        # sorts and is found like any other
        with np.errstate(over="ignore", invalid="ignore"):
            gamma1 = a[lo:hi, None] + b + values[-1]
            pair = gamma1, gamma1 + phi_sum
        return pair if exact else tuple(x.view(np.uint64) for x in pair)

    # the distinct sums of each block, then of the grid, so that beside
    # the distinct sums only one block's sums are held
    keys = _distinct(np.concatenate([
        _distinct(np.concatenate(sums(lo, lo + block_rows), axis=None))
        for lo in range(0, len(alphas), block_rows)]))
    gamma, sector, forms, classes = _sector_table(keys, exact, reduce, radians)
    rho11, rho22, rho12, d, s, m = forms.T
    n_classes = int(classes.max()) + 1
    # after the tables, so that the rows and the sums are never held at once
    rows = np.empty((len(alphas), len(betas)), dtype=_SWEEP_DTYPE)
    rows["alpha"] = np.array([angle.radians for angle in alphas], dtype=np.float64)[:, None]
    rows["beta"] = [angle.radians for angle in betas]
    # A mixture's bits follow from its two rows' classes and the relative
    # sign of their rho12: 0.5 * (x1 + x2) is symmetric, negation is exact
    # and _spectra reads only |rho12|.  Where a table with a slot for each
    # such code is no larger than the grid, the codes are fewer than the
    # points, so mixtures repeat: each entropy goes into its slot once, nan
    # until its mixture is first met.  Else each point's mixture is taken.
    # np.sign is taken only here, so that a grid without the table, a
    # one-point one above all, does not load its kernel.
    tabled = 2 * n_classes ** 2 <= rows.size
    if tabled:
        sign = np.sign(rho12)
        entropies = np.full(2 * n_classes ** 2, math.nan)
        owner = np.empty(len(entropies), np.intp)

    def mixture_entropies(r1: np.ndarray, r2: np.ndarray) -> list[float]:
        # average_rho's mixture, as mutual_information takes it
        return _spectra(*((0.5 * (x[r1] + x[r2])).ravel().tolist() for x in (rho11, rho22, rho12)))[1]

    finite_phi = bool(np.isfinite(phi).all())
    for lo in range(0, len(alphas), block_rows):
        i1, i2 = (np.searchsorted(keys, x) for x in sums(lo, lo + block_rows))
        gamma1, gamma2 = gamma[i1], gamma[i2]
        with np.errstate(over="ignore", invalid="ignore"):
            refusable = ~(finite_phi & np.isfinite((gamma1 + gamma2) / 2.0).all(axis=1))
        # each flagged row is checked point by point, in order, as a point is
        # refused: by effective_angles and its pattern; the whole block is
        # then filled at once
        for row in np.flatnonzero(refusable).tolist():
            for beta in betas:
                effective_angles(alphas[lo + row], beta, gamma_y).pattern
        rules = _pattern_rules(phi / 2.0, gamma1, gamma2)
        block = rows[lo:lo + block_rows]
        r1, r2 = sector[i1], sector[i2]
        m1, m2 = m[r1], m[r2]
        block["gamma1"], block["gamma2"] = gamma1, gamma2
        block["m1"], block["m2"], block["m"] = m1, m2, (m1 + m2) / 2.0
        block["d1"], block["d2"] = d[r1], d[r2]
        s1, s2 = s[r1], s[r2]
        block["s1"], block["s2"] = s1, s2
        if tabled:
            c1, c2 = classes[r1], classes[r2]
            codes = ((np.minimum(c1, c2) * n_classes + np.maximum(c1, c2)) * 2
                     + (sign[r1] * sign[r2] < 0)).ravel()
            # the points of the mixtures met here first, then the first
            # point of each, taken in order: every point of a mixture has
            # its bits, so the pass refuses at the block's first refused point
            new = np.flatnonzero(np.isnan(entropies[codes]))
            owner[codes[new]] = len(codes)
            np.minimum.at(owner, codes[new], new)
            first = new[owner[codes[new]] == new]
            entropies[codes[first]] = mixture_entropies(r1.ravel()[first], r2.ravel()[first])
            block_entropies = entropies[codes]
        else:
            block_entropies = mixture_entropies(r1, r2)
        block["mutual_information"] = s1 + s2 - np.reshape(block_entropies, s1.shape)
        block["pattern"] = np.select(rules, _PATTERN_LABELS[:4], _PATTERN_LABELS[4])
    return rows.reshape(-1)
