import cmath
import math
import tracemalloc
from fractions import Fraction
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import ladderwalk as lw
from ladderwalk.cli import parse_angle, parse_grid, run_sweep, run_walk1d
from ladderwalk.spectral import _bands, _spectra
from test_cli import run_main

SQRT2 = math.sqrt(2.0)


def _unitary_at(gamma: float, k: float) -> np.ndarray:
    """``U(k) = T(k) C(gamma/2)`` as a dense 2x2 matrix."""
    c = math.cos(gamma / 2.0)
    s = math.sin(gamma / 2.0)
    t = np.array([[np.exp(1j * k), 0.0], [0.0, np.exp(-1j * k)]])
    coin = np.array([[c, -s], [s, c]])
    return t @ coin


def _eigenvalues(mode) -> tuple:
    """The eigenvalues ``(e^{-i omega}, e^{+i omega})`` that ``e_plus`` and
    ``e_minus`` carry."""
    return np.exp(-1j * mode.omega), np.exp(1j * mode.omega)


def reference_spectrum(rho11: float, rho22: float, rho12: complex) -> tuple:
    """Eigenvalues ``(lambda_plus, lambda_minus)``, clamped into ``[0, 1]``,
    and entropy in bits of one 2x2 density matrix: the scalar closed form,
    written apart from the package's so that it checks it bit for bit."""
    trace = rho11 + rho22
    root = math.hypot(rho11 - rho22, 2.0 * abs(rho12))
    lo, hi = (trace - root) / 2.0, (trace + root) / 2.0
    if lo < -1e-12:
        raise ValueError(f"density matrix has negative eigenvalue {lo!r}")
    eigenvalues = min(max(hi, 0.0), 1.0), min(max(lo, 0.0), 1.0)
    bits = 0.0
    for lam in eigenvalues:
        if lam > 0.0:
            bits -= lam * math.log2(lam)
    return eigenvalues, bits


def _ulps(value: float, steps: int) -> float:
    """``value`` moved ``steps`` ulps up, or down for negative ``steps``."""
    for _ in range(abs(steps)):
        value = math.nextafter(value, math.copysign(math.inf, steps))
    return value


def _trace_edge(x: float, sign: float, steps: int, z: float) -> tuple:
    return x, _ulps(1.0 - x + sign * 1e-12, steps), z


def _diagonal_edge(d: float, steps: int, swap: bool, z: float) -> tuple:
    d = _ulps(d, steps)
    pair = (1.0 - d, d) if swap else (d, 1.0 - d)
    return (*pair, z)


def _determinant_edge(x: float, steps: int, sign: float) -> tuple:
    y = 1.0 - x
    return x, y, sign * _ulps(math.sqrt(x * y + 1e-12), steps)


def _density_matrix(x: float, r: float, phase: float) -> tuple:
    y = 1.0 - x
    return x, y, cmath.rect(r * math.sqrt(x * y), phase)


SIGNED_ZEROS = st.sampled_from([0.0, -0.0])
# (rho11, rho22, rho12) with a real rho12, each within a few ulps of one
# of DensityMatrix2's bounds: the trace, a diagonal entry, the determinant.
BOUNDARY_TRIPLES = st.one_of(
    st.builds(_trace_edge, st.floats(-0.5, 1.5), st.sampled_from([1.0, -1.0]),
              st.integers(-3, 3), SIGNED_ZEROS),
    st.builds(_diagonal_edge, st.sampled_from([-1e-12, 0.0, -0.0]), st.integers(-3, 3),
              st.booleans(), SIGNED_ZEROS),
    st.builds(_determinant_edge, st.floats(0.0, 1.0), st.integers(-3, 3),
              st.sampled_from([1.0, -1.0])))
DENSITY_TRIPLES = st.builds(_density_matrix, st.floats(0.0, 1.0), st.floats(0.0, 1.0),
                            st.floats(-4.0, 4.0))
BLOCH_COINS = st.builds(lw.CoinSpinor.from_bloch, st.floats(0.0, math.pi),
                        st.floats(-math.pi, math.pi))
# 2 pi j +- 10^-e: next to a diagonal coin, where sin(gamma/2) is 5e-3 ..
# 5e-12, just above the degenerate branch's 1e-12
NEAR_DEGENERATE_GAMMAS = st.builds(lambda j, sign, e: 2 * math.pi * j + sign * 10.0 ** -e,
                                   st.integers(-2, 2), st.sampled_from([1.0, -1.0]),
                                   st.integers(2, 11))


def reference_cesaro_rho(gamma: float, n_steps: int,
                         initial: lw.CoinSpinor | None = None) -> tuple:
    """``(rho11, rho22, rho12)`` of the Cesaro mean over steps ``1 .. n`` by
    the one-step route: a 1D walk, one ``evolve(state, spec, 1)`` step and
    one ``finite_n_rho`` at a time."""
    state = lw.localized_walker(initial, half_width=n_steps + 2)
    spec = lw.Conventional(gamma)
    acc11 = acc22 = 0.0
    acc12 = 0j
    for _ in range(n_steps):
        state = lw.evolve(state, spec, 1)
        rho = lw.finite_n_rho(state)
        acc11 += rho.rho11
        acc22 += rho.rho22
        acc12 += rho.rho12
    return acc11 / n_steps, acc22 / n_steps, acc12 / n_steps


def momentum_coin_matrices(gamma: float, n: int, initial: lw.CoinSpinor) -> np.ndarray:
    """The coin matrices of steps ``0 .. n`` of a walk from a point mass,
    shape ``(n + 1, 2, 2)``, each the mean over the momenta of a ring that
    the walk cannot wrap of ``psi_t psi_t^dagger``, ``psi_t = e^{-i omega
    t} a + e^{i omega t} b``: the per-step form of ``cesaro_rho``."""
    omega, a, b = _bands(initial, gamma, 2 * n + 2)
    t = np.arange(n + 1)[:, None, None]
    psi = np.exp(-1j * omega * t) * a + np.exp(1j * omega * t) * b
    return np.sum(psi[:, :, None] * np.conj(psi[:, None]), axis=-1) / (2 * n + 2)


class TestDispersion:
    def test_free_walker(self):
        for k in np.linspace(-math.pi, math.pi, 9):
            assert lw.dispersion(0.0, k) == pytest.approx(abs(k), abs=1e-12)

    def test_band_center(self):
        for gamma in (0.3, 1.1, 2.9):
            assert lw.dispersion(gamma, math.pi / 2) == pytest.approx(math.pi / 2,
                                                                      abs=1e-12)

    def test_hadamard_like_gap(self):
        assert lw.dispersion(math.pi / 2, 0.0) == pytest.approx(math.pi / 4,
                                                                abs=1e-12)


class TestModeEigensystem:
    def test_eigen_relation_residual(self):
        mode = lw.mode_eigensystem(math.pi / 2, 0.3)
        u = _unitary_at(math.pi / 2, 0.3)
        lam_plus, lam_minus = _eigenvalues(mode)
        assert np.linalg.norm(u @ mode.e_plus - lam_plus * mode.e_plus) < 1e-10
        assert np.linalg.norm(u @ mode.e_minus - lam_minus * mode.e_minus) < 1e-10

    def test_matches_numpy_eigendecomposition(self):
        gamma, k = 1.234, -0.7
        mode = lw.mode_eigensystem(gamma, k)
        values = np.linalg.eigvals(_unitary_at(gamma, k))
        for lam in _eigenvalues(mode):
            assert min(abs(values - lam)) < 1e-10

    def test_orthonormal_over_grid(self):
        # and next to a diagonal coin, where sin(gamma/2) is as small as 5e-12
        gammas = [*np.linspace(0.2, math.pi, 10), 1e-2, -1e-6, 1e-9, 1e-11,
                  2 * math.pi - 1e-8, 2 * math.pi + 1e-11, 4 * math.pi - 1e-10]
        ks = np.linspace(-math.pi, math.pi, 10)
        for gamma in gammas:
            for k in ks:
                mode = lw.mode_eigensystem(gamma, k)
                assert np.linalg.norm(mode.e_plus) == pytest.approx(1.0, abs=1e-10)
                assert np.linalg.norm(mode.e_minus) == pytest.approx(1.0, abs=1e-10)
                assert abs(np.vdot(mode.e_plus, mode.e_minus)) < 1e-10

    def test_pi_coin_at_band_center(self):
        mode = lw.mode_eigensystem(math.pi, 0.0)
        assert mode.omega == pytest.approx(math.pi / 2, abs=1e-12)
        assert _eigenvalues(mode) == pytest.approx((-1j, 1j), abs=1e-12)

    def test_array_of_momenta_matches_pointwise(self):
        gamma = -2.1
        ks = np.linspace(-math.pi, math.pi, 17)
        modes = lw.mode_eigensystem(gamma, ks)
        assert modes.e_plus.shape == modes.e_minus.shape == (2, 17)
        for j, k in enumerate(ks):
            mode = lw.mode_eigensystem(gamma, k)
            u = _unitary_at(gamma, k)
            lam_plus, lam_minus = _eigenvalues(modes)
            for vec, lam in ((modes.e_plus[:, j], lam_plus[j]),
                             (modes.e_minus[:, j], lam_minus[j])):
                assert np.linalg.norm(u @ vec - lam * vec) < 1e-12
            assert np.array_equal(mode.e_plus, modes.e_plus[:, j])
            assert np.array_equal(mode.e_minus, modes.e_minus[:, j])
            assert mode.omega == modes.omega[j]

    @pytest.mark.parametrize("gamma,k", [(math.nan, 0.3), (math.inf, 0.3),
                                         (1.0, [0.1, math.nan])])
    def test_rejects_non_finite(self, gamma, k):
        with pytest.raises(ValueError, match="gamma" if k == 0.3 else "k"):
            lw.mode_eigensystem(gamma, k)

    def test_degenerate_coin_rejected(self):
        with pytest.raises(lw.DegenerateCoinError):
            lw.mode_eigensystem(0.0, 0.3)
        with pytest.raises(lw.DegenerateCoinError):
            lw.mode_eigensystem(2 * math.pi, 0.3)


class TestEvolveSpectral:
    def test_zero_steps_identity(self):
        state = lw.evolve_spectral(lw.CoinSpinor(), math.pi / 3, 0, 16)
        dist = lw.position_distribution(state)
        assert dist[state.half_width] == pytest.approx(1.0, abs=1e-12)

    def test_matches_direct_evolution(self):
        n, ring = 10, 64
        spectral = lw.evolve_spectral(lw.CoinSpinor(), math.pi / 2, n, ring)
        direct = lw.evolve(lw.localized_walker(half_width=ring // 2),
                           lw.Conventional(math.pi / 2), n)
        assert np.max(np.abs(lw.position_distribution(spectral)
                             - lw.position_distribution(direct))) < 1e-12
        assert np.max(np.abs(spectral.amplitudes - direct.amplitudes)) < 1e-12

    def test_degenerate_coin_ballistic(self):
        state = lw.evolve_spectral(lw.CoinSpinor(), 0.0, 5, 16)
        dist = lw.position_distribution(state)
        assert dist[state.half_width + 5] == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("gamma", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_gamma(self, gamma):
        with pytest.raises(ValueError, match="gamma must be finite"):
            lw.evolve_spectral(lw.CoinSpinor(), gamma, 4, 16)

    def test_ring_too_small(self):
        with pytest.raises(lw.AliasingError):
            lw.evolve_spectral(lw.CoinSpinor(), 1.0, 8, 16)
        with pytest.raises(lw.AliasingError):
            lw.evolve_spectral(lw.CoinSpinor(), 1.0, 3, 15)

    @pytest.mark.parametrize("n,ring_size", [
        (2.5, 10), (True, 10), (np.True_, 10), (2.0, 10), ("2", 10), (None, 10),
        (2, True), (2, 10.0),
    ])
    def test_counts_must_be_integers(self, n, ring_size):
        with pytest.raises(TypeError):
            lw.evolve_spectral(lw.CoinSpinor(), 0.7, n, ring_size)

    def test_integer_like_counts_count_as_ints(self):
        state = lw.evolve_spectral(lw.CoinSpinor(), 0.7, np.int64(3), np.int64(10))
        assert type(state.steps_taken) is int and state.steps_taken == 3
        assert state.amplitudes.shape == (2, 11)

    def test_general_initial_coin(self):
        coin = lw.CoinSpinor.from_bloch(1.1, 0.4)
        spectral = lw.evolve_spectral(coin, 2.2, 7, 32)
        direct = lw.evolve(lw.localized_walker(coin, half_width=16),
                           lw.Conventional(2.2), 7)
        assert np.max(np.abs(spectral.amplitudes - direct.amplitudes)) < 1e-12

    @given(NEAR_DEGENERATE_GAMMAS, BLOCH_COINS, st.integers(1, 200))
    @example(1e-8, lw.CoinSpinor(), 200)
    @example(2 * math.pi - 1e-11, lw.CoinSpinor.from_bloch(1.1, 0.4), 150)
    @example(-4 * math.pi + 1e-6, lw.CoinSpinor.from_bloch(2.0, -1.0), 200)
    @settings(max_examples=60, deadline=None)
    def test_matches_direct_evolution_next_to_a_diagonal_coin(self, gamma, coin, n):
        spectral = lw.evolve_spectral(coin, gamma, n, 2 * n + 2)
        direct = lw.evolve(lw.localized_walker(coin, half_width=n + 1),
                           lw.Conventional(gamma), n)
        assert np.max(np.abs(spectral.amplitudes - direct.amplitudes)) <= 1e-12


class TestAsymptoticRho:
    def test_zero_angle_pure_state(self):
        rho = lw.asymptotic_rho(0.0)
        assert rho.rho11 == 1.0 and rho.rho22 == 0.0 and rho.rho12 == 0.0

    def test_hadamard_like_entries(self):
        rho = lw.asymptotic_rho(math.pi / 2)
        assert rho.rho11 == pytest.approx(1 - SQRT2 / 4, abs=1e-12)
        assert rho.rho12.real == pytest.approx(-(1 - SQRT2 / 2) / 2, abs=1e-12)
        assert rho.rho12.imag == 0.0

    def test_negative_angle_conjugation(self):
        # closed forms at 3pi/4: sin(3pi/8) = cos(pi/8), tan(3pi/8) = 1 + sqrt(2)
        rho = lw.asymptotic_rho(-3 * math.pi / 4)
        assert rho.rho11 == pytest.approx(1 - math.cos(math.pi / 8) / 2, abs=1e-12)
        expected12 = (1 - math.cos(math.pi / 8)) * (1 + SQRT2) / 2
        assert rho.rho12.real == pytest.approx(+expected12, abs=1e-12)
        assert round(rho.rho12.real, 5) == 0.09189
        mirrored = lw.asymptotic_rho(3 * math.pi / 4)
        assert mirrored.rho12.real == pytest.approx(-rho.rho12.real, abs=1e-15)

    def test_pi_limit_off_diagonal_vanishes(self):
        for gamma in (math.pi, -math.pi, 3 * math.pi):
            rho = lw.asymptotic_rho(gamma)
            assert rho.rho12 == 0.0
            assert rho.rho11 == pytest.approx(0.5, abs=1e-12)

    @given(st.floats(min_value=-20.0, max_value=20.0, allow_nan=False))
    @settings(max_examples=120)
    def test_always_a_valid_state(self, gamma):
        rho = lw.asymptotic_rho(gamma)
        assert rho.rho11 + rho.rho22 == pytest.approx(1.0, abs=1e-12)
        assert rho.determinant >= -1e-12

    @given(st.floats(min_value=-20.0, max_value=20.0, allow_nan=False))
    @example(0.0)
    @example(math.pi)
    @settings(max_examples=300)
    def test_determinant_closed_form(self, gamma):
        # det = s / (2 (1 + s)) >= 0: an equal mixture of two sector
        # matrices is a density matrix, and the sweep checks none of them
        s = abs(math.sin(lw.reduce_angle(gamma) / 2.0))
        determinant = lw.asymptotic_rho(gamma).determinant
        assert abs(determinant - s / (2.0 * (1.0 + s))) <= 4 * math.ulp(0.25)

    def test_validation_rejects_bad_matrix(self):
        # a ValueError still, for callers that catch that
        assert issubclass(lw.DensityMatrixError, ValueError)
        with pytest.raises(lw.DensityMatrixError, match="trace"):
            lw.DensityMatrix2(rho11=0.9, rho22=0.2, rho12=0.0)
        with pytest.raises(lw.DensityMatrixError, match="negative diagonal"):
            lw.DensityMatrix2(rho11=1.5, rho22=-0.5, rho12=0.0)
        with pytest.raises(lw.DensityMatrixError, match="positive semidefinite"):
            lw.DensityMatrix2(rho11=0.5, rho22=0.5, rho12=0.9)
        # a non-finite entry fails a check rather than pass all three
        for bad in (math.nan, math.inf, -math.inf):
            for entries, message in (((bad, 0.5, 0j), "trace"), ((0.5, bad, 0j), "trace"),
                                     ((0.5, 0.5, complex(bad, 0.0)), "positive semidefinite"),
                                     ((0.5, 0.5, complex(0.0, bad)), "positive semidefinite")):
                with pytest.raises(lw.DensityMatrixError, match=message):
                    lw.DensityMatrix2(*entries)


class TestRhoEigenvalues:
    def test_pure_state(self):
        assert lw.rho_eigenvalues(lw.DensityMatrix2(1.0, 0.0, 0.0)) == (1.0, 0.0)

    def test_maximally_mixed(self):
        lam = lw.rho_eigenvalues(lw.DensityMatrix2(0.5, 0.5, 0.0))
        assert lam == pytest.approx((0.5, 0.5), abs=1e-15)

    def test_hadamard_like_spectrum(self, discriminant):
        lam = lw.rho_eigenvalues(lw.asymptotic_rho(math.pi / 2))
        assert lam[0] == pytest.approx(SQRT2 / 2, abs=1e-12)
        assert lam[1] == pytest.approx(1 - SQRT2 / 2, abs=1e-12)
        assert lam[0] - lam[1] == pytest.approx(discriminant(math.pi / 2), abs=1e-12)

    def test_gap_equals_discriminant_on_grid(self, discriminant):
        for gamma in np.linspace(1e-3, math.pi - 1e-3, 50):
            lam = lw.rho_eigenvalues(lw.asymptotic_rho(gamma))
            assert lam[0] - lam[1] == pytest.approx(discriminant(gamma), abs=1e-12)

    def test_matches_eigvalsh_on_random_density_matrices(self):
        rng = np.random.default_rng(11)
        for rank in (1, 2):
            for _ in range(500):
                a = rng.normal(size=(2, rank)) + 1j * rng.normal(size=(2, rank))
                m = a @ a.conj().T
                m /= np.trace(m).real
                rho = lw.DensityMatrix2(m[0, 0].real, m[1, 1].real, complex(m[0, 1]))
                matrix = np.array([[rho.rho11, rho.rho12],
                                   [np.conj(rho.rho12), rho.rho22]])
                lo, hi = np.clip(np.linalg.eigvalsh(matrix), 0.0, 1.0)
                lam = lw.rho_eigenvalues(rho)
                assert lam[0] >= lam[1] >= 0.0
                assert abs(lam[0] - hi) <= 1e-15 and abs(lam[1] - lo) <= 1e-15

    def test_roundoff_outside_unit_interval_is_clamped(self):
        rho = lw.DensityMatrix2(1.0 + 5e-13, -5e-13, 0.0)
        assert lw.rho_eigenvalues(rho) == (1.0, 0.0)

    def test_closed_form_quarter_angle(self):
        # The eigenvalues follow 1/(1 + tan(gamma/4)) and 1/(1 + cot(gamma/4)).
        for gamma in (0.5, 1.2, 2.4, 3.0):
            lam = lw.rho_eigenvalues(lw.asymptotic_rho(gamma))
            t = math.tan(gamma / 4)
            assert lam[0] == pytest.approx(1 / (1 + t), abs=1e-12)
            assert lam[1] == pytest.approx(1 / (1 + 1 / t), abs=1e-12)


class TestEntropy:
    def test_pure_state(self):
        assert lw.entropy(lw.DensityMatrix2(1.0, 0.0, 0.0)) == 0.0

    def test_maximally_mixed(self):
        assert lw.entropy(lw.DensityMatrix2(0.5, 0.5, 0.0)) == pytest.approx(1.0)

    def test_hadamard_like_value(self):
        assert lw.entropy(lw.asymptotic_rho(math.pi / 2)) == pytest.approx(0.87243,
                                                                           abs=1e-5)

    def test_monotone_on_primary_domain(self):
        gammas = np.linspace(0.0, math.pi, 60)
        values = [lw.entropy(lw.asymptotic_rho(g)) for g in gammas]
        assert all(0.0 <= s <= 1.0 for s in values)
        assert all(b >= a - 1e-12 for a, b in zip(values, values[1:]))
        assert values[0] == pytest.approx(0.0, abs=1e-12)
        assert values[-1] == pytest.approx(1.0, abs=1e-12)


class TestSpectra:
    """``_spectra``, the one closed form behind ``rho_eigenvalues``,
    ``entropy`` and the sweep's mixture entropies, against the scalar
    reference."""

    @given(st.lists(st.one_of(DENSITY_TRIPLES, BOUNDARY_TRIPLES), min_size=1, max_size=4))
    @example([(1.0, 0.0, 0j)])  # pure
    @example([(0.5, 0.5, 0j)])  # maximally mixed
    @example([(1.0 + 5e-13, -5e-13, 0j)])  # roundoff puts a lambda outside [0, 1]
    @settings(max_examples=300)
    def test_matches_the_scalar_reference_bit_for_bit(self, triples):
        expected = []
        for triple in triples:
            try:
                expected.append(reference_spectrum(*triple))
            except ValueError as error:
                with pytest.raises(lw.DensityMatrixError) as raised:
                    _spectra(*zip(*triples))
                assert str(raised.value) == str(error)
                return
        eigenvalues, entropies = _spectra(*zip(*triples))
        assert [(*map(float.hex, pair), s.hex()) for pair, s in zip(eigenvalues, entropies)] == [
            (*map(float.hex, pair), s.hex()) for pair, s in expected]


class TestMutualInformation:
    def test_identical_components(self):
        rho = lw.asymptotic_rho(1.0)
        assert lw.mutual_information(rho, rho) == pytest.approx(lw.entropy(rho),
                                                                abs=1e-15)

    def test_alternating_point(self):
        eff = lw.effective_angles(-math.pi / 4, 0.0)
        rho1 = lw.asymptotic_rho(eff.gamma1)
        rho2 = lw.asymptotic_rho(eff.gamma2)
        assert lw.mutual_information(rho1, rho2) == pytest.approx(0.9713, abs=2e-4)

    def test_independent_like_point(self):
        eff = lw.effective_angles(-math.pi / 4, 3 * math.pi / 4)
        rho1 = lw.asymptotic_rho(eff.gamma1)
        rho2 = lw.asymptotic_rho(eff.gamma2)
        assert lw.mutual_information(rho1, rho2) == pytest.approx(0.2180, abs=2e-4)

    def test_can_be_negative(self):
        up = lw.DensityMatrix2(1.0, 0.0, 0.0)
        down = lw.DensityMatrix2(0.0, 1.0, 0.0)
        assert lw.mutual_information(up, down) == pytest.approx(-1.0)

    @given(st.floats(min_value=-6.0, max_value=6.0, allow_nan=False),
           st.floats(min_value=-6.0, max_value=6.0, allow_nan=False))
    @settings(max_examples=80)
    def test_average_entropy_concavity(self, g1, g2):
        rho1, rho2 = lw.asymptotic_rho(g1), lw.asymptotic_rho(g2)
        s_avg = lw.entropy(lw.average_rho(rho1, rho2))
        assert s_avg >= (lw.entropy(rho1) + lw.entropy(rho2)) / 2 - 1e-12

    def test_beta_zero_fully_dependent(self):
        row = lw.sweep_summary([-math.pi / 4], [0.0])[0]
        assert row["mutual_information"] == row["s1"]


class TestFiniteNRho:
    def test_initial_up_state(self):
        rho = lw.finite_n_rho(lw.localized_walker(half_width=4))
        assert rho.rho11 == 1.0 and rho.rho22 == 0.0 and rho.rho12 == 0.0

    def test_unit_trace_random_walks(self):
        rng = np.random.default_rng(3)
        for _ in range(5):
            gamma = rng.uniform(-math.pi, math.pi)
            n = int(rng.integers(1, 30))
            state = lw.evolve(lw.localized_walker(half_width=n + 2),
                              lw.Conventional(gamma), n)
            rho = lw.finite_n_rho(state)
            assert rho.rho11 + rho.rho22 == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("n_steps", [True, np.True_, 2.5, 1.0, "2", None])
    def test_cesaro_n_steps_must_be_an_integer(self, n_steps):
        with pytest.raises(TypeError):
            lw.cesaro_rho(0.7, n_steps)

    def test_cesaro_average_approaches_asymptotic(self):
        ces = lw.cesaro_rho(math.pi / 2, 400)
        asy = lw.asymptotic_rho(math.pi / 2)
        assert ces.rho11 == pytest.approx(asy.rho11, abs=1e-2)
        assert ces.rho12.real == pytest.approx(asy.rho12.real, abs=1e-2)

    @given(st.one_of(st.floats(-2 * math.pi, 2 * math.pi),
                     st.sampled_from([0.0, 2 * math.pi, -2 * math.pi, 4 * math.pi, math.pi]),
                     NEAR_DEGENERATE_GAMMAS),
           st.integers(1, 3000), BLOCH_COINS)
    @example(0.0, 3000, lw.CoinSpinor.from_bloch(1.1, 0.4))
    @example(2 * math.pi - 1e-11, 3000, lw.CoinSpinor.from_bloch(2.0, -1.0))
    @example(-1e-7, 2000, lw.CoinSpinor())
    @settings(max_examples=25, deadline=None)
    def test_cesaro_matches_the_one_step_reference(self, gamma, n, coin):
        rho = lw.cesaro_rho(gamma, n, coin)
        expected = reference_cesaro_rho(gamma, n, coin)
        assert max(abs(x - y) for x, y in zip((rho.rho11, rho.rho22, rho.rho12),
                                              expected)) <= 1e-12

    @pytest.mark.parametrize("gamma", [math.pi / 4, math.pi / 2, 3 * math.pi / 4, 0.3, 2.9])
    def test_cesaro_error_falls_as_one_over_n(self, gamma):
        """``n |Cesaro(n) - asymptotic|`` reads 0.097 .. 0.27 on these angles
        for n = 200 .. 256,000 and tends to a constant, by steps that
        shrink as about ``n^{-1/2}``: no ``log n`` factor."""
        asy = lw.asymptotic_rho(gamma)
        for n in (200, 500, 1000, 2000, 4000, 8000):
            ces = lw.cesaro_rho(gamma, n)
            assert n * max(abs(ces.rho11 - asy.rho11), abs(ces.rho12 - asy.rho12)) <= 0.3

    @pytest.mark.parametrize("gamma,theta,phi", [
        ("1/2pi", 0.0, 0.0), ("0.3", 1.1, 0.4), ("-2.9", 2.0, -1.0)])
    def test_per_step_form_is_the_walk1d_entropy_oracle(self, gamma, theta, phi):
        n = 300
        angle = parse_angle(gamma)
        entropies = run_walk1d(angle, n, theta, phi)["tables"]["steps"]["rows"]["entropy"]
        rhos = momentum_coin_matrices(angle.radians, n, lw.CoinSpinor.from_bloch(theta, phi))
        expected = [lw.entropy(lw.DensityMatrix2(rho[0, 0].real, rho[1, 1].real, rho[0, 1]))
                    for rho in rhos]
        assert np.max(np.abs(entropies - expected)) <= 1e-12


class TestSectorAnalytics:
    """The per-point sector analytics, read off one-point ``sweep_summary``
    rows and ``effective_angles``."""

    def test_alternating_point_collapses(self):
        row = lw.sweep_summary([-math.pi / 4], [0.0])[0]
        assert row["m1"] == row["m2"] == row["m"]
        assert row["d1"] == pytest.approx(row["d2"], abs=1e-12)

    def test_m2_vanishes(self):
        row = lw.sweep_summary([-math.pi / 4], [math.pi / 4])[0]
        assert row["m2"] == 0.0
        assert row["d2"] == pytest.approx(0.0, abs=1e-12)

    def test_exact_and_float_angles_agree_on_grid(self):
        grid = parse_grid("-pi:pi:129")
        floats = [angle.radians for angle in grid]
        exact_rows, float_rows = lw.sweep_summary(grid, grid), lw.sweep_summary(floats, floats)
        assert list(exact_rows["pattern"]) == list(float_rows["pattern"])
        worst = max(float(np.max(np.abs(exact_rows[k] - float_rows[k])))
                    for k in exact_rows.dtype.names[2:-1])
        for alpha in grid:
            for beta in grid:
                e = lw.effective_angles(alpha, beta)
                f = lw.effective_angles(alpha.radians, beta.radians)
                worst = max(worst, abs(e.phi - f.phi))
                for x, y in ((e.gamma1_reduced, f.gamma1_reduced),
                             (e.gamma2_reduced, f.gamma2_reduced)):
                    assert abs(math.remainder(x - y, 2 * math.pi)) <= 1e-12
        assert worst <= 1e-12

    def test_gaps_match_discriminant(self, discriminant):
        # The gap (1 - sin(a/2)) / cos(a/2) is read off asymptotic_rho's
        # entries, whose rounding grows as 1/cos(a/2) towards |gamma| = pi;
        # discriminant evaluates it without that cancellation.
        grid = parse_grid("-pi:pi:129")
        alphas = grid[::4]
        for args in ((alphas, grid), ([a.radians for a in alphas], [b.radians for b in grid], 0.7)):
            rows = lw.sweep_summary(*args)
            points = [(a, b) for a in args[0] for b in args[1]]
            for row, point in zip(rows, points):
                eff = lw.effective_angles(*point, *args[2:])
                for d, gamma in ((row["d1"], eff.gamma1_reduced),
                                 (row["d2"], eff.gamma2_reduced)):
                    tol = 1e-15 / abs(math.cos(gamma / 2))
                    assert abs(d - discriminant(gamma)) <= tol, gamma

    def test_m1_maximized(self):
        row = lw.sweep_summary([-math.pi / 4], [3 * math.pi / 4])[0]
        assert row["m1"] == pytest.approx(1.0, abs=1e-12)
        assert row["d1"] == pytest.approx(1.0, abs=1e-12)
        assert row["s1"] == pytest.approx(0.0, abs=1e-10)


def reference_summary(alpha, beta, gamma_y=lw.Angle(-math.pi / 2, Fraction(-1, 2))) -> tuple:
    """The ``sweep_summary`` row at ``(alpha, beta, gamma_y)`` by an
    independent route: exact sector angles in ``Fraction`` arithmetic,
    every closed form evaluated afresh, the spectra by
    ``reference_spectrum``.  ``float.hex`` of each float field,
    which keeps the sign of a zero apart, and the pattern label."""
    angles = [a if isinstance(a, lw.Angle) else lw.Angle(a) for a in (alpha, beta, gamma_y)]
    if all(a.pi_fraction is not None for a in angles):
        a, b, gy = (angle.pi_fraction for angle in angles)
        gamma1 = a + b + gy
        phi = 2 * (1 - b)
        gamma2 = gamma1 + phi

        def radians(f: Fraction) -> float:
            return float(f) * math.pi

        eff = lw.EffectiveAngles(
            gamma1=radians(gamma1), gamma2=radians(gamma2), phi=radians(phi),
            gamma1_reduced=radians(1 - (1 - gamma1) % 2),
            gamma2_reduced=radians(1 - (1 - gamma2) % 2))
    else:
        eff = lw.effective_angles(*angles)
    rho1 = lw.asymptotic_rho(eff.gamma1_reduced)
    rho2 = lw.asymptotic_rho(eff.gamma2_reduced)
    (hi1, lo1), s1 = reference_spectrum(rho1.rho11, rho1.rho22, rho1.rho12)
    (hi2, lo2), s2 = reference_spectrum(rho2.rho11, rho2.rho22, rho2.rho12)
    mixture = lw.average_rho(rho1, rho2)
    m1, m2 = (1.0 - abs(math.sin(g / 2.0)) for g in (eff.gamma1_reduced, eff.gamma2_reduced))
    values = (angles[0].radians, angles[1].radians, eff.gamma1, eff.gamma2,
              m1, m2, (m1 + m2) / 2.0, hi1 - lo1, hi2 - lo2, s1, s2,
              s1 + s2 - reference_spectrum(mixture.rho11, mixture.rho22, mixture.rho12)[1])
    return (*map(float.hex, values), eff.pattern.value)


def _row_hex(row) -> tuple:
    names = row.dtype.names
    assert names[-1] == "pattern"
    return (*(float.hex(float(row[name])) for name in names[:-1]), str(row["pattern"]))


def _exact(numerator: int, denominator: int) -> lw.Angle:
    f = Fraction(numerator, denominator)
    return lw.Angle(float(f) * math.pi, f)


class TestOnePointRowBits:
    """``sweep_summary`` adds exact angles as integers and evaluates the
    sector closed forms once per distinct angle; neither may move a bit
    of a one-point row, at the default ``gamma_y`` or any other."""

    def assert_bit_identical(self, points):
        rows = [lw.sweep_summary([p[0]], [p[1]], *p[2:])[0] for p in points]
        assert [_row_hex(row) for row in rows] == [reference_summary(*p) for p in points]

    def test_pi_over_64_grid(self):
        grid = parse_grid("-pi:pi:129")
        self.assert_bit_identical([(a, b) for a in grid for b in grid])

    def test_mixed_denominators(self):
        points = [tuple(parse_angle(t) for t in ("1/3pi", "1/4pi", "-1/2pi"))]
        points += [(a, b, parse_angle("1/7pi")) for a in parse_grid("-2pi:2pi:13")
                   for b in parse_grid("-1/5pi:9/5pi:11")]
        self.assert_bit_identical(points)

    def test_numerators_past_float_precision(self):
        big = [2**53 + 1, -(2**53) - 3, 3 * 2**60 + 7, 10**30 + 7, -(10**30) + 1]
        points = [(_exact(n, d), _exact(m, 8192))
                  for n in big for d in (1, 3, 8192) for m in (1, -3 * 2**55 + 1)]
        points += [(_exact(n, 3), _exact(1, 4), _exact(-n + 5, 7)) for n in big]
        self.assert_bit_identical(points)

    def test_signed_zero_angles_share_a_cache_entry(self):
        # gamma1 reduces to -0.0 at alpha = -3pi/2 and to 0.0 at pi/2
        negative, positive = (-3 * math.pi / 2, 0.0), (math.pi / 2, 0.0)
        assert repr(lw.effective_angles(*negative).gamma1_reduced) == "-0.0"
        assert repr(lw.effective_angles(*positive).gamma1_reduced) == "0.0"
        for order in ([positive, negative], [negative, positive]):
            self.assert_bit_identical(order)
        # one grid holding both: the two share a sector-angle key
        rows = lw.sweep_summary([positive[0], negative[0]], [0.0])
        assert [_row_hex(row) for row in rows] == [
            reference_summary(*p) for p in (positive, negative)]


# Lists of exact angles or of float angles, signed zeros and huge
# numerators included.
SWEEP_LISTS = st.one_of(*(st.lists(angles, min_size=1, max_size=6) for angles in (
    st.one_of(st.floats(-10.0, 10.0), st.sampled_from([0.0, -0.0, math.pi, -1.5 * math.pi])),
    st.one_of(st.builds(_exact, st.integers(-300, 300), st.integers(1, 100)),
              st.builds(_exact, st.sampled_from([10**30 + 7, -(3 * 2**60) - 1]),
                        st.integers(1, 9))))))


FRACTIONS = st.one_of(st.sampled_from([Fraction(-1), Fraction(0), Fraction(1)]),
                      st.builds(Fraction, st.integers(-400, 400), st.integers(1, 100)))
EXACT_GRIDS = st.builds(lambda a, b, n: parse_grid(f"{a}pi:{b}pi:{n}"),
                        FRACTIONS, FRACTIONS, st.integers(1, 9))
FLOAT_GRIDS = st.one_of(
    st.lists(st.one_of(st.floats(-20.0, 20.0),
                       st.sampled_from([0.0, -0.0, math.pi, -math.pi, 1.5 * math.pi])),
             min_size=1, max_size=9).map(lambda xs: [lw.Angle(x) for x in xs]),
    st.builds(lambda a, b, n: parse_grid(f"{a!r}:{b!r}:{n}"),
              st.floats(-7.0, 7.0), st.floats(-7.0, 7.0), st.integers(1, 9)))


class TestSweepSummary:
    """``sweep_summary`` gives ``reference_summary``'s bits at every grid
    point."""

    @staticmethod
    def assert_sweep_rows_match_reference(alpha_grid, beta_grid):
        """Each float field of every ``run_sweep`` row has the bits of the
        reference value at that point, and the pattern is the same."""
        rows = run_sweep(alpha_grid, beta_grid)["tables"]["sweep"]["rows"]
        points = [(a, b) for a in alpha_grid for b in beta_grid]
        assert [_row_hex(row) for row in rows] == [reference_summary(*p) for p in points]

    @given(grids=st.one_of(st.tuples(EXACT_GRIDS, EXACT_GRIDS),
                           st.tuples(FLOAT_GRIDS, FLOAT_GRIDS)))
    @settings(max_examples=80, deadline=None)
    def test_run_sweep_rows_match_reference_summary_bits(self, grids):
        self.assert_sweep_rows_match_reference(*grids)

    def test_reference_grid_rows_match_reference_summary_bits(self):
        grid = parse_grid("-pi:pi:129")
        self.assert_sweep_rows_match_reference(grid, grid)

    @given(SWEEP_LISTS, SWEEP_LISTS,
           st.one_of(st.just(()), st.tuples(st.floats(-10.0, 10.0)),
                     st.tuples(st.builds(_exact, st.integers(-50, 50), st.integers(1, 30)))))
    @example([-1.5 * math.pi, math.pi / 2], [-0.0, 0.0], ())  # gamma1 = -0.0 and 0.0
    @example([_exact(1, 2)], [0.0, -0.0], ())  # an exact alpha row with float betas
    @example([_exact(1, 2)], [_exact(3, 4)], (0.7,))  # exact grids, a float gamma_y
    @settings(max_examples=150, deadline=None)
    def test_matches_reference_summary_bits(self, alphas, betas, gamma_y):
        """At the default ``gamma_y`` (``()``) and at drawn ones."""
        rows = lw.sweep_summary(alphas, betas, *gamma_y)
        points = [(a, b, *gamma_y) for a in alphas for b in betas]
        assert [_row_hex(row) for row in rows] == [reference_summary(*p) for p in points]

    @pytest.mark.parametrize("alpha_grid,beta_grid", [
        ("0:1/13pi:17", "0:1/11pi:17"),  # coprime steps: every row brings new sums
        ("-3:3:120", "-2.9:3.1:120"),    # float sums that recur across the rows
        ("-pi:pi:33", "-pi:pi:33"),      # sums that reduce to one angle
    ])
    def test_one_closed_form_per_distinct_reduced_angle(self, alpha_grid, beta_grid):
        alphas, betas = parse_grid(alpha_grid), parse_grid(beta_grid)
        angles = set()
        for alpha in alphas:
            for beta in betas:
                eff = lw.effective_angles(alpha, beta)
                angles |= {eff.gamma1_reduced.hex(), eff.gamma2_reduced.hex()}
        forms = lw.spectral._sector_closed_forms
        with mock.patch.object(lw.spectral, "_sector_closed_forms", wraps=forms) as counted:
            lw.sweep_summary(alphas, betas)
        assert counted.call_count == len(angles)

    def test_memory_follows_the_rows(self):
        # coprime steps: no sector-angle sum repeats, so there are 20,000
        # of them, two per point; a peak of 3x the rows leaves no room for
        # a Python object per sum held beside the rows
        alphas, betas = parse_grid("0pi:1/1009pi:100"), parse_grid("0pi:1/1013pi:100")
        tracemalloc.start()
        try:
            rows = lw.sweep_summary(alphas, betas)
            _size, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 3 * rows.nbytes

    @pytest.mark.parametrize("alphas,betas", [
        ([0.3, _exact(1, 2)], [0.1]),
        ([0.3], [_exact(1, 2), 0.1]),
    ])
    def test_refuses_a_grid_of_mixed_kinds(self, alphas, betas):
        with pytest.raises(ValueError, match="mixes pi-fractions and plain floats"):
            lw.sweep_summary(alphas, betas)

    def test_empty_grids(self):
        assert len(lw.sweep_summary([], [0.3])) == 0
        assert len(lw.sweep_summary([0.3], [])) == 0
        # no point, so nothing to refuse
        assert len(lw.sweep_summary([], [math.inf])) == 0
        assert len(lw.sweep_summary([0.3], [], math.nan)) == 0

    @pytest.mark.parametrize("alphas,betas", [
        ([0.0, 1e308], [1e308]),           # gamma1 past the range at the second point
        ([0.3], [0.1, -1e308, 1e308]),     # phi first, then gamma1
        ([_exact(1, 2), _exact(5 * 10**307, 1)], [_exact(5 * 10**307, 1), _exact(1, 5)]),
        ([1e308], [-5e307]),               # gamma1 + gamma2 past the range
        ([1e308], [0.1, 1e308]),           # the pattern first, then gamma1
        ([0.0, math.nan], [math.inf]),     # beta at the first point, not alpha
        ([1e308], [-1e308, math.inf]),     # phi at the first point, not beta
        ([lw.Angle(math.inf, Fraction(1))], [_exact(1, 2)]),  # a pi-fraction is not enough
    ])
    def test_refuses_like_effective_angles_at_the_first_point(self, alphas, betas):
        self.assert_refuses_like_effective_angles(alphas, betas)

    @pytest.mark.parametrize("alphas,betas,gamma_y", [
        ([1e308], [0.5], 1e308),             # gamma1 past the range
        ([0.3], [0.1, 0.2], 1e308),          # gamma1 + gamma2 past the range
        ([0.0, 1e308], [0.5], 8e307),        # gamma1 past the range at the second point
        ([0.3], [0.1, -1e308], -8e307),      # the same, below the range
        ([_exact(1, 2)], [_exact(1, 5), _exact(5 * 10**307, 1)], _exact(10**307, 1)),
        ([0.0, math.nan], [0.5], math.inf),  # gamma_y at the first point, not alpha
    ])
    def test_refuses_gamma_y_overflow_at_the_first_point(self, alphas, betas, gamma_y):
        self.assert_refuses_like_effective_angles(alphas, betas, gamma_y)

    @staticmethod
    def assert_refuses_like_effective_angles(alphas, betas, *gamma_y):
        """``sweep_summary`` raises the exception that ``effective_angles``
        or its pattern raises at the first refused point."""
        for alpha, beta in ((a, b) for a in alphas for b in betas):
            try:
                lw.effective_angles(alpha, beta, *gamma_y).pattern
            except ValueError as error:
                expected = error
                break
        with pytest.raises(ValueError) as raised:
            lw.sweep_summary(alphas, betas, *gamma_y)
        assert str(raised.value) == str(expected)


def _bits(triple) -> tuple:
    return tuple(map(float.hex, triple))


def _record_spectra(alpha_grid: str, beta_grid: str) -> tuple:
    """``sweep_summary`` over the two grids, with the ``(rho11, rho22,
    |rho12|)`` of every mixture it passes to ``_spectra``, in order, the
    sector closed forms it evaluates, and each point's mixture by the
    reference route."""
    alphas, betas = parse_grid(alpha_grid), parse_grid(beta_grid)
    mixtures, sectors, inside = [], [], []
    forms = lw.spectral._sector_closed_forms

    def sector_forms(gamma_reduced):
        sectors.append(gamma_reduced)
        inside.append(gamma_reduced)
        try:
            return forms(gamma_reduced)
        finally:
            inside.pop()

    def recording(rho11, rho22, rho12):
        if not inside:
            mixtures.extend(zip(rho11, rho22, map(abs, rho12)))
        return _spectra(rho11, rho22, rho12)

    with mock.patch.object(lw.spectral, "_spectra", recording), \
            mock.patch.object(lw.spectral, "_sector_closed_forms", sector_forms):
        rows = lw.sweep_summary(alphas, betas)
    points = []
    for alpha in alphas:
        for beta in betas:
            eff = lw.effective_angles(alpha, beta)
            mixture = lw.average_rho(*map(lw.asymptotic_rho,
                                          (eff.gamma1_reduced, eff.gamma2_reduced)))
            points.append((mixture.rho11, mixture.rho22, abs(mixture.rho12)))
    assert len(points) == len(rows)
    return mixtures, len(sectors), points


class TestSweepMixtures:
    """What makes a check of each sweep mixture needless, and what makes
    the sweep take each entropy once: the mixtures that ``sweep_summary``
    takes the entropy of are the points' own, each a density matrix, and
    each distinct one is taken once."""

    @pytest.mark.parametrize("alpha_grid,beta_grid", [
        ("-pi:pi:129", "-pi:pi:129"),
        ("-3:3:60", "-2.9:3.1:60"),
        ("0pi:1/13pi:120", "0pi:1/11pi:120"),
    ])
    def test_every_mixture_has_no_negative_eigenvalue(self, alpha_grid, beta_grid):
        mixtures, _, points = _record_spectra(alpha_grid, beta_grid)
        assert set(map(_bits, mixtures)) == set(map(_bits, points))
        lowest = min((x + y - math.hypot(x - y, 2.0 * z)) / 2.0 for x, y, z in mixtures)
        assert lowest >= -4 * math.ulp(1.0)

    def test_each_distinct_mixture_of_the_pi_grid_once(self):
        # 16,641 points, 385 distinct sums
        mixtures, sectors, points = _record_spectra("-pi:pi:129", "-pi:pi:129")
        assert len(mixtures) == len(set(map(_bits, mixtures))) == 2113
        assert sectors == 128
        assert set(map(_bits, mixtures)) == set(map(_bits, points))

    def test_each_point_mixture_once_where_none_repeats(self):
        mixtures, _, points = _record_spectra("0.1:0.9:40", "-0.3:1.2:37")
        assert len(set(map(_bits, points))) == len(points)
        assert sorted(map(_bits, mixtures)) == sorted(map(_bits, points))


# added to the corrupted sector matrix's rho12: its mixture with any sector
# matrix, whose |rho12| is below 1/2, then has |rho12| above 1/2 and a
# negative eigenvalue
_CORRUPTION = 2.0


def _corrupt_one_sum(target: float):
    """Patch ``_sector_closed_forms`` so that the sector matrix at reduced
    angle ``target`` has ``_CORRUPTION`` added to its ``rho12``,
    unvalidated; every mixture with it then has a negative eigenvalue."""
    forms = lw.spectral._sector_closed_forms

    def corrupted(gamma_reduced):
        rho, d, s = forms(gamma_reduced)
        if gamma_reduced == target:
            rho = SimpleNamespace(rho11=rho.rho11, rho22=rho.rho22,
                                  rho12=rho.rho12 + _CORRUPTION)
        return rho, d, s

    return mock.patch.object(lw.spectral, "_sector_closed_forms", corrupted)


def _mixture_refusals(alphas, betas, target) -> list:
    """The negative-eigenvalue message at every point, in alpha-major
    order, whose mixture ``_corrupt_one_sum(target)`` makes refused."""
    messages = []
    for alpha in alphas:
        for beta in betas:
            eff = lw.effective_angles(alpha, beta)
            rhos = [lw.asymptotic_rho(g) for g in (eff.gamma1_reduced, eff.gamma2_reduced)]
            offsets = [_CORRUPTION if g == target else 0.0
                       for g in (eff.gamma1_reduced, eff.gamma2_reduced)]
            mixture = (0.5 * (rhos[0].rho11 + rhos[1].rho11),
                       0.5 * (rhos[0].rho22 + rhos[1].rho22),
                       0.5 * ((rhos[0].rho12.real + offsets[0])
                              + (rhos[1].rho12.real + offsets[1])))
            try:
                reference_spectrum(*mixture)
            except ValueError as error:
                messages.append(str(error))
    return messages


PATTERN_REFUSAL = (ValueError, "a walk pattern needs finite angles")
MIXTURE_REFUSAL = (lw.DensityMatrixError, "density matrix has negative eigenvalue")


class TestMixtureRefusal:
    """A sweep mixture with an eigenvalue below ``-1e-12`` is refused with
    ``DensityMatrixError``, at the first such point of its block, after
    the pattern refusals of the whole block."""

    GRID = "-pi:pi:9"

    def target(self):
        grid = parse_grid(self.GRID)
        return lw.effective_angles(grid[4], grid[3]).gamma1_reduced

    def test_sweep_summary_raises_at_the_first_refused_mixture(self):
        grid = parse_grid(self.GRID)
        messages = _mixture_refusals(grid, grid, self.target())
        # refused at more than one point, with more than one message, so
        # the first is told apart
        assert len(set(messages)) > 1
        with _corrupt_one_sum(self.target()):
            with pytest.raises(lw.DensityMatrixError) as raised:
                lw.sweep_summary(grid, grid)
        assert str(raised.value) == messages[0]

    def test_sweep_command_exits_three(self, tmp_path):
        with _corrupt_one_sum(self.target()):
            code, out, err = run_main(["sweep", f"--alpha-grid={self.GRID}",
                                       f"--beta-grid={self.GRID}", "--format", "csv",
                                       "--out", str(tmp_path / "sweep.csv")])
        assert code == 3
        assert err.startswith("ladderwalk: numeric invariant violated: "
                              "density matrix has negative eigenvalue")
        assert err.count("\n") == 1
        assert "Traceback" not in err and out == ""
        assert list(tmp_path.iterdir()) == []

    def test_pattern_refusal_of_the_row_comes_first(self):
        # the corrupted mixture is the row's first point, the pattern
        # refusal its second
        target = lw.effective_angles(0.3, 0.1).gamma1_reduced
        with _corrupt_one_sum(target):
            with pytest.raises(lw.DensityMatrixError):
                lw.sweep_summary([0.3], [0.1])
            TestSweepSummary.assert_refuses_like_effective_angles([0.3], [0.1, 1e308])

    @pytest.mark.parametrize("alphas,betas,in_one_block,row_by_row", [
        ([0.3, 1e308], [0.1], PATTERN_REFUSAL, MIXTURE_REFUSAL),
        ([1e308, 0.3], [0.1], PATTERN_REFUSAL, PATTERN_REFUSAL),
        ([0.2, 0.3, 1e308], [0.1, 0.5], PATTERN_REFUSAL, MIXTURE_REFUSAL),
        ([0.2, 1e308, 0.3], [0.1, 0.5], PATTERN_REFUSAL, PATTERN_REFUSAL),
    ])
    def test_pattern_refusals_of_a_block_come_first(self, alphas, betas, in_one_block,
                                                     row_by_row):
        # the corrupted mixture is at (0.3, 0.1), the pattern refusal
        # (gamma1 + gamma2 past the range) in the row of 1e308: in one
        # block the pattern refusal wins wherever its row is, and with a
        # row per block whichever row comes first is refused
        target = lw.effective_angles(0.3, 0.1).gamma1_reduced
        refused = row_by_row if lw.spectral._SWEEP_BLOCK == 1 else in_one_block
        with _corrupt_one_sum(target):
            with pytest.raises(ValueError) as raised:
                lw.sweep_summary(alphas, betas)
        assert type(raised.value) is refused[0]
        assert str(raised.value).startswith(refused[1])


def _corrupt_rho12(target: float, offset, both_signs: bool):
    """Patch ``_sector_closed_forms`` so that the sector matrix at reduced
    angle ``target``, and at ``-target`` too with ``both_signs``, has
    ``offset(rho12)`` added to its ``rho12``, unvalidated."""
    forms = lw.spectral._sector_closed_forms

    def corrupted(gamma_reduced):
        rho, d, s = forms(gamma_reduced)
        if gamma_reduced == target or both_signs and gamma_reduced == -target:
            rho = SimpleNamespace(rho11=rho.rho11, rho22=rho.rho22,
                                  rho12=rho.rho12 + offset(rho.rho12.real))
        return rho, d, s

    return mock.patch.object(lw.spectral, "_sector_closed_forms", corrupted)


def _corrupted_mixtures(grid, target: float, offset, both_signs: bool) -> list:
    """Each point's mixture, in alpha-major order, as ``_corrupt_rho12``
    makes it."""
    mixtures = []
    for alpha in grid:
        for beta in grid:
            eff = lw.effective_angles(alpha, beta)
            angles = (eff.gamma1_reduced, eff.gamma2_reduced)
            rhos = [lw.asymptotic_rho(g) for g in angles]
            z = [rho.rho12.real + (offset(rho.rho12.real) if g == target
                                   or both_signs and g == -target else 0.0)
                 for rho, g in zip(rhos, angles)]
            mixtures.append((0.5 * (rhos[0].rho11 + rhos[1].rho11),
                             0.5 * (rhos[0].rho22 + rhos[1].rho22), 0.5 * (z[0] + z[1])))
    return mixtures


class TestMixtureTable:
    """Where the grid's mixtures repeat, the sweep takes each distinct one
    once into a table, keyed on its two sector matrices' classes: a class
    holds only matrices of one ``rho11``, ``rho22`` and ``|rho12|``, and a
    refusal still comes at the first refused point, whichever point the
    table took the mixture at."""

    GRID = "-pi:pi:9"

    def target(self):
        grid = parse_grid(self.GRID)
        return lw.effective_angles(grid[4], grid[3]).gamma1_reduced

    def test_the_grid_takes_the_table(self):
        mixtures, _, points = _record_spectra(self.GRID, self.GRID)
        assert len(mixtures) == len(set(map(_bits, points))) < len(points)

    def test_a_class_broken_by_one_sign_splits(self):
        # rho12 at -3pi/4 only moves: its matrix no longer shares |rho12|
        # with the one at 3pi/4, and each point keeps its own mixture
        grid = parse_grid(self.GRID)

        def offset(z):
            return 1e-3

        with _corrupt_rho12(self.target(), offset, both_signs=False):
            rows = lw.sweep_summary(grid, grid)
        mixtures = _corrupted_mixtures(grid, self.target(), offset, both_signs=False)
        assert [float.hex(float(row["mutual_information"])) for row in rows] == [
            float.hex(float(row["s1"]) + float(row["s2"]) - reference_spectrum(*mixture)[1])
            for row, mixture in zip(rows, mixtures)]

    def test_sweep_summary_raises_at_the_first_refused_mixture(self):
        # |rho12| at +-3pi/4 grows by _CORRUPTION: one class still, and its
        # mixtures of one sign are refused
        grid = parse_grid(self.GRID)

        def offset(z):
            return math.copysign(_CORRUPTION, z)

        messages = []
        for mixture in _corrupted_mixtures(grid, self.target(), offset, both_signs=True):
            try:
                reference_spectrum(*mixture)
            except ValueError as error:
                messages.append(str(error))
        assert len(set(messages)) > 1
        with _corrupt_rho12(self.target(), offset, both_signs=True):
            with pytest.raises(lw.DensityMatrixError) as raised:
                lw.sweep_summary(grid, grid)
        assert str(raised.value) == messages[0]


@pytest.fixture(scope="class")
def one_point_blocks():
    """``sweep_summary`` with one point per block: every alpha row is
    filled, checked and refused on its own."""
    with mock.patch.object(lw.spectral, "_SWEEP_BLOCK", 1):
        yield


@pytest.mark.usefixtures("one_point_blocks")
class TestSweepSummaryInOnePointBlocks(TestSweepSummary):
    """``TestSweepSummary``'s cases, refusals included, one row at a time."""

    # Hypothesis runs a test method for one class only
    test_run_sweep_rows_match_reference_summary_bits = None
    test_matches_reference_summary_bits = None


@pytest.mark.usefixtures("one_point_blocks")
class TestSweepMixturesInOnePointBlocks(TestSweepMixtures):
    """``TestSweepMixtures``'s cases, one row at a time: each distinct
    mixture of the grid is still taken once."""


@pytest.mark.usefixtures("one_point_blocks")
class TestMixtureTableInOnePointBlocks(TestMixtureTable):
    """``TestMixtureTable``'s cases one row at a time."""


@pytest.mark.usefixtures("one_point_blocks")
class TestMixtureRefusalInOnePointBlocks(TestMixtureRefusal):
    """``TestMixtureRefusal``'s cases, refusal order included, one row at a
    time."""
