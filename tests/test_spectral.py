import cmath
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ladderwalk as lw
from ladderwalk.cli import parse_grid
from ladderwalk.spectral import _unitary_at

SQRT2 = math.sqrt(2.0)


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
        assert np.linalg.norm(u @ mode.e_plus - mode.lambda_plus * mode.e_plus) < 1e-10
        assert np.linalg.norm(u @ mode.e_minus - mode.lambda_minus * mode.e_minus) < 1e-10

    def test_matches_numpy_eigendecomposition(self):
        gamma, k = 1.234, -0.7
        mode = lw.mode_eigensystem(gamma, k)
        values = np.linalg.eigvals(_unitary_at(gamma, k))
        assert min(abs(values - mode.lambda_plus)) < 1e-10
        assert min(abs(values - mode.lambda_minus)) < 1e-10

    def test_orthonormal_over_grid(self):
        gammas = np.linspace(0.2, math.pi, 10)
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
        assert mode.lambda_plus == pytest.approx(-1j, abs=1e-12)
        assert mode.lambda_minus == pytest.approx(1j, abs=1e-12)

    def test_array_of_momenta_matches_pointwise(self):
        gamma = -2.1
        ks = np.linspace(-math.pi, math.pi, 17)
        modes = lw.mode_eigensystem(gamma, ks)
        assert modes.e_plus.shape == modes.e_minus.shape == (2, 17)
        for j, k in enumerate(ks):
            mode = lw.mode_eigensystem(gamma, k)
            u = _unitary_at(gamma, k)
            for vec, lam in ((modes.e_plus[:, j], modes.lambda_plus[j]),
                             (modes.e_minus[:, j], modes.lambda_minus[j])):
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

    def test_general_initial_coin(self):
        coin = lw.CoinSpinor.from_bloch(1.1, 0.4)
        spectral = lw.evolve_spectral(coin, 2.2, 7, 32)
        direct = lw.evolve(lw.localized_walker(coin, half_width=16),
                           lw.Conventional(2.2), 7)
        assert np.max(np.abs(spectral.amplitudes - direct.amplitudes)) < 1e-12


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

    def test_validation_rejects_bad_matrix(self):
        with pytest.raises(ValueError):
            lw.DensityMatrix2(rho11=0.9, rho22=0.2, rho12=0.0)
        with pytest.raises(ValueError):
            lw.DensityMatrix2(rho11=0.5, rho22=0.5, rho12=0.9)


class TestRhoEigenvalues:
    def test_pure_state(self):
        assert lw.rho_eigenvalues(lw.DensityMatrix2(1.0, 0.0, 0.0)) == (1.0, 0.0)

    def test_maximally_mixed(self):
        lam = lw.rho_eigenvalues(lw.DensityMatrix2(0.5, 0.5, 0.0))
        assert lam == pytest.approx((0.5, 0.5), abs=1e-15)

    def test_hadamard_like_spectrum(self):
        lam = lw.rho_eigenvalues(lw.asymptotic_rho(math.pi / 2))
        assert lam[0] == pytest.approx(SQRT2 / 2, abs=1e-12)
        assert lam[1] == pytest.approx(1 - SQRT2 / 2, abs=1e-12)
        assert lam[0] - lam[1] == pytest.approx(lw.discriminant(math.pi / 2), abs=1e-12)

    def test_gap_equals_discriminant_on_grid(self):
        for gamma in np.linspace(1e-3, math.pi - 1e-3, 50):
            lam = lw.rho_eigenvalues(lw.asymptotic_rho(gamma))
            assert lam[0] - lam[1] == pytest.approx(lw.discriminant(gamma), abs=1e-12)

    def test_matches_eigvalsh_on_random_density_matrices(self):
        rng = np.random.default_rng(11)
        for rank in (1, 2):
            for _ in range(500):
                a = rng.normal(size=(2, rank)) + 1j * rng.normal(size=(2, rank))
                m = a @ a.conj().T
                m /= np.trace(m).real
                rho = lw.DensityMatrix2(m[0, 0].real, m[1, 1].real, complex(m[0, 1]))
                lo, hi = np.clip(np.linalg.eigvalsh(rho.matrix()), 0.0, 1.0)
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
        summary = lw.walk_summary(-math.pi / 4, 0.0)
        assert summary.mutual_information == summary.s1


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

    def test_cesaro_average_approaches_asymptotic(self):
        ces = lw.cesaro_rho(math.pi / 2, 400)
        asy = lw.asymptotic_rho(math.pi / 2)
        assert ces.rho11 == pytest.approx(asy.rho11, abs=1e-2)
        assert ces.rho12.real == pytest.approx(asy.rho12.real, abs=1e-2)


class TestWalkSummary:
    def test_alternating_point_collapses(self):
        summary = lw.walk_summary(-math.pi / 4, 0.0)
        trip = summary.magnetization
        assert trip.m1 == trip.m2 == trip.m
        assert summary.d1 == pytest.approx(summary.d2, abs=1e-12)

    def test_m2_vanishes(self):
        summary = lw.walk_summary(-math.pi / 4, math.pi / 4)
        assert summary.magnetization.m2 == 0.0
        assert summary.d2 == pytest.approx(0.0, abs=1e-12)

    def test_exact_and_float_angles_agree_on_grid(self):
        grid = parse_grid("-pi:pi:129")
        fields = ("d1", "d2", "s1", "s2", "mutual_information")
        worst = 0.0
        for alpha in grid:
            for beta in grid:
                exact = lw.walk_summary(alpha, beta)
                floats = lw.walk_summary(alpha.radians, beta.radians)
                e, f = exact.effective, floats.effective
                assert e.pattern is f.pattern
                values = [(getattr(exact, k), getattr(floats, k)) for k in fields]
                values += [(getattr(exact.magnetization, k), getattr(floats.magnetization, k))
                           for k in ("m1", "m2", "m")]
                values += [(e.gamma1, f.gamma1), (e.gamma2, f.gamma2), (e.phi, f.phi)]
                worst = max(worst, max(abs(x - y) for x, y in values))
                for x, y in ((e.gamma1_reduced, f.gamma1_reduced),
                             (e.gamma2_reduced, f.gamma2_reduced)):
                    assert abs(math.remainder(x - y, 2 * math.pi)) <= 1e-12
        assert worst <= 1e-12

    def test_gaps_match_discriminant(self):
        # The gap (1 - sin(a/2)) / cos(a/2) is read off asymptotic_rho's
        # entries, whose rounding grows as 1/cos(a/2) towards |gamma| = pi;
        # discriminant evaluates it without that cancellation.
        grid = parse_grid("-pi:pi:129")
        for alpha in grid[::4]:
            for beta in grid:
                for summary in (lw.walk_summary(alpha, beta),
                                lw.walk_summary(alpha.radians, beta.radians, 0.7)):
                    eff = summary.effective
                    for d, gamma in ((summary.d1, eff.gamma1_reduced),
                                     (summary.d2, eff.gamma2_reduced)):
                        tol = 1e-15 / abs(math.cos(gamma / 2))
                        assert abs(d - lw.discriminant(gamma)) <= tol, gamma

    def test_m1_maximized(self):
        summary = lw.walk_summary(-math.pi / 4, 3 * math.pi / 4)
        assert summary.magnetization.m1 == pytest.approx(1.0, abs=1e-12)
        assert summary.d1 == pytest.approx(1.0, abs=1e-12)
        assert summary.s1 == pytest.approx(0.0, abs=1e-10)
