import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ladderwalk as lw
from ladderwalk.sectors import WalkPattern

ANGLES = st.floats(min_value=-math.pi, max_value=math.pi, allow_nan=False)


class TestEffectiveAngles:
    def test_quarter_angle_point(self):
        eff = lw.effective_angles(-math.pi / 4, math.pi / 4)
        assert eff.gamma1 == pytest.approx(-math.pi / 2, abs=1e-12)
        assert eff.gamma2 == pytest.approx(math.pi, abs=1e-12)

    def test_zero_beta_sectors_share_coin_mod_2pi(self):
        eff = lw.effective_angles(0.321, 0.0)
        assert eff.gamma2 - eff.gamma1 == pytest.approx(2 * math.pi, abs=1e-12)

    def test_derived_point(self):
        eff = lw.effective_angles(-math.pi / 4, 3 * math.pi / 4)
        assert eff.gamma1 == pytest.approx(0.0, abs=1e-12)
        assert eff.gamma2 == pytest.approx(math.pi / 2, abs=1e-12)

    @given(ANGLES, ANGLES)
    @settings(max_examples=80)
    def test_angle_difference_and_phase(self, alpha, beta):
        eff = lw.effective_angles(alpha, beta)
        assert eff.gamma2 - eff.gamma1 == pytest.approx(2 * math.pi - 2 * beta,
                                                        abs=1e-12)
        assert eff.phi == pytest.approx(2 * math.pi - 2 * beta, abs=1e-12)

    def test_fraction_variant_matches_float(self):
        g1, g2 = lw.effective_angle_fractions(Fraction(-1, 4), Fraction(3, 4))
        assert g1 == 0 and g2 == Fraction(1, 2)
        eff = lw.effective_angles(-math.pi / 4, 3 * math.pi / 4)
        assert float(g1) * math.pi == pytest.approx(eff.gamma1, abs=1e-12)
        assert float(g2) * math.pi == pytest.approx(eff.gamma2, abs=1e-12)

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            lw.effective_angles(math.nan, 0.0)


class TestReduction:
    @pytest.mark.parametrize("angle,expected", [
        (0.0, 0.0),
        (math.pi, math.pi),
        (-math.pi, math.pi),
        (3 * math.pi, math.pi),
        (5 * math.pi / 4, -3 * math.pi / 4),
        (-9 * math.pi / 4, -math.pi / 4),
    ])
    def test_reduce_angle(self, angle, expected):
        assert lw.reduce_angle(angle) == pytest.approx(expected, abs=1e-12)
        reduced = lw.reduce_angle(angle)
        assert -math.pi < reduced <= math.pi

    @pytest.mark.parametrize("frac,expected", [
        (Fraction(0), Fraction(0)),
        (Fraction(1), Fraction(1)),
        (Fraction(-1), Fraction(1)),
        (Fraction(5, 4), Fraction(-3, 4)),
        (Fraction(3, 2), Fraction(-1, 2)),
        (Fraction(-9, 4), Fraction(-1, 4)),
    ])
    def test_reduce_pi_fraction(self, frac, expected):
        assert lw.reduce_pi_fraction(frac) == expected


class TestSectorProject:
    def test_one_sided_start_splits_half_half(self):
        pair = lw.sector_project(lw.localized_ladder(half_width=4))
        assert pair.weight_k0 == pytest.approx(0.5, abs=1e-12)
        assert pair.weight_kpi == pytest.approx(0.5, abs=1e-12)
        assert not pair.k0_is_empty and not pair.kpi_is_empty

    def test_side_symmetric_state_has_empty_kpi(self):
        amps = np.zeros((2, 2, 7), dtype=np.complex128)
        amps[0, 0, 3] = amps[0, 1, 3] = 1 / math.sqrt(2)
        state = lw.LadderState(amplitudes=amps)
        pair = lw.sector_project(state)
        assert pair.kpi_is_empty
        assert pair.weight_k0 == pytest.approx(1.0, abs=1e-12)

    def test_round_trip_reconstruction(self):
        state = lw.evolve(lw.localized_ladder(half_width=12),
                          lw.Ladder(0.9, -1.7), 10)
        rebuilt = lw.reconstruct_ladder(lw.sector_project(state))
        assert np.max(np.abs(rebuilt.amplitudes - state.amplitudes)) < 1e-12

    def test_sectors_evolve_as_conventional_walks(self):
        # The central decomposition claim: each quasi-momentum sector of the
        # evolved ladder equals an independent 1D conventional walk with the
        # matching effective coin angle.
        n = 24
        alpha, beta = -math.pi / 4, -math.pi / 2
        ladder = lw.evolve(lw.localized_ladder(half_width=n + 2),
                           lw.Ladder(alpha, beta), n)
        pair = lw.sector_project(ladder)
        eff = lw.effective_angles(alpha, beta)
        for gamma, sector in ((eff.gamma1, pair.sector_k0),
                              (eff.gamma2, pair.sector_kpi)):
            ref = lw.evolve(lw.localized_walker(half_width=n + 2),
                            lw.Conventional(gamma), n)
            assert np.max(np.abs(lw.position_distribution(sector)
                                 - lw.position_distribution(ref))) < 1e-10

    def test_decomposition_grid(self):
        quarter = math.pi / 4
        grid = [-3 * quarter, -quarter, quarter, 3 * quarter]
        n = 16
        for alpha, beta in itertools.product(grid, grid):
            ladder = lw.evolve(lw.localized_ladder(half_width=n + 2),
                               lw.Ladder(alpha, beta), n)
            pair = lw.sector_project(ladder)
            eff = lw.effective_angles(alpha, beta)
            for gamma, sector in ((eff.gamma1, pair.sector_k0),
                                  (eff.gamma2, pair.sector_kpi)):
                ref = lw.evolve(lw.localized_walker(half_width=n + 2),
                                lw.Conventional(gamma), n)
                assert np.max(np.abs(lw.position_distribution(sector)
                                     - lw.position_distribution(ref))) < 1e-10

    def test_decomposition_with_custom_long_side_coin(self):
        alpha, beta, gamma_y = 0.6, -1.3, 0.8
        n = 20
        ladder = lw.evolve(lw.localized_ladder(half_width=n + 2),
                           lw.Ladder(alpha, beta, gamma_y=gamma_y), n)
        pair = lw.sector_project(ladder)
        eff = lw.effective_angles(alpha, beta, gamma_y=gamma_y)
        for gamma, sector in ((eff.gamma1, pair.sector_k0),
                              (eff.gamma2, pair.sector_kpi)):
            ref = lw.evolve(lw.localized_walker(half_width=n + 2),
                            lw.Conventional(gamma), n)
            assert np.max(np.abs(lw.position_distribution(sector)
                                 - lw.position_distribution(ref))) < 1e-10

    @given(ANGLES, ANGLES, st.integers(min_value=0, max_value=10))
    @settings(max_examples=30, deadline=None)
    def test_sector_weights_conserved(self, alpha, beta, n):
        state = lw.evolve(lw.localized_ladder(half_width=12),
                          lw.Ladder(alpha, beta), n)
        pair = lw.sector_project(state)
        assert pair.weight_k0 == pytest.approx(0.5, abs=1e-10)
        assert pair.weight_kpi == pytest.approx(0.5, abs=1e-10)

    def test_one_sided_confinement(self):
        for beta in (math.pi, -math.pi):
            state = lw.localized_ladder(half_width=34)
            spec = lw.Ladder(alpha=0.777, beta=beta)
            for _ in range(32):
                state = lw.evolve(state, spec, 1)
                off_side = float(np.sum(lw.position_distribution(state)[1]))
                assert off_side < 1e-10

    def test_alternating_side_support(self):
        state = lw.localized_ladder(half_width=10)
        spec = lw.Ladder(alpha=-math.pi / 4, beta=0.0)
        for step in range(1, 9):
            state = lw.evolve(state, spec, 1)
            side_mass = np.sum(lw.position_distribution(state), axis=1)
            resident = step % 2  # odd steps on the far side
            assert side_mass[resident] == pytest.approx(1.0, abs=1e-12)
            assert side_mass[1 - resident] <= 1e-12


class TestClassifyPattern:
    @pytest.mark.parametrize("alpha,beta,expected", [
        (0.4, 0.0, WalkPattern.ALTERNATING),
        (-math.pi / 4, 0.0, WalkPattern.ALTERNATING),
        (0.4, math.pi, WalkPattern.ONE_SIDED),
        (0.4, -math.pi, WalkPattern.ONE_SIDED),
        (-math.pi / 4, math.pi / 4, WalkPattern.IDENTICAL_DOMINATED),
        (-math.pi / 4, 3 * math.pi / 4, WalkPattern.IDENTICAL_DOMINATED),
        (-math.pi / 4, -3 * math.pi / 4, WalkPattern.IDENTICAL_DOMINATED),
        (math.pi / 2, 0.3, WalkPattern.HADAMARD_DEGENERATE),
        (-math.pi / 2, 1.1, WalkPattern.HADAMARD_DEGENERATE),
        (0.4, 0.3, WalkPattern.GENERIC),
    ])
    def test_examples(self, alpha, beta, expected):
        assert lw.classify_pattern(alpha, beta) is expected

    def test_tie_break_follows_listed_order(self):
        # beta rules come before the identical and Hadamard rules
        assert lw.classify_pattern(math.pi / 2, 0.0) is WalkPattern.ALTERNATING
        assert lw.classify_pattern(math.pi / 2, math.pi) is WalkPattern.ONE_SIDED
        assert lw.classify_pattern(math.pi / 2, 2 * math.pi) is WalkPattern.ALTERNATING

    def test_modular_tolerance(self):
        assert lw.classify_pattern(0.4, 2 * math.pi + 1e-12) is WalkPattern.ALTERNATING
        assert lw.classify_pattern(0.4, 1e-3) is WalkPattern.GENERIC
