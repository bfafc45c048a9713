import itertools
import math
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ladderwalk as lw
from ladderwalk import core, sectors
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
        exact = lw.effective_angles(lw.Angle(-math.pi / 4, Fraction(-1, 4)),
                                    lw.Angle(3 * math.pi / 4, Fraction(3, 4)))
        assert exact.gamma1 == 0.0 and exact.gamma1_reduced == 0.0
        assert exact.gamma2 == exact.gamma2_reduced == math.pi / 2
        eff = lw.effective_angles(-math.pi / 4, 3 * math.pi / 4)
        for field in ("gamma1", "gamma2", "phi", "gamma1_reduced", "gamma2_reduced"):
            assert getattr(exact, field) == pytest.approx(getattr(eff, field), abs=1e-12)

    def test_exact_only_when_every_angle_has_a_fraction(self):
        alpha = lw.Angle(-math.pi / 4, Fraction(-1, 4))
        beta = lw.Angle(3 * math.pi / 4, Fraction(3, 4))
        assert lw.effective_angles(alpha, beta, lw.Angle(-math.pi / 2, Fraction(-1, 2))) \
            == lw.effective_angles(alpha, beta)
        # a float long-side coin, even -pi/2 itself, takes the float path
        floats = lw.effective_angles(alpha, beta, -math.pi / 2)
        assert floats == lw.effective_angles(-math.pi / 4, 3 * math.pi / 4)
        # pi-fraction reduction: gamma2 = 1/4 + 3/4 + 1/2 + 2 - 3/2 = 2 -> 0
        eff = lw.effective_angles(lw.Angle(math.pi / 4, Fraction(1, 4)), beta,
                                  lw.Angle(math.pi / 2, Fraction(1, 2)))
        assert eff.gamma1_reduced == -math.pi / 2 and eff.gamma2_reduced == 0.0

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError, match="alpha"):
            lw.effective_angles(math.nan, 0.0)
        with pytest.raises(ValueError, match="gamma_y"):
            lw.effective_angles(0.0, 0.0, lw.Angle(math.inf))

    @pytest.mark.parametrize("radians,kind", [("0.1", "str"), (b"0.1", "bytes"),
                                              (np.array(0.1), "ndarray"), (True, "bool")])
    def test_angle_radians_refused_as_a_bare_value(self, radians, kind):
        # effective_angles and sweep_summary put an Angle's radians through
        # the check a bare angle gets, in either argument
        message = f"alpha must be a number, not {kind}"
        for call in (lambda a: lw.effective_angles(a, 0.2),
                     lambda a: lw.sweep_summary([a], [0.2])):
            with pytest.raises(TypeError, match=message):
                call(lw.Angle(radians))
            with pytest.raises(TypeError, match=message):
                call(radians)
        with pytest.raises(TypeError, match="beta must be a number, not " + kind):
            lw.sweep_summary([0.1], [lw.Angle(radians)])

    @pytest.mark.parametrize("frac,kind", [(0.5, "float"), ("1/2", "str"), (True, "bool"),
                                           (Decimal("0.5"), "Decimal")])
    def test_angle_refuses_a_pi_fraction_that_is_not_rational(self, frac, kind):
        with pytest.raises(TypeError,
                           match=f"pi_fraction must be a rational or None, not {kind}"):
            lw.Angle(0.5 * math.pi, frac)

    def test_angle_takes_any_rational_pi_fraction(self):
        for frac in (Fraction(1, 2), 1, np.int64(-3)):
            assert lw.Angle(float(frac) * math.pi, frac).pi_fraction == frac

    def test_angle_refuses_radians_that_disagree_with_its_pi_fraction(self):
        # once walked at alpha = pi/2 with gamma1, m1 and pattern of alpha = pi
        with pytest.raises(ValueError, match=r"radians 1\.5707963267948966 disagree with "
                                             r"pi_fraction 1, which is 3\.14159"):
            lw.Angle(0.5 * math.pi, Fraction(1))
        with pytest.raises(ValueError, match="disagree"):
            lw.Angle(1e-300, Fraction(0))
        # radians written another way round to the same angle, and those the
        # callers refuse
        for radians, frac in ((math.pi / 3, Fraction(1, 3)), (3 * math.pi / 4, Fraction(3, 4)),
                              (math.inf, Fraction(1)), (0.0, Fraction(10**400))):
            assert lw.Angle(radians, frac).pi_fraction == frac

    def test_checked_angle_keeps_its_identity(self):
        # the exact route reads the pi-fraction off the same Angle
        for angle in (lw.Angle(-math.pi / 4, Fraction(-1, 4)), lw.Angle(0.3),
                      lw.Angle(np.float64(0.3)), lw.Angle(2), lw.Angle(math.inf)):
            assert sectors._as_angle("alpha", angle) is angle

    def test_rejects_sums_past_float_range(self):
        with pytest.raises(ValueError, match="gamma1"):
            lw.effective_angles(1e308, 1e308)
        with pytest.raises(ValueError, match="phi"):
            lw.effective_angles(0.0, -1e308, 1e308)
        big = Fraction(5 * 10**307)
        exact = lw.Angle(float(big) * math.pi, big)
        with pytest.raises(ValueError, match="gamma1"):
            lw.effective_angles(exact, exact)
        # an exact sum whose ratio itself is past the float range
        huge = lw.Angle(0.0, Fraction(10**400))
        with pytest.raises(ValueError, match="gamma1"):
            lw.effective_angles(huge, lw.Angle(0.0, Fraction(0)))
        with pytest.raises(ValueError, match="gamma1"):
            lw.effective_angles(lw.Angle(0.0, -Fraction(10**400)), lw.Angle(0.0, Fraction(0)))


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
        """Exact angles reduce into (-1, 1] units of pi: gamma1 = alpha
        at beta = gamma_y = 0, and gamma2 = gamma1 + 2."""
        zero = lw.Angle(0.0, Fraction(0))
        eff = lw.effective_angles(lw.Angle(float(frac) * math.pi, frac), zero, zero)
        assert eff.gamma1 == float(frac) * math.pi
        assert eff.gamma1_reduced == eff.gamma2_reduced == float(expected) * math.pi


class TestSectorProject:
    def test_one_sided_start_splits_half_half(self):
        pair = lw.sector_project(lw.localized_ladder(half_width=4))
        assert pair.weight_k0 == pytest.approx(0.5, abs=1e-12)
        assert pair.weight_kpi == pytest.approx(0.5, abs=1e-12)
        assert np.any(pair.sector_k0.amplitudes) and np.any(pair.sector_kpi.amplitudes)

    def test_side_symmetric_state_has_empty_kpi(self):
        amps = np.zeros((2, 2, 7), dtype=np.complex128)
        amps[0, 0, 3] = amps[0, 1, 3] = 1 / math.sqrt(2)
        state = lw.LadderState(amplitudes=amps)
        pair = lw.sector_project(state)
        assert pair.weight_kpi < 1e-14
        assert not np.any(pair.sector_kpi.amplitudes)
        assert pair.weight_k0 == pytest.approx(1.0, abs=1e-12)

    def test_round_trip_reconstruction(self):
        """The decomposition is unitary: the inverse map rebuilds the state,
        and the weights add up to its norm."""
        state = lw.evolve(lw.localized_ladder(half_width=12),
                          lw.Ladder(0.9, -1.7), 10)
        pair = lw.sector_project(state)
        raw_k0 = pair.sector_k0.amplitudes * math.sqrt(pair.weight_k0)
        raw_kpi = pair.sector_kpi.amplitudes * math.sqrt(pair.weight_kpi)
        rebuilt = np.stack([raw_k0 + raw_kpi, raw_k0 - raw_kpi], axis=1) / math.sqrt(2.0)
        assert np.max(np.abs(rebuilt - state.amplitudes)) < 1e-12
        assert pair.weight_k0 + pair.weight_kpi == pytest.approx(np.sum(lw.position_distribution(state)), abs=1e-12)

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

    def test_renormalizing_multiply_keeps_the_division_bits(self):
        """The sectors are renormalized by a real multiply of their float64
        parts by ``1 / sqrt(w)``; on every nonzero part of every step of the
        ``ladder-csv`` reference walk (alpha -0.7, beta 1.1, 600 steps,
        half-width 602) that gives the bits of the complex division
        ``raw / sqrt(w)`` it replaced."""
        compared = 0
        for block, _lo, _hi in core._state_blocks(lw.localized_ladder(half_width=602),
                                                  lw.Ladder(-0.7, 1.1), 600):
            for amps in block:
                pair = lw.sector_project(lw.LadderState(amplitudes=amps))
                for raw, sector, weight in (
                        (amps[:, 0] + amps[:, 1], pair.sector_k0, pair.weight_k0),
                        (amps[:, 0] - amps[:, 1], pair.sector_kpi, pair.weight_kpi)):
                    raw = raw * sectors._SQRT_HALF
                    divided = (raw / math.sqrt(weight)).view(np.uint64)
                    nonzero = raw.view(np.float64) != 0.0
                    assert np.array_equal(sector.amplitudes.view(np.uint64)[nonzero],
                                          divided[nonzero])
                    assert not np.any(sector.amplitudes.view(np.float64)[~nonzero])
                    compared += int(np.count_nonzero(nonzero))
        assert compared > 500_000

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
    def test_congruence_matches_the_ieee_remainder(self):
        """The elementwise congruence of the pattern rules is
        ``abs(math.remainder(d, p)) < 1e-9`` at multiples of ``p``, at
        ``1e-9`` and one ulp either side of it around them, and far out."""
        for period in (math.pi, 2.0 * math.pi):
            points = []
            for k in [*range(-40, 41), 2**20 + 1, -(10**6), 10**15, -(10**15) - 7]:
                center = k * period
                for offset in (0.0, 1e-9, -1e-9, 2e-9):
                    for near in (math.nextafter(offset, -math.inf), offset,
                                 math.nextafter(offset, math.inf)):
                        points.append(center + near)
                points += [center + period / 2, math.nextafter(center, math.inf)]
            points += [1e300, -1e300, 5e-324, -0.0, math.ulp(period) / 2]
            want = [abs(math.remainder(d, period)) < 1e-9 for d in points]
            assert sum(want) > 100 and not all(want)
            got = sectors._congruent(np.array(points), 0.0, period)
            assert got.tolist() == want
            assert [bool(sectors._congruent(d, 0.0, period)) for d in points] == want

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
        assert lw.effective_angles(alpha, beta).pattern is expected

    @pytest.mark.parametrize("alpha,beta,gamma_y,expected", [
        # alpha = pi/2 is degenerate only for the default gamma_y = -pi/2
        (math.pi / 2, 0.3, 0.0, WalkPattern.GENERIC),
        (0.3, 0.9, -0.3, WalkPattern.HADAMARD_DEGENERATE),
        (0.3, 0.9, math.pi - 0.3, WalkPattern.HADAMARD_DEGENERATE),
        # gamma1 = alpha + beta + gamma_y = pi, gamma2 = 0.8 - 2.0 + 2 pi
        (0.8, 1.0, math.pi - 1.8, WalkPattern.IDENTICAL_DOMINATED),
        # gamma2 = 0.8 - 1.0 + 0.2 + 2 pi = 2 pi
        (0.8, 1.0, 0.2, WalkPattern.IDENTICAL_DOMINATED),
        (0.8, 0.0, 0.2, WalkPattern.ALTERNATING),
        (0.8, math.pi, 1.1, WalkPattern.ONE_SIDED),
    ])
    def test_custom_long_side_coin(self, alpha, beta, gamma_y, expected):
        assert lw.effective_angles(alpha, beta, gamma_y).pattern is expected

    @given(ANGLES, ANGLES)
    @settings(max_examples=80)
    def test_degenerate_long_side_coin_equalizes_sectors(self, alpha, beta):
        # alpha + gamma_y = 0: the rule fires (unless an earlier rule wins)
        # exactly where the two sector magnetizations coincide
        row = lw.sweep_summary([alpha], [beta], gamma_y=-alpha)[0]
        assert row["m1"] == pytest.approx(row["m2"], abs=1e-12)
        assert row["pattern"] != WalkPattern.GENERIC.value

    def test_tie_break_follows_listed_order(self):
        # beta rules come before the identical and Hadamard rules
        assert lw.effective_angles(math.pi / 2, 0.0).pattern is WalkPattern.ALTERNATING
        assert lw.effective_angles(math.pi / 2, math.pi).pattern is WalkPattern.ONE_SIDED
        assert lw.effective_angles(math.pi / 2, 2 * math.pi).pattern is WalkPattern.ALTERNATING

    def test_modular_tolerance(self):
        assert lw.effective_angles(0.4, 2 * math.pi + 1e-12).pattern is WalkPattern.ALTERNATING
        assert lw.effective_angles(0.4, 1e-3).pattern is WalkPattern.GENERIC
