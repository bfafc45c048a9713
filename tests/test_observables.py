import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ladderwalk as lw

ANY_ANGLE = st.floats(min_value=-20.0, max_value=20.0, allow_nan=False)


class TestSecondMoment:
    def test_deterministic_motion(self):
        state = lw.evolve(lw.localized_walker(half_width=12), lw.Conventional(0.0), 10)
        m2 = lw.second_moment(lw.position_distribution(state), state.sites())
        assert m2 == pytest.approx(100.0, abs=1e-12)

    def test_pi_coin_stays_bounded(self):
        state = lw.evolve(lw.localized_walker(half_width=102),
                          lw.Conventional(math.pi), 100)
        m2 = lw.second_moment(lw.position_distribution(state), state.sites())
        assert m2 <= 1.0

    def test_origin_offset(self):
        probs = np.array([0.5, 0.0, 0.5])
        sites = np.array([-1, 0, 1])
        assert lw.second_moment(probs, sites, origin=1.0) == pytest.approx(2.0)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            lw.second_moment(np.ones(3) / 3, np.arange(4))

    def test_hadamard_like_long_run(self):
        n = 500
        state = lw.evolve(lw.localized_walker(half_width=n + 2),
                          lw.Conventional(math.pi / 2), n)
        m2 = lw.second_moment(lw.position_distribution(state), state.sites())
        assert m2 / n**2 == pytest.approx(0.2929, abs=0.02)


class TestMagnetization:
    def test_zero_angle_is_maximal(self):
        assert lw.magnetization(0.0, 0.0).m1 == 1.0

    def test_derived_pair(self):
        triple = lw.magnetization(-math.pi / 2, math.pi)
        assert triple.m1 == pytest.approx(0.29289321881345254, abs=1e-12)
        assert triple.m2 == 0.0
        assert triple.m == pytest.approx(0.14644660940672627, abs=1e-12)

    @given(ANY_ANGLE)
    def test_equal_angles_collapse(self, gamma):
        triple = lw.magnetization(gamma, gamma)
        assert triple.m1 == triple.m2 == triple.m

    @given(ANY_ANGLE, ANY_ANGLE)
    def test_bounds_and_mean(self, g1, g2):
        triple = lw.magnetization(g1, g2)
        for v in (triple.m1, triple.m2, triple.m):
            assert 0.0 <= v <= 1.0
        assert triple.m == (triple.m1 + triple.m2) / 2.0

    @given(ANY_ANGLE)
    def test_symmetries(self, gamma):
        base = lw.magnetization(gamma, gamma).m
        assert lw.magnetization(-gamma, -gamma).m == pytest.approx(base, abs=1e-12)
        assert lw.magnetization(2 * math.pi - gamma, 2 * math.pi - gamma).m == \
            pytest.approx(base, abs=1e-12)

    def test_fig3a_structure_at_quarter_alpha(self):
        alpha = -math.pi / 4
        for beta in (0.0, math.pi, -math.pi):
            eff = lw.effective_angles(alpha, beta)
            triple = lw.magnetization(eff.gamma1, eff.gamma2)
            assert triple.m1 == pytest.approx(triple.m2, abs=1e-12)
        eff = lw.effective_angles(alpha, 3 * math.pi / 4)
        assert lw.magnetization(eff.gamma1, eff.gamma2).m1 == pytest.approx(1.0, abs=1e-12)
        eff = lw.effective_angles(alpha, math.pi / 4)
        assert lw.magnetization(eff.gamma1, eff.gamma2).m2 == pytest.approx(0.0, abs=1e-12)


class TestDiscriminant:
    def test_extremes(self):
        assert lw.discriminant(0.0) == 1.0
        assert lw.discriminant(math.pi) == pytest.approx(0.0, abs=1e-15)

    def test_hadamard_like_value(self):
        assert lw.discriminant(math.pi / 2) == pytest.approx(math.sqrt(2) - 1,
                                                             abs=1e-12)

    @given(st.floats(min_value=0.0, max_value=math.pi, allow_nan=False))
    def test_range_on_primary_domain(self, gamma):
        assert 0.0 <= lw.discriminant(gamma) <= 1.0


class TestSideMarginals:
    def test_initial_state_is_one_sided(self):
        side0, side1 = lw.side_marginals(lw.localized_ladder(half_width=4))
        assert np.sum(side0) == 1.0 and np.sum(side1) == 0.0

    def test_alternating_first_step(self):
        state = lw.evolve(lw.localized_ladder(half_width=4),
                          lw.Ladder(alpha=0.9, beta=0.0), 1)
        side0, side1 = lw.side_marginals(state)
        assert np.sum(side1) == pytest.approx(1.0, abs=1e-12)
        assert np.sum(side0) <= 1e-12

    def test_one_sided_restriction(self):
        state = lw.evolve(lw.localized_ladder(half_width=22),
                          lw.Ladder(alpha=0.4, beta=math.pi), 20)
        side0, side1 = lw.side_marginals(state)
        assert np.sum(side0) >= 1.0 - 1e-10

    def test_totals_sum_to_one(self):
        state = lw.evolve(lw.localized_ladder(half_width=12),
                          lw.Ladder(0.3, 1.2), 10)
        side0, side1 = lw.side_marginals(state)
        assert np.sum(side0) + np.sum(side1) == pytest.approx(1.0, abs=1e-10)


class TestTotalVariation:
    def test_identical_distributions(self):
        p = np.array([0.25, 0.75])
        assert lw.total_variation(p, p) == 0.0

    def test_disjoint_point_masses(self):
        assert lw.total_variation(np.array([1.0, 0.0]), np.array([0.0, 1.0])) == 1.0

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            lw.total_variation(np.ones(2) / 2, np.ones(3) / 3)

    def test_identical_walk_sides_nearly_agree(self):
        # Pinned by the oracle run: TV = 2.98e-08 at n = 50 (the residual is
        # the interference with the ballistic edge of the dominated sector).
        n = 50
        state = lw.evolve(lw.localized_ladder(half_width=n + 2),
                          lw.Ladder(-math.pi / 4, 3 * math.pi / 4), n)
        side0, side1 = lw.side_marginals(state)
        tv = lw.total_variation(side0 / np.sum(side0), side1 / np.sum(side1))
        assert tv < 1e-6
