import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ladderwalk as lw
from ladderwalk.cli import run_ladder, run_walk1d
from ladderwalk.spectral import _sector_magnetization

ANY_ANGLE = st.floats(min_value=-20.0, max_value=20.0, allow_nan=False)


def last_second_moment(gamma: float, steps: int) -> float:
    """The last ``second_moment`` of the ``walk1d`` steps table, taken
    about the starting site."""
    table = run_walk1d(lw.Angle(gamma), steps)["tables"]["steps"]
    return table["rows"][-1][table["columns"].index("second_moment")]


class TestSecondMoment:
    def test_deterministic_motion(self):
        assert last_second_moment(0.0, 10) == pytest.approx(100.0, abs=1e-12)

    def test_pi_coin_stays_bounded(self):
        assert last_second_moment(math.pi, 100) <= 1.0

    def test_hadamard_like_long_run(self):
        n = 500
        assert last_second_moment(math.pi / 2, n) / n**2 == pytest.approx(0.2929, abs=0.02)


class TestMagnetization:
    """``M = 1 - |sin(gamma/2)|`` of one sector (``_sector_magnetization``)
    and the ``m1, m2, m`` columns that ``sweep_summary`` builds from it."""

    def test_zero_angle_is_maximal(self):
        assert _sector_magnetization(0.0) == 1.0

    def test_derived_pair(self):
        # sector angles -pi/2 and pi, exactly
        row = lw.sweep_summary([lw.Angle(-math.pi / 4, Fraction(-1, 4))],
                               [lw.Angle(math.pi / 4, Fraction(1, 4))])[0]
        assert row["m1"] == pytest.approx(0.29289321881345254, abs=1e-12)
        assert row["m2"] == 0.0
        assert row["m"] == pytest.approx(0.14644660940672627, abs=1e-12)

    @given(ANY_ANGLE)
    def test_equal_angles_collapse(self, alpha):
        # beta = pi: phi = 0, so gamma2 = gamma1
        row = lw.sweep_summary([alpha], [math.pi])[0]
        assert row["gamma1"] == row["gamma2"]
        assert row["m1"] == row["m2"] == row["m"]

    @given(ANY_ANGLE, ANY_ANGLE, ANY_ANGLE)
    def test_bounds_and_mean(self, alpha, beta, gamma_y):
        row = lw.sweep_summary([alpha], [beta], gamma_y)[0]
        for v in (row["m1"], row["m2"], row["m"], _sector_magnetization(alpha)):
            assert 0.0 <= v <= 1.0
        assert row["m"] == (row["m1"] + row["m2"]) / 2.0

    @given(ANY_ANGLE)
    def test_symmetries(self, gamma):
        base = _sector_magnetization(gamma)
        assert _sector_magnetization(-gamma) == pytest.approx(base, abs=1e-12)
        assert _sector_magnetization(2 * math.pi - gamma) == pytest.approx(base, abs=1e-12)

    def test_fig3a_structure_at_quarter_alpha(self):
        alpha = -math.pi / 4
        for row in lw.sweep_summary([alpha], [0.0, math.pi, -math.pi]):
            assert row["m1"] == pytest.approx(row["m2"], abs=1e-12)
        row = lw.sweep_summary([alpha], [3 * math.pi / 4])[0]
        assert row["m1"] == pytest.approx(1.0, abs=1e-12)
        row = lw.sweep_summary([alpha], [math.pi / 4])[0]
        assert row["m2"] == pytest.approx(0.0, abs=1e-12)


class TestDiscriminant:
    """The reference gap of the spectral gap checks (``conftest.py``)."""

    def test_extremes(self, discriminant):
        assert discriminant(0.0) == 1.0
        assert discriminant(math.pi) == pytest.approx(0.0, abs=1e-15)

    def test_hadamard_like_value(self, discriminant):
        assert discriminant(math.pi / 2) == pytest.approx(math.sqrt(2) - 1, abs=1e-12)

    @given(st.floats(min_value=0.0, max_value=math.pi, allow_nan=False))
    def test_range_on_primary_domain(self, discriminant, gamma):
        assert 0.0 <= discriminant(gamma) <= 1.0


class TestSideMarginals:
    """The side profiles are the rows of the ladder's joint distribution."""

    def test_initial_state_is_one_sided(self):
        side0, side1 = lw.position_distribution(lw.localized_ladder(half_width=4))
        assert np.sum(side0) == 1.0 and np.sum(side1) == 0.0

    def test_alternating_first_step(self):
        state = lw.evolve(lw.localized_ladder(half_width=4),
                          lw.Ladder(alpha=0.9, beta=0.0), 1)
        side0, side1 = lw.position_distribution(state)
        assert np.sum(side1) == pytest.approx(1.0, abs=1e-12)
        assert np.sum(side0) <= 1e-12

    def test_one_sided_restriction(self):
        state = lw.evolve(lw.localized_ladder(half_width=22),
                          lw.Ladder(alpha=0.4, beta=math.pi), 20)
        side0, side1 = lw.position_distribution(state)
        assert np.sum(side0) >= 1.0 - 1e-10

    def test_totals_sum_to_one(self):
        state = lw.evolve(lw.localized_ladder(half_width=12),
                          lw.Ladder(0.3, 1.2), 10)
        side0, side1 = lw.position_distribution(state)
        assert np.sum(side0) + np.sum(side1) == pytest.approx(1.0, abs=1e-10)


class TestTotalVariation:
    """The ``tv_sides`` column of the ``ladder`` steps table."""

    def test_identical_walk_sides_nearly_agree(self):
        # Pinned by the oracle run: TV = 2.98e-08 at n = 50 (the residual is
        # the interference with the ballistic edge of the dominated sector).
        n = 50
        table = run_ladder(lw.Angle(-math.pi / 4), lw.Angle(3 * math.pi / 4), n)["tables"]["steps"]
        tv = table["rows"][-1][table["columns"].index("tv_sides")]
        assert tv < 1e-6
