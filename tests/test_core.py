import dataclasses
import functools
import math
import re
from decimal import Decimal
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import ladderwalk as lw
from ladderwalk import cli, core
from ladderwalk.core import _stages

ANGLES = st.floats(min_value=-math.pi, max_value=math.pi, allow_nan=False)


def norm_sq(state) -> float:
    return float(np.sum(lw.position_distribution(state)))


def up_at(state, m):
    return state.amplitudes[0, m + state.half_width]


def down_at(state, m):
    return state.amplitudes[1, m + state.half_width]


def coin_matrix(gamma):
    """Coin of ``Conventional(gamma)`` read off one step: column j holds the
    (up at +1, down at -1) amplitudes of a walker started in basis state j."""
    columns = []
    for spinor in (lw.CoinSpinor(1, 0), lw.CoinSpinor(0, 1)):
        out = lw.evolve(lw.localized_walker(spinor, half_width=2),
                        lw.Conventional(gamma), 1)
        columns.append([up_at(out, 1), down_at(out, -1)])
    return np.array(columns).T


class TestCoin:
    def test_zero_rotation_is_identity(self):
        # The identity coin leaves a pure shift, in both one-stage and
        # two-stage protocols.
        coin = lw.CoinSpinor(0.6, 0.8j)
        for spec in (lw.Conventional(0.0), lw.SplitStep(0.0, 0.0)):
            out = lw.evolve(lw.localized_walker(coin, half_width=3), spec, 1)
            assert up_at(out, 1) == coin.up and down_at(out, -1) == coin.down
            assert lw.position_distribution(out)[out.half_width] == 0.0

    def test_pi_is_quarter_turn(self):
        expected = np.array([[0.0, -1.0], [1.0, 0.0]])
        assert np.allclose(coin_matrix(math.pi), expected, atol=1e-15)

    def test_half_pi_on_up_state(self):
        out = lw.evolve(lw.localized_walker(half_width=2),
                        lw.Conventional(math.pi / 2), 1)
        assert [up_at(out, 1), down_at(out, -1)] == pytest.approx(
            [math.sqrt(2) / 2, math.sqrt(2) / 2], abs=1e-15)

    @given(ANGLES)
    def test_orthogonal_unit_determinant(self, gamma):
        c = coin_matrix(gamma)
        assert np.allclose(c.conj().T @ c, np.eye(2), atol=1e-12)
        assert np.linalg.det(c) == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite(self, bad):
        with pytest.raises(ValueError):
            lw.evolve(lw.localized_walker(half_width=2), lw.Conventional(bad), 1)


class TestSpinorAndFactories:
    def test_bloch_default_is_up(self):
        s = lw.CoinSpinor.from_bloch(0.0, 0.0)
        assert s.up == 1.0 and s.down == 0.0

    def test_bloch_is_normalized(self):
        s = lw.CoinSpinor.from_bloch(1.234, -2.1)
        assert s.norm_sq() == pytest.approx(1.0, abs=1e-12)

    def test_localized_walker_is_point_mass(self):
        st_ = lw.localized_walker(half_width=5)
        dist = lw.position_distribution(st_)
        assert dist[st_.half_width] == 1.0 and np.sum(dist) == 1.0

    def test_unnormalized_coin_rejected(self):
        with pytest.raises(ValueError):
            lw.localized_walker(lw.CoinSpinor(1.0, 1.0), half_width=4)

    @pytest.mark.parametrize("coin", [
        lw.CoinSpinor(math.nan, 0), lw.CoinSpinor(complex(0, math.nan), 0),
        lw.CoinSpinor(1, math.nan), lw.CoinSpinor(1, complex(0, math.nan)),
    ], ids=["up-real", "up-imag", "down-real", "down-imag"])
    @pytest.mark.parametrize("make", [
        lw.localized_walker,
        lw.localized_ladder,
        lambda coin: lw.evolve_spectral(coin, 0.5, 2, 8),
        lambda coin: lw.cesaro_rho(0.5, 3, coin),
    ], ids=["localized_walker", "localized_ladder", "evolve_spectral", "cesaro_rho"])
    def test_nan_coin_rejected(self, make, coin):
        with pytest.raises(ValueError, match="initial coin state must be normalized"):
            make(coin)

    @pytest.mark.parametrize("make,message", [
        (lambda: lw.localized_walker(lw.CoinSpinor(1.0, 1.0), half_width=4),
         "initial coin state must be normalized"),
        (lambda: lw.localized_ladder(lw.CoinSpinor(1.0, 1.0), half_width=4),
         "initial coin state must be normalized"),
        (lambda: lw.localized_walker(half_width=0), "half_width must be >= 1"),
        (lambda: lw.localized_ladder(half_width=0), "half_width must be >= 1"),
        (lambda: lw.localized_walker(half_width=3, origin=4), "origin outside the lattice"),
        (lambda: lw.localized_walker(half_width=3, origin=-4), "origin outside the lattice"),
        (lambda: lw.localized_ladder(half_width=3, origin=4), "origin outside the lattice"),
        (lambda: lw.localized_ladder(half_width=3, origin=-4), "origin outside the lattice"),
        (lambda: lw.localized_ladder(half_width=3, side=2), "side must be 0 or 1"),
        (lambda: lw.evolve_spectral(lw.CoinSpinor(1.0, 1.0), 0.5, 2, 8),
         "initial coin state must be normalized"),
    ])
    def test_refusals_name_the_fault(self, make, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            make()

    @pytest.mark.parametrize("make,message", [
        (lambda: lw.localized_walker(half_width=True), "half_width must be an integer, not bool"),
        (lambda: lw.localized_ladder(half_width=True), "half_width must be an integer, not bool"),
        (lambda: lw.localized_walker(half_width=4.0), "half_width must be an integer, got 4.0"),
        (lambda: lw.localized_walker(origin=True), "origin must be an integer, not bool"),
        (lambda: lw.localized_ladder(origin=True), "origin must be an integer, not bool"),
        (lambda: lw.localized_walker(origin=1.0), "origin must be an integer, got 1.0"),
        (lambda: lw.localized_ladder(origin=1.0), "origin must be an integer, got 1.0"),
        (lambda: lw.localized_ladder(side=True), "side must be an integer, not bool"),
        (lambda: lw.localized_ladder(side=1.0), "side must be an integer, got 1.0"),
        (lambda: lw.evolve(lw.localized_walker(), lw.Conventional("0.5"), 1),
         "gamma must be a number, not str"),
        (lambda: lw.evolve(lw.localized_walker(), lw.Conventional(True), 1),
         "gamma must be a number, not bool"),
        (lambda: lw.evolve(lw.localized_walker(), lw.SplitStep(0.1, np.True_), 1),
         "beta must be a number, not bool"),
        (lambda: lw.evolve(lw.localized_ladder(), lw.Ladder(0.1, 0.2, "1"), 1),
         "gamma_y must be a number, not str"),
        (lambda: lw.asymptotic_rho("1.0"), "gamma must be a number, not str"),
        (lambda: lw.asymptotic_rho(True), "gamma must be a number, not bool"),
        (lambda: lw.CoinSpinor.from_bloch("0.4", "1"), "theta must be a number, not str"),
        (lambda: lw.effective_angles("0.1", True), "alpha must be a number, not str"),
        (lambda: lw.effective_angles(0.1, True), "beta must be a number, not bool"),
        (lambda: lw.sweep_summary(["0.1"], [True]), "alpha must be a number, not str"),
        (lambda: lw.sweep_summary(["0.1"], [0.2]), "alpha must be a number, not str"),
        (lambda: lw.sweep_summary([0.1], [np.True_]), "beta must be a number, not bool"),
        (lambda: lw.sweep_summary([0.1], [0.2], "0"), "gamma_y must be a number, not str"),
        (lambda: lw.cesaro_rho("0.7", 3), "gamma must be a number, not str"),
        (lambda: lw.dispersion("0.5", 0.3), "gamma must be a number, not str"),
        (lambda: lw.dispersion(True, 0.3), "gamma must be a number, not bool"),
        (lambda: lw.dispersion(0.5, "0.5"), "k must be a number, not str"),
        (lambda: lw.dispersion(0.5, True), "k must be a number, not bool"),
        (lambda: lw.dispersion(0.5, ["0.5"]), "k must hold numbers, not str"),
        (lambda: lw.mode_eigensystem(0.5, [True, False]), "k must hold numbers, not bool"),
        # a bool among numbers, which numpy would take as 0 or 1
        (lambda: lw.dispersion(0.5, [0.1, True]), "k must hold numbers, not bool"),
        (lambda: lw.mode_eigensystem(0.5, [0.1, True]), "k must hold numbers, not bool"),
        # a coin state that is not a CoinSpinor, and a CoinSpinor field that
        # is not a number (a nan is a number, refused by the norm check)
        (lambda: lw.evolve_spectral(None, 0.5, 2, 8),
         "initial coin state must be a CoinSpinor, not NoneType"),
        (lambda: lw.cesaro_rho(0.5, 3, "x"), "initial coin state must be a CoinSpinor, not str"),
        (lambda: lw.localized_walker("x"), "initial coin state must be a CoinSpinor, not str"),
        (lambda: lw.localized_ladder(3), "initial coin state must be a CoinSpinor, not int"),
        (lambda: lw.CoinSpinor("a", 0), "up must be a number, not str"),
        (lambda: lw.CoinSpinor(True), "up must be a number, not bool"),
        (lambda: lw.CoinSpinor(1, np.False_), "down must be a number, not bool"),
        # only a numbers.Real that is not a bool: no text float() parses, no
        # Decimal, no 0-d array
        (lambda: lw.asymptotic_rho(b"1.0"), "gamma must be a number, not bytes"),
        (lambda: lw.evolve(lw.localized_walker(), lw.Conventional(b"0.5"), 1),
         "gamma must be a number, not bytes"),
        (lambda: lw.evolve(lw.localized_walker(), lw.Conventional(bytearray(b"0.5")), 1),
         "gamma must be a number, not bytearray"),
        (lambda: lw.CoinSpinor.from_bloch(0.4, bytearray(b"1")),
         "phi must be a number, not bytearray"),
        (lambda: lw.asymptotic_rho(Decimal("1.0")), "gamma must be a number, not Decimal"),
        (lambda: lw.asymptotic_rho(np.array(1.0)), "gamma must be a number, not ndarray"),
        (lambda: lw.evolve(lw.localized_ladder(), lw.Ladder(0.1, np.array(0.2), 0.3), 1),
         "beta must be a number, not ndarray"),
        (lambda: lw.sweep_summary([0.1], [b"0.2"]), "beta must be a number, not bytes"),
        # the walk commands' run_* functions take an angle as sweep_summary does
        (lambda: cli.run_walk1d(True, 2), "gamma must be a number, not bool"),
        (lambda: cli.run_walk1d("0.5", 2), "gamma must be a number, not str"),
        (lambda: cli.run_ladder("0.1", 0.2, 2), "alpha must be a number, not str"),
        (lambda: cli.run_ladder(0.1, np.True_, 2), "beta must be a number, not bool"),
        (lambda: cli.run_ladder(0.1, 0.2, 2, gamma_y="0"), "gamma_y must be a number, not str"),
    ])
    def test_type_refusals_name_the_fault(self, make, message):
        with pytest.raises(TypeError, match=re.escape(message)):
            make()

    @pytest.mark.parametrize("value,shown", [
        (math.inf, "inf"), (-math.inf, "-inf"), (math.nan, "nan"),
        # past the float range: refused as the infinity of its sign
        (10**400, "inf"), (-10**400, "-inf"), (Fraction(10**400, 3), "inf"),
        (Fraction(-10**400, 3), "-inf"),
    ], ids=["inf", "-inf", "nan", "int", "-int", "fraction", "-fraction"])
    @pytest.mark.parametrize("make,name", [
        (lw.asymptotic_rho, "gamma"),
        (lambda x: lw.evolve(lw.localized_walker(), lw.Conventional(x), 1), "gamma"),
        (lambda x: lw.evolve(lw.localized_ladder(), lw.Ladder(0.1, 0.2, x), 1), "gamma_y"),
        (lambda x: lw.effective_angles(x, 0.0), "alpha"),
        (lambda x: lw.sweep_summary([x], [0.1]), "alpha"),
        (lambda x: lw.sweep_summary([0.1], [x]), "beta"),
        (lambda x: lw.CoinSpinor.from_bloch(x, 0), "theta"),
        (lambda x: lw.mode_eigensystem(x, 0.0), "gamma"),
        (lambda x: lw.dispersion(x, 0.0), "gamma"),
        (lambda x: lw.dispersion(0.5, x), "k"),
        (lw.reduce_angle, "gamma"),
        (lambda x: cli.run_walk1d(x, 2), "gamma"),
        (lambda x: cli.run_ladder(x, 0.2, 2), "alpha"),
        (lambda x: cli.run_ladder(0.1, 0.2, 2, gamma_y=x), "gamma_y"),
    ], ids=["asymptotic_rho", "evolve", "evolve-ladder", "effective_angles",
            "sweep_summary-alpha", "sweep_summary-beta", "from_bloch", "mode_eigensystem",
            "dispersion-gamma", "dispersion-k", "reduce_angle", "run_walk1d",
            "run_ladder-alpha", "run_ladder-gamma_y"])
    def test_non_finite_refusals_name_the_fault(self, make, name, value, shown):
        with pytest.raises(ValueError) as refusal:
            make(value)
        assert str(refusal.value) == f"{name} must be finite, got {shown}"


class TestStateTypes:
    """Both state types are one frozen dataclass base, with their own
    position method: the fields, the half-width and the positions
    ``-R .. R`` come from the amplitudes' last axis."""

    @pytest.mark.parametrize("localized,other,positions", [
        (lw.localized_walker, lw.LadderState, "sites"),
        (lw.localized_ladder, lw.WalkerState1D, "rungs"),
    ], ids=["line", "ladder"])
    def test_fields_positions_and_copies(self, localized, other, positions):
        state = localized(half_width=3, origin=1)
        assert [f.name for f in dataclasses.fields(state)] == [
            "amplitudes", "origin", "steps_taken"]
        assert state.half_width == 3 and not isinstance(state, other)
        assert getattr(state, positions)().tolist() == list(range(-3, 4))
        for copy in (dataclasses.replace(state, steps_taken=2),
                     type(state)(state.amplitudes, 1, 2)):
            assert type(copy) is type(state)
            assert (copy.amplitudes, copy.origin, copy.steps_taken) == (state.amplitudes, 1, 2)
        with pytest.raises(dataclasses.FrozenInstanceError):
            state.origin = 0

    @pytest.mark.parametrize("kind,shape", [
        (lw.WalkerState1D, (3, 5)),  # a third spin row
        (lw.WalkerState1D, (2, 2, 5)),  # a ladder's amplitudes
        (lw.WalkerState1D, (2, 4)),  # an even width has no middle site
        (lw.WalkerState1D, (5,)),
        (lw.WalkerState1D, ()),
        (lw.LadderState, (2, 5)),  # a line's amplitudes
        (lw.LadderState, (2, 3, 5)),  # a third side
        (lw.LadderState, (2, 2, 4)),
    ], ids=["line-3x5", "line-2x2x5", "line-2x4", "line-5", "line-scalar", "ladder-2x5",
            "ladder-2x3x5", "ladder-2x2x4"])
    def test_malformed_shapes_are_refused(self, kind, shape):
        lead = "(2, W)" if kind is lw.WalkerState1D else "(2, 2, W)"
        with pytest.raises(ValueError, match=re.escape(
                f"{kind.__name__} amplitudes must have shape {lead} with W odd, got {shape}")):
            kind(np.ones(shape, np.complex128))

    @pytest.mark.parametrize("kind", [lw.WalkerState1D, lw.LadderState])
    def test_amplitudes_must_be_an_array(self, kind):
        with pytest.raises(TypeError, match="amplitudes must be a numpy array, not list"):
            kind([[1.0, 0.0, 0.0], [0.0, 0.0, 0.0]])


class TestShifts:
    # Zero coin angles make every stage a pure shift, and a split step
    # with beta = pi turns the spin between its two half-shifts, which
    # shows what each half-shift moved and what it held.

    def test_full_shift_moves_up_right(self):
        out = lw.evolve(lw.localized_walker(half_width=3), lw.Conventional(0.0), 1)
        assert up_at(out, 1) == 1.0

    def test_full_shift_moves_down_left(self):
        out = lw.evolve(lw.localized_walker(lw.CoinSpinor(0, 1), half_width=3),
                        lw.Conventional(0.0), 1)
        assert down_at(out, -1) == 1.0

    def test_full_shift_is_linear(self):
        coin = lw.CoinSpinor(1 / math.sqrt(2), 1 / math.sqrt(2))
        out = lw.evolve(lw.localized_walker(coin, half_width=3), lw.Conventional(0.0), 1)
        assert up_at(out, 1) == pytest.approx(1 / math.sqrt(2))
        assert down_at(out, -1) == pytest.approx(1 / math.sqrt(2))

    def test_half_up_holds_down_component(self):
        # Down stays at 0 through the up half-shift, is turned up, and the
        # down half-shift then holds it.
        out = lw.evolve(lw.localized_walker(lw.CoinSpinor(0, 1), half_width=3),
                        lw.SplitStep(0.0, math.pi), 1)
        assert up_at(out, 0) == -1.0

    def test_half_up_moves_up_component(self):
        # Up moves to +1, is turned down, and comes back to 0.
        out = lw.evolve(lw.localized_walker(half_width=3), lw.SplitStep(0.0, math.pi), 1)
        assert down_at(out, 0) == 1.0

    def test_half_down_moves_down_component(self):
        state = lw.localized_walker(lw.CoinSpinor(0, 1), half_width=4, origin=2)
        out = lw.evolve(state, lw.SplitStep(0.0, 0.0), 1)
        assert down_at(out, 1) == 1.0

    def test_overflow_raises_instead_of_wrapping(self):
        state = lw.localized_walker(half_width=2, origin=2)
        with pytest.raises(lw.LatticeOverflowError):
            lw.evolve(state, lw.Conventional(0.0), 1)

    def test_norm_preserved_exactly(self):
        coin = lw.CoinSpinor(0.6, 0.8j)
        state = lw.localized_walker(coin, half_width=3)
        assert norm_sq(lw.evolve(state, lw.Conventional(0.0), 1)) == norm_sq(state)


class TestConventionalStep:
    def test_one_step_half_half(self):
        out = lw.evolve(lw.localized_walker(half_width=3), lw.Conventional(math.pi / 2), 1)
        dist = lw.position_distribution(out)
        r = out.half_width
        assert dist[r - 1] == pytest.approx(0.5, abs=1e-12)
        assert dist[r + 1] == pytest.approx(0.5, abs=1e-12)

    def test_two_steps_quarter_half_quarter(self):
        state = lw.evolve(lw.localized_walker(half_width=4),
                          lw.Conventional(math.pi / 2), 2)
        dist = lw.position_distribution(state)
        r = state.half_width
        assert dist[r - 2] == pytest.approx(0.25, abs=1e-12)
        assert dist[r] == pytest.approx(0.5, abs=1e-12)
        assert dist[r + 2] == pytest.approx(0.25, abs=1e-12)

    def test_zero_coin_moves_without_spread(self):
        state = lw.evolve(lw.localized_walker(half_width=5), lw.Conventional(0.0), 3)
        dist = lw.position_distribution(state)
        assert dist[state.half_width + 3] == pytest.approx(1.0, abs=1e-12)

    def test_pi_coin_oscillates_around_origin(self):
        # cos(pi/2) is ~6e-17 rather than 0 in floats, so confinement holds
        # up to a ~1e-33 probability leak that still spreads ballistically.
        state = lw.localized_walker(half_width=102)
        spec = lw.Conventional(math.pi)
        for n in range(1, 101):
            state = lw.evolve(state, spec, 1)
            dist = lw.position_distribution(state)
            support = state.sites()[dist > 1e-20]
            assert set(support.tolist()) <= {-1, 0, 1}
            core = dist[state.half_width - 1:state.half_width + 2]
            assert np.sum(core) == pytest.approx(1.0, abs=1e-12)


class TestSplitStep:
    @given(ANGLES)
    @settings(max_examples=40)
    def test_beta_zero_reduces_to_conventional(self, alpha):
        start = lw.localized_walker(half_width=6)
        split = lw.evolve(start, lw.SplitStep(alpha, 0.0), 4)
        conv = lw.evolve(start, lw.Conventional(alpha), 4)
        assert np.max(np.abs(split.amplitudes - conv.amplitudes)) < 1e-12

    def test_trivial_angles_shift_up(self):
        out = lw.evolve(lw.localized_walker(half_width=3), lw.SplitStep(0.0, 0.0), 1)
        assert up_at(out, 1) == 1.0

    def test_single_step_hand_enumeration(self):
        # Four-factor product at alpha = beta = pi/2 from the up state.
        out = lw.evolve(lw.localized_walker(half_width=3),
                        lw.SplitStep(math.pi / 2, math.pi / 2), 1)
        c2 = 0.5  # cos(pi/4)**2
        assert up_at(out, 1) == pytest.approx(c2, abs=1e-12)
        assert up_at(out, 0) == pytest.approx(-c2, abs=1e-12)
        assert down_at(out, 0) == pytest.approx(c2, abs=1e-12)
        assert down_at(out, -1) == pytest.approx(c2, abs=1e-12)
        dist = lw.position_distribution(out)
        assert dist[out.half_width + 1] == pytest.approx(0.25, abs=1e-12)


class TestLadderStep:
    def test_operator_bookkeeping_all_identity_coins(self):
        out = lw.evolve(lw.localized_ladder(half_width=3),
                        lw.Ladder(0.0, 0.0, gamma_y=0.0), 1)
        # up moves across before being shifted along the rung
        assert out.amplitudes[0, 1, out.half_width + 1] == 1.0

    def test_splitstep_spreads_to_both_sides(self):
        state = lw.localized_ladder(half_width=5)
        state = lw.evolve(state, lw.Ladder(-math.pi / 4, -math.pi / 2), 1)
        side0, side1 = np.sum(lw.position_distribution(state), axis=1)
        assert side0 > 0 and side1 > 0

    def test_norm_after_50_steps(self):
        rng = np.random.default_rng(7)
        for _ in range(3):
            alpha, beta = rng.uniform(-math.pi, math.pi, size=2)
            state = lw.evolve(lw.localized_ladder(half_width=52),
                              lw.Ladder(alpha, beta), 50)
            assert norm_sq(state) == pytest.approx(1.0, abs=1e-10)

    def test_requires_matching_state(self):
        with pytest.raises(TypeError):
            lw.evolve(lw.localized_walker(half_width=3), lw.Ladder(0.1, 0.2), 1)
        with pytest.raises(TypeError):
            lw.evolve(lw.localized_ladder(half_width=3), lw.Conventional(0.1), 1)
        with pytest.raises(TypeError):
            lw.evolve(lw.localized_ladder(half_width=3), lw.SplitStep(0.1, 0.2), 1)


class TestEvolve:
    def test_zero_steps_is_identity(self):
        state = lw.localized_walker(half_width=4)
        out = lw.evolve(state, lw.Conventional(1.0), 0)
        assert np.array_equal(out.amplitudes, state.amplitudes)
        assert out.steps_taken == 0

    def test_composition(self):
        spec = lw.SplitStep(0.7, -1.1)
        state = lw.localized_walker(half_width=9)
        split = lw.evolve(lw.evolve(state, spec, 3), spec, 4)
        direct = lw.evolve(state, spec, 7)
        assert np.max(np.abs(split.amplitudes - direct.amplitudes)) < 1e-12
        assert split.steps_taken == 7

    def test_negative_steps_rejected(self):
        with pytest.raises(ValueError):
            lw.evolve(lw.localized_walker(half_width=3), lw.Conventional(0.0), -1)

    @pytest.mark.parametrize("n_steps", [True, False, np.True_, 2.0, "2", None])
    def test_n_steps_must_be_an_integer(self, n_steps):
        # refused before any work: the non-finite angle is never reached
        with pytest.raises(TypeError):
            lw.evolve(lw.localized_walker(half_width=3), lw.Conventional(math.nan), n_steps)

    def test_integer_like_n_steps_counts_as_an_int(self):
        state = lw.localized_walker(half_width=4)
        out = lw.evolve(state, lw.Conventional(0.3), np.int64(2))
        assert type(out.steps_taken) is int and out.steps_taken == 2
        assert np.array_equal(out.amplitudes,
                              lw.evolve(state, lw.Conventional(0.3), 2).amplitudes)

    @pytest.mark.parametrize("localized,protocol", [
        (lw.localized_walker, lw.Conventional),
        (lw.localized_walker, lw.SplitStep),
        (lw.localized_ladder, lw.Ladder),
    ], ids=["conventional", "splitstep", "ladder"])
    @given(st.tuples(ANGLES, ANGLES, ANGLES), st.floats(min_value=0.0, max_value=math.pi),
           ANGLES, st.integers(min_value=1, max_value=25))
    @settings(max_examples=60, deadline=None)
    def test_one_step_calls_give_the_bytes_of_one_call(self, localized, protocol, angles,
                                                       theta, phi, n):
        # README's one-step loop builds the stage table anew at every call
        spec = protocol(*angles[:len(dataclasses.fields(protocol))])
        start = localized(lw.CoinSpinor.from_bloch(theta, phi), half_width=n + 1)
        state = start
        for _ in range(n):
            state = lw.evolve(state, spec, 1)
        direct = lw.evolve(start, spec, n)
        assert state.amplitudes.tobytes() == direct.amplitudes.tobytes()
        assert state.steps_taken == direct.steps_taken == n

    def test_fig2b_panel_parity_and_support(self):
        state = lw.evolve(lw.localized_walker(half_width=33),
                          lw.Conventional(math.pi / 2), 31)
        dist = lw.position_distribution(state)
        support = state.sites()[dist > 0]
        assert np.max(np.abs(support)) <= 31
        assert np.all(support % 2 != 0)


class TestEdgesAndAngles:
    @pytest.mark.parametrize("localized,spec,identity", [
        (lw.localized_walker, lw.Conventional(0.7), lw.Conventional(0.0)),
        (lw.localized_walker, lw.SplitStep(0.7, -0.4), lw.SplitStep(0.0, 0.0)),
        (lw.localized_ladder, lw.Ladder(-0.7, 1.1), lw.Ladder(0.0, 0.0, gamma_y=0.0)),
    ], ids=["conventional", "splitstep", "ladder"])
    def test_edges_and_non_finite_angles(self, localized, spec, identity):
        r = 6
        state = lw.evolve(localized(half_width=r), spec, r)
        with pytest.raises(lw.LatticeOverflowError):
            lw.evolve(state, spec, 1)
        # A down spinor on the -edge overflows in the shift that moves down:
        # the split step's second half-shift, the full shift otherwise.
        at_minus_edge = localized(lw.CoinSpinor(0, 1), half_width=r, origin=-r)
        with pytest.raises(lw.LatticeOverflowError, match="-edge"):
            lw.evolve(at_minus_edge, identity, 1)
        for field in dataclasses.fields(spec):
            bad = dataclasses.replace(spec, **{field.name: math.nan})
            with pytest.raises(ValueError, match=field.name):
                lw.evolve(localized(half_width=r), bad, 1)


class TestStageTable:
    """``_stages`` checks the state and the angles, then builds the step's
    stage table, on every call."""

    # The ladder's fused unitary sums its products, which drops the sign of
    # a zero angle; the coins of the other two keep it.
    SPECS = [
        (lw.localized_walker, lw.Conventional, (0.0,), True),
        (lw.localized_walker, lw.SplitStep, (0.0, 0.3), True),
        (lw.localized_ladder, lw.Ladder, (0.0, 1.1, 0.0), False),
    ]

    @staticmethod
    def fresh(spec):
        """The stage unitaries of ``spec`` built straight from its angles."""
        if isinstance(spec, lw.Conventional):
            return [core._coin(spec.gamma)]
        if isinstance(spec, lw.SplitStep):
            return [core._coin(spec.alpha), core._coin(spec.beta)]
        return [core._ladder_unitary(spec)]

    @pytest.mark.parametrize("localized,protocol,angles,signs_differ", SPECS,
                             ids=["conventional", "splitstep", "ladder"])
    def test_signed_zeros_get_their_own_tables(self, localized, protocol, angles,
                                               signs_differ):
        # 0.0 == -0.0 and both hash alike, but their coins differ in the
        # sign bits of their zeros.
        state = localized(half_width=3)
        plus = protocol(*angles)
        minus = protocol(*(-a if a == 0.0 else a for a in angles))
        assert plus == minus and hash(plus) == hash(minus)
        for spec in (plus, minus, plus, minus):
            table = [unitary for unitary, _up, _down in _stages(state, spec)]
            for got, expected in zip(table, self.fresh(spec), strict=True):
                assert np.array_equal(got, expected)
                assert np.array_equal(np.signbit(got), np.signbit(expected))
        assert signs_differ != np.array_equal(np.signbit(self.fresh(plus)[0]),
                                              np.signbit(self.fresh(minus)[0]))

    def test_checks_run_on_every_call(self):
        walker = lw.localized_walker(half_width=3)
        ladder = lw.localized_ladder(half_width=3)
        lw.evolve(walker, lw.Conventional(0.25), 1)
        for _ in range(2):
            with pytest.raises(TypeError):
                lw.evolve(ladder, lw.Conventional(0.25), 1)
            with pytest.raises(ValueError, match="gamma must be finite"):
                lw.evolve(walker, lw.Conventional(math.inf), 1)


class TestInvariants:
    @given(ANGLES, ANGLES, st.integers(min_value=0, max_value=10))
    @settings(max_examples=60, deadline=None)
    def test_unitarity_splitstep(self, alpha, beta, n):
        state = lw.evolve(lw.localized_walker(half_width=12),
                          lw.SplitStep(alpha, beta), n)
        assert norm_sq(state) == pytest.approx(1.0, abs=1e-10)

    @given(ANGLES, ANGLES, st.integers(min_value=0, max_value=8))
    @settings(max_examples=40, deadline=None)
    def test_unitarity_and_locality_ladder(self, alpha, beta, n):
        state = lw.evolve(lw.localized_ladder(half_width=10),
                          lw.Ladder(alpha, beta), n)
        assert norm_sq(state) == pytest.approx(1.0, abs=1e-10)
        joint = lw.position_distribution(state)
        occupied = state.rungs()[np.any(joint > 0, axis=0)]
        assert np.all(np.abs(occupied) <= n)

    @given(ANGLES, st.integers(min_value=0, max_value=12))
    @settings(max_examples=60, deadline=None)
    def test_locality_and_parity_conventional(self, gamma, n):
        state = lw.evolve(lw.localized_walker(half_width=14),
                          lw.Conventional(gamma), n)
        dist = lw.position_distribution(state)
        support = state.sites()[dist > 0]
        if support.size:
            assert np.max(np.abs(support)) <= n
            assert np.all((support - n) % 2 == 0)

    @given(ANGLES, st.integers(min_value=1, max_value=8))
    @settings(max_examples=40, deadline=None)
    def test_spin_flip_symmetry(self, gamma, n):
        coin = lw.CoinSpinor(0.6, 0.8j)
        flipped_coin = lw.CoinSpinor(0.6, -0.8j)
        plus = lw.evolve(lw.localized_walker(coin, half_width=10),
                         lw.Conventional(gamma), n)
        minus = lw.evolve(lw.localized_walker(flipped_coin, half_width=10),
                          lw.Conventional(-gamma), n)
        conjugated = plus.amplitudes * np.array([[1.0], [-1.0]])
        assert np.max(np.abs(minus.amplitudes - conjugated)) < 1e-12
        assert np.allclose(lw.position_distribution(minus),
                           lw.position_distribution(plus), atol=1e-12)


def shifted(amps, move_up, move_down):
    """Full-lattice shift of the up rows (first half) right and/or the down
    rows left, raising if a moved row has amplitude on its leading edge."""
    h = amps.shape[0] // 2
    out = np.zeros_like(amps)
    if move_up:
        if any(amps[:h, -1].tolist()):
            raise lw.LatticeOverflowError(
                "up amplitude reached the +edge; enlarge half_width")
        out[:h, 1:] = amps[:h, :-1]
    else:
        out[:h] = amps[:h]
    if move_down:
        if any(amps[h:, 0].tolist()):
            raise lw.LatticeOverflowError(
                "down amplitude reached the -edge; enlarge half_width")
        out[h:, :-1] = amps[h:, 1:]
    else:
        out[h:] = amps[h:]
    return out


def reference_evolve(state, spec, n_steps):
    """Amplitudes after ``n_steps``, every stage applied to the whole
    lattice: ``unitary @ amps`` followed by the shift."""
    shape = state.amplitudes.shape
    amps = state.amplitudes.reshape(-1, shape[-1])
    for _ in range(n_steps):
        for unitary, move_up, move_down in _stages(state, spec):
            amps = shifted(unitary @ amps, move_up, move_down)
    return amps.reshape(shape)


@st.composite
def walks(draw):
    """A protocol with a start state: a point mass with a random Bloch coin
    or an exact basis spinor at a random origin, often an edge (and side),
    or two of them with zeros in between.  A basis spinor under exact-zero
    (identity) coin angles keeps one amplitude exactly zero, so a point
    mass on an edge can walk away from it instead of overflowing, and a
    walk reuses its buffers at a lattice edge."""
    protocol = draw(st.sampled_from(["conventional", "splitstep", "ladder"]))
    r = draw(st.integers(min_value=1, max_value=12))
    origin = draw(st.sampled_from([-r, r]) | st.integers(min_value=-r, max_value=r))
    coin = draw(st.sampled_from([lw.CoinSpinor(1, 0), lw.CoinSpinor(0, 1)])
                | st.builds(lw.CoinSpinor.from_bloch,
                            st.floats(min_value=0.0, max_value=math.pi), ANGLES))
    alpha, beta, gamma_y = draw(st.just((0.0, 0.0, 0.0))
                                | st.tuples(*[st.just(0.0) | ANGLES] * 3))
    if protocol == "ladder":
        side = draw(st.integers(min_value=0, max_value=1))
        state = lw.localized_ladder(coin, half_width=r, side=side, origin=origin)
        spec = lw.Ladder(alpha, beta, gamma_y)
    else:
        state = lw.localized_walker(coin, half_width=r, origin=origin)
        spec = lw.Conventional(alpha) if protocol == "conventional" else lw.SplitStep(alpha, beta)
    gap = draw(st.integers(min_value=0, max_value=4))
    if gap >= 2 and origin + gap <= r:
        amps = state.amplitudes.copy()
        amps[..., origin + gap + r] = amps[..., origin + r][..., ::-1]
        state = dataclasses.replace(state, amplitudes=amps)
    return state, spec


def narrow_walk(protocol: str, r: int):
    """A point mass with a Bloch coin at the center of a half-width ``r``
    lattice: one sublattice column at the start, and with ``r = 1`` a
    sublattice of one site."""
    coin = lw.CoinSpinor.from_bloch(1.1, 0.4)
    if protocol == "ladder":
        return lw.localized_ladder(coin, half_width=r), lw.Ladder(-0.7, 1.1, 0.3)
    return lw.localized_walker(coin, half_width=r), lw.Conventional(0.9)


def edge_walk(protocol: str, r: int):
    """A down spinor on the +edge of a half-width ``r`` lattice under
    identity coins: its start window holds the last site, and it walks to
    the -edge, where step ``2 r + 1`` overflows."""
    coin = lw.CoinSpinor(0, 1)
    if protocol == "ladder":
        return lw.localized_ladder(coin, half_width=r, origin=r), lw.Ladder(0.0, 0.0, 0.0)
    spec = lw.Conventional(0.0) if protocol == "conventional" else lw.SplitStep(0.0, 0.0)
    return lw.localized_walker(coin, half_width=r, origin=r), spec


class TestSupportWindow:
    @given(walks(), st.integers(min_value=0, max_value=14))
    @example(narrow_walk("conventional", 1), 1)
    @example(narrow_walk("conventional", 1), 2)  # one step past the edge
    @example(narrow_walk("conventional", 2), 2)
    @example(narrow_walk("conventional", 2), 3)
    @example(narrow_walk("ladder", 1), 1)
    @example(narrow_walk("ladder", 1), 2)
    @example(narrow_walk("ladder", 2), 2)
    @example(narrow_walk("ladder", 2), 3)
    @settings(max_examples=200, deadline=None)
    def test_matches_full_lattice_reference(self, walk, n):
        state, spec = walk
        before = state.amplitudes.tobytes()
        try:
            expected = reference_evolve(state, spec, n)
        except lw.LatticeOverflowError as error:
            with pytest.raises(lw.LatticeOverflowError, match=re.escape(str(error))):
                lw.evolve(state, spec, n)
            expected = None
        if expected is not None:
            out = lw.evolve(state, spec, n).amplitudes
            assert np.array_equal(out, expected)
            assert not np.shares_memory(out, state.amplitudes)
        # n one-step calls agree with one bulk call, overflow included
        stepped = state
        try:
            for _ in range(n):
                stepped = lw.evolve(stepped, spec, 1)
        except lw.LatticeOverflowError:
            assert expected is None
        else:
            assert np.array_equal(stepped.amplitudes, expected)
        assert state.amplitudes.tobytes() == before

    @given(walks(), st.integers(min_value=0, max_value=14), st.integers(min_value=0, max_value=14))
    @example(edge_walk("conventional", 1), 2, 1)
    @example(edge_walk("conventional", 3), 7, 3)  # overflows at the -edge
    @example(edge_walk("splitstep", 1), 2, 1)
    @example(edge_walk("splitstep", 3), 7, 3)
    @example(edge_walk("ladder", 1), 2, 1)
    @example(edge_walk("ladder", 3), 7, 3)
    @settings(max_examples=500, deadline=None)
    def test_a_walk_in_two_calls_gives_the_bytes_of_one_call(self, walk, n, k):
        # A walk writes its two buffers by turns, the first of them over
        # the gathered start: a column left over in a buffer would show as
        # a difference between one call and the same walk split in two.
        state, spec = walk
        k %= n + 1
        try:
            whole = lw.evolve(state, spec, n)
        except lw.LatticeOverflowError as error:
            with pytest.raises(lw.LatticeOverflowError, match=re.escape(str(error))):
                lw.evolve(lw.evolve(state, spec, k), spec, n - k)
            return
        halves = lw.evolve(lw.evolve(state, spec, k), spec, n - k)
        assert halves.amplitudes.tobytes() == whole.amplitudes.tobytes()

    def test_edge_is_exact_and_input_untouched(self):
        # A down spinor on the +edge: the up component there is zero after
        # the identity coin, so the +edge check must pass, and the walker
        # then takes ten steps to the -edge.
        start = lw.localized_walker(lw.CoinSpinor(0, 1), half_width=5, origin=5)
        spec = lw.Conventional(0.0)
        state = start
        for _ in range(10):
            before = state.amplitudes.tobytes()
            out = lw.evolve(state, spec, 1)
            assert state.amplitudes.tobytes() == before
            assert not np.shares_memory(out.amplitudes, state.amplitudes)
            state = out
        assert down_at(state, -5) == 1.0
        before = state.amplitudes.tobytes()
        with pytest.raises(lw.LatticeOverflowError, match="-edge"):
            lw.evolve(state, spec, 1)
        assert state.amplitudes.tobytes() == before
        before = start.amplitudes.tobytes()
        assert np.array_equal(lw.evolve(start, spec, 10).amplitudes, state.amplitudes)
        with pytest.raises(lw.LatticeOverflowError, match="-edge"):
            lw.evolve(start, spec, 11)
        assert start.amplitudes.tobytes() == before

    def test_empty_state_stays_empty(self):
        state = lw.localized_walker(half_width=3)
        empty = dataclasses.replace(state, amplitudes=np.zeros_like(state.amplitudes))
        out = lw.evolve(empty, lw.SplitStep(0.3, 0.4), 5)
        assert not np.any(out.amplitudes) and out.steps_taken == 5


class TestSublattice:
    """A conventional or ladder state on one sublattice (sites of one
    parity) is stepped on that sublattice alone, any other on all sites."""

    @staticmethod
    def step_of_columns(state, spec):
        _amps, _lo, _hi, stride, _parity = next(core._steps(state, spec, 0))
        return stride

    @given(st.sampled_from(["conventional", "ladder"]), st.integers(min_value=1, max_value=12),
           st.data(), st.integers(min_value=0, max_value=14))
    @settings(max_examples=150, deadline=None)
    def test_mixed_parity_is_the_sum_of_its_sublattices(self, protocol, r, data, n):
        # Two point masses an odd distance apart: the whole state takes
        # the full-lattice path, each of them the sublattice path, and
        # their supports stay disjoint, so the sum is exact.
        origin = data.draw(st.integers(min_value=-r, max_value=r - 1))
        other = data.draw(st.sampled_from(range(origin + 1, r + 1, 2)))
        coins = [lw.CoinSpinor.from_bloch(data.draw(st.floats(0.0, math.pi)), data.draw(ANGLES))
                 for _ in range(2)]
        alpha, beta, gamma_y = data.draw(st.tuples(ANGLES, ANGLES, ANGLES))
        if protocol == "ladder":
            side = data.draw(st.integers(min_value=0, max_value=1))
            localized = functools.partial(lw.localized_ladder, side=side)
            spec = lw.Ladder(alpha, beta, gamma_y)
        else:
            localized, spec = lw.localized_walker, lw.Conventional(alpha)
        parts = [localized(coin, half_width=r, origin=o) for coin, o in zip(coins, (origin, other))]
        whole = dataclasses.replace(parts[0],
                                    amplitudes=parts[0].amplitudes + parts[1].amplitudes)
        assert self.step_of_columns(whole, spec) == 1
        assert [self.step_of_columns(part, spec) for part in parts] == [2, 2]
        try:
            expected = sum(lw.evolve(part, spec, n).amplitudes for part in parts)
        except lw.LatticeOverflowError:
            with pytest.raises(lw.LatticeOverflowError):
                lw.evolve(whole, spec, n)
            return
        assert np.array_equal(lw.evolve(whole, spec, n).amplitudes, expected)

    @pytest.mark.parametrize("localized,spec,step", [
        (lw.localized_walker, lw.Conventional(0.6), 2),
        (lw.localized_walker, lw.SplitStep(0.5, -0.4), 1),
        (lw.localized_ladder, lw.Ladder(-0.7, 1.1), 2),
    ], ids=["conventional", "splitstep", "ladder"])
    def test_benchmark_specs_match_the_full_lattice_reference(self, localized, spec, step):
        # the specs of the library benchmark's evolve calls, at 400 steps
        state = localized(half_width=402)
        assert self.step_of_columns(state, spec) == step
        assert np.array_equal(lw.evolve(state, spec, 400).amplitudes,
                              reference_evolve(state, spec, 400))


class TestStateBlocks:
    """``core._state_blocks``: the states of one stepping pass, in blocks."""

    @staticmethod
    def collect(state, spec, n, block_bytes):
        """The yielded states as bytes, the block lengths, and the error
        that ended the pass, if any; each block is checked as it comes."""
        states, lengths = [], []
        with mock.patch.object(core, "_BLOCK_BYTES", block_bytes):
            try:
                for block, lo, hi in core._state_blocks(state, spec, n):
                    assert block.shape[1:] == state.amplitudes.shape
                    assert not block[..., :lo].any() and not block[..., hi:].any()
                    states += [amps.tobytes() for amps in block]
                    lengths.append(len(block))
            except lw.LatticeOverflowError as error:
                return states, lengths, str(error)
        return states, lengths, None

    @given(walks(), st.integers(min_value=0, max_value=14),
           st.sampled_from([1, 100, 300, 2000, 1 << 18]))
    @settings(max_examples=200, deadline=None)
    def test_every_state_is_evolve(self, walk, n, block_bytes):
        self.check_pass(*walk, n, block_bytes)

    @given(walks().filter(lambda walk: not isinstance(walk[1], lw.SplitStep)),
           st.integers(min_value=0, max_value=14), st.sampled_from([1, 3, 5]))
    @settings(max_examples=100, deadline=None)
    def test_odd_capacities(self, walk, n, capacity):
        # With an odd number of states per block, a reused row holds a step
        # of the other parity, and so of the other sublattice.
        state, _spec = walk
        self.check_pass(*walk, n, capacity * state.amplitudes.nbytes)

    @staticmethod
    def overflow(state, spec, k):
        """``evolve``'s overflow message for ``k`` steps, or None."""
        try:
            lw.evolve(state, spec, k)
        except lw.LatticeOverflowError as error:
            return str(error)
        return None

    def check_pass(self, state, spec, n, block_bytes):
        before = state.amplitudes.tobytes()
        states, lengths, error = self.collect(state, spec, n, block_bytes)
        capacity = max(1, block_bytes // state.amplitudes.nbytes)
        for k, amps in enumerate(states):
            assert amps == lw.evolve(state, spec, k).amplitudes.tobytes()
        if error is None:
            # full blocks, then the rest of the pass
            assert all(length == min(capacity, n + 1) for length in lengths[:-1])
            assert 0 < lengths[-1] <= capacity
            assert len(states) == n + 1
        else:
            # whole blocks only, possibly none, of the steps before the first
            # one evolve refuses, and evolve's message for it
            step = next(k for k in range(1, n + 1) if self.overflow(state, spec, k))
            assert lengths == [capacity] * (step // capacity)
            assert error == self.overflow(state, spec, step)
        assert state.amplitudes.tobytes() == before

    def test_default_blocks_hold_about_256_kb(self):
        # ladder-csv's lattice: 4 rows of 1,205 complex sites, 77 kB a state
        state = lw.localized_ladder(half_width=602)
        lengths = [len(block) for block, _lo, _hi in
                   core._state_blocks(state, lw.Ladder(-0.7, 1.1), 10)]
        assert core._BLOCK_BYTES == 256 * 1024 and lengths == [3, 3, 3, 2]
