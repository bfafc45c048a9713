"""The per-state observables against their own bodies before they became
one-state views of the block helpers, bit for bit.

``position_distribution``, ``sector_project`` and ``finite_n_rho`` pass a
state to ``core._probabilities``, ``sectors._sector_blocks`` and
``spectral._coin_rho_sums`` as a block of one.  The references below are
the direct per-state forms, written out here so that they stay
independent of those helpers.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import ladderwalk as lw

SQRT_HALF = 1.0 / math.sqrt(2.0)


def reference_position_distribution(state) -> np.ndarray:
    return np.sum(np.abs(state.amplitudes) ** 2, axis=0)


def reference_finite_n_rho(state) -> lw.DensityMatrix2:
    amps = state.amplitudes
    rho11 = float(np.sum(np.abs(amps[0]) ** 2))
    rho22 = float(np.sum(np.abs(amps[1]) ** 2))
    rho12 = complex(np.sum(amps[0] * np.conj(amps[1])))
    return lw.DensityMatrix2(rho11=rho11, rho22=rho22, rho12=rho12)


def reference_renormalized(raw: np.ndarray, weight: float) -> np.ndarray:
    if not weight >= 1e-14:
        return np.zeros_like(raw)
    parts = raw.view(np.float64)
    np.multiply(parts, 1.0 / math.sqrt(weight), out=parts)
    return raw


def reference_sector_project(state) -> tuple:
    amps = state.amplitudes
    raw_k0 = (amps[:, 0, :] + amps[:, 1, :]) * SQRT_HALF
    raw_kpi = (amps[:, 0, :] - amps[:, 1, :]) * SQRT_HALF
    w0, wpi = (float(np.sum(np.abs(raw) ** 2)) for raw in (raw_k0, raw_kpi))
    return (reference_renormalized(raw_k0, w0), reference_renormalized(raw_kpi, wpi),
            w0, wpi)


def bits(value):
    """A value's type and bytes: ``-0.0`` and ``0.0`` differ."""
    if isinstance(value, lw.DensityMatrix2):
        return tuple(bits(v) for v in (value.rho11, value.rho22, value.rho12))
    if isinstance(value, lw.SectorPair):
        return tuple(bits(v) for v in (value.sector_k0.amplitudes, value.sector_kpi.amplitudes,
                                       value.weight_k0, value.weight_kpi))
    if isinstance(value, tuple):
        return tuple(bits(v) for v in value)
    array = np.asarray(value)
    return type(value).__name__, array.dtype.str, array.shape, array.tobytes()


def outcome(function, state):
    """``function(state)``'s bits, or the type and message it raised."""
    try:
        return bits(function(state))
    except lw.DensityMatrixError as exc:
        return type(exc), str(exc)


# float parts with signed zeros drawn often
PARTS = st.sampled_from([0.0, -0.0]) | st.floats(min_value=-1.0, max_value=1.0)


@st.composite
def states(draw):
    """A line or ladder state 1 to 9 sites wide, an odd width: drawn parts,
    the two sides equal or opposite (each empties one sector), or all
    signed zeros; normalized or not."""
    ladder = draw(st.booleans())
    width = 2 * draw(st.integers(min_value=0, max_value=4)) + 1
    shape = (2, 2, width) if ladder else (2, width)
    form = draw(st.sampled_from(["drawn", "symmetric", "antisymmetric", "zero"]))
    parts = st.sampled_from([0.0, -0.0]) if form == "zero" else PARTS
    size = 2 * math.prod(shape)
    amps = np.array(draw(st.lists(parts, min_size=size, max_size=size)))
    amps = amps.view(np.complex128).reshape(shape)
    if ladder and form == "symmetric":
        amps[:, 1] = amps[:, 0]
    elif ladder and form == "antisymmetric":
        amps[:, 1] = -amps[:, 0]
    norm = math.sqrt(float(np.sum(np.abs(amps) ** 2)))
    if norm > 0.0 and draw(st.booleans()):
        amps = amps / norm
    return (lw.LadderState if ladder else lw.WalkerState1D)(amplitudes=amps)


def random_state(rng, shape) -> np.ndarray:
    amps = rng.normal(size=2 * math.prod(shape)).view(np.complex128).reshape(shape)
    return amps / math.sqrt(float(np.sum(np.abs(amps) ** 2)))


class TestViewsKeepTheirBits:
    @given(states())
    @example(lw.localized_walker(half_width=1))
    @example(lw.localized_ladder(half_width=1, side=1))
    @example(lw.WalkerState1D(amplitudes=np.array([[-0.0 - 0.0j], [0.6 - 0.8j]])))
    # a one-element cross term whose in-place product has other bits
    @example(lw.WalkerState1D(amplitudes=np.array([[0.48 + 0.36j], [0.64 - 0.48j]])))
    @settings(max_examples=300, deadline=None)
    def test_views_match_the_per_state_references(self, state):
        assert bits(lw.position_distribution(state)) == bits(
            reference_position_distribution(state))
        assert outcome(lw.finite_n_rho, state) == outcome(reference_finite_n_rho, state)
        if isinstance(state, lw.LadderState):
            assert bits(lw.sector_project(state)) == bits(reference_sector_project(state))

    def test_evolved_states(self):
        """Rows long enough for the pairwise sums to split (over 128 terms)."""
        coin = lw.CoinSpinor.from_bloch(1.1, 2.2)
        line = lw.evolve(lw.localized_walker(coin, half_width=100), lw.Conventional(0.9), 90)
        ladder = lw.evolve(lw.localized_ladder(coin, half_width=100), lw.Ladder(-0.7, 1.1), 90)
        for state in (line, ladder):
            assert bits(lw.position_distribution(state)) == bits(
                reference_position_distribution(state))
            assert bits(lw.finite_n_rho(state)) == bits(reference_finite_n_rho(state))
        assert bits(lw.sector_project(ladder)) == bits(reference_sector_project(ladder))

    def test_one_site_cross_terms(self):
        """A one-element product written over its own input takes numpy's
        scalar path, whose bits differ from the vector path on about 40%
        of random pairs; the view must keep the reference's."""
        rng = np.random.default_rng(5)
        for _ in range(400):
            state = lw.WalkerState1D(amplitudes=random_state(rng, (2, 1)))
            assert bits(lw.finite_n_rho(state)) == bits(reference_finite_n_rho(state))

    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_an_empty_sector_is_positive_zero(self, sign):
        """Sides equal or opposite up to 1e-9 leave one sector a weight
        below 1e-14 but parts of both signs; it is all ``+0.0``."""
        rng = np.random.default_rng(6)
        amps = random_state(rng, (2, 1, 5))
        other = sign * amps + 1e-9 * random_state(rng, (2, 1, 5))
        state = lw.LadderState(amplitudes=np.concatenate([amps, other], axis=1))
        pair = lw.sector_project(state)
        empty = pair.sector_kpi if sign > 0 else pair.sector_k0
        assert 0.0 < min(pair.weight_k0, pair.weight_kpi) < 1e-14
        assert empty.amplitudes.shape == (2, 5)
        assert not np.signbit(empty.amplitudes.view(np.float64)).any()
        assert bits(pair) == bits(reference_sector_project(state))


class TestFiniteNRhoOnALadder:
    def test_is_the_weighted_sum_of_its_sector_matrices(self):
        """Traced over side and rung, a ladder state's coin matrix is
        ``w0 rho(k0) + wpi rho(kpi)`` of its two sectors."""
        rng = np.random.default_rng(7)
        for _ in range(300):
            state = lw.LadderState(
                amplitudes=random_state(rng, (2, 2, 2 * int(rng.integers(0, 20)) + 1)))
            pair = lw.sector_project(state)
            rho = lw.finite_n_rho(state)
            rho0, rhopi = lw.finite_n_rho(pair.sector_k0), lw.finite_n_rho(pair.sector_kpi)
            for name in ("rho11", "rho22", "rho12"):
                mixed = (pair.weight_k0 * getattr(rho0, name)
                         + pair.weight_kpi * getattr(rhopi, name))
                assert abs(getattr(rho, name) - mixed) <= 1e-14


@pytest.mark.parametrize("view,state,message", [
    (lw.sector_project, lw.localized_walker(half_width=3), "LadderState"),
    (lw.position_distribution, "state", "unsupported state str"),
    (lw.finite_n_rho, "state", "unsupported state str"),
    (lw.finite_n_rho, lw.localized_walker().amplitudes, "unsupported state ndarray"),
], ids=["sector_project", "position_distribution", "finite_n_rho", "finite_n_rho-array"])
def test_views_refuse_what_they_cannot_view(view, state, message):
    with pytest.raises(TypeError, match=message):
        view(state)
