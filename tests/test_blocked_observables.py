"""``run_walk1d`` and ``run_ladder`` against their per-step reference loops.

The commands observe one stepping pass a block of states at a time.  The
references below take one ``evolve(state, spec, 1)`` step at a time and
read each observable over the whole array, with the per-state library
functions or, for the second moment and the side-profile distance, their
sums written out.  Both must give the same datasets, bit for bit.
"""

from __future__ import annotations

import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ladderwalk as lw
from ladderwalk import cli, core, sectors, spectral
from ladderwalk.spectral import _sector_magnetization


def _per_site_table(**columns) -> dict:
    names = ["step", *columns]
    counts = [len(part) for part in columns["probability"]]
    rows = np.empty(sum(counts), dtype=[
        (name, np.float64 if name == "probability" else np.int32) for name in names])
    rows["step"] = np.repeat(np.arange(len(counts)), counts)
    for name, parts in columns.items():
        rows[name] = np.concatenate(parts)
    return {"columns": names, "rows": rows}


def _steps_table(step_rows: list, **dtypes) -> dict:
    """A steps table of ``step`` and the columns ``dtypes`` names, from its
    rows."""
    rows = np.array([tuple(row) for row in step_rows],
                    dtype=[("step", np.int32), *dtypes.items()])
    return {"columns": list(rows.dtype.names), "rows": rows}


def reference_walk1d(gamma, steps, initial_theta=0.0, initial_phi=0.0):
    r = steps + 2
    coin = lw.CoinSpinor.from_bloch(initial_theta, initial_phi)
    state = lw.localized_walker(coin, half_width=r)
    spec = lw.Conventional(gamma.radians)
    sites = state.sites()
    site_parts, prob_parts = [], []
    step_rows = []
    for step in range(steps + 1):
        if step > 0:
            state = lw.evolve(state, spec, 1)
        probs = lw.position_distribution(state)
        total = float(np.sum(probs))
        cli._check_step_sum(step, total)
        nonzero = probs > 0.0
        site_parts.append(sites[nonzero])
        prob_parts.append(probs[nonzero])
        # the second moment about the origin, sum P(m) m^2
        step_rows.append([step, float(np.sum(probs * sites.astype(float) ** 2)),
                          lw.entropy(lw.finite_n_rho(state)), total])
    rho_inf = lw.asymptotic_rho(gamma.radians)
    params = {
        "command": "walk1d",
        "gamma": gamma.radians,
        "steps": steps,
        "half_width": r,
        "initial_theta": float(initial_theta),
        "initial_phi": float(initial_phi),
        "predicted_spread_coefficient": _sector_magnetization(gamma.radians),
        "asymptotic_rho11": rho_inf.rho11,
        "asymptotic_rho22": rho_inf.rho22,
        "asymptotic_entropy": lw.entropy(rho_inf),
    }
    return {"command": "walk1d", "params": params, "tables": {
        "distribution": _per_site_table(site=site_parts, probability=prob_parts),
        "steps": _steps_table(step_rows, second_moment=np.float64, entropy=np.float64,
                              total_probability=np.float64)}}


def reference_ladder(alpha, beta, steps, gamma_y=None, initial_theta=0.0, initial_phi=0.0):
    r = steps + 2
    gy = gamma_y if gamma_y is not None else cli._DEFAULT_GAMMA_Y
    row = lw.sweep_summary([alpha], [beta], gy)
    summary = dict(zip(row.dtype.names, row[0].tolist()))
    eff = lw.effective_angles(alpha, beta, gy)
    coin = lw.CoinSpinor.from_bloch(initial_theta, initial_phi)
    state = lw.localized_ladder(coin, half_width=r, side=0)
    spec = lw.Ladder(alpha=alpha.radians, beta=beta.radians, gamma_y=gy.radians)
    rungs = state.rungs()
    side_parts, rung_parts, prob_parts = [], [], []
    step_rows = []
    rho_sums = [[0.0, 0.0, 0j], [0.0, 0.0, 0j]]
    for step in range(steps + 1):
        if step > 0:
            state = lw.evolve(state, spec, 1)
        joint = lw.position_distribution(state)
        total = float(np.sum(joint))
        cli._check_step_sum(step, total)
        side, rung = np.nonzero(joint > 0.0)
        side_parts.append(side)
        rung_parts.append(rungs[rung])
        prob_parts.append(joint[side, rung])
        side0, side1 = joint
        mass0, mass1 = float(np.sum(side0)), float(np.sum(side1))
        if min(mass0, mass1) < cli._SIDE_MASS_FLOOR:
            tv = None
        else:
            # the total-variation distance of the renormalized side profiles
            tv = 0.5 * float(np.sum(np.abs(side0 / mass0 - side1 / mass1)))
        pair = lw.sector_project(state)
        if step > 0:
            for sums, sector in zip(rho_sums, (pair.sector_k0, pair.sector_kpi)):
                rho = lw.finite_n_rho(sector)
                sums[0] += rho.rho11
                sums[1] += rho.rho22
                sums[2] += rho.rho12
        step_rows.append([step, mass0, mass1, pair.weight_k0, pair.weight_kpi, tv])
    i_finite = None
    if steps >= 1:
        i_finite = lw.mutual_information(*(
            lw.DensityMatrix2(rho11=s11 / steps, rho22=s22 / steps, rho12=s12 / steps)
            for s11, s22, s12 in rho_sums))
    params = {
        "command": "ladder",
        "alpha": alpha.radians,
        "beta": beta.radians,
        "gamma_y": gy.radians,
        "steps": steps,
        "half_width": r,
        "initial_theta": float(initial_theta),
        "initial_phi": float(initial_phi),
        "gamma1": eff.gamma1,
        "gamma2": eff.gamma2,
        "phi": eff.phi,
        "m1": summary["m1"],
        "m2": summary["m2"],
        "m": summary["m"],
        "d1": summary["d1"],
        "d2": summary["d2"],
        "s1": summary["s1"],
        "s2": summary["s2"],
        "mutual_information": summary["mutual_information"],
        "mutual_information_finite_n": i_finite,
        "pattern": summary["pattern"],
    }
    return {"command": "ladder", "params": params, "tables": {
        "joint": _per_site_table(side=side_parts, rung=rung_parts, probability=prob_parts),
        "steps": _steps_table(step_rows, side0_mass=np.float64, side1_mass=np.float64,
                              weight_k0=np.float64, weight_kpi=np.float64, tv_sides=object)}}


def bits(dataset: dict):
    """The dataset with every float as its repr (which tells -0.0 from 0.0)
    and each table as its dtype and the raw bytes of each column, or the
    repr of an object column's values, whose bytes are pointers."""
    tables = {}
    for name, table in dataset["tables"].items():
        rows = table["rows"]
        tables[name] = (table["columns"], rows.dtype.descr, [
            repr(rows[field].tolist()) if rows.dtype[field].kind == "O"
            else rows[field].tobytes() for field in rows.dtype.names])
    return dataset["command"], repr(dataset["params"]), tables


def record_blocks(monkeypatch, rows: int, kwargs: dict, per_block: int | None) -> list:
    """The block lengths of every stepping pass ``cli`` makes; with
    ``per_block`` given, ``core._BLOCK_BYTES`` holds that many states of
    ``rows`` amplitude rows on the lattice of the run ``kwargs``."""
    if per_block is not None:
        width = 2 * (kwargs["steps"] + 2) + 1
        monkeypatch.setattr(core, "_BLOCK_BYTES", per_block * rows * width * 16)
    lengths = []

    def recording(*args):
        for block, lo, hi in core._state_blocks(*args):
            lengths.append(len(block))
            yield block, lo, hi

    monkeypatch.setattr(cli, "_state_blocks", recording)
    return lengths


def check_blocks(lengths: list, kwargs: dict, per_block: int | None) -> None:
    """One pass over steps 0..n.  Three states a block give at least three
    full blocks and a partial last one."""
    steps = kwargs["steps"]
    assert sum(lengths) == steps + 1
    if steps and per_block == 3:
        assert len(lengths) >= 4 and lengths[-1] < lengths[0]


def angle(text):
    return cli.parse_angle(text)


# steps + 1 is odd and no multiple of three, so that the last block is partial
WALK1D_CASES = {
    "zero-steps": dict(gamma=angle("0.9"), steps=0),
    "dispersionless": dict(gamma=angle("0"), steps=24, initial_theta=1.0),
    "bloch-coin": dict(gamma=angle("-2.1"), steps=40, initial_theta=0.4,
                       initial_phi=1.3),
}
LADDER_CASES = {
    "zero-steps": dict(alpha=angle("0.3"), beta=angle("0.2"), steps=0),
    "identical": dict(alpha=angle("-1/4pi"), beta=angle("3/4pi"), steps=40),
    "alternating": dict(alpha=angle("-1/4pi"), beta=angle("0"), steps=30),
    "one-sided": dict(alpha=angle("-1/4pi"), beta=angle("pi"), steps=30),
    "gamma-y": dict(alpha=angle("0.3"), beta=angle("0.9"), gamma_y=angle("-0.3"),
                    steps=36, initial_theta=1.1, initial_phi=2.2),
}


class TestOnePassMatchesTheStepLoop:
    @pytest.mark.parametrize("case", WALK1D_CASES)
    @pytest.mark.parametrize("per_block", [None, 1, 3])
    def test_walk1d(self, monkeypatch, case, per_block):
        kwargs = WALK1D_CASES[case]
        lengths = record_blocks(monkeypatch, 2, kwargs, per_block)
        assert bits(cli.run_walk1d(**kwargs)) == bits(reference_walk1d(**kwargs))
        check_blocks(lengths, kwargs, per_block)

    @pytest.mark.parametrize("case", LADDER_CASES)
    @pytest.mark.parametrize("per_block", [None, 1, 3])
    def test_ladder(self, monkeypatch, case, per_block):
        kwargs = LADDER_CASES[case]
        lengths = record_blocks(monkeypatch, 4, kwargs, per_block)
        assert bits(cli.run_ladder(**kwargs)) == bits(reference_ladder(**kwargs))
        check_blocks(lengths, kwargs, per_block)

    @given(st.tuples(*[st.floats(min_value=-math.pi, max_value=math.pi)] * 2,
                     st.none() | st.floats(min_value=-math.pi, max_value=math.pi)),
           st.floats(min_value=0.0, max_value=math.pi),
           st.floats(min_value=-math.pi, max_value=math.pi),
           st.integers(min_value=0, max_value=40),
           st.sampled_from([1, 2000, 7000, 1 << 18]))
    @settings(max_examples=40, deadline=None)
    def test_drawn_runs(self, angles, theta, phi, steps, block_bytes):
        alpha, beta, gamma_y = (None if v is None else angle(v) for v in angles)
        with mock.patch.object(core, "_BLOCK_BYTES", block_bytes):
            ladder = cli.run_ladder(alpha, beta, steps, gamma_y, theta, phi)
            walk = cli.run_walk1d(alpha, steps, theta, phi)
        assert bits(ladder) == bits(reference_ladder(alpha, beta, steps, gamma_y, theta, phi))
        assert bits(walk) == bits(reference_walk1d(alpha, steps, theta, phi))

    @pytest.mark.parametrize("per_block", [None, 1, 3])
    def test_alternating_ladder_fills_half_its_bound(self, monkeypatch, per_block):
        # The joint table has room for t + 1 rungs on each side at step t;
        # at beta = 0 the walker is on one side per step, so only half of
        # those rows are filled and the table ends well before its bound.
        kwargs = LADDER_CASES["alternating"]
        steps = kwargs["steps"]
        lengths = record_blocks(monkeypatch, 4, kwargs, per_block)
        dataset = cli.run_ladder(**kwargs)
        rows = dataset["tables"]["joint"]["rows"]
        assert len(rows) == (steps + 1) * (steps + 2) // 2
        assert np.array_equal(rows["side"], rows["step"] % 2)
        assert bits(dataset) == bits(reference_ladder(**kwargs))
        check_blocks(lengths, kwargs, per_block)


def rho_bits(rho11, rho22, rho12) -> str:
    return repr((rho11, rho22, rho12))


WIDE_STEPS = 48


def wide_blocks(monkeypatch, state, spec, per_block):
    """``_state_blocks`` over ``WIDE_STEPS`` steps, ``per_block`` states a
    block but the last."""
    monkeypatch.setattr(core, "_BLOCK_BYTES", per_block * state.amplitudes.nbytes)
    lengths = []
    for block, lo, hi in core._state_blocks(state, spec, WIDE_STEPS):
        lengths.append(len(block))
        yield block, lo, hi
    assert sum(lengths) == WIDE_STEPS + 1
    assert set(lengths[:-1]) == {per_block}


class TestBlockHelpersOnAWideLattice:
    """The block helpers over ``_state_blocks`` on a lattice far wider than
    ``WIDE_STEPS`` steps reach: every window stops short of the edges, the
    workspaces are reused as in ``cli``, and each state's observables
    equal the per-state views of ``evolve(state, spec, k)``, bit for bit."""

    @pytest.mark.parametrize("per_block", [1, 2])
    def test_walker(self, monkeypatch, per_block):
        state = lw.localized_walker(half_width=1000)
        spec = lw.Conventional(math.pi / 3)
        width = state.amplitudes.shape[-1]
        spin_probs = np.zeros((per_block, 2, width))
        probs = np.zeros((per_block, width))
        cross = np.zeros((per_block, width), np.complex128)
        k = 0
        for block, lo, hi in wide_blocks(monkeypatch, state, spec, per_block):
            n = len(block)
            core._probabilities(block, lo, hi, spin_probs[:n], probs[:n])
            rho11, rho22, rho12 = spectral._coin_rho_sums(block, lo, hi, spin_probs[:n], cross[:n])
            for i in range(n):
                evolved = lw.evolve(state, spec, k)
                assert probs[i].tobytes() == lw.position_distribution(evolved).tobytes()
                rho = lw.finite_n_rho(evolved)
                assert rho_bits(rho11[i], rho22[i], rho12[i]) == \
                    rho_bits(rho.rho11, rho.rho22, rho.rho12)
                k += 1

    @pytest.mark.parametrize("per_block", [1, 2])
    def test_ladder(self, monkeypatch, per_block):
        state = lw.localized_ladder(half_width=1000)
        spec = lw.Ladder(-0.7, 1.1)
        shape = (per_block, *state.amplitudes.shape)
        spin_probs, sector_probs = np.zeros((2, *shape))
        split = np.zeros(shape, np.complex128)
        joint = np.zeros((per_block, 2, shape[-1]))
        cross = np.zeros((per_block, 2, shape[-1]), np.complex128)
        k = 0
        for block, lo, hi in wide_blocks(monkeypatch, state, spec, per_block):
            n = len(block)
            core._probabilities(block, lo, hi, spin_probs[:n], joint[:n])
            weights = sectors._sector_blocks(block, lo, hi, split[:n], sector_probs[:n])
            core._probabilities(split[:n], lo, hi, sector_probs[:n])
            rho11, rho22, rho12 = spectral._coin_rho_sums(split[:n], lo, hi, sector_probs[:n],
                                                          cross[:n])
            for i in range(n):
                evolved = lw.evolve(state, spec, k)
                assert joint[i].tobytes() == lw.position_distribution(evolved).tobytes()
                pair = lw.sector_project(evolved)
                assert repr(weights[i].tolist()) == repr([pair.weight_k0, pair.weight_kpi])
                for s, sector in enumerate((pair.sector_k0, pair.sector_kpi)):
                    assert split[i, s].tobytes() == sector.amplitudes.tobytes()
                    rho = lw.finite_n_rho(sector)
                    assert rho_bits(rho11[i][s], rho22[i][s], rho12[i][s]) == \
                        rho_bits(rho.rho11, rho.rho22, rho.rho12)
                k += 1
