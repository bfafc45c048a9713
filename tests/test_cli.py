import contextlib
import csv
import inspect
import io
import json
import math
import os
import re
import subprocess
import sys
import tracemalloc
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import ladderwalk as lw
from ladderwalk import cli


class TestParseAngle:
    @pytest.mark.parametrize("text,expected", [
        ("pi", math.pi),
        ("-pi", -math.pi),
        ("2pi", 2 * math.pi),
        ("1/4pi", math.pi / 4),
        ("-1/4pi", -math.pi / 4),
        ("3pi/4", 3 * math.pi / 4),
        ("pi/2", math.pi / 2),
        ("0.5pi", math.pi / 2),
        ("0.785", 0.785),
        ("-1.5e-3", -1.5e-3),
    ])
    def test_accepted_forms(self, text, expected):
        assert cli.parse_angle(text).radians == pytest.approx(expected, abs=1e-15)

    def test_fraction_is_tracked(self):
        angle = cli.parse_angle("-3/4pi")
        assert angle.pi_fraction == Fraction(-3, 4)
        assert cli.parse_angle("0.125").pi_fraction is None

    def test_numbers_pass_through(self):
        assert cli.parse_angle(1.25).radians == 1.25

    @pytest.mark.parametrize("bad", ["pie", "x", "1/0pi", "--", "nan", "pi/0",
                                     True, False,
                                     pytest.param(10**400, id="huge-int"),
                                     pytest.param("1" + "0" * 400 + "pi", id="huge-pi")])
    def test_rejects_garbage(self, bad):
        with pytest.raises(cli.UsageError):
            cli.parse_angle(bad)


class TestParseGrid:
    def test_fraction_grid_exact(self):
        grid = cli.parse_grid("-pi:pi:5")
        assert [a.pi_fraction for a in grid] == [
            Fraction(-1), Fraction(-1, 2), Fraction(0), Fraction(1, 2), Fraction(1)]

    def test_single_point(self):
        grid = cli.parse_grid("1/4pi:3pi:1")
        assert len(grid) == 1 and grid[0].pi_fraction == Fraction(1, 4)

    def test_float_grid(self):
        grid = cli.parse_grid("0:1:3")
        assert [a.radians for a in grid] == pytest.approx([0.0, 0.5, 1.0])

    def test_one_angle_is_a_one_point_grid(self):
        # the Angle that parse_angle gives, pi-fraction included
        grid = cli.parse_grid("-1/4pi")
        assert grid == [cli.parse_angle("-1/4pi")]
        assert grid[0].pi_fraction == Fraction(-1, 4)
        assert grid == cli.parse_grid("-1/4pi:-1/4pi:1")
        assert cli.parse_grid("0.3") == [lw.Angle(0.3)]

    @pytest.mark.parametrize("bad", ["0:1", "a:b", "0:1:0", "0:1:x", "a:b:3",
                                     "-1e308:1e308:3", "a", "nan", "1e309"])
    def test_rejects_bad_grids(self, bad):
        with pytest.raises(cli.UsageError):
            cli.parse_grid(bad)

    @pytest.mark.parametrize("bad", ["0:1", "0:1:2:3"])
    def test_part_count_message_names_both_forms(self, bad):
        with pytest.raises(cli.UsageError,
                           match=re.escape(f"grid must be start:stop:count or one angle, got {bad!r}")):
            cli.parse_grid(bad)


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


# run_walk1d and run_ladder with every angle they need: the range checks
# live in the run_* functions.
ANGLE = cli.parse_angle("0.3")
WALKS = [
    lambda **kw: cli.run_walk1d(gamma=ANGLE, **kw),
    lambda **kw: cli.run_ladder(alpha=ANGLE, beta=ANGLE, **kw),
]


class TestExperimentConfig:
    def test_negative_steps_rejected(self):
        for run in WALKS:
            with pytest.raises(cli.UsageError):
                run(steps=-1)

    @pytest.mark.parametrize("steps,message", [
        (True, "steps must be an integer, not bool"),
        (2.0, "steps must be an integer, got 2.0"),
    ])
    @pytest.mark.parametrize("run", [*WALKS, cli.run_table1],
                             ids=["walk1d", "ladder", "table1"])
    def test_steps_must_be_integers(self, run, steps, message):
        with pytest.raises(TypeError, match=re.escape(message)):
            run(steps=steps)

    @pytest.mark.parametrize("run", [*WALKS, cli.run_table1],
                             ids=["walk1d", "ladder", "table1"])
    def test_numpy_steps_write_the_bytes_of_int_steps(self, tmp_path, run):
        # params echo the int that the steps check returns, not the caller's
        # numpy scalar, which json cannot write
        written = {}
        for steps in (3, np.int64(3)):
            dataset = run(steps=steps)
            assert type(dataset["params"]["steps"]) is int
            for fmt in ("json", "csv"):
                out = tmp_path / type(steps).__name__ / f"x.{fmt}"
                paths = cli.write_dataset(dataset, str(out), fmt)
                written.setdefault(fmt, []).append([(p.name, p.read_bytes()) for p in paths])
        for fmt, (plain, numpy) in written.items():
            assert plain == numpy, fmt

    @pytest.mark.parametrize("run,angles", [
        (cli.run_walk1d, {"gamma": 0.5}),
        (cli.run_ladder, {"alpha": 0.1, "beta": 0.2}),
        (cli.run_ladder, {"alpha": -0.7, "beta": 1.1, "gamma_y": 0.4}),
    ], ids=["walk1d", "ladder", "ladder-gamma-y"])
    def test_float_angles_write_the_bytes_of_angles(self, tmp_path, run, angles):
        # the run_* functions take a float angle as sweep_summary does
        written = {}
        for kind, wrap in (("float", float), ("angle", lw.Angle)):
            dataset = run(**{name: wrap(value) for name, value in angles.items()}, steps=3)
            for fmt in ("json", "csv"):
                out = tmp_path / kind / f"x.{fmt}"
                paths = cli.write_dataset(dataset, str(out), fmt)
                written.setdefault(fmt, []).append([(p.name, p.read_bytes()) for p in paths])
        for fmt, (from_floats, from_angles) in written.items():
            assert from_floats == from_angles, fmt

    @pytest.mark.parametrize("command,options", [
        ("walk1d", {"gamma": "1/2pi", "steps": 5}),
        ("ladder", {"alpha": "0.3", "beta": "0.3", "steps": 5}),
    ])
    def test_half_width_is_not_an_option(self, tmp_path, command, options):
        # The lattice is always steps + 2, and params echo it; a flag or a
        # config key setting it is refused.
        out = tmp_path / "x.json"
        flags = [f"--{key}={value}" for key, value in options.items()]
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({**options, "half_width": 17}))
        for argv in ([*flags, "--half-width", "17"], ["--config", str(config)]):
            code, stdout, err = run_main([command, *argv, "--out", str(out)])
            assert code == 1 and stdout == ""
            assert "Traceback" not in err
            assert not out.exists()
        assert run_main([command, *flags, "--format", "json", "--out", str(out)])[0] == 0
        assert json.loads(out.read_text())["params"]["half_width"] == options["steps"] + 2

    def test_unknown_format_rejected(self, tmp_path, capsys):
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({"gamma": "1/2pi", "steps": 2, "format": "xml",
                                      "out": str(tmp_path / "x.csv")}))
        assert cli.main(["walk1d", "--config", str(config)]) == 1
        assert "ladderwalk: error:" in capsys.readouterr().err
        assert not (tmp_path / "x.csv").exists()

    @pytest.mark.parametrize("key,value", [
        ("steps", "abc"), ("steps", 3.7), ("steps", True),
    ])
    def test_config_counts_must_be_integers(self, tmp_path, key, value):
        config = tmp_path / "cfg.json"
        settings = {"gamma": "1/2pi", "steps": 4, "out": str(tmp_path / "x.csv")}
        settings[key] = value
        config.write_text(json.dumps(settings))
        proc = subprocess.run(
            [sys.executable, "-m", "ladderwalk", "walk1d", "--config", str(config)],
            capture_output=True, text=True)
        assert proc.returncode == 1
        assert "ladderwalk: error:" in proc.stderr
        assert "Traceback" not in proc.stderr


class TestWalk1d:
    def test_single_step_rows(self, tmp_path):
        out = tmp_path / "walk.csv"
        rc = cli.main(["walk1d", "--gamma", "1/2pi", "--steps", "1",
                       "--out", str(out), "--format", "csv"])
        assert rc == 0
        rows = read_csv(out)
        assert rows[0] == ["step", "site", "probability"]
        step1 = [(int(r[1]), float(r[2])) for r in rows[1:] if r[0] == "1"]
        assert sorted(step1) == [(-1, pytest.approx(0.5, abs=1e-12)),
                                 (1, pytest.approx(0.5, abs=1e-12))]

    def test_dispersionless_single_row(self, tmp_path):
        out = tmp_path / "walk.csv"
        cli.main(["walk1d", "--gamma", "0", "--steps", "31", "--out", str(out)])
        rows = read_csv(out)
        final = [r for r in rows[1:] if r[0] == "31"]
        assert len(final) == 1
        assert int(final[0][1]) == 31 and float(final[0][2]) == pytest.approx(1.0)

    def test_zero_steps_point_mass(self, tmp_path):
        out = tmp_path / "walk.csv"
        cli.main(["walk1d", "--gamma", "1/2pi", "--steps", "0", "--out", str(out)])
        rows = read_csv(out)
        assert rows[1:] == [["0", "0", "1"]]

    def test_per_step_probability_sums(self, tmp_path):
        out = tmp_path / "walk.json"
        cli.main(["walk1d", "--gamma", "0.9", "--steps", "12",
                  "--out", str(out), "--format", "json"])
        data = json.loads(out.read_text())
        sums = {}
        for step, _site, p in data["tables"]["distribution"]["rows"]:
            sums[step] = sums.get(step, 0.0) + p
        assert all(abs(total - 1.0) <= 1e-9 for total in sums.values())

    def test_predicted_spread_coefficient(self):
        dataset = cli.run_walk1d(cli.parse_angle("1/2pi"), steps=5)
        predicted = dataset["params"]["predicted_spread_coefficient"]
        assert predicted == pytest.approx(1 - math.sqrt(2) / 2)
        for step, m2, _entropy, _total in dataset["tables"]["steps"]["rows"]:
            assert 0.0 <= m2 <= step**2 + 1e-12

    def test_missing_required_flag_is_usage_error(self, tmp_path):
        assert cli.main(["walk1d", "--steps", "3",
                         "--out", str(tmp_path / "x.csv")]) == 1


class TestLadderCmd:
    def test_alternating_side_masses(self, tmp_path):
        out = tmp_path / "ladder.json"
        rc = cli.main(["ladder", "--alpha", "-1/4pi", "--beta", "0", "--steps", "3",
                       "--out", str(out), "--format", "json"])
        assert rc == 0
        data = json.loads(out.read_text())
        steps = data["tables"]["steps"]["rows"]
        masses = [(row[1], row[2]) for row in steps]
        assert masses[0][0] == pytest.approx(1.0)
        assert masses[1][1] == pytest.approx(1.0, abs=1e-12)
        assert masses[2][0] == pytest.approx(1.0, abs=1e-12)
        assert masses[3][1] == pytest.approx(1.0, abs=1e-12)
        assert data["params"]["pattern"] == "alternating"

    @pytest.mark.parametrize("angles", [("-1/4pi", "3/4pi", None), ("-1/4pi", "3/4pi", "1/7pi"),
                                        ("-0.7", "1.1", "-0.3"), ("0.3", "0", None)])
    def test_analytics_params_are_python_scalars(self, angles):
        # numpy scalars would print as np.float64(...) through repr
        alpha, beta, gamma_y = (None if v is None else cli.parse_angle(v) for v in angles)
        params = cli.run_ladder(alpha, beta, 2, gamma_y)["params"]
        for name in ("gamma1", "gamma2", "phi", "m1", "m2", "m", "d1", "d2", "s1", "s2",
                     "mutual_information", "mutual_information_finite_n"):
            assert type(params[name]) is float, name
        assert type(params["pattern"]) is str

    def test_one_sided_off_mass(self, tmp_path):
        out = tmp_path / "ladder.json"
        cli.main(["ladder", "--alpha", "-1/4pi", "--beta", "pi", "--steps", "20",
                  "--out", str(out), "--format", "json"])
        data = json.loads(out.read_text())
        off = [row[2] for row in data["tables"]["steps"]["rows"]]
        assert max(off) < 1e-10

    def test_identical_profiles_small_tv(self, tmp_path):
        out = tmp_path / "ladder.json"
        cli.main(["ladder", "--alpha", "-1/4pi", "--beta", "3/4pi", "--steps", "50",
                  "--out", str(out), "--format", "json"])
        data = json.loads(out.read_text())
        tv_final = data["tables"]["steps"]["rows"][-1][5]
        assert tv_final < 1e-6
        assert data["params"]["m1"] == 1.0
        assert data["params"]["gamma1"] == 0.0

    @pytest.mark.parametrize("argv,pattern", [
        (["--alpha=1/2pi", "--beta", "0.3", "--gamma-y", "0"], "generic"),
        (["--alpha", "0.3", "--beta", "0.9", "--gamma-y=-0.3"], "hadamard-degenerate"),
        (["--alpha=1/2pi", "--beta", "0.3"], "hadamard-degenerate"),
    ])
    def test_pattern_follows_long_side_coin(self, capsys, argv, pattern):
        assert cli.main(["ladder", *argv, "--steps", "2"]) == 0
        params = json.loads(capsys.readouterr().out)["params"]
        assert params["pattern"] == pattern
        equal = params["m1"] == pytest.approx(params["m2"], abs=1e-12)
        assert equal == (pattern == "hadamard-degenerate")

    @given(st.tuples(*[st.floats(min_value=-math.pi, max_value=math.pi)] * 2,
                     st.none() | st.floats(min_value=-math.pi, max_value=math.pi)),
           st.floats(min_value=0.0, max_value=math.pi),
           st.floats(min_value=-math.pi, max_value=math.pi),
           st.integers(min_value=0, max_value=200))
    @example(("0.3", "1.1", None), 0.0, 0.0, 10)
    @settings(max_examples=30, deadline=None)
    def test_sector_weights_constant(self, angles, theta, phi, steps):
        """A walk from side 0 keeps both sector weights at 1/2 at every
        step, so ``run_ladder`` never meets an empty sector."""
        alpha, beta, gamma_y = (None if v is None else cli.parse_angle(v) for v in angles)
        rows = cli.run_ladder(alpha, beta, steps, gamma_y, initial_theta=theta,
                              initial_phi=phi)["tables"]["steps"]["rows"]
        for row in rows:
            assert abs(row[3] - 0.5) <= 1e-12 and abs(row[4] - 0.5) <= 1e-12

    @pytest.mark.parametrize("alpha,beta,gamma_y", [(-0.7, 1.1, None), (0.4, -2.3, 0.9)])
    def test_steps_table_matches_the_observables(self, alpha, beta, gamma_y):
        """The side masses are sums of the joint's rows and the weights are
        those ``sector_project`` records, bit for bit at every step."""
        steps = 40
        gy = None if gamma_y is None else cli.parse_angle(gamma_y)
        rows = cli.run_ladder(cli.parse_angle(alpha), cli.parse_angle(beta), steps,
                              gy)["tables"]["steps"]["rows"]
        spec = lw.Ladder(alpha, beta, lw.DEFAULT_GAMMA_Y if gamma_y is None else gamma_y)
        state = lw.localized_ladder(half_width=steps + 2)
        for step, row in enumerate(rows):
            if step:
                state = lw.evolve(state, spec, 1)
            side0, side1 = lw.position_distribution(state)
            mass0, mass1 = np.sum(side0), np.sum(side1)
            pair = lw.sector_project(state)
            expected = [step, mass0, mass1, pair.weight_k0, pair.weight_kpi]
            assert [float(v).hex() for v in row.tolist()[:5]] == \
                [float(v).hex() for v in expected]
            if row[5] is not None:
                assert row[5] == 0.5 * np.sum(np.abs(side0 / mass0 - side1 / mass1))
        assert len(rows) == steps + 1

    @given(st.tuples(*[st.floats(min_value=-math.pi, max_value=math.pi)] * 2,
                     st.none() | st.floats(min_value=-math.pi, max_value=math.pi)),
           st.floats(min_value=0.0, max_value=math.pi),
           st.floats(min_value=-math.pi, max_value=math.pi),
           st.integers(min_value=1, max_value=200))
    @example(("-0.7", "1.1", None), 0.0, 0.0, 600)
    @example(("-1/4pi", "3/4pi", None), 0.0, 0.0, 64)
    @example(("0.3", "0.9", None), 0.0, 0.0, 300)
    @settings(max_examples=30, deadline=None)
    def test_finite_n_mutual_information_matches_separate_walks(
            self, angles, theta, phi, steps):
        """The finite-time mutual information, taken from the ladder's own
        sector states, is that of two separate ``cesaro_rho`` sector walks
        to the spectral oracle's 1e-12."""
        alpha, beta, gamma_y = (None if v is None else cli.parse_angle(v) for v in angles)
        params = cli.run_ladder(alpha, beta, steps, gamma_y, initial_theta=theta,
                                initial_phi=phi)["params"]
        eff = (lw.effective_angles(alpha, beta) if gamma_y is None
               else lw.effective_angles(alpha, beta, gamma_y))
        coin = lw.CoinSpinor.from_bloch(theta, phi)
        expected = lw.mutual_information(lw.cesaro_rho(eff.gamma1_reduced, steps, coin),
                                         lw.cesaro_rho(eff.gamma2_reduced, steps, coin))
        assert type(params["mutual_information_finite_n"]) is float
        assert abs(params["mutual_information_finite_n"] - expected) <= 1e-12

    def test_one_walk(self, monkeypatch):
        """The ladder's own walk is the only one: one stepping pass over its
        ``steps`` steps, no ``evolve`` call and no ``cesaro_rho`` walk."""
        def refuse(*args, **kwargs):
            raise AssertionError("a second walk was run")

        passes = []

        def counting(state, spec, n_steps):
            passes.append(n_steps)
            return lw.core._state_blocks(state, spec, n_steps)

        for module in (lw, lw.spectral):
            monkeypatch.setattr(module, "cesaro_rho", refuse)
        for module in (lw, lw.core):
            monkeypatch.setattr(module, "evolve", refuse)
        monkeypatch.setattr(cli, "_state_blocks", counting)
        params = cli.run_ladder(cli.parse_angle("-0.7"), cli.parse_angle("1.1"),
                                steps=30)["params"]
        assert passes == [30]
        assert isinstance(params["mutual_information_finite_n"], float)


class TestSweep:
    def run_sweep(self, tmp_path, fmt="json"):
        out = tmp_path / ("sweep.json" if fmt == "json" else "sweep.csv")
        rc = cli.main(["sweep", "--alpha-grid", "-1/4pi", "--beta-grid", "-pi:pi:9",
                       "--out", str(out), "--format", fmt])
        assert rc == 0
        return out

    def test_row_structure(self, tmp_path):
        out = self.run_sweep(tmp_path)
        data = json.loads(out.read_text())
        cols = data["tables"]["sweep"]["columns"]
        rows = data["tables"]["sweep"]["rows"]
        assert len(rows) == 9
        betas = [row[cols.index("beta")] for row in rows]
        assert betas == sorted(betas)
        by_beta = {round(b / math.pi, 6): row for b, row in zip(betas, rows)}
        m2 = cols.index("m2")
        m1 = cols.index("m1")
        m = cols.index("m")
        assert by_beta[0.25][m2] == 0.0
        assert by_beta[0.75][m1] == 1.0
        for edge in (-1.0, 1.0):
            row = by_beta[edge]
            assert row[m1] == row[m2] == row[m]
        i_col = cols.index("mutual_information")
        s1_col = cols.index("s1")
        assert by_beta[0][i_col] == by_beta[0][s1_col]
        assert by_beta[0][i_col] == pytest.approx(0.9713, abs=2e-4)

    def test_needs_grids(self, tmp_path):
        assert cli.main(["sweep", "--out", str(tmp_path / "s.csv")]) == 1

    def test_rows_are_a_structured_array(self):
        table = cli.run_sweep([cli.parse_angle("-1/4pi")], cli.parse_grid("1/4pi:3/4pi:2"))
        rows = table["tables"]["sweep"]["rows"]
        assert rows.dtype.names == tuple(table["tables"]["sweep"]["columns"])
        assert [rows.dtype[name].kind for name in rows.dtype.names] == ["f"] * 12 + ["U"]
        assert rows["pattern"].tolist() == ["identical-dominated"] * 2
        assert rows["m2"][0] == 0.0 and rows["m1"][1] == 1.0

    def test_pattern_values_need_no_escapes(self):
        # the writers format the text column as '"%s"' (JSON) and '%s' (CSV)
        for pattern in lw.WalkPattern:
            assert json.dumps(pattern.value) == '"%s"' % pattern.value
            assert not set(pattern.value) & set(',"\r\n')

    def test_csv_tables(self, tmp_path):
        out = self.run_sweep(tmp_path, fmt="csv")
        rows = read_csv(out)
        assert rows[0][0] == "alpha" and len(rows) == 10
        params = read_csv(out.parent / "sweep.params.csv")
        assert params[0][0] == "command" and params[1][0] == "sweep"

    def test_help_names_one_point_grids(self):
        code, out, _err = run_main(["sweep", "--help"])
        assert code == 0
        text = " ".join(out.split())
        assert "--alpha-grid ALPHA_GRID alpha grid as start:stop:count, or one angle" in text
        assert "--beta-grid BETA_GRID beta grid as start:stop:count, or one angle" in text
        assert "--alpha ALPHA" not in text and "--beta BETA" not in text
        assert "coin angle" not in text

    def test_one_angle_grid_writes_the_one_point_rows(self, tmp_path):
        outputs = []
        for alpha in ("-1/4pi", "-1/4pi:-1/4pi:1"):
            out = tmp_path / f"{len(outputs)}.json"
            assert cli.main(["sweep", "--alpha-grid", alpha, "--beta-grid", "-pi:pi:9",
                             "--out", str(out), "--format", "json"]) == 0
            outputs.append(out.read_bytes())
        assert outputs[0] == outputs[1]


class TestTable1:
    def test_passes_with_exit_zero(self):
        proc = subprocess.run(
            [sys.executable, "-m", "ladderwalk", "table1"],
            capture_output=True, text=True)
        assert proc.returncode == 0
        lines = [l for l in proc.stdout.splitlines() if l.startswith("table1 ")]
        assert len(lines) == 12 and all("PASS" in l for l in lines)

    def test_failure_exit_code(self, monkeypatch):
        monkeypatch.setattr(cli, "_IDENTICAL_TV_COEFF", -1.0)
        assert cli.main(["table1", "--steps", "8"]) == 2

    def test_cells_are_python_scalars(self):
        # main prints each measured value with repr
        rows = cli.run_table1(steps=4)["tables"]["checks"]["rows"]
        assert len(rows) == 12
        for row, quantity, expected, measured, passed in rows:
            want = str if quantity == "pattern" else float
            assert type(expected) is want and type(measured) is want, (row, quantity)
            assert type(passed) is bool

    @pytest.mark.parametrize("steps", [4, 64])
    def test_rows_check_what_ladder_writes(self, monkeypatch, steps):
        # each regime is one ladder run: its analytics come from that run's
        # params, not from a sweep of its own
        calls = []
        summary = cli.sweep_summary
        monkeypatch.setattr(cli, "sweep_summary", lambda *args: calls.append(args) or summary(*args))
        rows = cli.run_table1(steps)["tables"]["checks"]["rows"]
        assert len(calls) == 4
        monkeypatch.undo()
        alpha, params, tables = cli.parse_angle("-1/4pi"), [], []
        for beta in ("0pi", "pi", "1/4pi", "3/4pi"):
            data = cli.run_ladder(alpha, cli.parse_angle(beta), steps)
            params.append(data["params"])
            tables.append(data["tables"]["steps"]["rows"][1:])
        (zero, pi, quarter, three_quarters), (alternating, one_sided, *identical) = params, tables
        assert [(row, quantity, measured) for row, quantity, _, measured, _ in rows] == [
            ("alternating", "pattern", zero["pattern"]),
            ("alternating", "m1_minus_m2", abs(zero["m1"] - zero["m2"])),
            ("alternating", "max_resident_side_miss", max(np.where(
                alternating["step"] % 2, alternating["side0_mass"],
                alternating["side1_mass"]).tolist())),
            ("one-sided", "pattern", pi["pattern"]),
            ("one-sided", "m1_minus_m2", abs(pi["m1"] - pi["m2"])),
            ("one-sided", "max_off_side_mass", max(one_sided["side1_mass"].tolist())),
            ("identical-m2-zero", "pattern", quarter["pattern"]),
            ("identical-m2-zero", "m2", quarter["m2"]),
            ("identical-m2-zero", "tv_sides", identical[0]["tv_sides"][-1]),
            ("identical-m1-max", "pattern", three_quarters["pattern"]),
            ("identical-m1-max", "m1", three_quarters["m1"]),
            ("identical-m1-max", "tv_sides", identical[1]["tv_sides"][-1]),
        ]

    def test_dataset_written(self, tmp_path):
        out = tmp_path / "table1.json"
        rc = cli.main(["table1", "--steps", "16", "--out", str(out),
                       "--format", "json"])
        assert rc == 0
        data = json.loads(out.read_text())
        assert data["params"]["all_passed"] is True
        assert len(data["tables"]["checks"]["rows"]) == 12


# Repetitive in the first 1024 rows only ("head"), and repetitive with
# only new values after them ("late"): "head" is written cell by cell.
DISTINCT_AFTER_HEAD = {"head": [0.25] * 1024 + (np.arange(1200) / 3.0).tolist(),
                       "late": [0.5] * 1024 + np.repeat(np.arange(600) / 7.0, 2).tolist()}


class TestOutputPlumbing:
    def test_json_round_trip_exact(self, tmp_path):
        out = tmp_path / "data.json"
        for dataset in (cli.run_walk1d(cli.parse_angle("1/2pi"), steps=9),
                        cli.run_ladder(cli.parse_angle("-0.7"), cli.parse_angle("1.1"),
                                       steps=7)):
            cli.write_dataset(dataset, str(out), "json")
            data = json.loads(out.read_text())
            assert list(data) == list(dataset)
            for key in dataset:
                if key != "tables":
                    assert data[key] == dataset[key]
            assert list(data["tables"]) == list(dataset["tables"])
            for name, table in dataset["tables"].items():
                assert data["tables"][name] == {
                    "columns": table["columns"], "rows": [list(r) for r in table["rows"].tolist()]}

    @pytest.mark.parametrize("chunk_rows", [cli._CHUNK_ROWS, 3])
    @pytest.mark.parametrize("fields,columns", [
        # negative ints, a column of one value, floats with a signed zero
        ([("step", "i8"), ("site", "i8"), ("p", "f8")],
         [[0, 1, 1, 2, 2, 2, 3], [0, -1, 1, -2, 0, 2, -3],
          [1.0, 0.5, 0.5, 0.1, -0.0, 1 / 3, 1e-300]]),
        ([("step", "i8"), ("site", "i8"), ("p", "f8")], [[5], [-7], [0.25]]),
        ([("step", "i8"), ("site", "i8"), ("p", "f8")], [[], [], []]),
        # spans wider than the row count, up to the int64 extremes
        ([("wide", "i8"), ("extreme", "i8"), ("narrow", "i8")],
         [[-10**12, 0, 10**12, 0], [-2**63, 2**63 - 1, -2**63, 0], [-1, -1, 0, 2]]),
        ([("a", "f8"), ("pattern", "U12")],
         [[0.1, -2.5, 3.0], ["generic", "one-sided", "alternating"]]),
        # Python scalars of every kind a dataset's object column holds
        ([("step", "i8"), ("cell", "O")],
         [list(range(8)), [None, True, False, "one-sided", 7, -0.0, 1e-300, 1 / 3]]),
        # a % in a text or object cell is written as it is: those cells are
        # arguments of the chunk's %, never part of its template
        ([("step", "i4"), ("pattern", "U8"), ("p", "f8"), ("q", "f8"), ("cell", "O")],
         [[0, 1, 1, 2, 2, 2, 3, 3],
          ["50%", "%s", "generic", "%s", "50%", "%%", "%(x)s", "%"], [0.5] * 8,
          (np.arange(8) / 3.0).tolist(), ["%d", "100%", None, "%s%%", 0.25, True, "%", "%d"]]),
    ], ids=["negative", "one-row", "zero-rows", "wide-spans", "text", "objects", "percent"])
    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_integer_cells_as_percent_d(self, monkeypatch, fmt, fields, columns,
                                        chunk_rows):
        """Integer cells rendered once per value give the bytes ``%d`` gives
        row by row, and object cells those of ``_format_cell`` (CSV) and
        ``json.dumps`` (JSON)."""
        rows = np.empty(len(columns[0]), dtype=fields)
        for (name, _dtype), column in zip(fields, columns):
            rows[name] = column
        monkeypatch.setattr(cli, "_CHUNK_ROWS", chunk_rows)
        cells, layout, sep = self.layout(fmt)
        encode = cli._format_cell if fmt == "csv" else json.dumps
        formats = cli._cell_formats(rows, {**cells, "i": "%d", "O": None})
        one_row = self.row_format(layout, ["%s"] * len(formats))
        expected = sep.join(one_row % tuple(encode(v) if f is None else f % v
                                            for f, v in zip(formats, row))
                            for row in rows.tolist())
        assert "".join(cli._formatted_chunks(rows, cells, layout, sep)) == expected

    @staticmethod
    def layout(fmt):
        """Cell formats, a row layout and the row separator like the
        writer's, for ``_formatted_chunks``."""
        if fmt == "csv":
            return cli._CSV_CELLS, ("", ",", "\r\n"), ""
        return cli._JSON_CELLS, ("\n[", ",", "]"), ","

    @staticmethod
    def row_format(layout, formats):
        """One row's ``%`` format: ``formats`` within ``layout``."""
        before, between, after = layout
        return before + between.join(formats) + after

    @pytest.mark.parametrize("chunk_rows", [1024, 3])
    @pytest.mark.parametrize("columns", [
        # signed zeros, each repeated: 0.0 and -0.0 print apart
        {"zeros": [0.0, -0.0] * 600, "constant": [-0.0] * 1200,
         "extremes": [5e-324, 1e308, -1e308, -5e-324] * 300},
        # exactly half distinct in the first chunk of 1024 rows, and beyond
        {"half": np.repeat(np.arange(1100) / 7.0, 2),
         "spread": np.arange(2200) / 3.0, "tail": [0.1] * 2199 + [-0.0]},
        # every value distinct
        {"distinct": np.linspace(-1.0, 1.0, 1500) ** 3, "one": [1 / 3] * 1500},
        {"single": [-0.0], "other": [5e-324]},
        {"empty": [], "also": []},
        # repetitive, but every value after the first 1024 rows is new
        {"late": [0.5] * 1024 + np.repeat(np.arange(600) / 7.0, 2).tolist(),
         "zeros": [-0.0] * 1024 + [0.0, -0.0] * 600},
        DISTINCT_AFTER_HEAD,
    ], ids=["signed-zeros", "half-distinct", "all-distinct", "one-row", "zero-rows",
            "new-values-after-head", "distinct-after-head"])
    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_float_cells_as_row_by_row_formats(self, monkeypatch, fmt, columns, chunk_rows):
        """Float cells rendered once per distinct bit pattern give the bytes
        ``%.17g`` (CSV) and ``repr`` (JSON) give row by row."""
        rows = self.float_rows(columns)
        monkeypatch.setattr(cli, "_CHUNK_ROWS", chunk_rows)
        cells, layout, sep = self.layout(fmt)
        one_row = self.row_format(layout, ["%.17g" if fmt == "csv" else "%s"] * len(columns))
        cell = (lambda v: v) if fmt == "csv" else repr
        expected = sep.join(one_row % tuple(map(cell, row)) for row in rows.tolist())
        got = "".join(cli._formatted_chunks(rows, cells, layout, sep))
        # line lists: a failure reports the first differing line quickly
        assert got.splitlines() == expected.splitlines()
        assert got == expected

    @staticmethod
    def float_rows(columns: dict) -> np.ndarray:
        """A structured table of the float64 ``columns``, by name."""
        rows = np.empty(len(next(iter(columns.values()))),
                        dtype=[(name, "f8") for name in columns])
        for name, column in columns.items():
            rows[name] = column
        return rows

    @pytest.mark.parametrize("chunk_rows", [cli._CHUNK_ROWS, 3])
    @pytest.mark.parametrize("table", ["sweep", "distinct-after-head"])
    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_each_repeated_float_formatted_once_per_table(self, monkeypatch, fmt, table,
                                                          chunk_rows):
        """A float column whose first chunk and whole column hold at most
        half as many distinct values as rows is formatted once per distinct
        bit pattern, however many chunks the values recur in; any other is
        not formatted ahead (on the 1,089 rows of a 33 x 33 sweep, and on a
        column that turns all-distinct after its first chunk)."""
        calls = []

        class Counted(str):
            def __mod__(self, value):
                calls.append(value)
                return str.__mod__(self, value)

        if table == "sweep":
            grid = cli.parse_grid("-pi:pi:33")
            rows = cli.run_sweep(grid, grid)["tables"]["sweep"]["rows"]
        else:
            rows = self.float_rows(DISTINCT_AFTER_HEAD)
        monkeypatch.setattr(cli, "_CHUNK_ROWS", chunk_rows)
        cells, row_format, sep = self.layout(fmt)
        cells = {**cells, "f": Counted(cells["f"])}
        expected = 0
        for name in rows.dtype.names:
            if rows.dtype[name].kind == "f":
                bits = rows[name].view(np.uint64).tolist()
                head = bits[:chunk_rows]
                if 2 * len(set(head)) <= len(head) and 2 * len(set(bits)) <= len(bits):
                    expected += len(set(bits))
        assert expected > 0
        "".join(cli._formatted_chunks(rows, cells, row_format, sep))
        assert len(calls) == expected

    @pytest.mark.parametrize("alpha_grid,beta_grid", [
        ("-pi:pi:129", "-pi:pi:129"),     # pi fractions: few distinct values
        ("-3:3:300", "-2.9:3.1:300"),     # plain floats: few values repeat
    ])
    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_write_memory_stays_below_the_rows(self, tmp_path, fmt, alpha_grid, beta_grid):
        """The text tables of repeated floats are held for the whole write,
        and one chunk's text at a time; together they stay below the rows
        being written."""
        dataset = cli.run_sweep(cli.parse_grid(alpha_grid), cli.parse_grid(beta_grid))
        tracemalloc.start()
        try:
            cli.write_dataset(dataset, str(tmp_path / f"sweep.{fmt}"), fmt)
            _size, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= dataset["tables"]["sweep"]["rows"].nbytes

    @pytest.mark.parametrize("run,table,slack_mb", [
        (lambda: cli.run_ladder(cli.parse_angle("-0.7"), cli.parse_angle("1.1"), 600),
         "joint", 3),
        (lambda: cli.run_walk1d(cli.parse_angle("1/3pi"), 600), "distribution", 2),
    ], ids=["ladder", "walk1d"])
    def test_walk_memory_stays_near_its_table(self, run, table, slack_mb):
        """Each block writes its rows straight into the per-site table,
        allocated once for the walk: besides that table the traced peak
        (numpy reports its buffers to tracemalloc) holds only the lattice,
        the workspaces and the steps table, with no per-block parts and no
        second copy of the rows."""
        tracemalloc.start()
        try:
            dataset = run()
            _size, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= dataset["tables"][table]["rows"].nbytes + slack_mb * 2**20

    @pytest.mark.parametrize("out,siblings", [
        ("run.csv", ["run.csv", "run.params.csv", "run.steps.csv"]),
        ("run.txt", ["run.params.txt", "run.steps.txt", "run.txt"]),
        ("run", ["run", "run.params.csv", "run.steps.csv"]),
    ])
    def test_csv_siblings_keep_the_suffix_of_out(self, tmp_path, out, siblings):
        rc = cli.main(["walk1d", "--gamma", "0.3", "--steps", "2",
                       "--out", str(tmp_path / out), "--format", "csv"])
        assert rc == 0
        assert sorted(path.name for path in tmp_path.iterdir()) == siblings

    def test_byte_identical_reruns(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        for path in (a, b):
            cli.main(["ladder", "--alpha", "-1/4pi", "--beta", "1/4pi",
                      "--steps", "12", "--out", str(path), "--format", "json"])
        assert a.read_bytes() == b.read_bytes()
        c, d = tmp_path / "c.csv", tmp_path / "d.csv"
        for path in (c, d):
            cli.main(["walk1d", "--gamma", "0.77", "--steps", "9",
                      "--out", str(path), "--format", "csv"])
        assert c.read_bytes() == d.read_bytes()

    def test_csv_seventeen_significant_digits(self, tmp_path):
        out = tmp_path / "walk.csv"
        cli.main(["walk1d", "--gamma", "1/2pi", "--steps", "1", "--out", str(out)])
        for row in read_csv(out)[1:]:
            cell = row[2]
            assert cell == format(float(cell), ".17g")
        probs = [float(r[2]) for r in read_csv(out)[1:] if r[0] == "1"]
        assert probs == pytest.approx([0.5, 0.5], abs=1e-12)

    def test_config_file_with_flag_override(self, tmp_path):
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({
            "gamma": "1/2pi", "steps": 4, "format": "json",
            "out": str(tmp_path / "from_config.json"),
        }))
        rc = cli.main(["walk1d", "--config", str(config), "--steps", "2"])
        assert rc == 0
        data = json.loads((tmp_path / "from_config.json").read_text())
        assert data["params"]["steps"] == 2
        assert data["params"]["gamma"] == pytest.approx(math.pi / 2)

    def test_stdout_json_when_no_out(self, capsys):
        rc = cli.main(["walk1d", "--gamma", "0", "--steps", "1"])
        assert rc == 0
        data = json.loads(capsys.readouterr().out)
        assert data["command"] == "walk1d"

    def test_usage_error_exit_codes(self, tmp_path):
        assert cli.main(["walk1d", "--gamma", "banana", "--steps", "1",
                         "--out", str(tmp_path / "x.csv")]) == 1
        proc = subprocess.run(
            [sys.executable, "-m", "ladderwalk", "walk1d", "--bogus-flag", "1"],
            capture_output=True, text=True)
        assert proc.returncode == 1

    @pytest.mark.parametrize("command", [
        ["walk1d", "--gamma", "0"], ["ladder", "--alpha", "0", "--beta", "0"], ["table1"]],
        ids=["walk1d", "ladder", "table1"])
    def test_numeric_violation_exit_code(self, monkeypatch, tmp_path, command):
        # a step-sum budget below zero trips the one check of every walk
        # command at the first step
        monkeypatch.setattr(cli, "_SUM_TOL", -1.0)
        code, out, err = run_main([*command, "--steps", "1", "--out", str(tmp_path / "x.csv")])
        assert code == 3
        assert err.startswith("ladderwalk: numeric invariant violated: "
                              "probabilities at step 0 sum to")
        assert err.count("\n") == 1
        assert "Traceback" not in err and out == ""
        assert list(tmp_path.iterdir()) == []

    def test_density_matrix_drift_exits_three(self, monkeypatch, tmp_path):
        """A coin density matrix whose trace drifts past 1e-12 is a numeric
        invariant violation, not a usage error."""
        real = cli.DensityMatrix2
        calls = []

        def drifting(rho11, rho22, rho12):
            calls.append(rho11)
            return real(rho11=rho11 + 1e-13 * len(calls), rho22=rho22, rho12=rho12)

        # the per-step coin matrices of the walk, one per step
        monkeypatch.setattr(cli, "DensityMatrix2", drifting)
        code, out, err = run_main(["walk1d", "--gamma", "1/3pi", "--steps", "40",
                                   "--out", str(tmp_path / "walk.csv")])
        assert code == 3
        assert 1 < len(calls) < 41  # tripped by the drift, within the run
        assert err.startswith("ladderwalk: numeric invariant violated: trace must be 1")
        assert err.count("\n") == 1
        assert "Traceback" not in err and out == ""
        assert list(tmp_path.iterdir()) == []

    def test_unwritable_out_is_usage_error(self, tmp_path, capsys):
        blocker = tmp_path / "file"
        blocker.write_text("")
        for out in (tmp_path, blocker / "x.csv"):
            assert cli.main(["walk1d", "--gamma", "0", "--steps", "1",
                             "--out", str(out)]) == 1
            assert f"cannot write {out}" in capsys.readouterr().err

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_full_device_is_one_error_line(self, fmt):
        # open succeeds; a write or the close fails
        if not os.path.exists("/dev/full"):
            pytest.skip("no /dev/full")
        proc = subprocess.run([sys.executable, "-m", "ladderwalk", "walk1d", "--gamma", "1/2pi",
                               "--steps", "5", "--format", fmt, "--out", "/dev/full"],
                              capture_output=True, text=True)
        assert proc.returncode == 1 and proc.stdout == ""
        assert proc.stderr == \
            "ladderwalk: error: cannot write /dev/full: [Errno 28] No space left on device\n"

    def test_broken_pipe_is_one_error_line(self):
        # about 2 MB of JSON, far more than a pipe holds, so a write after the
        # reader has gone fails
        proc = subprocess.Popen([sys.executable, "-m", "ladderwalk", "walk1d", "--gamma", "1/3pi",
                                 "--steps", "300"],
                                stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
        assert proc.stdout.read(10) == '{\n  "comma'
        proc.stdout.close()
        err = proc.stderr.read()
        assert proc.wait(timeout=60) == 1
        assert err == "ladderwalk: error: cannot write standard output: [Errno 32] Broken pipe\n"

    @pytest.mark.parametrize("argv", [["walk1d", "--gamma", "1/2pi", "--steps", "3"],
                                      ["table1", "--steps", "2"]])
    def test_closed_stdout_is_one_error_line(self, argv):
        # started with descriptor 1 closed, so sys.stdout is None
        proc = subprocess.run([sys.executable, "-m", "ladderwalk", *argv],
                              stderr=subprocess.PIPE, text=True,
                              preexec_fn=lambda: os.close(1))
        assert proc.returncode == 1
        assert proc.stderr == \
            "ladderwalk: error: cannot write standard output: [Errno 9] Bad file descriptor\n"

    @pytest.mark.parametrize("command,dataset", [
        ("walk1d", lambda: cli.run_walk1d(cli.parse_angle("1/3pi"), 3)),
        ("ladder", lambda: cli.run_ladder(cli.parse_angle("-0.7"), cli.parse_angle("1.1"), 3)),
        ("sweep", lambda: cli.run_sweep(cli.parse_grid("-pi:pi:3"), cli.parse_grid("0.3"))),
        ("table1", lambda: cli.run_table1(2)),
    ])
    def test_dataset_contract(self, command, dataset):
        # what the writers, main and the benchmark's tracer read
        dataset = dataset()
        assert list(dataset) == ["command", "params", "tables"]
        assert dataset["command"] == dataset["params"]["command"] == command
        assert next(iter(dataset["params"])) == "command"
        for table in dataset["tables"].values():
            assert list(table) == ["columns", "rows"]
            assert table["columns"] == list(table["rows"].dtype.names)

    @pytest.mark.parametrize("command,integers", [
        ("walk1d", {"distribution": ["step", "site"], "steps": ["step"]}),
        ("ladder", {"joint": ["step", "side", "rung"], "steps": ["step"]}),
        ("sweep", {"sweep": []}),
        ("table1", {"checks": []}),
    ])
    def test_integer_fields_are_int32(self, command, integers):
        """Every integer field of a table is int32: a per-site row is 16 B
        on a line and 20 B on the ladder.  The analytic tables have none."""
        dataset = {
            "walk1d": lambda: cli.run_walk1d(cli.parse_angle("1/3pi"), 3),
            "ladder": lambda: cli.run_ladder(cli.parse_angle("-0.7"), cli.parse_angle("1.1"), 3),
            "sweep": lambda: cli.run_sweep(cli.parse_grid("-pi:pi:3"), cli.parse_grid("0.3")),
            "table1": lambda: cli.run_table1(2),
        }[command]()
        tables = dataset["tables"]
        assert list(tables) == list(integers)
        for name, table in tables.items():
            dtype = table["rows"].dtype
            assert [f for f in dtype.names if dtype[f].kind in "iu"] == integers[name]
            assert all(dtype[f] == np.int32 for f in integers[name])
        per_site = next(iter(tables.values()))["rows"]
        if command in ("walk1d", "ladder"):
            assert per_site.itemsize == {"walk1d": 16, "ladder": 20}[command]

    def test_unallocatable_lattice_is_usage_error(self, tmp_path):
        # the lattice of steps + 2: the first runs out of memory, the second
        # is past numpy's largest array dimension and is refused before
        # allocating
        out = tmp_path / "x.csv"
        for argv in (["ladder", "--alpha", "0.3", "--beta", "0.9",
                      "--steps", "1000000000000000"],
                     ["walk1d", "--gamma", "1",
                      "--steps", "1000000000000000000000000000000"]):
            proc = subprocess.run([sys.executable, "-m", "ladderwalk", *argv, "--out", str(out)],
                                  capture_output=True, text=True)
            assert proc.returncode == 1
            assert "ladderwalk: error:" in proc.stderr
            assert "Traceback" not in proc.stderr
            assert not out.exists()
        # A lattice of about 192 MB of lazily zeroed pages, whose per-site
        # table bound, (n + 1) (n + 2) / 2 rows of 16 B, is about 65 TiB:
        # the table is allocated before the walk, so the command exits at
        # once instead of stepping for hours first.  Where malloc never
        # refuses (Linux with vm.overcommit_memory = 1) the walk would run.
        try:
            overcommit = Path("/proc/sys/vm/overcommit_memory").read_text().strip()
        except OSError:
            overcommit = None
        if overcommit in (None, "1"):
            pytest.skip("malloc may not refuse the table here")
        proc = subprocess.run([sys.executable, "-m", "ladderwalk", "walk1d", "--gamma", "1",
                               "--steps", "3000000", "--out", str(out)],
                              capture_output=True, text=True, timeout=60)
        assert proc.returncode == 1
        assert proc.stderr.startswith("ladderwalk: error: out of memory:")
        assert proc.stderr.count("\n") == 1
        assert not out.exists()


def run_main(argv):
    """``main``'s exit code, stdout and stderr; argparse's exit counts."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


WALK1D_CONFIG = {"gamma": "1/2pi", "steps": 2}


class TestRejection:
    """A flag or config key a command does not take, and a value the
    library refuses, exit 1 with one error line."""

    @pytest.mark.parametrize("argv,config", [
        pytest.param(["sweep", "--alpha-grid", "0", "--beta-grid", "0:1:3", "--gamma-y", "0"],
                     None, id="sweep-gamma-y"),
        pytest.param(["sweep", "--alpha-grid", "0", "--beta-grid", "0", "--steps", "5"],
                     None, id="sweep-steps"),
        pytest.param(["table1", "--alpha", "1"], None, id="table1-alpha"),
        pytest.param(["table1", "--half-width", "100"], None, id="table1-half-width"),
        pytest.param(["table1", "--steps", "8", "--half-width", "100"],
                     None, id="table1-steps-half-width"),
        pytest.param(["walk1d", "--gamma", "1", "--steps", "2", "--alpha", "5"],
                     None, id="walk1d-alpha"),
        pytest.param(["walk1d"], {**WALK1D_CONFIG, "stepz": 3}, id="config-stepz"),
        pytest.param(["walk1d"], {**WALK1D_CONFIG, "command": "walk1d"}, id="config-command"),
        pytest.param(["walk1d"], {**WALK1D_CONFIG, "config": "c.json"}, id="config-config"),
        pytest.param(["walk1d"], {**WALK1D_CONFIG, "gamma": True}, id="config-gamma-bool"),
        pytest.param(["walk1d"], {**WALK1D_CONFIG, "initial_theta": True},
                     id="config-initial-theta-bool"),
        pytest.param(["walk1d"], {**WALK1D_CONFIG, "out": 5}, id="config-out-int"),
        pytest.param(["walk1d"], {**WALK1D_CONFIG, "out": ["a"]}, id="config-out-list"),
        # sweep's grids are --alpha-grid and --beta-grid, each also one angle;
        # --alpha and --beta are not a second route to them
        pytest.param(["sweep", "--alpha", "0", "--beta-grid", "0:1:2"], None, id="sweep-alpha"),
        pytest.param(["sweep", "--alpha-grid", "0:1:2", "--beta", "0"], None, id="sweep-beta"),
        pytest.param(["sweep", "--alpha=0", "--beta-grid", "0:1:2"], None, id="sweep-alpha-equals"),
        pytest.param(["sweep", "--alpha", "0", "--alpha-grid", "0:1:2", "--beta-grid", "0"],
                     None, id="sweep-alpha-and-grid"),
        pytest.param(["sweep", "--beta-grid", "0:1:2"], {"alpha": 0}, id="config-sweep-alpha"),
        pytest.param(["sweep", "--alpha-grid", "0:1:2"], {"beta": "0"}, id="config-sweep-beta"),
        pytest.param(["walk1d", "--gamma", "1", "--step", "2"], None, id="abbreviated-flag"),
        pytest.param(["walk1d", "--steps", "2", "--gamma"], None, id="missing-value"),
        pytest.param([], None, id="no-command"),
        pytest.param(["ladder", "--alpha", "1e308", "--beta", "1e308", "--steps", "2"],
                     None, id="ladder-angle-sum-overflow"),
        pytest.param(["sweep", "--alpha-grid", "1e308", "--beta-grid", "1e308"],
                     None, id="sweep-angle-sum-overflow"),
        pytest.param(["sweep", "--alpha-grid=-1e308:1e308:3", "--beta-grid", "0"],
                     None, id="grid-span-overflow"),
    ])
    def test_exit_one_with_error_line(self, tmp_path, argv, config):
        if config is not None:
            path = tmp_path / "cfg.json"
            path.write_text(json.dumps({"out": str(tmp_path / "x.json"), **config}))
            argv = [*argv, "--config", str(path)]
        elif argv:  # with no command, --out would be taken for one
            argv = [*argv, "--out", str(tmp_path / "x.json")]
        code, _out, err = run_main(argv)
        assert code == 1
        # one line; a subcommand's own argparse errors name it: "ladderwalk walk1d: error:"
        assert re.fullmatch(r"ladderwalk( \w+)?: error: [^\n]+\n", err)
        assert list(tmp_path.glob("x*")) == []

    @pytest.mark.parametrize("argv", [["--out", "x.json"], ["--steps", "2", "ladder"]])
    def test_command_comes_first(self, tmp_path, monkeypatch, argv):
        """An option before the command is refused as such; the top-level
        parser would take its value for the command's name."""
        monkeypatch.chdir(tmp_path)
        code, out, err = run_main(argv)
        assert code == 1 and out == ""
        assert err == "ladderwalk: error: the command must come before its options\n"
        assert list(tmp_path.iterdir()) == []

    def test_sweep_refuses_an_overflowing_one_point_grid(self):
        code, _out, err = run_main(["sweep", "--alpha-grid", "1e308", "--beta-grid", "1e308"])
        assert code == 1
        assert err == "ladderwalk: error: gamma1 must be finite, got inf\n"

    def test_ladder_refuses_overflowing_angles_before_the_walk(self, monkeypatch):
        def no_walk(*args, **kwargs):
            raise AssertionError("the walk was started")
        monkeypatch.setattr(cli, "_state_blocks", no_walk)
        code, _out, err = run_main(["ladder", "--alpha", "1e308", "--beta", "1e308",
                                    "--steps", "600"])
        assert code == 1
        assert err == "ladderwalk: error: gamma1 must be finite, got inf\n"

    @pytest.mark.parametrize("angles", [
        ["--alpha", "1e308", "--beta", "-5e307"],                   # gamma1 + gamma2
        ["--alpha", "0", "--beta", "0", "--gamma-y", "1e308"],      # the same, by gamma_y
    ])
    def test_ladder_refuses_pattern_overflow_before_the_walk(self, monkeypatch, angles):
        def no_walk(*args, **kwargs):
            raise AssertionError("the walk was started")
        monkeypatch.setattr(cli, "_state_blocks", no_walk)
        code, _out, err = run_main(["ladder", *angles, "--steps", "600"])
        assert code == 1
        assert err == "ladderwalk: error: a walk pattern needs finite angles\n"

    @pytest.mark.parametrize("command", ["walk1d", "ladder", "sweep", "table1"])
    def test_options_are_the_run_parameters(self, command):
        # the flags and config keys besides --config: no second route to a parameter
        run = getattr(cli, f"run_{command}")
        assert cli._option_names(command) == [
            *inspect.signature(run).parameters, "out", "format"]

    def test_flag_and_config_share_the_parser(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({**WALK1D_CONFIG, "steps": "abc"}))
        from_config = run_main(["walk1d", "--config", str(path)])
        from_flag = run_main(["walk1d", "--gamma", "1/2pi", "--steps", "abc"])
        assert from_config[0] == from_flag[0] == 1
        assert from_config[2] == from_flag[2] == \
            "ladderwalk: error: steps: must be an integer, got 'abc'\n"


# Negative angle texts that parse_angle takes: exponents in either case and
# with either sign, underscores between digits, and pi forms.
DIGIT_RUNS = st.lists(st.integers(0, 999).map(str), min_size=1, max_size=2).map("_".join)
MANTISSAS = st.one_of(
    DIGIT_RUNS, st.builds("{}.{}".format, DIGIT_RUNS, st.integers(0, 99)),
    st.integers(0, 99).map(".{}".format))
EXPONENTS = st.builds("{}{}{}".format, st.sampled_from("eE"), st.sampled_from(["", "+", "-"]),
                      st.integers(0, 12))
NEGATIVE_ANGLES = st.one_of(
    st.builds(lambda m, e: f"-{m}{e}", MANTISSAS, st.one_of(st.just(""), EXPONENTS)),
    st.just("-pi"),
    st.builds("-{}/{}pi".format, st.integers(0, 9), st.integers(1, 9)),
    st.builds("-{}pi/{}".format, st.integers(0, 9), st.integers(1, 9)),
    st.builds("-{}.{}pi".format, st.integers(0, 9), st.integers(0, 99)))
NEGATIVE_GRIDS = st.builds("{}:{}:{}".format, NEGATIVE_ANGLES,
                           st.one_of(NEGATIVE_ANGLES, st.just("1")), st.integers(1, 4))
# (argv before the value, its flag, argv after it)
VALUE_SLOTS = [
    (["walk1d"], "--gamma", ["--steps", "2"]),
    (["walk1d", "--gamma", "0.3", "--steps", "2"], "--initial-theta", []),
    (["ladder", "--beta", "1.1", "--steps", "2"], "--alpha", []),
    (["ladder", "--alpha", "-0.7", "--steps", "2"], "--beta", []),
    (["ladder", "--alpha", "-0.7", "--beta", "1.1", "--steps", "2"], "--gamma-y", []),
]
GRID_SLOTS = [
    (["sweep", "--beta-grid", "0.3"], "--alpha-grid", []),
    (["sweep", "--alpha-grid", "0.3"], "--beta-grid", []),
]


# A one-line valid invocation of each command, without --out or --format.
FORMAT_BASES = {
    "walk1d": ["--gamma", "1", "--steps", "2"],
    "ladder": ["--alpha", "0.1", "--beta", "0.2", "--steps", "2"],
    "sweep": ["--alpha-grid", "0.3", "--beta-grid", "-1:1:3"],
    "table1": ["--steps", "2"],
}


class TestFormatNeedsOut:
    """``--format`` names the format of ``--out``.  Standard output takes
    the data commands' JSON and table1's check lines only, so any other
    format without ``--out`` is refused, not ignored."""

    def spellings(self, tmp_path, command, fmt):
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({"format": fmt}))
        base = [command, *FORMAT_BASES[command]]
        return [[*base, "--format", fmt], [*base, f"--format={fmt}"],
                [*base, "--config", str(config)]]

    @pytest.mark.parametrize("command,fmt", [
        *((command, "csv") for command in FORMAT_BASES), ("table1", "json")])
    def test_refused_in_every_spelling(self, tmp_path, command, fmt):
        for argv in self.spellings(tmp_path, command, fmt):
            assert run_main(argv) == (1, "", f"ladderwalk: error: --format {fmt} needs --out\n")
        assert list(tmp_path.iterdir()) == [tmp_path / "cfg.json"]

    @pytest.mark.parametrize("command", ["walk1d", "ladder", "sweep"])
    def test_json_still_writes_json_to_stdout(self, tmp_path, command):
        plain = run_main([command, *FORMAT_BASES[command]])
        assert plain[0] == 0 and json.loads(plain[1])["command"] == command
        for argv in self.spellings(tmp_path, command, "json"):
            assert run_main(argv) == plain


class TestOneAngleGrammar:
    """A value that starts with a dash is a value after its flag, with ``=``
    or after a space; parse_angle and parse_grid alone decide it."""

    @given(st.one_of(
        st.tuples(st.sampled_from(VALUE_SLOTS), NEGATIVE_ANGLES),
        st.tuples(st.sampled_from(GRID_SLOTS), st.one_of(NEGATIVE_ANGLES, NEGATIVE_GRIDS))))
    @example(((["walk1d"], "--gamma", ["--steps", "2"]), "-1e+5"))
    @example(((["walk1d"], "--gamma", ["--steps", "2"]), "-1E5"))
    @example(((["walk1d"], "--gamma", ["--steps", "2"]), "-.5e-3"))
    @example(((["walk1d"], "--gamma", ["--steps", "2"]), "-1_000"))
    @example(((["walk1d"], "--gamma", ["--steps", "2"]), "-1/4pi"))
    @example(((["walk1d"], "--gamma", ["--steps", "2"]), "-3pi/4"))
    @example(((["walk1d"], "--gamma", ["--steps", "2"]), "-0.5pi"))
    @example(((["sweep", "--beta-grid", "0.3"], "--alpha-grid", []), "-1E-3:1:3"))
    @example(((["sweep", "--beta-grid", "0.3"], "--alpha-grid", []), "-pi:pi:5"))
    @settings(max_examples=100, deadline=None)
    def test_a_spaced_value_gives_the_dataset_of_an_equals_value(self, slot_value):
        (before, flag, after), value = slot_value
        (cli.parse_grid if flag.endswith("-grid") else cli.parse_angle)(value)
        spaced = run_main([*before, flag, value, *after])
        assert spaced == run_main([*before, f"{flag}={value}", *after])
        code, out, err = spaced
        assert (code, err) == (0, "")
        assert json.loads(out)["command"] == before[0]

    @pytest.mark.parametrize("value,message", [
        ("-inf", "angle must be finite, got '-inf'"),
        ("-nan", "angle must be finite, got '-nan'"),
        ("-x", "cannot parse angle '-x'"),
        ("-1/0pi", "cannot parse angle '-1/0pi'"),
    ])
    def test_refusals_are_one_line_in_both_spellings(self, value, message):
        for argv in (["walk1d", "--gamma", value, "--steps", "2"],
                     ["walk1d", f"--gamma={value}", "--steps", "2"]):
            assert run_main(argv) == (1, "", f"ladderwalk: error: gamma: {message}\n")

    def test_no_option_looks_like_a_value(self):
        # argparse stops taking dashed tokens as values in a parser where an
        # option string matches its negative-number matcher
        top = cli._build_parser()
        commands = top._subparsers._group_actions[0].choices
        assert sorted(commands) == sorted(cli._COMMANDS)
        for parser in (top, *commands.values()):
            assert parser._has_negative_number_optionals == []
            assert not [option for option in parser._option_string_actions
                        if parser._negative_number_matcher.match(option)]

    def test_dash_h_stays_the_help_option(self):
        code, out, err = run_main(["walk1d", "-h", "--gamma", "1"])
        assert code == 0 and out.startswith("usage: ladderwalk walk1d") and err == ""
        # never taken for --gamma's value
        assert run_main(["walk1d", "--gamma", "-h", "--steps", "2"]) == (
            1, "", "ladderwalk walk1d: error: argument --gamma: expected one argument\n")


# A valid invocation of each command, which drawn options then spoil.
BASES = {
    "walk1d": ["--gamma", "1/3pi", "--steps", "3"],
    "ladder": ["--alpha", "-0.7", "--beta", "1.1", "--steps", "3"],
    "sweep": ["--alpha-grid", "-pi:pi:3", "--beta-grid", "0.3"],
    "table1": ["--steps", "2"],
}
OPTIONS = ["alpha", "beta", "gamma", "gamma_y", "steps",
           "initial_theta", "initial_phi", "alpha_grid", "beta_grid",
           "format", "out", "config", "command", "stepz"]
# Counts are small or malformed only: a huge valid count allocates lazily
# and then steps for hours.  Drawn text holds no digits for the same reason.
NO_DIGITS = st.text(st.characters(blacklist_categories=("Nd",)), max_size=6)
COUNTS = st.one_of(st.integers(-3, 8), st.booleans(), NO_DIGITS,
                   st.sampled_from(["3.5", "1e3", "-1", "0x4", "2.0"]),
                   st.floats().filter(lambda x: not x.is_integer()))
ANGLE_TEXT = st.sampled_from(["pi", "-1/4pi", "3pi/4", "0", "0.3", "-2.5", "1e308",
                              "-1e308", "nan", "inf", "pie", "", "1/0pi", "pi/0"])
ANGLE_VALUES = st.one_of(ANGLE_TEXT, st.floats(), st.booleans(), NO_DIGITS,
                         st.integers(-10**400, 10**400))
GRIDS = st.one_of(
    st.builds(lambda a, b, n: f"{a}:{b}:{n}", ANGLE_TEXT, ANGLE_TEXT, st.integers(-1, 8)),
    ANGLE_TEXT, NO_DIGITS, st.integers(-3, 3))
FORMATS = st.one_of(st.sampled_from(["csv", "json", "xml", ""]), st.booleans(), st.integers())


def option_values(name):
    if name == "steps":
        return COUNTS
    if name in ("alpha_grid", "beta_grid"):
        return GRIDS
    if name == "format":
        return FORMATS
    if name in ("out", "config", "command"):
        return st.one_of(st.sampled_from(["OUT", "walk1d"]), st.integers(), st.none())
    return ANGLE_VALUES


@st.composite
def invocations(draw):
    """An argv and a config object drawn from valid, foreign and malformed
    options; the placeholder ``OUT`` stands for a writable path."""
    command = draw(st.sampled_from(sorted(BASES)))
    argv = [command, *draw(st.sampled_from([BASES[command], []]))]
    for name in draw(st.lists(st.sampled_from(OPTIONS), max_size=3)):
        value = draw(option_values(name))
        flag = "--" + name.replace("_", "-")
        text = value if isinstance(value, str) else json.dumps(value)
        argv += draw(st.sampled_from([[flag, text], [f"{flag}={text}"]]))
    keys = draw(st.lists(st.sampled_from(OPTIONS), max_size=3, unique=True))
    config = draw(st.one_of(
        st.fixed_dictionaries({key: option_values(key) for key in keys}),
        st.none(), st.lists(st.integers(), max_size=2)))
    return argv, config


@given(invocations())
@settings(max_examples=150, deadline=None)
def test_fuzzed_invocations_keep_the_exit_code_contract(tmp_path_factory, invocation):
    argv, config = invocation
    workdir = tmp_path_factory.mktemp("fuzz")
    out = str(workdir / "out.csv")
    argv = [out if token == "OUT" else token.replace("=OUT", "=" + out)
            for token in argv]
    if config is not None:
        path = workdir / "cfg.json"
        path.write_text(json.dumps(
            {k: out if v == "OUT" else v for k, v in config.items()}
            if isinstance(config, dict) else config))
        argv += ["--config", str(path)]
    cwd = os.getcwd()
    os.chdir(workdir)  # a drawn --out is a relative path
    try:
        code, _out, err = run_main(argv)
    finally:
        os.chdir(cwd)
    assert code in (0, 1, 2, 3)
    assert "Traceback" not in err
