import csv
import json
import math
import subprocess
import sys
from fractions import Fraction

import numpy as np
import pytest

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

    @pytest.mark.parametrize("bad", ["pie", "x", "1/0pi", "--", "nan", "pi/0"])
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

    @pytest.mark.parametrize("bad", ["0:1", "0:1:0", "0:1:x", "a:b:3"])
    def test_rejects_bad_grids(self, bad):
        with pytest.raises(cli.UsageError):
            cli.parse_grid(bad)


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


class TestExperimentConfig:
    def test_negative_steps_rejected(self):
        with pytest.raises(cli.UsageError):
            cli.ExperimentConfig(command="walk1d", steps=-1)

    def test_half_width_must_exceed_steps_plus_one(self):
        with pytest.raises(cli.UsageError):
            cli.ExperimentConfig(command="walk1d", steps=5, half_width=6)
        cfg = cli.ExperimentConfig(command="walk1d", steps=5, half_width=7)
        assert cfg.half_width == 7

    def test_unknown_format_rejected(self):
        with pytest.raises(cli.UsageError):
            cli.ExperimentConfig(command="walk1d", format="xml")

    @pytest.mark.parametrize("key,value", [
        ("steps", "abc"), ("steps", 3.7), ("steps", True),
        ("half_width", 12.5), ("half_width", False), ("half_width", "1e3"),
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

    def test_sector_weights_constant(self, tmp_path):
        out = tmp_path / "ladder.json"
        cli.main(["ladder", "--alpha", "0.3", "--beta", "1.1", "--steps", "10",
                  "--out", str(out), "--format", "json"])
        data = json.loads(out.read_text())
        for row in data["tables"]["steps"]["rows"]:
            assert row[3] == pytest.approx(0.5, abs=1e-10)
            assert row[4] == pytest.approx(0.5, abs=1e-10)


class TestSweep:
    def run_sweep(self, tmp_path, fmt="json"):
        out = tmp_path / ("sweep.json" if fmt == "json" else "sweep.csv")
        rc = cli.main(["sweep", "--alpha", "-1/4pi", "--beta-grid", "-pi:pi:9",
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

    def test_csv_tables(self, tmp_path):
        out = self.run_sweep(tmp_path, fmt="csv")
        rows = read_csv(out)
        assert rows[0][0] == "alpha" and len(rows) == 10
        params = read_csv(out.parent / "sweep.params.csv")
        assert params[0][0] == "command" and params[1][0] == "sweep"


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

    def test_dataset_written(self, tmp_path):
        out = tmp_path / "table1.json"
        rc = cli.main(["table1", "--steps", "16", "--out", str(out),
                       "--format", "json"])
        assert rc == 0
        data = json.loads(out.read_text())
        assert data["params"]["all_passed"] is True
        assert len(data["tables"]["checks"]["rows"]) == 12


class TestOutputPlumbing:
    def test_json_round_trip_exact(self, tmp_path):
        out = tmp_path / "walk.json"
        dataset = cli.run_walk1d(cli.parse_angle("1/2pi"), steps=9)
        cli.write_dataset(dataset, str(out), "json")
        assert json.loads(out.read_text()) == dataset

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

    def test_numeric_violation_exit_code(self, monkeypatch, tmp_path):
        def boom(**kwargs):
            raise lw.LatticeOverflowError("simulated")
        monkeypatch.setattr(cli, "run_walk1d", boom)
        assert cli.main(["walk1d", "--gamma", "0", "--steps", "1",
                         "--out", str(tmp_path / "x.csv")]) == 3

    def test_unwritable_out_is_usage_error(self, tmp_path, capsys):
        blocker = tmp_path / "file"
        blocker.write_text("")
        for out in (tmp_path, blocker / "x.csv"):
            assert cli.main(["walk1d", "--gamma", "0", "--steps", "1",
                             "--out", str(out)]) == 1
            assert f"cannot write {out}" in capsys.readouterr().err

    def test_unallocatable_half_width_is_usage_error(self):
        proc = subprocess.run(
            [sys.executable, "-m", "ladderwalk", "ladder", "--alpha", "0.3",
             "--beta", "0.9", "--steps", "2", "--half-width", "1000000000000000"],
            capture_output=True, text=True)
        assert proc.returncode == 1
        assert "ladderwalk: error:" in proc.stderr
        assert "Traceback" not in proc.stderr

    def test_bad_half_width_rejected(self, tmp_path):
        assert cli.main(["walk1d", "--gamma", "0", "--steps", "5",
                         "--half-width", "6",
                         "--out", str(tmp_path / "x.csv")]) == 1
