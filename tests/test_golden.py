"""Byte-for-byte comparison of CLI outputs with committed golden files.

Each case runs ``main`` with its argv inside an empty directory and
compares every file written there, and standard output, with
``tests/golden/<case>/`` (standard output is stored as ``stdout``).
``python tests/test_golden.py`` rewrites the goldens; do that only for a
change that is meant to change the data files.
"""

from __future__ import annotations

import contextlib
import io
import os
import shutil
from pathlib import Path

import pytest

from ladderwalk import cli, spectral

GOLDEN = Path(__file__).resolve().parent / "golden"

CASES = {
    "walk1d-csv": ["walk1d", "--gamma", "0.7", "--steps", "14", "--initial-theta", "0.4",
                   "--initial-phi", "1.3", "--format", "csv", "--out", "walk.csv"],
    "walk1d-json": ["walk1d", "--gamma", "1/3pi", "--steps", "12",
                    "--format", "json", "--out", "walk.json"],
    "walk1d-wide-csv": ["walk1d", "--gamma", "1/2pi", "--steps", "9",
                        "--format", "csv", "--out", "walk.csv"],
    "walk1d-wide-json": ["walk1d", "--gamma", "-2.1", "--steps", "9",
                         "--format", "json", "--out", "walk.json"],
    "ladder-csv": ["ladder", "--alpha", "-0.7", "--beta", "1.1", "--steps", "16",
                   "--format", "csv", "--out", "ladder.csv"],
    "ladder-json": ["ladder", "--alpha", "-1/4pi", "--beta", "3/4pi", "--steps", "16",
                    "--format", "json", "--out", "ladder.json"],
    "ladder-gamma-y-csv": ["ladder", "--alpha", "-0.7", "--beta", "1.1", "--gamma-y=0.4",
                           "--initial-theta", "0.9", "--steps", "12",
                           "--format", "csv", "--out", "ladder.csv"],
    "ladder-gamma-y-json": ["ladder", "--alpha", "-1/4pi", "--beta", "0.3", "--gamma-y=0.4",
                            "--initial-theta", "0.9", "--steps", "12",
                            "--format", "json", "--out", "ladder.json"],
    "ladder-gamma-y-exact-json": ["ladder", "--alpha", "-1/4pi", "--beta", "3/4pi",
                                  "--gamma-y", "1/7pi", "--steps", "6",
                                  "--format", "json", "--out", "ladder.json"],
    "ladder-zero-steps-csv": ["ladder", "--alpha", "0.3", "--beta", "0.2", "--steps", "0",
                              "--format", "csv", "--out", "ladder.csv"],
    "ladder-zero-steps-json": ["ladder", "--alpha", "0.3", "--beta", "0.2", "--steps", "0",
                               "--format", "json", "--out", "ladder.json"],
    # beta = pi keeps the walker on side 0: tv_sides is null after step 0
    "ladder-one-sided-csv": ["ladder", "--alpha", "-1/4pi", "--beta", "pi", "--steps", "8",
                             "--format", "csv", "--out", "ladder.csv"],
    "ladder-one-sided-json": ["ladder", "--alpha", "-1/4pi", "--beta", "pi", "--steps", "8",
                              "--format", "json", "--out", "ladder.json"],
    "sweep-csv": ["sweep", "--alpha-grid", "-pi:pi:5", "--beta-grid", "-1/2pi:1/2pi:3",
                  "--format", "csv", "--out", "sweep.csv"],
    "sweep-json": ["sweep", "--alpha-grid", "0.3", "--beta-grid", "-1:1:4",
                   "--format", "json", "--out", "sweep.json"],
    "sweep-wide-csv": ["sweep", "--alpha-grid=-pi:pi:33", "--beta-grid=-pi:pi:33",
                       "--format", "csv", "--out", "sweep.csv"],
    "sweep-wide-json": ["sweep", "--alpha-grid=-pi:pi:33", "--beta-grid=-pi:pi:33",
                        "--format", "json", "--out", "sweep.json"],
    "sweep-float-json": ["sweep", "--alpha-grid=-2.5:2.5:7", "--beta-grid=-1:4:9",
                         "--format", "json", "--out", "sweep.json"],
    "table1-csv": ["table1", "--steps", "16", "--format", "csv", "--out", "table1.csv"],
    "table1-json": ["table1", "--steps", "16", "--format", "json", "--out", "table1.json"],
    "walk1d-stdout": ["walk1d", "--gamma", "0.9", "--steps", "5"],
    "ladder-stdout": ["ladder", "--alpha", "-1/4pi", "--beta", "0.5", "--steps", "4"],
}


def run_case(argv: list[str], workdir: Path) -> dict[str, bytes]:
    """Run ``main(argv)`` in ``workdir``; the files it wrote and its
    standard output, by name."""
    stdout = io.StringIO()
    cwd = os.getcwd()
    os.chdir(workdir)
    try:
        with contextlib.redirect_stdout(stdout):
            code = cli.main(argv)
    finally:
        os.chdir(cwd)
    assert code == 0
    outputs = {p.name: p.read_bytes() for p in workdir.iterdir()}
    if stdout.getvalue():
        outputs["stdout"] = stdout.getvalue().encode("utf-8")
    return outputs


@pytest.mark.parametrize("case", CASES)
def test_outputs_match_golden_bytes(tmp_path, case):
    expected = {p.name: p.read_bytes() for p in (GOLDEN / case).iterdir()}
    got = run_case(CASES[case], tmp_path)
    assert sorted(got) == sorted(expected)
    for name in expected:
        assert got[name] == expected[name], f"{case}/{name} differs from its golden"


@pytest.mark.parametrize("case", ["walk1d-csv", "walk1d-json", "ladder-csv", "ladder-json",
                                  "ladder-one-sided-csv", "ladder-one-sided-json",
                                  "sweep-csv", "sweep-json", "sweep-wide-csv",
                                  "sweep-wide-json", "sweep-float-json", "table1-csv",
                                  "table1-json", "walk1d-stdout"])
def test_chunk_boundaries_leave_bytes_unchanged(tmp_path, monkeypatch, case):
    """Most goldens hold fewer rows than one formatting pass; small passes
    put chunk boundaries inside each structured table (``sweep-json`` has
    four rows) and change which float columns the first pass finds
    repetitive (``sweep-wide-csv`` and ``sweep-wide-json`` have 1,089
    rows)."""
    monkeypatch.setattr(cli, "_CHUNK_ROWS", 3)
    expected = {p.name: p.read_bytes() for p in (GOLDEN / case).iterdir()}
    assert run_case(CASES[case], tmp_path) == expected


@pytest.mark.parametrize("block", [1, 70])
@pytest.mark.parametrize("case", [case for case in CASES
                                  if case.startswith(("sweep-", "ladder-", "table1-"))])
def test_sweep_blocks_leave_bytes_unchanged(tmp_path, monkeypatch, case, block):
    """``sweep_summary`` fills its rows a block of alpha rows at a time; one
    point per block fills every row on its own, and 70 points split the
    33-row grids of ``sweep-wide-csv`` and ``sweep-wide-json`` unevenly
    (two rows per block, the last row alone).  The ``ladder-*`` and
    ``table1-*`` goldens make one-point calls."""
    monkeypatch.setattr(spectral, "_SWEEP_BLOCK", block)
    expected = {p.name: p.read_bytes() for p in (GOLDEN / case).iterdir()}
    assert run_case(CASES[case], tmp_path) == expected


def regenerate() -> None:
    shutil.rmtree(GOLDEN, ignore_errors=True)
    for case, argv in CASES.items():
        workdir = GOLDEN / case
        workdir.mkdir(parents=True)
        stdout = run_case(argv, workdir).get("stdout")
        if stdout is not None:
            (workdir / "stdout").write_bytes(stdout)


if __name__ == "__main__":
    regenerate()
