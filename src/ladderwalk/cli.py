"""Batch experiment front end.

Subcommands
-----------
``walk1d``
    One-dimensional conventional walk: per-step position distributions,
    second moments and coin entropies.
``ladder``
    Mixed-protocol ladder walk: per-step joint (side, rung) distributions,
    side masses, sector weights and the distance between the two side
    profiles, plus the analytic sector summary.
``sweep``
    Analytic summary (sector angles, magnetizations, eigenvalue gaps,
    entropies, mutual information, pattern label) over an (alpha, beta)
    grid, one row per point in alpha-major order.
``table1``
    Pass/fail verification of the four qualitative walk regimes at
    alpha = -pi/4; exit code 2 when a check fails.

Angles are accepted either as raw radians (``0.785``) or as rational
multiples of pi (``pi``, ``-1/4pi``, ``3pi/4``, ``0.5pi``).  Rational
multiples are tracked exactly so that analytic identities (``M2 = 0`` at
beta = pi/4, for instance) hold bit-exactly in the outputs.  Datasets are
written as a single JSON document or as CSV files, one per table, CSV
floats at 17 significant digits.  Every table's rows are a numpy
structured array, one field per column, and every integer field is int32.
A table is written in chunks of rows, each one ``%`` over a template
joined from texts rendered once per value of a repeated cell, so that
``%`` formats only the other cells.

Each command's options are the parameters of its ``run_*`` function
(``--initial-theta`` for ``initial_theta``; a parameter without a default
is required), plus ``--out``, ``--format`` and ``--config``.  A JSON config
file holds the same keys, and a flag overrides the key of the same name.  A
flag or config key the command does not take is a usage error, as is an
option before the command.  Without ``--out``, ``walk1d``, ``ladder`` and
``sweep`` write their JSON to standard output and ``table1`` only its
check lines, so a ``--format`` that standard output does not take (any
for ``table1``, ``csv`` for the others) is a usage error there.  Each
value goes through one parser per key; range checks live once, in the
``run_*`` functions, which are also the library entry points and take
each angle as an ``Angle`` or a float in radians.

Exit codes: 0 success, 1 usage error (also a value the library refuses,
and a file or standard output that cannot be written), 2 failed table1
check, 3 numeric invariant violation.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import errno
import inspect
import json
import math
import os
import re
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np

from .core import (
    CoinSpinor,
    Conventional,
    Ladder,
    _probabilities,
    _require_integer,
    _state_blocks,
    localized_ladder,
    localized_walker,
)
from .sectors import (
    _DEFAULT_GAMMA_Y,
    Angle,
    WalkPattern,
    _as_angle,
    _sector_blocks,
    effective_angles,
)
from .spectral import (
    DensityMatrix2,
    DensityMatrixError,
    _coin_rho_sums,
    _distinct,
    _sector_magnetization,
    asymptotic_rho,
    entropy,
    mutual_information,
    sweep_summary,
)

__all__ = [
    "UsageError",
    "NumericInvariantError",
    "parse_angle",
    "parse_grid",
    "run_walk1d",
    "run_ladder",
    "run_sweep",
    "run_table1",
    "write_dataset",
    "main",
    "entrypoint",
]

# Per-step probability budget for emitted files.
_SUM_TOL = 1e-9
# Side masses below this make a normalized side profile meaningless.
_SIDE_MASS_FLOOR = 1e-12
# The residual side-profile mismatch of the identical-walk rows decays as
# 1/sqrt(n) (interference between the dominated, localized sector and the
# spreading one); measured coefficient <= 0.71 over n = 1..128.
_IDENTICAL_TV_COEFF = 0.9
# Rows of a structured table formatted per pass: enough that the per-pass
# cost vanishes, few enough that a pass's text and its template stay small
# next to the rows.  A pass's text is about 35 kB of CSV for a per-site
# table, 250 kB for the sweep's rows of about 250 B, and 380 kB as JSON.
_CHUNK_ROWS = 1024


class UsageError(Exception):
    """Bad command line or config file."""


class NumericInvariantError(Exception):
    """A numeric invariant of an emitted dataset was violated."""


_PI_RE = re.compile(r"^([+-]?[0-9./]*)pi(/([0-9]+))?$")


def parse_angle(value) -> Angle:
    """Parse raw radians or a rational multiple of pi; a bool is refused."""
    if isinstance(value, bool):
        raise UsageError(f"cannot parse angle {value!r}")
    frac = None
    try:
        if isinstance(value, (int, float)):
            radians = float(value)
        else:
            text = str(value).strip().lower().replace(" ", "")
            m = _PI_RE.match(text)
            if m is None:
                radians = float(text)
            else:
                prefix = m.group(1)
                frac = Fraction(prefix + "1" if prefix in ("", "+", "-") else prefix)
                if m.group(3) is not None:
                    frac /= int(m.group(3))
                radians = float(frac) * math.pi
    except (ValueError, OverflowError, ZeroDivisionError) as exc:
        raise UsageError(f"cannot parse angle {value!r}") from exc
    if not math.isfinite(radians):
        raise UsageError(f"angle must be finite, got {value!r}")
    return Angle(radians=radians, pi_fraction=frac)


def parse_grid(text: str) -> list[Angle]:
    """Expand a ``start:stop:count`` grid of angles, or one angle (a text
    without ``:``) into its one-point grid, ``[parse_angle(text)]``.

    Endpoints that are both pi-rationals produce a pi-rational grid, kept
    exact in Fraction arithmetic.
    """
    parts = str(text).split(":")
    if len(parts) == 1:
        return [parse_angle(text)]
    if len(parts) != 3:
        raise UsageError(f"grid must be start:stop:count or one angle, got {text!r}")
    start, stop = parse_angle(parts[0]), parse_angle(parts[1])
    try:
        count = int(parts[2])
    except ValueError as exc:
        raise UsageError(f"grid count must be an integer, got {parts[2]!r}") from exc
    if count < 1:
        raise UsageError("grid count must be >= 1")
    if count == 1:
        return [start]
    if start.pi_fraction is not None and stop.pi_fraction is not None:
        span = stop.pi_fraction - start.pi_fraction
        fracs = [start.pi_fraction + Fraction(j, count - 1) * span
                 for j in range(count)]
        return [Angle(radians=float(f) * math.pi, pi_fraction=f) for f in fracs]
    # stop - start can overflow although both ends are finite
    with np.errstate(over="ignore", invalid="ignore"):
        values = np.linspace(start.radians, stop.radians, count)
    if not np.isfinite(values).all():
        raise UsageError(f"grid {text!r} has points that are not finite")
    return [Angle(radians=float(v)) for v in values]


def _count(value) -> int:
    """An integer.  A bool, a fractional number or a string ``int()``
    rejects is a usage error, never truncated or coerced."""
    if isinstance(value, float) and value.is_integer():
        return int(value)
    if isinstance(value, (int, str)) and not isinstance(value, bool):
        try:
            return int(value)
        except ValueError:
            pass
    raise UsageError(f"must be an integer, got {value!r}")


def _radians(value) -> float:
    return parse_angle(value).radians


def _text(value) -> str:
    if not isinstance(value, str):
        raise UsageError(f"must be a string, got {value!r}")
    return value


_FORMATS = ("csv", "json")


def _format(value) -> str:
    if value not in _FORMATS:
        raise UsageError(f"must be one of {', '.join(_FORMATS)}, got {value!r}")
    return value


def _step_count(steps: int, least: int = 0) -> int:
    """``steps`` as the ``int`` that ``core._require_integer`` gives;
    fewer than ``least`` is a usage error."""
    steps = _require_integer("steps", steps)
    if steps < least:
        raise UsageError(f"steps must be >= {least}")
    return steps


def _dataset(command: str, params: dict, **tables: np.ndarray) -> dict:
    """A command's dataset: its name, ``params`` after the name, and each
    structured table of ``tables`` with its column names."""
    return {"command": command, "params": {"command": command, **params},
            "tables": {name: {"columns": list(rows.dtype.names), "rows": rows}
                       for name, rows in tables.items()}}


def _check_step_sum(step: int, total: float) -> None:
    if abs(total - 1.0) > _SUM_TOL:
        raise NumericInvariantError(
            f"probabilities at step {step} sum to {total!r}")


def _fill(rows: np.ndarray, start: int, **columns) -> int:
    """Write ``columns``, each as long as ``step``, into the fields of the
    same names of ``rows`` from row ``start`` on; returns the row after the
    last one written."""
    stop = start + len(columns["step"])
    for name, column in columns.items():
        rows[name][start:stop] = column
    return stop


# Both walk commands are one stepping pass, ``_walk``: it runs
# ``core._state_blocks`` and observes each block on the block's window into
# full-width rows, zero outside it, each summed over whole rows, so every
# value keeps its bits.  Its workspaces, and the commands' own, are sized
# for the first, longest block and reused, as the windows only grow.
#
# Both tables are allocated once, after the lattice and before the walk,
# and each block writes its rows straight into them: its steps' rows, and
# a row for each of its sites with p > 0 after the rows filled so far.  A
# walk from a point mass is nonzero on at most t + 1 sites per side at
# step t, so the per-site table has room for sides * (n + 1) (n + 2) / 2
# rows; the command returns the view of its filled rows, and the pages
# past them are never touched.

def _walk(state, spec, steps: int, names: tuple[str, ...]):
    """The blocks of the walk of ``state`` under ``spec`` over steps ``0 ..
    steps``: yields ``(block, lo, hi, spin_probs, probs, totals, rows)``.

    ``spin_probs`` is ``|block|^2`` and ``probs`` its sum over the spin
    axis, both on the window ``[lo, hi)`` (``core._probabilities``);
    ``totals`` holds each step's sum of ``probs``, every one checked by
    ``_check_step_sum`` before the block is yielded.  ``rows`` is the view
    of the per-site table filled so far: an int32 ``step``, an int32
    field for each of ``names`` (the side index of a ladder, then the
    position) and a float64 ``probability``, one row per entry with p > 0,
    16 B a row on a line and 20 B on the ladder.  The arrays are valid
    until the generator resumes.

    No coordinate overflows int32.  Steps and positions stay within
    ``steps + 2``, so they fit while ``steps < 2**31 - 3``; from there on
    the light-cone bound of ``(steps + 1) (steps + 2) / 2`` rows per side
    is past numpy's largest array, and its allocation fails (exit 1 from
    the command line) before any coordinate is cast."""
    sides = math.prod(state.amplitudes.shape[1:-1])
    positions = np.arange(-state.half_width, state.half_width + 1)
    rows = np.empty(sides * (steps + 1) * (steps + 2) // 2, dtype=[
        ("step", np.int32), *((name, np.int32) for name in names), ("probability", np.float64)])
    filled = step = 0
    spin_probs = None
    for block, lo, hi in _state_blocks(state, spec, steps):
        n = len(block)
        if spin_probs is None:
            spin_probs = np.zeros(block.shape)
            probs = np.zeros((n,) + block.shape[2:])
        p = probs[:n]
        _probabilities(block, lo, hi, spin_probs[:n], p)
        totals = np.sum(p.reshape(n, -1), axis=-1)
        for i, total in enumerate(totals.tolist()):
            _check_step_sum(step + i, total)
        positive = p[..., lo:hi] > 0.0
        index, *axes, column = np.nonzero(positive)
        filled = _fill(rows, filled, step=index + step, probability=p[..., lo:hi][positive],
                       **dict(zip(names, (*axes, positions[lo:hi][column]))))
        yield block, lo, hi, spin_probs[:n], p, totals, rows[:filled]
        step += n


def run_walk1d(gamma: Angle | float, steps: int,
               initial_theta: float = 0.0, initial_phi: float = 0.0) -> dict:
    """Simulate a 1D conventional walk and collect its per-step datasets.

    The walker starts at site 0 of the sites ``-(steps + 2) .. steps + 2``,
    which it cannot leave in ``steps`` steps.  The walk is one stepping
    pass, observed a block of steps at a time.  Both tables' rows are
    structured arrays, an int32 ``step`` and ``site`` and float64
    elsewhere: a ``distribution`` row is 16 B."""
    steps = _step_count(steps)
    gamma = _as_angle("gamma", gamma)
    r = steps + 2  # the last step leaves two empty sites before each edge
    coin = CoinSpinor.from_bloch(initial_theta, initial_phi)
    state = localized_walker(coin, half_width=r)
    # second_moment's (m - origin) ** 2, about the origin 0.0
    squared_sites = np.square(state.sites().astype(float))
    step_rows = np.empty(steps + 1, dtype=[("step", np.int32), *(
        (name, np.float64) for name in ("second_moment", "entropy", "total_probability"))])

    step = 0
    moments = None
    for block, lo, hi, spin_probs, p, totals, distribution in _walk(
            state, Conventional(gamma.radians), steps, ("site",)):
        n = len(block)
        if moments is None:
            moments, cross = np.zeros(p.shape), np.zeros(p.shape, np.complex128)
        np.multiply(p[:, lo:hi], squared_sites[lo:hi], out=moments[:n, lo:hi])
        rho11, rho22, rho12 = _coin_rho_sums(block, lo, hi, spin_probs, cross[:n])
        step = _fill(step_rows, step, step=np.arange(step, step + n),
                     second_moment=np.sum(moments[:n], axis=-1),
                     entropy=[entropy(DensityMatrix2(rho11=r11, rho22=r22, rho12=r12))
                              for r11, r22, r12 in zip(rho11, rho22, rho12)],
                     total_probability=totals)

    rho_inf = asymptotic_rho(gamma.radians)
    return _dataset("walk1d", {
        "gamma": gamma.radians,
        "steps": steps,
        "half_width": r,
        "initial_theta": float(initial_theta),
        "initial_phi": float(initial_phi),
        "predicted_spread_coefficient": _sector_magnetization(gamma.radians),
        "asymptotic_rho11": rho_inf.rho11,
        "asymptotic_rho22": rho_inf.rho22,
        "asymptotic_entropy": entropy(rho_inf),
    }, distribution=distribution, steps=step_rows)


def run_ladder(alpha: Angle | float, beta: Angle | float, steps: int,
               gamma_y: Angle | float | None = None,
               initial_theta: float = 0.0, initial_phi: float = 0.0) -> dict:
    """Simulate the mixed ladder protocol and collect per-step datasets.

    The walker starts on side 0 at rung 0 of the rungs ``-(steps + 2) ..
    steps + 2``, which it cannot leave in ``steps`` steps.  The walk is one
    stepping pass, observed a block of steps at a time: the joint and side
    masses, the sector projection and weights, the coin matrices of the
    normalized sectors and the side-profile distance.  Both tables' rows
    are structured arrays: int32 ``step``, ``side`` and ``rung``, float64
    masses, weights and ``probability``, and an object ``tv_sides`` that
    holds a float, or None while a side carries no mass.  A ``joint`` row
    is 20 B."""
    steps = _step_count(steps)
    r = steps + 2  # the last step leaves two empty sites before each edge
    alpha, beta = _as_angle("alpha", alpha), _as_angle("beta", beta)
    gy = _as_angle("gamma_y", gamma_y) if gamma_y is not None else _DEFAULT_GAMMA_Y
    # before the walk: it refuses angles whose sector sums or pattern overflow
    rows = sweep_summary([alpha], [beta], gy)
    summary = dict(zip(rows.dtype.names, rows.tolist()[0]))
    eff = effective_angles(alpha, beta, gy)
    coin = CoinSpinor.from_bloch(initial_theta, initial_phi)
    state = localized_ladder(coin, half_width=r, side=0)
    spec = Ladder(alpha=alpha.radians, beta=beta.radians, gamma_y=gy.radians)
    step_rows = np.empty(steps + 1, dtype=[("step", np.int32), *((name, np.float64) for name in (
        "side0_mass", "side1_mass", "weight_k0", "weight_kpi")), ("tv_sides", object)])

    # per-sector sums of (rho11, rho22, rho12) over steps 1..n, added one
    # by one: builtin sum() of floats is compensated from Python 3.12 on
    rho_sums = [[0.0, 0.0, 0j], [0.0, 0.0, 0j]]
    step = 0
    sectors = None
    # block axes: step, spin, side, rung; sectors: step, sector, spin, rung.
    # The sectors' |psi|^2 reuses the block's spin workspace, spent once j
    # is formed.
    for block, lo, hi, sector_probs, j, totals, joint in _walk(
            state, spec, steps, ("side", "rung")):
        n = len(block)
        if sectors is None:
            sectors = np.zeros(block.shape, np.complex128)
            profiles, cross = np.zeros(j.shape), np.zeros(j.shape, np.complex128)
        masses = np.sum(j, axis=-1)
        weights = _sector_blocks(block, lo, hi, sectors[:n], sector_probs)
        _probabilities(sectors[:n], lo, hi, sector_probs)
        rho11, rho22, rho12 = _coin_rho_sums(sectors[:n], lo, hi, sector_probs, cross[:n])
        for i in range(0 if step else 1, n):  # steps 1..n
            for k, sums in enumerate(rho_sums):
                rho = DensityMatrix2(rho11=rho11[i][k], rho22=rho22[i][k], rho12=rho12[i][k])
                sums[0] += rho.rho11
                sums[1] += rho.rho22
                sums[2] += rho.rho12
        # total_variation of the side profiles, each renormalized to one
        shown = masses.min(axis=-1) >= _SIDE_MASS_FLOOR
        prof = profiles[:n, :, lo:hi]
        np.divide(j[..., lo:hi], np.where(shown[:, None], masses, 1.0)[..., None], out=prof)
        np.subtract(prof[:, 0], prof[:, 1], out=prof[:, 0])
        np.abs(prof[:, 0], out=prof[:, 0])
        tv = np.empty(n, dtype=object)
        tv[shown] = (0.5 * np.sum(profiles[:n, 0], axis=-1))[shown].tolist()
        step = _fill(step_rows, step, step=np.arange(step, step + n), side0_mass=masses[:, 0],
                     side1_mass=masses[:, 1], weight_k0=weights[:, 0], weight_kpi=weights[:, 1],
                     tv_sides=tv)

    if steps >= 1:
        i_finite = mutual_information(*(
            DensityMatrix2(rho11=s11 / steps, rho22=s22 / steps, rho12=s12 / steps)
            for s11, s22, s12 in rho_sums))
    else:
        i_finite = None
    return _dataset("ladder", {
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
        **{name: summary[name] for name in (
            "m1", "m2", "m", "d1", "d2", "s1", "s2", "mutual_information")},
        "mutual_information_finite_n": i_finite,
        "pattern": summary["pattern"],
    }, joint=joint, steps=step_rows)


def run_sweep(alpha_grid: list[Angle], beta_grid: list[Angle]) -> dict:
    """Analytic sector summary over the (alpha, beta) product grid at the
    default long-side coin ``gamma_y = -pi/2``.

    The rows are :func:`~ladderwalk.spectral.sweep_summary`'s structured
    array, float64 fields and a text ``pattern``, built column by column
    with each sector closed form evaluated once per distinct sector-angle
    sum."""
    if not alpha_grid or not beta_grid:
        raise UsageError("sweep needs nonempty alpha and beta grids")
    return _dataset("sweep", {"alpha_count": len(alpha_grid), "beta_count": len(beta_grid)},
                    sweep=sweep_summary(alpha_grid, beta_grid))


def run_table1(steps: int = 64) -> dict:
    """Verify the four qualitative regimes at alpha = -pi/4.

    Each regime is one :func:`run_ladder` run for ``steps`` steps: its
    pattern, ``m1`` and ``m2`` checks read that run's ``params``, from
    exact pi-fraction arithmetic, and its walk checks read its steps
    table.  The ``checks`` rows are a structured array of object fields,
    each cell a Python str, float or bool.
    """
    steps = _step_count(steps, least=1)
    alpha = Angle(-math.pi / 4, Fraction(-1, 4))
    checks = []

    def check(row: str, quantity: str, expected, measured, passed: bool) -> None:
        checks.append((row, quantity, expected, measured, bool(passed)))

    def ladder(beta: Angle, row: str, expected: WalkPattern) -> tuple[dict, np.ndarray]:
        """``run_ladder``'s params at ``beta``, its pattern checked against
        ``expected``, and its steps table for steps 1 .. ``steps``."""
        dataset = run_ladder(alpha, beta, steps)
        params = dataset["params"]
        check(row, "pattern", expected.value, params["pattern"],
              params["pattern"] == expected.value)
        return params, dataset["tables"]["steps"]["rows"][1:]

    # beta = 0: the walker hops sides deterministically; even steps on the
    # starting side, odd steps on the other.
    params, table = ladder(Angle(0.0, Fraction(0)), "alternating", WalkPattern.ALTERNATING)
    diff = abs(params["m1"] - params["m2"])
    check("alternating", "m1_minus_m2", 0.0, diff, diff == 0.0)
    off = max(np.where(table["step"] % 2, table["side0_mass"], table["side1_mass"]).tolist())
    check("alternating", "max_resident_side_miss", 0.0, off, off <= 1e-12)

    # beta = pi: the walker never leaves the starting side.
    params, table = ladder(Angle(math.pi, Fraction(1)), "one-sided", WalkPattern.ONE_SIDED)
    diff = abs(params["m1"] - params["m2"])
    check("one-sided", "m1_minus_m2", 0.0, diff, diff == 0.0)
    off = max(table["side1_mass"].tolist())
    check("one-sided", "max_off_side_mass", 0.0, off, off < 1e-10)

    # beta = pi/4: the second sector coin is extremal, M2 vanishes and the
    # two side profiles agree up to a 1/sqrt(n) interference tail.
    tv_ceiling = _IDENTICAL_TV_COEFF / math.sqrt(steps)
    params, table = ladder(Angle(math.pi / 4, Fraction(1, 4)), "identical-m2-zero",
                           WalkPattern.IDENTICAL_DOMINATED)
    check("identical-m2-zero", "m2", 0.0, params["m2"], params["m2"] == 0.0)
    tv = table["tv_sides"][-1]
    check("identical-m2-zero", "tv_sides", tv_ceiling, tv, tv <= tv_ceiling)

    # beta = 3pi/4: M1 is maximized and again the side profiles agree.
    params, table = ladder(Angle(3 * math.pi / 4, Fraction(3, 4)), "identical-m1-max",
                           WalkPattern.IDENTICAL_DOMINATED)
    check("identical-m1-max", "m1", 1.0, params["m1"], params["m1"] == 1.0)
    tv = table["tv_sides"][-1]
    check("identical-m1-max", "tv_sides", tv_ceiling, tv, tv <= tv_ceiling)

    rows = np.array(checks, dtype=[
        (name, object) for name in ("row", "quantity", "expected", "measured", "passed")])
    return _dataset("table1", {"alpha": alpha.radians, "steps": steps,
                               "all_passed": all(rows["passed"])}, checks=rows)


def _format_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return format(value, ".17g")
    return str(value)


# A cell's format by numpy kind: ``%.17g`` for CSV floats, ``%r``
# (``float.__repr__``) as ``json`` writes them; an integer cell is a text
# of its span table or an int, which ``%s`` writes as ``%d`` would.  The
# text fields hold ``WalkPattern`` values, which need no CSV quoting or
# JSON escapes.  An object cell (``tv_sides``, a ``table1`` check) goes
# through the format's scalar encoder.
_CSV_CELLS = {"f": "%.17g", "i": "%s", "U": "%s", "O": _format_cell}
_JSON_CELLS = {"f": "%r", "i": "%s", "U": '"%s"', "O": json.dumps}


def _cell_formats(rows: np.ndarray, formats: dict) -> list:
    return [formats[rows.dtype[name].kind] for name in rows.dtype.names]


def _formatted_chunks(rows: np.ndarray, formats: dict, layout: tuple[str, str, str],
                      sep: str = ""):
    """The rows of a structured table as text, in pieces of ``_CHUNK_ROWS``
    rows, each made by one ``%``.  ``layout`` is the text before a row's
    first cell, between two cells and after its last cell, and ``sep``
    comes between two rows; none of them holds a ``%``.  A cell's format
    is the entry of ``formats`` for its numpy kind.

    A column with few distinct values is rendered once per value before
    the first chunk, each text followed by the layout after its cell (and,
    in the first column, led by ``sep`` and the layout before the row),
    and those texts are held for the whole table.  That is an integer
    column whose span ``max - min`` is at most the row count, ``str(v)``
    for each ``v`` in the span (a per-site column spans at most ``2 *
    steps + 3`` values), and a float column whose first chunk and whole
    column each hold at most half as many distinct values as rows, its
    format applied once per distinct bit pattern (``0.0`` and ``-0.0``
    print apart).

    A chunk's ``%`` template is one ``"".join`` of its cells' texts and,
    for every other cell, of the cell's format within its layout.  ``%``
    then fills only those cells: distinct floats, integers of a wider
    span, text cells, and object cells, each of which goes through the
    ``"O"`` entry of ``formats`` and is filled by ``%s``.  A text or
    object cell is always an argument of ``%``, never part of a template,
    so a ``%`` in it is written as it is.
    """
    before, between, after = layout
    names = rows.dtype.names
    width = len(names)
    texts = []  # (column index, name, a function from a chunk's column to its texts)
    fills = []  # (column index, name, each cell's template text, a function from a
    #              chunk's column to the values that % fills in)
    for j, (name, cell) in enumerate(zip(names, _cell_formats(rows, formats))):
        column = rows[name]
        head = sep + before if j == 0 else ""
        tail = after if j == width - 1 else between
        text = None
        if column.dtype.kind == "i" and len(column):
            lo, hi = int(column.min()), int(column.max())
            if hi - lo <= len(column):
                table = np.array([head + str(v) + tail for v in range(lo, hi + 1)], dtype=object)
                text = lambda c, lo=lo, table=table: table[c - lo].tolist()
        elif column.dtype.kind == "f":
            found = _float_table(column, cell, head, tail)
            if found is not None:
                keys, table = found
                text = lambda c, keys=keys, table=table: table[
                    np.searchsorted(keys, c.view(np.uint64))].tolist()
        if text is not None:
            texts.append((j, name, text))
        elif column.dtype.kind == "O":
            fills.append((j, name, head + "%s" + tail,
                          lambda c, encode=cell: [encode(v) for v in c]))
        else:
            fills.append((j, name, head + cell + tail, np.ndarray.tolist))
    for start in range(0, len(rows), _CHUNK_ROWS):
        chunk = rows[start:start + _CHUNK_ROWS]
        n = len(chunk)
        pieces = [None] * (n * width)
        for j, name, text in texts:
            pieces[j::width] = text(chunk[name])
        values = [None] * (n * len(fills))
        for k, (j, name, piece, fill) in enumerate(fills):
            pieces[j::width] = [piece] * n
            values[k::len(fills)] = fill(chunk[name])
        if not start:  # the table's first row follows no other
            pieces[0] = pieces[0][len(sep):]
        template = "".join(pieces)
        del pieces  # so that % holds only the template and its text
        yield template % tuple(values)


def _float_table(column: np.ndarray, cell: str, head: str,
                 tail: str) -> tuple[np.ndarray, np.ndarray] | None:
    """The sorted distinct bit patterns of a float ``column`` and ``head +
    cell % v + tail`` for each; None when the column is empty, or when its
    first chunk or the whole column holds more than half as many distinct
    values as rows.  The first chunk is tested first, so a column mostly
    distinct there (a walk's probabilities) is never sorted."""
    head_bits = column[:_CHUNK_ROWS].view(np.uint64).tolist()
    if not head_bits or 2 * len(set(head_bits)) > len(head_bits):
        return None
    keys = _distinct(column.view(np.uint64))
    if 2 * len(keys) > len(column):
        return None
    return keys, np.array([head + cell % v + tail for v in keys.view(np.float64).tolist()],
                          dtype=object)


# Stands in for a table's rows in the text ``json`` writes; the NUL keeps
# it apart from every string a dataset holds.
_ROWS_MARK = "\0rows"


def _write_json(dataset: dict, fh) -> None:
    """Write ``dataset`` and a newline in ``json.dump(indent=2)``'s layout.

    Each table's rows are formatted in chunks (``_JSON_CELLS``); ``json``
    writes the rest, with a mark in place of those rows.
    """
    tables = dataset["tables"]
    text = json.dumps({**dataset, "tables": {
        name: {**table, "rows": _ROWS_MARK} for name, table in tables.items()}}, indent=2)
    pieces = text.split(json.dumps(_ROWS_MARK))
    fh.write(pieces[0])
    for table, before, after in zip(tables.values(), pieces, pieces[1:]):
        rows = table["rows"]
        line = before[before.rfind("\n") + 1:]   # '<indent>"rows": '
        indent = line[:line.index('"')]
        if len(rows):
            row = indent + "  "
            fh.write("[")
            fh.writelines(_formatted_chunks(rows, _JSON_CELLS, (
                "\n" + row + "[\n" + row + "  ", ",\n" + row + "  ", "\n" + row + "]"), ","))
            fh.write("\n" + indent + "]")
        else:
            fh.write("[]")
        fh.write(after)
    fh.write("\n")


def _csv_path(base: Path, table: str, main_table: str) -> Path:
    if table == main_table:
        return base
    stem = base.with_suffix("") if base.suffix else base
    return stem.parent / f"{stem.name}.{table}{base.suffix or '.csv'}"


@contextlib.contextmanager
def _open_for_writing(path: Path, newline: str | None = None):
    """``path`` open for writing, its directory created; a failure to open,
    write or close it is a usage error."""
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8", newline=newline) as fh:
            yield fh
    except OSError as exc:
        raise UsageError(f"cannot write {path}: {exc}") from exc


def _write_stdout(write) -> None:
    """``write(sys.stdout)``, then a flush; a closed or failing standard
    output is a usage error.  After a broken pipe, standard output is
    pointed at ``os.devnull``, so the interpreter's last flush is silent."""
    try:
        if sys.stdout is None:  # started with its descriptor closed
            raise OSError(errno.EBADF, os.strerror(errno.EBADF))
        write(sys.stdout)
        sys.stdout.flush()
    except OSError as exc:
        if isinstance(exc, BrokenPipeError):
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        raise UsageError(f"cannot write standard output: {exc}") from exc


def write_dataset(dataset: dict, out: str, fmt: str) -> list[Path]:
    """Write a dataset as one JSON document or one CSV file per table.

    For CSV the first table lands at ``out`` itself, further tables and
    the scalar parameters at sibling files named ``<out stem>.<table>``
    plus the suffix of ``out``, or ``.csv`` when ``out`` has none
    (``run.txt`` gives ``run.steps.txt``).  Returns the paths written.
    """
    if fmt not in _FORMATS:
        raise UsageError(f"unknown format {fmt!r}")
    base = Path(out)
    if fmt == "json":
        with _open_for_writing(base) as fh:
            _write_json(dataset, fh)
        return [base]
    written = []
    tables = dataset["tables"]
    main_table = next(iter(tables))
    for name, table in tables.items():
        path = _csv_path(base, name, main_table)
        with _open_for_writing(path, newline="") as fh:
            csv.writer(fh).writerow(table["columns"])
            fh.writelines(_formatted_chunks(table["rows"], _CSV_CELLS, ("", ",", "\r\n")))
        written.append(path)
    params = dataset["params"]
    path = _csv_path(base, "params", main_table)
    with _open_for_writing(path, newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(list(params))
        writer.writerow([_format_cell(v) for v in params.values()])
    written.append(path)
    return written


class _Parser(argparse.ArgumentParser):
    """argparse exits with code 2 on usage errors and prints the usage
    first; the CLI contract wants 1 and the one error line.

    Every option is ``--name`` or ``-h``, so any other token that starts
    with one dash is a value, whether it follows its flag after ``=`` or
    after a space (``--gamma -1e+5``), and ``parse_angle`` or
    ``parse_grid`` decides it.  argparse also consults this
    negative-number matcher as options are added, and would stop trusting
    it if it matched one, so it matches no option string.  Each flag is
    taken spelled in full only: an abbreviation would let ``--alpha``
    stand for ``--alpha-grid``.
    """

    def __init__(self, *args, **kwargs):
        super().__init__(*args, allow_abbrev=False, **kwargs)
        self._negative_number_matcher = re.compile(r"-(?!-|h\Z)")

    def error(self, message):
        self.exit(1, f"{self.prog}: error: {message}\n")


# A flag and the config key of the same name go through one parser.
_OPTIONS = {
    "alpha": (parse_angle, "split-step first coin angle"),
    "beta": (parse_angle, "split-step second coin angle"),
    "gamma": (parse_angle, "conventional coin angle"),
    "gamma_y": (parse_angle, "ladder long-side coin angle (default -1/2pi)"),
    "steps": (_count, "number of steps"),
    "initial_theta": (_radians, "initial coin Bloch polar angle (default 0)"),
    "initial_phi": (_radians, "initial coin Bloch azimuthal angle (default 0)"),
    "alpha_grid": (parse_grid, "alpha grid as start:stop:count, or one angle"),
    "beta_grid": (parse_grid, "beta grid as start:stop:count, or one angle"),
    "out": (_text, "output file path (default: JSON on stdout)"),
    "format": (_format, f"output format, one of {', '.join(_FORMATS)} (default csv)"),
}

# Each command takes the parameters of its run_* function, read here once
# so that a rebound run_* (a tracing wrapper, a test double) keeps them.
_COMMANDS = {
    name: (doc, inspect.signature(globals()[f"run_{name}"]).parameters)
    for name, doc in (
        ("walk1d", "one-dimensional conventional walk"),
        ("ladder", "mixed-protocol walk on the two-rail ladder"),
        ("sweep", "analytic summary over an (alpha, beta) grid"),
        ("table1", "verify the qualitative walk regimes at alpha = -pi/4"),
    )
}


def _option_names(command: str) -> list[str]:
    return [*_COMMANDS[command][1], "out", "format"]


def _build_parser() -> _Parser:
    parser = _Parser(prog="ladderwalk",
                     description="Discrete-time quantum walk experiments")
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (doc, _params) in _COMMANDS.items():
        p = sub.add_parser(command, help=doc)
        p.add_argument("--config", help="JSON config file; flags override it")
        for name in _option_names(command):
            p.add_argument("--" + name.replace("_", "-"), help=_OPTIONS[name][1])
    return parser


def _settings(args: argparse.Namespace) -> dict:
    """The command's keyword arguments plus ``out`` and ``format``: the
    config file merged with the flags, each value through its parser."""
    allowed = _option_names(args.command)
    raw: dict = {}
    if args.config:
        try:
            with open(args.config, "r", encoding="utf-8") as fh:
                raw = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise UsageError(f"cannot read config {args.config}: {exc}") from exc
        if not isinstance(raw, dict):
            raise UsageError("config file must hold a JSON object")
        unknown = [key for key in raw if key not in allowed]
        if unknown:
            raise UsageError(f"{args.command} does not take config key {unknown[0]!r}")
    raw.update((name, getattr(args, name)) for name in allowed
               if getattr(args, name) is not None)
    settings = {}
    for key, value in raw.items():
        if value is None:  # JSON null leaves the option unset
            continue
        try:
            settings[key] = _OPTIONS[key][0](value)
        except UsageError as exc:
            raise UsageError(f"{key}: {exc}") from None
    for name, param in _COMMANDS[args.command][1].items():
        if param.default is param.empty and name not in settings:
            raise UsageError(f"missing required option --{name.replace('_', '-')}")
    return settings


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    parser = _build_parser()
    # the top-level parser would take the option's value for the command
    if argv and argv[0].startswith("-") and argv[0] not in ("-h", "--help"):
        parser.error("the command must come before its options")
    args = parser.parse_args(argv)
    try:
        settings = _settings(args)
        out = settings.pop("out", None)
        fmt = settings.pop("format", None)
        # standard output takes the data commands' JSON and table1's lines
        if out is None and fmt is not None and (fmt != "json" or args.command == "table1"):
            raise UsageError(f"--format {fmt} needs --out")
        dataset = globals()[f"run_{args.command}"](**settings)
        if out is not None:
            write_dataset(dataset, out, fmt or "csv")
        if args.command == "table1":
            _write_stdout(lambda fh: fh.writelines(
                f"table1 {row} {quantity}: {'PASS' if passed else 'FAIL'} "
                f"(expected {expected!r}, measured {measured!r})\n"
                for row, quantity, expected, measured, passed in
                dataset["tables"]["checks"]["rows"]))
            if not dataset["params"]["all_passed"]:
                print("ladderwalk: table1 checks failed", file=sys.stderr)
                return 2
        elif out is None:
            _write_stdout(lambda fh: _write_json(dataset, fh))
    # before ValueError, which DensityMatrixError subclasses
    except (NumericInvariantError, DensityMatrixError) as exc:
        print(f"ladderwalk: numeric invariant violated: {exc}", file=sys.stderr)
        return 3
    except (UsageError, ValueError) as exc:
        print(f"ladderwalk: error: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:
        print(f"ladderwalk: error: out of memory: {exc}", file=sys.stderr)
        return 1
    return 0


def entrypoint() -> None:
    sys.exit(main())
