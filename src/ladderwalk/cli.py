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
written as a single JSON document or as CSV files, one per table, with
floats at 17 significant digits.

Exit codes: 0 success, 1 usage error, 2 failed table1 check, 3 numeric
invariant violation.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import re
import sys
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

import numpy as np

from .core import (
    DEFAULT_GAMMA_Y,
    CoinSpinor,
    Conventional,
    Ladder,
    LatticeOverflowError,
    evolve,
    localized_ladder,
    localized_walker,
    position_distribution,
)
from .observables import second_moment, side_marginals, total_variation
from .sectors import (
    EffectiveAngles,
    WalkPattern,
    classify_pattern,
    effective_angle_fractions,
    effective_angles,
    reduce_angle,
    reduce_pi_fraction,
    sector_project,
)
from .spectral import (
    WalkSummary,
    asymptotic_rho,
    average_rho,
    cesaro_rho,
    entropy,
    finite_n_rho,
    walk_summary_from_angles,
)

__all__ = [
    "Angle",
    "ExperimentConfig",
    "UsageError",
    "NumericInvariantError",
    "Table1Failure",
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


class UsageError(Exception):
    """Bad command line or config file."""


class NumericInvariantError(Exception):
    """A numeric invariant of an emitted dataset was violated."""


class Table1Failure(Exception):
    """One or more table1 checks failed."""


@dataclass(frozen=True)
class Angle:
    """An angle in radians, remembering its exact pi-fraction if it has one."""

    radians: float
    pi_fraction: Fraction | None = None


@dataclass(frozen=True)
class ExperimentConfig:
    """Validated batch-job settings after merging config file and flags."""

    command: str
    alpha: Angle | None = None
    beta: Angle | None = None
    gamma: Angle | None = None
    gamma_y: Angle | None = None
    steps: int | None = None
    half_width: int | None = None
    initial_theta: float = 0.0
    initial_phi: float = 0.0
    out: str | None = None
    format: str = "csv"
    alpha_grid: list[Angle] | None = None
    beta_grid: list[Angle] | None = None

    def __post_init__(self):
        if self.steps is not None and self.steps < 0:
            raise UsageError("steps must be >= 0")
        if self.half_width is not None:
            if self.steps is None:
                raise UsageError("half_width given without steps")
            if self.half_width <= self.steps + 1:
                raise UsageError("half_width must exceed steps + 1")
        for name, grid in (("alpha", self.alpha_grid), ("beta", self.beta_grid)):
            if grid is not None and len(grid) < 1:
                raise UsageError(f"{name} grid must hold at least one point")
        if self.format not in ("csv", "json"):
            raise UsageError(f"unknown format {self.format!r}")


_PI_RE = re.compile(r"^([+-]?[0-9./]*)pi(/([0-9]+))?$")


def parse_angle(value) -> Angle:
    """Parse raw radians or a rational multiple of pi."""
    if isinstance(value, (int, float)):
        if not math.isfinite(float(value)):
            raise UsageError(f"angle must be finite, got {value!r}")
        return Angle(radians=float(value))
    text = str(value).strip().lower().replace(" ", "")
    if "pi" in text:
        m = _PI_RE.match(text)
        if m is None:
            raise UsageError(f"cannot parse angle {value!r}")
        prefix = m.group(1)
        if prefix in ("", "+"):
            frac = Fraction(1)
        elif prefix == "-":
            frac = Fraction(-1)
        else:
            try:
                frac = Fraction(prefix)
            except (ValueError, ZeroDivisionError) as exc:
                raise UsageError(f"cannot parse angle {value!r}") from exc
        if m.group(3) is not None:
            denom = int(m.group(3))
            if denom == 0:
                raise UsageError(f"zero denominator in angle {value!r}")
            frac /= denom
        return Angle(radians=float(frac) * math.pi, pi_fraction=frac)
    try:
        radians = float(text)
    except ValueError as exc:
        raise UsageError(f"cannot parse angle {value!r}") from exc
    if not math.isfinite(radians):
        raise UsageError(f"angle must be finite, got {value!r}")
    return Angle(radians=radians)


def parse_grid(text: str) -> list[Angle]:
    """Expand a ``start:stop:count`` grid of angles.

    Endpoints that are both pi-rationals produce a pi-rational grid, kept
    exact in Fraction arithmetic.
    """
    parts = str(text).split(":")
    if len(parts) != 3:
        raise UsageError(f"grid must be start:stop:count, got {text!r}")
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
    values = np.linspace(start.radians, stop.radians, count)
    return [Angle(radians=float(v)) for v in values]


def _summary_for(alpha: Angle, beta: Angle,
                 gamma_y: Angle | None = None) -> tuple[WalkSummary, WalkPattern]:
    """Sector summary for one parameter point, exact where possible."""
    gy = gamma_y.radians if gamma_y is not None else DEFAULT_GAMMA_Y
    exact = (alpha.pi_fraction is not None and beta.pi_fraction is not None
             and gy == DEFAULT_GAMMA_Y)
    if exact:
        g1f, g2f = effective_angle_fractions(alpha.pi_fraction, beta.pi_fraction)
        phif = 2 - 2 * beta.pi_fraction
        eff = EffectiveAngles(
            gamma1=float(g1f) * math.pi,
            gamma2=float(g2f) * math.pi,
            phi=float(phif) * math.pi,
        )
        g1r = float(reduce_pi_fraction(g1f)) * math.pi
        g2r = float(reduce_pi_fraction(g2f)) * math.pi
        summary = walk_summary_from_angles(eff, g1r, g2r)
    else:
        eff = effective_angles(alpha.radians, beta.radians, gy)
        summary = walk_summary_from_angles(
            eff, reduce_angle(eff.gamma1), reduce_angle(eff.gamma2))
    return summary, classify_pattern(alpha.radians, beta.radians)


def _check_step_sum(step: int, total: float) -> None:
    if abs(total - 1.0) > _SUM_TOL:
        raise NumericInvariantError(
            f"probabilities at step {step} sum to {total!r}")


def run_walk1d(gamma: Angle, steps: int, half_width: int | None = None,
               initial_theta: float = 0.0, initial_phi: float = 0.0) -> dict:
    """Simulate a 1D conventional walk and collect its per-step datasets."""
    if steps < 0:
        raise UsageError("steps must be >= 0")
    r = half_width if half_width is not None else steps + 2
    if r <= steps + 1:
        raise UsageError("half_width must exceed steps + 1")
    coin = CoinSpinor.from_bloch(initial_theta, initial_phi)
    state = localized_walker(coin, half_width=r)
    spec = Conventional(gamma.radians)
    sites = state.sites()

    dist_rows = []
    step_rows = []
    for step in range(steps + 1):
        if step > 0:
            state = evolve(state, spec, 1)
        probs = position_distribution(state)
        total = float(np.sum(probs))
        _check_step_sum(step, total)
        for site, p in zip(sites, probs):
            if p > 0.0:
                dist_rows.append([step, int(site), float(p)])
        step_rows.append([
            step,
            second_moment(probs, sites),
            entropy(finite_n_rho(state)),
            total,
        ])

    rho_inf = asymptotic_rho(gamma.radians)
    params = {
        "command": "walk1d",
        "gamma": gamma.radians,
        "steps": steps,
        "half_width": r,
        "initial_theta": float(initial_theta),
        "initial_phi": float(initial_phi),
        "predicted_spread_coefficient": 1.0 - abs(math.sin(gamma.radians / 2.0)),
        "asymptotic_rho11": rho_inf.rho11,
        "asymptotic_rho22": rho_inf.rho22,
        "asymptotic_entropy": entropy(rho_inf),
    }
    return {
        "command": "walk1d",
        "params": params,
        "tables": {
            "distribution": {
                "columns": ["step", "site", "probability"],
                "rows": dist_rows,
            },
            "steps": {
                "columns": ["step", "second_moment", "entropy", "total_probability"],
                "rows": step_rows,
            },
        },
    }


def run_ladder(alpha: Angle, beta: Angle, steps: int,
               gamma_y: Angle | None = None,
               half_width: int | None = None,
               initial_theta: float = 0.0, initial_phi: float = 0.0) -> dict:
    """Simulate the mixed ladder protocol and collect per-step datasets."""
    if steps < 0:
        raise UsageError("steps must be >= 0")
    r = half_width if half_width is not None else steps + 2
    if r <= steps + 1:
        raise UsageError("half_width must exceed steps + 1")
    gy = gamma_y if gamma_y is not None else Angle(DEFAULT_GAMMA_Y, Fraction(-1, 2))
    coin = CoinSpinor.from_bloch(initial_theta, initial_phi)
    state = localized_ladder(coin, half_width=r, side=0)
    spec = Ladder(alpha=alpha.radians, beta=beta.radians, gamma_y=gy.radians)
    rungs = state.rungs()

    joint_rows = []
    step_rows = []
    for step in range(steps + 1):
        if step > 0:
            state = evolve(state, spec, 1)
        joint = position_distribution(state)
        total = float(np.sum(joint))
        _check_step_sum(step, total)
        for side in (0, 1):
            for rung, p in zip(rungs, joint[side]):
                if p > 0.0:
                    joint_rows.append([step, side, int(rung), float(p)])
        side0, side1 = side_marginals(state)
        mass0, mass1 = float(np.sum(side0)), float(np.sum(side1))
        if min(mass0, mass1) < _SIDE_MASS_FLOOR:
            tv = None
        else:
            tv = total_variation(side0 / mass0, side1 / mass1)
        pair = sector_project(state)
        step_rows.append([step, mass0, mass1, pair.weight_k0, pair.weight_kpi, tv])

    summary, pattern = _summary_for(alpha, beta, gy)
    g1r = reduce_angle(summary.effective.gamma1)
    g2r = reduce_angle(summary.effective.gamma2)
    if steps >= 1:
        rho1_n = cesaro_rho(g1r, steps, coin)
        rho2_n = cesaro_rho(g2r, steps, coin)
        i_finite = (entropy(rho1_n) + entropy(rho2_n)
                    - entropy(average_rho(rho1_n, rho2_n)))
    else:
        i_finite = None
    params = {
        "command": "ladder",
        "alpha": alpha.radians,
        "beta": beta.radians,
        "gamma_y": gy.radians,
        "steps": steps,
        "half_width": r,
        "initial_theta": float(initial_theta),
        "initial_phi": float(initial_phi),
        "gamma1": summary.effective.gamma1,
        "gamma2": summary.effective.gamma2,
        "phi": summary.effective.phi,
        "m1": summary.magnetization.m1,
        "m2": summary.magnetization.m2,
        "m": summary.magnetization.m,
        "d1": summary.d1,
        "d2": summary.d2,
        "s1": summary.s1,
        "s2": summary.s2,
        "mutual_information": summary.mutual_information,
        "mutual_information_finite_n": i_finite,
        "pattern": pattern.value,
    }
    return {
        "command": "ladder",
        "params": params,
        "tables": {
            "joint": {
                "columns": ["step", "side", "rung", "probability"],
                "rows": joint_rows,
            },
            "steps": {
                "columns": ["step", "side0_mass", "side1_mass",
                            "weight_k0", "weight_kpi", "tv_sides"],
                "rows": step_rows,
            },
        },
    }


def run_sweep(alpha_grid: list[Angle], beta_grid: list[Angle]) -> dict:
    """Analytic sector summary over the (alpha, beta) product grid."""
    if not alpha_grid or not beta_grid:
        raise UsageError("sweep needs nonempty alpha and beta grids")
    rows = []
    for alpha in alpha_grid:
        for beta in beta_grid:
            summary, pattern = _summary_for(alpha, beta)
            rows.append([
                alpha.radians,
                beta.radians,
                summary.effective.gamma1,
                summary.effective.gamma2,
                summary.magnetization.m1,
                summary.magnetization.m2,
                summary.magnetization.m,
                summary.d1,
                summary.d2,
                summary.s1,
                summary.s2,
                summary.mutual_information,
                pattern.value,
            ])
    params = {
        "command": "sweep",
        "alpha_count": len(alpha_grid),
        "beta_count": len(beta_grid),
    }
    return {
        "command": "sweep",
        "params": params,
        "tables": {
            "sweep": {
                "columns": ["alpha", "beta", "gamma1", "gamma2",
                            "m1", "m2", "m", "d1", "d2", "s1", "s2",
                            "mutual_information", "pattern"],
                "rows": rows,
            },
        },
    }


def run_table1(steps: int = 64) -> dict:
    """Verify the four qualitative regimes at alpha = -pi/4.

    Analytic checks use exact pi-fraction arithmetic; simulation checks run
    the full ladder protocol for ``steps`` steps.
    """
    if steps < 1:
        raise UsageError("steps must be >= 1")
    alpha = Angle(-math.pi / 4, Fraction(-1, 4))
    rows = []

    def check(row: str, quantity: str, expected, measured, passed: bool) -> None:
        rows.append([row, quantity, expected, measured, bool(passed)])

    def ladder_steps(beta: Angle) -> list:
        """``run_ladder``'s per-step rows for steps 1 .. ``steps``."""
        return run_ladder(alpha, beta, steps)["tables"]["steps"]["rows"][1:]

    # beta = 0: the walker hops sides deterministically; even steps on the
    # starting side, odd steps on the other.
    beta = Angle(0.0, Fraction(0))
    summary, pattern = _summary_for(alpha, beta)
    check("alternating", "pattern", WalkPattern.ALTERNATING.value,
          pattern.value, pattern is WalkPattern.ALTERNATING)
    diff = abs(summary.magnetization.m1 - summary.magnetization.m2)
    check("alternating", "m1_minus_m2", 0.0, diff, diff == 0.0)
    off = max((mass0, mass1)[(step + 1) % 2]
              for step, mass0, mass1, *_ in ladder_steps(beta))
    check("alternating", "max_resident_side_miss", 0.0, off, off <= 1e-12)

    # beta = pi: the walker never leaves the starting side.
    beta = Angle(math.pi, Fraction(1))
    summary, pattern = _summary_for(alpha, beta)
    check("one-sided", "pattern", WalkPattern.ONE_SIDED.value,
          pattern.value, pattern is WalkPattern.ONE_SIDED)
    diff = abs(summary.magnetization.m1 - summary.magnetization.m2)
    check("one-sided", "m1_minus_m2", 0.0, diff, diff == 0.0)
    off = max(mass1 for _, _, mass1, *_ in ladder_steps(beta))
    check("one-sided", "max_off_side_mass", 0.0, off, off < 1e-10)

    # beta = pi/4: the second sector coin is extremal, M2 vanishes and the
    # two side profiles agree up to a 1/sqrt(n) interference tail.
    tv_ceiling = _IDENTICAL_TV_COEFF / math.sqrt(steps)
    beta = Angle(math.pi / 4, Fraction(1, 4))
    summary, pattern = _summary_for(alpha, beta)
    check("identical-m2-zero", "pattern", WalkPattern.IDENTICAL_DOMINATED.value,
          pattern.value, pattern is WalkPattern.IDENTICAL_DOMINATED)
    check("identical-m2-zero", "m2", 0.0, summary.magnetization.m2,
          summary.magnetization.m2 == 0.0)
    tv = ladder_steps(beta)[-1][-1]
    check("identical-m2-zero", "tv_sides", tv_ceiling, tv, tv <= tv_ceiling)

    # beta = 3pi/4: M1 is maximized and again the side profiles agree.
    beta = Angle(3 * math.pi / 4, Fraction(3, 4))
    summary, pattern = _summary_for(alpha, beta)
    check("identical-m1-max", "pattern", WalkPattern.IDENTICAL_DOMINATED.value,
          pattern.value, pattern is WalkPattern.IDENTICAL_DOMINATED)
    check("identical-m1-max", "m1", 1.0, summary.magnetization.m1,
          summary.magnetization.m1 == 1.0)
    tv = ladder_steps(beta)[-1][-1]
    check("identical-m1-max", "tv_sides", tv_ceiling, tv, tv <= tv_ceiling)

    params = {
        "command": "table1",
        "alpha": alpha.radians,
        "steps": steps,
        "all_passed": all(row[4] for row in rows),
    }
    return {
        "command": "table1",
        "params": params,
        "tables": {
            "checks": {
                "columns": ["row", "quantity", "expected", "measured", "passed"],
                "rows": rows,
            },
        },
    }


def _format_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return format(value, ".17g")
    return str(value)


def _csv_path(base: Path, table: str, main_table: str) -> Path:
    if table == main_table:
        return base
    stem = base.with_suffix("") if base.suffix else base
    return stem.parent / f"{stem.name}.{table}{base.suffix or '.csv'}"


def _open_for_writing(path: Path, newline: str | None = None):
    """Open ``path`` for writing, creating its directory; a path that
    cannot be written is a usage error."""
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        return open(path, "w", encoding="utf-8", newline=newline)
    except OSError as exc:
        raise UsageError(f"cannot write {path}: {exc}") from exc


def write_dataset(dataset: dict, out: str, fmt: str) -> list[Path]:
    """Write a dataset as one JSON document or one CSV file per table.

    For CSV the first table lands at ``out`` itself, further tables and
    the scalar parameters at sibling files named ``<out stem>.<table>.csv``.
    Returns the paths written.
    """
    base = Path(out)
    if fmt == "json":
        with _open_for_writing(base) as fh:
            json.dump(dataset, fh, indent=2)
            fh.write("\n")
        return [base]
    if fmt != "csv":
        raise UsageError(f"unknown format {fmt!r}")
    written = []
    tables = dataset["tables"]
    main_table = next(iter(tables))
    for name, table in tables.items():
        path = _csv_path(base, name, main_table)
        with _open_for_writing(path, newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(table["columns"])
            for row in table["rows"]:
                writer.writerow([_format_cell(v) for v in row])
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
    """argparse exits with code 2 on usage errors; the CLI contract wants 1.

    Also widens the negative-number matcher so angle values such as
    ``-1/4pi`` can follow an option without ``=``.
    """

    _ANGLE_TOKEN = re.compile(
        r"^-(\d+/\d+|\d+(?:\.\d+)?(?:e-?\d+)?|\.\d+(?:e-?\d+)?)?(pi)?(/\d+)?(:.*)?$")

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = self._ANGLE_TOKEN

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _build_parser() -> _Parser:
    parser = _Parser(prog="ladderwalk",
                     description="Discrete-time quantum walk experiments")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, doc in (
        ("walk1d", "one-dimensional conventional walk"),
        ("ladder", "mixed-protocol walk on the two-rail ladder"),
        ("sweep", "analytic summary over an (alpha, beta) grid"),
        ("table1", "verify the qualitative walk regimes at alpha = -pi/4"),
    ):
        p = sub.add_parser(name, help=doc)
        p.add_argument("--config", help="JSON config file; flags override it")
        p.add_argument("--alpha", help="split-step first coin angle")
        p.add_argument("--beta", help="split-step second coin angle")
        p.add_argument("--gamma", help="conventional coin angle")
        p.add_argument("--gamma-y", dest="gamma_y",
                       help="ladder long-side coin angle (default -1/2pi)")
        p.add_argument("--steps", type=int, help="number of steps")
        p.add_argument("--half-width", dest="half_width", type=int,
                       help="lattice half width (default steps + 2)")
        p.add_argument("--initial-theta", dest="initial_theta",
                       help="initial coin Bloch polar angle (default 0)")
        p.add_argument("--initial-phi", dest="initial_phi",
                       help="initial coin Bloch azimuthal angle (default 0)")
        p.add_argument("--out", help="output file path")
        p.add_argument("--format", choices=("csv", "json"), help="output format")
        if name == "sweep":
            p.add_argument("--alpha-grid", dest="alpha_grid",
                           help="alpha grid as start:stop:count")
            p.add_argument("--beta-grid", dest="beta_grid",
                           help="beta grid as start:stop:count")
    return parser


def _merge_config(args: argparse.Namespace) -> dict:
    settings: dict = {}
    if args.config:
        try:
            with open(args.config, "r", encoding="utf-8") as fh:
                loaded = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise UsageError(f"cannot read config {args.config}: {exc}") from exc
        if not isinstance(loaded, dict):
            raise UsageError("config file must hold a JSON object")
        settings.update(loaded)
    for key, value in vars(args).items():
        if key in ("command", "config"):
            continue
        if value is not None:
            settings[key] = value
    return settings


def _bloch_angle(settings: dict, key: str) -> float:
    value = settings.get(key)
    return parse_angle(value).radians if value is not None else 0.0


def _count(settings: dict, key: str) -> int | None:
    """An integer setting.  A JSON bool, a fractional number or a string
    ``int()`` rejects is a usage error, never truncated or coerced."""
    value = settings.get(key)
    if value is None:
        return None
    if isinstance(value, float) and value.is_integer():
        return int(value)
    if isinstance(value, (int, str)) and not isinstance(value, bool):
        try:
            return int(value)
        except ValueError:
            pass
    raise UsageError(f"{key} must be an integer, got {value!r}")


def _config_from(args: argparse.Namespace) -> ExperimentConfig:
    settings = _merge_config(args)

    def angle_or_none(key: str) -> Angle | None:
        value = settings.get(key)
        return parse_angle(value) if value is not None else None

    alpha_grid = beta_grid = None
    if args.command == "sweep":
        if settings.get("alpha_grid") is not None:
            alpha_grid = parse_grid(settings["alpha_grid"])
        elif settings.get("alpha") is not None:
            alpha_grid = [parse_angle(settings["alpha"])]
        if settings.get("beta_grid") is not None:
            beta_grid = parse_grid(settings["beta_grid"])
        elif settings.get("beta") is not None:
            beta_grid = [parse_angle(settings["beta"])]
    return ExperimentConfig(
        command=args.command,
        alpha=angle_or_none("alpha"),
        beta=angle_or_none("beta"),
        gamma=angle_or_none("gamma"),
        gamma_y=angle_or_none("gamma_y"),
        steps=_count(settings, "steps"),
        half_width=_count(settings, "half_width"),
        initial_theta=_bloch_angle(settings, "initial_theta"),
        initial_phi=_bloch_angle(settings, "initial_phi"),
        out=settings.get("out"),
        format=settings.get("format", "csv"),
        alpha_grid=alpha_grid,
        beta_grid=beta_grid,
    )


def _require(value, flag: str):
    if value is None:
        raise UsageError(f"missing required option {flag}")
    return value


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        cfg = _config_from(args)
        if cfg.command == "walk1d":
            dataset = run_walk1d(
                gamma=_require(cfg.gamma, "--gamma"),
                steps=_require(cfg.steps, "--steps"),
                half_width=cfg.half_width,
                initial_theta=cfg.initial_theta,
                initial_phi=cfg.initial_phi,
            )
        elif cfg.command == "ladder":
            dataset = run_ladder(
                alpha=_require(cfg.alpha, "--alpha"),
                beta=_require(cfg.beta, "--beta"),
                steps=_require(cfg.steps, "--steps"),
                gamma_y=cfg.gamma_y,
                half_width=cfg.half_width,
                initial_theta=cfg.initial_theta,
                initial_phi=cfg.initial_phi,
            )
        elif cfg.command == "sweep":
            dataset = run_sweep(
                _require(cfg.alpha_grid, "--alpha-grid or --alpha"),
                _require(cfg.beta_grid, "--beta-grid or --beta"),
            )
        else:
            dataset = run_table1(steps=cfg.steps if cfg.steps is not None else 64)

        if cfg.out is not None:
            write_dataset(dataset, cfg.out, cfg.format)
        if cfg.command == "table1":
            for row, quantity, expected, measured, passed in \
                    dataset["tables"]["checks"]["rows"]:
                label = "PASS" if passed else "FAIL"
                print(f"table1 {row} {quantity}: {label} "
                      f"(expected {expected!r}, measured {measured!r})")
            if not dataset["params"]["all_passed"]:
                raise Table1Failure("table1 checks failed")
        elif cfg.out is None:
            json.dump(dataset, sys.stdout, indent=2)
            sys.stdout.write("\n")
    except UsageError as exc:
        print(f"ladderwalk: error: {exc}", file=sys.stderr)
        return 1
    except Table1Failure as exc:
        print(f"ladderwalk: {exc}", file=sys.stderr)
        return 2
    except (NumericInvariantError, LatticeOverflowError) as exc:
        print(f"ladderwalk: numeric invariant violated: {exc}", file=sys.stderr)
        return 3
    return 0


def entrypoint() -> None:
    sys.exit(main())
