"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line and holding its stated tolerance and runtime budget."""

import itertools
import math
import subprocess
import sys
import time
from fractions import Fraction

import numpy as np
import pytest

import ladderwalk as lw
from ladderwalk.cli import parse_grid


def report(number, name, elapsed=None):
    timing = f" [{elapsed:.2f}s]" if elapsed is not None else ""
    print(f"\nACCEPTANCE {number} ({name}): PASS{timing}")


def test_01_sector_decomposition_oracle():
    started = time.perf_counter()
    quarter = math.pi / 4
    grid = [-3 * quarter, -quarter, quarter, 3 * quarter]
    n = 64
    for alpha, beta in itertools.product(grid, grid):
        ladder = lw.evolve(lw.localized_ladder(half_width=n + 2),
                           lw.Ladder(alpha, beta), n)
        pair = lw.sector_project(ladder)
        eff = lw.effective_angles(alpha, beta)
        for gamma, sector in ((eff.gamma1, pair.sector_k0),
                              (eff.gamma2, pair.sector_kpi)):
            reference = lw.evolve(lw.localized_walker(half_width=n + 2),
                                  lw.Conventional(gamma), n)
            deviation = np.max(np.abs(lw.position_distribution(sector)
                                      - lw.position_distribution(reference)))
            assert deviation < 1e-10, (alpha, beta, gamma, deviation)
    elapsed = time.perf_counter() - started
    assert elapsed < 10.0
    report(1, "sector-decomposition oracle", elapsed)


def test_02_spectral_vs_direct_oracle():
    started = time.perf_counter()
    rng = np.random.default_rng(20260810)
    ring = 72
    for _ in range(20):
        # keep away from the degenerate coin, where the closed form is
        # undefined; the exactly-degenerate branch is unit-tested separately
        gamma = float(rng.choice([-1.0, 1.0]) * rng.uniform(0.05, math.pi))
        n = int(rng.integers(0, 33))
        spectral = lw.evolve_spectral(lw.CoinSpinor(), gamma, n, ring)
        direct = lw.evolve(lw.localized_walker(half_width=ring // 2),
                           lw.Conventional(gamma), n)
        deviation = np.max(np.abs(lw.position_distribution(spectral)
                                  - lw.position_distribution(direct)))
        assert deviation < 1e-12, (gamma, n, deviation)
    elapsed = time.perf_counter() - started
    assert elapsed < 5.0
    report(2, "spectral-vs-direct oracle", elapsed)


def test_03_spread_law():
    started = time.perf_counter()
    n = 500
    for gamma in (math.pi / 4, math.pi / 2, 3 * math.pi / 4):
        state = lw.evolve(lw.localized_walker(half_width=n + 2),
                          lw.Conventional(gamma), n)
        m2 = lw.second_moment(lw.position_distribution(state), state.sites())
        predicted = 1.0 - abs(math.sin(gamma / 2.0))
        assert abs(m2 / n**2 - predicted) <= 0.02, (gamma, m2 / n**2, predicted)
    elapsed = time.perf_counter() - started
    assert elapsed < 10.0
    report(3, "ballistic spread law", elapsed)


def test_04_asymptotic_density_matrix():
    started = time.perf_counter()
    n = 2000
    for gamma in (math.pi / 4, math.pi / 2, 3 * math.pi / 4):
        averaged = lw.cesaro_rho(gamma, n)
        closed = lw.asymptotic_rho(gamma)
        assert abs(averaged.rho11 - closed.rho11) < 1e-2
        assert abs(averaged.rho22 - closed.rho22) < 1e-2
        assert abs(averaged.rho12 - closed.rho12) < 1e-2
        lam = lw.rho_eigenvalues(averaged)
        assert abs((lam[0] - lam[1]) - lw.discriminant(gamma)) < 1e-2
    elapsed = time.perf_counter() - started
    assert elapsed < 60.0
    report(4, "asymptotic density matrix", elapsed)


def test_05_table1_exit_code():
    proc = subprocess.run([sys.executable, "-m", "ladderwalk", "table1"],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "FAIL" not in proc.stdout
    report(5, "table1 reproduction via exit code")


# Pinned by the first oracle run: TV = 2.980e-08 at (alpha, beta, n) =
# (-pi/4, 3pi/4, 50); the committed threshold leaves a wide margin while
# staying far below the beta = pi/2 comparison value of 0.232.
IDENTICAL_PROFILE_TV_BOUND = 1e-6


def test_06_identical_profile_tv():
    started = time.perf_counter()
    n = 50

    def tv_for(beta):
        state = lw.evolve(lw.localized_ladder(half_width=n + 2),
                          lw.Ladder(-math.pi / 4, beta), n)
        side0, side1 = lw.side_marginals(state)
        return lw.total_variation(side0 / np.sum(side0), side1 / np.sum(side1))

    tv_identical = tv_for(3 * math.pi / 4)
    tv_reference = tv_for(math.pi / 2)
    assert tv_identical < IDENTICAL_PROFILE_TV_BOUND, tv_identical
    assert tv_reference > tv_identical
    elapsed = time.perf_counter() - started
    report(6, "identical side profiles", elapsed)


def test_07_mutual_information_structure():
    started = time.perf_counter()
    alpha = parse_grid("-1/4pi:-1/4pi:1")[0]
    grid = parse_grid("-pi:pi:65")
    assert len(grid) == 65
    summaries = [lw.walk_summary(alpha, beta) for beta in grid]
    information = [s.mutual_information for s in summaries]

    at_zero = next(i for i, b in enumerate(grid) if b.pi_fraction == 0)
    assert information[at_zero] == summaries[at_zero].s1  # exact equality

    minimum = min(information)
    argmin = {grid[i].pi_fraction for i, v in enumerate(information)
              if v == minimum}
    assert argmin == {Fraction(-3, 4), Fraction(3, 4)}
    elapsed = time.perf_counter() - started
    report(7, "mutual information structure", elapsed)


def test_08_invariant_fuzz_suite():
    started = time.perf_counter()
    rng = np.random.default_rng(12345)
    draws = 1000
    for _ in range(draws):
        alpha, beta, gamma = rng.uniform(-math.pi, math.pi, size=3)
        n = int(rng.integers(0, 7))

        kind = rng.integers(0, 3)
        if kind == 0:
            state = lw.evolve(lw.localized_walker(half_width=8),
                              lw.Conventional(gamma), n)
            dist = lw.position_distribution(state)
            support = state.sites()[dist > 0]
            if support.size:
                assert np.max(np.abs(support)) <= n
                assert np.all((support - n) % 2 == 0)
        elif kind == 1:
            state = lw.evolve(lw.localized_walker(half_width=8),
                              lw.SplitStep(alpha, beta), n)
            dist = lw.position_distribution(state)
            support = state.sites()[dist > 0]
            if support.size:
                assert np.max(np.abs(support)) <= n
        else:
            state = lw.evolve(lw.localized_ladder(half_width=8),
                              lw.Ladder(alpha, beta), n)
            joint = lw.position_distribution(state)
            occupied = state.rungs()[np.any(joint > 0, axis=0)]
            if occupied.size:
                assert np.max(np.abs(occupied)) <= n
        assert abs(state.norm_sq() - 1.0) <= 1e-10

        rho1 = lw.asymptotic_rho(float(rng.uniform(-2 * math.pi, 2 * math.pi)))
        rho2 = lw.asymptotic_rho(float(rng.uniform(-2 * math.pi, 2 * math.pi)))
        for rho in (rho1, rho2):
            assert abs(rho.rho11 + rho.rho22 - 1.0) <= 1e-12
            assert rho.determinant >= -1e-12
            s = lw.entropy(rho)
            assert 0.0 <= s <= 1.0
        s1, s2 = lw.entropy(rho1), lw.entropy(rho2)
        assert lw.entropy(lw.average_rho(rho1, rho2)) >= (s1 + s2) / 2 - 1e-12
    elapsed = time.perf_counter() - started
    assert elapsed < 30.0
    report(8, f"invariant fuzz suite ({draws} draws)", elapsed)
