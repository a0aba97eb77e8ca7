"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with  pytest tests/test_acceptance.py -v -s  to see the per-criterion
lines alongside the pytest verdicts. Tolerances are pinned here and nowhere
else; the golden values come from the committed dense-grid oracle CSV
(tests/make_goldens.py) and the closed-form threshold oracle.
"""

import json
import subprocess
import sys
import time

import numpy as np

from demandtier import (
    HouseholdBudget,
    gammaL_of,
    LearningSpec,
    PlannerConfig,
    PreferenceSchedule,
    SolverConfig,
    Stability,
    TechnologyState,
    channel_condition,
    dshare_H_dE,
    evaluate_foc,
    find_fixed_points,
    h_ratio,
    income_elasticities,
    price_map,
    simulate_path,
    solve_demand,
    sweep,
)

import oracles
from conftest import load_goldens

SCHED = PreferenceSchedule()
CUBIC = LearningSpec.cubic(nu=0.6, phi1=0.8, phi2=1.0, chi1=1.2, chi2=1.5)
LINEAR = LearningSpec.linear(nu=0.6, phi=0.8, chi=1.2)
CFG = SolverConfig()
GOLDEN = load_goldens()


def check(num, name, ok, detail=""):
    verdict = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {num:02d} {name}: {verdict}" + (f" ({detail})" if detail else ""))
    assert ok, f"criterion {num} ({name}) failed {detail}"


def _warm_kernels():
    find_fixed_points(SCHED, CUBIC, 0.2, CFG)
    simulate_path(SCHED, CUBIC, TechnologyState(a_H=1.0, a_L=2.0), 0.2, 10.0, 4)


def test_criterion_01_headline_root_structure():
    _warm_kernels()
    t0 = time.perf_counter()
    by_e = {e: find_fixed_points(SCHED, CUBIC, e, CFG) for e in (0.145, 0.215, 0.280)}
    elapsed = time.perf_counter() - t0
    ok = (
        [fp.stability for fp in by_e[0.145]] == [Stability.STABLE]
        and [fp.stability for fp in by_e[0.215]]
        == [Stability.STABLE, Stability.UNSTABLE, Stability.STABLE]
        and [fp.stability for fp in by_e[0.280]] == [Stability.STABLE]
        and elapsed < 1.0
    )
    check(1, "headline root structure", ok, f"runtime {elapsed:.3f}s")


def test_criterion_02_root_locus_sweep():
    _warm_kernels()
    t0 = time.perf_counter()
    diagram = sweep(SCHED, CUBIC)
    elapsed = time.perf_counter() - t0
    levels = [t.E for t in diagram.transitions]
    in_first = any(0.145 < e < 0.215 for e in levels)
    in_second = any(0.215 < e < 0.280 for e in levels)
    refined = [t for t in diagram.transitions if t.saddle is not None]
    thresholds_ok = len(diagram.thresholds) >= 2 and all(
        sn.residuals[0] <= 1e-8 and sn.residuals[1] <= 1e-8 for sn in diagram.thresholds
    )
    containment_ok = all(t.E == t.saddle.E_bar for t in refined)
    ok = in_first and in_second and thresholds_ok and containment_ok and elapsed < 10.0
    check(2, "root-locus sweep and thresholds", ok, f"runtime {elapsed:.3f}s")


def test_criterion_03_bisection_residuals():
    ok = True
    for e in (0.145, 0.215, 0.280):
        roots = find_fixed_points(SCHED, CUBIC, e, CFG)
        for fp in roots:
            residual = price_map(SCHED, CUBIC, fp.p_star, e) - fp.p_star
            ok &= abs(residual) <= 1e-12 * max(1.0, fp.p_star)
        p_values = [fp.p_star for fp in roots]
        ok &= all(b - a > 1e-7 for a, b in zip(p_values, p_values[1:]))
    check(3, "bisection residuals and dedup gaps", ok)


def test_criterion_04_stability_formula_equivalence():
    ok = True
    for e in (0.145, 0.215, 0.280):
        for fp in find_fixed_points(SCHED, CUBIC, e, CFG):
            h = 1e-6 * fp.p_star
            fd = (
                price_map(SCHED, CUBIC, fp.p_star + h, e)
                - price_map(SCHED, CUBIC, fp.p_star - h, e)
            ) / (2.0 * h)
            ok &= abs(fp.t_prime - fd) <= 1e-5 * abs(fd)
    linear_roots = 0
    for e in np.linspace(0.05, 0.45, 9):
        for fp in find_fixed_points(SCHED, LINEAR, float(e), CFG):
            linear_roots += 1
            ok &= abs(fp.t_prime) > 1.0 and fp.stability is Stability.UNSTABLE
    ok &= linear_roots > 0
    check(4, "analytic map slope vs finite differences", ok, f"{linear_roots} linear roots")


def test_criterion_05_demand_identities():
    rng = np.random.default_rng(20240811)
    failures = []
    h = 1e-6
    for i in range(10_000):
        sched = PreferenceSchedule(
            alpha_base=rng.uniform(0.3, 0.7),
            alpha_slope=rng.uniform(0.01, 0.3),
            alpha_lo=0.01,
            alpha_hi=0.99,
            gammaL_base=rng.uniform(0.05, 5.0),
            gammaL_decay=rng.uniform(0.0, 2.0),
        )
        e = rng.uniform(0.0, 0.9)
        price_l = rng.uniform(0.1, 5.0)
        price_h = rng.uniform(0.1, 5.0)
        income = price_l * gammaL_of(sched, e) + rng.uniform(0.5, 50.0)
        budget = HouseholdBudget(income=income, price_H=price_h, price_L=price_l)

        sol = solve_demand(sched, budget, e)
        spending = price_l * sol.c_L + price_h * sol.c_H
        if abs(spending - income) > 1e-12 * income:
            failures.append((i, "budget"))
        lam = 10.0 ** rng.uniform(-3, 3)
        scaled = solve_demand(
            sched,
            HouseholdBudget(income=income * lam, price_H=price_h * lam, price_L=price_l * lam),
            e,
        )
        if not (
            abs(scaled.c_L - sol.c_L) <= 1e-12 * sol.c_L
            and abs(scaled.c_H - sol.c_H) <= 1e-12 * sol.c_H
            and abs(scaled.share_H - sol.share_H) <= 1e-12
        ):
            failures.append((i, "homogeneity"))
        eta = income_elasticities(sched, budget, e)
        if abs(sol.share_H * eta.eta_H + sol.share_L * eta.eta_L - 1.0) > 1e-12:
            failures.append((i, "engel"))
        if gammaL_of(sched, e) > 0.0 and not (eta.eta_H > 1.0 and eta.eta_L < 1.0):
            failures.append((i, "luxury-necessity"))
        slope = dshare_H_dE(sched, budget, e)
        lo = max(e - h, 0.0)
        fd = (
            solve_demand(sched, budget, e + h).share_H - solve_demand(sched, budget, lo).share_H
        ) / (e + h - lo)
        if not (slope.value > 0.0 and abs(slope.value - fd) <= 1e-5 * abs(fd)):
            failures.append((i, "share-slope"))
    check(5, "demand-system identities on 10k draws", not failures, f"{len(failures)} failures")


def test_criterion_06_representation_conjugacy():
    e_path = np.linspace(0.08, 0.42, 500)
    path = simulate_path(SCHED, CUBIC, TechnologyState(a_H=1.0, a_L=4.0), e_path, 10.0, 500)
    p = 4.0
    direct = np.empty(500)
    for t in range(500):
        direct[t] = p
        p = price_map(SCHED, CUBIC, p, float(e_path[t]))
    conjugate_ok = bool(np.all(np.abs(path.p - direct) <= 1e-12 * np.abs(direct)))
    other = simulate_path(
        SCHED, CUBIC, TechnologyState(a_H=1.0, a_L=4.0, wage=123.0), e_path, 10.0, 500
    )
    wage_ok = all(
        np.array_equal(getattr(path, f), getattr(other, f), equal_nan=True)
        for f in ("p", "s_q", "a_h", "a_l", "c_l", "c_h", "share_h", "utility")
    )
    check(6, "price-map vs productivity-ratio conjugacy", conjugate_ok and wage_ok)


def test_criterion_07_basin_behavior():
    ok = True
    for e, roots in GOLDEN.items():
        for p_star, _, _, label in roots:
            for sign in (-1.0, 1.0):
                start = p_star + sign * 1e-6
                path = simulate_path(
                    SCHED, CUBIC, TechnologyState(a_H=1.0, a_L=start), e, 10.0, 500
                )
                if label == "stable":
                    ok &= abs(path.p[-1] - p_star) < 1e-6
                else:
                    ok &= bool(np.max(np.abs(path.p - p_star)) > 1e-3)
    check(7, "basin behavior around stable and unstable roots", ok)


def test_criterion_08_channel_condition_consistency():
    h = 1e-7
    checked = 0
    ok = True
    for e in (0.145, 0.215, 0.280):
        for fp in find_fixed_points(SCHED, CUBIC, e, CFG):
            if abs(h_ratio(CUBIC, fp.s_star, e).dH_ds) <= CFG.marginal_tol:
                continue
            cond = channel_condition(SCHED, CUBIC, fp.p_star, e, CFG.marginal_tol)
            fd = (
                oracles.t_map(fp.p_star, e + h) - oracles.t_map(fp.p_star, e - h)
            ) / (2.0 * h)
            ok &= cond.education_lowers_price == (fd < 0.0)
            checked += 1
    ok &= checked == 5
    check(8, "education-channel condition vs finite differences", ok, f"{checked} roots")


def test_criterion_09_planner_foc_oracle():
    cfg = PlannerConfig(beta=0.95, horizon=3, kappa_scale=0.05, kappa_curv=2.0)
    path = simulate_path(SCHED, LINEAR, TechnologyState(a_H=1.0, a_L=2.0), 0.2, 10.0, 3)
    report = evaluate_foc(SCHED, LINEAR, cfg, path)
    fd = oracles.planner_fd_wedges(
        list(path.e_path),
        a_h0=path.a_h[0], a_l_path=path.a_l, y_vec=path.income_path,
        beta=cfg.beta, nu=LINEAR.nu, phi=LINEAR.phi,
        kappa_scale=cfg.kappa_scale, kappa_curv=cfg.kappa_curv,
    )
    wedges_ok = all(
        abs(analytic - numeric) <= 1e-4 * abs(numeric)
        for analytic, numeric in zip(report.wedge, fd)
    )
    terminal_ok = report.spillover_term[-1] == 0.0
    inert = LearningSpec.linear(nu=0.0, phi=0.0, chi=1.2, validate=False)
    inert_path = simulate_path(SCHED, inert, TechnologyState(a_H=1.0, a_L=2.0), 0.2, 10.0, 3)
    inert_report = evaluate_foc(SCHED, inert, cfg, inert_path)
    diagnostic_ok = bool(np.all(inert_report.spillover_term == 0.0))
    check(9, "planner FOC vs objective gradient", wedges_ok and terminal_ok and diagnostic_ok)


def test_criterion_10_cli_determinism(tmp_path):
    def run(*args):
        return subprocess.run(
            [sys.executable, "-m", "demandtier", *args], capture_output=True, text=True
        )

    dumped = tmp_path / "defaults.json"
    assert run("--dump-defaults", "--out", str(dumped)).returncode == 0
    reloaded = json.loads(dumped.read_text())
    from demandtier import default_scenario, load_scenario_dict

    round_trip_ok = load_scenario_dict(reloaded) == default_scenario()

    outputs = []
    for tag, workers in (("a", "1"), ("b", "1"), ("c", "4")):
        locus = tmp_path / f"locus_{tag}.csv"
        thresholds = tmp_path / f"thresholds_{tag}.csv"
        cp = run(
            "bifurcation", "--workers", workers,
            "--out", str(locus), "--thresholds-out", str(thresholds),
        )
        assert cp.returncode == 0, cp.stderr
        outputs.append((locus.read_bytes(), thresholds.read_bytes()))
    identical_ok = outputs[0] == outputs[1] == outputs[2]
    check(10, "CLI round-trip and byte-identical sweeps", round_trip_ok and identical_ok)
