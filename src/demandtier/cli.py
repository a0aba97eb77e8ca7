"""Command-line interface: deterministic CSV emission for every engine module.

Subcommands: fixed-points, bifurcation, simulate, statics, planner-foc.
Standard output carries CSV; diagnostics go to standard error. Exit codes:
0 success, 2 validation error, 3 numerical failure (a root that fails its
residual bound, or a flagged transition under --strict). Floats are printed
with 12 significant digits so identical scenarios yield byte-identical files.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .bifurcation import sweep
from .demand import HouseholdBudget, income_elasticities, solve_demand
from .dynamics import TechnologyState, simulate_path
from .errors import ConfigError, DemandTierError, NoConvergence, NonInteriorBudget
from .planner import evaluate_foc
from .scenario import Scenario, default_scenario, dump_scenario, load_scenario
from .solver import find_fixed_points

EXIT_VALIDATION = 2
EXIT_NUMERICAL = 3


def _fmt(x) -> str:
    return format(float(x), ".12g")


def _write_text(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        Path(out).write_text(text, encoding="utf-8", newline="")


def _csv(header: str, rows: list[list[str]]) -> str:
    lines = [header]
    lines.extend(",".join(row) for row in rows)
    return "\n".join(lines) + "\n"


def _scalar_education(scenario: Scenario, override: float | None) -> float:
    if override is not None:
        return override
    e = scenario.simulation.E
    if isinstance(e, list):
        raise ConfigError(
            "scenario simulation E is a path; pass --E to pick the education level"
        )
    return float(e)


def cmd_fixed_points(scenario: Scenario, E: float | None, out: str | None) -> int:
    e_val = _scalar_education(scenario, E)
    roots = find_fixed_points(scenario.preferences, scenario.learning, e_val, scenario.solver)
    rows = [
        [_fmt(e_val), _fmt(fp.p_star), _fmt(fp.s_star), _fmt(fp.t_prime), fp.stability.value]
        for fp in roots
    ]
    _write_text(_csv("E,p_star,s_star,t_prime,stability", rows), out)
    return 0


def cmd_bifurcation(
    scenario: Scenario,
    out: str | None,
    thresholds_out: str | None,
    strict: bool,
) -> int:
    diagram = sweep(scenario.preferences, scenario.learning, scenario.sweep, scenario.solver)
    locus_rows: list[list[str]] = []
    for row in diagram.rows:
        if not row.roots:
            locus_rows.append([_fmt(row.E), "", ""])
        for fp in row.roots:
            locus_rows.append([_fmt(row.E), _fmt(fp.p_star), fp.stability.value])
    locus_csv = _csv("E,p_star,stability", locus_rows)

    threshold_rows = [
        [_fmt(sn.E_bar), _fmt(sn.s_bar), _fmt(sn.residuals[0]), _fmt(sn.residuals[1])]
        for sn in diagram.thresholds
    ]
    thresholds_csv = _csv("E_bar,s_bar,res_H,res_dHds", threshold_rows)

    flagged = [t for t in diagram.transitions if t.saddle is None]
    for t in flagged:
        sys.stderr.write(
            f"transition in ({_fmt(t.E_lo)}, {_fmt(t.E_hi)}) "
            f"[{t.count_lo} -> {t.count_hi} roots] not refined: {t.note}\n"
        )
    if strict and flagged:
        sys.stderr.write("aborting: --strict treats unrefined transitions as failures\n")
        return EXIT_NUMERICAL

    if out is None and thresholds_out is None:
        sys.stdout.write(locus_csv + "\n" + thresholds_csv)
    else:
        _write_text(locus_csv, out)
        if thresholds_out is None:
            sys.stdout.write(thresholds_csv)
        else:
            _write_text(thresholds_csv, thresholds_out)
    return 0


def cmd_simulate(scenario: Scenario, E: float | None, out: str | None) -> int:
    sim = scenario.simulation
    initial = TechnologyState(a_H=sim.a_H0, a_L=sim.a_L0, wage=sim.wage)
    e_path = E if E is not None else sim.E
    path = simulate_path(
        scenario.preferences, scenario.learning, initial,
        e_path, sim.income, sim.horizon,
    )
    rows = []
    for t in range(len(path)):
        rows.append(
            [
                str(int(path.t[t])),
                _fmt(path.p[t]), _fmt(path.s_q[t]),
                _fmt(path.a_h[t]), _fmt(path.a_l[t]),
                _fmt(path.c_l[t]), _fmt(path.c_h[t]),
                _fmt(path.share_h[t]), _fmt(path.utility[t]),
                "1" if path.interior[t] else "0",
            ]
        )
    _write_text(_csv("t,p,s_Q,a_H,a_L,c_L,c_H,share_H,utility,interior_flag", rows), out)
    return 0


def cmd_statics(scenario: Scenario, E: float | None, out: str | None) -> int:
    st = scenario.statics
    if scenario.preferences.gamma_H != 0.0:
        raise ConfigError("statics requires gamma_H = 0 (income elasticities)")
    e_val = E if E is not None else st.E
    incomes = np.linspace(st.y_min, st.y_max, st.y_points)
    rows = []
    nan = _fmt(float("nan"))
    for y in incomes:
        budget = HouseholdBudget(income=float(y), price_H=st.price_H)
        try:
            sol = solve_demand(scenario.preferences, budget, e_val)
            eta = income_elasticities(scenario.preferences, budget, e_val)
        except NonInteriorBudget:
            rows.append([_fmt(y)] + [nan] * 6 + ["0"])
            continue
        rows.append(
            [
                _fmt(y), _fmt(sol.c_L), _fmt(sol.c_H),
                _fmt(sol.share_H), _fmt(sol.share_L),
                _fmt(eta.eta_H), _fmt(eta.eta_L), "1",
            ]
        )
    _write_text(
        _csv("Y,c_L,c_H,share_H,share_L,eta_H,eta_L,interior_flag", rows), out
    )
    return 0


def cmd_planner_foc(scenario: Scenario, out: str | None) -> int:
    sim = scenario.simulation
    initial = TechnologyState(a_H=sim.a_H0, a_L=sim.a_L0, wage=sim.wage)
    path = simulate_path(
        scenario.preferences, scenario.learning, initial,
        sim.E, sim.income, max(sim.horizon, scenario.planner.horizon),
    )
    report = evaluate_foc(scenario.preferences, scenario.learning, scenario.planner, path)
    rows = []
    for t in range(len(report)):
        rows.append(
            [
                str(int(report.t[t])),
                _fmt(report.preference_term[t]), _fmt(report.spillover_term[t]),
                _fmt(report.shadow_cost[t]), _fmt(report.wedge[t]),
                _fmt(report.lambda_t[t]), _fmt(report.eta_t[t]),
            ]
        )
    _write_text(
        _csv("t,preference_term,spillover_term,shadow_cost,wedge,lambda,eta", rows), out
    )
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="demandtier",
        description="Demand-hierarchy equilibrium engine: fixed points, education sweeps, "
        "simulations, demand statics, and planner diagnostics as deterministic CSV.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    parser.add_argument(
        "--dump-defaults", action="store_true",
        help="print the built-in default scenario as JSON and exit",
    )
    parser.add_argument("--out", help="output path for --dump-defaults", default=None)
    sub = parser.add_subparsers(dest="command")

    def common(p, with_e=False):
        p.add_argument("--scenario", help="scenario JSON file (defaults built in)")
        p.add_argument("--out", help="write the CSV here instead of standard output")
        if with_e:
            p.add_argument("--E", type=float, default=None, help="education level override")

    common(sub.add_parser("fixed-points", help="fixed points of the price map at one E"),
           with_e=True)
    p_bif = sub.add_parser("bifurcation", help="education sweep: root locus and thresholds")
    common(p_bif)
    p_bif.add_argument("--thresholds-out", help="write the thresholds CSV here")
    p_bif.add_argument(
        "--workers", type=int, default=1,
        help="accepted for compatibility; the sweep is serial and this has no effect",
    )
    p_bif.add_argument(
        "--strict", action="store_true",
        help="exit 3 if any root-count transition is not a saddle-node",
    )
    common(sub.add_parser("simulate", help="forward time path"), with_e=True)
    common(sub.add_parser("statics", help="shares and income elasticities over an income grid"),
           with_e=True)
    common(sub.add_parser("planner-foc", help="planner education FOC terms along a path"))
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)

    if args.dump_defaults:
        _write_text(dump_scenario(default_scenario()), args.out)
        return 0
    if args.command is None:
        parser.print_usage(sys.stderr)
        sys.stderr.write("error: a subcommand (or --dump-defaults) is required\n")
        return EXIT_VALIDATION

    try:
        scenario = load_scenario(args.scenario)
        if args.command == "fixed-points":
            return cmd_fixed_points(scenario, args.E, args.out)
        if args.command == "bifurcation":
            return cmd_bifurcation(scenario, args.out, args.thresholds_out, args.strict)
        if args.command == "simulate":
            return cmd_simulate(scenario, args.E, args.out)
        if args.command == "statics":
            return cmd_statics(scenario, args.E, args.out)
        if args.command == "planner-foc":
            return cmd_planner_foc(scenario, args.out)
    except NoConvergence as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_NUMERICAL
    except (DemandTierError, OSError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_VALIDATION
    raise AssertionError(f"unhandled command {args.command}")


if __name__ == "__main__":
    sys.exit(main())
