"""Command-line interface: deterministic CSV emission for every engine module.

Subcommands: fixed-points, bifurcation, simulate, statics, planner-foc.
Standard output carries CSV; diagnostics go to standard error. Exit codes:
0 success, 2 validation error, 3 numerical failure (a root that fails its
residual bound, or a flagged transition under --strict). Floats are printed
with 12 significant digits (``%.12g``, the same text as ``format(x, '.12g')``)
so identical scenarios yield byte-identical files.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import Iterable

import numpy as np

from . import __version__
from .bifurcation import sweep
from .demand import alpha_of, demand_arrays
from .dynamics import TechnologyState, simulate_path
from .errors import ConfigError, DemandTierError, NoConvergence
from .planner import evaluate_foc
from .scenario import Scenario, default_scenario, dump_scenario, load_scenario
from .solver import find_fixed_points

EXIT_VALIDATION = 2
EXIT_NUMERICAL = 3


def _write_text(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        Path(out).write_text(text, encoding="utf-8", newline="")


def _csv(header: str, row_format: str, rows: Iterable[tuple]) -> str:
    """The header line, then one line per row, each row %-formatted whole.

    ``row_format`` holds one field per column and no newline; floats take
    ``%.12g``.
    """
    line = row_format + "\n"
    return header + "\n" + "".join([line % row for row in rows])


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
    rows = [(e_val, fp.p_star, fp.s_star, fp.t_prime, fp.stability.value) for fp in roots]
    _write_text(
        _csv("E,p_star,s_star,t_prime,stability", "%.12g,%.12g,%.12g,%.12g,%s", rows), out
    )
    return 0


def cmd_bifurcation(
    scenario: Scenario,
    out: str | None,
    thresholds_out: str | None,
    strict: bool,
) -> int:
    diagram = sweep(scenario.preferences, scenario.learning, scenario.sweep, scenario.solver)
    # a level with no fixed point keeps a row with empty fields
    locus_rows: list[tuple] = []
    for row in diagram.rows:
        if not row.roots:
            locus_rows.append((row.E, "", ""))
        for fp in row.roots:
            locus_rows.append((row.E, "%.12g" % fp.p_star, fp.stability.value))
    locus_csv = _csv("E,p_star,stability", "%.12g,%s,%s", locus_rows)

    threshold_rows = [(sn.E_bar, sn.s_bar, *sn.residuals) for sn in diagram.thresholds]
    thresholds_csv = _csv(
        "E_bar,s_bar,res_H,res_dHds", "%.12g,%.12g,%.12g,%.12g", threshold_rows
    )

    flagged = [t for t in diagram.transitions if t.saddle is None]
    for t in flagged:
        sys.stderr.write(
            "transition in (%.12g, %.12g) [%d -> %d roots] not refined: %s\n"
            % (t.E_lo, t.E_hi, t.count_lo, t.count_hi, t.note)
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
    columns = (path.t, path.p, path.s_q, path.a_h, path.a_l,
               path.c_l, path.c_h, path.share_h, path.utility, path.interior)
    _write_text(
        _csv(
            "t,p,s_Q,a_H,a_L,c_L,c_H,share_H,utility,interior_flag",
            "%d" + ",%.12g" * 8 + ",%d",
            zip(*[col.tolist() for col in columns]),
        ),
        out,
    )
    return 0


def cmd_statics(scenario: Scenario, E: float | None, out: str | None) -> int:
    st = scenario.statics
    if scenario.preferences.gamma_H != 0.0:
        raise ConfigError("statics requires gamma_H = 0 (income elasticities)")
    e_val = E if E is not None else st.E
    incomes = np.linspace(st.y_min, st.y_max, st.y_points)
    # income elasticities as in income_elasticities: eta_H = Y/B and
    # eta_L = (1-alpha)/share_L; every column is NaN on non-interior rows
    demand = demand_arrays(scenario.preferences, incomes, st.price_H, e_val)
    share_l = 1.0 - demand.share_H
    eta_h = incomes / demand.supernumerary
    eta_l = (1.0 - alpha_of(scenario.preferences, e_val)) / share_l
    columns = (incomes, demand.c_L, demand.c_H, demand.share_H, share_l,
               eta_h, eta_l, demand.interior)
    _write_text(
        _csv(
            "Y,c_L,c_H,share_H,share_L,eta_H,eta_L,interior_flag",
            ",".join(["%.12g"] * 7) + ",%d",
            zip(*[col.tolist() for col in columns]),
        ),
        out,
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
    columns = (report.t, report.preference_term, report.spillover_term,
               report.shadow_cost, report.wedge, report.lambda_t, report.eta_t)
    _write_text(
        _csv(
            "t,preference_term,spillover_term,shadow_cost,wedge,lambda,eta",
            "%d" + ",%.12g" * 6,
            zip(*[col.tolist() for col in columns]),
        ),
        out,
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
