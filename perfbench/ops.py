"""Running one op and checking its output with the benchmark's own formulas.

An op runs in process, through ``demandtier.cli.main(argv)`` with standard
output captured. An exception escaping ``main`` is what a shell user sees as a
traceback, so it is a failure of kind ``traceback``. The failure kinds are:

- ``traceback``: an exception out of ``main`` (exit 1);
- ``exit2_on_valid``: exit 2 on a scenario the generator built valid;
- ``exit3``: exit 3;
- ``nonfinite_output``: NaN or inf where the output must be finite;
- ``bad_output``: any other output that fails its check.
"""

from __future__ import annotations

import contextlib
import csv
import io
import math
import time
import traceback
from dataclasses import dataclass

from perfbench.workloads import unified_coefficients

# .12g output: the printed value is within this relative distance of the true one
PRINT_REL = 5e-12
# slack for evaluating the residual with a different operation order
EVAL_SLACK = 64 * 2.2e-16


@dataclass
class OpRun:
    rc: int
    wall_s: float
    stdout: str
    error: str = ""


def run_inprocess(argv: list[str], stdout=None) -> OpRun:
    """Call ``demandtier.cli.main(argv)`` with standard output and error captured.

    ``stdout`` may be any text sink; the default is a fresh ``io.StringIO``.
    """
    from demandtier import cli

    out = stdout if stdout is not None else io.StringIO()
    err = io.StringIO()
    error = ""
    t0 = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = cli.main(argv)
        except SystemExit as exc:  # argparse rejects an argv
            rc = exc.code if isinstance(exc.code, int) else 1
        except Exception:  # noqa: BLE001 - a traceback is the measured outcome
            rc = 1
            error = traceback.format_exc(limit=3)
    wall = time.perf_counter() - t0
    if not error and rc:
        error = err.getvalue()[-500:]
    return OpRun(rc=rc, wall_s=wall, stdout=out.getvalue(), error=error)


def exit_kind(rc: int) -> str | None:
    if rc == 0:
        return None
    if rc == 2:
        return "exit2_on_valid"
    if rc == 3:
        return "exit3"
    return "traceback"


# ---------------------------------------------------------------- own formulas


def own_residual(params: dict, E: float, p: float) -> float:
    """T(p; E) - p written out from the model, independent of the package."""
    prefs = params["preferences"]
    nu, phi1, phi2, chi1, chi2 = params["coefficients"]
    a = min(prefs["alpha_hi"],
            max(prefs["alpha_lo"], prefs["alpha_base"] + prefs["alpha_slope"] * E))
    s = a / (a + (1.0 - a) * p)
    u = 1.0 - s
    g_h = 1.0 + nu * E + phi1 * s - phi2 * s**3
    g_l = 1.0 + chi1 * u - chi2 * u**3
    return p * g_l / g_h - p


def residual_ratio(params: dict, E: float, p: float, printed: bool) -> float:
    """|T(p*) - p*| over the solver's bound bisect_tol * max(1, p*).

    For a root read back from CSV (``printed``), the bound widens by what the
    12-digit rounding of p* can move the residual: |F'(p*)| * p* * PRINT_REL.
    """
    bound = params["bisect_tol"] * max(1.0, p) + EVAL_SLACK * max(1.0, p)
    if printed:
        h = 1e-7 * p
        slope = (own_residual(params, E, p + h) - own_residual(params, E, p - h)) / (2 * h)
        bound += abs(slope) * p * PRINT_REL
    return abs(own_residual(params, E, p)) / bound


def check_params(op) -> dict:
    """The parameters an op's output check needs.

    The package's loader only fills in the defaults the op's scenario omits;
    the checks themselves use the formulas above.
    """
    from demandtier.scenario import load_scenario_dict, scenario_to_dict

    full = scenario_to_dict(load_scenario_dict(op.scenario or {}))
    rows = {
        "simulate": full["simulation"]["horizon"],
        "planner-foc": full["planner"]["horizon"],
        "statics": full["statics"]["y_points"],
    }.get(op.command)
    return {
        "preferences": full["preferences"],
        "coefficients": unified_coefficients(full["learning"]),
        "bisect_tol": full["solver"]["bisect_tol"],
        "marginal_tol": full["solver"]["marginal_tol"],
        "refine_tol": full["sweep"]["refine_tol"],
        "sweep": full["sweep"],
        "rows": rows,
    }


# ---------------------------------------------------------------- output checks


class BadOutput(Exception):
    def __init__(self, kind: str, detail: str):
        super().__init__(detail)
        self.kind = kind
        self.detail = detail


def _floats(row: list[str], where: str) -> list[float]:
    try:
        values = [float(v) for v in row]
    except ValueError as exc:
        raise BadOutput("bad_output", f"{where}: {exc}") from exc
    if not all(math.isfinite(v) for v in values):
        raise BadOutput("nonfinite_output", f"{where}: non-finite value in {row}")
    return values


def _table(text: str, header: str) -> list[list[str]]:
    rows = list(csv.reader(io.StringIO(text)))
    if not rows or ",".join(rows[0]) != header:
        raise BadOutput("bad_output", f"expected header {header!r}")
    return rows[1:]


def _check_rows(rows: list, expected: int, what: str) -> None:
    if len(rows) != expected:
        raise BadOutput("bad_output", f"{what}: {len(rows)} rows, expected {expected}")


def _check_root(params: dict, E: float, p: float, where: str) -> None:
    ratio = residual_ratio(params, E, p, printed=True)
    if not ratio <= 1.0:
        raise BadOutput("bad_output", f"{where}: residual at p*={p!r} is {ratio:.3g}x its bound")


def check_fixed_points(text: str, params: dict, E: float) -> None:
    tol = params["marginal_tol"]
    for n, row in enumerate(_table(text, "E,p_star,s_star,t_prime,stability")):
        _, p, s, t_prime = _floats(row[:4], f"row {n}")
        label = row[4]
        mag = abs(t_prime)
        want = "stable" if mag < 1 - tol else "unstable" if mag > 1 + tol else "marginal"
        if label != want:
            raise BadOutput("bad_output", f"row {n}: |t_prime|={mag!r} labelled {label}")
        if not 0.0 < s < 1.0:
            raise BadOutput("bad_output", f"row {n}: share {s} outside (0, 1)")
        _check_root(params, E, p, f"row {n}")


def check_bifurcation(text: str, params: dict) -> None:
    import numpy as np

    locus_text, sep, thresholds_text = text.partition("\n\n")
    if not sep:
        raise BadOutput("bad_output", "missing blank line between locus and thresholds")
    sw = params["sweep"]
    grid = np.linspace(sw["E_min"], sw["E_max"], sw["E_points"])
    e_of = {format(float(e), ".12g"): float(e) for e in grid}
    seen = set()
    for n, row in enumerate(_table(locus_text, "E,p_star,stability")):
        if row[0] not in e_of:
            raise BadOutput("bad_output", f"locus row {n}: E={row[0]} not on the grid")
        seen.add(row[0])
        if row[1] == "":
            continue
        (p,) = _floats(row[1:2], f"locus row {n}")
        if row[2] not in ("stable", "unstable", "marginal"):
            raise BadOutput("bad_output", f"locus row {n}: label {row[2]!r}")
        _check_root(params, e_of[row[0]], p, f"locus row {n}")
    if len(seen) != len(e_of):
        raise BadOutput("bad_output", f"locus covers {len(seen)} of {len(e_of)} E levels")
    for n, row in enumerate(_table(thresholds_text, "E_bar,s_bar,res_H,res_dHds")):
        e_bar, s_bar, res_h, res_ds = _floats(row, f"threshold {n}")
        if not (sw["E_min"] < e_bar < sw["E_max"] and 0.0 < s_bar < 1.0):
            raise BadOutput("bad_output", f"threshold {n} outside the sweep: {row}")
        if max(res_h, res_ds) > params["refine_tol"]:
            raise BadOutput("bad_output", f"threshold {n} residuals {res_h}, {res_ds}")


def _finite_text(text: str) -> bool:
    # .12g formatting writes every non-finite float as nan, inf or -inf
    return "nan" not in text and "inf" not in text


def _check_shape(text: str, header: str, rows_expected: int, what: str) -> None:
    if text.partition("\n")[0] != header:
        raise BadOutput("bad_output", f"expected header {header!r}")
    _check_rows(range(text.count("\n") - 1), rows_expected, what)


def check_simulate(text: str, rows_expected: int) -> None:
    header = "t,p,s_Q,a_H,a_L,c_L,c_H,share_H,utility,interior_flag"
    _check_shape(text, header, rows_expected, "simulate")
    if _finite_text(text):
        return
    for row in _table(text, header):
        if row[9] == "1":
            _floats(row[1:9], f"interior row t={row[0]}")


def check_planner(text: str, rows_expected: int) -> None:
    header = "t,preference_term,spillover_term,shadow_cost,wedge,lambda,eta"
    _check_shape(text, header, rows_expected, "planner-foc")
    if _finite_text(text):
        return
    for row in _table(text, header):
        _floats(row[1:], f"row t={row[0]}")


def check_statics(text: str, rows_expected: int) -> None:
    rows = _table(text, "Y,c_L,c_H,share_H,share_L,eta_H,eta_L,interior_flag")
    _check_rows(rows, rows_expected, "statics")
    for n, row in enumerate(rows):
        if row[7] != "1":
            continue
        _, _, _, share_h, share_l, eta_h, _ = _floats(row[:7], f"row {n}")
        if abs(share_h + share_l - 1.0) > 4 * PRINT_REL:
            raise BadOutput("bad_output", f"row {n}: share_H + share_L = {share_h + share_l!r}")
        if not eta_h > 1.0:
            raise BadOutput("bad_output", f"row {n}: eta_H = {eta_h!r} is not > 1")


def check_output(op, text: str, params: dict) -> None:
    """Raise BadOutput if an op's standard output fails its check."""
    if op.command == "fixed-points":
        check_fixed_points(text, params, float(op.argv[op.argv.index("--E") + 1]))
    elif op.command == "bifurcation":
        check_bifurcation(text, params)
    elif op.command == "simulate":
        check_simulate(text, params["rows"])
    elif op.command == "planner-foc":
        check_planner(text, params["rows"])
    elif op.command == "statics":
        check_statics(text, params["rows"])
    else:
        raise ValueError(f"no check for command {op.command}")
