"""Correctness gate, run before any timing.

``fixed-points`` at the golden education levels must match
``tests/data/golden_fixed_points.csv`` in root count, stability and ``p_star``
(within the golden test's own tolerance, 1e-9 * max(1, p)), and the default
sweep's thresholds must match ``oracles.saddle_node_closed_form`` (within the
threshold test's 1e-7 in both E_bar and s_bar). Both references live in the
repository's tests and are independent of the package.
"""

from __future__ import annotations

import csv
import importlib.util
import io
from pathlib import Path

from perfbench.ops import run_inprocess

P_TOL = 1e-9
THRESHOLD_TOL = 1e-7


def load_golden(root: Path) -> dict[float, list[tuple[float, str]]]:
    """{E: [(p_star, stability), ...]} from the committed oracle goldens."""
    out: dict[float, list[tuple[float, str]]] = {}
    with open(root / "tests" / "data" / "golden_fixed_points.csv", newline="") as fh:
        for row in csv.DictReader(fh):
            out.setdefault(float(row["E"]), []).append((float(row["p_star"]), row["stability"]))
    return out


def load_thresholds(root: Path) -> list[tuple[float, float]]:
    """[(E_bar, s_bar), ...] from the closed-form saddle-node oracle."""
    spec = importlib.util.spec_from_file_location("perfbench_oracles",
                                                  root / "tests" / "oracles.py")
    oracles = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(oracles)
    return oracles.saddle_node_closed_form()


def _rows(text: str) -> list[dict]:
    return list(csv.DictReader(io.StringIO(text)))


def check_fixed_points(golden) -> list[str]:
    problems = []
    for e, want in sorted(golden.items()):
        run = run_inprocess(["fixed-points", "--E", repr(e)])
        if run.rc != 0:
            problems.append(f"fixed-points --E {e} exited {run.rc}: {run.error.strip()}")
            continue
        got = [(float(r["p_star"]), r["stability"]) for r in _rows(run.stdout)]
        if len(got) != len(want):
            problems.append(f"E={e}: {len(got)} roots, golden has {len(want)}")
            continue
        for (p, label), (p_gold, label_gold) in zip(got, want):
            if label != label_gold:
                problems.append(f"E={e}: root {p} is {label}, golden says {label_gold}")
            if abs(p - p_gold) > P_TOL * max(1.0, p_gold):
                problems.append(f"E={e}: p_star {p!r} differs from golden {p_gold!r}")
    return problems


def check_thresholds(expected) -> list[str]:
    run = run_inprocess(["bifurcation"])
    if run.rc != 0:
        return [f"bifurcation exited {run.rc}: {run.error.strip()}"]
    thresholds_text = run.stdout.partition("\n\n")[2]
    got = sorted((float(r["E_bar"]), float(r["s_bar"])) for r in _rows(thresholds_text))
    if len(got) != len(expected):
        return [f"{len(got)} thresholds, the closed form has {len(expected)}"]
    problems = []
    for (e_bar, s_bar), (e_want, s_want) in zip(got, sorted(expected)):
        if abs(e_bar - e_want) > THRESHOLD_TOL or abs(s_bar - s_want) > THRESHOLD_TOL:
            problems.append(f"threshold ({e_bar!r}, {s_bar!r}) differs from the closed "
                            f"form ({e_want!r}, {s_want!r})")
    return problems


def run_gate(root: Path, golden=None, thresholds=None) -> list[str]:
    """Every mismatch found; an empty list means the gate passed."""
    golden = load_golden(root) if golden is None else golden
    thresholds = load_thresholds(root) if thresholds is None else thresholds
    return check_fixed_points(golden) + check_thresholds(thresholds)
