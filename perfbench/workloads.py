"""Seeded op generators for the two workloads.

An op is one ``demandtier`` command: an argv and, where it needs one, a
scenario written to a file. ``deck(workload, seed)`` yields an endless,
deterministic sequence of ops; op ``i`` depends only on the workload, the seed
and ``i``, so any prefix is reproducible without generating the rest.

Op sizes are log-uniform quantiles taken in van der Corput order rather than
random draws, and they do not depend on the seed: every prefix of a deck then
covers the size range evenly, so a run that stops after a time budget sees
the same size mix on every seed and medians and tails do not wander with it.
The seed draws everything else: calibrations, education levels, incomes and
initial states.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

WORKLOAD_NAMES = ("sweep-calibrations", "paths-long")

# Known defects, kept at their stated sizes. They are not in the timed decks:
# every run replays them untimed before timing and reports whether each still
# fails (see ``known_defects``), so the timed ops are ones that must succeed.
DEFECT_SWEEP_4001 = "sweep-4001-recheck-runtimeerror"
DEFECT_CUBIC_20000 = "cubic-horizon-20000-overflow"
DEFECT_LINEAR_5000 = "linear-horizon-5000-nonfinite"

# Root tolerance of the random sweep-calibrations ops (the default is 1e-12).
# At the default, the solver's re-check of a bisection root loses a rounding
# race about once per 10^5 roots and the op exits 1: the known defect
# DEFECT_SWEEP_4001, which every run replays at the default tolerance. The
# race is lost when the accepted residual lies within rounding (about 1e-4
# of the bound) of bisect_tol * max(1, p*), so its rate falls as 1/bisect_tol:
# at 1e-9 a 35-second run would hit it about once in 4000 runs. Each row still
# scans the same 4001-point grid; bisection takes about 10 fewer halvings.
SWEEP_BISECT_TOL = 1e-9

# A simulated level may move by at most exp(LOG_BUDGET) over a path; levels
# and their ratio then stay far inside float range (exp(709) overflows).
LOG_BUDGET = 600.0

@dataclass
class Op:
    """One command of a workload.

    ``scenario`` is the JSON the program reads through ``--scenario`` (None
    runs on the built-in defaults); ``argv`` omits that flag, which the runner
    adds once the file is written. ``work`` counts the op's attempted work
    units and ``defect`` names the known defect the op reproduces.
    """

    index: int
    command: str
    argv: list
    scenario: dict | None
    work: int
    defect: str | None = None


def radical_inverse(j: int, base: int = 2) -> float:
    """Van der Corput point j in [0, 1) in the given base."""
    x, scale = 0.0, 1.0 / base
    while j:
        j, digit = divmod(j, base)
        x += digit * scale
        scale /= base
    return x


def _log_uniform(lo: float, hi: float, j: int) -> int:
    """Size j of a stream: the log-uniform quantile at van der Corput point j."""
    return int(round(lo * (hi / lo) ** radical_inverse(j)))


def random_preferences(rng: random.Random) -> dict:
    return {
        "alpha_base": rng.uniform(0.70, 0.85),
        "alpha_slope": rng.uniform(0.05, 0.30),
        "alpha_lo": rng.uniform(0.55, 0.65),
        "alpha_hi": rng.uniform(0.93, 0.98),
        "gammaL_base": rng.uniform(1.0, 3.0),
        "gammaL_decay": rng.uniform(0.2, 0.8),
        "gamma_H": 0.0,
    }


def random_learning(rng: random.Random, variant: str) -> dict:
    """Valid learning coefficients: both growth factors stay > 0 on [0, 1]."""
    if variant == "linear":
        return {
            "variant": "linear",
            "nu": rng.uniform(0.3, 0.9),
            "phi": rng.uniform(0.3, 1.2),
            "chi": rng.uniform(0.5, 1.5),
        }
    phi1 = rng.uniform(0.5, 1.1)
    chi1 = rng.uniform(0.8, 1.6)
    return {
        "variant": "cubic",
        "nu": rng.uniform(0.3, 0.9),
        "phi1": phi1,
        # g(1) = 1 + c1 - c2 > 0 bounds the cubic term; 0.9 keeps a margin
        "phi2": rng.uniform(0.5, 0.9 * (1.0 + phi1)),
        "chi1": chi1,
        "chi2": rng.uniform(0.8, 0.9 * (1.0 + chi1)),
    }


def unified_coefficients(learning: dict) -> tuple[float, float, float, float, float]:
    """(nu, phi1, phi2, chi1, chi2), linear learning as zero cubic terms."""
    if learning["variant"] == "linear":
        return learning["nu"], learning["phi"], 0.0, learning["chi"], 0.0
    return (learning["nu"], learning["phi1"], learning["phi2"],
            learning["chi1"], learning["chi2"])


def _scale_learning(learning: dict, e_max: float, horizon: int) -> dict:
    """Slow learning down so levels cannot leave float range within the horizon.

    The per-period change of log(a_L/a_H) is at most max|log g_H| + max|log g_L|
    over s in [0, 1]; all learning rates shrink by one factor until that bound
    times the horizon is LOG_BUDGET. Shrinking keeps both growth factors > 0.
    """
    nu, phi1, phi2, chi1, chi2 = unified_coefficients(learning)
    grid = [k / 200.0 for k in range(201)]
    worst_h = max(abs(math.log(1.0 + nu * e + phi1 * s - phi2 * s**3))
                  for s in grid for e in (0.0, e_max))
    worst_l = max(abs(math.log(1.0 + chi1 * (1 - s) - chi2 * (1 - s) ** 3)) for s in grid)
    factor = min(1.0, LOG_BUDGET / (horizon * (worst_h + worst_l)))
    return {k: (v * factor if k != "variant" else v) for k, v in learning.items()}


def _ramp(lo: float, hi: float, n: int) -> list[float]:
    return [round(lo + (hi - lo) * t / (n - 1), 6) for t in range(n)]


def known_defects(workload: str) -> list[Op]:
    """The known-defect ops of a workload, the same for every seed."""
    if workload == "sweep-calibrations":
        return [Op(index=0, command="bifurcation", argv=["bifurcation"],
                   scenario={"sweep": {"E_points": 4001}}, work=4001,
                   defect=DEFECT_SWEEP_4001)]
    return [
        Op(index=0, command="simulate", argv=["simulate"],
           scenario={"simulation": {"horizon": 20000}}, work=20000,
           defect=DEFECT_CUBIC_20000),
        Op(index=1, command="simulate", argv=["simulate"],
           scenario={"learning": {"variant": "linear"},
                     "simulation": {"horizon": 5000}},
           work=5000, defect=DEFECT_LINEAR_5000),
    ]


def _sweep_op(seed: int, i: int) -> Op:
    rng = random.Random(f"sweep-calibrations:{seed}:{i}")
    variant = "linear" if rng.random() < 0.2 else "cubic"
    scenario = {
        "preferences": random_preferences(rng),
        "learning": random_learning(rng, variant),
        "solver": {"bisect_tol": SWEEP_BISECT_TOL},
    }
    if i % 6 == 0:  # one bifurcation op in six
        points = _log_uniform(81, 2000, i // 6)
        scenario["sweep"] = {
            "E_min": rng.uniform(0.02, 0.10),
            "E_max": rng.uniform(0.35, 0.50),
            "E_points": points,
        }
        # bit parity, not j % 2: odd j are exactly the upper half of the sizes
        workers = 1 + bin(i // 6).count("1") % 2
        return Op(index=i, command="bifurcation",
                  argv=["bifurcation", "--workers", str(workers)],
                  scenario=scenario, work=points)
    e = rng.uniform(0.05, 0.45)
    return Op(index=i, command="fixed-points", argv=["fixed-points", "--E", repr(e)],
              scenario=scenario, work=1)


def _paths_op(seed: int, i: int) -> Op:
    rng = random.Random(f"paths-long:{seed}:{i}")
    kind = ("sim-cubic", "statics", "sim-linear", "planner")[i % 4]
    prefs = random_preferences(rng)
    if kind == "statics":
        points = _log_uniform(100, 10_000, i // 4)
        y_min = rng.uniform(1.0, 5.0)
        scenario = {
            "preferences": prefs,
            "statics": {
                "E": rng.uniform(0.0, 0.45),
                "price_H": rng.uniform(0.5, 5.0),
                "y_min": y_min,
                "y_max": y_min + rng.uniform(10.0, 100.0),
                "y_points": points,
            },
        }
        return Op(index=i, command="statics", argv=["statics"], scenario=scenario,
                  work=points)

    horizon = _log_uniform(500, 20_000, i // 4)
    variant = "cubic" if kind == "sim-cubic" else "linear"
    if kind == "planner":
        # the planner needs every period interior: income well above gamma_L
        e_lo, e_hi = sorted((rng.uniform(0.0, 0.45), rng.uniform(0.0, 0.45)))
        y_lo, y_hi = sorted((rng.uniform(5.0, 30.0), rng.uniform(5.0, 30.0)))
    else:
        e_lo, e_hi = sorted((rng.uniform(0.0, 0.45), rng.uniform(0.0, 0.45)))
        y_lo, y_hi = sorted((rng.uniform(2.0, 30.0), rng.uniform(2.0, 30.0)))
    # odd bit parity: half the paths are lists, spread evenly over the sizes
    as_lists = bin(i // 4).count("1") % 2 == 1
    simulation = {
        "a_H0": rng.uniform(0.5, 2.0),
        "a_L0": rng.uniform(0.5, 8.0),
        "horizon": horizon,
        "E": _ramp(e_lo, e_hi, horizon) if as_lists else round(e_hi, 6),
        "income": _ramp(y_lo, y_hi, horizon) if as_lists else round(y_lo, 6),
    }
    scenario = {
        "preferences": prefs,
        "learning": _scale_learning(random_learning(rng, variant), e_hi, horizon),
        "simulation": simulation,
    }
    if kind == "planner":
        # a base-3 point, so the planner share does not follow the base-2 horizon
        planner_h = max(1, int(round(horizon * (0.2 + 0.8 * radical_inverse(i // 4, 3)))))
        scenario["planner"] = {"horizon": planner_h}
        return Op(index=i, command="planner-foc", argv=["planner-foc"], scenario=scenario,
                  work=horizon + planner_h)
    return Op(index=i, command="simulate", argv=["simulate"], scenario=scenario,
              work=horizon)


_MAKERS = {
    "sweep-calibrations": _sweep_op,
    "paths-long": _paths_op,
}


def make_op(workload: str, seed: int, i: int) -> Op:
    return _MAKERS[workload](seed, i)


def deck(workload: str, seed: int):
    """Endless deterministic op sequence of a workload."""
    i = 0
    while True:
        yield make_op(workload, seed, i)
        i += 1
