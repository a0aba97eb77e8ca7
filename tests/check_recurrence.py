"""Check the simulation recurrence, bit for bit, against a plain loop.

    PYTHONPATH=src python3 tests/check_recurrence.py --paths 300

Compares ``dynamics._simulate_arrays`` with ``plain``, the recurrence as the
README states it, one period at a time on Python floats: p = a_L/a_H,
s = alpha/(alpha + (1 - alpha) p), and each level times its growth factor,
g_H = 1 + nu E + phi1 s - phi2 s^3 and g_L = 1 + chi1 u - chi2 u^3 with
u = 1 - s. The paths are ``--paths`` random calibrations drawn from the
benchmark's ranges, each with a horizon of 500 to 20 000 periods (log-uniform),
its learning rates shrunk by one factor so that no level can move by more
than e^600 over the horizon, and E one level, a ramp rounded to 6 decimals,
or piecewise constant; plus the default calibration at 10^5 periods, whose
a_H overflows to inf at period 16 521. Prints the totals and exits 1, naming
the first differing period of each path that differs, if any array differs
in any bit. It is not part of the test suite.
"""

import argparse
import math
import random
import sys
import time
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent))

from conftest import random_calibration, slow_learning  # noqa: E402
from demandtier.demand import alpha_of  # noqa: E402
from demandtier.dynamics import _simulate_arrays  # noqa: E402
from demandtier.scenario import default_scenario  # noqa: E402


def plain(spec, a_h, a_l, alpha, E):
    """(p, s, a_H, a_L) of the recurrence, one period at a time."""
    nu, phi1, phi2, chi1, chi2 = spec.coefficients
    out = []
    for al, e in zip(alpha.tolist(), E.tolist()):
        if a_h == 0.0:  # the IEEE quotient, which Python's division raises on
            p = math.inf if a_l > 0.0 else math.nan
        else:
            p = a_l / a_h
        s = al / (al + (1.0 - al) * p)
        u = 1.0 - s
        out.append((p, s, a_h, a_l))
        a_h = (1.0 + nu * e + phi1 * s - phi2 * s * s * s) * a_h
        a_l = (1.0 + chi1 * u - chi2 * u * u * u) * a_l
    return tuple(np.array(column) for column in zip(*out))


def education(rng: random.Random, horizon: int) -> np.ndarray:
    """One level, a ramp rounded to 6 decimals, or 2 to 8 constant pieces."""
    kind = rng.randrange(3)
    if kind == 0:
        return np.full(horizon, rng.uniform(0.0, 0.45))
    if kind == 1:
        lo, hi = sorted((rng.uniform(0.0, 0.45), rng.uniform(0.0, 0.45)))
        return np.round(np.linspace(lo, hi, horizon), 6)
    cuts = sorted(rng.sample(range(1, horizon), rng.randint(1, 7)))
    levels = [rng.uniform(0.0, 0.45) for _ in range(len(cuts) + 1)]
    return np.repeat(levels, np.diff([0, *cuts, horizon]))


def paths(count: int, seed: int):
    """(name, spec, a_H0, a_L0, alpha, E) of each path to compare."""
    rng = random.Random(seed)
    for i in range(count):
        sched, spec, _, _ = random_calibration(rng)
        horizon = round(500 * 40 ** rng.random())
        e = education(rng, horizon)
        yield (f"path {i}", slow_learning(spec, horizon, 600.0), rng.uniform(0.5, 2.0),
               rng.uniform(0.5, 8.0), alpha_of(sched, e), e)
    scenario = default_scenario()
    sim = scenario.simulation
    e = np.full(100_000, float(sim.E))
    yield ("default calibration", scenario.learning, sim.a_H0, sim.a_L0,
           alpha_of(scenario.preferences, e), e)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--paths", type=int, default=300)
    parser.add_argument("--seed", type=int, default=20261021)
    args = parser.parse_args(argv)
    start = time.perf_counter()
    periods, differ = 0, []
    with np.errstate(all="ignore"):
        for name, spec, a_h, a_l, alpha, e in paths(args.paths, args.seed):
            got = _simulate_arrays(spec, a_h, a_l, alpha, e)
            want = plain(spec, a_h, a_l, alpha, e)
            periods += len(e)
            moved = np.zeros(len(e), dtype=bool)
            for g, w in zip(got, want):
                moved |= g.view(np.uint64) != w.view(np.uint64)
            if moved.any():
                differ.append(f"{name}: first difference at period {np.argmax(moved)} "
                              f"of {len(e)}")
    print(f"{args.paths + 1} paths, {periods} periods, {len(differ)} differ "
          f"({time.perf_counter() - start:.1f} s)")
    for line in differ[:10]:
        print(line)
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
