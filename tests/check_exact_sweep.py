"""Check every root of education sweeps against the exact oracle, on both of
the solver's drivers.

    PYTHONPATH=src python3 tests/check_exact_sweep.py --points 100000
    PYTHONPATH=src python3 tests/check_exact_sweep.py --calibrations 300 --points 200

Solves the default scenario's sweep at ``--points`` education levels, on
arrays, and compares each level's roots, bit for bit, with
``oracles.exact_roots``: the correctly rounded roots, found in exact rational
arithmetic without the package. It also solves each level alone with
``find_fixed_points``, on floats, whose fixed points must equal the sweep
row's in every field. With ``--calibrations N`` it checks, beside the default
scenario, N calibrations drawn from the benchmark's ranges
(``conftest.random_calibration``, seeded), each swept over E in [0, 0.6] at
``--points`` levels in the default price window. Prints the counts and exits
1, listing the first mismatches, if any level differs. About 1.5 ms per
level, so 10^5 levels take a few minutes; it is not part of the test suite.
"""

import argparse
import random
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import oracles  # noqa: E402
from conftest import random_calibration  # noqa: E402
from demandtier.bifurcation import sweep  # noqa: E402
from demandtier.scenario import SolverConfig, SweepConfig, default_scenario  # noqa: E402
from demandtier.solver import find_fixed_points  # noqa: E402

SEED = 20261020


def check(sched, spec, sweep_cfg, cfg):
    """(exact roots, mismatching levels) of one sweep, and its solve time."""
    start = time.perf_counter()
    diagram = sweep(sched, spec, sweep_cfg, cfg)
    solved = time.perf_counter() - start
    alpha_params = (sched.alpha_base, sched.alpha_slope, sched.alpha_lo, sched.alpha_hi)
    mismatches, roots = [], 0
    for row in diagram.rows:
        got = [fp.p_star for fp in row.roots]
        want = oracles.exact_roots(row.E, cfg.p_min, cfg.p_max, alpha_params,
                                   spec.coefficients)
        one_level = find_fixed_points(sched, spec, row.E, cfg)
        roots += len(want)
        if got != want or one_level != row.roots:
            mismatches.append((spec, row.E, got, [fp.p_star for fp in one_level], want))
    return roots, mismatches, solved


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--points", type=int, default=100_000)
    parser.add_argument("--calibrations", type=int, default=0)
    args = parser.parse_args(argv)
    scenario = default_scenario()
    start = time.perf_counter()
    roots, mismatches, solved = check(scenario.preferences, scenario.learning,
                                      SweepConfig(E_points=args.points), scenario.solver)
    rng = random.Random(SEED)
    for _ in range(args.calibrations):
        sched, spec, _, _ = random_calibration(rng)
        more, differ, seconds = check(sched, spec, SweepConfig(0.0, 0.6, args.points),
                                      SolverConfig())
        roots, solved = roots + more, solved + seconds
        mismatches += differ
    levels = args.points * (1 + args.calibrations)
    print(f"{1 + args.calibrations} sweeps, {levels} levels, {roots} exact roots, "
          f"{len(mismatches)} levels differ; sweeps {solved:.3f} s, "
          f"check {time.perf_counter() - start - solved:.1f} s")
    for spec, e, got, one_level, want in mismatches[:20]:
        print(f"{spec!r} E={e!r}: sweep {got!r}, find_fixed_points {one_level!r}, "
              f"exact {want!r}")
    return 1 if mismatches else 0


if __name__ == "__main__":
    sys.exit(main())
