"""Check every root of education sweeps against the exact oracle, on both of
the solver's drivers.

    PYTHONPATH=src python3 tests/check_exact_sweep.py --points 100000
    PYTHONPATH=src python3 tests/check_exact_sweep.py --calibrations 300 --points 200
    PYTHONPATH=src python3 tests/check_exact_sweep.py --exact --calibrations 20 --points 50

Solves the default scenario's sweep at ``--points`` education levels, on
arrays, and compares each level's roots, bit for bit, with
``oracles.exact_roots``: the correctly rounded roots, found in exact rational
arithmetic without the package. It also solves each level alone with
``find_fixed_points``, on floats, whose fixed points must equal the sweep
row's in every field. With ``--calibrations N`` it checks, beside the default
scenario, N calibrations drawn from the benchmark's ranges
(``conftest.random_calibration``, seeded), each swept over E in [0, 0.6] at
``--points`` levels in the default price window. With ``--exact`` no polished
root is certified, so every level with a candidate in the window is solved by
the exact fallback, ``solver._exact_prices``, on both drivers; each sweep then
runs in the default price window and again in [1e-300, 1e300]. Prints the
counts and exits 1, listing the first mismatches, if any level differs, or,
with ``--exact``, if no level reached the fallback. About 1.5 ms per level in
the default window, so 10^5 levels take a few minutes, and about 12 ms in the
wide one; it is not part of the test suite.
"""

import argparse
import random
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import oracles  # noqa: E402
from conftest import random_calibration  # noqa: E402
from demandtier import solver  # noqa: E402
from demandtier.bifurcation import sweep  # noqa: E402
from demandtier.scenario import SolverConfig, SweepConfig, default_scenario  # noqa: E402
from demandtier.solver import find_fixed_points  # noqa: E402

SEED = 20261020
WIDE = SolverConfig(p_min=1e-300, p_max=1e300)


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
    parser.add_argument("--exact", action="store_true",
                        help="certify no polished root, so that levels take the exact fallback")
    args = parser.parse_args(argv)
    exact = []
    if args.exact:
        polish, exact_prices = solver._polish, solver._exact_prices

        def uncertified_polish(*args):  # on one level's floats and on arrays alike
            p, certified = polish(*args)
            return p, certified & False

        def counted_exact_prices(*args):
            exact.append(args[0])
            return exact_prices(*args)

        solver._polish, solver._exact_prices = uncertified_polish, counted_exact_prices
    windows = (None, WIDE) if args.exact else (None,)
    scenario = default_scenario()
    start = time.perf_counter()
    runs = [(scenario.preferences, scenario.learning, SweepConfig(E_points=args.points),
             scenario.solver)]
    rng = random.Random(SEED)
    for _ in range(args.calibrations):
        sched, spec, _, _ = random_calibration(rng)
        runs.append((sched, spec, SweepConfig(0.0, 0.6, args.points), SolverConfig()))
    roots, mismatches, solved = 0, [], 0.0
    for sched, spec, sweep_cfg, cfg in runs:
        for window in windows:
            more, differ, seconds = check(sched, spec, sweep_cfg, window or cfg)
            roots, solved = roots + more, solved + seconds
            mismatches += differ
    sweeps = len(runs) * len(windows)
    print(f"{sweeps} sweeps, {args.points * sweeps} levels, {roots} exact roots, "
          f"{len(mismatches)} levels differ; sweeps {solved:.3f} s, "
          f"check {time.perf_counter() - start - solved:.1f} s"
          + (f"; {len(exact)} levels solved by the exact fallback" if args.exact else ""))
    for spec, e, got, one_level, want in mismatches[:20]:
        print(f"{spec!r} E={e!r}: sweep {got!r}, find_fixed_points {one_level!r}, "
              f"exact {want!r}")
    if args.exact and not exact:
        print("no level reached the exact fallback: the patches took no effect")
    return 1 if mismatches or (args.exact and not exact) else 0


if __name__ == "__main__":
    sys.exit(main())
