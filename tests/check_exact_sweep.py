"""Check every root of a default education sweep against the exact oracle, on
both of the solver's drivers.

    PYTHONPATH=src python3 tests/check_exact_sweep.py --points 100000

Solves the default scenario's sweep at ``--points`` education levels, on
arrays, and compares each level's roots, bit for bit, with
``oracles.exact_roots``: the correctly rounded roots, found in exact rational
arithmetic without the package. It also solves each level alone with
``find_fixed_points``, on floats, whose fixed points must equal the sweep
row's in every field. Prints the counts and exits 1, listing the first
mismatches, if any level differs. About 1.5 ms per level, so 10^5 levels take
a few minutes; it is not part of the test suite.
"""

import argparse
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import oracles  # noqa: E402
from demandtier.bifurcation import sweep  # noqa: E402
from demandtier.scenario import SweepConfig, default_scenario  # noqa: E402
from demandtier.solver import find_fixed_points  # noqa: E402


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--points", type=int, default=100_000)
    args = parser.parse_args(argv)
    scenario = default_scenario()
    sched, spec, cfg = scenario.preferences, scenario.learning, scenario.solver
    sweep_cfg = SweepConfig(E_points=args.points)  # the default grid's range, finer
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
            mismatches.append((row.E, got, [fp.p_star for fp in one_level], want))
    print(f"{len(diagram.rows)} levels, {roots} exact roots, {len(mismatches)} levels differ; "
          f"sweep {solved:.3f} s, check {time.perf_counter() - start - solved:.1f} s")
    for e, got, one_level, want in mismatches[:20]:
        print(f"E={e!r}: sweep {got!r}, find_fixed_points {one_level!r}, exact {want!r}")
    return 1 if mismatches else 0


if __name__ == "__main__":
    sys.exit(main())
