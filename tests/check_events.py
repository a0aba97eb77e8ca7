"""Check the transitions of random sweeps against the exact oracle's count changes.

    PYTHONPATH=src python3 tests/check_events.py --calibrations 200

Draws ``--calibrations`` calibrations from the benchmark's ranges, each with
a random education range, grid size and price window, and compares
``sweep(...).transitions`` with ``oracles.count_changes``: the levels where
the number of correctly rounded roots changes, found by bisection in E in
exact rational arithmetic, without the package. Each transition must lie
within 1e-9 of its change and carry the same counts below and above it.
Prints the totals and exits 1, listing the first mismatches, if any
calibration differs. About 0.25 s per calibration; it is not part of the test
suite.
"""

import argparse
import random
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import oracles  # noqa: E402
from conftest import random_calibration  # noqa: E402
from demandtier import SolverConfig, SweepConfig, sweep  # noqa: E402


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--calibrations", type=int, default=200)
    parser.add_argument("--seed", type=int, default=20261018)
    args = parser.parse_args(argv)
    rng = random.Random(args.seed)
    start = time.perf_counter()
    mismatches, changes = [], 0
    for _ in range(args.calibrations):
        sched, spec, alpha_params, learn = random_calibration(rng)
        e_min, e_max = rng.uniform(0.0, 0.1), rng.uniform(0.3, 0.6)
        p_min, p_max = rng.uniform(0.005, 0.05), rng.uniform(5.0, 30.0)
        sweep_cfg = SweepConfig(E_min=e_min, E_max=e_max, E_points=rng.randint(2, 300))
        diagram = sweep(sched, spec, sweep_cfg, SolverConfig(p_min=p_min, p_max=p_max))
        got = [(t.E, t.count_lo, t.count_hi) for t in diagram.transitions]
        want = oracles.count_changes(e_min, e_max, p_min, p_max, alpha_params, learn)
        changes += len(want)
        if len(got) != len(want) or any(
            abs(a[0] - b[0]) > 1e-9 or a[1:] != b[1:] for a, b in zip(got, want)
        ):
            mismatches.append((sched, spec, sweep_cfg, p_min, p_max, got, want))
    print(f"{args.calibrations} calibrations, {changes} exact count changes, "
          f"{len(mismatches)} calibrations differ; {time.perf_counter() - start:.1f} s")
    for *calibration, got, want in mismatches[:10]:
        print(f"{calibration!r}:\n  sweep  {got!r}\n  oracle {want!r}")
    return 1 if mismatches else 0


if __name__ == "__main__":
    sys.exit(main())
