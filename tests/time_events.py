"""Time ``bifurcation._events``, the sweep's event finder, one cold call per calibration.

    PYTHONPATH=src python3 tests/time_events.py --calibrations 300 --seed 7

Draws ``--calibrations`` calibrations with ``random_calibration`` from a
generator seeded with ``--seed`` and times one ``_events`` call on each, at
the default sweep and solver settings, with ``gc.collect()`` before each call.
Every call runs on a new calibration, so no cache carries over from the call
before. Prints the median and the quartiles of the per-call times in
microseconds, the number of events found, and how many event levels
``_locus._level`` formed and how many exact bisections ``_locus._bisect`` ran
for them. It asserts no time: compare medians of alternating fresh
processes, one per commit, on one machine.
"""

import argparse
import gc
import random
import statistics
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from conftest import random_calibration  # noqa: E402
from demandtier import SolverConfig, SweepConfig, _locus  # noqa: E402
from demandtier.bifurcation import _events  # noqa: E402


def _count_calls(name, counts):
    """Wrap ``_locus``'s function ``name`` so that each call adds 1 to counts[name]."""
    function = getattr(_locus, name)

    def counted(*args):
        counts[name] += 1
        return function(*args)

    setattr(_locus, name, counted)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--calibrations", type=int, default=300)
    parser.add_argument("--seed", type=int, default=7)
    args = parser.parse_args(argv)
    rng = random.Random(args.seed)
    sweep_cfg, solver_cfg = SweepConfig(), SolverConfig()
    times, events, counts = [], 0, {"_level": 0, "_bisect": 0}
    for name in counts:
        _count_calls(name, counts)
    for _ in range(args.calibrations):
        sched, spec, _, _ = random_calibration(rng)
        gc.collect()
        start = time.perf_counter()
        found = _events(sched, spec, sweep_cfg, solver_cfg)
        times.append(time.perf_counter() - start)
        events += len(found)
    q1, median, q3 = (1e6 * t for t in statistics.quantiles(times, n=4))
    print(f"_events cold over {args.calibrations} calibrations (seed {args.seed}): "
          f"median {median:.1f} us [quartiles {q1:.1f}, {q3:.1f}], {events} events; "
          f"{counts['_level']} levels, {counts['_bisect']} exact bisections")
    return 0


if __name__ == "__main__":
    sys.exit(main())
