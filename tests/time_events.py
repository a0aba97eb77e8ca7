"""Time ``bifurcation._events``, the sweep's event finder, one cold call per calibration.

    PYTHONPATH=src python3 tests/time_events.py --calibrations 300 --seed 7

Draws ``--calibrations`` calibrations with ``random_calibration`` from a
generator seeded with ``--seed`` and times one ``_events`` call on each, at
the default sweep and solver settings, with ``gc.collect()`` before each call.
Every call runs on a new calibration, so no cache carries over from the call
before. Prints the median and the quartiles of the per-call times in
microseconds, the number of events found, and how many event levels
``_locus._level`` formed and how many exact bisections ``_locus._bisect`` ran
for them. Then, with no rounding certified (``_rounds`` reports false), it
times one cold call of the solver's exact fallback, ``solver._exact_prices``,
at each event level it found, and prints their median and quartiles with the
number of ``Fraction`` conversions those calls made. It asserts no time:
compare medians of alternating fresh processes, one per commit, on one
machine.
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
from demandtier import SolverConfig, SweepConfig, _locus, solver  # noqa: E402
from demandtier.bifurcation import _events  # noqa: E402
from demandtier.demand import alpha_of  # noqa: E402


def _count_calls(module, name, counts):
    """Wrap ``module``'s function ``name`` so that each call adds 1 to counts[name]."""
    function = getattr(module, name)

    def counted(*args):
        counts[name] += 1
        return function(*args)

    setattr(module, name, counted)


def _cold(call) -> float:
    """Seconds of one call, after ``gc.collect()``."""
    gc.collect()
    start = time.perf_counter()
    call()
    return time.perf_counter() - start


def _quartiles(times) -> str:
    q1, median, q3 = (1e6 * t for t in statistics.quantiles(times, n=4))
    return f"median {median:.1f} us [quartiles {q1:.1f}, {q3:.1f}]"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--calibrations", type=int, default=300)
    parser.add_argument("--seed", type=int, default=7)
    args = parser.parse_args(argv)
    rng = random.Random(args.seed)
    sweep_cfg, solver_cfg = SweepConfig(), SolverConfig()
    times, levels, counts = [], [], {"_level": 0, "_bisect": 0, "_fraction": 0}
    for name in ("_level", "_bisect"):
        _count_calls(_locus, name, counts)
    for _ in range(args.calibrations):
        sched, spec, _, _ = random_calibration(rng)
        found = []
        times.append(_cold(lambda: found.extend(_events(sched, spec, sweep_cfg, solver_cfg))))
        levels += [(e, alpha_of(sched, e), spec) for e, *_ in found]
    print(f"_events cold over {args.calibrations} calibrations (seed {args.seed}): "
          f"{_quartiles(times)}, {len(levels)} events; "
          f"{counts['_level']} levels, {counts['_bisect']} exact bisections")
    for module in (_locus, solver):
        module._rounds = lambda hi, lo, err: False
        _count_calls(module, "_fraction", counts)
    times = [_cold(lambda: solver._exact_prices(*level)) for level in levels]
    print(f"_exact_prices cold, no rounding certified, at the {len(levels)} event levels: "
          f"{_quartiles(times)}; {counts['_fraction']} Fraction conversions")
    return 0


if __name__ == "__main__":
    sys.exit(main())
