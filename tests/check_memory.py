"""Peak memory of the long-table commands at a given row count, each in a new process.

    python3 tests/check_memory.py --rows 100000

Runs ``simulate`` (a slow-learning calibration, whose levels stay finite over
``--rows`` periods) at one education level and income and, as
``simulate-lists``, with ``E`` and ``income`` each a ramp of ``--rows``
entries, ``statics`` (``--rows`` incomes) and ``planner-foc`` (``--rows``
periods, planner horizon included) twice each, each run in a fresh
interpreter that imports numpy and ``demandtier.cli`` and then calls
``cli.main`` as the installed script does: once writing the CSV to standard
output, redirected to a file, and once with ``--out``. Prints, per case,
the CSV size and each run's peak resident set (``ru_maxrss``) above the
floor it read after those imports, then one JSON line with every figure.
Exits 1 if a run fails, if standard output and ``--out`` hold different
bytes, or if the larger peak of a case exceeds its bound times its CSV
size: twice for ``simulate`` and ``statics``, whose CSV is written chunk by
chunk, so neither holds the text of its whole table, 2.5 times for
``simulate-lists``, whose two lists stay alive as Python floats through the
command, and 3.5 times for ``planner-foc``, which keeps about a dozen float
columns of its horizon. Every file it writes goes to a temporary directory;
it is not part of the test suite.
"""

import argparse
import filecmp
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
# the child: the floor after the imports, then the peak after one main call,
# on the last line of stderr, in KiB
CHILD = """
import resource, sys
import numpy, demandtier.cli
floor = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
code = demandtier.cli.main(sys.argv[1:])
sys.stdout.flush()
peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
sys.stderr.write(f"\\n{code} {floor} {peak}\\n")
"""
# growth factors within about 1e-5 of 1, so that no level leaves the floats
SLOW_LEARNING = {"variant": "cubic", "nu": 1e-5, "phi1": 1e-5, "phi2": 1e-5,
                 "chi1": 1.2e-5, "chi2": 1.5e-5}
# the largest peak above the floor allowed, in multiples of the CSV size
BOUND = {"simulate": 2.0, "simulate-lists": 2.5, "statics": 2.0, "planner-foc": 3.5}


def cases(rows: int) -> dict:
    """Case name -> (command, scenario)."""
    ramps = {"E": [0.05 + 0.4 * t / rows for t in range(rows)],
             "income": [8.0 + 12.0 * t / rows for t in range(rows)]}
    return {
        "simulate": ("simulate", {"learning": SLOW_LEARNING, "simulation": {"horizon": rows}}),
        "simulate-lists": ("simulate", {"learning": SLOW_LEARNING,
                                        "simulation": {"horizon": rows, **ramps}}),
        "statics": ("statics", {"statics": {"y_points": rows}}),
        "planner-foc": ("planner-foc", {"learning": SLOW_LEARNING,
                                        "simulation": {"horizon": rows},
                                        "planner": {"horizon": rows}}),
    }


def run(argv: list, stdout_path: Path) -> tuple:
    """(exit code, peak above the floor in MiB) of one fresh-process main call."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(SRC)] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]))
    with open(stdout_path, "wb") as out:
        cp = subprocess.run([sys.executable, "-c", CHILD, *argv], stdout=out,
                            stderr=subprocess.PIPE, text=True, env=env)
    try:
        code, floor, peak = map(int, cp.stderr.splitlines()[-1].split())
    except (IndexError, ValueError):
        sys.stderr.write(cp.stderr)
        return cp.returncode or 1, float("nan")
    return code, (peak - floor) / 1024.0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--rows", type=int, default=100_000)
    args = parser.parse_args(argv)
    failed = []
    report = {"rows": args.rows}
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        for case, (command, scenario) in cases(args.rows).items():
            path = tmp / "scenario.json"
            path.write_text(json.dumps(scenario), encoding="utf-8")
            base = [command, "--scenario", str(path)]
            to_stdout, to_file = tmp / "stdout.csv", tmp / "out.csv"
            code_a, peak_a = run(base, to_stdout)
            code_b, peak_b = run(base + ["--out", str(to_file)], tmp / "empty")
            size = to_file.stat().st_size / 2**20 if to_file.exists() else float("nan")
            ratio = max(peak_a, peak_b) / size
            report[case] = {"csv_mb": size, "stdout_peak_mb": peak_a,
                            "out_peak_mb": peak_b, "ratio": ratio}
            print(f"{case:14s} csv {size:6.1f} MB; peak above the floor: stdout "
                  f"{peak_a:6.1f} MB, --out {peak_b:6.1f} MB ({ratio:.2f}x the CSV)")
            if code_a or code_b:
                failed.append(f"{case} exited {code_a} and {code_b}")
            elif not filecmp.cmp(to_stdout, to_file, shallow=False):
                failed.append(f"{case}: standard output and --out differ")
            elif not ratio <= BOUND[case]:
                failed.append(f"{case}: peak {ratio:.2f}x its CSV size, above "
                              f"{BOUND[case]:g}x")
    for failure in failed:
        print("FAIL: " + failure)
    print(json.dumps(report))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
