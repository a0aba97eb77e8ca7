"""Fresh-process start-up of the demandtier CLI, with and without cached bytecode.

    python3 tests/check_startup.py --samples 9

Times ``import demandtier.cli``, each default subcommand and
``--dump-defaults``, each as a new interpreter that calls ``cli.main`` as the
installed ``demandtier`` script does, with its output discarded. Every case
runs in two modes, each on its own copy of ``src/demandtier`` in a temporary
directory, so the tree gets no ``__pycache__``: ``cached``, where the package's
bytecode is written by a first untimed run and then read, and
``no-bytecode``, with PYTHONDONTWRITEBYTECODE=1, where every run compiles the
package's modules again (the standard library and numpy keep the bytecode
they were installed with). The samples interleave the cases and modes.

Prints the median and the range of the wall times per case and mode, then one
JSON line with every sample. The times are reported, not gated. It exits 1 if
numpy is imported by ``import demandtier.cli``, ``fixed-points``,
``--dump-defaults`` or ``simulate --E -1``: the first array operation imports
numpy, and those need none; the last is a validation exit (2), whose check
comes before any array. It is not part of the test suite.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "demandtier"
# the installed script's code; the prelude reports on stderr whether numpy
# was imported by the time the interpreter exits
ENTRY = "import sys\nfrom demandtier.cli import main\nsys.exit(main(sys.argv[1:]))\n"
PRELUDE = ("import atexit, sys\n"
           "atexit.register(lambda: print('numpy' in sys.modules, file=sys.stderr))\n")
CASES = {
    "import demandtier.cli": ("import demandtier.cli\n", []),
    "fixed-points": (ENTRY, ["fixed-points"]),
    "bifurcation": (ENTRY, ["bifurcation"]),
    "simulate": (ENTRY, ["simulate"]),
    "statics": (ENTRY, ["statics"]),
    "planner-foc": (ENTRY, ["planner-foc"]),
    "--dump-defaults": (ENTRY, ["--dump-defaults"]),
    "simulate --E -1": (ENTRY, ["simulate", "--E", "-1"]),
}
NUMPY_FREE = ("import demandtier.cli", "fixed-points", "--dump-defaults", "simulate --E -1")
EXIT_CODES = {"simulate --E -1": 2}  # every other case exits 0


def run(code: str, args: list, env: dict, name: str) -> subprocess.CompletedProcess:
    cp = subprocess.run([sys.executable, "-c", code, *args], env=env, cwd=env["PYTHONPATH"],
                        stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True)
    if cp.returncode != EXIT_CODES.get(name, 0):
        raise SystemExit(f"{args or code!r} exited {cp.returncode}: {cp.stderr}")
    return cp


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--samples", type=int, default=9, help="timed runs per case and mode")
    args = parser.parse_args()
    base = {k: v for k, v in os.environ.items()
            if k not in ("PYTHONPATH", "PYTHONDONTWRITEBYTECODE")}
    with tempfile.TemporaryDirectory() as tmp:
        envs = {}
        for mode in ("cached", "no-bytecode"):
            root = Path(tmp, mode)
            shutil.copytree(SRC, root / "demandtier",
                            ignore=shutil.ignore_patterns("__pycache__"))
            envs[mode] = dict(base, PYTHONPATH=str(root))
        envs["no-bytecode"]["PYTHONDONTWRITEBYTECODE"] = "1"

        loaded = {}
        for name, (code, argv) in CASES.items():  # untimed: writes the cached bytecode
            loaded[name] = run(PRELUDE + code, argv, envs["cached"], name).stderr.split()[-1]
        times = {mode: {name: [] for name in CASES} for mode in envs}
        for _ in range(args.samples):
            for mode, env in envs.items():
                for name, (code, argv) in CASES.items():
                    start = time.perf_counter()
                    run(code, argv, env, name)
                    times[mode][name].append(time.perf_counter() - start)

    print(f"fresh-process wall time, median [min, max] of {args.samples} runs, in ms")
    print(f"{'':24s}" + "".join(f"{mode:>26s}" for mode in envs) + "  numpy imported")
    for name in CASES:
        cells = [times[mode][name] for mode in envs]
        print(f"{name:24s}" + "".join(
            f"{statistics.median(t) * 1e3:10.1f} [{min(t) * 1e3:5.0f}, {max(t) * 1e3:5.0f}]"
            for t in cells) + f"  {loaded[name]}")
    print(json.dumps({"python": sys.version.split()[0], "samples": args.samples,
                      "numpy_imported": loaded,
                      "median_ms": {mode: {name: statistics.median(t) * 1e3
                                           for name, t in cases.items()}
                                    for mode, cases in times.items()},
                      "wall_s": times}))
    wrong = [name for name in NUMPY_FREE if loaded[name] != "False"]
    if wrong:
        print(f"numpy is imported by {', '.join(wrong)}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
