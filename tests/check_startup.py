"""Fresh-process start-up of the demandtier CLI, with and without cached bytecode.

    python3 tests/check_startup.py --samples 9

Times ``import demandtier.cli``, each default subcommand, ``--dump-defaults``,
``--version`` and ``--help``, each as a new interpreter that calls ``cli.main``
as the installed ``demandtier`` script does, with its output discarded. Every
case runs in two modes, each on its own copy of ``src/demandtier`` in a
temporary directory, so the tree gets no ``__pycache__``: ``cached``, where the
package's bytecode is written by a first untimed run and then read, and
``no-bytecode``, with PYTHONDONTWRITEBYTECODE=1, where every run compiles the
package's modules again (the standard library and numpy keep the bytecode
they were installed with). The samples interleave the cases and modes, and
with them the interpreter's own floor, ``python -c pass`` and ``python -S -c
pass`` (no ``site``, whose ``.pth`` files differ from machine to machine).

    python3 tests/check_startup.py --samples 9 --no-site

runs every case under ``python -S`` instead, with numpy's install directory on
PYTHONPATH: no ``site``, so no ``.pth`` file preloads a standard-library module
that the package would otherwise pay for, as in a plain interpreter.

Prints the median and the range of the wall times per case and mode, whether
each case imported numpy, which engine modules of the package it imported and
which of ``dataclasses``, ``inspect``, ``argparse`` and ``json`` (with
``--no-site`` also ``typing``, ``enum``, ``functools`` and ``contextlib``),
then one JSON line with every sample. The times are reported, not gated. In
either mode it exits 1 if numpy is imported by ``import demandtier.cli``,
``fixed-points``, ``--dump-defaults``, ``--version``, ``--help`` or ``simulate
--E -1``: the first array operation imports numpy, and those need none; the
last is a validation exit (2), whose check comes before any array. It also
exits 1 if a case imports an engine module that it does not run (``RUNS``), if
``import demandtier.cli`` imports any of ``dataclasses``, ``argparse`` and
``json``, if ``fixed-points`` imports ``argparse``, or if one of those
numpy-free cases imports ``dataclasses`` or ``inspect``, and with ``--no-site``
also ``typing`` or ``contextlib``: the config classes and the result types are
records, not dataclasses, the option table reads a command's argv and argparse
loads only for help, a usage line or an error, the JSON reader loads at its
first use, and nothing of the package needs ``typing`` or ``contextlib``
(``site`` preloads both on some machines, so only a run without it can check
them). The other watched modules are reported only; ``--help``, ``--version``
and ``simulate --E -1`` import ``argparse``.
It is not itself a test; ``tests/test_import_surface.py`` runs the numpy-free
cases under -S and applies the same check.
"""

import argparse
import importlib.util
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
# the installed script's code; the prelude reports on the last line of stderr
# whether numpy was imported by the time the interpreter exits, which modules
# of the package were, and which of STDLIB; it imports json only after it has
# looked
ENTRY = "import sys\nfrom demandtier.cli import main\nsys.exit(main(sys.argv[1:]))\n"
STDLIB = ("dataclasses", "inspect", "argparse", "json")
# watched too without site, which on some machines preloads them
NO_SITE_STDLIB = STDLIB + ("typing", "enum", "functools", "contextlib")
# imported by none of the NUMPY_FREE cases; the last two checked only without site
NOT_IMPORTED = ("dataclasses", "inspect")
NOT_IMPORTED_NO_SITE = NOT_IMPORTED + ("typing", "contextlib")


def prelude(watched: tuple) -> str:
    return ("import atexit, sys\n"
            "def report():\n"
            "    loaded = ['numpy' in sys.modules,\n"
            "              sorted(m for m in sys.modules if m.startswith('demandtier.')),\n"
            f"              [m for m in {watched!r} if m in sys.modules]]\n"
            "    import json\n"
            "    print(json.dumps(loaded), file=sys.stderr)\n"
            "atexit.register(report)\n")


CASES = {
    "import demandtier.cli": ("import demandtier.cli\n", []),
    "fixed-points": (ENTRY, ["fixed-points"]),
    "bifurcation": (ENTRY, ["bifurcation"]),
    "simulate": (ENTRY, ["simulate"]),
    "statics": (ENTRY, ["statics"]),
    "planner-foc": (ENTRY, ["planner-foc"]),
    "--dump-defaults": (ENTRY, ["--dump-defaults"]),
    "--version": (ENTRY, ["--version"]),
    "--help": (ENTRY, ["--help"]),
    "simulate --E -1": (ENTRY, ["simulate", "--E", "-1"]),
}
NUMPY_FREE = ("import demandtier.cli", "fixed-points", "--dump-defaults", "--version", "--help",
              "simulate --E -1")
EXIT_CODES = {"simulate --E -1": 2}  # every other case exits 0
ENGINE = ("solver", "bifurcation", "dynamics", "demand", "planner", "_kernels")
# the engine modules each case runs; importing any other one fails the check
RUNS = {
    "fixed-points": ("solver", "dynamics", "demand"),
    "bifurcation": ("bifurcation", "solver", "dynamics", "demand"),
    "simulate": ("dynamics", "demand"),
    "statics": ("demand",),
    "planner-foc": ("planner", "dynamics", "demand"),
    "simulate --E -1": ("dynamics", "demand"),  # exits 2 before the recurrence
}
# the interpreter alone, with and without site
FLOORS = {"python -c pass": [sys.executable, "-c", "pass"],
          "python -S -c pass": [sys.executable, "-S", "-c", "pass"]}


def not_allowed(name: str, loaded: list, no_site: bool) -> list:
    """The modules of ``loaded`` that ``name``, a NUMPY_FREE case, must not import."""
    modules = NOT_IMPORTED_NO_SITE if no_site else NOT_IMPORTED
    if name == "import demandtier.cli":
        modules += ("argparse", "json")
    elif name == "fixed-points":  # its argv is read from the option table
        modules += ("argparse",)
    return [m for m in loaded if m in modules]


def run(code: str, args: list, env: dict, name: str, flags: list) -> subprocess.CompletedProcess:
    cp = subprocess.run([sys.executable, *flags, "-c", code, *args], env=env,
                        cwd=env["PYTHONPATH"].split(os.pathsep)[0],
                        stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True)
    if cp.returncode != EXIT_CODES.get(name, 0):
        raise SystemExit(f"{args or code!r} exited {cp.returncode}: {cp.stderr}")
    return cp


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--samples", type=int, default=9, help="timed runs per case and mode")
    parser.add_argument("--no-site", action="store_true",
                        help="run every case under python -S, numpy's directory on PYTHONPATH")
    args = parser.parse_args()
    flags, watched, path = [], STDLIB, []
    if args.no_site:  # numpy's install directory, found without importing numpy
        flags, watched = ["-S"], NO_SITE_STDLIB
        path = [str(Path(importlib.util.find_spec("numpy").origin).parent.parent)]
    base = {k: v for k, v in os.environ.items()
            if k not in ("PYTHONPATH", "PYTHONDONTWRITEBYTECODE")}
    with tempfile.TemporaryDirectory() as tmp:
        envs = {}
        for mode in ("cached", "no-bytecode"):
            root = Path(tmp, mode)
            shutil.copytree(SRC, root / "demandtier",
                            ignore=shutil.ignore_patterns("__pycache__"))
            envs[mode] = dict(base, PYTHONPATH=os.pathsep.join([str(root), *path]))
        envs["no-bytecode"]["PYTHONDONTWRITEBYTECODE"] = "1"

        numpy, engine, stdlib = {}, {}, {}
        for name, (code, argv) in CASES.items():  # untimed: writes the cached bytecode
            stderr = run(prelude(watched) + code, argv, envs["cached"], name, flags).stderr
            numpy[name], modules, stdlib[name] = json.loads(stderr.splitlines()[-1])
            engine[name] = sorted(set(ENGINE) & {m.split(".", 1)[1] for m in modules})
        times = {mode: {name: [] for name in CASES} for mode in envs}
        floors = {name: [] for name in FLOORS}
        for _ in range(args.samples):
            for name, cmd in FLOORS.items():
                start = time.perf_counter()
                subprocess.run(cmd, env=base, check=True)
                floors[name].append(time.perf_counter() - start)
            for mode, env in envs.items():
                for name, (code, argv) in CASES.items():
                    start = time.perf_counter()
                    run(code, argv, env, name, flags)
                    times[mode][name].append(time.perf_counter() - start)

    def cell(t):
        return f"{statistics.median(t) * 1e3:10.1f} [{min(t) * 1e3:5.0f}, {max(t) * 1e3:5.0f}]"

    print(f"fresh-process wall time, median [min, max] of {args.samples} runs, in ms, "
          + ("without site (python -S)" if args.no_site else "with site"))
    print(f"{'':24s}" + "".join(f"{mode:>26s}" for mode in envs)
          + "  numpy  engine modules; " + ", ".join(watched) + " imported")
    for name in CASES:
        print(f"{name:24s}" + "".join(cell(times[mode][name]) for mode in envs)
              + f"  {str(numpy[name]):5s}  {' '.join(engine[name]) or '-'}; "
              + (" ".join(stdlib[name]) or "-"))
    for name, t in floors.items():
        print(f"{name:24s}" + cell(t))
    print(json.dumps({"python": sys.version.split()[0], "samples": args.samples,
                      "site": not args.no_site,
                      "numpy_imported": numpy, "engine_imported": engine,
                      "stdlib_imported": stdlib,
                      "median_ms": {mode: {name: statistics.median(t) * 1e3
                                           for name, t in cases.items()}
                                    for mode, cases in times.items()},
                      "floor_median_ms": {name: statistics.median(t) * 1e3
                                          for name, t in floors.items()},
                      "wall_s": times, "floor_wall_s": floors}))
    status = 0
    wrong = [name for name in NUMPY_FREE if numpy[name]]
    if wrong:
        print(f"numpy is imported by {', '.join(wrong)}", file=sys.stderr)
        status = 1
    for name in CASES:
        extra = sorted(set(engine[name]) - set(RUNS.get(name, ())))
        if extra:
            print(f"{name} imports {', '.join(extra)}, which it does not run", file=sys.stderr)
            status = 1
    for name in NUMPY_FREE:
        checked = not_allowed(name, stdlib[name], args.no_site)
        if checked:
            print(f"{name} imports {', '.join(checked)}", file=sys.stderr)
            status = 1
    return status


if __name__ == "__main__":
    sys.exit(main())
