"""The import contract of the demandtier CLI, and its fresh-process start-up time.

    python3 tests/check_startup.py --samples 9

``CASES`` is the one statement of the import contract: for each case, its code
or argv and its exit code, whether it may import numpy, the engine modules of
the package it imports (exactly), whether it loads the CSV encoder ``_csv``
(exactly when it writes a table), and the standard-library modules it must not
import. The cases are ``import demandtier.cli``, the star import
``from demandtier.cli import *``, the benchmark's set-up code, each default
subcommand, ``--dump-defaults``, ``--version``, ``--help`` and the validation
exits that ``simulate``, ``planner-foc``, ``statics`` and the scenario loader
take before any array. Each runs as a new interpreter that calls ``cli.main``
as the installed ``demandtier`` script does, with its output discarded, in a
directory that holds the scenario files of ``SCENARIOS``. ``violations`` is
the one check of a case's run against its row: this script applies it to a
first, untimed run of every case and exits 1 on any breach, and tier-1's
``tests/test_import_surface.py`` applies it to one run of every case under
``python -S``.

Every case then runs in two modes, each on its own copy of ``src/demandtier``
in a temporary directory, so the tree gets no ``__pycache__``: ``cached``,
where the package's bytecode is written by the first run and then read, and
``no-bytecode``, with PYTHONDONTWRITEBYTECODE=1, where every run compiles the
package's modules again (the standard library and numpy keep the bytecode
they were installed with). The samples interleave the cases and modes, and
with them the interpreter's own floor, ``python -c pass`` and ``python -S -c
pass`` (no ``site``, whose ``.pth`` files differ from machine to machine).

    python3 tests/check_startup.py --samples 9 --no-site

runs every case under ``python -S`` instead, with numpy's install directory on
PYTHONPATH: no ``site``, so no ``.pth`` file preloads a standard-library module
that the package would otherwise pay for, as in a plain interpreter. The
watched standard-library modules are ``dataclasses``, ``inspect``,
``argparse`` and ``json``, and with ``--no-site`` also ``typing``, ``enum``,
``functools`` and ``contextlib``: ``site`` preloads ``typing`` and
``contextlib`` on some machines, so only a run without it checks them.

Prints the median and the range of the wall times per case and mode, whether
each case imported numpy, its engine modules, whether it loaded ``_csv`` and
which watched modules it imported, then one JSON line with every sample. The
times are reported, not gated.
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
from collections import namedtuple
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "demandtier"
STDLIB = ("dataclasses", "inspect", "argparse", "json")
# watched too without site, which on some machines preloads them
NO_SITE_STDLIB = STDLIB + ("typing", "enum", "functools", "contextlib")
SITE_PRELOADS = ("typing", "contextlib")  # forbidden only where site cannot preload them
# the package modules that ``import demandtier.cli`` loads; the others, but
# _csv, are the engine
CLI = {"cli", "scenario", "errors", "_np"}


def prelude(watched: tuple) -> str:
    """Code that reports, on the last line of stderr at the interpreter's exit,
    whether numpy was imported, which modules of the package were (named
    without ``demandtier.``) and which of ``watched``; it imports json only
    after it has looked."""
    return ("import atexit, sys\n"
            "def report():\n"
            "    loaded = {'numpy': 'numpy' in sys.modules,\n"
            "              'package': sorted(m[11:] for m in sys.modules\n"
            "                                if m.startswith('demandtier.')),\n"
            f"              'stdlib': [m for m in {watched!r} if m in sys.modules]}}\n"
            "    import json\n"
            "    print(json.dumps(loaded), file=sys.stderr)\n"
            "atexit.register(report)\n")


# the installed script's code
ENTRY = "import sys\nfrom demandtier.cli import main\nsys.exit(main(sys.argv[1:]))\n"
# the benchmark's set-up code, which its setup_s times
SETUP = "import demandtier.cli\nfrom demandtier.scenario import load_scenario\nload_scenario(None)\n"
# the scenario files of the validation exits
SCENARIOS = {"unknown_key.json": {"solver": {"no_such_key": 1}},
             "short_E.json": {"simulation": {"E": [0.2, 0.3], "horizon": 3}},
             "short_income.json": {"simulation": {"income": [10.0], "horizon": 2}},
             "negative_income.json": {"simulation": {"income": -5}},
             "gamma_H.json": {"preferences": {"gamma_H": 1.0}}}
# a case that builds no array imports none of these: the config classes and
# the result types are records, not dataclasses, and nothing of the package
# needs typing or contextlib
NO_ARRAY = ("dataclasses", "inspect", "typing", "contextlib")
# nor, where it parses no argv with argparse, argparse or json: the option
# table reads a command's argv, and the JSON reader loads at its first use
NO_PARSER = NO_ARRAY + ("argparse", "json")
Case = namedtuple("Case", "code argv exit numpy engine csv forbidden")
CASES = {name: Case(*row) for name, row in {
    # name: code, argv, exit code, may import numpy, engine modules, loads _csv, forbidden
    "import demandtier.cli": ("import demandtier.cli\n", [], 0, False, "", False, NO_PARSER),
    "load_scenario(None)": (SETUP, [], 0, False, "", False, NO_PARSER),
    # cli has no __all__: a star import takes its module globals, no engine name
    "from demandtier.cli import *": ("from demandtier.cli import *\n", [], 0, False, "", False,
                                     NO_PARSER),
    "fixed-points": (ENTRY, ["fixed-points"], 0, False, "solver _locus dynamics demand", True,
                     NO_PARSER),
    "bifurcation": (ENTRY, ["bifurcation"], 0, True, "bifurcation solver _locus dynamics demand",
                    True, ()),
    "simulate": (ENTRY, ["simulate"], 0, True, "dynamics demand", True, ()),
    "statics": (ENTRY, ["statics"], 0, True, "demand", True, ()),
    "planner-foc": (ENTRY, ["planner-foc"], 0, True, "planner dynamics demand", True, ()),
    "--dump-defaults": (ENTRY, ["--dump-defaults"], 0, False, "", False, NO_ARRAY),
    "--version": (ENTRY, ["--version"], 0, False, "", False, NO_ARRAY),
    "--help": (ENTRY, ["--help"], 0, False, "", False, NO_ARRAY),
    # validation exits: each check comes before the first array
    "simulate --E -1": (ENTRY, ["simulate", "--E", "-1"], 2, False, "dynamics demand", False,
                        NO_ARRAY),
    "statics --E -1": (ENTRY, ["statics", "--E", "-1"], 2, False, "demand", False, NO_ARRAY),
    "fixed-points unknown key": (ENTRY, ["fixed-points", "--scenario", "unknown_key.json"], 2,
                                 False, "", False, NO_ARRAY),
    "simulate short E": (ENTRY, ["simulate", "--scenario", "short_E.json"], 2, False,
                         "dynamics demand", False, NO_ARRAY),
    "simulate short income": (ENTRY, ["simulate", "--scenario", "short_income.json"], 2, False,
                              "dynamics demand", False, NO_ARRAY),
    "simulate income < 0": (ENTRY, ["simulate", "--scenario", "negative_income.json"], 2, False,
                            "dynamics demand", False, NO_ARRAY),
    "planner-foc income < 0": (ENTRY, ["planner-foc", "--scenario", "negative_income.json"], 2,
                               False, "dynamics demand", False, NO_ARRAY),
    "statics gamma_H 1": (ENTRY, ["statics", "--scenario", "gamma_H.json"], 2, False, "demand",
                          False, NO_ARRAY),
}.items()}
# the interpreter alone, with and without site
FLOORS = {"python -c pass": [sys.executable, "-c", "pass"],
          "python -S -c pass": [sys.executable, "-S", "-c", "pass"]}


def engine(report: dict) -> list:
    """The engine modules of the package that a case's run imported."""
    return sorted(set(report["package"]) - CLI - {"_csv"})


def violations(name: str, report: dict, no_site: bool) -> list:
    """Each way in which ``report``, of a run of case ``name``, breaks its row of ``CASES``."""
    case, found = CASES[name], []
    if report["exit"] != case.exit:
        found.append(f"exits {report['exit']}, not {case.exit}: {report['stderr']}")
    if report["numpy"] and not case.numpy:
        found.append("imports numpy")
    if engine(report) != sorted(case.engine.split()):
        found.append(f"imports the engine modules {engine(report)}, not {case.engine.split()}")
    if ("_csv" in report["package"]) != case.csv:
        found.append("loads _csv" if not case.csv else "does not load _csv")
    forbidden = [m for m in report["stdlib"]
                 if m in case.forbidden and (no_site or m not in SITE_PRELOADS)]
    if forbidden:
        found.append(f"imports {', '.join(forbidden)}")
    return [f"{name} {v}" for v in found]


def write_scenarios(directory: Path) -> None:
    for file, scenario in SCENARIOS.items():
        Path(directory, file).write_text(json.dumps(scenario), encoding="utf-8")


def run(name: str, env: dict, cwd, flags: list, code: str = "") -> subprocess.CompletedProcess:
    """Run case ``name`` in ``cwd`` once, ``code`` before its own."""
    case = CASES[name]
    return subprocess.run([sys.executable, *flags, "-c", code + case.code, *case.argv], env=env,
                          cwd=cwd, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True)


def report(name: str, env: dict, cwd, flags: list, watched: tuple) -> dict:
    """What a run of case ``name`` imported (see ``prelude``), its exit code and its stderr."""
    cp = run(name, env, cwd, flags, prelude(watched))
    *stderr, loaded = cp.stderr.splitlines()
    return dict(json.loads(loaded), exit=cp.returncode, stderr="\n".join(stderr))


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
        envs, roots = {}, {}
        for mode in ("cached", "no-bytecode"):
            roots[mode] = Path(tmp, mode)
            shutil.copytree(SRC, roots[mode] / "demandtier",
                            ignore=shutil.ignore_patterns("__pycache__"))
            write_scenarios(roots[mode])
            envs[mode] = dict(base, PYTHONPATH=os.pathsep.join([str(roots[mode]), *path]))
        envs["no-bytecode"]["PYTHONDONTWRITEBYTECODE"] = "1"

        # untimed: writes the cached bytecode
        reports = {name: report(name, envs["cached"], roots["cached"], flags, watched)
                   for name in CASES}
        times = {mode: {name: [] for name in CASES} for mode in envs}
        floors = {name: [] for name in FLOORS}
        for _ in range(args.samples):
            for name, cmd in FLOORS.items():
                start = time.perf_counter()
                subprocess.run(cmd, env=base, check=True)
                floors[name].append(time.perf_counter() - start)
            for mode, env in envs.items():
                for name in CASES:
                    start = time.perf_counter()
                    cp = run(name, env, roots[mode], flags)
                    times[mode][name].append(time.perf_counter() - start)
                    if cp.returncode != CASES[name].exit:
                        raise SystemExit(f"{name} exited {cp.returncode}: {cp.stderr}")

    def cell(t):
        return f"{statistics.median(t) * 1e3:10.1f} [{min(t) * 1e3:5.0f}, {max(t) * 1e3:5.0f}]"

    print(f"fresh-process wall time, median [min, max] of {args.samples} runs, in ms, "
          + ("without site (python -S)" if args.no_site else "with site"))
    print(f"{'':26s}" + "".join(f"{mode:>26s}" for mode in envs)
          + "  numpy  engine modules; _csv; " + ", ".join(watched) + " imported")
    for name, r in reports.items():
        print(f"{name:26s}" + "".join(cell(times[mode][name]) for mode in envs)
              + f"  {str(r['numpy']):5s}  {' '.join(engine(r)) or '-'}; "
              + f"{'_csv' in r['package']}; " + (" ".join(r["stdlib"]) or "-"))
    for name, t in floors.items():
        print(f"{name:26s}" + cell(t))
    print(json.dumps({"python": sys.version.split()[0], "samples": args.samples,
                      "site": not args.no_site,
                      "numpy_imported": {name: r["numpy"] for name, r in reports.items()},
                      "engine_imported": {name: engine(r) for name, r in reports.items()},
                      "csv_imported": {name: "_csv" in r["package"]
                                       for name, r in reports.items()},
                      "stdlib_imported": {name: r["stdlib"] for name, r in reports.items()},
                      "median_ms": {mode: {name: statistics.median(t) * 1e3
                                           for name, t in cases.items()}
                                    for mode, cases in times.items()},
                      "floor_median_ms": {name: statistics.median(t) * 1e3
                                          for name, t in floors.items()},
                      "wall_s": times, "floor_wall_s": floors}))
    found = [v for name, r in reports.items() for v in violations(name, r, args.no_site)]
    for violation in found:
        print(violation, file=sys.stderr)
    return 1 if found else 0


if __name__ == "__main__":
    sys.exit(main())
