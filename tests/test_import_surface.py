"""What each entry point imports: the package namespace and the CLI load an
engine module only when a name of it is read, the config classes live in
``scenario`` while their old homes re-export them, the standard-library
modules that only parsing, dumping or reading a file needs load with the first
such call, and a command that builds no array imports none of ``dataclasses``,
``inspect``, ``typing`` and ``contextlib``; what writes no table loads no CSV
encoder (``_csv``)."""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import check_startup
import demandtier
from demandtier import bifurcation, cli, demand, dynamics, planner, scenario, solver

ENGINE = {"demandtier." + name
          for name in ("solver", "bifurcation", "dynamics", "demand", "planner", "_kernels")}
# the submodules a bare ``import demandtier`` bound before its names became lazy
SUBMODULES = ("bifurcation", "demand", "dynamics", "errors", "planner", "scenario", "solver",
              "_np", "_kernels")
MOVED = [(demand, "PreferenceSchedule"), (dynamics, "LearningVariant"),
         (dynamics, "LearningSpec"), (solver, "SolverConfig"), (bifurcation, "SweepConfig"),
         (planner, "PlannerConfig")]

# runs the code of argv[1] with its output discarded, then prints the
# demandtier modules loaded by then
PROBE = """
import contextlib, io, json, sys
with contextlib.redirect_stdout(io.StringIO()):
    exec(sys.argv[1])
print(json.dumps(sorted(m for m in sys.modules if m.split(".")[0] == "demandtier")))
"""


def loaded_by(code):
    cp = subprocess.run([sys.executable, "-c", PROBE, code], capture_output=True, text=True)
    assert cp.returncode == 0, cp.stderr
    return set(json.loads(cp.stdout))


def test_loading_the_default_scenario_imports_no_engine_module():
    loaded = loaded_by("import demandtier.cli\n"
                       "from demandtier.scenario import load_scenario\n"
                       "load_scenario(None)")
    assert loaded == {"demandtier", "demandtier.cli", "demandtier.scenario",
                      "demandtier.errors", "demandtier._np"}


# loads the default scenario as the benchmark's set-up code does, then runs a
# command; after each step prints the watched modules loaded by then
STDLIB_PROBE = """
import sys
import demandtier.cli
from demandtier.scenario import load_scenario
load_scenario(None)
watched = ("dataclasses", "inspect", "argparse", "json")
print([m for m in watched if m in sys.modules])
from contextlib import redirect_stdout
from io import StringIO
with redirect_stdout(StringIO()) as out:
    code = demandtier.cli.main(["fixed-points"])
print((code, out.getvalue().splitlines()[0], [m for m in watched if m in sys.modules]))
"""


def test_loading_the_default_scenario_imports_no_dataclasses_argparse_or_json():
    cp = subprocess.run([sys.executable, "-c", STDLIB_PROBE], capture_output=True, text=True)
    assert cp.returncode == 0, cp.stderr
    loaded, (code, header, then_loaded) = map(ast.literal_eval, cp.stdout.splitlines())
    assert loaded == []
    # a command still runs in that process: the option table reads its argv,
    # with no argparse, and the solver's result types are records, not
    # dataclasses
    assert (code, header) == (0, "E,p_star,s_star,t_prime,stability")
    assert then_loaded == []


@pytest.mark.parametrize("name", check_startup.NUMPY_FREE)
def test_commands_without_arrays_import_none_of_the_modules_check_startup_forbids(name):
    # run as check_startup.py --no-site runs it: python -S, with the package's
    # and numpy's directories on the path. site only adds modules (on some
    # machines typing and contextlib), so this also covers a run with it.
    path = os.pathsep.join(str(Path(module.__file__).parent.parent)
                           for module in (demandtier, np))
    code, argv = check_startup.CASES[name]
    cp = check_startup.run(check_startup.prelude(check_startup.NO_SITE_STDLIB) + code, argv,
                           dict(os.environ, PYTHONPATH=path), name, ["-S"])
    _, _, loaded = json.loads(cp.stderr.splitlines()[-1])
    assert check_startup.not_allowed(name, loaded, no_site=True) == []


def test_dump_defaults_imports_no_engine_module():
    loaded = loaded_by("from demandtier.cli import main\nassert main(['--dump-defaults']) == 0")
    assert "demandtier.scenario" in loaded and not loaded & ENGINE


@pytest.mark.parametrize("code", [
    "import demandtier.cli",
    "from demandtier.cli import main\nassert main(['--dump-defaults']) == 0",
    "from demandtier.cli import main\ntry:\n    main(['--version'])\nexcept SystemExit:\n    pass",
    "from demandtier.cli import main\ntry:\n    main(['--help'])\nexcept SystemExit:\n    pass",
    "import tempfile\nfrom demandtier.cli import main\n"
    "with tempfile.NamedTemporaryFile('w', suffix='.json') as f:\n"
    "    f.write('{\"solver\": {\"p_min\": 5.0, \"p_max\": 1.0}}'); f.flush()\n"
    "    assert main(['fixed-points', '--scenario', f.name]) == 2",
], ids=["import", "--dump-defaults", "--version", "--help", "loader-exit-2"])
def test_what_writes_no_table_loads_no_csv_encoder(code):
    assert "demandtier._csv" not in loaded_by(code)


def test_the_first_table_loads_the_csv_encoder():
    loaded = loaded_by("from demandtier.cli import main\nassert main(['fixed-points']) == 0")
    assert "demandtier._csv" in loaded


def test_fixed_points_imports_only_the_solver_and_what_it_calls():
    loaded = loaded_by("from demandtier.cli import main\nassert main(['fixed-points']) == 0")
    assert "demandtier.solver" in loaded
    assert not loaded & {"demandtier.bifurcation", "demandtier.planner", "demandtier._kernels"}


@pytest.mark.parametrize("command", ["simulate", "planner-foc"])
def test_a_path_command_runs_the_recurrence_of_dynamics_and_loads_no_kernels(command):
    loaded = loaded_by(f"from demandtier.cli import main\nassert main([{command!r}]) == 0")
    assert "demandtier.dynamics" in loaded
    assert "demandtier._kernels" not in loaded


def test_a_bare_import_loads_the_package_alone_and_binds_each_submodule_on_first_read():
    loaded = loaded_by("import demandtier\n"
                       "extra = [m for m in sys.modules if m.startswith('demandtier.')]\n"
                       "assert not extra, extra\n"
                       f"for name in {SUBMODULES!r}:\n"
                       "    assert getattr(demandtier, name) is sys.modules['demandtier.' + name]")
    assert loaded == {"demandtier", *("demandtier." + name for name in SUBMODULES)}


@pytest.mark.parametrize("name", demandtier.__all__)
def test_every_public_name_resolves_on_the_package(name):
    value = getattr(demandtier, name)
    assert value is not None and name in dir(demandtier)


@pytest.mark.parametrize("name", SUBMODULES)
def test_every_submodule_resolves_on_the_package(name):
    assert getattr(demandtier, name) is sys.modules["demandtier." + name]


def test_unknown_names_raise_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        demandtier.no_such_name
    with pytest.raises(AttributeError, match="no_such_name"):
        cli.no_such_name
    with pytest.raises(ImportError):
        from demandtier import no_such_name  # noqa: F401


@pytest.mark.parametrize("home, name", MOVED, ids=[name for _, name in MOVED])
def test_each_moved_config_class_is_one_object_from_every_path(home, name):
    cls = getattr(scenario, name)
    assert getattr(home, name) is cls
    assert getattr(demandtier, name) is cls
    assert cls.__module__ == "demandtier.scenario"


# imports numpy before the package has built an array, so the package's ``np``
# is still its lazy stand-in when arrays arrive; calls the function named in
# argv[1] first on arrays, then the others, and checks each result against
# the scalar call on each element, bit for bit
LAZY_NUMPY_PROBE = """
import sys
import numpy
from demandtier import (_np, LearningSpec, PreferenceSchedule, alpha_of, excess_share,
                        growth_factors, h_ratio)
stand_in = sorted(name for name, module in sys.modules.items()
                  if name.startswith("demandtier.") and vars(module).get("np") is _np.np)
sched, spec = PreferenceSchedule(), LearningSpec()
E = numpy.array([0.0, 0.145, 0.215, 0.28, 2.0])
calls = {"alpha_of": (alpha_of, sched, E),
         "excess_share": (excess_share, sched, E, numpy.array([0.01, 0.2, 3.5, 4.4, 80.0])),
         "growth_factors": (growth_factors, spec, numpy.array([0.0, 0.3, 0.5, 0.9, 1.0]), E),
         "h_ratio": (h_ratio, spec, numpy.array([0.0, 0.3, 0.5, 0.9, 1.0]), E)}
for name in [sys.argv[1], *(n for n in calls if n != sys.argv[1])]:
    f, head, *arrays = calls[name]
    out = f(head, *arrays)
    columns = out if isinstance(out, tuple) else (out,)
    assert all(type(column) is numpy.ndarray for column in columns), name
    for i in range(len(E)):
        scalar = f(head, *(a[i].item() for a in arrays))
        scalars = scalar if isinstance(scalar, tuple) else (scalar,)
        assert all(type(v) is float for v in scalars), name
        assert [c[i].tobytes() for c in columns] == [numpy.float64(v).tobytes()
                                                     for v in scalars], name
print(stand_in)
"""


@pytest.mark.parametrize("first", ["alpha_of", "excess_share", "growth_factors", "h_ratio"])
def test_arrays_from_a_caller_that_imported_numpy_first_work_before_any_array_operation(first):
    # the package binds numpy at its first attribute read; an array passed
    # before that is still seen as an array, and its results are arrays
    cp = subprocess.run([sys.executable, "-W", "error", "-c", LAZY_NUMPY_PROBE, first],
                        capture_output=True, text=True)
    assert cp.returncode == 0, cp.stderr
    assert {"demandtier.demand", "demandtier.dynamics"} <= set(ast.literal_eval(cp.stdout))
