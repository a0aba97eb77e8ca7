"""What each entry point imports: every case of ``check_startup.CASES``, the
one statement of the import contract, keeps its row under ``python -S``; the
package namespace loads a submodule only when a name of it is read, the config
classes live in ``scenario`` while their old homes re-export them, and numpy
arrays passed before the package's first array operation are arrays."""

import ast
import importlib.util
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

# the submodules a bare ``import demandtier`` bound before its names became lazy
SUBMODULES = ("bifurcation", "demand", "dynamics", "errors", "planner", "scenario", "solver",
              "_locus", "_np", "_kernels")
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


@pytest.mark.parametrize("name", check_startup.CASES)
def test_each_case_keeps_its_row_of_the_import_contract(name, tmp_path):
    # run as check_startup.py --no-site runs it: python -S, with the package's
    # and numpy's directories on the path. site only adds modules (on some
    # machines typing and contextlib), so this also covers a run with it.
    path = os.pathsep.join(str(Path(module.__file__).parent.parent)
                           for module in (demandtier, np))
    check_startup.write_scenarios(tmp_path)
    report = check_startup.report(name, dict(os.environ, PYTHONPATH=path), tmp_path, ["-S"],
                                  check_startup.NO_SITE_STDLIB)
    assert check_startup.violations(name, report, no_site=True) == []


def test_the_contract_has_a_case_for_every_command_and_top_level_option():
    argvs = [case.argv for case in check_startup.CASES.values()]
    for argv in [*([command] for command in cli._COMMANDS), ["--dump-defaults"], ["--version"],
                 ["--help"]]:
        assert argv in argvs


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
    # cli passes through the package's public names only: not its __path__, so
    # cli is no package, nor its __all__, which a star import of cli would take
    assert not hasattr(cli, "__path__") and not hasattr(cli, "__all__")
    with pytest.raises(ModuleNotFoundError):
        importlib.util.find_spec("demandtier.cli.solver")


def test_the_command_line_reads_only_its_commands_and_public_names_from_itself():
    # the package's table is the one map from a name to its module: every name
    # the commands read as _cli.<name> is a cmd_* of cli or a public name
    tree = ast.parse(Path(cli.__file__).read_text(encoding="utf-8"))
    read = {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name) and node.value.id == "_cli"}
    commands = {name for name in vars(cli) if name.startswith("cmd_")}
    assert sorted(read - commands - set(demandtier.__all__)) == []
    assert {"find_fixed_points", "sweep", "Stability"} <= read


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
