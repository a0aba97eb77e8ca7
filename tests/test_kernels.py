"""The names the benchmark binds: each resolves in its ``demandtier`` module,
``_kernels``'s removed solver helpers raise, and ``_kernels.simulate_arrays`` is
the path-simulation recurrence of ``dynamics``."""

import ast
from importlib import import_module
from pathlib import Path

import pytest

from demandtier import LearningSpec, PreferenceSchedule, TechnologyState, _kernels, dynamics

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
E = 0.215


def _bound_names():
    """(module, name) of each function ``perfbench/tracer.py`` lists in ``TRACED``
    and each ``_kernels`` attribute that ``perfbench/run.py`` reads."""
    tracer = ast.parse((PERFBENCH / "tracer.py").read_text())
    [traced] = [ast.literal_eval(node.value) for node in tracer.body
                if isinstance(node, ast.Assign) and ast.unparse(node.targets[0]) == "TRACED"]
    run = ast.parse((PERFBENCH / "run.py").read_text())
    kernels = {node.attr for node in ast.walk(run) if isinstance(node, ast.Attribute)
               and isinstance(node.value, ast.Name) and node.value.id == "_kernels"}
    return sorted({(layer, fn) for layer, fns in traced.items() for fn in fns}
                  | {("_kernels", name) for name in kernels})


@pytest.mark.parametrize("layer, name", _bound_names())
def test_every_name_the_benchmark_binds_resolves(layer, name):
    assert callable(getattr(import_module(f"demandtier.{layer}"), name))


def test_active_backend_reported():
    assert _kernels.backend() == "numpy"


@pytest.mark.parametrize("name", ["grid_residual", "bisect_root"])
def test_the_removed_grid_solver_helpers_raise(name):
    with pytest.raises(NotImplementedError, match="cubic"):
        getattr(_kernels, name)(1.0, 0.8, E)


def test_the_traced_recurrence_is_the_one_simulate_path_runs(monkeypatch):
    # the tracer wraps _kernels.simulate_arrays and rebinds every name that holds
    # the same function, so a stand-in bound in dynamics must be what runs
    assert _kernels.simulate_arrays is dynamics._simulate_arrays
    calls = []

    def stand_in(*args):
        calls.append(args)
        return _kernels.simulate_arrays(*args)

    monkeypatch.setattr(dynamics, "_simulate_arrays", stand_in)
    path = dynamics.simulate_path(PreferenceSchedule(), LearningSpec(),
                                  TechnologyState(a_H=1.0, a_L=4.0), E, 10.0, 5)
    assert len(calls) == 1 and len(path) == 5
