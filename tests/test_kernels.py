"""The names the benchmark's tracer binds on ``_kernels``: the backend, the
residual helpers and the path-simulation recurrence of ``dynamics``."""

import numpy as np

from demandtier import LearningSpec, PreferenceSchedule, TechnologyState, _kernels, dynamics

COEFFS = (0.6, 0.8, 1.0, 1.2, 1.5)
ALPHA = 0.8144
E = 0.215


def test_active_backend_reported():
    assert _kernels.backend() == "numpy"


def test_bisect_finds_known_root():
    # bracket around the middle root at E = 0.215
    root = _kernels.bisect_root(3.5, 3.6, ALPHA, E, *COEFFS, 1e-12, 200)
    residual = _kernels.map_residual(root, ALPHA, E, *COEFFS)
    assert abs(residual) <= 1e-12 * max(1.0, root)


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
