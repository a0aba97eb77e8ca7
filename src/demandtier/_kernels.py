"""Names that the benchmark's tracer binds and no command imports: the backend,
the residual helpers of the removed grid solver, which only raise, and the
path-simulation recurrence of ``dynamics`` under its former name.
"""

# The benchmark's tracer (perfbench/tracer.py) patches each function by identity
# in every loaded module, so its wrapper of simulate_arrays also replaces the
# dynamics._simulate_arrays that simulate_path calls.
from .dynamics import _simulate_arrays as simulate_arrays  # noqa: F401


def backend() -> str:
    return "numpy"


def grid_residual(*args, **kwargs):
    raise NotImplementedError("grid_residual is removed: fixed points are the gap cubic's roots")


def bisect_root(*args, **kwargs):
    raise NotImplementedError("bisect_root is removed: fixed points are the gap cubic's roots")
