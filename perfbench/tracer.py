"""Per-layer spans recorded from outside the package.

``Tracer`` replaces the traced public functions of each ``demandtier`` module
with timing wrappers, patching the name in every loaded ``demandtier`` module
that holds it (``from .demand import solve_demand`` binds a second name), and
restores the originals on exit. The package itself contains no tracing.

A span is one call of a traced function. Its parent is the innermost open span
of the same thread; a span opened on a worker thread with nothing open there
(the ``--workers`` thread pool of ``sweep``) takes the innermost open span of
the op's own thread. Self time is a span's duration minus the part of it that
its child spans cover; children on several threads can overlap, so the covered
part is the union of their intervals. Spans are aggregated as they close,
per name: calls, total seconds, self seconds and failures (calls that raised).
"""

from __future__ import annotations

import threading
import time

from perfbench.ops import residual_ratio

# layer (module of the package) -> traced functions
TRACED = {
    "scenario": ("load_scenario",),
    "solver": ("find_fixed_points",),
    "_kernels": ("grid_residual", "bisect_root", "simulate_arrays"),
    "bifurcation": ("sweep", "refine_saddle_node"),
    "dynamics": ("simulate_path",),
    "demand": ("solve_demand", "income_elasticities"),
    "planner": ("evaluate_foc",),
    "cli": ("cmd_fixed_points", "cmd_bifurcation", "cmd_simulate", "cmd_statics",
            "cmd_planner_foc"),
}
# span names start with a letter: the _kernels layer reports as "kernels"
LABEL = {layer: layer.lstrip("_") for layer in TRACED}
SPAN_NAMES = [f"{LABEL[layer]}.{fn}" for layer, fns in TRACED.items() for fn in fns]
WRITE_SPAN = "cli.write"
# layers whose union of spans is reported as solver_kernels.cover_frac
SOLVE_LAYERS = ("solver", "kernels")


def _union_length(intervals, lo: float, hi: float) -> float:
    total, end = 0.0, lo
    for a, b in sorted(intervals):
        a, b = max(a, end), min(b, hi)
        if b > a:
            total += b - a
            end = b
    return total


class _Stat:
    __slots__ = ("calls", "total", "self_time", "fail")

    def __init__(self):
        self.calls = 0
        self.total = 0.0
        self.self_time = 0.0
        self.fail = 0


class Tracer:
    """Context manager that traces every op run while it is active."""

    def __init__(self):
        self.stats = {name: _Stat() for name in [*SPAN_NAMES, WRITE_SPAN]}
        self.counts = {"roots": 0, "transitions": 0, "thresholds": 0, "periods": 0,
                       "non_interior": 0}
        self.residual_ratio_max = 0.0
        self.solve_cover = 0.0
        self._local = threading.local()
        self._main_stack = None
        self._solve_intervals = []
        self._patched = []

    # ------------------------------------------------------------ spans

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self, name):
        stack = self._stack()
        if stack:
            parent = stack[-1]
        elif self._main_stack:
            parent = self._main_stack[-1]
        else:
            parent = None
        frame = [name, time.perf_counter(), [], parent]
        stack.append(frame)
        return frame

    def _close(self, frame, failed):
        end = time.perf_counter()
        self._stack().pop()
        name, start, children, parent = frame
        duration = end - start
        stat = self.stats[name]
        stat.calls += 1
        stat.total += duration
        stat.self_time += duration - _union_length(children, start, end)
        stat.fail += failed
        if parent is not None:
            parent[2].append((start, end))
        layer = name.split(".", 1)[0]
        if layer in SOLVE_LAYERS and (parent is None
                                      or parent[0].split(".", 1)[0] not in SOLVE_LAYERS):
            self._solve_intervals.append((start, end))

    def span(self, name, fn, *args, **kwargs):
        frame = self._open(name)
        try:
            result = fn(*args, **kwargs)
        except BaseException:
            self._close(frame, True)
            raise
        self._close(frame, False)
        return result

    def run_op(self, fn):
        """Run one op under a root frame; returns fn()'s result."""
        self._main_stack = self._stack()
        root = ["op", time.perf_counter(), [], None]
        self._main_stack.append(root)
        try:
            return fn()
        finally:
            self._main_stack.pop()
            self.solve_cover += _union_length(self._solve_intervals, root[1],
                                              time.perf_counter())
            self._solve_intervals = []

    # ------------------------------------------------------------ observers

    def _observe(self, name, args, kwargs, result):
        if name == "solver.find_fixed_points":
            sched, spec, e = args[:3]
            cfg = args[3] if len(args) > 3 else kwargs.get("cfg")
            params = {
                "preferences": vars(sched),
                "coefficients": spec.coefficients,
                "bisect_tol": cfg.bisect_tol if cfg is not None else 1e-12,
            }
            self.counts["roots"] += len(result)
            for fp in result:
                self.residual_ratio_max = max(
                    self.residual_ratio_max,
                    residual_ratio(params, e, fp.p_star, printed=False))
        elif name == "bifurcation.sweep":
            self.counts["transitions"] += len(result.transitions)
            self.counts["thresholds"] += len(result.thresholds)
        elif name == "dynamics.simulate_path":
            self.counts["periods"] += len(result)

    def _wrap(self, name, fn):
        observe = name in ("solver.find_fixed_points", "bifurcation.sweep",
                           "dynamics.simulate_path")
        non_interior = None
        if name == "demand.solve_demand":
            from demandtier.errors import NonInteriorBudget as non_interior

        def wrapper(*args, **kwargs):
            try:
                result = self.span(name, fn, *args, **kwargs)
            except Exception as exc:
                if non_interior is not None and isinstance(exc, non_interior):
                    self.counts["non_interior"] += 1
                raise
            if observe:
                self._observe(name, args, kwargs, result)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        return wrapper

    # ------------------------------------------------------------ patching

    def __enter__(self):
        import importlib
        import sys

        import demandtier.cli  # noqa: F401 - loads every module of the package

        modules = [m for n, m in list(sys.modules.items())
                   if n == "demandtier" or n.startswith("demandtier.")]
        for layer, fns in TRACED.items():
            home = importlib.import_module(f"demandtier.{layer}")
            for fn_name in fns:
                original = getattr(home, fn_name)
                wrapped = self._wrap(f"{LABEL[layer]}.{fn_name}", original)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            setattr(module, attr, wrapped)
                            self._patched.append((module, attr, original))
        return self

    def __exit__(self, *exc):
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched = []
        return False


class TracedSink:
    """Text sink for captured standard output whose writes are ``cli.write`` spans."""

    def __init__(self, tracer: Tracer):
        import io

        self._buf = io.StringIO()
        self._tracer = tracer

    def write(self, text):
        return self._tracer.span(WRITE_SPAN, self._buf.write, text)

    def flush(self):
        pass

    def getvalue(self):
        return self._buf.getvalue()
