"""What the benchmark measures: workloads, metrics, bounds and the layer table.

This module is the single source of ``BENCHMARK.json`` (regenerate it with
``python3 perfbench/run.py --write-manifest``) and of the layer table printed
in each traced report.
"""

from __future__ import annotations

import json
from pathlib import Path

RUN_SECONDS = 35

# Seeds: ROUTINE_SEED for everyday runs, HELD_OUT_SEED only to re-check a gain
# claimed on other seeds (choosing-metrics guide, section 6.3).
ROUTINE_SEED = 1
HELD_OUT_SEED = 20261017

# A third workload, cli-defaults (a fresh `python -m demandtier` per op over the
# six default commands), was dropped: its run-to-run spread could not be brought
# below a third of its bounds in 30-second runs; see README.md.
WORKLOADS = [
    ("sweep-calibrations",
     "in-process bifurcation and fixed-points on seeded random calibrations: the "
     "grid-and-bisection solver and the sweep loop dominate"),
    ("paths-long",
     "in-process simulate, planner-foc and statics over long horizons and income "
     "grids: per-period demand and CSV row formatting dominate, no solver runs"),
]

# (name, unit, better, bound)
END_TO_END = [
    ("setup_s", "s", "lower", 0.25),
    ("op_ms.p50", "ms", "lower", 0.25),
    ("op_ms.tail", "ms", "lower", 0.25),
    ("work_per_s", "1/s", "higher", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.2),
]

# (name, unit, better, end-to-end metric and workload it should move)
PER_LAYER = [
    ("scenario.load.calls", "count", "lower", "setup_s; op_ms.p50 on sweep-calibrations"),
    ("scenario.load.ms", "ms", "lower", "setup_s; op_ms.p50 on sweep-calibrations"),
    ("cli.import_floor_ms", "ms", "lower", "setup_s; the part no PR can remove"),
    ("cli.cmd_ms.fixed-points", "ms", "lower", "op_ms.p50 on sweep-calibrations"),
    ("cli.cmd_ms.bifurcation", "ms", "lower", "op_ms.tail on sweep-calibrations"),
    *[(f"cli.cmd_ms.{c}", "ms", "lower", "op_ms.* on paths-long")
      for c in ("simulate", "statics", "planner-foc")],
    ("solver.find_fixed_points.calls", "count", "lower",
     "work_per_s, op_ms.* on sweep-calibrations; no move on paths-long"),
    ("solver.find_fixed_points.self_ms", "ms", "lower",
     "work_per_s, op_ms.* on sweep-calibrations; no move on paths-long"),
    ("solver.find_fixed_points.fail", "count", "lower",
     "none: 0 on the traced ops, which must all succeed"),
    ("solver.roots", "count", "higher", "none: equal roots confirm equal work"),
    ("solver.residual_ratio.max", "ratio", "lower",
     "none: worst |T(p*)-p*| over its bound, must stay <= 1"),
    ("solver_kernels.cover_frac", "ratio", "lower",
     "work_per_s on sweep-calibrations: share of op time inside solver and kernels"),
    ("kernels.grid_residual.calls", "count", "lower", "work_per_s on sweep-calibrations"),
    ("kernels.grid_residual.ms", "ms", "lower", "work_per_s on sweep-calibrations"),
    ("kernels.bisect_root.calls", "count", "lower", "work_per_s on sweep-calibrations"),
    ("kernels.bisect_root.ms", "ms", "lower", "work_per_s on sweep-calibrations"),
    ("bifurcation.sweep.self_ms", "ms", "lower", "op_ms.* on sweep-calibrations"),
    ("bifurcation.refine_saddle_node.calls", "count", "lower",
     "op_ms.* on sweep-calibrations (refinement is cheap today)"),
    ("bifurcation.refine_saddle_node.ms", "ms", "lower", "op_ms.* on sweep-calibrations"),
    ("bifurcation.refine_saddle_node.fail", "count", "lower",
     "none: failed refinements become flagged transitions"),
    ("bifurcation.transitions", "count", "higher", "none: equal counts confirm equal work"),
    ("bifurcation.refined_frac", "ratio", "higher", "none: thresholds over transitions"),
    ("kernels.simulate_arrays.calls", "count", "lower", "work_per_s on paths-long"),
    ("kernels.simulate_arrays.ms", "ms", "lower", "work_per_s on paths-long"),
    ("dynamics.simulate_path.calls", "count", "lower", "work_per_s on paths-long"),
    ("dynamics.simulate_path.self_ms", "ms", "lower", "work_per_s on paths-long"),
    ("dynamics.periods", "count", "higher", "none: equal counts confirm equal work"),
    ("demand.solve_demand.calls", "count", "lower", "work_per_s, op_ms.* on paths-long"),
    ("demand.solve_demand.ms", "ms", "lower", "work_per_s, op_ms.* on paths-long"),
    ("demand.income_elasticities.calls", "count", "lower", "work_per_s, op_ms.* on paths-long"),
    ("demand.income_elasticities.ms", "ms", "lower", "work_per_s, op_ms.* on paths-long"),
    ("demand.non_interior", "count", "lower", "none: periods the household cannot afford"),
    ("planner.evaluate_foc.calls", "count", "lower", "op_ms.tail on paths-long"),
    ("planner.evaluate_foc.self_ms", "ms", "lower", "op_ms.tail on paths-long"),
    ("cli.cmd.self_ms", "ms", "lower",
     "work_per_s on paths-long, a little on sweep-calibrations: row building and formatting"),
    ("cli.write.ms", "ms", "lower", "work_per_s on paths-long"),
    ("cli.rows_out", "count", "higher", "none: equal counts confirm equal output"),
    ("cli.bytes_out", "bytes", "higher", "none: equal counts confirm equal output"),
    ("trace.overhead_ratio", "ratio", "lower",
     "none: untraced over traced work_per_s on the same ops"),
]


def manifest() -> dict:
    """The BENCHMARK.json document."""
    return {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": n, "why": w} for n, w in WORKLOADS],
        "end_to_end": [
            {"name": n, "unit": u, "better": b, "bound": bound}
            for n, u, b, bound in END_TO_END
        ],
        "per_layer": [{"name": n, "unit": u, "better": b} for n, u, b, _ in PER_LAYER],
    }


def manifest_text() -> str:
    return json.dumps(manifest(), indent=2) + "\n"


def write_manifest(root: Path) -> Path:
    path = root / "BENCHMARK.json"
    path.write_text(manifest_text(), encoding="utf-8")
    return path
