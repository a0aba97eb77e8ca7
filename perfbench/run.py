"""The demandtier benchmark: correctness gate, then one workload, then metrics.

    python3 perfbench/run.py --workload sweep-calibrations --seed 1 --seconds 35 --trace 0
    python3 perfbench/run.py                      # gate + every workload, both modes
    python3 perfbench/run.py --write-manifest     # regenerate BENCHMARK.json

Run it from the repository root; it imports the package from ``src/``. With
``--trace 0`` it times the deck prefix that holds ``--seconds`` worth of work
(about that many seconds of op time at the parent commit) and reports the
end-to-end metrics; with ``--trace 1`` it runs a fixed prefix of the workload's
ops once untraced and once traced and reports the per-layer metrics. Both
modes first replay the workload's known-defect ops, untimed, and report which
still fail; those ops are not among the measured ops. The last line of
standard output is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics``. A failed gate exits 1 and prints no result. Scratch
files (scenario files, failed-op records, result files) go to ``.perfbench/``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from perfbench import gate, ops, spec, speed  # noqa: E402
from perfbench.tracer import TracedSink, Tracer  # noqa: E402
from perfbench.workloads import (  # noqa: E402
    DEFECT_SWEEP_4001, WORKLOAD_NAMES, deck, known_defects)

# The set-up samples are taken in SEGMENTS groups spread over the timed run,
# so that they do not all land in one fast or slow spell of the machine.
# Start-up times fall in two clusters, about 0.19 and 0.29 s on the build VM,
# in proportions that change from minute to minute; setup_s is therefore the
# Harrell-Davis median, which moves smoothly with that proportion where the
# sample median jumps from one cluster to the other.
SEGMENTS = 3
SETUP_SAMPLES = 15
# A run times the deck prefix that holds --seconds times this much work: the
# rate of the program at its parent commit on the VM the benchmark was built
# on. Every run of a seed then times the same ops, whatever the machine's
# speed, and its sizes are the same on every seed. Wall time caps the run at
# MAX_WALL_FACTOR times --seconds.
WORK_PER_S = {"sweep-calibrations": 400.0, "paths-long": 50_000.0}
MAX_WALL_FACTOR = 1.5
FLOOR_SAMPLES = 5
# ops in the traced prefix: a few cycles of each deck's sizes and commands
TRACE_OPS = {"sweep-calibrations": 42, "paths-long": 80}
# what find_fixed_points raises when its re-check rejects a bisection root
RECHECK_DEFECT_TEXT = "this indicates a solver defect"
SETUP_CODE = ("import demandtier.cli\n"
              "from demandtier.scenario import load_scenario\n"
              "load_scenario(None)\n")


@dataclass
class OpRecord:
    index: int
    command: str
    wall_s: float
    work: int
    rows_out: int
    bytes_out: int
    failure: dict | None = None
    ref_ms: float = 0.0


@dataclass
class Pass:
    records: list = field(default_factory=list)

    @property
    def wall_s(self) -> float:
        return sum(r.wall_s for r in self.records)

    @property
    def work(self) -> int:
        return sum(r.work for r in self.records)

    @property
    def failures(self) -> list:
        return [r.failure for r in self.records if r.failure]


# ---------------------------------------------------------------- environment


def git_commit(root: Path) -> str:
    """HEAD of the checkout read from .git, or 'unknown' outside a git clone."""
    head = root / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = root / ".git" / name
        if loose.exists():
            return loose.read_text().strip()
        for line in (root / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(root: Path) -> dict:
    import importlib.util

    import numpy

    from demandtier import _kernels

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "kernel_backend": _kernels.backend(),
        "numba_importable": importlib.util.find_spec("numba") is not None,
        "git_commit": git_commit(root),
    }


# ---------------------------------------------------------------- measuring


def fresh_interpreter_times(root: Path, code: str, samples: int) -> list[float]:
    """Wall times of ``samples`` fresh interpreters each running ``code`` from src/.

    The wait blocks rather than passing a timeout: a wait with a timeout polls
    at up to 50 ms intervals, which rounded every time up to the next poll.
    A timer kills a child that hangs.
    """
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    times = []
    for _ in range(samples):
        t0 = time.perf_counter()
        proc = subprocess.Popen([sys.executable, "-c", code], cwd=root, env=env,
                                stdout=subprocess.DEVNULL)
        killer = threading.Timer(60.0, proc.kill)
        killer.start()
        try:
            rc = proc.wait()
        finally:
            killer.cancel()
        times.append(time.perf_counter() - t0)
        if rc != 0:
            raise subprocess.CalledProcessError(rc, proc.args)
    return times


def harrell_davis(values: list[float], q: float) -> float:
    """Harrell-Davis estimate of the q-quantile.

    Every order statistic is weighted by the Beta((n+1)q, (n+1)(1-q)) mass of
    its slot, so the estimate moves smoothly instead of jumping between
    neighbouring samples.
    """
    import numpy as np

    x = np.sort(np.asarray(values, dtype=float))
    n = len(x)
    a, b = (n + 1) * q, (n + 1) * (1.0 - q)
    t = np.linspace(0.0, 1.0, 20001)
    with np.errstate(divide="ignore"):
        log_pdf = (a - 1.0) * np.log(t) + (b - 1.0) * np.log1p(-t)
    pdf = np.exp(log_pdf - log_pdf.max())
    cdf = np.concatenate([[0.0], np.cumsum(pdf[1:] + pdf[:-1])])
    weights = np.diff(np.interp(np.arange(n + 1) / n, t, cdf / cdf[-1]))
    return float(weights @ x)


def tail(values: list[float]) -> tuple[float, float]:
    """(value, percentile) at the highest percentile with 10 samples beyond it.

    The percentile is 100 * (1 - 10/n); the value is its Harrell-Davis
    estimate. With 10 samples or fewer the tail is the slowest op.
    """
    n = len(values)
    if n <= 10:
        return max(values), 100.0
    q = 1.0 - 10.0 / n
    return harrell_davis(values, q), 100.0 * q


class Runner:
    """Writes each op's scenario file, runs the op, checks it, records it."""

    def __init__(self, root: Path, workload: str, seed: int):
        self.root = root
        self.workload = workload
        self.seed = seed
        self.work_dir = root / ".perfbench" / f"{workload}-seed{seed}"
        self.work_dir.mkdir(parents=True, exist_ok=True)

    def argv_for(self, op) -> list[str]:
        argv = list(op.argv)
        if op.scenario is not None:
            path = self.work_dir / "scenario.json"
            path.write_text(json.dumps(op.scenario), encoding="utf-8")
            argv += ["--scenario", str(path)]
        return argv

    def run(self, op, tracer=None) -> OpRecord:
        argv = self.argv_for(op)
        gc.collect()
        if tracer is None:
            run = ops.run_inprocess(argv)
        else:
            sink = TracedSink(tracer)
            run = tracer.run_op(lambda: ops.run_inprocess(argv, stdout=sink))
        failure = self.classify(op, run)
        text = run.stdout
        rows = sum(1 for line in text.splitlines() if line) - text.count("\n\n") - 1
        record = OpRecord(index=op.index, command=op.command, wall_s=run.wall_s,
                          work=op.work, rows_out=max(rows, 0),
                          bytes_out=len(text.encode()), failure=failure)
        if failure:
            self.save_failure(op, argv, failure)
        return record

    def classify(self, op, run) -> dict | None:
        kind = ops.exit_kind(run.rc)
        detail = run.error.strip().splitlines()[-1] if run.error.strip() else ""
        if kind is None:
            try:
                ops.check_output(op, run.stdout, ops.check_params(op))
            except ops.BadOutput as exc:
                kind, detail = exc.kind, exc.detail
        if kind is None:
            return None
        defect = op.defect
        if defect is None and kind == "traceback" and RECHECK_DEFECT_TEXT in detail:
            defect = DEFECT_SWEEP_4001  # the same solver defect, hit by a random calibration
        return {"op": op.index, "command": op.command, "kind": kind,
                "known_defect": defect, "detail": detail[:300]}

    def save_failure(self, op, argv, failure) -> None:
        name = op.defect or f"op{op.index}"
        path = self.work_dir / f"failed-{name}.json"
        failure["replay"] = str(path.relative_to(self.root))
        record = dict(failure, argv=argv[:-2] if op.scenario is not None else argv,
                      scenario=op.scenario)
        path.write_text(json.dumps(record), encoding="utf-8")

    def prefix_pass(self, count: int, tracer=None) -> Pass:
        done = Pass()
        for op, _ in zip(deck(self.workload, self.seed), range(count)):
            done.records.append(self.run(op, tracer))
        return done


def probe_known_defects(runner: Runner) -> list[dict]:
    """Replay the workload's known-defect ops, untimed; one entry per defect.

    ``kind`` is the failure kind while the defect is still there and None once
    it is fixed. These ops stay out of ``attempted`` and ``failed``: they fail
    by design today, and the measured ops are ones that must succeed.
    """
    found = []
    for op in known_defects(runner.workload):
        failure = runner.run(op).failure or {}
        found.append({"defect": op.defect, "command": op.command,
                      "kind": failure.get("kind"), "detail": failure.get("detail", ""),
                      "replay": failure.get("replay")})
    return found


def warm_up(runner: Runner) -> None:
    """Run the smallest early op of each command first, untimed, so lazy set-up is paid."""
    smallest = {}
    for op, _ in zip(deck(runner.workload, runner.seed), range(64)):
        if op.work < getattr(smallest.get(op.command), "work", 1 << 62):
            smallest[op.command] = op
    for op in smallest.values():
        runner.run(op)


# ---------------------------------------------------------------- metrics


def end_to_end(root: Path, runner: Runner, seconds: float) -> tuple[dict, Pass, dict]:
    warm_up(runner)
    ops_left = deck(runner.workload, runner.seed)
    timed, setup = Pass(), []
    clock = speed.Clock()
    budget = seconds * WORK_PER_S[runner.workload]
    for k in range(1, SEGMENTS + 1):
        setup += fresh_interpreter_times(root, SETUP_CODE, SETUP_SAMPLES // SEGMENTS)
        share = k / SEGMENTS
        while timed.work < budget * share and timed.wall_s < MAX_WALL_FACTOR * seconds * share:
            before = clock.now()
            record = runner.run(next(ops_left))
            record.ref_ms = (before + clock.now()) / 2.0
            timed.records.append(record)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    wall_ms = [r.wall_s * 1e3 for r in timed.records]
    # one factor for the whole run: the reference's mean time, weighted by op time
    ref_ms = sum(r.wall_s * r.ref_ms for r in timed.records) / timed.wall_s
    ms = [t * speed.scale(ref_ms) for t in wall_ms]
    tail_ms, q = tail(ms)
    attempted = len(timed.records)
    metrics = {
        "setup_s": harrell_davis(setup, 0.5),
        "op_ms.p50": statistics.median(ms),
        "op_ms.tail": tail_ms,
        "work_per_s": timed.work / (sum(ms) / 1e3),
        "peak_rss_mb": peak_rss_mb,
    }
    notes = {"tail_percentile": q, "samples": attempted,
             "fail_frac": len(timed.failures) / attempted,
             "ref_ms": ref_ms,
             "wall": {"op_ms.p50": statistics.median(wall_ms),
                      "op_ms.tail": tail(wall_ms)[0],
                      "work_per_s": timed.work / timed.wall_s}}
    return metrics, timed, notes


def per_layer(root: Path, runner: Runner) -> tuple[dict, Pass, dict]:
    warm_up(runner)
    count = TRACE_OPS[runner.workload]
    plain = runner.prefix_pass(count)
    with Tracer() as tracer:
        traced = runner.prefix_pass(count, tracer)
    st = tracer.stats
    metrics = {
        "scenario.load.calls": st["scenario.load_scenario"].calls,
        "scenario.load.ms": st["scenario.load_scenario"].total * 1e3,
        "cli.import_floor_ms":
            statistics.median(fresh_interpreter_times(root, "import numpy", FLOOR_SAMPLES)) * 1e3,
    }
    by_command = {}
    for r in plain.records:
        by_command.setdefault(r.command, []).append(r.wall_s * 1e3)
    for command in ("fixed-points", "bifurcation", "simulate", "statics", "planner-foc"):
        metrics[f"cli.cmd_ms.{command}"] = statistics.median(by_command.get(command, [0.0]))
    ffp = st["solver.find_fixed_points"]
    metrics.update({
        "solver.find_fixed_points.calls": ffp.calls,
        "solver.find_fixed_points.self_ms": ffp.self_time * 1e3,
        "solver.find_fixed_points.fail": ffp.fail,
        "solver.roots": tracer.counts["roots"],
        "solver.residual_ratio.max": tracer.residual_ratio_max,
        "solver_kernels.cover_frac": tracer.solve_cover / traced.wall_s,
    })
    for fn in ("grid_residual", "bisect_root", "simulate_arrays"):
        metrics[f"kernels.{fn}.calls"] = st[f"kernels.{fn}"].calls
        metrics[f"kernels.{fn}.ms"] = st[f"kernels.{fn}"].total * 1e3
    refine = st["bifurcation.refine_saddle_node"]
    transitions = tracer.counts["transitions"]
    metrics.update({
        "bifurcation.sweep.self_ms": st["bifurcation.sweep"].self_time * 1e3,
        "bifurcation.refine_saddle_node.calls": refine.calls,
        "bifurcation.refine_saddle_node.ms": refine.total * 1e3,
        "bifurcation.refine_saddle_node.fail": refine.fail,
        "bifurcation.transitions": transitions,
        "bifurcation.refined_frac":
            tracer.counts["thresholds"] / transitions if transitions else 0.0,
        "dynamics.simulate_path.calls": st["dynamics.simulate_path"].calls,
        "dynamics.simulate_path.self_ms": st["dynamics.simulate_path"].self_time * 1e3,
        "dynamics.periods": tracer.counts["periods"],
        "demand.solve_demand.calls": st["demand.solve_demand"].calls,
        "demand.solve_demand.ms": st["demand.solve_demand"].total * 1e3,
        "demand.income_elasticities.calls": st["demand.income_elasticities"].calls,
        "demand.income_elasticities.ms": st["demand.income_elasticities"].total * 1e3,
        "demand.non_interior": tracer.counts["non_interior"],
        "planner.evaluate_foc.calls": st["planner.evaluate_foc"].calls,
        "planner.evaluate_foc.self_ms": st["planner.evaluate_foc"].self_time * 1e3,
        "cli.cmd.self_ms": sum(s.self_time for n, s in st.items()
                               if n.startswith("cli.cmd_")) * 1e3,
        "cli.write.ms": st["cli.write"].total * 1e3,
        "cli.rows_out": sum(r.rows_out for r in traced.records),
        "cli.bytes_out": sum(r.bytes_out for r in traced.records),
        "trace.overhead_ratio":
            (plain.work / plain.wall_s) / (traced.work / traced.wall_s),
    })
    self_ms = {name: s.self_time * 1e3 for name, s in st.items() if s.calls}
    notes = {"ops": count, "untraced_work_per_s": plain.work / plain.wall_s,
             "traced_work_per_s": traced.work / traced.wall_s,
             "op_ms_total": traced.wall_s * 1e3, "self_ms": self_ms}
    return metrics, traced, notes


# ---------------------------------------------------------------- reporting


def units(names) -> dict:
    table = {n: u for n, u, *_ in [*spec.END_TO_END, *spec.PER_LAYER]}
    return {n: table[n] for n in names}


def report(workload: str, seed: int, trace: int, env: dict, metrics: dict, notes: dict,
           done: Pass, defects: list) -> None:
    unit = units(metrics)
    print(f"# workload {workload}  seed {seed}  trace {trace}")
    print("# environment " + json.dumps(env, sort_keys=True))
    for name, value in metrics.items():
        print(f"{name:40s} {value:14.6g} {unit[name]}")
    if trace:
        print(f"# traced {notes['ops']} ops: untraced {notes['untraced_work_per_s']:.6g}/s, "
              f"traced {notes['traced_work_per_s']:.6g}/s of work")
        for name, ms in sorted(notes["self_ms"].items(), key=lambda kv: -kv[1]):
            share = ms / notes["op_ms_total"]
            print(f"#   self {name:38s} {ms:12.3f} ms  {share:7.1%} of op time")
        moves = {n: m for n, *_, m in spec.PER_LAYER}
        for name in metrics:
            print(f"#   {name} should move: {moves[name]}")
    else:
        print(f"# op_ms.tail is p{notes['tail_percentile']:.4g} of {notes['samples']} ops; "
              f"fail_frac {notes['fail_frac']:.6g} ratio")
        print(f"# op times are scaled to a {speed.REF_MS:g} ms reference task, which "
              f"took {notes['ref_ms']:.4g} ms on average over the ops. Unscaled wall: "
              + ", ".join(f"{n} {v:.6g}" for n, v in notes["wall"].items()))
    for failure in done.failures:
        tag = failure["known_defect"] or "UNEXPECTED"
        print(f"# failed op {failure['op']} {failure['command']}: {failure['kind']} "
              f"[{tag}] {failure['detail'][:160]} (replay: {failure['replay']})")
    for d in defects:
        if d["kind"] is None:
            print(f"# known defect {d['defect']} ({d['command']}): no longer fails")
        else:
            print(f"# known defect {d['defect']} ({d['command']}): still fails, {d['kind']}: "
                  f"{d['detail'][:160]} (replay: {d['replay']})")


def run_one(args) -> int:
    root = ROOT
    problems = gate.run_gate(root)
    if problems:
        for p in problems:
            print(f"gate failed: {p}", file=sys.stderr)
        return 1
    env = environment(root)
    runner = Runner(root, args.workload, args.seed)
    defects = probe_known_defects(runner)
    if args.trace:
        metrics, done, notes = per_layer(root, runner)
    else:
        metrics, done, notes = end_to_end(root, runner, args.seconds)
    declared = [name for name, *_ in (spec.PER_LAYER if args.trace else spec.END_TO_END)]
    if sorted(metrics) != sorted(declared):
        raise AssertionError(f"metrics {sorted(metrics)} differ from spec.py")
    metrics = {name: metrics[name] for name in declared}
    report(args.workload, args.seed, args.trace, env, metrics, notes, done, defects)
    unit = units(metrics)
    wrong = [f for f in done.failures if f["kind"] in ("nonfinite_output", "bad_output")]
    result = {"correct": not wrong, "attempted": len(done.records),
              "failed": len(done.failures),
              "metrics": {n: {"value": v, "unit": unit[n]} for n, v in metrics.items()}}
    out = root / ".perfbench" / "results"
    out.mkdir(parents=True, exist_ok=True)
    ops_run = [[r.index, r.command, r.work, r.wall_s * 1e3, r.ref_ms] for r in done.records]
    (out / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(dict(result, environment=env, notes=notes, failures=done.failures,
                        known_defects=defects, ops=ops_run), indent=2), encoding="utf-8")
    print(json.dumps(result))
    return 0


def run_all(args) -> int:
    """Every workload untraced then traced, each in its own process."""
    summary = {}
    for workload in WORKLOAD_NAMES:
        for trace in (0, 1):
            cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(trace)]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
            sys.stdout.write(proc.stdout)
            sys.stderr.write(proc.stderr)
            if proc.returncode != 0:
                return proc.returncode
            summary[f"{workload}/trace{trace}"] = json.loads(proc.stdout.splitlines()[-1])
    correct = all(r["correct"] for r in summary.values())
    print(json.dumps({"correct": correct,
                      "attempted": sum(r["attempted"] for r in summary.values()),
                      "failed": sum(r["failed"] for r in summary.values()),
                      "metrics": {f"{k}/{n}": m for k, r in summary.items()
                                  for n, m in r["metrics"].items()}}))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES,
                        help="one workload; omit to run every workload in both modes")
    parser.add_argument("--seed", type=int, default=spec.ROUTINE_SEED)
    parser.add_argument("--seconds", type=float, default=spec.RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-manifest", action="store_true",
                        help="write BENCHMARK.json from perfbench/spec.py and exit")
    args = parser.parse_args(argv)
    if args.write_manifest:
        print(spec.write_manifest(ROOT))
        return 0
    if not (ROOT / "src" / "demandtier" / "__init__.py").is_file():
        print(f"no demandtier sources under {ROOT / 'src'}; run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    if args.workload is None:
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
