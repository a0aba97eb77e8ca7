"""Tests of the benchmark's own code: generators, gate, tracer and checks.

Run from the repository root with ``python3 -m pytest perfbench/tests``.
"""

import dataclasses
import io
import json
import math
from contextlib import redirect_stdout
from pathlib import Path

import pytest

from demandtier import cli

from perfbench import gate, ops, run, workloads
from perfbench.tracer import Tracer

ROOT = Path(__file__).resolve().parents[2]


def ops_of(workload, seed, count):
    return [dataclasses.asdict(op) for op, _ in zip(workloads.deck(workload, seed), range(count))]


@pytest.mark.parametrize("workload", workloads.WORKLOAD_NAMES)
def test_same_seed_gives_same_op_list(workload):
    assert ops_of(workload, 7, 30) == ops_of(workload, 7, 30)


@pytest.mark.parametrize("workload", workloads.WORKLOAD_NAMES)
def test_other_seed_gives_other_ops(workload):
    assert ops_of(workload, 7, 30) != ops_of(workload, 8, 30)


@pytest.mark.parametrize("workload", workloads.WORKLOAD_NAMES)
def test_known_defects_stay_out_of_the_timed_deck(workload):
    assert workloads.known_defects(workload)
    assert all(op.defect for op in workloads.known_defects(workload))
    assert not any(op["defect"] for op in ops_of(workload, 7, 60))


def test_prefixes_cover_the_size_range_evenly():
    ops = [workloads.make_op("sweep-calibrations", 3, 6 * j) for j in range(16)]
    assert all(op.command == "bifurcation" for op in ops)
    # the first 16 sizes are the log-uniform quantiles j/16 over [81, 2000]
    positions = sorted(math.log(op.work / 81) / math.log(2000 / 81) for op in ops)
    assert positions == pytest.approx([j / 16 for j in range(16)], abs=0.01)


def test_gate_passes_on_the_current_package():
    assert gate.run_gate(ROOT) == []


def test_gate_rejects_a_planted_wrong_root(monkeypatch):
    real = cli.find_fixed_points

    def shifted(*args, **kwargs):
        return [dataclasses.replace(fp, p_star=fp.p_star * (1 + 1e-8)) for fp in real(*args, **kwargs)]

    monkeypatch.setattr(cli, "find_fixed_points", shifted)
    problems = gate.run_gate(ROOT)
    assert problems and all("golden" in p for p in problems)


def test_gate_rejects_a_planted_wrong_threshold(monkeypatch):
    real = cli.sweep

    def shifted(*args, **kwargs):
        diagram = real(*args, **kwargs)
        first = diagram.thresholds[0]
        diagram.thresholds[0] = dataclasses.replace(first, E_bar=first.E_bar + 1e-6)
        return diagram

    monkeypatch.setattr(cli, "sweep", shifted)
    problems = gate.run_gate(ROOT)
    assert len(problems) == 1 and "closed form" in problems[0]


def test_failed_gate_exits_nonzero_and_prints_no_result(monkeypatch):
    monkeypatch.setattr(gate, "run_gate", lambda root: ["planted"])
    out = io.StringIO()
    with redirect_stdout(out):
        code = run.main(["--workload", "paths-long", "--seconds", "1"])
    assert code == 1
    assert "{" not in out.getvalue()


@pytest.mark.parametrize("index", [0, 1, 6])  # bifurcation, fixed-points, bifurcation
def test_traced_and_untraced_sweep_ops_write_identical_csv(tmp_path, index):
    op = workloads.make_op("sweep-calibrations", 1, index)
    if op.command == "bifurcation":  # small, and on the thread pool
        op.scenario["sweep"]["E_points"] = 101
        op.argv = ["bifurcation", "--workers", "2"]
    assert_identical(tmp_path, op)


@pytest.mark.parametrize("index", [0, 1, 3])  # simulate, statics, planner-foc
def test_traced_and_untraced_path_ops_write_identical_csv(tmp_path, index):
    op = workloads.make_op("paths-long", 1, index)
    op.scenario["simulation" if op.command != "statics" else "statics"].update(
        {"horizon": 300} if op.command != "statics" else {"y_points": 300})
    if op.command == "planner-foc":
        op.scenario["planner"]["horizon"] = 200
        op.scenario["simulation"]["E"] = 0.2
        op.scenario["simulation"]["income"] = 10.0
    elif op.command == "simulate":
        op.scenario["simulation"]["E"] = 0.2
        op.scenario["simulation"]["income"] = 10.0
    assert_identical(tmp_path, op)


def assert_identical(tmp_path, op):
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(op.scenario))
    argv = op.argv + ["--scenario", str(path)]
    plain = ops.run_inprocess(argv)
    with Tracer() as tracer:
        traced = tracer.run_op(lambda: ops.run_inprocess(argv))
    assert plain.rc == traced.rc == 0
    assert plain.stdout and plain.stdout == traced.stdout
    assert sum(s.calls for s in tracer.stats.values()) > 0
    # the tracer restores every patched name
    assert cli.find_fixed_points.__module__ == "demandtier.solver"
    assert not hasattr(cli.simulate_path, "__wrapped__")


def test_probe_reports_each_known_path_defect_with_its_kind(tmp_path):
    found = run.probe_known_defects(run.Runner(tmp_path, "paths-long", 1))
    assert {d["defect"]: d["kind"] for d in found} == {
        workloads.DEFECT_CUBIC_20000: "exit2_on_valid",
        workloads.DEFECT_LINEAR_5000: "nonfinite_output",
    }
    assert all((tmp_path / d["replay"]).is_file() for d in found)


def test_root_check_accepts_printed_roots_and_rejects_a_shifted_one():
    op = workloads.Op(index=0, command="fixed-points", argv=[], scenario=None, work=1)
    params = ops.check_params(op)
    good = ops.run_inprocess(["fixed-points", "--E", "0.215"]).stdout
    ops.check_fixed_points(good, params, 0.215)
    header, first, *rest = good.splitlines()
    fields = first.split(",")
    fields[1] = format(float(fields[1]) * (1 + 1e-9), ".12g")
    with pytest.raises(ops.BadOutput):
        ops.check_fixed_points("\n".join([header, ",".join(fields), *rest]) + "\n", params, 0.215)


def test_manifest_matches_the_committed_benchmark_json():
    from perfbench import spec

    assert (ROOT / "BENCHMARK.json").read_text() == spec.manifest_text()


def test_tail_is_the_percentile_with_ten_samples_beyond_it():
    values = [float(v) for v in range(1, 201)]
    value, q = run.tail(values)
    assert q == pytest.approx(95.0)
    assert value == pytest.approx(190.5, abs=1.0)
    assert run.tail([3.0, 1.0, 2.0]) == (3.0, 100.0)


def test_random_sweep_ops_use_the_loose_root_tolerance():
    for op, _ in zip(workloads.deck("sweep-calibrations", 4), range(12)):
        assert op.scenario["solver"]["bisect_tol"] == workloads.SWEEP_BISECT_TOL


def test_a_recheck_failure_of_a_random_op_names_the_known_defect(tmp_path):
    runner = run.Runner(tmp_path, "sweep-calibrations", 1)
    op = workloads.make_op("sweep-calibrations", 1, 1)
    error = "RuntimeError: bisection returned p*=2.0 ...; " + run.RECHECK_DEFECT_TEXT
    failure = runner.classify(op, ops.OpRun(rc=1, wall_s=0.0, stdout="", error=error))
    assert failure["kind"] == "traceback"
    assert failure["known_defect"] == workloads.DEFECT_SWEEP_4001


def test_scaled_time_is_wall_time_at_the_reference_speed():
    from perfbench import speed

    assert speed.scale(speed.REF_MS) == 1.0
    assert speed.scale(2 * speed.REF_MS) == 0.5
    assert speed.reference_ms() > 0.0
