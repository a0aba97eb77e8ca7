import json
import re
import subprocess
import sys

import numpy as np
import pytest

from conftest import DATA_DIR, load_goldens
from demandtier.cli import _csv

GOLDEN = load_goldens()


def run_cli(*args):
    cmd = [sys.executable, "-m", "demandtier", *args]
    return subprocess.run(cmd, capture_output=True, text=True)


def parse_csv(text):
    lines = text.strip().splitlines()
    header = lines[0].split(",")
    return header, [line.split(",") for line in lines[1:]]


@pytest.fixture(scope="module")
def defaults_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("scenario") / "defaults.json"
    cp = run_cli("--dump-defaults", "--out", str(path))
    assert cp.returncode == 0, cp.stderr
    return path


class TestCsvWriter:
    def test_special_values_print_as_format_12g(self):
        values = [float("nan"), float("inf"), float("-inf"), -0.0, 5e-324, 1e308,
                  0.1, 1.0 / 3.0, 123456789012345.0, np.float64(2.0) / 3.0]
        text = _csv("i,x,label", "%d,%.12g,%s", [(i, v, "ok") for i, v in enumerate(values)])
        expected = "".join(f"{i},{format(float(v), '.12g')},ok\n" for i, v in enumerate(values))
        assert text == "i,x,label\n" + expected

    def test_no_rows_is_header_only(self):
        assert _csv("a,b", "%.12g,%.12g", []) == "a,b\n"


CLI_GOLDENS = DATA_DIR / "cli"


@pytest.mark.parametrize("name, args", [
    ("bifurcation", ("bifurcation",)),
    ("fixed-points_E0.145", ("fixed-points", "--E", "0.145")),
    ("fixed-points_E0.215", ("fixed-points", "--E", "0.215")),
    ("fixed-points_E0.28", ("fixed-points", "--E", "0.28")),
    ("simulate", ("simulate",)),
    ("statics", ("statics",)),
    ("planner-foc_linear",
     ("planner-foc", "--scenario", str(CLI_GOLDENS / "linear_scenario.json"))),
])
def test_default_output_bytes_match_golden(name, args):
    # tests/data/cli/<name>.stdout (and .stderr, where one is committed) hold
    # the exact bytes; rewrite them only for a deliberate change of output
    cp = subprocess.run([sys.executable, "-m", "demandtier", *args], capture_output=True)
    assert cp.returncode == 0, cp.stderr
    assert cp.stdout == (CLI_GOLDENS / f"{name}.stdout").read_bytes()
    stderr = CLI_GOLDENS / f"{name}.stderr"
    assert cp.stderr == (stderr.read_bytes() if stderr.exists() else b"")


class TestEntryPoints:
    def test_help(self):
        cp = run_cli("--help")
        assert cp.returncode == 0
        assert "fixed-points" in cp.stdout

    def test_missing_command(self):
        cp = run_cli()
        assert cp.returncode == 2

    def test_version(self):
        cp = run_cli("--version")
        assert cp.returncode == 0


@pytest.mark.parametrize("command, value", [
    ("statics", "nan"), ("fixed-points", "nan"), ("simulate", "inf"),
])
def test_non_finite_education_override_rejected(command, value):
    cp = run_cli(command, "--E", value)
    assert cp.returncode == 2
    assert "--E" in cp.stderr
    assert cp.stdout == ""


@pytest.mark.parametrize("scenario, args, named", [
    (None, ("fixed-points", "--E", "-5"), "-5.0"),
    ({"simulation": {"E": -1.0}}, ("fixed-points",), "-1.0"),
    ({"sweep": {"E_min": -2.0}}, ("bifurcation",), "E_min=-2.0"),
    (None, ("simulate", "--E", "-1"), "education level must be >= 0, got -1.0"),
    ({"simulation": {"E": [0.1, -0.5, 0.2], "horizon": 3}}, ("simulate",),
     "education level must be >= 0, got -0.5"),
    (None, ("statics", "--E", "-3"), "education level must be >= 0, got -3.0"),
])
def test_negative_education_exits_2_naming_the_value(tmp_path, scenario, args, named):
    if scenario is not None:
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(scenario))
        args += ("--scenario", str(path))
    cp = run_cli(*args)
    assert cp.returncode == 2
    assert named in cp.stderr
    assert cp.stdout == ""


@pytest.mark.parametrize("scenario, command, named", [
    ({"simulation": {"E": [0.1, 0.2, 0.3]}}, "simulate",
     "key 'E' in section 'simulation' has 3 entries, fewer than the 500 periods"),
    ({"simulation": {"income": [10.0, 12.0], "horizon": 4}}, "simulate",
     "key 'income' in section 'simulation' has 2 entries, fewer than the 4 periods"),
    ({"learning": {"variant": "linear"}, "simulation": {"E": [0.28, 0.28]}}, "planner-foc",
     "key 'E' in section 'simulation' has 2 entries, fewer than the 3 periods"),
])
def test_short_simulation_path_exits_2_naming_its_key(tmp_path, scenario, command, named):
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(scenario))
    cp = run_cli(command, "--scenario", str(path))
    assert cp.returncode == 2
    assert named in cp.stderr
    assert cp.stdout == ""


def test_level_where_nu_E_overflows_has_no_fixed_point(tmp_path):
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps({"learning": {"nu": 10.0}}))
    cp = run_cli("fixed-points", "--E", "1e308", "--scenario", str(path))
    assert cp.returncode == 0
    assert cp.stdout == "E,p_star,s_star,t_prime,stability\n"
    assert cp.stderr == ""  # no RuntimeWarning either


class TestDumpDefaults:
    def test_round_trip(self, defaults_file):
        # running against the dumped file must equal running against built-ins
        base = run_cli("fixed-points", "--E", "0.215")
        from_file = run_cli("fixed-points", "--E", "0.215", "--scenario", str(defaults_file))
        assert base.returncode == from_file.returncode == 0
        assert base.stdout == from_file.stdout

    def test_dump_is_valid_json(self, defaults_file):
        data = json.loads(defaults_file.read_text())
        assert set(data) == {
            "preferences", "learning", "solver", "sweep", "planner", "simulation", "statics",
        }


class TestFixedPoints:
    def test_three_rows_at_middle_education(self):
        cp = run_cli("fixed-points", "--E", "0.215")
        assert cp.returncode == 0, cp.stderr
        header, rows = parse_csv(cp.stdout)
        assert header == ["E", "p_star", "s_star", "t_prime", "stability"]
        assert len(rows) == 3
        assert [r[4] for r in rows] == ["stable", "unstable", "stable"]
        p_values = [float(r[1]) for r in rows]
        assert p_values == sorted(p_values)

    def test_single_stable_row_low_education(self):
        cp = run_cli("fixed-points", "--E", "0.145")
        header, rows = parse_csv(cp.stdout)
        assert len(rows) == 1
        assert rows[0][4] == "stable"

    def test_validation_exit_code_names_key(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"solver": {"p_min": 5.0, "p_max": 1.0}}))
        cp = run_cli("fixed-points", "--E", "0.2", "--scenario", str(bad))
        assert cp.returncode == 2
        assert "p_max" in cp.stderr
        assert cp.stdout == ""


class TestSimulate:
    def test_row_count_and_final_price(self):
        cp = run_cli("simulate")
        assert cp.returncode == 0, cp.stderr
        header, rows = parse_csv(cp.stdout)
        assert header == [
            "t", "p", "s_Q", "a_H", "a_L", "c_L", "c_H", "share_H", "utility", "interior_flag",
        ]
        assert len(rows) == 500
        # default run: E = 0.28, p0 = 5; after 499 updates the gap to the
        # stable root is 1.14e-6 (oracle-measured); it crosses 1e-6 near t=505
        p_star = GOLDEN[0.28][0][0]
        assert abs(float(rows[-1][1]) - p_star) < 1.2e-6

    def test_longer_horizon_converges_within_tolerance(self, tmp_path):
        scenario = tmp_path / "long.json"
        scenario.write_text(json.dumps({"simulation": {"horizon": 600}}))
        cp = run_cli("simulate", "--scenario", str(scenario))
        _, rows = parse_csv(cp.stdout)
        p_star = GOLDEN[0.28][0][0]
        assert abs(float(rows[-1][1]) - p_star) < 1e-6

    def test_fixed_point_start_is_constant(self, tmp_path):
        p_star = GOLDEN[0.28][0][0]
        scenario = tmp_path / "fp.json"
        scenario.write_text(
            json.dumps({"simulation": {"a_L0": p_star, "a_H0": 1.0, "horizon": 50}})
        )
        cp = run_cli("simulate", "--scenario", str(scenario))
        _, rows = parse_csv(cp.stdout)
        prices = {row[1] for row in rows}
        assert all(abs(float(p) - p_star) < 1e-10 for p in prices)

    def test_nonpositive_productivity_rejected(self, tmp_path):
        scenario = tmp_path / "bad.json"
        scenario.write_text(json.dumps({"simulation": {"a_H0": -1.0}}))
        cp = run_cli("simulate", "--scenario", str(scenario))
        assert cp.returncode == 2
        assert "a_H" in cp.stderr

    def test_non_finite_scenario_number_rejected(self, tmp_path):
        scenario = tmp_path / "nan.json"
        scenario.write_text('{"simulation": {"a_L0": NaN, "horizon": 3}}')
        cp = run_cli("simulate", "--scenario", str(scenario))
        assert cp.returncode == 2
        assert "'a_L0'" in cp.stderr
        assert cp.stdout == ""


class TestStatics:
    def test_luxury_necessity_columns(self):
        cp = run_cli("statics")
        assert cp.returncode == 0, cp.stderr
        header, rows = parse_csv(cp.stdout)
        assert header == ["Y", "c_L", "c_H", "share_H", "share_L", "eta_H", "eta_L", "interior_flag"]
        assert all(r[7] == "1" for r in rows)
        assert all(float(r[5]) > 1.0 for r in rows)
        assert all(float(r[6]) < 1.0 for r in rows)

    def test_homothetic_when_no_subsistence(self, tmp_path):
        scenario = tmp_path / "nosub.json"
        scenario.write_text(json.dumps({"preferences": {"gammaL_base": 0.0}}))
        cp = run_cli("statics", "--scenario", str(scenario))
        _, rows = parse_csv(cp.stdout)
        assert all(abs(float(r[5]) - 1.0) < 1e-12 for r in rows)
        assert all(abs(float(r[6]) - 1.0) < 1e-12 for r in rows)

    def test_non_finite_scenario_number_rejected(self, tmp_path):
        scenario = tmp_path / "inf.json"
        scenario.write_text('{"statics": {"y_max": Infinity, "y_points": 3}}')
        cp = run_cli("statics", "--scenario", str(scenario))
        assert cp.returncode == 2
        assert "'y_max'" in cp.stderr
        assert cp.stdout == ""

    def test_non_interior_rows_flagged(self, tmp_path):
        scenario = tmp_path / "poor.json"
        scenario.write_text(json.dumps({"statics": {"y_min": 1.0, "y_max": 40.0, "y_points": 5}}))
        cp = run_cli("statics", "--scenario", str(scenario))
        assert cp.returncode == 0, cp.stderr
        _, rows = parse_csv(cp.stdout)
        assert rows[0][7] == "0"
        assert rows[0][5] == "nan"
        assert any(r[7] == "1" for r in rows)


@pytest.fixture(scope="module")
def outputs(tmp_path_factory):
    out_dir = tmp_path_factory.mktemp("bif")
    locus = out_dir / "locus.csv"
    thresholds = out_dir / "thresholds.csv"
    cp = run_cli("bifurcation", "--out", str(locus), "--thresholds-out", str(thresholds))
    assert cp.returncode == 0, cp.stderr
    return locus, thresholds, cp.stderr


class TestBifurcation:
    def test_locus_has_all_grid_levels(self, outputs):
        locus, _, _ = outputs
        header, rows = parse_csv(locus.read_text())
        assert header == ["E", "p_star", "stability"]
        assert len({r[0] for r in rows}) == 81

    def test_thresholds_rows(self, outputs):
        _, thresholds, _ = outputs
        header, rows = parse_csv(thresholds.read_text())
        assert header == ["E_bar", "s_bar", "res_H", "res_dHds"]
        assert len(rows) == 2
        assert all(float(r[2]) <= 1e-8 and float(r[3]) <= 1e-8 for r in rows)

    def test_window_transitions_reported_on_stderr(self, outputs):
        _, _, stderr = outputs
        assert stderr.count("not refined") == 2

    def test_byte_identical_across_runs_and_workers(self, outputs, tmp_path):
        locus, thresholds, _ = outputs
        for workers in ("1", "4"):
            again_locus = tmp_path / f"locus_{workers}.csv"
            again_thresholds = tmp_path / f"thresholds_{workers}.csv"
            cp = run_cli(
                "bifurcation", "--workers", workers,
                "--out", str(again_locus), "--thresholds-out", str(again_thresholds),
            )
            assert cp.returncode == 0
            assert again_locus.read_bytes() == locus.read_bytes()
            assert again_thresholds.read_bytes() == thresholds.read_bytes()

    def test_strict_mode_fails_on_window_transitions(self):
        cp = run_cli("bifurcation", "--strict")
        assert cp.returncode == 3

    def test_linear_spec_has_empty_thresholds(self, tmp_path):
        scenario = tmp_path / "linear.json"
        scenario.write_text(json.dumps({"learning": {"variant": "linear"}}))
        locus = tmp_path / "locus.csv"
        thresholds = tmp_path / "thresholds.csv"
        cp = run_cli(
            "bifurcation", "--scenario", str(scenario),
            "--out", str(locus), "--thresholds-out", str(thresholds), "--strict",
        )
        assert cp.returncode == 0, cp.stderr
        assert thresholds.read_text() == "E_bar,s_bar,res_H,res_dHds\n"
        _, rows = parse_csv(locus.read_text())
        per_level = {}
        for r in rows:
            per_level[r[0]] = per_level.get(r[0], 0) + 1
        assert all(count == 1 for count in per_level.values())

    def test_dense_sweep_writes_every_level(self, tmp_path):
        # 4001 levels put E = 0.0989 on the grid, where a near-tolerance root
        # once failed the solver's residual re-check with a traceback
        scenario = tmp_path / "dense.json"
        scenario.write_text(json.dumps({"sweep": {"E_points": 4001}}))
        locus = tmp_path / "locus.csv"
        thresholds = tmp_path / "thresholds.csv"
        cp = run_cli(
            "bifurcation", "--scenario", str(scenario),
            "--out", str(locus), "--thresholds-out", str(thresholds),
        )
        assert cp.returncode == 0, cp.stderr
        assert "Traceback" not in cp.stderr
        _, rows = parse_csv(locus.read_text())
        assert len({r[0] for r in rows}) == 4001

    def test_legacy_solver_keys_rejected(self, tmp_path):
        # keys of the former grid solver are unknown keys like any other
        scenario = tmp_path / "legacy.json"
        for key, value in [("grid_points", 4001), ("dedup_tol", 1e-7)]:
            scenario.write_text(json.dumps({"solver": {key: value}}))
            cp = run_cli("bifurcation", "--scenario", str(scenario))
            assert cp.returncode == 2
            assert f"unknown key '{key}' in section 'solver'" in cp.stderr
            assert "note:" not in cp.stderr
            assert cp.stdout == ""

    def test_root_above_bound_exits_3_with_float_reprs(self, tmp_path):
        scenario = tmp_path / "tight.json"
        scenario.write_text(json.dumps({"solver": {"bisect_tol": 1e-300}}))
        cp = run_cli("bifurcation", "--scenario", str(scenario))
        assert cp.returncode == 3
        assert "Traceback" not in cp.stderr and "np.float64" not in cp.stderr
        match = re.search(r"fixed point p\*=(\S+) at E=(\S+) has residual", cp.stderr)
        assert match, cp.stderr
        for text in match.groups():
            assert repr(float(text)) == text

    def test_stdout_carries_both_csvs(self):
        cp = run_cli("bifurcation")
        assert cp.returncode == 0
        assert "E,p_star,stability" in cp.stdout
        assert "E_bar,s_bar,res_H,res_dHds" in cp.stdout


@pytest.fixture(scope="module")
def linear_scenario(tmp_path_factory):
    path = tmp_path_factory.mktemp("planner") / "linear.json"
    path.write_text(
        json.dumps(
            {
                "learning": {"variant": "linear", "nu": 0.6, "phi": 0.8, "chi": 1.2},
                "simulation": {"a_H0": 1.0, "a_L0": 2.0, "E": 0.2, "income": 10.0, "horizon": 3},
                "planner": {"beta": 0.95, "horizon": 3, "kappa_scale": 0.05, "kappa_curv": 2.0},
            }
        )
    )
    return path


class TestPlannerFoc:
    def test_terminal_spillover_zero(self, linear_scenario):
        cp = run_cli("planner-foc", "--scenario", str(linear_scenario))
        assert cp.returncode == 0, cp.stderr
        header, rows = parse_csv(cp.stdout)
        assert header == [
            "t", "preference_term", "spillover_term", "shadow_cost", "wedge", "lambda", "eta",
        ]
        assert len(rows) == 3
        assert float(rows[-1][2]) == 0.0

    def test_wedge_column_matches_oracle(self, linear_scenario):
        import oracles
        from demandtier import LearningSpec, PreferenceSchedule, TechnologyState, simulate_path

        cp = run_cli("planner-foc", "--scenario", str(linear_scenario))
        _, rows = parse_csv(cp.stdout)
        spec = LearningSpec.linear(nu=0.6, phi=0.8, chi=1.2)
        path = simulate_path(
            PreferenceSchedule(), spec, TechnologyState(a_H=1.0, a_L=2.0), 0.2, 10.0, 3
        )
        fd = oracles.planner_fd_wedges(
            list(path.e_path), a_h0=1.0, a_l_path=path.a_l, y_vec=path.income_path,
            beta=0.95, nu=0.6, phi=0.8, kappa_scale=0.05, kappa_curv=2.0,
        )
        for row, expected in zip(rows, fd):
            assert float(row[4]) == pytest.approx(expected, rel=1e-4)

    def test_cubic_default_rejected(self):
        cp = run_cli("planner-foc")
        assert cp.returncode == 2
        assert "linear" in cp.stderr

    def test_simulation_horizon_ignored(self, tmp_path):
        # a path of ten entries is long enough for the planner's three periods
        scenario = tmp_path / "short_path.json"
        scenario.write_text(json.dumps({
            "learning": {"variant": "linear"},
            "simulation": {"horizon": 500, "E": [0.28] * 10},
        }))
        cp = subprocess.run(
            [sys.executable, "-m", "demandtier", "planner-foc", "--scenario", str(scenario)],
            capture_output=True,
        )
        assert cp.returncode == 0, cp.stderr
        assert cp.stdout == (CLI_GOLDENS / "planner-foc_linear.stdout").read_bytes()

    def test_high_education_within_planner_horizon(self, tmp_path):
        # E = 10 overflows a_H within 500 periods, but not within the planner's three
        scenario = tmp_path / "high_E.json"
        scenario.write_text(json.dumps({
            "learning": {"variant": "linear"},
            "simulation": {"E": 10, "income": 1000},
        }))
        cp = run_cli("planner-foc", "--scenario", str(scenario))
        assert cp.returncode == 0, cp.stderr
        _, rows = parse_csv(cp.stdout)
        assert len(rows) == 3
        assert all(np.isfinite(float(v)) for row in rows for v in row)
