import contextlib
import io
import json
import math
import re
import subprocess
import sys
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from check_format import FAMILIES, integers, mismatches, samples
from conftest import DATA_DIR, load_goldens
from demandtier import cli
from demandtier.cli import _csv, _csv_columns, _field_words
from demandtier.errors import ConfigError

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
        text = _csv_columns("i,x", [np.arange(len(values)), np.array(values)])
        expected = "".join(f"{i},{format(float(v), '.12g')}\n" for i, v in enumerate(values))
        assert text == "i,x\n" + expected

    def test_no_rows_is_header_only(self):
        assert _csv("a,b", "%.12g,%.12g", []) == "a,b\n"


# the values where %.12g changes notation, digit count or rounding direction
EDGE_FLOATS = [
    math.nan, math.inf, 0.0, 5e-324, 2.2250738585072014e-308, 1.7976931348623157e308,
    1e-4, 9.99999999999949e-5, 999999999999.5, 1e12, 1e16, 123456789012.5,
]
EDGE_INTS = [0, 1, 10**12 - 1, 10**12, 2**63 - 1]
INT64 = st.integers(min_value=-(2**63), max_value=2**63 - 1)


def assert_same_as_percent(ints, floats):
    assert mismatches(np.array(ints, dtype=np.int64), np.array(floats, dtype=float)) == []


class TestColumnCsv:
    """``_csv_columns`` writes the bytes of ``_csv``: '%d' per integer or bool
    value and '%.12g' per float."""

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(st.lists(st.tuples(INT64, st.floats()), max_size=40))
    def test_any_int64_and_float_as_percent(self, rows):
        assert_same_as_percent([i for i, _ in rows], [x for _, x in rows])

    def test_edge_values_as_percent(self):
        floats = EDGE_FLOATS + [-x for x in EDGE_FLOATS]
        ints = EDGE_INTS + [-i for i in EDGE_INTS] + [-(2**63)]
        assert_same_as_percent(range(len(floats)), floats)
        assert_same_as_percent(ints, [1.0] * len(ints))

    @pytest.mark.parametrize("family", FAMILIES)
    def test_sampled_families_as_percent(self, family):
        rng = np.random.default_rng(14)
        assert_same_as_percent(integers(4000, rng), samples(family, 4000, rng))

    def test_zero_rows_is_header_only(self):
        empty = np.array([])
        assert _csv_columns("t,x,flag", [empty, empty, empty]) == "t,x,flag\n"

    def test_bool_and_integer_columns_print_as_d(self):
        flags = np.array([True, False, True])
        text = _csv_columns("t,x,flag", [np.arange(3), np.ones(3), flags])
        assert text == "t,x,flag\n0,1,1\n1,1,0\n2,1,1\n"

    def test_only_uncertain_values_are_left_to_percent(self):
        # ties and values below 1e-296 are %-formatted; ordinary values of
        # any magnitude, zeros, NaN and infinities are written column-wise
        left = np.array([123456789012.5, -0.5000000000005, 5e-324, 1e-300])
        written = np.array([0.0, -0.0, 1.0, -2.5e-268, 3.7e268, 1e-296, 0.1,
                            math.nan, -math.nan, math.inf, -math.inf])
        assert not _field_words(left, np.empty((left.size, 5), np.uint64)).any()
        assert _field_words(written, np.empty((written.size, 5), np.uint64)).all()


CLI_GOLDENS = DATA_DIR / "cli"


GOLDEN_CASES = [
    ("bifurcation", ("bifurcation",)),
    ("fixed-points_E0.145", ("fixed-points", "--E", "0.145")),
    ("fixed-points_E0.215", ("fixed-points", "--E", "0.215")),
    ("fixed-points_E0.28", ("fixed-points", "--E", "0.28")),
    ("simulate", ("simulate",)),
    ("statics", ("statics",)),
    ("planner-foc_linear",
     ("planner-foc", "--scenario", str(CLI_GOLDENS / "linear_scenario.json"))),
    ("planner-foc", ("planner-foc",)),
    # two collisions in one cell of the grid, and a collision below p_min
    ("close_collisions",
     ("bifurcation", "--scenario", str(CLI_GOLDENS / "close_collisions.json"))),
    ("collision_below_p_min",
     ("bifurcation", "--scenario", str(CLI_GOLDENS / "collision_below_p_min.json"))),
]


def golden_bytes(name):
    """(stdout, stderr) bytes committed for a default output."""
    stderr = CLI_GOLDENS / f"{name}.stderr"
    return (CLI_GOLDENS / f"{name}.stdout").read_bytes(), (
        stderr.read_bytes() if stderr.exists() else b"")


@pytest.mark.parametrize("name, args", GOLDEN_CASES)
def test_default_output_bytes_match_golden(name, args):
    # tests/data/cli/<name>.stdout (and .stderr, where one is committed) hold
    # the exact bytes; rewrite them only for a deliberate change of output
    cp = subprocess.run([sys.executable, "-m", "demandtier", *args], capture_output=True)
    assert cp.returncode == 0, cp.stderr
    assert (cp.stdout, cp.stderr) == golden_bytes(name)


def main_in_process(args):
    """(exit code, stdout bytes, stderr bytes) of one ``cli.main`` call."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(list(args))
        except SystemExit as exc:  # argparse exits for --help, --version and bad flags
            code = exc.code
    return code, out.getvalue().encode(), err.getvalue().encode()


def test_repeated_in_process_calls_match_fresh_processes(tmp_path, monkeypatch):
    # main reuses one parser for every call in a process: no call, whether it
    # succeeds, exits 2 or leaves through argparse, may change a later one
    monkeypatch.setenv("COLUMNS", "80")  # help and usage wrap at the terminal width
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"solver": {"p_min": 5.0, "p_max": 1.0}}))
    others = [(("fixed-points", "--E", "nan"), 2), (("--version",), 0), (("--help",), 0),
              (("fixed-points", "--scenario", str(bad)), 2),
              # argv that start with a command go to its own parser first
              (("fixed-points", "--bogus"), 2), (("simulate", "--E"), 2),
              (("statics", "extra"), 2), (("planner-foc", "--version"), 2),
              (("bifurcation", "--help"), 0), (("bifurcation", "--workers", "x"), 2)]
    assert len(others) <= 2 * len(GOLDEN_CASES)  # the loop below reaches each one
    expected = {}
    for args, code in others:
        cp = subprocess.run([sys.executable, "-m", "demandtier", *args], capture_output=True)
        assert cp.returncode == code, cp.stderr
        expected[args] = (code, cp.stdout, cp.stderr)
    for name, args in GOLDEN_CASES:
        expected[args] = (0, *golden_bytes(name))
    for k, (_, args) in enumerate(GOLDEN_CASES * 2):
        for call in (args, others[k % len(others)][0]):
            assert main_in_process(call) == expected[call], call


def test_main_runs_the_command_bound_on_the_module(monkeypatch):
    # a tracer wraps a command by rebinding its cli.cmd_* name; main must run
    # the function bound there at the time of the call
    calls = []

    def patched(scenario, args):
        calls.append((scenario.statics, args.E))
        return 7

    monkeypatch.setattr(cli, "cmd_statics", patched)
    assert main_in_process(("statics", "--E", "0.3")) == (7, b"", b"")
    assert calls == [(cli.default_scenario().statics, 0.3)]
    monkeypatch.undo()

    # so must the engine names the commands call, which are lazy attributes of
    # cli until something binds them there
    for name, args in [("find_fixed_points", ("fixed-points",)), ("sweep", ("bifurcation",)),
                       ("simulate_path", ("simulate",)), ("evaluate_foc", ("planner-foc",)),
                       ("elasticity_arrays", ("statics",))]:
        def planted(*_, name=name, **__):
            raise ConfigError(f"planted {name}")

        setattr(cli, name, planted)
        try:
            assert main_in_process(args) == (2, b"", f"error: planted {name}\n".encode())
        finally:
            delattr(cli, name)  # back to the lazy name
        assert getattr(cli, name) is not planted

    # read before any command, the lazy name is the solver's own function
    probe = "from demandtier import cli; print(cli.find_fixed_points.__module__)"
    cp = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True)
    assert (cp.returncode, cp.stdout) == (0, "demandtier.solver\n"), cp.stderr


# counts the argparse parsers built by then: after importing cli, and after
# each of three main calls
PARSER_PROBE = """
import argparse, contextlib, io
built = []
init = argparse.ArgumentParser.__init__
def counting_init(self, *args, **kwargs):
    built.append(self)
    init(self, *args, **kwargs)
argparse.ArgumentParser.__init__ = counting_init
from demandtier import cli
counts = [len(built)]
for _ in range(3):
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(["fixed-points", "--E", "0.215"]) == 0
    counts.append(len(built))
print(counts, len(cli._COMMANDS))
"""


def test_parser_is_built_once_per_process():
    cp = subprocess.run([sys.executable, "-c", PARSER_PROBE], capture_output=True, text=True)
    assert cp.returncode == 0, cp.stderr
    # importing cli builds no parser; the first call builds the full one and each
    # command's, once, and later calls reuse them
    assert cp.stdout == "[0, 6, 6, 6] 5\n"


# a valid option list of each command, for the parse-route table
VALID_OPTIONS = {
    "fixed-points": ("--E", "0.2"),
    "bifurcation": ("--strict", "--workers", "2", "--thresholds-out", "t.csv"),
    "simulate": ("--E", "0.3", "--out", "o.csv"),
    "statics": ("--E=0.1",),
    "planner-foc": ("--out", "o.csv"),
}


def argv_table():
    """Argument lists for both parse routes: per command, valid input and each
    way of getting it wrong, and argv that do not start with a command."""
    table = [(), ("--version",), ("--help",), ("-h",), ("--dump-defaults",),
             ("--dump-defaults", "--out", "d.json"), ("--out",), ("--bogus",), ("nope",),
             ("fixed",), ("--", "fixed-points"), ("--dump-defaults", "extra")]
    for command, valid in VALID_OPTIONS.items():
        table += [
            (command,), (command, *valid), (command, "--scenario", "s.json", *valid),
            (command, "--sc", "s.json"),  # an abbreviation
            (command, "--scenario", "a.json", "--scenario", "b.json"),
            (command, "--scenario"), (command, *valid, "--out"),  # a missing value
            (command, "--E", "nan"), (command, "--E", "1e999"), (command, "--workers", "x"),
            (command, "--bogus"), (command, "--bogus=1", *valid), (command, "-x"),
            (command, "extra"), (command, *valid, "extra", "more"), (command, "--", "extra"),
            (command, "--help"), (command, "-h", "--bogus"), (command, "--version"),
            (command, "--dump-defaults"), (command, command),
            ("--out", "x.csv", command), ("--dump-defaults", command), ("--version", command),
            ("--help", command),
        ]
    return table


def parsed(parse, argv):
    """(namespace, exit code, stdout, stderr) of one parse of argv."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            namespace, code = vars(parse(list(argv))), None
        except SystemExit as exc:
            namespace, code = None, exc.code
    return namespace, code, out.getvalue(), err.getvalue()


def test_command_parser_route_matches_the_full_parser(monkeypatch):
    # main hands an argv that starts with a command to that command's parser;
    # it must give what _PARSER.parse_args gives, byte for byte
    monkeypatch.setenv("COLUMNS", "80")  # help and usage wrap at the terminal width
    table = argv_table()
    assert len(table) >= 100
    codes = set()
    for argv in table:
        full = parsed(cli._PARSER.parse_args, argv)
        assert parsed(cli._parse_argv, argv) == full, argv
        codes.add(full[1])
    assert codes == {None, 0, 2}  # parsed, --help or --version, and rejected


# runs each argument list of argv[1] through cli.main in one process and
# records the exit code and whether numpy is imported after it; then simulate
NUMPY_PROBE = """
import contextlib, io, json, sys
from demandtier import cli
seen = []
for args in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            code = cli.main(args)
        except SystemExit as exc:
            code = exc.code
    seen.append([code, "numpy" in sys.modules])
out = io.StringIO()
with contextlib.redirect_stdout(out):
    seen.append([cli.main(["simulate"]), out.getvalue()])
print(json.dumps(seen))
"""


def test_commands_without_arrays_never_import_numpy(tmp_path):
    # fixed-points solves its one level on Python floats, and the loader's
    # checks, --dump-defaults, --version and --help compute nothing; simulate
    # and statics check their scalar inputs and list lengths, and statics
    # probes its top income, on floats before they build an array; numpy
    # loads with the first array, and simulate then still writes its golden
    scenarios = {
        "unknown": {"solver": {"no_such_key": 1}},
        "short_E": {"simulation": {"E": [0.2, 0.3], "horizon": 3}},
        "short_income": {"simulation": {"income": [10.0], "horizon": 2}},
        "gamma_H": {"preferences": {"gamma_H": 1.0}},
    }
    paths = {}
    for name, scenario in scenarios.items():
        paths[name] = tmp_path / f"{name}.json"
        paths[name].write_text(json.dumps(scenario))
    calls = [["fixed-points", "--E", "0.215"], ["--dump-defaults"], ["--version"], ["--help"],
             ["fixed-points", "--scenario", str(paths["unknown"])],
             ["simulate", "--E", "-1"],
             ["simulate", "--scenario", str(paths["short_E"])],
             ["simulate", "--scenario", str(paths["short_income"])],
             ["statics", "--E", "-1"],
             ["statics", "--scenario", str(paths["gamma_H"])]]
    cp = subprocess.run([sys.executable, "-c", NUMPY_PROBE, json.dumps(calls)],
                        capture_output=True, text=True)
    assert cp.returncode == 0, cp.stderr
    seen = json.loads(cp.stdout)
    assert seen[:-1] == [[0, False]] * 4 + [[2, False]] * 6
    assert seen[-1] == [0, golden_bytes("simulate")[0].decode()]


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
    # a negative scalar simulation.E is named by its key; a negative --E by its value
    ({"simulation": {"E": -1.0}}, ("simulate",),
     "key 'E' in section 'simulation' must be >= 0, got -1.0"),
    ({"simulation": {"E": -2}}, ("planner-foc",),
     "key 'E' in section 'simulation' must be >= 0, got -2.0"),
    ({"simulation": {"E": -2.0}}, ("simulate", "--E", "-1"),
     "error: education level must be >= 0, got -1.0\n"),
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
    ({"simulation": {"E": []}}, "simulate",
     "key 'E' in section 'simulation' has 0 entries, fewer than the 500 periods"),
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


@pytest.mark.parametrize("args, named", [
    (("bifurcation",), "g_H = 5e+298 at E = 0.05"),
    (("fixed-points", "--E", "0.3"), "g_H = 3e+299 at E = 0.3"),
], ids=["bifurcation", "fixed-points"])
def test_growth_factor_whose_square_overflows_exits_3(tmp_path, args, named):
    # g_H = 1 + 1e300*E has roots, but its square in dH/ds leaves float range
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps({"learning": {"chi2": -1e-06, "nu": 1e+300, "chi1": 1e+300}}))
    cp = run_cli(*args, "--scenario", str(path))
    assert cp.returncode == 3
    assert named in cp.stderr
    assert "Traceback" not in cp.stderr
    assert cp.stdout == ""


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

    def test_education_path_without_override_exits_2(self, tmp_path):
        scenario = tmp_path / "path.json"
        scenario.write_text(json.dumps({"simulation": {"E": [0.1, 0.2]}}))
        cp = run_cli("fixed-points", "--scenario", str(scenario))
        assert cp.returncode == 2
        assert cp.stderr == ("error: scenario simulation E is a path; "
                             "pass --E to pick the education level\n")
        assert cp.stdout == ""

    def test_scenario_file_that_is_not_utf8_exits_2(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_bytes(b'{"x": "\xff"}')
        cp = run_cli("fixed-points", "--scenario", str(bad))
        assert cp.returncode == 2
        assert cp.stderr == ("error: scenario file is not valid JSON: 'utf-8' codec can't "
                             "decode byte 0xff in position 7: invalid start byte\n")
        assert cp.stdout == ""


@pytest.mark.parametrize("simulation, command, named", [
    ({"a_H0": 1e-300, "a_L0": 1e300, "horizon": 3}, "simulate",
     "the relative price a_L0/a_H0 overflows at period 0"),
    ({"a_H0": 1e300, "a_L0": 1e-300}, "simulate",
     "the relative price a_L0/a_H0 underflows to 0 at period 0"),
    ({"a_H0": 1e300, "a_L0": 1e-300}, "planner-foc",
     "the relative price a_L0/a_H0 underflows to 0 at period 0"),
    ({"a_H0": 1e300, "a_L0": 1e-8, "horizon": 2}, "simulate",
     "c_H overflows at period 0: the relative price p = 1e-308 is too small for income 10.0"),
], ids=["p0-overflows", "p0-underflows", "p0-underflows-planner", "c_H-overflows"])
def test_extreme_initial_state_exits_3_naming_period_and_cause(
        tmp_path, simulation, command, named):
    # the initial price is checked before any array is built, c_H after the
    # household block; before, these wrote inf or NaN on rows flagged
    # interior, or blamed price_H with exit 2
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps({"simulation": simulation}))
    cp = run_cli(command, "--scenario", str(path))
    assert cp.returncode == 3
    assert cp.stderr.startswith("error: " + named), cp.stderr
    assert "Warning" not in cp.stderr
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

    def test_gamma_h_nonzero_exits_2_naming_it(self, tmp_path):
        # the elasticities are derived under gamma_H = 0
        scenario = tmp_path / "gamma_h.json"
        scenario.write_text(json.dumps({"preferences": {"gamma_H": 0.3}}))
        cp = run_cli("statics", "--scenario", str(scenario))
        assert cp.returncode == 2
        assert cp.stderr == (
            "error: income elasticities are derived under gamma_H = 0, got gamma_H=0.3\n"
        )
        assert cp.stdout == ""

    def test_non_finite_scenario_number_rejected(self, tmp_path):
        scenario = tmp_path / "inf.json"
        scenario.write_text('{"statics": {"y_max": Infinity, "y_points": 3}}')
        cp = run_cli("statics", "--scenario", str(scenario))
        assert cp.returncode == 2
        assert "'y_max'" in cp.stderr
        assert cp.stdout == ""

    @pytest.mark.parametrize("statics, y_named", [
        ({"price_H": 1e-308}, "40"),  # overflows from Y = 8 on; named at y_max
        ({"price_H": 1e-309, "y_points": 1}, "4"),  # a one-point grid holds y_min only
    ])
    def test_price_so_small_that_c_H_overflows_exits_3(self, tmp_path, statics, y_named):
        scenario = tmp_path / "tiny_price.json"
        scenario.write_text(json.dumps({"statics": statics}))
        cp = run_cli("statics", "--scenario", str(scenario))
        assert cp.returncode == 3
        assert cp.stderr == (
            "error: key 'price_H' in section 'statics' is too small: "
            f"c_H overflows at Y={y_named}, got price_H={statics['price_H']!r}\n"
        )
        assert cp.stdout == ""

    def test_tiny_price_without_interior_rows_is_no_overflow(self, tmp_path):
        # gamma_L(0.2) = 1.81 > Y, so B <= 0 on every row and no c_H is computed
        scenario = tmp_path / "poor.json"
        scenario.write_text(json.dumps(
            {"statics": {"price_H": 1e-308, "y_min": 1.0, "y_max": 1.5, "y_points": 3}}))
        cp = run_cli("statics", "--scenario", str(scenario))
        assert (cp.returncode, cp.stderr) == (0, "")
        _, rows = parse_csv(cp.stdout)
        assert [r[7] for r in rows] == ["0", "0", "0"]

    def test_overflow_outside_c_H_keeps_its_warning(self, tmp_path):
        # alpha_slope*E overflows to inf and alpha clips to alpha_hi: the rows
        # are finite, and numpy's warning stays on standard error
        scenario = tmp_path / "steep.json"
        scenario.write_text(json.dumps(
            {"preferences": {"alpha_slope": 1e300}, "statics": {"E": 1e10}}))
        cp = run_cli("statics", "--scenario", str(scenario))
        assert cp.returncode == 0, cp.stderr
        assert "RuntimeWarning: overflow encountered in multiply" in cp.stderr
        _, rows = parse_csv(cp.stdout)
        assert all(math.isfinite(float(x)) for r in rows for x in r)

    def test_share_L_near_zero_is_not_cancelled(self, tmp_path):
        # alpha = 1 - 2**-53 and gamma_L = 0: share_L = 1 - alpha, which
        # 1 - share_H would round to 0, and eta_L = 1, not inf
        scenario = tmp_path / "alpha_near_one.json"
        scenario.write_text(json.dumps({
            "preferences": {"alpha_lo": 0.9999999999999999, "alpha_hi": 0.9999999999999999,
                            "gammaL_base": 0.0},
            "statics": {"y_min": 1, "y_max": 3, "y_points": 3, "price_H": 1.3},
        }))
        cp = run_cli("statics", "--scenario", str(scenario))
        assert cp.returncode == 0, cp.stderr
        assert cp.stderr == ""
        _, rows = parse_csv(cp.stdout)
        assert [(r[4], r[6], r[7]) for r in rows] == [("1.11022302463e-16", "1", "1")] * 3

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
        assert stderr.count("transition at E=") == 2

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
        cp = run_cli("bifurcation", "--strict",
                     "--scenario", str(CLI_GOLDENS / "collision_below_p_min.json"))
        assert cp.returncode == 3 and cp.stdout == ""
        assert cp.stderr.startswith("transition at E=0.129357924087 [0 -> 1 roots]")

    def test_two_level_grid_finds_both_thresholds(self, tmp_path):
        # the transitions do not depend on the grid: the grid's two ends bracket
        # both collisions, and the thresholds are those of the default sweep
        scenario = tmp_path / "coarse.json"
        scenario.write_text(json.dumps({"sweep": {"E_min": 0.15, "E_max": 0.25, "E_points": 2}}))
        cp = run_cli("bifurcation", "--scenario", str(scenario))
        assert (cp.returncode, cp.stderr) == (0, "")
        golden, _ = golden_bytes("bifurcation")
        assert cp.stdout.partition("\n\n")[2] == golden.partition(b"\n\n")[2].decode()

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

    @pytest.mark.parametrize("option", ["--out", "--thresholds-out"])
    def test_one_output_option_sends_the_other_table_to_stdout(self, tmp_path, option):
        golden, stderr = golden_bytes("bifurcation")
        locus, _, thresholds = golden.partition(b"\n\n")
        locus += b"\n"
        to_file, to_stdout = (locus, thresholds) if option == "--out" else (thresholds, locus)
        path = tmp_path / "table.csv"
        assert main_in_process(("bifurcation", option, str(path))) == (0, to_stdout, stderr)
        assert path.read_bytes() == to_file

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

    def test_non_finite_term_exits_3_naming_column_and_period(self, tmp_path):
        # chi = 1e300 drives a_L, and so p, past the float range by period 2;
        # the costate carries the NaN back to t = 0
        scenario = tmp_path / "huge_chi.json"
        scenario.write_text(json.dumps({"learning": {"variant": "linear", "chi": 1e300}}))
        cp = run_cli("planner-foc", "--scenario", str(scenario))
        assert cp.returncode == 3
        assert cp.stderr == (
            "error: planner FOC column 'spillover_term' is nan at t=0: "
            "the terms leave the float range along the path\n"
        )
        assert cp.stdout == ""

    def test_education_cost_above_income_exits_2_naming_kappa(self, tmp_path):
        scenario = tmp_path / "huge_kappa.json"
        scenario.write_text(json.dumps({"planner": {"kappa_scale": 1e300}}))
        cp = run_cli("planner-foc", "--scenario", str(scenario))
        assert cp.returncode == 2
        assert cp.stderr == (
            "error: income 10.0 cannot cover the education cost 7.840000000000001e+298 at t=0: "
            "keys 'kappa_scale' and 'kappa_curv' in section 'planner' and key 'E' in section "
            "'simulation' set the cost kappa_scale*E**kappa_curv\n"
        )
        assert cp.stdout == ""

    def test_education_level_above_income_exits_2_naming_E(self, tmp_path):
        scenario = tmp_path / "high_E.json"
        scenario.write_text(json.dumps({"simulation": {"E": 280.0}}))
        cp = run_cli("planner-foc", "--scenario", str(scenario))
        assert cp.returncode == 2
        assert cp.stderr == (
            "error: income 10.0 cannot cover the education cost 3920.0 at t=0: "
            "keys 'kappa_scale' and 'kappa_curv' in section 'planner' and key 'E' in section "
            "'simulation' set the cost kappa_scale*E**kappa_curv\n"
        )
        assert cp.stdout == ""

    @pytest.mark.parametrize("scenario, named", [
        ({"preferences": {"gamma_H": 2.0}}, "got B=-1.7426364707976134 at t=0, "),
        ({"preferences": {"gammaL_base": 100.0}}, "got B=-76.9397435398806 at t=0, "),
        ({"simulation": {"income": [10.0, 2.0, 0.1]}}, "got B=-1.6426364707976118 at t=2, "),
    ], ids=["gamma_H", "gammaL_base", "third_period"])
    def test_non_interior_budget_exits_2_naming_period_and_keys(self, tmp_path, scenario,
                                                                 named):
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(scenario))
        cp = run_cli("planner-foc", "--scenario", str(path))
        assert cp.returncode == 2
        assert cp.stderr.startswith("error: supernumerary income must be > 0 for an interior "
                                    "optimum, " + named)
        assert cp.stderr.endswith(
            ": keys 'income' and 'E' in section 'simulation', 'gammaL_base', 'gammaL_decay' "
            "and 'gamma_H' in section 'preferences', and 'kappa_scale' and 'kappa_curv' in "
            "section 'planner' set B = income - kappa_scale*E**kappa_curv - gamma_L(E) - "
            "price_H*gamma_H\n")
        assert cp.stdout == ""

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

    def test_cubic_default_wedge_column_matches_oracle(self):
        import oracles
        from demandtier import LearningSpec, PreferenceSchedule, TechnologyState, simulate_path

        cp = run_cli("planner-foc")
        assert cp.returncode == 0, cp.stderr
        _, rows = parse_csv(cp.stdout)
        spec = LearningSpec()
        path = simulate_path(
            PreferenceSchedule(), spec, TechnologyState(a_H=1.0, a_L=5.0), 0.28, 10.0, 3
        )
        fd = oracles.planner_fd_wedges(
            list(path.e_path), a_h0=1.0, a_l_path=path.a_l, y_vec=path.income_path,
            beta=0.95, nu=spec.nu, phi=spec.phi1, phi2=spec.phi2,
            kappa_scale=0.05, kappa_curv=2.0,
        )
        wedges = [float(row[4]) for row in rows]
        assert len(wedges) == 3
        for analytic, numeric in zip(wedges, fd):
            assert abs(analytic - numeric) <= 1e-7 * max(map(abs, wedges))

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


# The guard suite over random valid and near-valid scenarios. Each example
# moves one to three of the keys a command reads off their defaults: mostly to
# a value in the key's plausible range, else to a value at or past a validity
# edge, or at the float range's ends.
PREFERENCES = {"alpha_base": (0.0, 1.0), "alpha_slope": (0.0, 2.0), "alpha_lo": (0.01, 0.7),
               "alpha_hi": (0.75, 0.999), "gammaL_base": (0.0, 5.0),
               "gammaL_decay": (0.0, 3.0), "gamma_H": (0.0, 1.0)}
LEARNING = {"variant": None, "nu": (0.01, 3.0), "phi": (0.01, 3.0), "chi": (0.01, 3.0),
            "phi1": (0.0, 2.0), "phi2": (0.0, 2.0), "chi1": (0.0, 2.0), "chi2": (0.0, 2.0)}
SOLVER = {"p_min": (1e-3, 1.0), "p_max": (2.0, 100.0), "bisect_tol": (1e-14, 1e-6),
          "marginal_tol": (1e-12, 1e-4)}
GUARD_KEYS = {
    "fixed-points": {"preferences": PREFERENCES, "learning": LEARNING, "solver": SOLVER,
                     "simulation": {"E": (0.0, 1.0)}},
    "bifurcation": {"preferences": PREFERENCES, "learning": LEARNING, "solver": SOLVER,
                    "sweep": {"E_min": (0.0, 0.3), "E_max": (0.3, 1.0), "E_points": (2, 60),
                              "refine_tol": (1e-12, 1e-4)}},
    "statics": {"preferences": PREFERENCES,
                "statics": {"E": (0.0, 1.0), "price_H": (0.01, 100.0), "y_min": (0.1, 10.0),
                            "y_max": (10.0, 100.0), "y_points": (1, 40)}},
}
EDGE_VALUES = (0.0, -1e-9, -1.0, 5e-324, 1e-300, 1e300)


@st.composite
def guard_scenarios(draw, command):
    keys = [(section, key, bounds) for section, ranges in GUARD_KEYS[command].items()
            for key, bounds in ranges.items()]
    scenario, perturbed = {}, set()
    for section, key, bounds in draw(st.lists(st.sampled_from(keys), min_size=1, max_size=3,
                                              unique=True)):
        if bounds is None:
            value = draw(st.sampled_from(["cubic", "linear"]))
        elif isinstance(bounds[0], int):
            value = draw(st.integers(bounds[0] - 2, bounds[1]))
        elif draw(st.integers(0, 3)) == 0:
            value = draw(st.sampled_from(EDGE_VALUES))
        else:
            value = draw(st.floats(*bounds))
        scenario.setdefault(section, {})[key] = value
        perturbed.add(key)
    return scenario, perturbed


@pytest.mark.parametrize("command", sorted(GUARD_KEYS))
def test_random_scenarios_exit_0_2_or_3_with_finite_output(tmp_path_factory, command):
    path = tmp_path_factory.mktemp("guard") / "scenario.json"

    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(guard_scenarios(command))
    @example(({"simulation": {"E": -1.0}}, {"E"}))  # found by a longer run
    def check(drawn):
        scenario, perturbed = drawn
        path.write_text(json.dumps(scenario))
        with warnings.catch_warnings():  # numpy's warnings go to stderr, as in a process
            warnings.simplefilter("ignore")
            code, out, err = main_in_process((command, "--scenario", str(path)))
            if command == "bifurcation":
                strict, _, _ = main_in_process((command, "--strict", "--scenario", str(path)))
        assert code in (0, 2, 3), err
        if command == "bifurcation":
            # --strict exits 3 exactly when the run without it reports a flagged
            # transition, and otherwise as that run does
            assert strict == (3 if b"transition at E=" in err else code), (scenario, err)
        if code == 2:
            assert any(re.search(rf"\b{key}\b", err.decode()) for key in perturbed), err
        header, rows = parse_csv(out.decode()) if out else ([], [])
        assert not any("inf" in field for row in rows for field in row), scenario
        flagged = header.index("interior_flag") if "interior_flag" in header else None
        for row in rows:
            if flagged is None or row[flagged] == "1":
                assert "nan" not in row, scenario

    check()
