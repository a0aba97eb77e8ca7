import ast
import contextlib
import inspect
import io
import json
import math
import os
import re
import subprocess
import sys
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from check_format import FAMILIES, integers, mismatches, samples
from check_memory import SLOW_LEARNING
from conftest import DATA_DIR, load_goldens
from demandtier import cli, solver
from demandtier._csv import _CHUNK_FIELDS, _csv, _csv_columns, _field_words
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
        text = "".join(_csv_columns("i,x", [np.arange(len(values)), np.array(values)]))
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
        assert "".join(_csv_columns("t,x,flag", [empty, empty, empty])) == "t,x,flag\n"

    def test_bool_and_integer_columns_print_as_d(self):
        flags = np.array([True, False, True])
        text = "".join(_csv_columns("t,x,flag", [np.arange(3), np.ones(3), flags]))
        assert text == "t,x,flag\n0,1,1\n1,1,0\n2,1,1\n"

    def test_only_uncertain_values_are_left_to_percent(self):
        # ties and values below 1e-296 are %-formatted; ordinary values of
        # any magnitude, zeros, NaN and infinities are written column-wise
        left = np.array([123456789012.5, -0.5000000000005, 5e-324, 1e-300])
        written = np.array([0.0, -0.0, 1.0, -2.5e-268, 3.7e268, 1e-296, 0.1,
                            math.nan, -math.nan, math.inf, -math.inf])
        assert not _field_words(left, np.empty((left.size, 5), np.uint64)).any()
        assert _field_words(written, np.empty((written.size, 5), np.uint64)).all()

    def test_chunks_join_to_the_percent_text(self):
        # one integer and seven float columns: three full chunks and a partial
        # one, each opening and closing on extreme integers, zeros, NaN, the
        # infinities, ties and a value below 1e-296
        step = _CHUNK_FIELDS // 8
        n = 3 * step + step // 3
        rng = np.random.default_rng(28)
        ints = integers(n, rng)
        floats = [samples("normal-scaled", n, rng) for _ in range(7)]
        edges = [0.0, -0.0, math.nan, math.inf, -math.inf, 123456789012.5,
                 -0.5000000000005, 1e-300]
        for start in range(0, n, step):
            for row in (start, min(start + step, n) - 1):
                ints[row] = -(2**63) if row == start else 2**63 - 1
                for k, column in enumerate(floats):
                    column[row] = edges[(k + row) % len(edges)]
        header = "i," + ",".join(f"x{k}" for k in range(7))
        pieces = list(_csv_columns(header, [ints, *floats]))
        assert [piece.count("\n") for piece in pieces] == [1, step, step, step, n - 3 * step]
        rows = zip(ints.tolist(), *[column.tolist() for column in floats])
        assert "".join(pieces) == _csv(header, "%d" + ",%.12g" * 7, rows)


def test_multi_chunk_statics_writes_the_same_bytes_to_stdout_and_out(tmp_path):
    scenario = tmp_path / "scenario.json"
    scenario.write_text(json.dumps({"statics": {"y_points": 5000}}))
    out = tmp_path / "statics.csv"
    args = ("statics", "--scenario", str(scenario))
    cp = subprocess.run([sys.executable, "-m", "demandtier", *args], capture_output=True)
    assert (cp.returncode, cp.stderr) == (0, b"")
    assert main_in_process((*args, "--out", str(out))) == (0, b"", b"")
    assert cp.stdout.count(b"\n") == 5001 > 4 * (_CHUNK_FIELDS // 8)  # five chunks
    assert out.read_bytes() == cp.stdout


@pytest.mark.parametrize("command, scenario", [
    ("simulate", {"learning": SLOW_LEARNING, "simulation": {"horizon": 20_000}}),
    ("statics", {"statics": {"y_points": 20_000}}),
])
def test_long_table_peak_stays_below_twice_its_csv(tmp_path, command, scenario):
    # the CSV is written chunk by chunk, so no copy of the whole text is held;
    # the traced peak is then the table's numpy columns and one chunk
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(scenario))
    out = tmp_path / "out.csv"
    argv = [command, "--scenario", str(path), "--out", str(out)]
    assert cli.main(argv) == 0  # imports and the digit tables
    tracemalloc.start()
    try:
        assert cli.main(argv) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * out.stat().st_size


CLI_GOLDENS = DATA_DIR / "cli"
COMMANDS = ("fixed-points", "bifurcation", "simulate", "statics", "planner-foc")


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
    """(stdout, stderr) bytes committed for a default output; a stream with no
    file is empty."""
    paths = (CLI_GOLDENS / f"{name}.stdout", CLI_GOLDENS / f"{name}.stderr")
    return tuple(path.read_bytes() if path.exists() else b"" for path in paths)


@pytest.mark.parametrize("name, args", GOLDEN_CASES)
def test_default_output_bytes_match_golden(name, args):
    # tests/data/cli/<name>.stdout (and .stderr, where one is committed) hold
    # the exact bytes; rewrite them only for a deliberate change of output
    cp = subprocess.run([sys.executable, "-m", "demandtier", *args], capture_output=True)
    assert cp.returncode == 0, cp.stderr
    assert (cp.stdout, cp.stderr) == golden_bytes(name)


# the help of the top level and of each command, and one rejected argv of each
# (the first with none), as argparse printed them at 80 columns before the
# parsers were built from the option table
HELP_CASES = [("help", ("--help",), 0),
              *((f"help_{command}", (command, "--help"), 0) for command in COMMANDS),
              ("reject", (), 2), ("reject_fixed-points", ("fixed-points", "--E", "nan"), 2),
              ("reject_bifurcation", ("bifurcation", "--workers", "x"), 2),
              ("reject_simulate", ("simulate", "--E"), 2),
              ("reject_statics", ("statics", "extra"), 2),
              ("reject_planner-foc", ("planner-foc", "--E", "0.1"), 2)]


@pytest.mark.parametrize("name, args, code", HELP_CASES, ids=[case[0] for case in HELP_CASES])
def test_help_and_error_text_match_golden(monkeypatch, name, args, code):
    # tests/data/cli/help*.stdout and reject*.stderr: usage, help and error
    # text come from argparse alone, built from cli's option table
    monkeypatch.setenv("COLUMNS", "80")  # help and usage wrap at the terminal width
    assert main_in_process(args) == (code, *golden_bytes(name))


def test_command_defaults_match_the_parsers_before_the_table():
    # the help goldens show no default, and the table feeds both the parser
    # and the reader, so the defaults are pinned here
    files = {"dump_defaults": False, "scenario": None, "out": None}
    expected = {"fixed-points": {**files, "E": None}, "simulate": {**files, "E": None},
                "statics": {**files, "E": None}, "planner-foc": files,
                "bifurcation": {**files, "thresholds_out": None, "workers": 1, "strict": False}}
    for command, values in expected.items():
        for parse in (cli._read_argv, cli._parser().parse_args):
            assert vars(parse([command])) == dict(values, command=command), command


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
              # argv that the option table hands to argparse
              (("fixed-points", "--bogus"), 2), (("simulate", "--E"), 2),
              (("statics", "extra"), 2), (("planner-foc", "--version"), 2),
              (("bifurcation", "--help"), 0), (("bifurcation", "--workers", "x"), 2),
              # validation exits that import no numpy, before a command that does
              (("simulate", "--E", "-1"), 2), (("statics", "--E", "-1"), 2)]
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
        return cli.Output({}, ("planted cmd_statics",))

    monkeypatch.setattr(cli, "cmd_statics", patched)
    assert main_in_process(("statics", "--E", "0.3")) == (0, b"", b"planted cmd_statics\n")
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

    # unbound on cli, an engine name is read from its module at every call, so
    # a function bound there (as the benchmark's tracer binds its wrappers) runs
    def planted_in_solver(*_, **__):
        raise ConfigError("planted in solver")

    monkeypatch.setattr(solver, "find_fixed_points", planted_in_solver)
    assert main_in_process(("fixed-points",)) == (2, b"", b"error: planted in solver\n")
    monkeypatch.undo()

    # read before any command, the lazy name is the solver's own function
    probe = "from demandtier import cli; print(cli.find_fixed_points.__module__)"
    cp = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True)
    assert (cp.returncode, cp.stdout) == (0, "demandtier.solver\n"), cp.stderr


# each command's argv on the defaults; the default bifurcation has two flagged
# transitions, so it also has notes
SHAPE_ARGV = {"fixed-points": ("fixed-points", "--E", "0.215"), "bifurcation": ("bifurcation",),
              "simulate": ("simulate",), "statics": ("statics",),
              "planner-foc": ("planner-foc",)}


def output_options(command, tmp_path):
    """--out, and --thresholds-out for bifurcation, as argv and as paths."""
    names = ["--out"] + (["--thresholds-out"] if command == "bifurcation" else [])
    paths = [tmp_path / f"{name.strip('-')}.csv" for name in names]
    return [x for pair in zip(names, map(str, paths)) for x in pair], paths


@pytest.mark.parametrize("command, strict", [
    *((command, ()) for command in sorted(SHAPE_ARGV)), ("bifurcation", ("--strict",))],
    ids=[*sorted(SHAPE_ARGV), "bifurcation-strict"])
def test_commands_return_their_tables_and_write_nothing(tmp_path, command, strict):
    # main alone writes; a command hands it tables and notes, and
    # --strict is main's to apply, so the command returns the same either way
    options, paths = output_options(command, tmp_path)
    for argv in (SHAPE_ARGV[command] + strict, SHAPE_ARGV[command] + strict + tuple(options)):
        args = cli._parse_argv(list(argv))
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            output = getattr(cli, "cmd_" + command.replace("-", "_"))(
                cli.load_scenario(None), args)
        assert (out.getvalue(), err.getvalue()) == ("", "")
        assert not any(path.exists() for path in paths)
        assert isinstance(output, cli.Output)
        assert [table.out for table in output.tables.values()] == [
            getattr(args, name) for name in ("out", "thresholds_out")[:len(output.tables)]]
        assert len(output.notes) == (2 if command == "bifurcation" else 0)


def test_only_main_and_its_writers_write_output():
    # the writes to stdout, stderr and files live in main, _write_tables and
    # _write_text; every other function of cli, each cmd_* included, writes none
    tree = ast.parse(inspect.getsource(cli))
    writers = {"main", "_write_tables", "_write_text"}
    for function in ast.walk(tree):
        if not isinstance(function, ast.FunctionDef) or function.name in writers:
            continue
        names = {node.attr if isinstance(node, ast.Attribute) else node.id
                 for node in ast.walk(function) if isinstance(node, (ast.Attribute, ast.Name))}
        assert not names & {"stdout", "stderr", "_write_text", "_write_tables", "open"}, \
            function.name


@pytest.mark.parametrize("to_file", [False, True], ids=["stdout", "out"])
@pytest.mark.parametrize("command", sorted(SHAPE_ARGV))
def test_nothing_is_written_before_the_command_returns(monkeypatch, tmp_path, command, to_file):
    # so main can time the solve apart from the formatting and the writing
    options, paths = output_options(command, tmp_path) if to_file else ([], [])
    name = "cmd_" + command.replace("-", "_")
    run, seen = getattr(cli, name), []

    def wrapped(scenario, args):
        output = run(scenario, args)
        seen.append((sys.stdout.getvalue(), sys.stderr.getvalue(),
                     [path.exists() for path in paths]))
        return output

    monkeypatch.setattr(cli, name, wrapped)
    code, out, err = main_in_process(SHAPE_ARGV[command] + tuple(options))
    assert code == 0
    assert seen == [("", "", [False] * len(paths))]
    assert all(path.stat().st_size for path in paths) and bool(out) != to_file
    assert bool(err) == (command == "bifurcation")  # its notes


@pytest.mark.parametrize("missing", ["--out", "--thresholds-out"])
def test_unwritable_output_file_exits_2_after_the_tables_before_it(tmp_path, missing):
    # the locus is written first: an unwritable --thresholds-out leaves it
    # written, an unwritable --out leaves both unwritten
    golden, notes = golden_bytes("bifurcation")
    locus = golden.partition(b"\n\n")[0] + b"\n"
    paths = {"--out": tmp_path / "locus.csv", "--thresholds-out": tmp_path / "thresholds.csv"}
    paths[missing] = tmp_path / "missing" / "table.csv"
    argv = ("bifurcation", *(x for option, path in paths.items() for x in (option, str(path))))
    error = f"error: [Errno 2] No such file or directory: '{paths[missing]}'\n".encode()
    assert main_in_process(argv) == (2, b"", notes + error)
    if missing == "--thresholds-out":
        assert paths["--out"].read_bytes() == locus
    else:
        assert not paths["--thresholds-out"].exists()


TWO_TABLES = "two tables name the same file {!r}; give each its own"
OVER_SCENARIO = "a table names the scenario file {!r}; give it its own"


@pytest.mark.parametrize("argv, message", [
    # the thresholds would overwrite the locus
    *((("bifurcation", "--out", "F", "--thresholds-out", same), TWO_TABLES.format(same))
      for same in ["F", "./F", "sub/../F"]),
    (("bifurcation", "--out", "s.json", "--thresholds-out", "hard.json"),
     TWO_TABLES.format("hard.json")),
    # a table would overwrite the scenario it was computed from
    (("fixed-points", "--scenario", "s.json", "--out", "s.json"), OVER_SCENARIO.format("s.json")),
    (("bifurcation", "--scenario", "s.json", "--thresholds-out", "s.json"),
     OVER_SCENARIO.format("s.json")),
    (("bifurcation", "--scenario", "s.json", "--out", "sub/../hard.json"),
     OVER_SCENARIO.format("sub/../hard.json")),
    (("simulate", "--scenario", "./s.json", "--out", "{cwd}/s.json"),
     OVER_SCENARIO.format("{cwd}/s.json")),
], ids=["F", "./F", "sub/../F", "hard link", "fixed-points scenario", "thresholds scenario",
        "scenario hard link", "scenario absolute"])
def test_two_tables_in_one_file_exit_2_before_anything_is_written(tmp_path, monkeypatch, argv,
                                                                   message):
    # a file that exists is matched by identity, so a hard link to it too
    monkeypatch.chdir(tmp_path)
    (tmp_path / "sub").mkdir()
    (tmp_path / "s.json").write_text(cli.dump_scenario(cli.default_scenario()), encoding="utf-8")
    os.link(tmp_path / "s.json", tmp_path / "hard.json")
    files = {path: path.read_bytes() for path in tmp_path.rglob("*") if path.is_file()}
    argv = [token.format(cwd=tmp_path) for token in argv]
    assert main_in_process(argv) == (
        2, b"", f"error: {message.format(cwd=tmp_path)}\n".encode())
    assert {path: path.read_bytes() for path in tmp_path.rglob("*") if path.is_file()} == files


@pytest.mark.parametrize("argv", [
    ("{}",), ("fixed-points", "--bogus", "{}"), ("bifurcation", "--workers", "{}"),
    ("fixed-points", "--scenario", "{}"), ("fixed-points", "--out", "missing/{}"),
], ids=["command", "unknown option", "bad value", "scenario path", "out path"])
@pytest.mark.parametrize("fill", ["y", "y "], ids=["word", "words"])
def test_a_long_argv_token_or_path_is_echoed_in_part(tmp_path, monkeypatch, argv, fill):
    # an error message echoes a token or path of up to 255 characters whole,
    # and the first 255 of a longer one, with or without spaces in it
    monkeypatch.chdir(tmp_path)

    def token(n):  # argv, its last token n characters long
        return [*argv[:-1], argv[-1].format((fill * n)[:n - len(argv[-1]) + 2])]

    code, out, err = main_in_process(token(100_000))
    assert (code, out) == (2, b"") and len(err) < 1024 and b"y..." in err
    code, _, err = main_in_process(token(255))
    assert code == 2 and token(255)[-1].encode() in err and b"y..." not in err


# counts the argparse parsers built by then: after importing cli, and after
# each main call: three that the option table reads, then --help, an error, and
# one more of each kind
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
for argv in [["fixed-points", "--E", "0.215"]] * 3 + [["--help"], ["simulate", "--E", "x"],
                                                       ["statics"], ["bifurcation", "-h"]]:
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            cli.main(argv)
        except SystemExit:
            pass
    counts.append(len(built))
print(counts)
"""


def test_parser_is_built_once_per_process():
    cp = subprocess.run([sys.executable, "-c", PARSER_PROBE], capture_output=True, text=True)
    assert cp.returncode == 0, cp.stderr
    # importing cli builds no parser and neither does an argv the option table
    # reads; the first --help builds the full parser (with its five command
    # parsers) once, and the error and the later calls reuse it
    assert cp.stdout == "[0, 0, 0, 0, 6, 6, 6, 6]\n"


# a valid option list of each command, for the parse table
VALID_OPTIONS = {
    "fixed-points": ("--E", "0.2"),
    "bifurcation": ("--strict", "--workers", "2", "--thresholds-out", "t.csv"),
    "simulate": ("--E", "0.3", "--out", "o.csv"),
    "statics": ("--E=0.1",),
    "planner-foc": ("--out", "o.csv"),
}


def argv_table():
    """Argument lists for the option table and argparse: per command, valid
    input, each way of getting it wrong and the edge cases of the table's rule,
    and argv that do not start with a command."""
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
            # values float() or int() reads, or argparse rules on: a leading
            # "-", space or underscore, an empty string and a hex literal
            (command, "--E", "-0"), (command, "--E", "-1"), (command, "--E", " 0.1"),
            (command, "--E", "1_0"), (command, "--E", ""), (command, "--E", "0x10"),
            (command, "--workers", " 2"), (command, "--workers", "1.5"), (command, "--strict"),
            (command, "--strict", "x"), (command, "--E", "0.1", "--E", "0.3"),
            (command, "--out", "o.csv", "--scenario"), (command, "--out", "-o.csv"),
            (command, "--out", "-"), (command, "--out", ""), (command, "--E", "0.1"),
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


def test_table_read_matches_the_full_parser(monkeypatch):
    # main reads an argv from the option table where it can, and hands any
    # other to argparse; it must give what the full parser's parse_args gives,
    # byte for byte
    monkeypatch.setenv("COLUMNS", "80")  # help and usage wrap at the terminal width
    table = argv_table()
    assert len(table) >= 100
    codes, read = set(), 0
    for argv in table:
        full = parsed(cli._parser().parse_args, argv)
        assert parsed(cli._parse_argv, argv) == full, argv
        codes.add(full[1])
        read += cli._read_argv(list(argv)) is not None
    assert codes == {None, 0, 2}  # parsed, --help or --version, and rejected
    assert read >= 30  # each command's valid lists and the values the table takes


# the option strings of every command, the top level's, and values on both
# sides of the table's rule
READER_TOKENS = sorted({*(option for _, options in cli._COMMANDS.values() for option in options),
                        "--dump-defaults", "--version", "-h", "--", "--sc", "--E=0.1", "-0",
                        "-1", " 0.1", "1_0", "", "0x10", " 2", "1.5", "nan", "inf", "x", "-",
                        "0.1", "o.csv", *COMMANDS})


@settings(max_examples=400, deadline=None, derandomize=True)
@given(first=st.sampled_from(COMMANDS + ("--dump-defaults", "nope")),
       rest=st.lists(st.sampled_from(READER_TOKENS), max_size=6))
def test_reader_gives_none_or_what_the_full_parser_gives(first, rest):
    argv = (first, *rest)
    full = parsed(cli._parser().parse_args, argv)
    assert parsed(cli._parse_argv, argv) == full, argv
    read = cli._read_argv(list(argv))
    assert read is None or (vars(read), None, "", "") == full, argv


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
    ("fixed-points", "x" * 100_000),  # echoed in part
])
def test_non_finite_education_override_rejected(command, value):
    cp = run_cli(command, "--E", value)
    assert cp.returncode == 2
    assert "--E" in cp.stderr and len(cp.stderr) < 400
    assert cp.stdout == ""


@pytest.mark.parametrize("scenario, args, named", [
    (None, ("fixed-points", "--E", "-5"), "-5.0"),
    ({"simulation": {"E": -1.0}}, ("fixed-points",), "-1.0"),
    ({"sweep": {"E_min": -2.0}}, ("bifurcation",), "E_min=-2.0"),
    (None, ("simulate", "--E", "-1"), "education level must be >= 0, got -1.0"),
    ({"simulation": {"E": [0.1, -0.5, 0.2], "horizon": 3}}, ("simulate",),
     "education level must be >= 0, got -0.5: key 'E' in section 'simulation', period 1\n"),
    ({"learning": {"variant": "linear"}, "simulation": {"E": [0.2, 0.2, -1]}}, ("planner-foc",),
     "education level must be >= 0, got -1.0: key 'E' in section 'simulation', period 2\n"),
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
    ({"simulation": {"income": -5}}, "simulate",
     "error: income must be > 0, got -5.0: key 'income' in section 'simulation'\n"),
    ({"simulation": {"income": 0}}, "planner-foc",
     "error: income must be > 0, got 0.0: key 'income' in section 'simulation'\n"),
    ({"simulation": {"income": [10, 11, -2, 0], "horizon": 4}}, "simulate",
     "error: income must be > 0, got -2.0: key 'income' in section 'simulation', period 2\n"),
])
def test_nonpositive_income_exits_2_naming_its_key_and_period(tmp_path, scenario, command,
                                                              named):
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(scenario))
    cp = run_cli(command, "--scenario", str(path))
    assert (cp.returncode, cp.stdout, cp.stderr) == (2, "", named)


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


@pytest.mark.parametrize("scenario, E, row", [
    # Dekker's split of nu overflows past about 1.34e300, in the constant term nu*E
    ({"learning": {"nu": 1e305}, "solver": {"p_max": 100}}, "0",
     "0,18.0726717262,0.164003785568,0.850859012561,stable"),
    # the root's share, about 1.1e-316, is subnormal and bisected
    ({"learning": {"nu": 1e-300, "phi1": 1.0, "phi2": 1.0, "chi1": 2e-300, "chi2": 1e-300},
      "preferences": {"alpha_base": 1e-9, "alpha_slope": 0.0, "alpha_lo": 1e-9},
      "solver": {"p_min": 1e-300, "p_max": 1.7e308}}, "0.9999999999999999",
     "1,9.00719926375e+306,1.11022301545e-316,1,marginal"),
], ids=["nu past the split range", "subnormal share"])
def test_extreme_calibration_prints_its_root(tmp_path, scenario, E, row):
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(scenario))
    code, out, err = main_in_process(("fixed-points", "--E", E, "--scenario", str(path)))
    assert (code, err) == (0, b"")
    assert out.decode() == f"E,p_star,s_star,t_prime,stability\n{row}\n"


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
    assert cp.stderr == (f"error: {named} is too large: its square, in dH/ds and dH/dE, "
                         "overflows\n")
    assert cp.stdout == ""


def test_root_whose_share_rounds_to_1_exits_3_naming_p_min(tmp_path):
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps({"solver": {"p_min": 1e-300}}))
    code, out, err = main_in_process(("fixed-points", "--E", "0.33333333333333326",
                                      "--scenario", str(path)))
    assert (code, out) == (3, b"")
    assert err.startswith(b"error: fixed point p*=3.700743415417189e-17 at E=0.33333333333333326")
    assert err.endswith(b"; raise solver.p_min above it\n")


@pytest.mark.parametrize("scenario, command", [
    ({"sweep": {"E_points": 10**15}}, "bifurcation"),
    ({"statics": {"y_points": 10**15}}, "statics"),
    ({"simulation": {"horizon": 10**15}}, "simulate"),
    ({"planner": {"horizon": 10**15}}, "planner-foc"),
])
def test_size_too_large_for_memory_exits_2_naming_the_shape(tmp_path, scenario, command):
    # 10**15 doubles, 8 PB, exceed the x86-64 user address space: numpy's
    # allocation fails at once, whatever the machine's memory
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(scenario))
    code, out, err = main_in_process((command, "--scenario", str(path)))
    assert (code, out) == (2, b"")
    assert re.fullmatch(rb"error: Unable to allocate [^\n]* shape \(1000000000000000,\)[^\n]*\n",
                        err), err


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

    @pytest.mark.parametrize("target, reason", [
        ("missing/defaults.json", "[Errno 2] No such file or directory"),
        (".", "[Errno 21] Is a directory"),
    ], ids=["missing-directory", "a-directory"])
    def test_unwritable_out_exits_2_with_an_error_line(self, tmp_path, target, reason):
        out = str(tmp_path / target)
        cp = run_cli("--dump-defaults", "--out", out)
        assert (cp.returncode, cp.stdout) == (2, "")
        assert cp.stderr == f"error: {reason}: {out!r}\n"


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

    def test_path_nested_too_deeply_exits_2(self, tmp_path):
        scenario = tmp_path / "deep.json"
        scenario.write_text('{"simulation": {"E": %s0.1%s}}' % ("[" * 1100, "]" * 1100))
        cp = run_cli("simulate", "--scenario", str(scenario))
        assert (cp.returncode, cp.stdout) == (2, "")
        assert cp.stderr == "error: scenario file is nested too deeply to read\n"


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

    @pytest.mark.parametrize("scenario, code, message", [
        ({"planner": {"kappa_scale": 1e308, "kappa_curv": 1.0},
          "simulation": {"E": 5e-308, "a_L0": 0.01}}, 3,
         "planner FOC column 'shadow_cost' is inf at t=0: the terms leave the float range "
         "along the path"),
        ({"preferences": {"gamma_H": 1.7e308}}, 2,
         "supernumerary income must be > 0 for an interior optimum, got B=-inf at t=0, at net "
         "income 9.99608: keys 'income' and 'E' in section 'simulation', 'gammaL_base', "
         "'gammaL_decay' and 'gamma_H' in section 'preferences', and 'kappa_scale' and "
         "'kappa_curv' in section 'planner' set B = income - kappa_scale*E**kappa_curv - "
         "gamma_L(E) - price_H*gamma_H"),
    ], ids=["shadow-cost-overflow", "B-overflow"])
    def test_overflow_prints_its_error_line_alone(self, tmp_path, scenario, code, message):
        # the message names the term or B; numpy's RuntimeWarning, with its
        # source line, would only repeat it
        path = tmp_path / "overflow.json"
        path.write_text(json.dumps(scenario))
        cp = run_cli("planner-foc", "--scenario", str(path))
        assert (cp.returncode, cp.stdout, cp.stderr) == (code, "", f"error: {message}\n")


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
        # a warning would reach a process's stderr beside the command's own lines
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, out, err = main_in_process((command, "--scenario", str(path)))
            if command == "bifurcation":
                strict, _, _ = main_in_process((command, "--strict", "--scenario", str(path)))
        assert not caught, (scenario, [str(w.message) for w in caught])
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
