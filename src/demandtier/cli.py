"""Command-line interface: argument parsing, dispatch and the output's writing.

Standard output carries CSV; diagnostics go to standard error. Exit codes: 0
success, 2 validation error (``DemandTierError``, ``MemoryError``, an
unreadable or unwritable file, or a table that would overwrite the scenario or
another table), 3 numerical failure (``NoConvergence``, ``NumericalOverflow``,
or a flagged transition under --strict). An error message echoes at most 255
characters of an argv token or a path.

Every command is a function ``cmd_*(scenario, args)`` that writes nothing and
returns an ``Output``: its tables by name, each a header, columns and the file
it goes to (None for standard output), and its notes for standard error; a
command that returns has succeeded. ``main`` alone writes: the notes, then,
under --strict, an abort if there are any, then each table in order, as
``_csv`` formats it (that module loads at the first table); a table on
standard output after another there follows a blank line. ``main(argv)`` may
be called repeatedly in one process. An argv of a command and its options is
read from the option table, with no import; ``argparse``, loaded and built
(once) at the first other argv, reads the rest, and prints every help, usage
and error.

Importing this module loads the package's ``scenario``, ``errors`` and ``_np``
only. The engine names the commands call are the package's lazy public names,
passed through this module (PEP 562), so each command imports only the engine
modules it runs. ``main`` and the commands read them, and the ``cmd_*``
functions, from this module at every call, so a name rebound here (a test's
stand-in, a tracer's wrapper) runs; an unbound one is read from its module.
"""

from __future__ import annotations

import math
import os
import reprlib
import sys
from collections import namedtuple
from functools import cache
from types import SimpleNamespace

from . import _MODULE_OF, __version__
from ._np import np
from .errors import ConfigError, DemandTierError, NoConvergence, NumericalOverflow
from .scenario import Scenario, default_scenario, dump_scenario, load_scenario

EXIT_VALIDATION = 2
EXIT_NUMERICAL = 3

_cli = sys.modules[__name__]  # the commands read every engine name from it


def __getattr__(name):
    if (module := _MODULE_OF.get(name)) is None:  # the package's public names only
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(sys.modules.get(module) or sys.modules[__package__], name)  # one hop


# a CSV table, with columns as _csv.table_text takes them and out None for stdout
Table = namedtuple("Table", "header columns out")
Output = namedtuple("Output", "tables notes", defaults=((),))  # what a cmd_* returns


def _write_text(text, out: str | None) -> None:
    """Write ``text``, a str or str pieces, piece by piece to stdout or the file ``out``."""
    pieces = (text,) if isinstance(text, str) else text
    if out is None:
        for piece in pieces:
            sys.stdout.write(piece)
    else:
        with open(out, "w", encoding="utf-8", newline="") as file:
            file.writelines(pieces)


def _same_file(a: str, b: str) -> bool:
    """Whether ``a`` and ``b`` name one file: by identity if both exist, else by real path."""
    try:
        return os.path.samefile(a, b)
    except OSError:  # a path that names no file yet
        return os.path.realpath(a) == os.path.realpath(b)


def _distinct_files(scenario: str | None, tables) -> None:
    """Raise ``ConfigError`` if a table would overwrite the scenario or an earlier table."""
    outs = [out for _, _, out in tables if out is not None]
    for k, out in enumerate(outs):
        if scenario is not None and _same_file(out, scenario):
            raise ConfigError(f"a table names the scenario file {_echo(out)!r}; give it its own")
        if any(_same_file(out, before) for before in outs[:k]):
            raise ConfigError(f"two tables name the same file {_echo(out)!r}; give each its own")


def _write_tables(tables) -> None:
    """Write each table in turn; a blank line parts two on standard output."""
    from ._csv import table_text

    to_stdout = 0
    for header, columns, out in tables:
        if out is None and to_stdout:
            sys.stdout.write("\n")
        to_stdout += out is None
        _write_text(table_text(header, columns), out)


def _education(scenario: Scenario, override: float | None):
    """--E if given, else simulation.E: a path, or a scalar that must be >= 0."""
    if override is not None:
        return override
    e = scenario.simulation.E
    if not isinstance(e, list) and e < 0.0:
        raise ConfigError(f"key 'E' in section 'simulation' must be >= 0, got {float(e)}")
    return e


def _path(scenario: Scenario, E, horizon: int):
    """The time path from the scenario's initial state under education E."""
    sim = scenario.simulation
    initial = _cli.TechnologyState(a_H=sim.a_H0, a_L=sim.a_L0, wage=sim.wage)
    return _cli.simulate_path(scenario.preferences, scenario.learning, initial, E, sim.income,
                         horizon)


def cmd_fixed_points(scenario: Scenario, args) -> Output:
    e_val = _education(scenario, args.E)
    if isinstance(e_val, list):
        raise ConfigError("scenario simulation E is a path; pass --E to pick the education level")
    e_val = float(e_val)
    roots = _cli.find_fixed_points(scenario.preferences, scenario.learning, e_val, scenario.solver)
    rows = [(e_val, fp.p_star, fp.s_star, fp.t_prime, fp.stability.value) for fp in roots]
    columns = [[row[k] for row in rows] for k in range(5)]
    return Output({"roots": Table("E,p_star,s_star,t_prime,stability", columns, args.out)})


def cmd_bifurcation(scenario: Scenario, args) -> Output:
    diagram = _cli.sweep(scenario.preferences, scenario.learning, scenario.sweep, scenario.solver)
    roots = diagram.roots
    # one row per root, by level; a level with no fixed point keeps a row whose
    # p_star and stability are empty
    counts = np.bincount(roots.level, minlength=len(diagram.E))
    per_level = np.maximum(counts, 1)
    empty = np.repeat(counts == 0, per_level)
    p_star, code = np.zeros(len(empty)), np.zeros(len(empty), int)  # 0 under empty fields
    p_star[~empty], code[~empty] = roots.p_star, roots.stability
    labels = np.array([stability.value for stability in _cli.Stability])
    locus = (np.repeat(diagram.E, per_level), (p_star, empty), (labels[code], empty))
    rows = [(sn.E_bar, sn.s_bar, *sn.residuals) for sn in diagram.thresholds]
    threshold_columns = [[row[k] for row in rows] for k in range(4)]
    notes = tuple("transition at E=%.12g [%d -> %d roots] not a saddle-node: %s"
                  % (t.E, t.count_lo, t.count_hi, t.note)
                  for t in diagram.transitions if t.saddle is None)
    return Output({"locus": Table("E,p_star,stability", locus, args.out),
                   "thresholds": Table("E_bar,s_bar,res_H,res_dHds", threshold_columns,
                                       args.thresholds_out)}, notes)


def cmd_simulate(scenario: Scenario, args) -> Output:
    path = _path(scenario, _education(scenario, args.E), scenario.simulation.horizon)
    columns = (path.t, path.p, path.s_q, path.a_h, path.a_l,
               path.c_l, path.c_h, path.share_h, path.utility, path.interior)
    header = "t,p,s_Q,a_H,a_L,c_L,c_H,share_H,utility,interior_flag"
    return Output({"path": Table(header, columns, args.out)})


def cmd_statics(scenario: Scenario, args) -> Output:
    st = scenario.statics
    e_val = args.E if args.E is not None else st.E
    # c_H = alpha*B/price_H rises with Y, so it overflows on some row only if
    # it does on the last one, which is solved first on floats, before numpy
    # loads; through elasticity_arrays, so that an invalid key exits 2 first
    y_top = st.y_max if st.y_points > 1 else st.y_min  # linspace ends on y_max
    top, _ = _cli.elasticity_arrays(scenario.preferences, y_top, st.price_H, e_val)
    if math.isinf(top.c_H):  # NaN when B <= 0: no row divides by price_H
        raise NumericalOverflow(f"key 'price_H' in section 'statics' is too small: c_H "
                                f"overflows at Y={y_top:.12g}, got price_H={st.price_H!r}")
    incomes = np.linspace(st.y_min, st.y_max, st.y_points)
    # every column is NaN on non-interior rows
    demand, eta = _cli.elasticity_arrays(scenario.preferences, incomes, st.price_H, e_val)
    columns = (incomes, demand.c_L, demand.c_H, demand.share_H, demand.share_L,
               eta.eta_H, eta.eta_L, demand.interior)
    header = "Y,c_L,c_H,share_H,share_L,eta_H,eta_L,interior_flag"
    return Output({"statics": Table(header, columns, args.out)})


def cmd_planner_foc(scenario: Scenario, args) -> Output:
    path = _path(scenario, _education(scenario, None), scenario.planner.horizon)
    report = _cli.evaluate_foc(scenario.preferences, scenario.learning, scenario.planner, path)
    columns = (report.t, report.preference_term, report.spillover_term,
               report.shadow_cost, report.wedge, report.lambda_t, report.eta_t)
    header = "t,preference_term,spillover_term,shadow_cost,wedge,lambda,eta"
    return Output({"foc": Table(header, columns, args.out)})


_ECHO = 255  # the longest argv token or path that an error message echoes whole


def _echo(text: str) -> str:
    """``text``, cut to its first ``_ECHO`` characters and "..." if it is longer."""
    return text if len(text) <= _ECHO else text[:_ECHO] + "..."


def _finite_float(text: str) -> float:
    """argparse type for --E: a float that is neither nan nor inf, which float() accepts."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        import argparse

        raise argparse.ArgumentTypeError(f"must be a finite number, got {reprlib.repr(text)}")
    return value


# every command's summary and options, in help order: option string ->
# (conversion, None for a flag; default; help); argparse's float is _finite_float
_FILES = {"--scenario": (str, None, "scenario JSON file (defaults built in)"),
          "--out": (str, None, "write the CSV here instead of standard output")}
_WITH_E = {**_FILES, "--E": (float, None, "education level override")}
_COMMANDS = {
    "fixed-points": ("fixed points of the price map at one E", _WITH_E),
    "bifurcation": ("education sweep: root locus and thresholds", {
        **_FILES, "--thresholds-out": (str, None, "write the thresholds CSV here"),
        "--workers": (int, 1, "accepted for compatibility; the sweep is one batched solve "
                      "and this has no effect"),
        "--strict": (None, False, "exit 3 if any root-count transition is not a saddle-node")}),
    "simulate": ("forward time path", _WITH_E),
    "statics": ("shares and income elasticities over an income grid", _WITH_E),
    "planner-foc": ("planner education FOC terms along a path", _FILES)}


# built at the first argv the table does not read, and kept for the process:
# parse_args leaves a parser as it found it, and help reads the terminal width
@cache
def _parser():
    """The ``demandtier`` parser, each command's options from ``_COMMANDS``."""
    import argparse

    class Parser(argparse.ArgumentParser):  # its subparsers inherit the class
        def parse_known_args(self, args=None, namespace=None):
            self.tokens = sys.argv[1:] if args is None else list(args)  # what error echoes
            return super().parse_known_args(self.tokens, namespace)

        def error(self, message):
            # argparse echoes a token whole, as it is or as its repr: cut the long ones
            for token in sorted(self.tokens, key=len, reverse=True):
                for text in {token, repr(token)[1:-1]}:
                    message = message.replace(text, _echo(text))
            super().error(message)

    parser = Parser(prog="demandtier", description=(
        "Demand-hierarchy equilibrium engine: fixed points, education sweeps, simulations, "
        "demand statics, and planner diagnostics as deterministic CSV."))
    parser.add_argument("--version", action="version", version=__version__)
    parser.add_argument("--dump-defaults", action="store_true",
                        help="print the built-in default scenario as JSON and exit")
    parser.add_argument("--out", help="output path for --dump-defaults", default=None)
    sub = parser.add_subparsers(dest="command")
    for name, (summary, options) in _COMMANDS.items():
        command = sub.add_parser(name, help=summary)
        for option, (convert, default, text) in options.items():
            kind = {"action": "store_true"} if convert is None else {
                "type": _finite_float if convert is float else convert}
            command.add_argument(option, default=default, help=text, **kind)
    return parser


def _read_argv(argv: list[str]):
    """``parse_args(argv)`` for a command and its options, each spelled in full,
    a valued one followed by a value that does not start with "-" and converts
    (a float to a finite one); None for any other argv. It imports nothing."""
    try:  # an empty argv, an unknown token, a missing value and a bad one raise
        options, tokens = _COMMANDS[argv[0]][1], iter(argv[1:])
        args = {name[2:].replace("-", "_"): default for name, (_, default, _) in options.items()}
        for token in tokens:
            convert, value = options[token][0], True
            if convert is not None:
                if (value := next(tokens)).startswith("-"):  # argparse has a rule for these
                    return None
                value = convert(value)
                if convert is float and not math.isfinite(value):
                    return None
            args[token[2:].replace("-", "_")] = value
    except (IndexError, KeyError, StopIteration, ValueError):
        return None
    return SimpleNamespace(**args, command=argv[0], dump_defaults=False)


def _parse_argv(argv: list[str] | None):
    """The full parser's ``parse_args(argv)``, read from the table where it can be."""
    argv = sys.argv[1:] if argv is None else list(argv)
    return _read_argv(argv) or _parser().parse_args(argv)


def main(argv: list[str] | None = None) -> int:
    args = _parse_argv(argv)
    if args.command is None and not args.dump_defaults:
        _parser().print_usage(sys.stderr)
        sys.stderr.write("error: a subcommand (or --dump-defaults) is required\n")
        return EXIT_VALIDATION

    try:
        if args.dump_defaults:
            _write_text(dump_scenario(default_scenario()), args.out)
            return 0
        run = getattr(_cli, "cmd_" + args.command.replace("-", "_"))
        output = run(load_scenario(args.scenario), args)
        _distinct_files(args.scenario, output.tables.values())
        sys.stderr.writelines(note + "\n" for note in output.notes)
        if output.notes and getattr(args, "strict", False):
            sys.stderr.write("aborting: --strict treats unrefined transitions as failures\n")
            return EXIT_NUMERICAL
        _write_tables(output.tables.values())
        return 0
    except (DemandTierError, OSError, MemoryError) as exc:  # numpy's MemoryError names the shape
        if isinstance(exc, OSError) and isinstance(exc.filename, str):
            exc.filename = _echo(exc.filename)
        sys.stderr.write(f"error: {exc}\n")
        numerical = isinstance(exc, (NoConvergence, NumericalOverflow))
        return EXIT_NUMERICAL if numerical else EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
