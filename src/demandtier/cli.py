"""Command-line interface: deterministic CSV emission for every engine module.

Subcommands: fixed-points, bifurcation, simulate, statics, planner-foc.
Standard output carries CSV; diagnostics go to standard error. Exit codes:
0 success, 2 validation error, 3 numerical failure (a root that fails its
residual bound, a flagged transition under --strict, a statics price_H so
small that c_H overflows, a g_H whose square overflows, a planner-foc term
that is not finite, or a simulate or planner-foc path whose initial price
a_L0/a_H0 leaves the positive floats or whose c_H overflows). Floats are
printed with 12 significant digits (``%.12g``, the same text as
``format(x, '.12g')``) so identical scenarios yield byte-identical files.

The long tables of simulate, statics and planner-foc are built column-wise
(``_csv_columns``), each column's format taken from its dtype: a float column
prints as ``%.12g``, an integer or bool column as ``%d``. Numpy arithmetic
writes the text of every value whose 12-digit rounding it can certify, and
``%`` formats the rest, so the bytes are those of ``%`` row by row.
fixed-points and the bifurcation thresholds, tables of a few rows, are
%-formatted row by row (``_csv``).

Every command is a function ``cmd_*(scenario, args)`` of the loaded scenario
and the parsed arguments. ``main(argv)`` may be called repeatedly in one
process (the benchmark and the tests do): the argument parser is built once,
when this module is imported, and an argv that starts with a command name is
parsed by that command's parser alone.
Importing it loads neither numpy nor the CSV tables, which the first array operation
loads: fixed-points, --dump-defaults, --version, --help and loader errors need none,
nor do the validation exits that simulate and statics take before their first array.
"""

from __future__ import annotations

import argparse
import math
import sys
from functools import cache
from pathlib import Path
from typing import Iterable

from . import __version__
from ._np import np
from .bifurcation import sweep
from .demand import elasticity_arrays
from .dynamics import TechnologyState, simulate_path
from .errors import ConfigError, DemandTierError, NoConvergence, NumericalOverflow
from .planner import FOC_COLUMNS, evaluate_foc
from .scenario import Scenario, default_scenario, dump_scenario, load_scenario
from .solver import STABILITY_ORDER, find_fixed_points

EXIT_VALIDATION = 2
EXIT_NUMERICAL = 3


def _write_text(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        Path(out).write_text(text, encoding="utf-8", newline="")


def _csv(header: str, row_format: str, rows: Iterable[tuple]) -> str:
    """The header line, then one line per row, each row %-formatted whole.

    ``row_format`` holds one field per column and no newline; floats take
    ``%.12g``.
    """
    line = row_format + "\n"
    return header + "\n" + "".join([line % row for row in rows])


# Column-wise CSV. Each field becomes five little-endian uint64 words of ASCII
# text, NUL where a position holds no character: a prefix word (the sign, and
# "0." with the leading zeros of a value below 1), three digit words holding a
# 12-digit integer mantissa at their odd bytes (each even byte can take the
# decimal point), and a suffix word (the exponent of the e-notation) whose last
# byte is the comma or newline. One bytes.translate then deletes every NUL.

_WORD = "<u8"
# fields per chunk, so that the chunk's temporaries stay in the CPU cache
_CHUNK_FIELDS = 8192
# the decimal exponents the scaled path reaches: the clamp of log10 to
# [-296, 308], one step of fix-up either way
_EXP_LO, _EXP_HI = -297, 309


def _as_words(text: np.ndarray) -> np.ndarray:
    """Rows of 8*k text bytes as rows of k words."""
    return np.ascontiguousarray(text, dtype=np.uint8).view(_WORD)


def _digit_words() -> np.ndarray:
    """Word v < 10^4: the four digits of v at the odd bytes. Word 10^4 + v: the
    same with v's trailing zeros NUL, for the lowest groups of a mantissa."""
    digits = np.indices((10, 10, 10, 10), dtype=np.uint8).reshape(4, -1).T
    text = np.zeros((2, 10_000, 8), np.uint8)
    text[:, :, 1::2] = digits + np.uint8(48)
    text[1, :, 1::2] *= np.logical_or.accumulate(digits[:, ::-1] > 0, axis=1)[:, ::-1]
    return _as_words(text.reshape(20_000, 8)).ravel()


def _overlay_words() -> np.ndarray:
    """Prefix word and the three digit-word overlays, indexed by
    36*sign + 2*class + dot, one row per word; rows 72, 73 and 74 write
    "nan", "inf" and "-inf" over digit words that are all NUL.

    Class c in 1..16 is the fixed notation of exponent c - 5; classes 0 and 17
    are the e-notation, whose point follows the first digit. From exponent 0
    up, the overlay ORs '0' into the integer digits, which the stripped digit
    words may have made NUL ('0' | d is d for every digit d), and puts the
    point after digit e; ``dot`` is 0 where no digit follows it.
    """
    # bytes 0-7 are the prefix word; digit i sits at byte 9 + 2i and the
    # point after it at byte 10 + 2i
    text = np.zeros((75, 32), np.uint8)
    rows = text[:72].reshape(2, 18, 2, 32)
    rows[1, :, :, 0] = ord("-")
    for c in range(18):
        e = c - 5
        if -4 <= e < 0:
            rows[:, c, :, 1:3] = (ord("0"), ord("."))
            rows[:, c, :, 3:2 - e] = ord("0")
        elif 0 <= e < 12:
            rows[:, c, :, 9:11 + 2 * e:2] = ord("0")
            if e < 11:
                rows[:, c, 1, 10 + 2 * e] = ord(".")
        else:
            rows[:, c, 1, 10] = ord(".")
    for row, word in enumerate((b"nan", b"inf", b"-inf"), 72):
        text[row, :len(word)] = list(word)
    return _as_words(text).T.copy()


def _exponent_tables():
    """Per exponent e in [_EXP_LO, _EXP_HI]: the suffix word, 10**(11-e) rounded
    to nearest, the divisor whose remainder holds the digits after the point,
    and 2*class for the overlay index."""
    e = np.arange(_EXP_LO, _EXP_HI + 1)
    fixed = (e >= -4) & (e < 12)
    mag = np.abs(e)
    text = np.zeros((e.size, 8), np.uint8)
    text[:, 0] = ord("e")
    text[:, 1] = np.where(e < 0, ord("-"), ord("+"))
    digits = 48 + np.stack([mag // 100, mag // 10 % 10, mag % 10], axis=1)
    text[:, 2:5] = np.where((mag >= 100)[:, None], digits,
                            np.pad(digits[:, 1:], ((0, 0), (0, 1))))
    text[fixed] = 0
    tens = [1]
    for _ in range(308):
        tens.append(tens[-1] * 10)
    # float(int) and int / int are correctly rounded
    scale = np.array([float(tens[k]) if k >= 0 else 1 / tens[-k] for k in (11 - e).tolist()])
    # from exponent 0 to 11, the digits after the point are r mod 10**(11-e)
    dot_div = np.where(fixed & (e >= 0), scale, 1e11)
    return _as_words(text).ravel(), scale, dot_div, 2 * np.clip(e + 5, 0, 17)


@cache  # the digit, overlay and exponent tables, built by the first call
def _tables():
    return _digit_words(), _overlay_words(), *_exponent_tables()


def _field_words(x: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Write the ``%.12g`` text of the floats ``x`` into ``out`` (n, 5); returns
    the mask of the values written, the ones certified to round as ``%`` does.

    With e = floor(log10|x|), y = |x| * 10**(11-e) lies in [1e11, 1e12); the
    rounded scale and the product put y within 2**-12 of the exact scaled value,
    since y < 2**40. Where y is farther than 2**-11 from a half-integer, rint(y)
    is the correctly rounded 12-digit mantissa. Zeros, NaN and infinities,
    whose texts are fixed, are written too. The rest (values at or next to a
    rounding tie, values below 1e-296 and mantissas that round up to 10**12)
    are left to ``%``.
    """
    digits, overlays, suffixes, scales, dot_div, class2 = _tables()
    with np.errstate(all="ignore"):
        a = np.abs(x)
        lg = np.log10(a)
        # j = e - _EXP_LO: positive, so that the cast truncates to the floor;
        # zero, NaN, inf and the values below 1e-296 get some exponent in
        # [-296, 308] here and fail the certificate
        lg -= _EXP_LO
        np.fmax(lg, -296.0 - _EXP_LO, out=lg)
        j = np.fmin(lg, 308.0 - _EXP_LO, out=lg).astype(np.intp)
        y = a * scales[j]
        off = np.flatnonzero((y >= 1e12) | (y < 1e11))  # log10 near a power of ten
        if off.size:
            j[off] += np.where(y[off] >= 1e12, 1, -1)
            y[off] = a[off] * scales[j[off]]
        r = np.rint(y)
        certified = (np.abs(y - r) < 0.5 - 2.0**-11) & (r >= 1e11) & (r < 1e12)
        np.copyto(r, 1e11, where=~certified)
        # zero, NaN and inf take r = 0, whose digit words are all NUL, and the
        # exponent 0, whose overlay restores the one digit of "0" and "-0"
        special = np.flatnonzero(~((a > 0.0) & (a < np.inf)))
        certified[special] = True
        r[special] = 0.0
        j[special] = -_EXP_LO
        scaled = r / dot_div[j]
    overlay = np.signbit(x) * 36 + class2[j] + (scaled != np.floor(scaled))
    if special.size:
        v = x[special]
        overlay[special] = np.where(np.isnan(v), 72,
                                    np.where(np.isinf(v), 73 + (v < 0), overlay[special]))
    rh = r + 0.5  # the fractions of rh/1e8 and rh/1e4 lie far from the integers
    hi = np.floor(rh * 1e-8)
    q = np.floor(rh * 1e-4)
    mid = q - 1e4 * hi
    lo = r - 1e4 * q
    lo_zero = lo == 0.0
    # strip the trailing zeros: always in the low group, in the middle one if
    # the low group is all zeros, in the high one if both are
    hi += (lo_zero & (mid == 0.0)) * 1e4
    mid += lo_zero * 1e4
    lo += 1e4
    out[:, 0] = overlays[0][overlay]
    for w, group in enumerate((hi, mid, lo), 1):
        out[:, w] = digits[group.astype(np.intp)] | overlays[w][overlay]
    out[:, 4] = suffixes[j]
    return certified


def _csv_columns(header: str, columns) -> str:
    """The CSV of numpy ``columns`` under ``header``, built column-wise.

    A float column prints as ``%.12g`` and an integer or bool column as
    ``%d``. The text is that of ``_csv`` with those formats, byte for byte:
    the values that ``_field_words`` does not certify are %-formatted one by one.
    """
    kinds = ["%d" if col.dtype.kind in "biu" else "%.12g" for col in columns]
    integers = [i for i, kind in enumerate(kinds) if kind == "%d"]
    n_fields = len(kinds)
    terminator = np.full(n_fields, ord(","), _WORD)
    terminator[-1] = ord("\n")
    terminator <<= np.uint64(56)
    n_rows = len(columns[0])
    step = max(1, _CHUNK_FIELDS // n_fields)
    parts = [(header + "\n").encode("ascii")]
    for start in range(0, n_rows, step):
        block = np.stack([col[start:start + step] for col in columns], axis=1, dtype=float)
        words = np.empty(block.shape + (5,), _WORD)
        written = _field_words(block.ravel(), words.reshape(-1, 5)).reshape(block.shape)
        for i in integers:  # %.12g of an integer below 10**12 is its %d text
            written[:, i] &= np.abs(block[:, i]) < 1e12
        rest = np.flatnonzero(~written)
        if rest.size:
            row, field = np.divmod(rest, n_fields)
            exact = [kinds[i] % columns[i][start + r].item()
                     for r, i in zip(row.tolist(), field.tolist())]
            words.view(np.uint8).reshape(block.shape + (40,))[row, field, :39] = \
                np.array(exact, dtype="S39").view(np.uint8).reshape(-1, 39)
        words[:, :, 4] |= terminator
        parts.append(words.tobytes().translate(None, b"\0"))
    return b"".join(parts).decode("ascii")


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
    initial = TechnologyState(a_H=sim.a_H0, a_L=sim.a_L0, wage=sim.wage)
    return simulate_path(scenario.preferences, scenario.learning, initial, E, sim.income,
                         horizon)


def cmd_fixed_points(scenario: Scenario, args: argparse.Namespace) -> int:
    e_val = _education(scenario, args.E)
    if isinstance(e_val, list):
        raise ConfigError(
            "scenario simulation E is a path; pass --E to pick the education level"
        )
    e_val = float(e_val)
    roots = find_fixed_points(scenario.preferences, scenario.learning, e_val, scenario.solver)
    rows = [(e_val, fp.p_star, fp.s_star, fp.t_prime, fp.stability.value) for fp in roots]
    _write_text(
        _csv("E,p_star,s_star,t_prime,stability", "%.12g,%.12g,%.12g,%.12g,%s", rows), args.out
    )
    return 0


def cmd_bifurcation(scenario: Scenario, args: argparse.Namespace) -> int:
    diagram = sweep(scenario.preferences, scenario.learning, scenario.sweep, scenario.solver)
    roots = diagram.roots
    # one line per root; a level with no fixed point keeps a line with empty fields
    e_text = ["%.12g" % e for e in diagram.E.tolist()]
    labels = [stability.value for stability in STABILITY_ORDER]
    rootless = np.flatnonzero(np.bincount(roots.level, minlength=len(e_text)) == 0)
    lines = [
        "%s,%.12g,%s\n" % (e_text[i], p, labels[code])
        for i, p, code in zip(roots.level.tolist(), roots.p_star.tolist(),
                              roots.stability.tolist())
    ] + [e_text[i] + ",,\n" for i in rootless.tolist()]
    order = np.argsort(np.concatenate([roots.level, rootless]), kind="stable")
    locus_csv = "E,p_star,stability\n" + "".join([lines[k] for k in order.tolist()])

    threshold_rows = [(sn.E_bar, sn.s_bar, *sn.residuals) for sn in diagram.thresholds]
    thresholds_csv = _csv(
        "E_bar,s_bar,res_H,res_dHds", "%.12g,%.12g,%.12g,%.12g", threshold_rows
    )

    flagged = [t for t in diagram.transitions if t.saddle is None]
    for t in flagged:
        sys.stderr.write(
            "transition at E=%.12g [%d -> %d roots] not a saddle-node: %s\n"
            % (t.E, t.count_lo, t.count_hi, t.note)
        )
    if args.strict and flagged:
        sys.stderr.write("aborting: --strict treats unrefined transitions as failures\n")
        return EXIT_NUMERICAL

    if args.out is None and args.thresholds_out is None:
        sys.stdout.write(locus_csv + "\n" + thresholds_csv)
    else:
        _write_text(locus_csv, args.out)
        _write_text(thresholds_csv, args.thresholds_out)
    return 0


def cmd_simulate(scenario: Scenario, args: argparse.Namespace) -> int:
    path = _path(scenario, _education(scenario, args.E), scenario.simulation.horizon)
    columns = (path.t, path.p, path.s_q, path.a_h, path.a_l,
               path.c_l, path.c_h, path.share_h, path.utility, path.interior)
    header = "t,p,s_Q,a_H,a_L,c_L,c_H,share_H,utility,interior_flag"
    _write_text(_csv_columns(header, columns), args.out)
    return 0


def cmd_statics(scenario: Scenario, args: argparse.Namespace) -> int:
    st = scenario.statics
    e_val = args.E if args.E is not None else st.E
    # c_H = alpha*B/price_H rises with Y, so it overflows on some row only if
    # it does on the last one, which is solved first on floats, before numpy
    # loads; through elasticity_arrays, so that an invalid key exits 2 first
    y_top = st.y_max if st.y_points > 1 else st.y_min  # linspace ends on y_max
    top, _ = elasticity_arrays(scenario.preferences, y_top, st.price_H, e_val)
    if math.isinf(top.c_H):  # NaN when B <= 0: no row divides by price_H
        raise NumericalOverflow(
            f"key 'price_H' in section 'statics' is too small: c_H overflows at "
            f"Y={y_top:.12g}, got price_H={st.price_H!r}"
        )
    incomes = np.linspace(st.y_min, st.y_max, st.y_points)
    # every column is NaN on non-interior rows
    demand, eta = elasticity_arrays(scenario.preferences, incomes, st.price_H, e_val)
    columns = (incomes, demand.c_L, demand.c_H, demand.share_H, demand.share_L,
               eta.eta_H, eta.eta_L, demand.interior)
    header = "Y,c_L,c_H,share_H,share_L,eta_H,eta_L,interior_flag"
    _write_text(_csv_columns(header, columns), args.out)
    return 0


def cmd_planner_foc(scenario: Scenario, args: argparse.Namespace) -> int:
    path = _path(scenario, _education(scenario, None), scenario.planner.horizon)
    report = evaluate_foc(scenario.preferences, scenario.learning, scenario.planner, path)
    columns = (report.t, report.preference_term, report.spillover_term,
               report.shadow_cost, report.wedge, report.lambda_t, report.eta_t)
    _write_text(_csv_columns(",".join(("t", *FOC_COLUMNS)), columns), args.out)
    return 0


def _finite_float(text: str) -> float:
    """argparse type for --E: a float that is neither nan nor inf, which float() accepts."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"must be a finite number, got {text!r}")
    return value


def build_parser() -> tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser]]:
    """The ``demandtier`` parser, and each subcommand's own parser by name."""
    parser = argparse.ArgumentParser(
        prog="demandtier",
        description="Demand-hierarchy equilibrium engine: fixed points, education sweeps, "
        "simulations, demand statics, and planner diagnostics as deterministic CSV.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    parser.add_argument(
        "--dump-defaults", action="store_true",
        help="print the built-in default scenario as JSON and exit",
    )
    parser.add_argument("--out", help="output path for --dump-defaults", default=None)
    sub = parser.add_subparsers(dest="command")
    commands = {}

    def command(name, summary, with_e=False):
        p = commands[name] = sub.add_parser(name, help=summary)
        p.add_argument("--scenario", help="scenario JSON file (defaults built in)")
        p.add_argument("--out", help="write the CSV here instead of standard output")
        if with_e:
            p.add_argument("--E", type=_finite_float, default=None, help="education level override")
        return p

    command("fixed-points", "fixed points of the price map at one E", with_e=True)
    p_bif = command("bifurcation", "education sweep: root locus and thresholds")
    p_bif.add_argument("--thresholds-out", help="write the thresholds CSV here")
    p_bif.add_argument(
        "--workers", type=int, default=1,
        help="accepted for compatibility; the sweep is one batched solve and this has no effect",
    )
    p_bif.add_argument(
        "--strict", action="store_true",
        help="exit 3 if any root-count transition is not a saddle-node",
    )
    command("simulate", "forward time path", with_e=True)
    command("statics", "shares and income elasticities over an income grid", with_e=True)
    command("planner-foc", "planner education FOC terms along a path")
    return parser, commands


# built once per process, with the module: parse_args leaves a parser as it
# found it, and help reads the terminal width when it is formatted
_PARSER, _COMMANDS = build_parser()


def _parse_argv(argv: list[str] | None) -> argparse.Namespace:
    """``_PARSER.parse_args(argv)``: the same namespace, output and exit.

    An argv that starts with a command name goes straight to that command's
    parser, which is what the full parser hands it to, at about half the cost.
    Arguments it leaves over are rejected by the full parser's error, as
    ``parse_args`` rejects them.
    """
    argv = sys.argv[1:] if argv is None else list(argv)
    parser = _COMMANDS.get(argv[0]) if argv else None
    if parser is None:
        return _PARSER.parse_args(argv)
    args, extras = parser.parse_known_args(argv[1:])
    if extras:
        _PARSER.error("unrecognized arguments: %s" % " ".join(extras))
    args.command = argv[0]
    args.dump_defaults = False
    return args


def main(argv: list[str] | None = None) -> int:
    args = _parse_argv(argv)

    if args.dump_defaults:
        _write_text(dump_scenario(default_scenario()), args.out)
        return 0
    if args.command is None:
        _PARSER.print_usage(sys.stderr)
        sys.stderr.write("error: a subcommand (or --dump-defaults) is required\n")
        return EXIT_VALIDATION

    # built per call, so that a cmd_* name patched on this module is the one that runs
    run = {"fixed-points": cmd_fixed_points, "bifurcation": cmd_bifurcation,
           "simulate": cmd_simulate, "statics": cmd_statics,
           "planner-foc": cmd_planner_foc}[args.command]
    try:
        return run(load_scenario(args.scenario), args)
    except (NoConvergence, NumericalOverflow) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_NUMERICAL
    except (DemandTierError, OSError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
