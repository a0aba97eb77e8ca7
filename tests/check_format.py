"""Check the column-wise CSV writer against %-formatting on many values.

    PYTHONPATH=src python3 tests/check_format.py --values 10000000

Draws ``--values`` floats from the families of ``samples`` (random bit
patterns, exp(U(-745, 709)), normals times 10**U(-15, 40), short decimals and
decimal and binary ties) and as many random 64-bit integers, writes them as a
``%d,%.12g`` table with ``cli._csv_columns`` and compares every line with
``'%d,%.12g' % (i, x)``. Prints the counts and, per family, the share of
floats that the scaled path certified, and exits 1, listing the first
mismatches, if any line differs. About 4 us per value, most of it the
%-formatting it compares with; it is not part of the test suite.
"""

import argparse
import sys
import time

import numpy as np

from demandtier.cli import _csv, _csv_columns, _field_words

FAMILIES = ("bits", "log-uniform", "normal-scaled", "short-decimal", "decimal-tie", "binary-tie")


def samples(family: str, n: int, rng: np.random.Generator) -> np.ndarray:
    """``n`` floats of one family."""
    if family == "bits":
        return rng.integers(0, 2**64, n, dtype=np.uint64).view(np.float64)
    if family == "log-uniform":
        return np.exp(rng.uniform(-745.0, 709.0, n)) * rng.choice([-1.0, 1.0], n)
    if family == "normal-scaled":
        return rng.standard_normal(n) * 10.0 ** rng.uniform(-15.0, 40.0, n)
    # a mantissa below 2**53 over or times an exact power of ten is the double
    # nearest to the decimal it spells
    power = 10.0 ** rng.integers(0, 23, n)
    if family == "short-decimal":
        digits = 10 ** rng.integers(1, 16, n)
        mantissa = (rng.integers(1, 2**62, n) % digits).astype(float)
    elif family == "decimal-tie":  # 13 digits ending in 5: halfway at 12 digits
        mantissa = rng.integers(10**11, 10**12, n) * 10.0 + 5.0
    else:  # a 12-digit integer plus one half: an exact tie at every scale below
        return rng.integers(10**11, 10**12, n) + 0.5
    return np.where(rng.random(n) < 0.5, mantissa / power, mantissa * power)


def integers(n: int, rng: np.random.Generator) -> np.ndarray:
    """``n`` int64 values with 1 to 19 digits and either sign."""
    return rng.integers(-(2**63), 2**63 - 1, n, dtype=np.int64) // 10 ** rng.integers(0, 19, n)


def mismatches(ints: np.ndarray, floats: np.ndarray) -> list:
    """(expected, got) for each line of the table that differs from %-formatting."""
    got = _csv_columns("i,x", [ints, floats]).splitlines()
    want = _csv("i,x", "%d,%.12g", zip(ints.tolist(), floats.tolist())).splitlines()
    return [(w, g) for w, g in zip(want, got) if w != g] + (
        [("%d lines" % len(want), "%d lines" % len(got))] if len(want) != len(got) else [])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--values", type=int, default=10_000_000)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)
    rng = np.random.default_rng(args.seed)
    chunk = 200_000
    start = time.perf_counter()
    done = 0
    drawn = dict.fromkeys(FAMILIES, 0)
    certified = dict.fromkeys(FAMILIES, 0)
    bad = []
    while done < args.values:
        n = min(chunk, args.values - done)
        family = FAMILIES[(done // chunk) % len(FAMILIES)]
        floats = samples(family, n, rng)
        bad += mismatches(integers(n, rng), floats)
        drawn[family] += n
        certified[family] += int(_field_words(floats, np.empty((n, 5), np.uint64)).sum())
        done += n
    print(f"{done} floats and {done} integers, {len(bad)} lines differ; "
          f"{time.perf_counter() - start:.1f} s")
    print("floats the scaled path certified: " + ", ".join(
        f"{f} {certified[f] / drawn[f]:.2%}" for f in FAMILIES if drawn[f]))
    for want, got in bad[:20]:
        print(f"expected {want!r}, got {got!r}")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
