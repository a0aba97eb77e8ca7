"""The CSV text of the command tables; ``cli`` loads it at the first table.

A table is a header and columns, all lists or all numpy arrays, whose format
follows the values: ``%s`` for text, ``%d`` for integers and booleans and
``%.12g`` for floats. Lists are %-formatted row by row (``_csv``). Arrays are
built column-wise, a chunk of rows at a time (``_csv_columns``): numpy writes
the text of every value whose 12-digit rounding it can certify and ``%`` the
rest, so the bytes are those of ``%``. A label column is a str array, and a
column with empty fields a pair ``(array, empty)``, ``empty`` its empty rows.
"""
from functools import cache

from ._np import np


def table_text(header: str, columns):
    """The CSV of a table: ``_csv`` of list columns, the chunks of ``_csv_columns`` of arrays."""
    if not isinstance(columns[0], list):
        return _csv_columns(header, columns)
    kinds = ["%s" if isinstance(col[0], str) else "%d" if isinstance(col[0], int) else "%.12g"
             for col in columns if col]
    return _csv(header, ",".join(kinds), zip(*columns))


def _csv(header: str, row_format: str, rows) -> str:
    """The header line, then one line per row, each %-formatted whole by
    ``row_format``, one field per column and no newline."""
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
    # float(int) and int / int are correctly rounded
    scale = np.array([float(10**k) if k >= 0 else 1 / 10**-k for k in (11 - e).tolist()])
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


def _label_words(labels: np.ndarray) -> np.ndarray:
    """Rows of five words holding the str array ``labels``, ASCII of at most 39
    characters each: the low byte of each UCS-4 character, NUL-padded."""
    text = np.zeros((len(labels), 40), np.uint8)
    text[:, :labels.itemsize // 4] = labels.view(np.uint32).reshape(-1, labels.itemsize // 4)
    return _as_words(text)


def _csv_columns(header: str, columns):
    """The CSV of numpy ``columns`` under ``header``, built column-wise: yields
    the header line, then the ASCII text of each chunk of rows.

    A float column prints as ``%.12g``, an integer or bool column as ``%d``, a
    str column as its text (``_label_words``), and a pair ``(array, empty)``
    empty where ``empty`` holds. The joined pieces are the text of ``_csv``
    with those formats, byte for byte: the values that ``_field_words`` does
    not certify are %-formatted one by one. Only one chunk's text is held.
    """
    columns, empty = zip(*[col if isinstance(col, tuple) else (col, None) for col in columns])
    kinds = ["%d" if col.dtype.kind in "biu" else "%s" if col.dtype.kind == "U" else "%.12g"
             for col in columns]
    integers = [i for i, kind in enumerate(kinds) if kind == "%d"]
    # a label column's words replace those of a placeholder 1 (no special value)
    labels = {i: _label_words(col) for i, col in enumerate(columns) if kinds[i] == "%s"}
    values = [np.ones(len(col)) if i in labels else col for i, col in enumerate(columns)]
    n_fields = len(kinds)
    terminator = np.full(n_fields, ord(","), _WORD)
    terminator[-1] = ord("\n")
    terminator <<= np.uint64(56)
    n_rows = len(columns[0])
    step = max(1, _CHUNK_FIELDS // n_fields)
    yield header + "\n"
    for start in range(0, n_rows, step):
        rows = slice(start, start + step)
        block = np.stack([col[rows] for col in values], axis=1, dtype=float)
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
        for i, text in labels.items():
            words[:, i] = text[rows]
        for i, blank in enumerate(empty):
            if blank is not None:
                words[blank[rows], i] = 0
        words[:, :, 4] |= terminator
        yield words.tobytes().translate(None, b"\0").decode("ascii")
