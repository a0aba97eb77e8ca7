"""The polynomial root machinery of the solver and the sweep: every root, and
every event level of the sweep's root locus, the correctly rounded double of
the exact value on the float parameters.

A polynomial (``_poly``) holds its coefficients, highest power first, each a
double-double (hi, lo) within 3 u^2 of its size, those sizes m_k, the sums of
the magnitudes of the terms that make up each coefficient, and its slope's
leading doubles and sizes. ``_gap`` gives the gap g_H(s, E) - g_L(1 - s), a
cubic in the share whose roots are the fixed points; at E = 0 it is q(s), whose
root locus E(s) = -q(s)/nu the sweep reads. ``_horner_dd`` evaluates a
polynomial in double-double arithmetic (Dekker 1971) with an error bound,
``_newton_dd`` takes one Newton step with a Kantorovich-style bound, and
``_bisect`` is the package's one exact rational bisection. ``_roots`` gives the
correctly rounded roots in (0, 1) of a polynomial of degree at most 4, and
``_level`` the level -q(s)/nu of a share. The sweep's events come from these
two, the critical shares with their saddle-node levels and the window-edge
crossings, and the solver's exact fallback takes its shares from ``_roots``.
The module imports no numpy, and ``fractions`` only in ``_fraction``, at the
first exact fallback.
"""

import math

from ._np import _any, _select, _xp
from .dynamics import _horner, gap_coefficients

_U = 2.0 ** -53  # unit roundoff
_SCALE_LIMIT = 2.0 ** 16  # closed-form errors stay below 2**-36 in the share


def _gap_sizes(coefficients, E):
    """The sizes m_k of the gap's coefficients, the sums of their terms'
    magnitudes, which bound their rounding; M(s) is their polynomial."""
    nu, phi1, phi2, chi1, chi2 = coefficients
    return (abs(phi2) + abs(chi2), 3.0 * abs(chi2), abs(phi1) + abs(chi1) + 3.0 * abs(chi2),
            abs(nu * E) + abs(chi1) + abs(chi2))


def _real_roots(c3, c2, c1, c0, sizes):
    """Real roots of c3*s^3 + c2*s^2 + c1*s + c0 in doubles, in closed form.

    c3, c2 and c1 are floats; c0 is a float or an array of levels. Returns
    three candidates, each NaN where the level has no such root, and whether
    the closed form cannot be trusted at the level: its discriminant lies
    within the error that ``sizes``, the magnitudes of the terms that make up
    each coefficient, allow (so the count of real roots is too close to
    call), or is not finite, or the cubic's roots and intermediate values
    reach ``_SCALE_LIMIT``, where the trigonometric form's absolute error
    could carry a root in (0, 1) out of the price window unseen.
    """
    xp = _xp(c0)
    s3, s2, s1, s0 = sizes
    nan = c0 * math.nan
    if c3 != 0.0:  # the trigonometric form for three real roots, else Cardano's
        disc = _discriminant(c3, c2, c1, c0)
        bound = 256.0 * _U * (18.0 * s3 * s2 * s1 * s0 + 4.0 * s2 * s2 * s2 * s0
                              + s2 * s2 * s1 * s1 + 4.0 * s3 * s1 * s1 * s1
                              + 27.0 * s3 * s3 * s0 * s0)
        a, b, c = c2 / c3, c1 / c3, c0 / c3
        p3 = (b - a * a / 3.0) / 3.0  # s = t - a/3 gives t^3 + 3*p3*t + 2*half_q = 0
        half_q = 0.5 * ((2.0 * a * a * a / 27.0 - a * b / 3.0) + c)
        shift = a / 3.0
        three = disc > 0.0
        denominator = p3 * math.sqrt(max(-p3, 0.0))
        if denominator < 0.0:
            root = math.sqrt(-p3)
            arg = half_q / denominator
            arg = _select(arg > 1.0, 1.0, _select(arg < -1.0, -1.0, arg))
            theta = xp.arccos(arg) / 3.0
            trig = [2.0 * root * xp.cos(theta - k * (2.0 * math.pi / 3.0)) - shift
                    for k in range(3)]
        else:
            three, trig = False & three, [nan, nan, nan]
        rest = half_q * half_q + p3 * p3 * p3
        w = -(half_q + xp.copysign(xp.sqrt(_select(rest > 0.0, rest, 0.0)), half_q))
        u = xp.cbrt(w)
        one = u - p3 / _select(u != 0.0, u, math.inf) - shift
        roots = [_select(three, trig[0], one), _select(three, trig[1], nan),
                 _select(three, trig[2], nan)]
        scale = abs(shift) + 2.0 * math.sqrt(abs(p3)) + 2.0 * xp.cbrt(abs(half_q))
        return roots, xp.logical_not((abs(disc) > bound) & (scale < _SCALE_LIMIT))
    elif c2 != 0.0:
        disc = c1 * c1 - 4.0 * c2 * c0
        bound = 256.0 * _U * (s1 * s1 + 4.0 * s2 * s0)
        two = disc >= 0.0
        q = -0.5 * (c1 + xp.copysign(xp.sqrt(_select(two, disc, 0.0)), c1))
        roots = [_select(two, q / c2, nan),
                 _select(two & (q != 0.0), c0 / _select(q != 0.0, q, 1.0), nan), nan]
    else:
        disc, bound = 1.0, 0.0
        roots = [-c0 / c1 if c1 != 0.0 else nan, nan, nan]
    return roots, xp.logical_not(abs(disc) > bound)


# ---------------------------------------------------------------- double-double

_SPLIT = 134217729.0  # 2**27 + 1: Dekker's split of a double into two halves


def _two_sum(a, b):
    """(s, e) with s = fl(a + b) and s + e = a + b exactly."""
    s = a + b
    v = s - a
    return s, (a - (s - v)) + (b - v)


def _fast_two_sum(a, b):
    """``_two_sum`` for |a| >= |b|."""
    s = a + b
    return s, b - (s - a)


def _two_prod(a, b):
    """(p, e) with p = fl(a * b) and p + e = a * b exactly, by Dekker's split.
    Where the split of an operand past 2^996 overflows beside a finite p, the
    other is below 2^28: 2^128 moves from the larger to the smaller, exactly."""
    p = a * b
    t = _SPLIT * a
    a_hi = t - (t - a)
    a_lo = a - a_hi
    t = _SPLIT * b
    b_hi = t - (t - b)
    b_lo = b - b_hi
    e = ((a_hi * b_hi - p) + a_hi * b_lo + a_lo * b_hi) + a_lo * b_lo
    nan = e != e  # on floats the bool False unless e is NaN: then the test takes no call
    if nan is not False and _any(split_overflow := nan & (abs(p) < math.inf)):
        k = _select(abs(a) > abs(b), 2.0 ** -128, 2.0 ** 128)
        e = _select(split_overflow, _two_prod(k * a, b / k)[1], e)
    return p, e


def _dd_add(x, y):
    s, e = _two_sum(x[0], y[0])
    return _fast_two_sum(s, e + (x[1] + y[1]))


def _dd_mul(x, y):
    p, e = _two_prod(x[0], y[0])
    return _fast_two_sum(p, e + (x[0] * y[1] + x[1] * y[0]))


def _dd_scale(x, b):
    p, e = _two_prod(x[0], b)
    return _fast_two_sum(p, e + x[1] * b)


def _dd_div(num, den):
    """num/den for double-double num and den, in double-double; NaN where den is 0."""
    d = _select(den[0] != 0.0, den[0], math.nan)
    q1 = num[0] / d
    r = _dd_add(num, _dd_scale(den, -q1))
    return _fast_two_sum(q1, r[0] / d)


def _rounds(hi, lo, err):
    """Whether every value within err of hi + lo rounds to the double hi."""
    return abs(lo) + err < 0.5 * abs(hi - _xp(hi).nextafter(hi, 0.0))  # the smaller half-spacing


# ---------------------------------------------------------------- polynomials


def _poly(coefficients, sizes):
    """The polynomial of the coefficients and sizes, with its slope's leading
    doubles and the sizes of its slope and of the slope's slope, built once."""
    slope_sizes = _derivative(sizes)
    return (coefficients, sizes, _derivative([c[0] for c in coefficients]), slope_sizes,
            _derivative(slope_sizes) or [0.0])


def _gap(coefficients, E):
    """The gap at the levels E as a polynomial (``_poly``, its slope written out):
    c3 and c2 exact, c1 and c0 one ``_dd_add`` each, within 3 u^2 of their
    sizes (``_gap_sizes``)."""
    nu, phi1, phi2, chi1, chi2 = coefficients
    c3, c2 = _two_sum(-phi2, -chi2), _two_prod(3.0, chi2)
    c1 = _dd_add(_two_sum(phi1, chi1), _two_prod(-3.0, chi2))
    m3, m2, m1, m0 = _gap_sizes(coefficients, E)
    return ((c3, c2, c1, _dd_add(_two_prod(nu, E), _two_sum(-chi1, chi2))), (m3, m2, m1, m0),
            (3.0 * c3[0], 2.0 * c2[0], c1[0]), (3.0 * m3, 2.0 * m2, m1), (6.0 * m3, 2.0 * m2))


def _derivative(c):
    """The derivative's coefficients of the coefficients c, highest power first."""
    return [k * x for k, x in zip(range(len(c) - 1, 0, -1), c)]


def _horner_dd(poly, x):
    """The polynomial at the doubles x in double-double by Horner's rule: (value,
    error bound), for degree n at most 4.

    To first order and barring underflow, ``_dd_scale`` errs by 3 u^2 |product|
    and ``_dd_add`` by 3 u^2 (|x| + |y|). So the step v*x + c_k errs by
    3 u^2 (2 |v*x| + m_k) and c_k by 3 u^2 m_k, both carried times |x|^k, and
    |v*x| |x|^k <= M(|x|), the polynomial of the sizes: (6n + 6) u^2 M in all.
    The bound, 32 u^2 M in doubles, covers the higher orders and the rounding
    of M.
    """
    coefficients, sizes = poly[0], poly[1]
    value = coefficients[0]
    for c in coefficients[1:]:
        value = _dd_add(_dd_scale(value, x), c)
    return value, 32.0 * _U * _U * _horner(sizes, abs(x))


def _newton_dd(x, poly):
    """One Newton step on the polynomial from the doubles x, in double-double.

    Returns the step's result y as (hi, lo) and a bound on its distance to
    the root next to x, 2^-1070 for underflow included, or NaN where the step
    cannot vouch for one: the slope is too uncertain or the start too far out
    for Kantorovich's condition.
    The value is ``_horner_dd``'s; the slope is evaluated by Horner's rule in
    doubles on the derivative's leading doubles, to within 16 u M'(|x|).
    """
    (value, value_err), ax = _horner_dd(poly, x), abs(x)
    slope = _horner(poly[2], x)
    slope_err = 16.0 * _U * _horner(poly[3], ax)
    d = _select(slope != 0.0, slope, math.inf)
    q1 = value[0] / d
    p = _two_prod(q1, d)
    q2 = (((value[0] - p[0]) - p[1]) + value[1]) / d  # the step is q1 + q2
    y = _two_sum(x, -q1)
    y = _fast_two_sum(y[0], y[1] - q2)
    step = abs(q1)
    bend = _horner(poly[4], ax + 2.0 * step)  # |p''| within two steps of x
    ad = abs(d)
    bound = (2.0 * (value_err + step * slope_err + 3.0 * bend * step * step) / ad
             + 8.0 * _U * _U * (step + abs(y[0])) + 2.0 ** -1070)
    valid = (slope_err < 0.25 * abs(slope)) & (bend * step < 0.25 * ad)
    return _select(valid, y[0], math.nan), y[1], _select(valid, bound, math.nan)


# ---------------------------------------------------------------- exact arithmetic


def _fraction(x):
    """x as a ``Fraction``; ``fractions`` loads at the first call, not at startup."""
    from fractions import Fraction

    return Fraction(x)


def _exact_gap(coefficients, E):
    """The gap's coefficients at the level E as ``Fraction`` values, exactly."""
    return gap_coefficients(tuple(map(_fraction, coefficients)), _fraction(E))


def _sign(value):
    return (value > 0) - (value < 0)


def _bisect(sign, lo, hi):
    """The double nearest the one zero in (lo, hi) of the exact function whose
    sign ``sign`` gives at a ``Fraction``, where the sign changes. Bisection
    over the ranks of the bracket's doubles, their ordered bit patterns, ends
    at two neighbours within 64 halvings, and the sign at their midpoint picks
    the nearer; a zero exactly halfway goes to the even one, as
    ``float(Fraction)`` rounds. lo and hi are floats or ``Fraction`` values.
    """
    from struct import pack, unpack

    def flip(q):  # a double's int64 bits <-> its rank; -0.0 ranks as 0.0
        return q if q >= 0 else -2 ** 63 - q

    side_lo = sign(_fraction(lo))
    a, b = map(flip, unpack("<2q", pack("<2d", float(lo), float(hi))))
    while True:
        m = (a + b) // 2
        x, y = unpack("<2d", pack("<2q", flip(m), flip(b)))
        if a == b:
            return x
        mid = (_fraction(x) + _fraction(y)) / 2 if b - a == 1 else _fraction(x)
        side = sign(mid)
        if side == 0 or b - a == 1:  # a zero at mid, or the nearer neighbour
            return float(mid) if side == 0 else y if side == side_lo else x
        a, b = (m, b) if side == side_lo else (a, m)


def _roots(poly, sign, keep=lambda s: True) -> list:
    """The correctly rounded roots in (0, 1) of the polynomial, of degree at most 4,
    ascending, each as a share (s, s_lo, err): the root lies within err of
    s + s_lo. ``sign`` is the polynomial's exact sign at a ``Fraction``; a root
    whose estimate ``keep`` rejects is left out.

    The real roots of its slope cut (0, 1) into monotone pieces. The sign at each
    cut is read in doubles where it clears their rounding error, 16 u M(1),
    else exactly; a cut where it is 0 is a root, the only one whose bound is 0.
    On each piece whose ends differ in sign, Newton's method in doubles from
    the secant's root, kept inside a bracket that shrinks about the root, gives
    an estimate; one ``_newton_dd`` step from it is kept where its bound
    certifies the rounding and keeps the root inside the piece, else
    ``_bisect`` rounds the root, within an ulp (not 0 when subnormal).
    """
    c, slope = [c[0] for c in poly[0]], poly[2]
    top = max(map(abs, slope)) or 1.0  # scaled, so that the discriminant stays finite
    critical, _ = _real_roots(*[0.0] * (4 - len(slope)), *(d / top for d in slope), (0.0,) * 4)
    cuts = [0.0, *sorted(s for s in critical if 0.0 < s < 1.0), 1.0]
    values, bound = [], 16.0 * _U * sum(poly[1])  # M(s) <= M(1) in [0, 1]
    for s in cuts:
        value = _horner(c, s)
        if not abs(value) > bound:
            value = sign(_fraction(s))
        values.append(value)
    found = [(s, 0.0, 0.0) for s, value in zip(cuts[1:-1], values[1:-1]) if value == 0]
    for lo, hi, v_lo, v_hi in zip(cuts, cuts[1:], values, values[1:]):
        if _sign(v_lo) * _sign(v_hi) < 0:
            a, b, s = lo, hi, min(max(lo + (hi - lo) * float(v_lo / (v_lo - v_hi)), lo), hi)
            for _ in range(64):  # a bisection step where Newton's leaves the bracket
                value, d = _horner(c, s), _horner(slope, s)
                a, b = (a, s) if (value > 0.0) == (v_hi > 0) else (s, b)
                t = s - value / d if d != 0.0 else s
                if abs(t - s) <= 2.0 ** -26 * abs(s):  # t is then within a few ulps
                    break
                s = t if a < t < b else 0.5 * (a + b)
            s = t if a < t < b else s
            if keep(s):
                y, y_lo, err = _newton_dd(s, poly)
                if not (_rounds(y, y_lo, err) and lo < y - err and y + err < hi):
                    y = _bisect(sign, lo, hi)
                    y_lo, err = 0.0, math.ulp(y)
                found.append((y, y_lo, err))
    return sorted(found)


def _level(q, nu, share, sign) -> float:
    """The correctly rounded level -q(s*)/nu of the exact share s*, given as a
    share (s, s_lo, err) of ``_roots``.

    q is evaluated at s in double-double and moved to s + s_lo along its slope;
    the error bound adds to ``_horner_dd``'s the slope times err and the
    second-order terms, and 16 u^2 |E| for the division. Where the bound does
    not separate two neighbouring doubles, ``_bisect`` rounds E in exact
    arithmetic on ``sign``, the exact sign at a ``Fraction`` E of a function
    whose one zero near E is the level.
    """
    s, s_lo, s_err = share
    (value, err), ax = _horner_dd(q, s), abs(s)
    slope, reach = _horner(q[2], s), abs(s_lo) + s_err
    value = _dd_add(value, _two_prod(slope, s_lo))
    err = (2.0 * err + abs(slope) * s_err
           + (32.0 * _U * _horner(q[3], ax) + _horner(q[4], ax + reach) * reach) * reach)
    e, e_lo = _dd_div(value, (-nu, 0.0))
    err = err / nu + 16.0 * _U * _U * abs(e)
    if _rounds(e, e_lo, err) or not err < math.inf:
        return e
    mid, width = _fraction(e) + _fraction(e_lo), 2 * _fraction(err)
    return _bisect(sign, mid - width, mid + width)


# ---------------------------------------------------------------- the locus


def _critical_shares(spec, q) -> dict:
    """{s: E} for each share s in (0, 1) where the slope of q, the gap at E = 0,
    vanishes, and its saddle-node level E = -q(s)/nu, both correctly rounded:
    the shares are the same at every level, since only the gap's constant
    term depends on E.

    A zero of q' at a cut of ``_roots`` (a share whose bound is 0) is kept only
    where q'' is not 0: at an exact cusp, a double root of q', q' keeps its
    sign, so the gap bends but stays monotone.
    """
    (c3, c2, c1, _), (m3, m2, m1, _) = q[0], q[1]

    def sign(s):  # of q'
        return _sign(_horner(_derivative(_exact_gap(spec.coefficients, 0)), s))

    def bend(s):  # q''(s) at the double s, exactly
        return _horner(_derivative(_derivative(_exact_gap(spec.coefficients, 0))), _fraction(s))

    def sign_level(E):  # of the gap's discriminant, which vanishes at each saddle-node
        return _sign(_discriminant(*_exact_gap(spec.coefficients, E)))

    slope = _poly((_dd_scale(c3, 3.0), _dd_scale(c2, 2.0), c1), (3.0 * m3, 2.0 * m2, m1))
    return {share[0]: _level(q, spec.nu, share, sign_level) for share in _roots(slope, sign)
            if 0.0 < share[0] < 1.0 and (share[2] or bend(share[0]))}


def _discriminant(c3, c2, c1, c0):
    """The discriminant of c3*s^3 + c2*s^2 + c1*s + c0."""
    return (18 * c3 * c2 * c1 * c0 - 4 * c2 * c2 * c2 * c0 + c2 * c2 * c1 * c1
            - 4 * c3 * c1 * c1 * c1 - 27 * c3 * c3 * c0 * c0)


def _edge_crossings(spec, q, sched, prices) -> dict:
    """{s: E} for each share s where the locus holds a root whose price is one of
    the prices, and its level E, both correctly rounded.

    Where alpha is a constant c, the share is c/(c + (1 - c)*price) in
    double-double: the denominator's terms are positive, so it errs by 6 u^2
    of itself, and the quotient by 12 u^2 more, within 32 u^2 s, and 2^-1070
    for underflow. Where alpha is base + slope*E, with r = price - 1 the
    share is a root of the quartic nu*alpha*(1 + r*s) - nu*price*s, with
    nu*alpha = nu*base - slope*q(s) along the locus, whose coefficients come in
    double-double from q's, each within 20 u^2 of the magnitudes of its terms,
    eight times which are its sizes. A share whose level in doubles puts alpha
    clearly off the piece is no crossing. E's exact fallback reads the sign of
    the gap at the share of the price, with the piece's alpha.
    """
    nu, (c, m), lo, hi = spec.nu, q[:2], sched.alpha_lo, sched.alpha_hi
    gap = [x[0] for x in c]

    # each reads the piece and the price of the loops below, as they call it
    def on_piece(s):
        raw = sched.alpha_base + sched.alpha_slope * (-_horner(gap, s) / nu)
        return a_lo - 1e-9 <= raw <= a_hi + 1e-9

    def sign_share(s):  # of alpha*(1 + r*s) - price*s along the locus
        level = -_horner(_exact_gap(spec.coefficients, 0), s) / _fraction(nu)
        a, p = _fraction(base) + _fraction(slope) * level, _fraction(price)
        return _sign(a * (1 + (p - 1) * s) - p * s)

    def sign_level(E):  # of the gap at the share of the price
        a, p = _fraction(base) + _fraction(slope) * E, _fraction(price)
        return _sign(_horner(_exact_gap(spec.coefficients, E), a / (a + (1 - a) * p)))

    cuts, finite = {}, [price for price in prices if price < math.inf]
    if math.inf in prices:  # the locus's end at s = 0, where prices grow without bound
        cuts[0.0] = _level(q, nu, (0.0, 0.0, 0.0),
                           lambda E: _sign(_exact_gap(spec.coefficients, E)[3]))
    for (base, slope), a_lo, a_hi in (((lo, 0.0), -math.inf, lo), ((hi, 0.0), hi, math.inf),
                                      ((sched.alpha_base, sched.alpha_slope), lo, hi)):
        if slope == 0.0:
            for price in finite:
                if on_piece(base / (base + (1.0 - base) * price)):
                    t = _dd_scale(_two_sum(1.0, -base), price)
                    s = _dd_div((base, 0.0), _dd_add((base, 0.0), t))
                    share = (*s, 32.0 * _U * _U * s[0] + 2.0 ** -1070)
                    cuts[s[0]] = _level(q, nu, share, sign_level)
            continue
        a, a_sizes = [_dd_scale(x, -slope) for x in c], [slope * x for x in m]
        a[-1], a_sizes[-1] = _dd_add(_two_prod(nu, base), a[-1]), a_sizes[-1] + abs(nu * base)
        for price in finite:
            r, nu_price = _two_sum(price, -1.0), _two_prod(nu, price)
            ar = abs(r[0])  # times (1 + r*s), and less nu*price*s
            coefficients = [_dd_mul(a[0], r),
                            *(_dd_add(x, _dd_mul(y, r)) for x, y in zip(a, a[1:])), a[-1]]
            sizes = [8.0 * ar * a_sizes[0],
                     *(8.0 * (x + ar * y) for x, y in zip(a_sizes, a_sizes[1:])),
                     8.0 * a_sizes[-1]]
            coefficients[-2] = _dd_add(coefficients[-2], (-nu_price[0], -nu_price[1]))
            sizes[-2] += 8.0 * nu_price[0]
            for share in _roots(_poly(coefficients, sizes), sign_share, on_piece):
                cuts[share[0]] = _level(q, nu, share, sign_level)
    return cuts
