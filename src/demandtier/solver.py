"""Fixed points of the relative-price map as roots of one cubic, and local
stability classification.

With s = S(p; E), the fixed-point condition T(p; E) = p reads
g_H(s, E) = g_L(1 - s), a cubic in s whose constant term alone depends on E.
Its real roots come in closed form: the trigonometric form for three real
roots, Cardano's for one, the quadratic or linear formula for lower degrees.
One Newton step from them on the exact gap, its coefficients evaluated by
Horner's rule in double-double arithmetic (Dekker 1971), to within 32 u^2 M(|s|)
(``_gap_dd``), then p = alpha(1-s)/((1-alpha)s) formed in double-double, make
each p* the correctly rounded double of the exact root of the model as the
package specifies it: float parameters and the float alpha_of(E). An error bound
certifies each rounding. A level that holds a root it cannot certify (next to
a saddle-node), or whose root count the rounded discriminant cannot decide, is
solved in exact rational arithmetic, between the prices of the critical
shares, where the gap's slope vanishes. The correctly rounded root is unique,
so every path gives the same bits.

Every rule of a level is written once, in ``_candidates``: E >= 0, the gap's
coefficients and rounding magnitudes, no root where the gap does not depend on
s or nu*E overflows, the closed form, the price window widened by
``_WINDOW_SLACK`` in price and ``_SHARE_ERROR`` in share, and the flag for
exact arithmetic. Like the polish and the re-check, it uses only arithmetic
operators and the float-or-array helpers of ``_np``, so ``find_fixed_points``
runs it on one level's Python floats and ``_fixed_point_rows`` on a sweep's
arrays, keeping the roots as columns. Both polish the candidates, solve
flagged levels exactly, keep the roots in [p_min, p_max], and have
``_recheck`` re-check and classify them through T'(p*) = 1 - s*(1-s*) * dH/ds,
by ``excess_share``, ``h_ratio`` and the stability band of
``classify_stability``.
"""

from __future__ import annotations

import math
import sys
from collections import namedtuple
from enum import Enum

from ._np import _any, _first, _select, _xp, np
from .demand import alpha_of
from .dynamics import _horner, excess_share, gap_coefficients, h_ratio
from .errors import ConfigError, NoConvergence, ShareOutOfRange
from .scenario import LearningSpec, PreferenceSchedule, SolverConfig  # noqa: F401 - re-exported
from .scenario import _DEFAULTS, _Record


class Stability(str, Enum):
    STABLE = "stable"
    UNSTABLE = "unstable"
    MARGINAL = "marginal"


class FixedPoint(_Record):
    """A root p* of the price map with its share, slope, and stability class."""

    p_star: float
    s_star: float
    t_prime: float
    stability: Stability


STABILITY_ORDER = tuple(Stability)  # stable, unstable, marginal


def _slope_and_class(s_star, dH_ds_at_star, marginal_tol):
    """T' and its class as an index into ``STABILITY_ORDER``, elementwise."""
    t_prime = 1.0 - s_star * (1.0 - s_star) * dH_ds_at_star
    magnitude = abs(t_prime)
    band = _select(magnitude > 1.0 + marginal_tol, 1, 2)
    return t_prime, _select(magnitude < 1.0 - marginal_tol, 0, band)


def classify_stability(
    s_star: float, dH_ds_at_star: float, marginal_tol: float = 1e-8
) -> tuple[float, Stability]:
    """Map slope and stability class from the share and dH/ds at a fixed point.

    t_prime = 1 - s*(1-s*)*dH/ds; stable iff |t_prime| < 1 within the marginal
    band, unstable iff |t_prime| > 1 beyond it, marginal in between (the
    nonhyperbolic case, e.g. dH/ds = 0).
    """
    if not 0.0 < s_star < 1.0:
        raise ShareOutOfRange(f"share must be in (0, 1), got {s_star}")
    t_prime, code = _slope_and_class(s_star, dH_ds_at_star, marginal_tol)
    return t_prime, STABILITY_ORDER[code]


class RootColumns(namedtuple("RootColumns", "level p_star s_star t_prime stability")):
    """Fixed points of many levels as columns of arrays, one entry per root, in
    (level, ascending p) order; ``stability`` indexes ``STABILITY_ORDER``."""

    __slots__ = ()

    def fixed_points(self) -> list[FixedPoint]:
        """Every root as a ``FixedPoint`` on Python floats, in column order."""
        return [
            FixedPoint(p, s, t, STABILITY_ORDER[code])
            for p, s, t, code in zip(self.p_star.tolist(), self.s_star.tolist(),
                                     self.t_prime.tolist(), self.stability.tolist())
        ]


# ---------------------------------------------------------------- closed form

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
        disc = (18.0 * c3 * c2 * c1 * c0 - 4.0 * c2 * c2 * c2 * c0 + c2 * c2 * c1 * c1
                - 4.0 * c3 * c1 * c1 * c1 - 27.0 * c3 * c3 * c0 * c0)
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


def _critical_shares(spec: LearningSpec) -> list[float]:
    """The shares in (0, 1) where the gap's slope q'(s) vanishes, ascending: the
    same for every level, since only the gap's constant term depends on E.

    There are none unless the discriminant of q', c2^2 - 3*c3*c1 in the gap's
    exact coefficients, is positive: at a double root q' keeps its sign, so
    the gap bends but stays monotone. The sign is read in doubles where it
    clears their rounding error, and in ``fractions`` where it does not.
    """
    c3, c2, c1, _ = gap_coefficients(spec.coefficients, 0.0)
    s3, s2, s1, _ = _gap_sizes(spec.coefficients, 0.0)
    critical, unsure = _real_roots(0.0, 3.0 * c3, 2.0 * c2, c1, (0.0, 3.0 * s3, 2.0 * s2, s1))
    if unsure:
        from fractions import Fraction

        c3, c2, c1, _ = gap_coefficients(tuple(map(Fraction, spec.coefficients)), 0)
        if c2 * c2 <= 3 * c3 * c1:
            return []
    return sorted(s for s in critical if 0.0 < s < 1.0)  # also drops a missing root, NaN


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
    """(p, e) with p = fl(a * b) and p + e = a * b exactly, by Dekker's split."""
    p = a * b
    t = _SPLIT * a
    a_hi = t - (t - a)
    a_lo = a - a_hi
    t = _SPLIT * b
    b_hi = t - (t - b)
    b_lo = b - b_hi
    return p, ((a_hi * b_hi - p) + a_hi * b_lo + a_lo * b_hi) + a_lo * b_lo


def _dd_add(x, y):
    s, e = _two_sum(x[0], y[0])
    return _fast_two_sum(s, e + (x[1] + y[1]))


def _dd_mul(x, y):
    p, e = _two_prod(x[0], y[0])
    return _fast_two_sum(p, e + (x[0] * y[1] + x[1] * y[0]))


def _dd_scale(x, b):
    p, e = _two_prod(x[0], b)
    return _fast_two_sum(p, e + x[1] * b)


def _gap_dd(x, E, coefficients):
    """The gap at the doubles x in double-double by Horner's rule on its
    coefficients: (gap, error bound, the coefficients' leading doubles, sizes).

    c3 and c2 are exact, c1 and c0 take one ``_dd_add``. To first order and
    barring underflow, ``_dd_scale`` errs by 3 u^2 |product| and ``_dd_add`` by
    3 u^2 (|x| + |y|). So c_k errs by 3 u^2 m_k and the step v*x + c_k by
    3 u^2 (2 |v*x| + m_k), both carried times |x|^k, and |v*x| |x|^k <= M(|x|):
    24 u^2 M in all. The bound, 32 u^2 M in doubles, covers the higher orders
    and the rounding of M.
    """
    nu, phi1, phi2, chi1, chi2 = coefficients
    c3, c2 = _two_sum(-phi2, -chi2), _two_prod(3.0, chi2)
    c1 = _dd_add(_two_sum(phi1, chi1), _two_prod(-3.0, chi2))
    c0 = _dd_add(_two_prod(nu, E), _two_sum(-chi1, chi2))
    gap = c3
    for c in (c2, c1, c0):
        gap = _dd_add(_dd_scale(gap, x), c)
    sizes = _gap_sizes(coefficients, E)
    return gap, 32.0 * _U * _U * _horner(sizes, abs(x)), (c3[0], c2[0], c1[0]), sizes


def _newton_dd(x, E, coefficients):
    """One Newton step on the exact gap from the doubles x, in double-double.

    Returns the step's result y as (hi, lo) and a bound on its distance to
    the root next to x, or NaN where the step cannot vouch for one: the slope
    is too uncertain or the start too far out for Kantorovich's condition.
    The gap is ``_gap_dd``'s, by Horner's rule on its coefficients in
    double-double, to within 32 u^2 M(|x|); the slope is evaluated by Horner's
    rule in doubles on the derivative's coefficients, to within 16 u M'(|x|).
    """
    gap, gap_err, (c3, c2, c1), (m3, m2, m1, _) = _gap_dd(x, E, coefficients)
    ax = abs(x)
    slope = _horner((3.0 * c3, 2.0 * c2, c1), x)
    slope_err = 16.0 * _U * _horner((3.0 * m3, 2.0 * m2, m1), ax)
    d = _select(slope != 0.0, slope, math.inf)
    q1 = gap[0] / d
    p = _two_prod(q1, d)
    q2 = (((gap[0] - p[0]) - p[1]) + gap[1]) / d  # the step is q1 + q2
    y = _two_sum(x, -q1)
    y = _fast_two_sum(y[0], y[1] - q2)
    step = abs(q1)
    bend = 6.0 * m3 * (ax + 2.0 * step) + 2.0 * m2  # |gap''| within two steps of x
    ad = abs(d)
    bound = (2.0 * (gap_err + step * slope_err + 3.0 * bend * step * step) / ad
             + 8.0 * _U * _U * (step + abs(y[0])))
    valid = (slope_err < 0.25 * abs(slope)) & (bend * step < 0.25 * ad)
    return _select(valid, y[0], math.nan), y[1], _select(valid, bound, math.nan)


def _polish(x, E, alpha, coefficients):
    """Correctly rounded p* from the share estimates x: (p*, certified).

    One ``_newton_dd`` step, then p = alpha(1-s)/((1-alpha)s) in double-double;
    the rounding of p to a double is certified when every value within the
    propagated error bound rounds to the same double.
    """
    y_hi, y_lo, s_err = _newton_dd(x, E, coefficients)
    t = _two_sum(1.0, -y_hi)  # 1 - s
    t = (t[0], t[1] - y_lo)
    num = _dd_scale(t, alpha)
    den = _dd_mul((y_hi, y_lo), _two_sum(1.0, -alpha))
    den_hi = _select(den[0] != 0.0, den[0], math.nan)
    q1 = num[0] / den_hi
    r = _dd_add(num, _dd_scale(den, -q1))
    p_hi, p_lo = _fast_two_sum(q1, r[0] / den_hi)
    # dp/p = -ds/(s(1-s)); the relative error stays below twice its first
    # order while that is below 1/4. Forming 1 - s rounds away up to
    # u^2 * s, which counts as an error in s.
    weight = abs(y_hi * t[0])
    rel = (s_err + 2.0 * _U * _U * abs(y_hi)) / _select(weight > 0.0, weight, math.nan)
    p_err = abs(p_hi) * (2.0 * rel + 64.0 * _U * _U)
    half_ulp = 0.5 * (p_hi - _xp(p_hi).nextafter(p_hi, 0.0))  # the smaller half-spacing
    certified = (rel < 0.25) & (abs(p_lo) + 2.0 * p_err < half_ulp)
    return p_hi, certified


# ---------------------------------------------------------------- exact fallback


def _exact_prices(E, alpha, spec: LearningSpec, cfg):
    """The correctly rounded roots of one level in the price window widened to
    [p_min/2, 2*p_max], ascending, in exact rational arithmetic; the caller
    keeps those in [p_min, p_max].

    The prices of the gap's critical shares cut the widened window (capped at
    the largest double) into pieces on which the gap is monotone in p. A piece
    whose ends have opposite exact signs holds one root. Bisection over the
    doubles in the piece ends at two neighbours, and the sign at their
    midpoint picks the nearer; a root exactly halfway goes to the even one,
    as ``float(Fraction)`` rounds.
    """
    from fractions import Fraction

    a = Fraction(alpha)
    coefficients = gap_coefficients(tuple(map(Fraction, spec.coefficients)), Fraction(E))

    def sign(p):
        gap = _horner(coefficients, a / (a + (1 - a) * p))
        return (gap > 0) - (gap < 0)

    def rounded_root(lo, hi, side_lo):
        while True:
            x, y = float(lo), float(hi)
            if x == y:
                return x
            adjacent = math.nextafter(x, math.inf) == y
            mid = (Fraction(x) + Fraction(y)) / 2 if adjacent else Fraction(0.5 * x + 0.5 * y)
            side = sign(mid)
            if side == 0:
                return float(mid)
            if adjacent:
                return y if side == side_lo else x
            if side == side_lo:
                lo = mid
            else:
                hi = mid

    cuts = sorted(a * (1 - Fraction(s)) / ((1 - a) * Fraction(s))
                  for s in _critical_shares(spec))
    lo_end = Fraction(cfg.p_min) / 2
    hi_end = min(2 * Fraction(cfg.p_max), Fraction(sys.float_info.max))
    ends = [lo_end, *(c for c in cuts if lo_end < c < hi_end), hi_end]
    signs = [sign(p) for p in ends]
    found = {float(p) for p, side in zip(ends, signs) if side == 0}
    for lo, hi, side_lo, side_hi in zip(ends, ends[1:], signs, signs[1:]):
        if side_lo * side_hi < 0:
            found.add(rounded_root(lo, hi, side_lo))
    return sorted(found)


# ---------------------------------------------------------------- levels

_WINDOW_SLACK = 1e-6  # estimates this far (relative) outside the window are polished too
_SHARE_ERROR = 2.0 ** -36  # and this far (absolute) in the share: the closed form's error


def _candidates(sched: PreferenceSchedule, spec: LearningSpec, E, cfg: SolverConfig):
    """The closed form's share estimates of the roots at the levels E, a float or
    an array: (shares, polish, alpha, exact).

    ``shares`` holds three candidates, each NaN where the level has no such
    root, and ``polish`` whether to polish each: its share lies in the window
    widened by ``_WINDOW_SLACK`` in price and then by the closed form's error
    ``_SHARE_ERROR`` in share, past 0 and 1 too, and ``exact`` does not send
    the level to ``_exact_prices``. A level has no root where the gap does not
    depend on s or nu*E overflows (g_H is then infinite). E < 0 raises
    ConfigError.
    """
    xp = _xp(E)
    negative = xp.logical_not(E >= 0.0)
    if _any(negative):
        raise ConfigError(f"education level must be >= 0, got {_first(E, negative)}")
    c3, c2, c1, c0 = gap_coefficients(spec.coefficients, E)
    sizes = _gap_sizes(spec.coefficients, E)
    solvable = (not c3 == c2 == c1 == 0.0) & xp.isfinite(c0)
    shares, exact = _real_roots(c3, c2, c1, _select(solvable, c0, 0.0), sizes)
    exact = exact & solvable
    alpha = alpha_of(sched, E)
    s_lo = alpha / (alpha + (1.0 - alpha) * (cfg.p_max * (1.0 + _WINDOW_SLACK))) - _SHARE_ERROR
    s_hi = alpha / (alpha + (1.0 - alpha) * (cfg.p_min * (1.0 - _WINDOW_SLACK))) + _SHARE_ERROR
    polishable = solvable & xp.logical_not(exact)
    return shares, [polishable & (s_lo <= x) & (x <= s_hi) for x in shares], alpha, exact


def find_fixed_points(
    sched: PreferenceSchedule, spec: LearningSpec, E: float, cfg: SolverConfig | None = None
) -> list[FixedPoint]:
    """All fixed points of T(.; E) on [p_min, p_max], ascending in p.

    An empty list is a legal result: an interior fixed point need not exist.
    Each p* is the correctly rounded root. Every returned root satisfies
    |T(p*) - p*| <= bisect_tol * max(1, p*), re-checked as ``excess_share``
    and ``h_ratio`` compute it; a root that fails the bound raises
    NoConvergence. E < 0 raises ConfigError. The level is solved on Python
    floats, through the functions a sweep runs on arrays.
    """
    cfg = cfg or _DEFAULTS["solver"]
    E = float(E)
    shares, polish, alpha, exact = _candidates(sched, spec, E, cfg)
    prices = []
    for x, in_window in zip(shares, polish):
        if in_window and not exact:
            p, certified = _polish(x, E, alpha, spec.coefficients)
            prices.append(p)
            exact = not certified
    if exact:
        prices = _exact_prices(E, alpha, spec, cfg)
    roots = []
    for p_star in sorted(p for p in prices if cfg.p_min <= p <= cfg.p_max):
        s_star, t_prime, code = _recheck(sched, spec, E, p_star, cfg)
        roots.append(FixedPoint(p_star, s_star, t_prime, STABILITY_ORDER[code]))
    return roots


def _recheck(sched: PreferenceSchedule, spec: LearningSpec, E, p_star, cfg: SolverConfig):
    """(s*, T', class index) of the roots p_star at the levels E, floats or arrays.

    Each root must satisfy |T(p*) - p*| <= bisect_tol * max(1, p*), as
    ``excess_share`` and ``h_ratio`` compute it, and have a share that does not
    round to 0 or 1, where T' cannot be formed. The first root that fails, in
    column order, raises NoConvergence.
    """
    s_star = excess_share(sched, E, p_star)
    h = h_ratio(spec, s_star, E)
    residual = p_star * h.value - p_star
    bound = cfg.bisect_tol * _select(p_star > 1.0, p_star, 1.0)
    failed = (abs(residual) > bound) | _xp(s_star).logical_not((0.0 < s_star) & (s_star < 1.0))
    if _any(failed):
        p, e, r, b, s = (_first(v, failed) for v in (p_star, E, residual, bound, s_star))
        if abs(r) > b:
            raise NoConvergence(f"fixed point p*={p} at E={e} has residual {r}, above the "
                                f"bound bisect_tol * max(1, p*) = {b}")
        edge = "raise solver.p_min above" if s >= 1.0 else "lower solver.p_max below"
        raise NoConvergence(f"fixed point p*={p} at E={e} has a share that rounds to {s}, "
                            f"where its stability cannot be classified; {edge} it")
    return (s_star, *_slope_and_class(s_star, h.dH_ds, cfg.marginal_tol))


def _fixed_point_rows(
    sched: PreferenceSchedule, spec: LearningSpec, E_array: np.ndarray, cfg: SolverConfig
) -> RootColumns:
    """``find_fixed_points`` at each level of E_array, all at once on arrays.

    ``_candidates`` runs once on all levels; the candidates in the window are
    gathered and polished together, and the re-check and classification run
    over all roots at once; the first root that fails, in column order, raises.
    """
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        shares, polish, alpha, exact = _candidates(sched, spec, E_array, cfg)
        level, slot = np.nonzero(np.stack(polish, axis=1))
        x = np.stack(shares, axis=1)[level, slot]
        p, certified = _polish(x, E_array[level], alpha[level], spec.coefficients)
        prices = np.full((len(E_array), 3), np.nan)
        prices[level, slot] = p
        exact[level[~certified]] = True
        for i in np.flatnonzero(exact).tolist():
            found = _exact_prices(E_array[i].item(), alpha[i].item(), spec, cfg)
            prices[i] = found + [np.nan] * (3 - len(found))
        window = (cfg.p_min <= prices) & (prices <= cfg.p_max)
        prices = np.sort(np.where(window, prices, np.nan), axis=1)
        found = ~np.isnan(prices)  # NaN sorts last: each row's roots come first, ascending
        level = np.nonzero(found)[0]
        p_star = prices[found]
        return RootColumns(level, p_star, *_recheck(sched, spec, E_array[level], p_star, cfg))
