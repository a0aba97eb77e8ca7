"""Fixed points of the relative-price map as roots of one cubic, and local
stability classification.

With s = S(p; E), the fixed-point condition T(p; E) = p reads
g_H(s, E) = g_L(1 - s), a cubic in s whose constant term alone depends on E.
Its real roots come in closed form: the trigonometric form for three real
roots, Cardano's for one, the quadratic or linear formula for lower degrees.
One Newton step from them on the exact gap in double-double arithmetic
(``_locus._newton_dd``), then p = alpha(1-s)/((1-alpha)s) in double-double
(``_price``), make each p* the correctly rounded double of the exact root of
the model as the package specifies it: float parameters and the float
alpha_of(E). An error bound certifies each rounding. A level that holds a root
it cannot certify (next to a saddle-node), or whose root count the rounded
discriminant cannot decide, takes its shares from the locus's one roots
routine, ``_locus._roots``, and rounds a price ``_price`` cannot certify by
exact bisection; any p_max up to inf is accepted. The correctly rounded root
is unique, so every path gives the same bits.

Every rule of a level is written once, in ``_candidates``. Like the polish
and the re-check, it uses only arithmetic operators and the float-or-array
helpers of ``_np``, so ``find_fixed_points`` runs it on one level's Python
floats and ``_fixed_point_rows`` on a sweep's arrays, keeping the roots as
columns. Both polish the candidates, solve flagged levels exactly, keep the
roots in [p_min, p_max], and have ``_recheck`` re-check and classify them
through T'(p*) = 1 - s*(1-s*) * dH/ds.
"""

from __future__ import annotations

import math
from collections import namedtuple
from enum import Enum

from ._locus import (_U, _bisect, _dd_div, _dd_mul, _dd_scale, _exact_gap, _fraction, _gap,
                     _gap_sizes, _newton_dd, _real_roots, _roots, _rounds, _sign, _two_sum)
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


# ---------------------------------------------------------------- polish


def _price(y_hi, y_lo, s_err, alpha):
    """p = alpha(1-s)/((1-alpha)s) in double-double for the share s within s_err
    of y_hi + y_lo: (p, certified), certified where every value within the
    propagated error bound rounds to the same double."""
    t = _two_sum(1.0, -y_hi)  # 1 - s
    t = (t[0], t[1] - y_lo)
    p_hi, p_lo = _dd_div(_dd_scale(t, alpha), _dd_mul((y_hi, y_lo), _two_sum(1.0, -alpha)))
    # dp/p = -ds/(s(1-s)); the relative error stays below twice its first
    # order while that is below 1/4. Forming 1 - s rounds away up to
    # u^2 * s, which counts as an error in s.
    weight = abs(y_hi * t[0])
    rel = (s_err + 2.0 * _U * _U * abs(y_hi)) / _select(weight > 0.0, weight, math.nan)
    p_err = abs(p_hi) * (2.0 * rel + 64.0 * _U * _U)
    return p_hi, (rel < 0.25) & _rounds(p_hi, p_lo, 2.0 * p_err)


def _polish(x, E, alpha, coefficients):
    """Correctly rounded p* from the share estimates x: (p*, certified), one
    ``_newton_dd`` step on the gap and then ``_price``."""
    return _price(*_newton_dd(x, _gap(coefficients, E)), alpha)


# ---------------------------------------------------------------- exact fallback


def _exact_prices(E, alpha, spec: LearningSpec):
    """The correctly rounded prices of one level's roots in (0, 1), ascending, up
    to the largest double; the caller keeps those in [p_min, p_max].

    ``_roots`` gives the gap's roots in share, on its exact sign where doubles
    cannot decide it, and ``_price`` their prices. Where ``_price`` cannot
    certify a rounding, ``_bisect`` rounds the price between the prices of the
    share's bounds, capped at the largest double; a root past it is left out.
    """
    a, largest = _fraction(alpha), _fraction(math.nextafter(math.inf, 0.0))
    gap = _exact_gap(spec.coefficients, E)

    def sign(s):  # of the gap at the share s
        return _sign(_horner(gap, s))

    def sign_price(p):
        return sign(a / (a + (1 - a) * p))

    prices = []
    for s, s_lo, err in _roots(_gap(spec.coefficients, E), sign):
        p, certified = _price(s, s_lo, err, alpha)
        if not certified:
            mid, err = _fraction(s) + _fraction(s_lo), _fraction(err)
            lo, hi = (min(a * (1 - x) / ((1 - a) * x), largest) if x > 0 else largest
                      for x in (min(mid + err, 1), mid - err))
            if sign_price(lo) * sign_price(hi) > 0:  # the price passes the largest double
                continue
            p = _bisect(sign_price, lo, hi)
        prices.append(p)
    return sorted(prices)


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
        prices = _exact_prices(E, alpha, spec)
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
            found = _exact_prices(E_array[i].item(), alpha[i].item(), spec)
            prices[i] = found + [np.nan] * (3 - len(found))
        window = (cfg.p_min <= prices) & (prices <= cfg.p_max)
        prices = np.sort(np.where(window, prices, np.nan), axis=1)
        found = ~np.isnan(prices)  # NaN sorts last: each row's roots come first, ascending
        level = np.nonzero(found)[0]
        p_star = prices[found]
        return RootColumns(level, p_star, *_recheck(sched, spec, E_array[level], p_star, cfg))
