"""Sectoral learning-by-doing, the relative-price law of motion, and
forward time-path simulation.

Demand and supply close through a one-dimensional discrete-time map for the
relative price p of the high-tier good:

    p_next = T(p; E) = p * g_L(1 - s) / g_H(s, E),   s = S(p; E),

where s is the excess-quantity share of high-tier consumption and g_H, g_L
are the sectoral growth factors. Education enters twice: directly in g_H and
through the preference weight inside S. S, g_H, g_L and H take scalars or
arrays and work elementwise, with the same values either way: their integer
powers are products (``phi2*s*s*s``), which round alike on floats and arrays.
The simulation loop, ``_simulate_arrays``, and its block step inline them in
order, so each level is ``growth_factors`` times the one before, bit for bit.

Where the share comes out bit-identical period after period, the loop hands
the path to a block step that writes the levels over arrays as running
products of the growth factors and keeps them up to the first period whose
share differs. The blocks hold the loop's bits: IEEE products are
commutative, ``np.multiply.accumulate`` rounds each partial product in order,
numpy's float64 ``+ - * /`` round as Python floats do, and the recurrence
calls no libm function.
"""

from __future__ import annotations

import math
from collections import namedtuple

from ._np import _any, _first, _xp, np
from .demand import alpha_of, alpha_slope_of, demand_arrays
from .errors import (
    ConfigError,
    InvalidHorizon,
    InvalidPrice,
    InvalidState,
    NumericalOverflow,
    ShareOutOfRange,
    _require_int,
)
from .scenario import LearningSpec, LearningVariant, PreferenceSchedule  # noqa: F401 - re-exported
from .scenario import _Record


class TechnologyState(_Record):
    """Sectoral productivity levels; the wage is the numeraire and cancels."""

    a_H: float
    a_L: float
    wage: float = 1.0

    def __post_init__(self):
        if self.a_H <= 0.0:
            raise InvalidState(f"a_H must be > 0, got {self.a_H}")
        if self.a_L <= 0.0:
            raise InvalidState(f"a_L must be > 0, got {self.a_L}")
        if self.wage <= 0.0:
            raise InvalidState(f"wage must be > 0, got {self.wage}")

    @property
    def relative_price(self) -> float:
        return self.a_L / self.a_H


class TimePath(_Record):
    """Simulated series, one row per period.

    Household columns are NaN with ``interior[t] = False`` on periods where
    income cannot cover subsistence; the price dynamics do not depend on
    household interiority and continue regardless. The education and income
    inputs actually used are carried along for downstream consumers.
    """

    t: np.ndarray
    p: np.ndarray
    s_q: np.ndarray
    a_h: np.ndarray
    a_l: np.ndarray
    c_l: np.ndarray
    c_h: np.ndarray
    share_h: np.ndarray
    utility: np.ndarray
    interior: np.ndarray
    e_path: np.ndarray
    income_path: np.ndarray

    def __len__(self) -> int:
        return int(self.t.shape[0])


GrowthFactors = namedtuple("GrowthFactors", "g_H g_L")
HRatio = namedtuple("HRatio", "value dH_ds dH_dE")


def excess_share(sched: PreferenceSchedule, E: float | np.ndarray, p: float | np.ndarray):
    """Excess-quantity share of the high-tier good at relative price p.

    Equals alpha/(alpha + (1-alpha)*p): subsistence terms cancel out of the
    above-subsistence quantity ratio, so only the weight and the price remain.
    Strictly decreasing in p, nondecreasing in E.
    """
    nonpositive = p <= 0.0
    if _any(nonpositive):
        raise InvalidPrice(f"relative price must be > 0, got {_first(p, nonpositive)}")
    a = alpha_of(sched, E)
    return a / (a + (1.0 - a) * p)


def excess_share_slope_E(sched: PreferenceSchedule, E: float | np.ndarray, p: float | np.ndarray):
    """dS/dE at (p, E): alpha'(E) * s(1-s) / (alpha (1-alpha))."""
    s = excess_share(sched, E, p)
    a = alpha_of(sched, E)
    return alpha_slope_of(sched, E) * s * (1.0 - s) / (a * (1.0 - a))


def growth_factors(
    spec: LearningSpec, s: float | np.ndarray, E: float | np.ndarray
) -> GrowthFactors:
    """Sectoral growth factors at share s and education E."""
    outside = _xp(s).logical_not((0.0 <= s) & (s <= 1.0))
    if _any(outside):
        raise ShareOutOfRange(f"share must be in [0, 1], got {_first(s, outside)}")
    _, _, _, chi1, chi2 = spec.coefficients
    u = 1.0 - s
    g_l = 1.0 + chi1 * u - chi2 * u * u * u
    return GrowthFactors(g_H=growth_H(spec, s, E), g_L=g_l)


def growth_H(spec: LearningSpec, s: float | np.ndarray, E: float | np.ndarray):
    """High-tier growth factor g_H(s, E) = 1 + nu*E + phi1*s - phi2*s^3, for a
    share s in [0, 1] (``growth_factors`` checks it). An overflowing nu*E gives
    inf without a warning, on arrays as on floats."""
    nu, phi1, phi2, _, _ = spec.coefficients
    with _xp(E).errstate(over="ignore", invalid="ignore"):
        return 1.0 + nu * E + phi1 * s - phi2 * s * s * s


def growth_slope_H(spec: LearningSpec, s: float | np.ndarray):
    """dg_H/ds at share s: phi1 - 3*phi2*s^2 (phi under linear learning)."""
    _, phi1, phi2, _, _ = spec.coefficients
    return phi1 - 3.0 * phi2 * (s * s)


def h_ratio(spec: LearningSpec, s: float | np.ndarray, E: float | np.ndarray) -> HRatio:
    """Growth-factor ratio H = g_L/g_H with its exact partials in s and E. An
    infinite g_H gives H = 0 and a NaN dH/ds without a warning, on arrays as on
    floats."""
    g_h, g_l = growth_factors(spec, s, E)
    nu, _, _, chi1, chi2 = spec.coefficients
    u = 1.0 - s
    gh_s = growth_slope_H(spec, s)
    gl_s = -(chi1 - 3.0 * chi2 * (u * u))
    # a finite g_H >= 2^512, whose square leaves the float range
    big = (abs(g_h) >= math.ldexp(1.0, 512)) & (abs(g_h) < math.inf)
    if _any(big):
        raise NumericalOverflow(f"g_H = {_first(g_h, big)!r} at E = {_first(E, big)!r} is too "
                                "large: its square, in dH/ds and dH/dE, overflows")
    with _xp(g_h).errstate(over="ignore", invalid="ignore"):
        gh_sq = g_h * g_h
        value = g_l / g_h
        d_ds = (gl_s * g_h - g_l * gh_s) / gh_sq
        d_de = -nu * g_l / gh_sq
    return HRatio(value=value, dH_ds=d_ds, dH_dE=d_de)


def gap_coefficients(coefficients: tuple, E) -> tuple:
    """Coefficients, highest power first, of g_H(s, E) - g_L(1 - s) in s.

    The fixed points of the price map are this cubic's roots in (0, 1); only the
    constant term nu*E - chi1 + chi2 depends on E. The learning coefficients and
    E are floats (E may be an array) or ``Fraction`` values; linear learning
    gives leading zeros.
    """
    nu, phi1, phi2, chi1, chi2 = coefficients
    return -(phi2 + chi2), 3 * chi2, phi1 + chi1 - 3 * chi2, nu * E - chi1 + chi2


def _horner(coefficients, x):
    """c[0]*x^n + ... + c[n] for the coefficients c by Horner's rule: floats, arrays or
    ``Fraction`` values."""
    value, *rest = coefficients
    for c in rest:
        value = value * x + c
    return value


def price_map(sched: PreferenceSchedule, spec: LearningSpec, p: float, E: float) -> float:
    """One step of the relative-price map, p_next = p * H(S(p; E), E)."""
    s = excess_share(sched, E, p)
    g = growth_factors(spec, s, E)
    return p * g.g_L / g.g_H


def _is_scalar(path, horizon: int, key: str) -> bool:
    """Whether ``path`` is one value; a sequence or array of them must hold at
    least ``horizon``. Builds no array."""
    try:
        entries = len(path)
    except TypeError:  # a number, or an array of no dimension
        return True
    if entries < horizon:
        raise InvalidHorizon(
            f"key '{key}' in section 'simulation' has {entries} entries, "
            f"fewer than the {horizon} periods to simulate"
        )
    return False


def _reject_entry(rule: str, path: np.ndarray, bad: np.ndarray, key: str) -> None:
    """Raise ConfigError at the first entry of ``path`` that ``bad`` flags, if
    any, naming its value, scenario key and period."""
    if bad.any():
        t = np.argmax(bad).item()
        raise ConfigError(f"{rule}, got {path[t].item()}: key '{key}' in section "
                          f"'simulation', period {t}")


def _broadcast(path, horizon: int, scalar: bool) -> np.ndarray:
    if scalar:
        return np.full(horizon, float(path))
    return np.asarray(path, dtype=float)[:horizon].copy()


# The block step of _simulate_arrays: the shares that must come out bit-identical
# in a row before it is tried, the length of its first block, and the cap of the
# doubling lengths of the blocks that follow while the share holds.
_RUN = 16
_BLOCK = 256
_BLOCK_CAP = 4096


def _simulate_arrays(spec: LearningSpec, a_H0: float, a_L0: float, alpha: np.ndarray,
                     E: np.ndarray):
    """Iterate the sectoral productivity pair forward, one period per entry of E.

    Returns per-period arrays (p, s, a_H, a_L): the relative price is the
    productivity ratio a_L/a_H, the excess-quantity share follows from it, and
    both productivities advance by their growth factors. ``alpha`` is
    ``alpha_of(E)``. The loop runs on Python floats, which round exactly as
    numpy float64 does but cost far less per operation, and stores the levels
    straight into the float64 arrays it returns; ``p`` and ``s`` are formed
    after it, over arrays, by the same operations. Its per-period inputs alpha
    and 1 + nu*E are read through memoryviews, whatever E holds.

    Once the share has come out bit-identical ``_RUN`` periods in a row, the
    loop hands the path to ``_extrapolate``, which takes blocks of periods over
    arrays while the share holds and returns the period at which the loop
    resumes. The blocks are exact: IEEE products are commutative,
    ``np.multiply.accumulate`` rounds each partial product in order, as the
    loop does, numpy's float64 ``+ - * /`` round as Python floats do, and the
    recurrence calls no libm function. A path whose share never holds pays
    only the comparison of each share with the one before.
    """
    nu, phi1, phi2, chi1, chi2 = spec.coefficients
    horizon = len(E)
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        inputs = (alpha, 1.0 + nu * E)
        levels = np.empty(horizon), np.empty(horizon)
        a_h_out, a_l_out = map(memoryview, levels)
        a_h, a_l = float(a_H0), float(a_L0)
        start = 0
        while start < horizon:
            held = math.nan
            periods = (memoryview(x)[start:] for x in inputs)
            for t, al, base in zip(range(start, horizon), *periods):
                a_h_out[t] = a_h
                a_l_out[t] = a_l
                try:
                    pt = a_l / a_h
                except ZeroDivisionError:  # a_H underflowed to 0: the IEEE quotient
                    pt = math.inf if a_l > 0.0 else math.nan
                st = al / (al + (1.0 - al) * pt)
                u = 1.0 - st
                a_h = (base + phi1 * st - phi2 * st * st * st) * a_h
                a_l = (1.0 + chi1 * u - chi2 * u * u * u) * a_l
                if st != held:  # NaN never holds
                    held, since = st, t
                elif t - since >= _RUN:
                    break
            else:
                break
            start, a_h, a_l = _extrapolate(spec, levels, inputs, t + 1, a_h, a_l, held)
        a_h_arr, a_l_arr = levels
        p = a_l_arr / a_h_arr
        return p, alpha / (alpha + (1.0 - alpha) * p), a_h_arr, a_l_arr


def _extrapolate(spec: LearningSpec, levels: tuple, inputs: tuple, start: int, a_h: float,
                 a_l: float, share: float) -> tuple:
    """Carry the levels of ``_simulate_arrays`` forward over arrays from period
    ``start``, whose levels are a_h and a_l, while each period's share is
    ``share``, the share of the period before.

    The growth factors then depend on the period through 1 + nu*E alone, so a
    block of levels is their running product, ``np.multiply.accumulate``. The
    block's shares are formed from its levels by the loop's own operations, and
    every level up to the first period whose share differs is exact by
    induction. NaN, an infinite level and an a_H that underflowed to 0 all end
    a block there. ``inputs`` holds the arrays alpha and 1 + nu*E.
    Returns the period at which the loop resumes, with its two levels; blocks
    double from ``_BLOCK`` periods up to ``_BLOCK_CAP`` while the share holds.
    """
    _, phi1, phi2, chi1, chi2 = spec.coefficients
    u = 1.0 - share
    g_l = 1.0 + chi1 * u - chi2 * u * u * u
    horizon, size = len(levels[0]), _BLOCK
    while start < horizon:
        stop = min(start + size, horizon)
        al, base = (x[start:stop] for x in inputs)
        block_h, block_l = (x[start:stop] for x in levels)
        block_h[1:] = base[:-1] + phi1 * share - phi2 * share * share * share
        block_l[1:] = g_l
        for block, level in ((block_h, a_h), (block_l, a_l)):
            block[0] = level
            np.multiply.accumulate(block, out=block)
        moved = al / (al + (1.0 - al) * (block_l / block_h)) != share
        k = moved.argmax().item()
        if moved[k]:
            return start + k, block_h.item(k), block_l.item(k)
        # the last period's share holds too: the next block goes on from it
        start, a_h, a_l = stop - 1, block_h.item(-1), block_l.item(-1)
        if stop == horizon:
            break
        size = min(2 * size, _BLOCK_CAP)
    return horizon, a_h, a_l


def simulate_path(
    sched: PreferenceSchedule,
    spec: LearningSpec,
    initial: TechnologyState,
    e_path: float | Sequence[float],
    income_path: float | Sequence[float],
    horizon: int,
) -> TimePath:
    """Simulate prices, productivities, and household outcomes forward.

    Per period: the relative price is the productivity ratio a_L/a_H exactly,
    the excess-quantity share follows from it, both productivities advance by
    their growth factors, and household quantities come from the demand system
    at (price_L = 1, price_H = p). Education and income inputs may be scalars
    (broadcast) or sequences of length >= horizon; errors name them by their
    scenario keys, ``E`` and ``income`` in section ``simulation``, and a list's
    first failing entry by its period, all before the recurrence runs. The
    checks on scalars and lengths build no array; a negative scalar E, which
    may be a ``--E`` override, is named by its value alone. A relative price
    a_L/a_H that leaves the positive floats at period 0, or a finite price too
    small for c_H to stay finite, raises NumericalOverflow naming the period.
    """
    _require_int("horizon", horizon, 1, InvalidHorizon)
    scalar_e = _is_scalar(e_path, horizon, "E")
    scalar_y = _is_scalar(income_path, horizon, "income")
    if scalar_e and e_path < 0.0:
        raise ConfigError(f"education level must be >= 0, got {float(e_path)}")
    if scalar_y and income_path <= 0.0:
        raise ConfigError(f"income must be > 0, got {float(income_path)}: key 'income' in "
                          "section 'simulation'")
    p0 = initial.relative_price
    if not 0.0 < p0 < math.inf:
        raise NumericalOverflow(
            f"the relative price a_L0/a_H0 {'overflows' if p0 else 'underflows to 0'} at "
            f"period 0: keys 'a_L0' = {initial.a_L!r} and 'a_H0' = {initial.a_H!r} in "
            "section 'simulation' are too far apart"
        )
    e_arr = _broadcast(e_path, horizon, scalar_e)
    y_arr = _broadcast(income_path, horizon, scalar_y)
    _reject_entry("education level must be >= 0", e_arr, e_arr < 0.0, "E")
    _reject_entry("income must be > 0", y_arr, y_arr <= 0.0, "income")

    p, s, a_h, a_l = _simulate_arrays(spec, initial.a_H, initial.a_L, alpha_of(sched, e_arr),
                                      e_arr)
    with np.errstate(over="ignore"):  # an overflowing c_H raises below
        demand = demand_arrays(sched, y_arr, p, e_arr)
    # c_H = alpha*B/p: a finite, positive p too small for the income
    overflow = np.isinf(demand.c_H) & (p > 0.0) & (p < math.inf)
    if overflow.any():
        t = np.argmax(overflow).item()
        raise NumericalOverflow(
            f"c_H overflows at period {t}: the relative price p = {p[t].item()!r} is too "
            f"small for income {y_arr[t].item()!r}"
        )

    return TimePath(
        t=np.arange(horizon),
        p=p,
        s_q=s,
        a_h=a_h,
        a_l=a_l,
        c_l=demand.c_L,
        c_h=demand.c_H,
        share_h=demand.share_H,
        utility=demand.utility,
        interior=demand.interior,
        e_path=e_arr,
        income_path=y_arr,
    )
