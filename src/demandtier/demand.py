"""Education-shifted Stone-Geary preferences and closed-form household demand.

The household splits income between a low-tier good L (the numeraire in
quantitative work) and a high-tier good H. Utility is Cobb-Douglas over
consumption in excess of subsistence thresholds, with the high-tier weight
``alpha`` rising in education and the low-tier threshold ``gamma_L`` falling
in it. Everything here is closed-form; operations are pure functions and
safe to call concurrently. The schedule formulas take one education level or
an array of them and work elementwise; a scalar level gives a Python float.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

from ._np import _any, _first, _libm, _select, _xp, np
from .errors import ConfigError, NonInteriorBudget
from .scenario import PreferenceSchedule  # noqa: F401 - re-exported


@dataclass(frozen=True)
class HouseholdBudget:
    """Period income and goods prices faced by the household."""

    income: float
    price_H: float
    price_L: float = 1.0

    def __post_init__(self):
        if self.income <= 0.0:
            raise ConfigError(f"income must be > 0, got {self.income}")
        if self.price_L <= 0.0:
            raise ConfigError(f"price_L must be > 0, got {self.price_L}")
        if self.price_H <= 0.0:
            raise ConfigError(f"price_H must be > 0, got {self.price_H}")


@dataclass(frozen=True)
class DemandSolution:
    """Interior Marshallian optimum with budget shares and attained utility."""

    c_L: float
    c_H: float
    supernumerary: float
    share_H: float
    share_L: float
    utility: float


class DemandArrays(NamedTuple):
    """Marshallian demand row by row at price_L = 1 (see ``demand_arrays``).

    Every float column is NaN on rows where ``interior`` is False.
    """

    c_L: np.ndarray
    c_H: np.ndarray
    supernumerary: np.ndarray
    share_H: np.ndarray
    share_L: np.ndarray
    utility: np.ndarray
    interior: np.ndarray


class IncomeElasticities(NamedTuple):
    """Floats from ``income_elasticities``, columns from ``elasticity_arrays``."""

    eta_H: float | np.ndarray
    eta_L: float | np.ndarray


class ShareSlope(NamedTuple):
    """Derivative of the high-tier budget share in education.

    ``alpha_clipped`` flags that the weight schedule sits on a clip bound, in
    which case the preference channel contributes zero (one-sided derivative).
    """

    value: float
    alpha_clipped: bool


def alpha_of(sched: PreferenceSchedule, E: float | np.ndarray):
    """High-tier utility weight at education level E (clipped affine)."""
    raw = sched.alpha_base + sched.alpha_slope * E
    xp = _xp(E)
    alpha = xp.fmin(sched.alpha_hi, xp.fmax(sched.alpha_lo, raw))
    return alpha if isinstance(E, np.ndarray) else float(alpha)


def alpha_is_clipped(sched: PreferenceSchedule, E: float | np.ndarray):
    """True when the affine weight sits on (or beyond) a clip bound at E."""
    raw = sched.alpha_base + sched.alpha_slope * E
    return (raw <= sched.alpha_lo) | (raw >= sched.alpha_hi)


def alpha_slope_of(sched: PreferenceSchedule, E: float | np.ndarray):
    """d alpha/dE at E; zero inside clipped regions and at the kinks."""
    return _select(alpha_is_clipped(sched, E), 0.0, float(sched.alpha_slope))


def gammaL_of(sched: PreferenceSchedule, E: float | np.ndarray):
    """Low-tier subsistence threshold at education level E, which must be >= 0."""
    negative = E < 0.0
    if _any(negative):
        raise ConfigError(f"education level must be >= 0, got {_first(E, negative)}")
    return sched.gammaL_base * _libm(math.exp, -sched.gammaL_decay * E)


def gammaL_slope_of(sched: PreferenceSchedule, E: float | np.ndarray):
    """d gamma_L/dE at E (nonpositive by construction)."""
    return -sched.gammaL_decay * gammaL_of(sched, E)


def stone_geary_utility(sched: PreferenceSchedule, E: float, c_L: float, c_H: float) -> float:
    """Utility of an arbitrary feasible bundle; zero on the subsistence boundary."""
    ex_L = c_L - gammaL_of(sched, E)
    ex_H = c_H - sched.gamma_H
    if ex_L < 0.0 or ex_H < 0.0:
        raise ConfigError("bundle below subsistence: need c_L >= gamma_L(E) and c_H >= gamma_H")
    a = alpha_of(sched, E)
    return ex_L ** (1.0 - a) * ex_H ** a


def _in_units_of_L(budget: HouseholdBudget) -> tuple[float, float]:
    """Income and price_H over price_L: demand is homogeneous of degree zero in
    income and prices, so a budget is solved at price_L = 1, where this is exact."""
    return float(budget.income / budget.price_L), float(budget.price_H / budget.price_L)


def solve_demand(sched: PreferenceSchedule, budget: HouseholdBudget, E: float) -> DemandSolution:
    """Interior Marshallian demands, budget shares, and utility: the row of
    ``demand_arrays``, solved on floats in units of the low-tier good.

    B, solved in those units, is multiplied back by price_L. Raises
    NonInteriorBudget when B <= 0, i.e. the household cannot afford
    subsistence at current prices; the message states B in units of the
    low-tier good.
    """
    c_L, c_H, b, share_H, share_L, utility, _ = _demand(sched, *_in_units_of_L(budget), E, True)
    return DemandSolution(c_L, c_H, b * budget.price_L, share_H, share_L, utility)


def elasticity_arrays(
    sched: PreferenceSchedule,
    income: np.ndarray | float,
    price_H: np.ndarray | float,
    E: np.ndarray | float,
    require_interior: bool = False,
) -> tuple[DemandArrays, IncomeElasticities]:
    """``demand_arrays`` rows and the income elasticities of both goods on
    each, under the gamma_H = 0 normalization; floats alone give floats.

    eta_H = income/B = alpha/share_H and eta_L = (1-alpha)/share_L. Whenever
    gamma_L(E) > 0 the high-tier good is a luxury (eta_H > 1) and the low-tier
    good a necessity (eta_L < 1). Both are NaN on non-interior rows.
    """
    if sched.gamma_H != 0.0:
        raise ConfigError(
            f"income elasticities are derived under gamma_H = 0, got gamma_H={sched.gamma_H}"
        )
    demand = DemandArrays(*_demand(sched, income, price_H, E, require_interior))
    eta_H = income / demand.supernumerary
    # where share_L underflows to 0, floats give inf as numpy's division does
    nonzero = demand.share_L != 0.0
    eta_L = _select(nonzero, (1.0 - alpha_of(sched, E)) / _select(nonzero, demand.share_L, 1.0),
                    math.inf)
    return demand, IncomeElasticities(eta_H=eta_H, eta_L=eta_L)


def income_elasticities(
    sched: PreferenceSchedule, budget: HouseholdBudget, E: float
) -> IncomeElasticities:
    """Income elasticities of the two goods at one budget: ``elasticity_arrays``
    on floats, solved in units of the low-tier good."""
    return elasticity_arrays(sched, *_in_units_of_L(budget), E, require_interior=True)[1]


def demand_arrays(
    sched: PreferenceSchedule,
    income: np.ndarray | float,
    price_H: np.ndarray | float,
    E: np.ndarray | float,
    require_interior: bool = False,
) -> DemandArrays:
    """Marshallian demand over arrays of incomes, prices and education levels.

    The three inputs broadcast against each other, and price_L is 1; scalars
    alone give one row. Each good gets its subsistence quantity plus a fixed
    fraction of the supernumerary income B = income - gamma_L(E) -
    price_H*gamma_H: the high-tier good receives ``alpha(E)*B`` and the
    low-tier good the rest. A row whose B is <= 0 is flagged non-interior and
    its columns are NaN; with ``require_interior`` the first such row raises
    NonInteriorBudget instead. ``interior`` is ``not (B <= 0)``, so a NaN B
    stays interior. The first invalid row raises the ConfigError of
    ``HouseholdBudget`` or ``gammaL_of``.
    """
    # at least one dimension, so that scalars alone give one row, not floats
    rows = map(np.atleast_1d, (income, price_H, E))
    return DemandArrays(*_demand(sched, *rows, require_interior))


def _demand(sched: PreferenceSchedule, y, p, e, require_interior: bool) -> tuple:
    """The columns of ``demand_arrays`` and ``interior``: the one household
    formula. Floats alone give floats, without numpy."""
    if any(isinstance(x, np.ndarray) for x in (y, p, e)):
        y, p, e = np.broadcast_arrays(*(np.asarray(x, dtype=float) for x in (y, p, e)))
    invalid = (y <= 0.0) | (p <= 0.0) | (e < 0.0)
    if _any(invalid):
        # the scalar checks, in the scalar order, raise the scalar message
        HouseholdBudget(income=_first(y, invalid), price_H=_first(p, invalid))
        gammaL_of(sched, _first(e, invalid))
    xp = _xp(invalid)
    a = alpha_of(sched, e)
    g_L = gammaL_of(sched, e)
    # an infinite price times gamma_H = 0 gives a NaN B without a warning, and
    # that row stays interior
    with xp.errstate(invalid="ignore"):
        b = y - g_L - p * sched.gamma_H
    short = b <= 0.0
    if require_interior and _any(short):
        raise NonInteriorBudget(
            f"supernumerary income must be > 0 for an interior optimum, got B={_first(b, short)}"
        )
    # B <= 0 turns NaN, so that no power of a negative is taken and every
    # column of that row is NaN
    b = _select(short, math.nan, b)
    ex_L = (1.0 - a) * b
    ex_H = a * b / p
    c_L = g_L + ex_L
    c_H = sched.gamma_H + ex_H
    # share_L from c_L, not as 1 - share_H, which cancels where share_H is near 1
    return (c_L, c_H, b, p * c_H / y, c_L / y, ex_L ** (1.0 - a) * ex_H ** a,
            xp.logical_not(short))


def dshare_H_dE(sched: PreferenceSchedule, budget: HouseholdBudget, E: float) -> ShareSlope:
    """Education derivative of the high-tier budget share.

    Combines the preference channel alpha'(E)*B/Y with the subsistence channel
    -(alpha/Y)*price_L*gamma_L'(E); strictly positive whenever either channel
    is active. Inside clipped regions of the weight schedule the preference
    channel uses the one-sided derivative 0 and the result is flagged. Raises
    solve_demand's NonInteriorBudget when B <= 0.
    """
    b = solve_demand(sched, budget, E).supernumerary
    a = alpha_of(sched, E)
    preference = alpha_slope_of(sched, E) * b / budget.income
    value = preference - (a / budget.income) * budget.price_L * gammaL_slope_of(sched, E)
    return ShareSlope(value=value, alpha_clipped=alpha_is_clipped(sched, E))
