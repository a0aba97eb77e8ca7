"""Education-shifted Stone-Geary preferences and closed-form household demand.

The household splits income between a low-tier good L (the numeraire in
quantitative work) and a high-tier good H. Utility is Cobb-Douglas over
consumption in excess of subsistence thresholds, with the high-tier weight
``alpha`` rising in education and the low-tier threshold ``gamma_L`` falling
in it. Everything here is closed-form; operations are pure functions and
safe to call concurrently.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import ConfigError, NonInteriorBudget


@dataclass(frozen=True)
class PreferenceSchedule:
    """Education-dependent preference parameters.

    The high-tier utility weight is the clipped affine schedule
    ``alpha(E) = clip(alpha_base + alpha_slope*E, alpha_lo, alpha_hi)``
    and the low-tier subsistence threshold decays exponentially,
    ``gamma_L(E) = gammaL_base * exp(-gammaL_decay * E)``. The high-tier
    threshold ``gamma_H`` is a constant; the baseline comparative statics
    assume ``gamma_H = 0``.
    """

    alpha_base: float = 0.78
    alpha_slope: float = 0.16
    alpha_lo: float = 0.60
    alpha_hi: float = 0.97
    gammaL_base: float = 2.0
    gammaL_decay: float = 0.5
    gamma_H: float = 0.0

    def __post_init__(self):
        if not (0.0 < self.alpha_lo <= self.alpha_hi < 1.0):
            raise ConfigError(
                "alpha_lo/alpha_hi must satisfy 0 < alpha_lo <= alpha_hi < 1, got "
                f"alpha_lo={self.alpha_lo}, alpha_hi={self.alpha_hi}"
            )
        if self.alpha_slope < 0.0:
            raise ConfigError(f"alpha_slope must be >= 0, got {self.alpha_slope}")
        if self.gammaL_base < 0.0:
            raise ConfigError(f"gammaL_base must be >= 0, got {self.gammaL_base}")
        if self.gammaL_decay < 0.0:
            raise ConfigError(f"gammaL_decay must be >= 0, got {self.gammaL_decay}")
        if self.gamma_H < 0.0:
            raise ConfigError(f"gamma_H must be >= 0, got {self.gamma_H}")


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
    utility: np.ndarray
    interior: np.ndarray


class IncomeElasticities(NamedTuple):
    eta_H: float
    eta_L: float


class ShareSlope(NamedTuple):
    """Derivative of the high-tier budget share in education.

    ``alpha_clipped`` flags that the weight schedule sits on a clip bound, in
    which case the preference channel contributes zero (one-sided derivative).
    """

    value: float
    alpha_clipped: bool


def alpha_of(sched: PreferenceSchedule, E: float) -> float:
    """High-tier utility weight at education level E (clipped affine)."""
    return min(sched.alpha_hi, max(sched.alpha_lo, sched.alpha_base + sched.alpha_slope * E))


def alpha_is_clipped(sched: PreferenceSchedule, E: float) -> bool:
    """True when the affine weight sits on (or beyond) a clip bound at E; elementwise on arrays."""
    raw = sched.alpha_base + sched.alpha_slope * E
    return (raw <= sched.alpha_lo) | (raw >= sched.alpha_hi)


def alpha_slope_of(sched: PreferenceSchedule, E: float) -> float:
    """d alpha/dE at E; zero inside clipped regions and at the kinks."""
    return 0.0 if alpha_is_clipped(sched, E) else sched.alpha_slope


def alpha_array(sched: PreferenceSchedule, E: np.ndarray) -> np.ndarray:
    """``alpha_of`` over an array of education levels."""
    return np.minimum(
        sched.alpha_hi, np.maximum(sched.alpha_lo, sched.alpha_base + sched.alpha_slope * E)
    )


def alpha_slope_array(sched: PreferenceSchedule, E: np.ndarray) -> np.ndarray:
    """``alpha_slope_of`` over an array of education levels."""
    return np.where(alpha_is_clipped(sched, E), 0.0, sched.alpha_slope)


def gammaL_of(sched: PreferenceSchedule, E: float) -> float:
    """Low-tier subsistence threshold at education level E."""
    if E < 0.0:
        raise ConfigError(f"education level must be >= 0, got {E}")
    return sched.gammaL_base * math.exp(-sched.gammaL_decay * E)


def gammaL_slope_of(sched: PreferenceSchedule, E: float) -> float:
    """d gamma_L/dE at E (nonpositive by construction)."""
    return -sched.gammaL_decay * gammaL_of(sched, E)


def gammaL_array(sched: PreferenceSchedule, E: np.ndarray) -> np.ndarray:
    """``gammaL_of`` over an array of education levels, which must be >= 0.

    The exponential is libm's ``math.exp``, as in the scalar form: ``np.exp``
    differs from it in the last bit on some inputs, and gamma_L decides the
    sign of B where income just covers subsistence.
    """
    x = -sched.gammaL_decay * np.asarray(E, dtype=float)
    decay = np.fromiter(map(math.exp, x.ravel().tolist()), float, x.size)
    return sched.gammaL_base * decay.reshape(x.shape)


def supernumerary_income(sched: PreferenceSchedule, budget: HouseholdBudget, E: float) -> float:
    """Income left after subsistence purchases at current prices."""
    return budget.income - budget.price_L * gammaL_of(sched, E) - budget.price_H * sched.gamma_H


def stone_geary_utility(sched: PreferenceSchedule, E: float, c_L: float, c_H: float) -> float:
    """Utility of an arbitrary feasible bundle; zero on the subsistence boundary."""
    ex_L = c_L - gammaL_of(sched, E)
    ex_H = c_H - sched.gamma_H
    if ex_L < 0.0 or ex_H < 0.0:
        raise ConfigError("bundle below subsistence: need c_L >= gamma_L(E) and c_H >= gamma_H")
    a = alpha_of(sched, E)
    return ex_L ** (1.0 - a) * ex_H ** a


def solve_demand(sched: PreferenceSchedule, budget: HouseholdBudget, E: float) -> DemandSolution:
    """Interior Marshallian demands, budget shares, and utility.

    Each good gets its subsistence quantity plus a fixed fraction of the
    supernumerary income B: the high-tier good receives ``alpha(E)*B`` and the
    low-tier good the rest. Raises NonInteriorBudget when B <= 0, i.e. the
    household cannot afford subsistence at current prices.
    """
    a = alpha_of(sched, E)
    g_L = gammaL_of(sched, E)
    b = budget.income - budget.price_L * g_L - budget.price_H * sched.gamma_H
    if b <= 0.0:
        raise NonInteriorBudget(
            f"supernumerary income must be > 0 for an interior optimum, got B={b}"
        )
    ex_L = (1.0 - a) * b / budget.price_L
    ex_H = a * b / budget.price_H
    c_L = g_L + ex_L
    c_H = sched.gamma_H + ex_H
    share_H = budget.price_H * c_H / budget.income
    share_L = 1.0 - share_H
    utility = ex_L ** (1.0 - a) * ex_H ** a
    return DemandSolution(
        c_L=c_L,
        c_H=c_H,
        supernumerary=b,
        share_H=share_H,
        share_L=share_L,
        utility=utility,
    )


def income_elasticities(
    sched: PreferenceSchedule, budget: HouseholdBudget, E: float
) -> IncomeElasticities:
    """Income elasticities of the two goods under the gamma_H = 0 normalization.

    eta_H = income/B = alpha/share_H and eta_L = (1-alpha)/share_L. Whenever
    gamma_L(E) > 0 the high-tier good is a luxury (eta_H > 1) and the low-tier
    good a necessity (eta_L < 1).
    """
    if sched.gamma_H != 0.0:
        raise ConfigError(
            f"income elasticities are derived under gamma_H = 0, got gamma_H={sched.gamma_H}"
        )
    sol = solve_demand(sched, budget, E)
    a = alpha_of(sched, E)
    eta_H = budget.income / sol.supernumerary
    eta_L = (1.0 - a) / sol.share_L
    return IncomeElasticities(eta_H=eta_H, eta_L=eta_L)


def demand_arrays(
    sched: PreferenceSchedule,
    income: np.ndarray | float,
    price_H: np.ndarray | float,
    E: np.ndarray | float,
    require_interior: bool = False,
) -> DemandArrays:
    """``solve_demand`` over arrays of incomes, prices and education levels.

    The three inputs broadcast against each other and price_L is 1. Row i
    holds what ``solve_demand(sched, HouseholdBudget(income[i], price_H[i]),
    E[i])`` returns, except that ``utility`` may differ in the last bit
    (``np.power`` in place of libm ``pow``). A row whose supernumerary income
    B is <= 0 is flagged non-interior and its columns are NaN; with
    ``require_interior`` the first such row raises NonInteriorBudget instead.
    ``interior`` is ``not (B <= 0)``, so a NaN B stays interior, as in the
    scalar form. An invalid row raises the scalar form's ConfigError for the
    first such row.
    """
    y, p, e = np.broadcast_arrays(
        np.asarray(income, dtype=float),
        np.asarray(price_H, dtype=float),
        np.asarray(E, dtype=float),
    )
    invalid = (y <= 0.0) | (p <= 0.0) | (e < 0.0)
    if invalid.any():
        i = int(np.argmax(invalid))
        # the scalar checks, in the scalar order, raise the scalar message
        HouseholdBudget(income=float(y.flat[i]), price_H=float(p.flat[i]))
        gammaL_of(sched, float(e.flat[i]))
    a = alpha_array(sched, e)
    g_L = gammaL_array(sched, e)
    # as in the scalar form's Python float arithmetic, an infinite price times
    # gamma_H = 0 gives a NaN B without a warning, and that row stays interior
    with np.errstate(invalid="ignore"):
        b = y - g_L - p * sched.gamma_H
    interior = ~(b <= 0.0)
    if require_interior and not interior.all():
        b_bad = b.flat[int(np.argmin(interior))]
        raise NonInteriorBudget(
            f"supernumerary income must be > 0 for an interior optimum, got B={b_bad}"
        )
    # non-interior rows are dropped before any power is taken
    a, b, p, y, g_L = a[interior], b[interior], p[interior], y[interior], g_L[interior]
    ex_L = (1.0 - a) * b
    ex_H = a * b / p
    c_H = sched.gamma_H + ex_H
    columns = (g_L + ex_L, c_H, b, p * c_H / y, ex_L ** (1.0 - a) * ex_H ** a)
    return DemandArrays(*(_scatter(col, interior) for col in columns), interior=interior)


def _scatter(values: np.ndarray, mask: np.ndarray) -> np.ndarray:
    out = np.full(mask.shape, np.nan)
    out[mask] = values
    return out


def dshare_H_dE(sched: PreferenceSchedule, budget: HouseholdBudget, E: float) -> ShareSlope:
    """Education derivative of the high-tier budget share.

    Combines the preference channel alpha'(E)*B/Y with the subsistence channel
    -(alpha/Y)*price_L*gamma_L'(E); strictly positive whenever either channel
    is active. Inside clipped regions of the weight schedule the preference
    channel uses the one-sided derivative 0 and the result is flagged.
    """
    b = supernumerary_income(sched, budget, E)
    if b <= 0.0:
        raise NonInteriorBudget(
            f"supernumerary income must be > 0 for an interior optimum, got B={b}"
        )
    a = alpha_of(sched, E)
    preference = alpha_slope_of(sched, E) * b / budget.income
    value = preference - (a / budget.income) * budget.price_L * gammaL_slope_of(sched, E)
    return ShareSlope(value=value, alpha_clipped=alpha_is_clipped(sched, E))
