"""Sectoral learning-by-doing, the relative-price law of motion, and
forward time-path simulation.

Demand and supply close through a one-dimensional discrete-time map for the
relative price p of the high-tier good:

    p_next = T(p; E) = p * g_L(1 - s) / g_H(s, E),   s = S(p; E),

where s is the excess-quantity share of high-tier consumption and g_H, g_L
are the sectoral growth factors. Education enters twice: directly in g_H and
through the preference weight inside S. S, g_H, g_L and H take scalars or
arrays and work elementwise, with the same values either way.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from typing import NamedTuple, Sequence

import numpy as np

from . import _kernels
from .demand import (
    PreferenceSchedule,
    _first,
    _libm,
    alpha_of,
    alpha_slope_of,
    demand_arrays,
)
from .errors import (
    ConfigError,
    InvalidHorizon,
    InvalidPrice,
    InvalidState,
    ShareOutOfRange,
    _require_int,
)


class LearningVariant(str, Enum):
    LINEAR = "linear"
    CUBIC = "cubic"


def _cubic_min_on_unit(a: float, b: float) -> float:
    """Minimum of 1 + a*x - b*x^3 over x in [0, 1]."""
    candidates = [0.0, 1.0]
    if b != 0.0 and a / (3.0 * b) > 0.0:
        x = math.sqrt(a / (3.0 * b))
        if 0.0 < x < 1.0:
            candidates.append(x)
    return min(1.0 + a * x - b * x**3 for x in candidates)


@dataclass(frozen=True)
class LearningSpec:
    """Sectoral growth-factor functions and their coefficients.

    Linear variant:  g_H = 1 + nu*E + phi*s,            g_L = 1 + chi*(1-s)
    Cubic variant:   g_H = 1 + nu*E + phi1*s - phi2*s^3,
                     g_L = 1 + chi1*(1-s) - chi2*(1-s)^3

    Construction rejects inactive or sign-violating learning channels and, for
    the cubic variant, any configuration whose growth factor can reach zero on
    s in [0, 1] (checked at E = 0; education only raises g_H). ``validate``
    exists solely for diagnostic constructions that deliberately switch
    channels off; it does not participate in equality comparisons.

    The field defaults are the headline calibration, so ``LearningSpec()`` is
    the default scenario's spec. ``variant`` may be given as its string value
    and is stored as the ``LearningVariant`` member; any other value raises
    ConfigError, also with ``validate=False``. Both variants' coefficients are
    fields: the inactive variant's are kept as given, neither checked nor used.
    """

    variant: LearningVariant = LearningVariant.CUBIC
    nu: float = 0.6
    phi: float = 0.8
    chi: float = 1.2
    phi1: float = 0.8
    phi2: float = 1.0
    chi1: float = 1.2
    chi2: float = 1.5
    validate: bool = field(default=True, repr=False, compare=False)

    def __post_init__(self):
        try:
            object.__setattr__(self, "variant", LearningVariant(self.variant))
        except ValueError:
            choices = " or ".join(repr(v.value) for v in LearningVariant)
            raise ConfigError(f"variant must be {choices}, got {self.variant!r}") from None
        if not self.validate:
            return
        if self.nu <= 0.0:
            raise ConfigError(f"nu must be > 0, got {self.nu}")
        if self.variant is LearningVariant.LINEAR:
            if self.phi <= 0.0:
                raise ConfigError(f"phi must be > 0 for linear learning, got {self.phi}")
            if self.chi <= 0.0:
                raise ConfigError(f"chi must be > 0 for linear learning, got {self.chi}")
        else:
            if self.phi1 == self.phi2 == self.chi1 == self.chi2 == 0.0:
                raise ConfigError("cubic learning with all scale coefficients zero is degenerate")
            min_gh = _cubic_min_on_unit(self.phi1, self.phi2)
            if min_gh <= 0.0:
                raise ConfigError(
                    f"phi1/phi2 let g_H reach {min_gh} on s in [0,1]; must stay > 0"
                )
            min_gl = _cubic_min_on_unit(self.chi1, self.chi2)
            if min_gl <= 0.0:
                raise ConfigError(
                    f"chi1/chi2 let g_L reach {min_gl} on s in [0,1]; must stay > 0"
                )

    @classmethod
    def linear(cls, nu: float, phi: float, chi: float, validate: bool = True) -> "LearningSpec":
        return cls(variant=LearningVariant.LINEAR, nu=nu, phi=phi, chi=chi, validate=validate)

    @classmethod
    def cubic(
        cls, nu: float, phi1: float, phi2: float, chi1: float, chi2: float,
        validate: bool = True,
    ) -> "LearningSpec":
        return cls(
            variant=LearningVariant.CUBIC,
            nu=nu, phi1=phi1, phi2=phi2, chi1=chi1, chi2=chi2,
            validate=validate,
        )

    @property
    def coefficients(self) -> tuple[float, float, float, float, float]:
        """Unified (nu, phi1, phi2, chi1, chi2); linear maps to zero cubic terms."""
        if self.variant is LearningVariant.LINEAR:
            return (self.nu, self.phi, 0.0, self.chi, 0.0)
        return (self.nu, self.phi1, self.phi2, self.chi1, self.chi2)


@dataclass(frozen=True)
class TechnologyState:
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


@dataclass
class TimePath:
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


class GrowthFactors(NamedTuple):
    g_H: float
    g_L: float


class HRatio(NamedTuple):
    value: float
    dH_ds: float
    dH_dE: float


def excess_share(sched: PreferenceSchedule, E: float | np.ndarray, p: float | np.ndarray):
    """Excess-quantity share of the high-tier good at relative price p.

    Equals alpha/(alpha + (1-alpha)*p): subsistence terms cancel out of the
    above-subsistence quantity ratio, so only the weight and the price remain.
    Strictly decreasing in p, nondecreasing in E.
    """
    nonpositive = p <= 0.0
    if np.count_nonzero(nonpositive):
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
    outside = np.logical_not((0.0 <= s) & (s <= 1.0))
    if np.count_nonzero(outside):
        raise ShareOutOfRange(f"share must be in [0, 1], got {_first(s, outside)}")
    nu, phi1, phi2, chi1, chi2 = spec.coefficients
    u = 1.0 - s
    g_h = 1.0 + nu * E + phi1 * s - phi2 * _libm(pow, s, 3.0)
    g_l = 1.0 + chi1 * u - chi2 * _libm(pow, u, 3.0)
    return GrowthFactors(g_H=g_h, g_L=g_l)


def h_ratio(spec: LearningSpec, s: float | np.ndarray, E: float | np.ndarray) -> HRatio:
    """Growth-factor ratio H = g_L/g_H with its exact partials in s and E."""
    g_h, g_l = growth_factors(spec, s, E)
    nu, phi1, phi2, chi1, chi2 = spec.coefficients
    u = 1.0 - s
    gh_s = phi1 - 3.0 * phi2 * _libm(pow, s, 2.0)
    gl_s = -(chi1 - 3.0 * chi2 * _libm(pow, u, 2.0))
    gh_sq = _libm(pow, g_h, 2.0)
    value = g_l / g_h
    d_ds = (gl_s * g_h - g_l * gh_s) / gh_sq
    d_de = -nu * g_l / gh_sq
    return HRatio(value=value, dH_ds=d_ds, dH_dE=d_de)


def gap_polynomial(spec: LearningSpec, E: float | np.ndarray) -> np.ndarray:
    """Coefficients, highest power first, of g_H(s, E) - g_L(1 - s) in s.

    The fixed points of the price map are this cubic's roots in (0, 1); only
    the constant term nu*E - chi1 + chi2 depends on E. Linear learning gives
    leading zeros. For an array of levels E the last axis holds each level's
    four coefficients.
    """
    nu, phi1, phi2, chi1, chi2 = spec.coefficients
    E = np.asarray(E, dtype=float)
    gap = np.empty(E.shape + (4,))
    gap[..., :3] = (-(phi2 + chi2), 3.0 * chi2, phi1 + chi1 - 3.0 * chi2)
    gap[..., 3] = nu * E - chi1 + chi2
    return gap


def price_map(sched: PreferenceSchedule, spec: LearningSpec, p: float, E: float) -> float:
    """One step of the relative-price map, p_next = p * H(S(p; E), E)."""
    s = excess_share(sched, E, p)
    g = growth_factors(spec, s, E)
    return p * g.g_L / g.g_H


def _broadcast(path, horizon: int, key: str) -> np.ndarray:
    if np.ndim(path) == 0:
        return np.full(horizon, float(path))
    arr = np.asarray(path, dtype=float)
    if arr.shape[0] < horizon:
        raise InvalidHorizon(
            f"key '{key}' in section 'simulation' has {arr.shape[0]} entries, "
            f"fewer than the {horizon} periods to simulate"
        )
    return arr[:horizon].copy()


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
    scenario keys, ``E`` and ``income`` in section ``simulation``.
    """
    _require_int("horizon", horizon, 1, InvalidHorizon)
    e_arr = _broadcast(e_path, horizon, "E")
    y_arr = _broadcast(income_path, horizon, "income")
    if np.any(e_arr < 0.0):
        raise ConfigError(f"education level must be >= 0, got {float(e_arr[e_arr < 0.0][0])}")

    nu, phi1, phi2, chi1, chi2 = spec.coefficients
    p, s, a_h, a_l = _kernels.simulate_arrays(
        initial.a_H, initial.a_L, alpha_of(sched, e_arr), e_arr,
        nu, phi1, phi2, chi1, chi2, horizon,
    )
    demand = demand_arrays(sched, y_arr, p, e_arr)

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
