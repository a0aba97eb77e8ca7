"""Social-planner education diagnostics over a finite horizon.

The planner discounts period utilities, pays a resource cost kappa(E) for
education, and internalizes that the high-tier productivity grows with the
excess-quantity share (linear learning only). Along a given simulated path
this module evaluates, period by period, the three terms of the education
first-order condition:

    preference term   dU/dE at the optimal bundle,
    spillover term    eta * (phi * dS/dE + nu) * A_H,
    shadow cost       lambda * kappa'(E),

plus their residual ("wedge"). The costate eta follows a backward recursion
obtained by differentiating the Lagrangian in next-period high-tier
productivity, with the price channel p = A_L/A_H sent through the demand
system via Roy's identity; the terminal costate is zero. A positive wedge
means the evaluated path underprovides education relative to the planner's
margin.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .demand import (
    PreferenceSchedule,
    alpha_of,
    alpha_slope_of,
    demand_arrays,
    gammaL_slope_of,
)
from .dynamics import LearningSpec, LearningVariant, TimePath, excess_share_slope_E
from .errors import ConfigError, InvalidHorizon, SpecVariantUnsupported, _require_int


@dataclass(frozen=True)
class PlannerConfig:
    """Discount factor, horizon, and the education cost kappa(E) = scale*E^curv."""

    beta: float = 0.95
    horizon: int = 3
    kappa_scale: float = 0.05
    kappa_curv: float = 2.0

    def __post_init__(self):
        if not 0.0 < self.beta < 1.0:
            raise ConfigError(f"beta must be in (0, 1), got {self.beta}")
        _require_int("horizon", self.horizon, 1)
        if self.kappa_scale <= 0.0:
            raise ConfigError(f"kappa_scale must be > 0, got {self.kappa_scale}")
        if self.kappa_curv < 1.0:
            raise ConfigError(f"kappa_curv must be >= 1, got {self.kappa_curv}")


@dataclass
class FocReport:
    """Per-period first-order-condition terms; wedge = pref + spill - shadow."""

    t: np.ndarray
    preference_term: np.ndarray
    spillover_term: np.ndarray
    shadow_cost: np.ndarray
    wedge: np.ndarray
    lambda_t: np.ndarray
    eta_t: np.ndarray

    def __len__(self) -> int:
        return int(self.t.shape[0])


def kappa(cfg: PlannerConfig, E: float) -> float:
    return cfg.kappa_scale * E**cfg.kappa_curv


def kappa_prime(cfg: PlannerConfig, E: float) -> float:
    return cfg.kappa_scale * cfg.kappa_curv * E ** (cfg.kappa_curv - 1.0)


def evaluate_foc(
    sched: PreferenceSchedule,
    spec: LearningSpec,
    cfg: PlannerConfig,
    path: TimePath,
) -> FocReport:
    """Education FOC terms along the first ``cfg.horizon`` periods of a path.

    Bundles are re-solved at the net income Y - kappa(E) so the resource
    constraint holds as the planner writes it; the low-tier productivity path
    is taken as exogenous data. Requires linear learning and an interior
    optimum every period.
    """
    if spec.variant is not LearningVariant.LINEAR:
        raise SpecVariantUnsupported(
            "the planner first-order condition is stated for linear learning"
        )
    horizon = cfg.horizon
    if len(path) < horizon:
        raise InvalidHorizon(
            f"path has {len(path)} rows but the planner horizon is {horizon}"
        )
    nu, phi = spec.nu, spec.phi

    e = path.e_path[:horizon]
    y = path.income_path[:horizon]
    p = path.p[:horizon]
    s = path.s_q[:horizon]
    a_h = path.a_h[:horizon]

    net = y - kappa(cfg, e)
    short = np.flatnonzero(net <= 0.0)
    ok = int(short[0]) if short.size else horizon
    # periods before the first unaffordable one, so that the first failing
    # period raises whichever error it hits first
    demand = demand_arrays(sched, net[:ok], p[:ok], e[:ok], require_interior=True)
    if ok < horizon:
        raise ConfigError(
            f"income {y[ok]} cannot cover the education cost {kappa(cfg, e[ok])} at t={ok}"
        )

    a = alpha_of(sched, e)
    a_slope = alpha_slope_of(sched, e)
    lam = demand.utility / demand.supernumerary
    ex_l = (1.0 - a) * demand.supernumerary  # above-subsistence quantities, price_L = 1
    ex_h = demand.c_H - sched.gamma_H
    gl_slope = gammaL_slope_of(sched, e)
    pref = demand.utility * (a_slope * np.log(ex_h / ex_l) - (1.0 - a) * gl_slope / ex_l)
    ds_de = excess_share_slope_E(sched, e, p)

    # costate recursion backward from eta = 0 at the horizon, on Python floats
    s_next = s[1:]
    push = (lam[1:] * p[1:] * demand.c_H[1:] / a_h[1:]).tolist()
    carry = (1.0 + nu * e[1:] + phi * s_next + phi * s_next * (1.0 - s_next)).tolist()
    eta_list = [0.0] * horizon
    for t in range(horizon - 2, -1, -1):
        eta_list[t] = cfg.beta * (push[t] + eta_list[t + 1] * carry[t])
    eta = np.array(eta_list)

    spill = eta * (phi * ds_de + nu) * a_h
    shadow = lam * kappa_prime(cfg, e)
    wedge = pref + spill - shadow
    return FocReport(
        t=np.arange(horizon),
        preference_term=pref,
        spillover_term=spill,
        shadow_cost=shadow,
        wedge=wedge,
        lambda_t=lam,
        eta_t=eta,
    )


def education_wedge_sign(report: FocReport) -> np.ndarray:
    """True per period where the wedge is positive, i.e. the planner would
    raise education relative to the evaluated path."""
    return report.wedge > 0.0
