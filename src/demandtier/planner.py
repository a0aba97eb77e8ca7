"""Social-planner education diagnostics over a finite horizon.

The planner discounts period utilities, pays a resource cost kappa(E) for
education, and internalizes that the high-tier productivity grows by
g_H(s, E) in education and the excess-quantity share s. Along a given
simulated path this module evaluates, period by period, the three terms of
the education first-order condition:

    preference term   dU/dE at the optimal bundle,
    spillover term    eta * (g_H,s * dS/dE + nu) * A_H,   g_H,s = dg_H/ds,
    shadow cost       lambda * kappa'(E),

plus their residual ("wedge"). The costate eta follows a backward recursion
obtained by differentiating the Lagrangian in next-period high-tier
productivity, with the price channel p = A_L/A_H sent through the demand
system via Roy's identity and through the share, so eta carries by
g_H + g_H,s * s(1-s); the terminal costate is zero. Linear learning is the
paper's case g_H,s = phi; cubic learning is this package's extension, under
the same exogenous low-tier productivity path. A positive wedge means the
evaluated path underprovides education relative to the planner's margin.
"""

from __future__ import annotations

from dataclasses import dataclass

from ._np import np
from .demand import alpha_of, alpha_slope_of, demand_arrays, gammaL_slope_of
from .dynamics import TimePath, excess_share_slope_E, growth_H, growth_slope_H
from .errors import ConfigError, InvalidHorizon, NonInteriorBudget, NumericalOverflow
from .scenario import LearningSpec, PlannerConfig, PreferenceSchedule  # noqa: F401 - re-exported


# the CSV names of the FocReport columns after t, in order
FOC_COLUMNS = ("preference_term", "spillover_term", "shadow_cost", "wedge", "lambda", "eta")


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
    is taken as exogenous data. Either learning variant; requires an interior
    optimum every period: the first period whose income cannot cover kappa(E),
    or whose supernumerary income B at net income is <= 0, raises, naming the
    period and the scenario keys that set the failing quantity. Raises
    NumericalOverflow, naming the column and the period, where a term is not
    finite.
    """
    horizon = cfg.horizon
    if len(path) < horizon:
        raise InvalidHorizon(
            f"path has {len(path)} rows but the planner horizon is {horizon}"
        )
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
    try:
        demand = demand_arrays(sched, net[:ok], p[:ok], e[:ok], require_interior=True)
    except NonInteriorBudget as exc:
        t = int(np.argmin(demand_arrays(sched, net[:ok], p[:ok], e[:ok]).interior))
        raise NonInteriorBudget(
            f"{exc} at t={t}, at net income {net[t]}: keys 'income' and 'E' in section "
            "'simulation', 'gammaL_base', 'gammaL_decay' and 'gamma_H' in section "
            "'preferences', and 'kappa_scale' and 'kappa_curv' in section 'planner' set "
            "B = income - kappa_scale*E**kappa_curv - gamma_L(E) - price_H*gamma_H"
        ) from None
    if ok < horizon:
        raise ConfigError(
            f"income {y[ok]} cannot cover the education cost {kappa(cfg, e[ok])} at t={ok}: "
            "keys 'kappa_scale' and 'kappa_curv' in section 'planner' and key 'E' in section "
            "'simulation' set the cost kappa_scale*E**kappa_curv"
        )

    a = alpha_of(sched, e)
    a_slope = alpha_slope_of(sched, e)
    lam = demand.utility / demand.supernumerary
    ex_l = (1.0 - a) * demand.supernumerary  # above-subsistence quantities, price_L = 1
    ex_h = demand.c_H - sched.gamma_H
    gl_slope = gammaL_slope_of(sched, e)
    pref = demand.utility * (a_slope * np.log(ex_h / ex_l) - (1.0 - a) * gl_slope / ex_l)
    ds_de = excess_share_slope_E(sched, e, p)
    gh_s = growth_slope_H(spec, s)

    # costate recursion backward from eta = 0 at the horizon, on Python floats
    push = (lam[1:] * p[1:] * demand.c_H[1:] / a_h[1:]).tolist()
    carry = (growth_H(spec, s, e) + gh_s * s * (1.0 - s))[1:].tolist()
    eta_list = [0.0] * horizon
    for t in range(horizon - 2, -1, -1):
        eta_list[t] = cfg.beta * (push[t] + eta_list[t + 1] * carry[t])
    eta = np.array(eta_list)

    spill = eta * (gh_s * ds_de + spec.nu) * a_h
    shadow = lam * kappa_prime(cfg, e)
    wedge = pref + spill - shadow
    table = np.column_stack((pref, spill, shadow, wedge, lam, eta))
    bad = ~np.isfinite(table)
    if bad.any():
        t, k = divmod(int(np.argmax(bad)), len(FOC_COLUMNS))  # the first period, then column
        raise NumericalOverflow(f"planner FOC column '{FOC_COLUMNS[k]}' is {table[t, k].item()!r}"
                                f" at t={t}: the terms leave the float range along the path")
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
