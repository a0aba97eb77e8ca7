"""Fixed points of the relative-price map as roots of one cubic, and local
stability classification.

With s = S(p; E), the fixed-point condition T(p; E) = p reads
g_H(s, E) = g_L(1 - s), a cubic in s. Its real roots, polished by one Newton
step, map back to p = alpha(1-s)/((1-alpha)s); the roots with s in (0, 1)
and p in [p_min, p_max] are re-checked through the public map and classified
through the analytic slope T'(p*) = 1 - s*(1-s*) * dH/ds.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .demand import PreferenceSchedule, alpha_of
from .dynamics import LearningSpec, excess_share, gap_polynomial, h_ratio, price_map
from .errors import ConfigError, NoConvergence, ShareOutOfRange


class Stability(str, Enum):
    STABLE = "stable"
    UNSTABLE = "unstable"
    MARGINAL = "marginal"


@dataclass(frozen=True)
class SolverConfig:
    """Price window, residual bound and classification tolerance.

    ``bisect_tol`` bounds the re-checked residual: every root satisfies
    |T(p*) - p*| <= bisect_tol * max(1, p*).
    """

    p_min: float = 0.01
    p_max: float = 14.0
    bisect_tol: float = 1e-12
    marginal_tol: float = 1e-8

    def __post_init__(self):
        if not 0.0 < self.p_min < self.p_max:
            raise ConfigError(
                f"need 0 < p_min < p_max, got p_min={self.p_min}, p_max={self.p_max}"
            )
        for name in ("bisect_tol", "marginal_tol"):
            if getattr(self, name) <= 0.0:
                raise ConfigError(f"{name} must be > 0, got {getattr(self, name)}")


@dataclass(frozen=True)
class FixedPoint:
    """A root p* of the price map with its share, slope, and stability class."""

    p_star: float
    s_star: float
    t_prime: float
    stability: Stability


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
    t_prime = 1.0 - s_star * (1.0 - s_star) * dH_ds_at_star
    mag = abs(t_prime)
    if mag < 1.0 - marginal_tol:
        stability = Stability.STABLE
    elif mag > 1.0 + marginal_tol:
        stability = Stability.UNSTABLE
    else:
        stability = Stability.MARGINAL
    return t_prime, stability


def find_fixed_points(
    sched: PreferenceSchedule,
    spec: LearningSpec,
    E: float,
    cfg: SolverConfig | None = None,
) -> list[FixedPoint]:
    """All fixed points of T(.; E) on [p_min, p_max], ascending in p.

    An empty list is a legal result: an interior fixed point need not exist.
    Every returned root satisfies |T(p*) - p*| <= bisect_tol * max(1, p*),
    re-checked here through the public map; a root that fails the bound
    raises NoConvergence.
    """
    cfg = cfg or SolverConfig()
    alpha = alpha_of(sched, E)
    gap = gap_polynomial(spec, E)
    gap_slope = np.polyder(gap)

    p_stars: list[float] = []
    for root in np.roots(gap):
        if root.imag != 0.0:
            continue
        s = float(root.real)
        slope = float(np.polyval(gap_slope, s))
        if slope != 0.0:
            s -= float(np.polyval(gap, s)) / slope
        if 0.0 < s < 1.0:
            p = alpha * (1.0 - s) / ((1.0 - alpha) * s)
            if cfg.p_min <= p <= cfg.p_max:
                p_stars.append(p)

    out: list[FixedPoint] = []
    for p_star in sorted(p_stars):
        residual = price_map(sched, spec, p_star, E) - p_star
        bound = cfg.bisect_tol * max(1.0, p_star)
        if abs(residual) > bound:
            raise NoConvergence(
                f"fixed point p*={p_star} at E={E} has residual {residual}, above "
                f"the bound bisect_tol * max(1, p*) = {bound}"
            )
        s_star = excess_share(sched, E, p_star)
        d_ds = h_ratio(spec, s_star, E).dH_ds
        t_prime, stability = classify_stability(s_star, d_ds, cfg.marginal_tol)
        out.append(
            FixedPoint(p_star=p_star, s_star=s_star, t_prime=t_prime, stability=stability)
        )
    return out
