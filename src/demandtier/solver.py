"""Fixed points of the relative-price map as roots of one cubic, and local
stability classification.

With s = S(p; E), the fixed-point condition T(p; E) = p reads
g_H(s, E) = g_L(1 - s), a cubic in s whose constant term alone depends on E.
One stacked eigensolve of the cubic's companion matrices finds its real roots
at every requested level; polished by one Newton step, they map back to
p = alpha(1-s)/((1-alpha)s). The roots with s in (0, 1) and p in
[p_min, p_max] are re-checked and classified through the analytic slope
T'(p*) = 1 - s*(1-s*) * dH/ds all at once, by ``excess_share``, ``h_ratio``
and the stability band of ``classify_stability``, each called on arrays. The
result is a set of root columns; ``find_fixed_points`` turns one level's into
``FixedPoint`` objects.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import NamedTuple

import numpy as np

from .demand import PreferenceSchedule, alpha_of
from .dynamics import LearningSpec, excess_share, gap_polynomial, h_ratio
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


STABILITY_ORDER = tuple(Stability)  # stable, unstable, marginal


def _slope_and_class(s_star, dH_ds_at_star, marginal_tol):
    """T' and its class as an index into ``STABILITY_ORDER``, elementwise."""
    t_prime = 1.0 - s_star * (1.0 - s_star) * dH_ds_at_star
    magnitude = abs(t_prime)
    band = np.where(magnitude > 1.0 + marginal_tol, 1, 2)
    return t_prime, np.where(magnitude < 1.0 - marginal_tol, 0, band)


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


class RootColumns(NamedTuple):
    """Fixed points of many levels as columns, one entry per root, in
    (level, ascending p) order; ``stability`` indexes ``STABILITY_ORDER``."""

    level: np.ndarray
    p_star: np.ndarray
    s_star: np.ndarray
    t_prime: np.ndarray
    stability: np.ndarray

    def fixed_points(self) -> list[FixedPoint]:
        """Every root as a ``FixedPoint`` on Python floats, in column order."""
        return [
            FixedPoint(p, s, t, STABILITY_ORDER[code])
            for p, s, t, code in zip(self.p_star.tolist(), self.s_star.tolist(),
                                     self.t_prime.tolist(), self.stability.tolist())
        ]


def find_fixed_points(
    sched: PreferenceSchedule, spec: LearningSpec, E: float, cfg: SolverConfig | None = None
) -> list[FixedPoint]:
    """All fixed points of T(.; E) on [p_min, p_max], ascending in p.

    An empty list is a legal result: an interior fixed point need not exist.
    Every returned root satisfies |T(p*) - p*| <= bisect_tol * max(1, p*),
    re-checked as ``excess_share`` and ``h_ratio`` compute it; a root that
    fails the bound raises NoConvergence. E < 0 raises ConfigError.
    """
    E_array = np.array([E], dtype=float)
    return _fixed_point_rows(sched, spec, E_array, cfg or SolverConfig()).fixed_points()


@np.errstate(over="ignore", invalid="ignore")
def _fixed_point_rows(
    sched: PreferenceSchedule, spec: LearningSpec, E_array: np.ndarray, cfg: SolverConfig
) -> RootColumns:
    """``find_fixed_points`` at each level of E_array, in one batched eigensolve.

    Only the gap's constant term depends on E, so all levels share its degree
    d and their companion matrices (built as ``np.roots`` builds them) differ
    in one entry. The polish keeps ``np.polyval``'s Horner order; its leading
    step 0*s + c0 cannot change a value once a nonzero term enters. A level
    whose entry leaves float range (nu*E overflows, so g_H is infinite) has no
    root; any other non-finite value is a root outside (0, 1) and is dropped.
    The re-check and classification run over all roots at once, through
    ``excess_share``, ``h_ratio`` and the band of ``classify_stability``; the
    first root that fails, in column order, raises.
    """
    if not (E_array >= 0.0).all():
        raise ConfigError(f"education level must be >= 0, got {E_array.min()}")
    gaps = gap_polynomial(spec, E_array)
    c0, c1, c2 = head = gaps[0, :3].tolist()
    d = 3 - next((k for k, c in enumerate(head) if c != 0.0), 3)
    if d == 0:  # the gap does not depend on s: no isolated root
        empty, no_index = np.empty(0), np.empty(0, dtype=np.intp)
        return RootColumns(no_index, empty, empty, empty, no_index)
    companion = np.zeros((len(E_array), d, d))
    companion[:, 0, :] = -gaps[:, 4 - d:] / head[3 - d]
    companion.reshape(-1, d * d)[:, d::d + 1] = 1.0  # the subdiagonal
    solvable = np.isfinite(companion[:, 0, -1])
    companion[~solvable, 0, -1] = 0.0
    roots = np.linalg.eigvals(companion)

    s = np.where((roots.imag == 0.0) & solvable[:, None], roots.real, np.nan)
    value = ((c0 * s + c1) * s + c2) * s + gaps[:, 3:]
    slope = (c0 * 3.0 * s + c1 * 2.0) * s + c2
    s = s - value / np.where(slope != 0.0, slope, np.inf)  # no step at a zero slope
    s = np.where((0.0 < s) & (s < 1.0), s, np.nan)
    alpha = alpha_of(sched, E_array)[:, None]
    p = alpha * (1.0 - s) / ((1.0 - alpha) * s)
    p = np.sort(np.where((cfg.p_min <= p) & (p <= cfg.p_max), p, np.nan), axis=1)
    found = ~np.isnan(p)  # NaN sorts last: each row's roots come first, ascending

    level = np.nonzero(found)[0]
    p_star = p[found]
    E = E_array[level]
    s_star = excess_share(sched, E, p_star)
    h = h_ratio(spec, s_star, E)
    residual = p_star * h.value - p_star  # T(p*) - p*
    bound = cfg.bisect_tol * np.maximum(1.0, p_star)
    failed = (np.abs(residual) > bound) | ~((0.0 < s_star) & (s_star < 1.0))
    if failed.any():
        k = np.argmax(failed)
        if abs(residual[k]) > bound[k]:
            raise NoConvergence(
                f"fixed point p*={p_star[k].item()} at E={E[k].item()} has residual "
                f"{residual[k].item()}, above the bound bisect_tol * max(1, p*) = "
                f"{bound[k].item()}"
            )
        classify_stability(s_star[k].item(), h.dH_ds[k].item())  # its share check raises
    t_prime, stability = _slope_and_class(s_star, h.dH_ds, cfg.marginal_tol)
    return RootColumns(level, p_star, s_star, t_prime, stability)
