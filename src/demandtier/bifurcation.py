"""Education sweeps, root-locus diagrams, closed-form saddle-node thresholds,
and the education-channel decomposition of the price map.

Sweeping an education grid and counting fixed points per level localizes
parameter intervals where the root count changes. The whole grid is solved,
re-checked and classified in one batch; the diagram keeps the roots as
columns and builds per-level rows only when asked for them. A genuine
saddle-node is a double root of the fixed-point cubic, so its share solves a
quadratic and its education level follows in closed form; a transition with
no saddle-node in its bracket comes from a root crossing the price window and
is kept as a flagged transition instead of a threshold.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

from ._np import np
from .demand import PreferenceSchedule
from .dynamics import (
    LearningSpec, excess_share, excess_share_slope_E, gap_coefficients, h_ratio,
)
from .errors import ConfigError, DegenerateChannel, NoConvergence, _require_int
from .solver import FixedPoint, RootColumns, SolverConfig, _critical_shares, _fixed_point_rows


@dataclass(frozen=True)
class SweepConfig:
    """Education grid and the residual tolerance for saddle-node thresholds."""

    E_min: float = 0.05
    E_max: float = 0.45
    E_points: int = 81
    refine_tol: float = 1e-8

    def __post_init__(self):
        if not 0.0 <= self.E_min < self.E_max:
            raise ConfigError(f"need 0 <= E_min < E_max, got E_min={self.E_min}, E_max={self.E_max}")
        _require_int("E_points", self.E_points, 2)
        if self.refine_tol <= 0.0:
            raise ConfigError(f"refine_tol must be > 0, got {self.refine_tol}")


@dataclass(frozen=True)
class SaddleNode:
    """Education threshold where a stable/unstable root pair collides."""

    E_bar: float
    s_bar: float
    residuals: tuple[float, float]


@dataclass(frozen=True)
class Transition:
    """A root-count change between adjacent sweep rows.

    ``saddle`` holds the threshold when a saddle-node lies inside the
    bracket; otherwise it is None and ``note`` says why (window-edge
    transitions stay flagged rather than reported).
    """

    E_lo: float
    E_hi: float
    count_lo: int
    count_hi: int
    saddle: SaddleNode | None
    note: str = ""


@dataclass
class DiagramRow:
    E: float
    roots: list[FixedPoint]


@dataclass(eq=False)
class BifurcationDiagram:
    """A sweep's E grid, its roots as columns, thresholds and transitions.

    ``rows`` groups the roots per level as ``DiagramRow`` objects, built on
    first access.
    """

    E: np.ndarray
    roots: RootColumns
    thresholds: list[SaddleNode]
    transitions: list[Transition]

    @cached_property
    def rows(self) -> list[DiagramRow]:
        ends = np.cumsum(np.bincount(self.roots.level, minlength=len(self.E))).tolist()
        fixed_points = self.roots.fixed_points()
        return [
            DiagramRow(E=e, roots=fixed_points[start:end])
            for e, start, end in zip(self.E.tolist(), [0, *ends], ends)
        ]


class ChannelCondition(NamedTuple):
    """Education-channel decomposition at a fixed point.

    ``lhs`` is the supply-to-preference channel ratio -H_E/H_s and ``rhs`` the
    share response alpha'(E)(1-s)s/(alpha(1-alpha)); for dH/ds > 0 education
    lowers the map exactly when lhs > rhs. ``education_lowers_price`` reports
    the sign of the full derivative dT/dE (which the comparison equals on its
    domain of validity), and ``dT_dE`` carries the derivative itself.
    """

    lhs: float
    rhs: float
    education_lowers_price: bool
    dT_dE: float


def refine_saddle_node(
    spec: LearningSpec,
    E_bracket: tuple[float, float],
    refine_tol: float = 1e-8,
) -> SaddleNode:
    """The saddle-node with E_bar strictly inside E_bracket, in closed form.

    A saddle-node is a double root of the gap cubic q(s) + nu*E, where q is
    the gap g_H(s, E) - g_L(1 - s) at E = 0: s_bar is a root of q'(s) = 0 from
    ``solver._critical_shares`` and E_bar = -q(s_bar)/nu by Horner's rule.
    Raises NoConvergence when no such point with s_bar in (0, 1) lies in the
    bracket, or when its residuals |H - 1| and |dH/ds| exceed ``refine_tol``.
    """
    e_lo, e_hi = E_bracket
    c3, c2, c1, c0 = gap_coefficients(spec, 0.0)
    for s_bar in _critical_shares(spec):
        e_bar = -(((c3 * s_bar + c2) * s_bar + c1) * s_bar + c0) / spec.nu
        if not e_lo < e_bar < e_hi:
            continue
        h = h_ratio(spec, s_bar, e_bar)
        residuals = (abs(h.value - 1.0), abs(h.dH_ds))
        if max(residuals) > refine_tol:
            raise NoConvergence(
                f"saddle-node residuals {residuals} at (s={s_bar}, E={e_bar}) "
                f"above {refine_tol}"
            )
        return SaddleNode(E_bar=e_bar, s_bar=s_bar, residuals=residuals)
    raise NoConvergence(
        f"no saddle-node lies in the bracket ({e_lo:.6g}, {e_hi:.6g}); a root-count "
        "change there comes from a root crossing the price window"
    )


def sweep(
    sched: PreferenceSchedule,
    spec: LearningSpec,
    sweep_cfg: SweepConfig | None = None,
    solver_cfg: SolverConfig | None = None,
) -> BifurcationDiagram:
    """Root inventory over an education grid, solved in one batch, plus saddle-node thresholds.

    The roots stay columns: counting them per level is one ``np.bincount``.
    """
    sweep_cfg = sweep_cfg or SweepConfig()
    E = np.linspace(sweep_cfg.E_min, sweep_cfg.E_max, sweep_cfg.E_points)
    roots = _fixed_point_rows(sched, spec, E, solver_cfg or SolverConfig())

    counts = np.bincount(roots.level, minlength=len(E))
    transitions: list[Transition] = []
    for i in np.flatnonzero(np.diff(counts)).tolist():
        e_lo, e_hi = E[i].item(), E[i + 1].item()
        saddle, note = None, ""
        try:
            saddle = refine_saddle_node(spec, (e_lo, e_hi), sweep_cfg.refine_tol)
        except NoConvergence as exc:
            note = str(exc)
        transitions.append(
            Transition(e_lo, e_hi, counts[i].item(), counts[i + 1].item(), saddle, note)
        )
    thresholds = [t.saddle for t in transitions if t.saddle is not None]
    return BifurcationDiagram(E, roots, thresholds, transitions)


def channel_condition(
    sched: PreferenceSchedule,
    spec: LearningSpec,
    p_star: float,
    E: float,
    marginal_tol: float = 1e-8,
) -> ChannelCondition:
    """Compare the supply and preference channels of education at a fixed point.

    Raises DegenerateChannel when dH/ds sits inside the marginal band, since
    the channel ratio is then undefined; the exception still carries dT/dE.
    """
    s = excess_share(sched, E, p_star)
    h = h_ratio(spec, s, E)
    s_e = excess_share_slope_E(sched, E, p_star)
    dT_dE = p_star * (h.dH_dE + h.dH_ds * s_e)
    if abs(h.dH_ds) <= marginal_tol:
        raise DegenerateChannel(
            f"dH/ds = {h.dH_ds} is inside the marginal band; channel ratio undefined",
            dT_dE=dT_dE,
        )
    return ChannelCondition(
        lhs=-h.dH_dE / h.dH_ds,
        rhs=s_e,
        education_lowers_price=dT_dE < 0.0,
        dT_dE=dT_dE,
    )
