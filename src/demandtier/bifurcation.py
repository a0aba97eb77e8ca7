"""Education sweeps, root-locus diagrams, closed-form saddle-node thresholds,
and the education-channel decomposition of the price map.

An education grid is solved, re-checked and classified in one batch; the
diagram keeps the roots as columns and builds per-level rows only when asked
for them. The grid only samples the printed locus. The root count changes
where the root locus E(s) = -q(s)/nu has a saddle-node inside the price
window (a double root of the fixed-point cubic, in closed form), or where a
root crosses a window edge, which is kept as a flagged transition instead of
a threshold. Each transition carries its exact E.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

from ._np import np
from .demand import PreferenceSchedule, alpha_of
from .dynamics import (
    LearningSpec, excess_share, excess_share_slope_E, gap_coefficients, h_ratio,
)
from .errors import ConfigError, DegenerateChannel, NoConvergence, _require_int
from .solver import (
    FixedPoint, RootColumns, SolverConfig, _critical_shares, _fixed_point_rows, _real_roots,
)


@dataclass(frozen=True)
class SweepConfig:
    """Education grid and the residual tolerance for saddle-node thresholds.

    The ``E_points`` levels only sample the printed locus: the thresholds and
    transitions are the same for every grid over [E_min, E_max].
    """

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
    """A change from ``count_lo`` roots just below E to ``count_hi`` just above.

    ``saddle`` holds the threshold where two roots collide; otherwise it is
    None and ``note`` says why: a root crosses an edge of the price window, or
    the saddle-node's residuals exceed ``refine_tol``.
    """

    E: float
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


def _saddle_nodes(spec: LearningSpec, e_lo: float, e_hi: float, refine_tol: float) -> list:
    """(s_bar, E_bar, saddle-node or None, note) of each double root of the gap
    cubic q(s) + nu*E with E_bar in (e_lo, e_hi): s_bar in (0, 1) is a root of
    q'(s) = 0 and E_bar = -q(s_bar)/nu. The note tells of residuals |H - 1| and
    |dH/ds| above ``refine_tol``, where the saddle-node is None."""
    c3, c2, c1, c0 = gap_coefficients(spec, 0.0)
    found = []
    for s in _critical_shares(spec):
        e = -(((c3 * s + c2) * s + c1) * s + c0) / spec.nu
        if e_lo < e < e_hi:
            h = h_ratio(spec, s, e)
            res = (abs(h.value - 1.0), abs(h.dH_ds))
            ok = max(res) <= refine_tol
            note = "" if ok else f"saddle-node residuals {res} at (s={s}, E={e}) above {refine_tol}"
            found.append((s, e, SaddleNode(e, s, res) if ok else None, note))
    return found


def refine_saddle_node(
    spec: LearningSpec,
    E_bracket: tuple[float, float],
    refine_tol: float = 1e-8,
) -> SaddleNode:
    """The saddle-node with E_bar strictly inside E_bracket, in closed form; raises
    NoConvergence when there is none, or when its residuals exceed ``refine_tol``."""
    for _, _, saddle, note in _saddle_nodes(spec, *E_bracket, refine_tol):
        if saddle is None:
            raise NoConvergence(note)
        return saddle
    raise NoConvergence(
        f"no saddle-node lies in the bracket ({E_bracket[0]:.6g}, {E_bracket[1]:.6g}); a "
        "root-count change there comes from a root crossing the price window"
    )


def _unit_roots(g4, g3, g2, g1, g0) -> list[float]:
    """Roots in (0, 1), in doubles, where g4*s^4 + ... + g0 changes sign: its derivative's
    real roots cut (0, 1) into monotone pieces, and each that changes sign is bisected."""
    critical, _ = _real_roots(4.0 * g4, 3.0 * g3, 2.0 * g2, g1, (0.0,) * 4)
    cuts = [0.0, *sorted(s for s in critical if 0.0 < s < 1.0), 1.0]
    signs = [(((g4 * s + g3) * s + g2) * s + g1) * s + g0 > 0.0 for s in cuts]
    roots = []
    for lo, hi, up_lo, up in zip(cuts, cuts[1:], signs, signs[1:]):
        if up_lo != up:
            while lo < (s := 0.5 * (lo + hi)) < hi:
                if ((((g4 * s + g3) * s + g2) * s + g1) * s + g0 > 0.0) == up:
                    hi = s
                else:
                    lo = s
            roots.append(hi)
    return roots


def _events(sched: PreferenceSchedule, spec: LearningSpec, sweep_cfg: SweepConfig,
            cfg: SolverConfig) -> list:
    """(E, root-count change, saddle-node or None, note) of each event of the
    root locus E(s) = -q(s)/nu in (E_min, E_max), ascending in E.

    A saddle-node in the price window changes the count by 2, upward where
    q''(s_bar) < 0. A root crosses the window edge P where its share is
    alpha/(alpha + (1-alpha)*P): a constant where alpha is clipped, else a
    root of ((alpha_base - alpha_slope*q(s)/nu)*(1 - s + P*s) - P*s)/(1 + P).
    That changes the count by 1, up at p_max and down at p_min if the root's
    drift -nu/q'(s) - dS/dE against the edge (times q'(s)^2 here) is positive.
    """
    c3, c2, c1, c0 = gap_coefficients(spec, 0.0)
    if c3 == c2 == c1 == 0.0:  # the gap does not depend on s: no root, no event
        return []
    e_min, e_max, lo, hi = sweep_cfg.E_min, sweep_cfg.E_max, sched.alpha_lo, sched.alpha_hi
    events = [
        (e, 2 if 3.0 * c3 * s + c2 < 0.0 else -2, saddle, note)
        for s, e, saddle, note in _saddle_nodes(spec, e_min, e_max, sweep_cfg.refine_tol)
        if 3.0 * c3 * s + c2 != 0.0
        and excess_share(sched, e, cfg.p_max) <= s <= excess_share(sched, e, cfg.p_min)
    ]
    k = sched.alpha_slope / spec.nu
    a3, a2, a1, a0 = -k * c3, -k * c2, -k * c1, sched.alpha_base - k * c0  # alpha along E(s)
    for name, price, side in (("p_min", cfg.p_min, -1), ("p_max", cfg.p_max, 1)):
        u, m, w = 1.0 / (1.0 + price), (price - 1.0) / (1.0 + price), price / (1.0 + price)
        affine = _unit_roots(m * a3, u * a3 + m * a2, u * a2 + m * a1, u * a1 + m * a0 - w, u * a0)
        clipped = [(c / (c + (1.0 - c) * price), c) for c in {lo, hi}]
        for s, clip in clipped + [(s, None) for s in affine]:
            e = -(((c3 * s + c2) * s + c1) * s + c0) / spec.nu
            a = alpha_of(sched, e)
            if e_min < e < e_max and (a == clip if clip else lo < a < hi):
                slope = (3.0 * c3 * s + 2.0 * c2) * s + c1
                drift = -spec.nu * slope - excess_share_slope_E(sched, e, price) * slope * slope
                if drift != 0.0:
                    events.append((e, side if drift > 0.0 else -side, None,
                                   f"a root crosses the price window's edge {name} = {price!r}"))
    return sorted(events, key=lambda event: event[0])


def sweep(
    sched: PreferenceSchedule,
    spec: LearningSpec,
    sweep_cfg: SweepConfig | None = None,
    solver_cfg: SolverConfig | None = None,
) -> BifurcationDiagram:
    """Root inventory over an education grid, solved in one batch, as columns,
    and the locus's transitions in (E_min, E_max), with counts running from the
    grid's count at E_min, and thresholds."""
    sweep_cfg = sweep_cfg or SweepConfig()
    solver_cfg = solver_cfg or SolverConfig()
    E = np.linspace(sweep_cfg.E_min, sweep_cfg.E_max, sweep_cfg.E_points)
    roots = _fixed_point_rows(sched, spec, E, solver_cfg)
    transitions, count = [], int(np.count_nonzero(roots.level == 0))
    for e, change, saddle, note in _events(sched, spec, sweep_cfg, solver_cfg):
        transitions.append(Transition(e, count, count + change, saddle, note))
        count += change
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
