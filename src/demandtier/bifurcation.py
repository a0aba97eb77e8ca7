"""Education sweeps, root-locus diagrams, closed-form saddle-node thresholds,
and the education-channel decomposition of the price map.

An education grid is solved, re-checked and classified in one batch; the
diagram keeps the roots as columns and builds per-level rows only when asked
for them. The grid only samples the printed locus: each transition, at its
exact E, is read off the monotone pieces of the root locus E(s) = -q(s)/nu,
a saddle-node where two roots collide or a flagged crossing of a window edge.
``_locus`` finds every event's share and level, each the correctly rounded
double of the exact value on the float parameters.
"""

from __future__ import annotations

from collections import namedtuple
from functools import cached_property

from ._locus import _critical_shares, _edge_crossings, _gap
from ._np import np
from .demand import alpha_of
from .dynamics import _horner, excess_share, excess_share_slope_E, gap_coefficients, h_ratio
from .errors import DegenerateChannel
from .scenario import LearningSpec, PreferenceSchedule, SolverConfig, SweepConfig  # noqa: F401
from .scenario import _DEFAULTS, _Record
from .solver import FixedPoint, RootColumns, _fixed_point_rows


class SaddleNode(_Record):
    """Education threshold where a stable/unstable root pair collides."""

    E_bar: float
    s_bar: float
    residuals: tuple[float, float]


class Transition(_Record):
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


class DiagramRow(_Record):
    """The roots of one education level, as ``FixedPoint`` objects in ascending p."""

    E: float
    roots: list[FixedPoint]


class BifurcationDiagram(_Record):
    """A sweep's E grid, its roots as columns, thresholds and transitions.

    ``rows`` groups the roots per level as ``DiagramRow`` objects, built on
    first access. Two diagrams are equal only if they are the same object.
    """

    E: np.ndarray
    roots: RootColumns
    thresholds: list[SaddleNode]
    transitions: list[Transition]

    __eq__ = object.__eq__
    __hash__ = object.__hash__

    @cached_property
    def rows(self) -> list[DiagramRow]:
        ends = np.cumsum(np.bincount(self.roots.level, minlength=len(self.E))).tolist()
        fixed_points = self.roots.fixed_points()
        return [
            DiagramRow(E=e, roots=fixed_points[start:end])
            for e, start, end in zip(self.E.tolist(), [0, *ends], ends)
        ]


class ChannelCondition(namedtuple("ChannelCondition",
                                  "lhs rhs education_lowers_price dT_dE")):
    """Education-channel decomposition at a fixed point.

    ``lhs`` is the supply-to-preference channel ratio -H_E/H_s and ``rhs`` the
    share response alpha'(E)(1-s)s/(alpha(1-alpha)); for dH/ds > 0 education
    lowers the map exactly when lhs > rhs. ``education_lowers_price`` reports
    the sign of the full derivative dT/dE (which the comparison equals on its
    domain of validity), and ``dT_dE`` carries the derivative itself.
    """

    __slots__ = ()


def refine_saddle_node(*args, **kwargs):
    """Removed; the benchmark's tracer still binds the name."""
    raise NotImplementedError("refine_saddle_node is removed: read sweep(...).thresholds")


def _events(sched: PreferenceSchedule, spec: LearningSpec, sweep_cfg: SweepConfig,
            cfg: SolverConfig) -> list:
    """(E, root-count change, saddle-node or None, note) of each event of the
    root locus E(s) = -q(s)/nu in (E_min, E_max), ascending in E.

    The shares where q'(s) = 0 or where a root's price meets a window edge
    cut (0, 1) into pieces, each monotone in E and inside the window or out.
    An inside piece holds one root at each level strictly between its ends'
    levels, so each end changes the count by 1, up if the piece lies above it.
    The changes at one share add up: 2 at a critical share is a saddle-node,
    None with a note if |H - 1| or |dH/ds| there exceeds ``refine_tol``; any
    other is a root crossing the window edge nearer its price in ratio.
    """
    gap, q = gap_coefficients(spec.coefficients, 0.0), _gap(spec.coefficients, 0.0)
    e_min, e_max, p_min, p_max = sweep_cfg.E_min, sweep_cfg.E_max, cfg.p_min, cfg.p_max

    def price(s):  # of the root at share s
        a = alpha_of(sched, -_horner(gap, s) / spec.nu)
        return a * (1.0 - s) / ((1.0 - a) * s)

    saddles = _critical_shares(spec, q)
    # h_ratio first, as an overflow raises there
    ratios = {s: h_ratio(spec, s, e) for s, e in saddles.items() if e_min < e < e_max}
    cuts = _edge_crossings(spec, q, sched, (p_min, p_max))
    cuts.update(saddles)
    shares = sorted(cuts)
    levels = [cuts[s] for s in shares]
    # E's rise along each piece inside the window: between the two critical shares,
    # that of -q', whose sign is gap[0]'s there, however close their levels
    ups = [(((gap[0] > 0) - (gap[0] < 0)) if s in saddles and t in saddles else (f > e) - (f < e))
           if p_min <= price(0.5 * (s + t)) <= p_max else 0
           for s, t, e, f in zip(shares, shares[1:], levels, levels[1:])]
    changes = [a - b for a, b in zip([*ups, 0], [0, *ups])]  # piece after less piece before
    events, tol = [], sweep_cfg.refine_tol
    for s, e, change in zip(shares, levels, changes):
        if change == 0 or not e_min < e < e_max:
            continue
        if abs(change) == 2 and s in ratios:
            res = (abs(ratios[s].value - 1.0), abs(ratios[s].dH_ds))
            saddle = SaddleNode(e, s, res) if max(res) <= tol else None
            note = "" if saddle else f"saddle-node residuals {res} at (s={s}, E={e}) above {tol}"
        else:
            low = s and price(s) < p_min**0.5 * p_max**0.5  # s = 0: an infinite price
            edge = ("p_min", p_min) if low else ("p_max", p_max)
            saddle, note = None, "a root crosses the price window's edge %s = %r" % edge
        events.append((e, change, saddle, note))
    # at one level, a rise first: the two folds of a pair can round to one level
    return sorted(events, key=lambda event: (event[0], -event[1]))


def sweep(
    sched: PreferenceSchedule,
    spec: LearningSpec,
    sweep_cfg: SweepConfig | None = None,
    solver_cfg: SolverConfig | None = None,
) -> BifurcationDiagram:
    """Root inventory over an education grid, solved in one batch, as columns,
    and the locus's transitions in (E_min, E_max), with counts running from the
    grid's count at E_min, and thresholds."""
    sweep_cfg = sweep_cfg or _DEFAULTS["sweep"]
    solver_cfg = solver_cfg or _DEFAULTS["solver"]
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
