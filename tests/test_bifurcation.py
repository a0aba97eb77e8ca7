import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from demandtier import (
    HRatio,
    LearningSpec,
    PreferenceSchedule,
    SolverConfig,
    Stability,
    SweepConfig,
    channel_condition,
    classify_stability,
    excess_share,
    excess_share_slope_E,
    find_fixed_points,
    growth_factors,
    h_ratio,
    sweep,
)
from demandtier import _locus, bifurcation, solver
from demandtier.dynamics import gap_coefficients
from demandtier.errors import (ConfigError, DegenerateChannel, DemandTierError, InvalidPrice,
                               NoConvergence)
from demandtier.scenario import load_scenario

import oracles
from conftest import DATA_DIR, flat_sched, random_calibration

# closed-form thresholds of the headline cubic calibration, ascending in E
SN_LOW, SN_HIGH = oracles.saddle_node_closed_form()


@pytest.fixture(scope="module")
def diagram():
    return sweep(
        PreferenceSchedule(),
        LearningSpec.cubic(nu=0.6, phi1=0.8, phi2=1.0, chi1=1.2, chi2=1.5),
    )


class TestSweepStructure:
    def test_one_row_per_grid_point(self, diagram):
        assert len(diagram.rows) == 81
        e_values = [row.E for row in diagram.rows]
        assert e_values == sorted(e_values)
        assert e_values[0] == 0.05 and e_values[-1] == 0.45

    def test_transitions_in_expected_intervals(self, diagram):
        levels = [t.E for t in diagram.transitions]
        assert any(0.145 < e < 0.215 for e in levels)
        assert any(0.215 < e < 0.280 for e in levels)

    def test_rootless_rows_are_legal(self, diagram):
        assert len(diagram.rows[0].roots) == 0
        assert len(diagram.rows[-1].roots) == 0

    def test_root_counts_match_threshold_geometry(self, diagram):
        for row in diagram.rows:
            n = len(row.roots)
            if SN_LOW[0] < row.E < SN_HIGH[0]:
                assert n == 3
            elif row.E > SN_HIGH[0] and n:
                assert n == 1


class TestThresholds:
    def test_two_refined_thresholds(self, diagram):
        assert len(diagram.thresholds) == 2

    def test_residuals_within_tolerance(self, diagram):
        for sn in diagram.thresholds:
            assert sn.residuals[0] <= 1e-8
            assert sn.residuals[1] <= 1e-8

    def test_thresholds_inside_sweep_and_price_window(self, sched, diagram):
        refined = [t for t in diagram.transitions if t.saddle is not None]
        assert len(refined) == 2
        for t in refined:
            assert t.E == t.saddle.E_bar and 0.05 < t.E < 0.45
            assert 0.0 < t.saddle.s_bar < 1.0
            price = oracles.price_of_share(t.saddle.s_bar, oracles.clip_alpha(t.E))
            assert 0.01 <= price <= 14.0

    def test_against_closed_form_oracle(self, diagram):
        for sn, (e_bar, s_bar) in zip(sorted(diagram.thresholds, key=lambda s: s.E_bar),
                                      (SN_LOW, SN_HIGH)):
            assert sn.E_bar == pytest.approx(e_bar, abs=1e-7)
            assert sn.s_bar == pytest.approx(s_bar, abs=1e-7)

    def test_window_edge_transitions_flagged_not_refined(self, diagram):
        flagged = [t for t in diagram.transitions if t.saddle is None]
        # the high-p root enters through p_max near E ~ 0.09 and the low-p root
        # leaves through p_min near E ~ 0.33: both are window effects, not collisions
        assert [(round(t.E, 9), t.count_lo, t.count_hi, t.note) for t in flagged] == [
            (0.093350609, 0, 1, "a root crosses the price window's edge p_max = 14.0"),
            (0.330013989, 1, 0, "a root crosses the price window's edge p_min = 0.01"),
        ]

    def test_window_edge_levels_are_correctly_rounded(self, diagram):
        # the doubles nearest the exact levels where a root's price is 14 and 0.01
        flagged = [t.E for t in diagram.transitions if t.saddle is None]
        assert flagged == [0.09335060924204287, 0.3300139890631851]
        exact = oracles.edge_levels(14.0, 0.05, 0.45) + oracles.edge_levels(0.01, 0.05, 0.45)
        assert set(flagged) <= set(exact)

    def test_saddle_node_above_refine_tol_stays_a_flagged_transition(self, sched, cubic,
                                                                     diagram):
        # at its correctly rounded (s_bar, E_bar) the upper threshold's residuals
        # are both 0, so it stays one at any refine_tol; the lower one is flagged
        strict = sweep(sched, cubic, SweepConfig(refine_tol=1e-30))
        assert strict.thresholds == [sn for sn in diagram.thresholds if sn.residuals == (0, 0)]
        assert len(strict.thresholds) == 1
        assert [(t.E, t.count_lo, t.count_hi) for t in strict.transitions] == [
            (t.E, t.count_lo, t.count_hi) for t in diagram.transitions]
        notes = [t.note for t in strict.transitions
                 if abs(t.count_hi - t.count_lo) == 2 and t.saddle is None]
        assert len(notes) == 1 and notes[0].startswith("saddle-node residuals")

    def test_colliding_pair_identity(self, diagram):
        # at the upper threshold the unstable middle root and the low-share
        # (high-price) stable root disappear together: the surviving root past
        # the collision carries the high share
        upper = max(sn.E_bar for sn in diagram.thresholds)
        s_bar = min(sn.s_bar for sn in diagram.thresholds)  # collision share at upper Ebar
        for row in diagram.rows:
            if row.E > upper and row.roots:
                assert len(row.roots) == 1
                assert row.roots[0].s_star > s_bar

    def test_monotone_disappearance_above_upper_threshold(self, diagram):
        upper = max(sn.E_bar for sn in diagram.thresholds)
        rows_above = [row for row in diagram.rows if row.E > upper]
        rows_with_roots = [row for row in rows_above if row.roots]
        assert rows_with_roots  # non-vacuous
        collision_price = oracles.price_of_share(SN_HIGH[1], oracles.clip_alpha(SN_HIGH[0]))
        for row in rows_with_roots:
            assert len(row.roots) == 1
            assert row.roots[0].stability is Stability.STABLE
            assert row.roots[0].p_star < collision_price


class TestDenserGrid:
    def test_thresholds_independent_of_grid_density(self, sched, cubic, diagram):
        # every grid over [0.15, 0.25], down to its two ends, gives the same
        # transitions: the two collisions of the default sweep, and no other
        grids = [sweep(sched, cubic, SweepConfig(E_min=0.15, E_max=0.25, E_points=n))
                 for n in (2, 3, 81, 801)]
        for other in grids[1:]:
            assert other.transitions == grids[0].transitions
        assert [(t.count_lo, t.count_hi) for t in grids[0].transitions] == [(1, 3), (3, 1)]
        assert grids[0].thresholds == diagram.thresholds


def _bracket(sched, spec, e_lo, e_hi, **cfg):
    """The sweep of the two levels e_lo and e_hi: its transitions are those in between."""
    return sweep(sched, spec, SweepConfig(E_min=e_lo, E_max=e_hi, E_points=2, **cfg))


class TestBracketThresholds:
    def test_residuals_by_definition(self, sched, cubic):
        [sn] = _bracket(sched, cubic, 0.215, 0.280).thresholds
        assert sn.residuals[0] <= 1e-8
        assert sn.residuals[1] <= 1e-8
        assert 0.215 < sn.E_bar < 0.280

    def test_matches_closed_form(self, sched, cubic):
        [sn] = _bracket(sched, cubic, 0.215, 0.280).thresholds
        assert sn.E_bar == pytest.approx(SN_HIGH[0], abs=1e-8)
        assert sn.s_bar == pytest.approx(SN_HIGH[1], abs=1e-8)

    def test_linear_learning_has_no_saddle_node(self, sched, linear):
        # dH/ds has constant sign under monotone learning: every transition is
        # a root crossing the price window
        diagram = _bracket(sched, linear, 0.1, 0.4)
        assert diagram.thresholds == []
        assert all(t.note.startswith("a root crosses") for t in diagram.transitions)

    def test_bracket_without_saddle_node(self, sched, cubic):
        assert _bracket(sched, cubic, 0.09, 0.095).thresholds == []

    def test_residuals_above_tolerance_leave_a_flagged_transition(self, sched, cubic):
        # the lower threshold: its |dH/ds| at the correctly rounded (s_bar, E_bar)
        # is 1.4e-16, where the upper one's residuals are both 0
        diagram = _bracket(sched, cubic, 0.145, 0.215, refine_tol=1e-30)
        assert diagram.thresholds == []
        [t] = diagram.transitions
        assert (t.count_lo, t.count_hi) == (1, 3) and "residuals" in t.note

    def test_the_removed_api_points_to_the_sweep(self, cubic):
        with pytest.raises(NotImplementedError, match=r"sweep\(\.\.\.\)\.thresholds"):
            bifurcation.refine_saddle_node(cubic, (0.215, 0.280))


class TestRandomCalibrations:
    def test_sweep_thresholds_match_closed_form(self):
        # every saddle-node whose collision lies inside the sweep and the price
        # window is found, and nothing else is reported as one
        rng = random.Random(20261018)
        checked = 0
        for _ in range(10):
            sched, spec, alpha_params, learn = random_calibration(rng)
            diagram = sweep(sched, spec, SweepConfig(E_min=0.02, E_max=0.5, E_points=97))
            cubic_terms = learn[2] or learn[4]
            expected = [
                (e_bar, s_bar)
                for e_bar, s_bar in (oracles.saddle_node_closed_form(learn) if cubic_terms else [])
                if 0.02 < e_bar < 0.5
                and 0.01 < oracles.price_of_share(
                    s_bar, oracles.clip_alpha(e_bar, alpha_params)) < 14.0
            ]
            found = sorted((sn.E_bar, sn.s_bar) for sn in diagram.thresholds)
            assert len(found) == len(expected)
            for (e_bar, s_bar), (e_ref, s_ref) in zip(found, expected):
                assert abs(e_bar - e_ref) <= 1e-10
                assert abs(s_bar - s_ref) <= 1e-10
            checked += len(found)
        assert checked >= 3


_UNIT = st.floats(0.1, 2.0)


@st.composite
def calibrations(draw):
    """A schedule and a learning spec whose gap cubic has degree 0, 1, 2 or 3.

    The degenerate specs cancel the gap's leading coefficients -(phi2 + chi2),
    3*chi2 and phi1 + chi1 - 3*chi2, and stay valid: both growth factors are
    positive on the whole share range.
    """
    sched = PreferenceSchedule(
        alpha_base=draw(st.floats(0.5, 0.9)), alpha_slope=draw(st.floats(0.0, 0.3)),
        alpha_lo=draw(st.floats(0.55, 0.65)), alpha_hi=draw(st.floats(0.93, 0.98)),
    )
    nu = draw(st.floats(0.3, 0.9))
    kind = draw(st.sampled_from(["cubic", "linear", "degree 2", "degree 1", "degree 0"]))
    if kind == "linear":
        spec = LearningSpec.linear(nu, draw(st.floats(0.3, 1.2)), draw(st.floats(0.5, 1.5)))
    elif kind == "cubic":
        phi1, chi1 = draw(st.floats(0.5, 1.1)), draw(st.floats(0.8, 1.6))
        spec = LearningSpec.cubic(
            nu, phi1, draw(st.floats(0.5, 0.9 * (1.0 + phi1))),
            chi1, draw(st.floats(0.8, 0.9 * (1.0 + chi1))),
        )
    elif kind == "degree 0":  # g_L = 1 - phi1*(1 - s) stays positive for phi1 < 1
        phi1 = draw(st.floats(0.1, 0.9))
        spec = LearningSpec.cubic(nu, phi1, 0.0, -phi1, 0.0)
    elif kind == "degree 1":
        spec = LearningSpec.cubic(nu, draw(_UNIT), 0.0, draw(_UNIT), 0.0)
    else:  # g_L(0) = 1 + chi1 - chi2 > 0, with the cubic draws' margin
        phi1, chi1 = draw(_UNIT), draw(_UNIT)
        chi2 = draw(st.floats(0.1, 0.9 * (1.0 + chi1)))
        spec = LearningSpec.cubic(nu, phi1, -chi2, chi1, chi2)
    return sched, spec


class TestEvents:
    @settings(max_examples=100, deadline=None, derandomize=True, database=None)
    @given(calibrations(), st.floats(0.0, 0.2), st.floats(0.3, 3.0), st.integers(2, 2000))
    def test_grid_counts_follow_the_running_count(self, calibration, e_min, e_max, points):
        # at each level away from every event, the grid's root count is the
        # count that the transitions run up to that level
        sched, spec = calibration
        diagram = sweep(sched, spec, SweepConfig(e_min, e_max, points))
        if gap_coefficients(spec.coefficients, 0.0)[:3] == (0.0, 0.0, 0.0):
            assert diagram.transitions == []
        counts = np.bincount(diagram.roots.level, minlength=points)
        running = [counts[0]] + [t.count_hi for t in diagram.transitions]
        assert [t.count_lo for t in diagram.transitions] == running[:-1]
        assert min(running) >= 0
        events = np.array([t.E for t in diagram.transitions])
        assert (np.diff(events) >= 0.0).all() and ((e_min < events) & (events < e_max)).all()
        after = np.searchsorted(events, diagram.E)
        away = np.abs(diagram.E[:, None] - events[None, :]).min(axis=1, initial=np.inf) > 1e-9
        assert (counts[away] == np.array(running)[after[away]]).all()

    @pytest.mark.parametrize("name, thresholds, flagged", [
        ("close_collisions", [(0.113163763710, 1, 3), (0.113275467619, 3, 1)],
         [(0.0788437216183, 0, 1), (0.461128032962, 1, 0)]),
        ("collision_below_p_min", [], [(0.129357924087, 0, 1)]),
    ])
    def test_events_that_one_grid_cell_hid(self, name, thresholds, flagged):
        # two collisions inside one cell of a 1212-level grid, and a collision
        # below p_min next to the root that crosses p_min in the same cell
        scenario = load_scenario(DATA_DIR / "cli" / f"{name}.json")
        diagram = sweep(scenario.preferences, scenario.learning, scenario.sweep,
                        scenario.solver)
        found = [[(float(f"{t.E:.12g}"), t.count_lo, t.count_hi) for t in diagram.transitions
                  if (t.saddle is None) == edge] for edge in (False, True)]
        assert found == [thresholds, flagged]

    def test_a_root_that_enters_and_one_that_leaves_in_one_oracle_cell(self):
        # calibration 366 of ``check_events.py --seed 7``: a root enters
        # through p_max and another leaves through p_min 6.1e-5 later in E,
        # inside one cell of the oracle's even grid, which reads 2 roots at
        # both of its ends
        alpha_params = (0.7599268916027772, 0.2717711015903151, 0.6298971921147491,
                        0.9629931125153351)
        learn = (0.6806973370618175, 0.5877535490243019, 0.782365083032722,
                 1.3869350402236655, 2.0167614873655566)
        sched = PreferenceSchedule(*alpha_params, gammaL_base=1.8609060266610127,
                                   gammaL_decay=0.7296535948765308)
        e_min, e_max, p_min, p_max = (0.004512845504991969, 0.3868550038642018,
                                      0.03498087674846102, 8.695183120739484)
        diagram = sweep(sched, LearningSpec.cubic(*learn), SweepConfig(e_min, e_max, 32),
                        SolverConfig(p_min=p_min, p_max=p_max))
        want = oracles.count_changes(e_min, e_max, p_min, p_max, alpha_params, learn)
        got = [(t.E, t.count_lo, t.count_hi) for t in diagram.transitions]
        assert [change[1:] for change in want] == [(0, 2), (2, 3), (3, 2), (2, 0)]
        assert [change[1:] for change in got] == [change[1:] for change in want]
        assert all(abs(a[0] - b[0]) <= 1e-9 for a, b in zip(got, want))
        assert [round(e, 7) for e, _, _ in got] == [0.2615182, 0.2822859, 0.2823467, 0.3636132]
        edge = "a root crosses the price window's edge %s = %r"
        assert [t.note for t in diagram.transitions] == [
            "", edge % ("p_max", p_max), edge % ("p_min", p_min), ""]
        assert [t.saddle is None for t in diagram.transitions] == [False, True, True, False]

    def test_crossings_name_their_edges_where_the_window_product_overflows(self, sched, linear):
        # a root enters through p_min = 1e9 and leaves through p_max = 1e300,
        # whose product is not a finite double
        diagram = sweep(sched, linear, SweepConfig(1.9, 2.1, 5),
                        SolverConfig(p_min=1e9, p_max=1e300))
        edge = "a root crosses the price window's edge %s"
        assert [(t.count_lo, t.count_hi, t.note) for t in diagram.transitions] == [
            (0, 1, edge % "p_min = 1000000000.0"), (1, 0, edge % "p_max = 1e+300")]


class TestGapBound:
    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(calibrations(), st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
           st.floats(0.0, 0.6))
    def test_double_double_gap_within_its_bound(self, calibration, x, E):
        # the gap the Newton step polishes on, by Horner's rule in double-double,
        # against the exact gap of the float parameters, written term by term
        _, spec = calibration
        gap, bound = _locus._horner_dd(_locus._gap(spec.coefficients, E), x)
        nu, phi1, phi2, chi1, chi2 = map(Fraction, spec.coefficients)
        s, t = Fraction(x), 1 - Fraction(x)
        exact = nu * Fraction(E) + phi1 * s - phi2 * s**3 - chi1 * t + chi2 * t**3
        assert abs(Fraction(gap[0]) + Fraction(gap[1]) - exact) <= Fraction(bound)


class TestBisect:
    @pytest.mark.parametrize("x, even", [(1.0, 1.0), (1.0 + 2.0 ** -52, 1.0 + 2.0 ** -51)])
    def test_a_zero_halfway_between_two_doubles_goes_to_the_even_one(self, x, even):
        y = math.nextafter(x, 2.0)
        zero = (Fraction(x) + Fraction(y)) / 2
        assert _locus._bisect(lambda t: _locus._sign(t - zero), x, y) == even
        assert _locus._bisect(lambda t: _locus._sign(zero - t), x, y) == even

    @pytest.mark.parametrize("lo, hi", [(0.0, 1.0), (1.0, 3.0), (-4.0, 5.0)])
    def test_a_zero_at_the_computed_midpoint_is_that_double(self, lo, hi):
        mid = 0.5 * lo + 0.5 * hi
        assert _locus._bisect(lambda t: _locus._sign(t - Fraction(mid)), lo, hi) == mid

    @pytest.mark.parametrize("zero", [Fraction(7, 3) * Fraction(5e-324), Fraction(1e-310) / 3])
    def test_a_subnormal_zero_in_0_1_takes_at_most_64_sign_evaluations(self, zero):
        # halving the bracket by value would take one evaluation per binade, about 1075
        evaluations = []

        def sign(t):
            evaluations.append(t)
            return _locus._sign(t - zero)

        assert _locus._bisect(sign, 0.0, 1.0) == float(zero)
        assert len(evaluations) <= 64

    @pytest.mark.parametrize("lo, hi", [(-1e300, -1e-300), (-2.0, 3e-320), (-5e-324, 5e-324)])
    def test_brackets_across_binades_and_zero_end_at_the_rounded_zero(self, lo, hi):
        for t in (0.1, 0.5, 0.9):
            zero = Fraction(lo) + (Fraction(hi) - Fraction(lo)) * Fraction(t)
            assert _locus._bisect(lambda x: _locus._sign(x - zero), lo, hi) == float(zero)
            assert _locus._bisect(lambda x: _locus._sign(zero - x), lo, hi) == float(zero)


class TestCusp:
    # the headline calibration with phi1 = 0.6: the discriminant of q' on the
    # float parameters is -2.0e-15 exactly, so q' has no root and the locus no
    # saddle-node, though q''s discriminant rounds to about zero in doubles
    ALPHA = (0.78, 0.16, 0.6, 0.97)

    @staticmethod
    def _sweep(phi1):
        spec = LearningSpec.cubic(nu=0.6, phi1=phi1, phi2=1.0, chi1=1.2, chi2=1.5)
        return sweep(PreferenceSchedule(), spec, SweepConfig(E_min=0.3, E_max=0.5),
                     SolverConfig(p_min=1e-6, p_max=1e6))

    def test_no_saddle_node_at_the_cusp(self):
        diagram = self._sweep(0.6)
        assert diagram.transitions == [] and diagram.thresholds == []
        learn = (0.6, 0.6, 1.0, 1.2, 1.5)
        assert oracles.saddle_node_closed_form(learn) == []
        levels = [0.4, math.nextafter(0.4, 1.0), math.nextafter(math.nextafter(0.4, 1.0), 1.0)]
        for e in levels:
            assert len(oracles.exact_roots(e, 1e-6, 1e6, self.ALPHA, learn)) == 1

    def test_two_saddle_nodes_just_past_the_cusp(self):
        diagram = self._sweep(0.601)
        assert [(t.count_lo, t.count_hi) for t in diagram.transitions] == [(1, 3), (3, 1)]
        assert [("%.12g" % sn.E_bar, "%.12g" % sn.s_bar) for sn in diagram.thresholds] == [
            ("0.398987169994", "0.611547005384"), ("0.399012830006", "0.588452994616")]


    def test_correctly_rounded_shares_next_to_the_cusp(self):
        # q''s discriminant is positive but rounds badly in doubles: the quadratic
        # formula put the shares at 0.600000007947 and 0.599999992053
        diagram = self._sweep(0.6000000000000002)
        assert [(t.count_lo, t.count_hi) for t in diagram.transitions] == [(1, 3), (3, 1)]
        assert ["%.12g" % sn.s_bar for sn in diagram.thresholds] == [
            "0.600000004552", "0.599999995448"]
        exact = oracles.saddle_node_exact((0.6, 0.6000000000000002, 1.0, 1.2, 1.5))
        assert sorted((sn.E_bar, sn.s_bar) for sn in diagram.thresholds) == exact

    def test_no_saddle_node_at_an_exact_cusp_whose_share_is_a_double(self):
        # q'(s) = -6 (s - 1/2)^2 on the float parameters: the cut of ``_roots``
        # on q' lands on the double root and reads the exact sign 0 there, so
        # only ``_critical_shares``' check that q'' is 0 there too leaves it out
        learn = (0.6, 0.5, 1.0, 1.0, 1.0)
        assert _saddles(LearningSpec.cubic(*learn)) == oracles.saddle_node_exact(learn) == []


    def test_saddle_node_at_a_tangent_root_whose_share_is_a_double(self):
        # q' has the simple roots 0.25 and 0.75, and at E = 0.25 the gap has a
        # double root at s = 0.25: a saddle-node, which the cusp rule keeps
        spec = LearningSpec.cubic(0.5, 0.875, 1.0, 1.0, 1.0)
        diagram = sweep(PreferenceSchedule(), spec)
        assert [(sn.E_bar, sn.s_bar, sn.residuals) for sn in diagram.thresholds] == [
            (0.25, 0.25, (0.0, 0.0))]


def _saddles(spec):
    """Each (E_bar, s_bar) of the calibration, ascending, from the locus module."""
    saddles = _locus._critical_shares(spec, _locus._gap(spec.coefficients, 0.0))
    return sorted((e, s) for s, e in saddles.items())


def _edge_levels(spec, alpha_params, prices):
    """The levels of every window-edge crossing the locus module finds, on each
    piece of alpha, at each of the prices, ascending."""
    crossings = _locus._edge_crossings(spec, _locus._gap(spec.coefficients, 0.0),
                                       PreferenceSchedule(*alpha_params), prices)
    return sorted(crossings.values())


class TestCorrectlyRoundedThresholds:
    def test_every_threshold_equals_the_exact_oracle(self):
        # every (E_bar, s_bar) is the double nearest the exact saddle-node of the
        # float parameters, over seeded random calibrations
        rng = random.Random(20261019)
        checked = 0
        for _ in range(2500):
            _, spec, _, learn = random_calibration(rng)
            exact = oracles.saddle_node_exact(learn)
            assert _saddles(spec) == exact, learn
            checked += len(exact)
        assert checked >= 2000

    def test_exact_fallbacks_give_the_same_doubles(self, monkeypatch):
        # with no rounding certified, every share and level is bisected exactly
        rng = random.Random(7)
        cases = [random_calibration(rng)[1:] for _ in range(20)]
        prices = (0.01, 14.0)
        want = [(_saddles(spec), _edge_levels(spec, alpha_params, prices))
                for spec, alpha_params, _ in cases]
        assert sum(len(saddles) for saddles, _ in want) >= 10
        monkeypatch.setattr(_locus, "_rounds", lambda hi, lo, err: False)
        for (spec, alpha_params, learn), expected in zip(cases, want):
            got = (_saddles(spec), _edge_levels(spec, alpha_params, prices))
            assert got == expected
            assert got[0] == oracles.saddle_node_exact(learn)
            exact = {e for price in prices
                     for e in oracles.edge_levels(price, -10.0, 10.0, alpha_params, learn)}
            assert set(got[1]) <= exact


class TestCorrectlyRoundedEdges:
    def test_every_edge_crossing_is_at_an_exact_edge_level(self):
        # each window-edge transition's E is the double nearest the exact level
        # where a root's price equals the edge, over seeded random calibrations
        # and windows drawn as ``check_events.py`` draws them
        rng = random.Random(20261020)
        checked = 0
        for _ in range(400):
            sched, spec, alpha_params, learn = random_calibration(rng)
            e_min, e_max = rng.uniform(0.0, 0.1), rng.uniform(0.3, 0.6)
            p_min, p_max = rng.uniform(0.005, 0.05), rng.uniform(5.0, 30.0)
            diagram = sweep(sched, spec, SweepConfig(e_min, e_max, rng.randint(2, 300)),
                            SolverConfig(p_min=p_min, p_max=p_max))
            exact = {e for price in (p_min, p_max)
                     for e in oracles.edge_levels(price, e_min, e_max, alpha_params, learn)}
            crossings = [t.E for t in diagram.transitions if t.saddle is None
                         and t.note.startswith("a root crosses")]
            assert all(e in exact for e in crossings), (learn, alpha_params, crossings)
            checked += len(crossings)
        assert checked >= 150

    @pytest.mark.parametrize("price", [1e270, 1e305, 1.7e308, 1.7976931348623157e308])
    def test_clipped_crossing_at_a_price_past_the_split_range(self, price):
        # alpha is clipped at 0.97 at the locus's end, E(0) = 1.3/0.6; past
        # 2^996 Dekker's split of the price overflows, so ``_two_prod`` forms
        # the quotient share c/(c + (1 - c)*price) with 2^128 traded between operands
        learn = (0.6, 0.8, 1.0, 1.5, 0.2)
        got = _edge_levels(LearningSpec.cubic(*learn), oracles.ALPHA_PARAMS, (price,))
        # the exact share and level, as ``oracles.edge_levels`` forms them
        nu, phi1, phi2, chi1, chi2 = map(Fraction, learn)
        c = Fraction(oracles.ALPHA_PARAMS[3])
        s = c / (c + (1 - c) * Fraction(price))
        exact = -(phi1 * s - phi2 * s**3 - chi1 * (1 - s) + chi2 * (1 - s) ** 3) / nu
        assert got == [float(exact)] == [2.1666666666666665]


class TestBatchInvariance:
    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(
        calibrations(), st.floats(0.0, 0.2), st.floats(0.3, 3.0), st.integers(2, 300),
        st.sampled_from([1e-12, 1e-9]),
    )
    def test_sweep_rows_equal_one_level_solves(self, calibration, e_min, e_max, points, tol):
        # solving every level in one batch gives each level exactly the roots
        # of a one-level solve, or fails at the same level with the same message
        sched, spec = calibration
        sweep_cfg = SweepConfig(E_min=e_min, E_max=e_max, E_points=points)
        solver_cfg = SolverConfig(bisect_tol=tol)
        expected, error = [], None
        for e in np.linspace(e_min, e_max, points).tolist():
            try:
                expected.append(find_fixed_points(sched, spec, e, solver_cfg))
            except NoConvergence as exc:
                error = str(exc)
                break
        if error is not None:
            with pytest.raises(NoConvergence) as raised:
                sweep(sched, spec, sweep_cfg, solver_cfg)
            assert str(raised.value) == error
            return
        diagram = sweep(sched, spec, sweep_cfg, solver_cfg)
        assert len(diagram.rows) == points
        for row, roots in zip(diagram.rows, expected):
            assert row.roots == find_fixed_points(sched, spec, row.E, solver_cfg) == roots


class TestScalarParity:
    """The solver re-checks and classifies every root over arrays; each value
    equals the scalar ``excess_share`` -> ``h_ratio`` -> ``classify_stability``
    chain bit for bit, and a failed re-check names the same root."""

    @settings(max_examples=100, deadline=None, derandomize=True, database=None)
    @given(
        calibrations(),
        st.lists(st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 3.0), st.floats(1e-3, 1e3)),
                 min_size=1, max_size=40),
    )
    def test_h_ratio_array_equals_scalar_h_ratio(self, calibration, points):
        # each formula over arrays equals its own scalar calls bit for bit,
        # and the oracles' independent formulas too
        sched, spec = calibration
        shares, levels, prices = (np.array(column) for column in zip(*points))

        def assert_same_bits(column, values, name):
            assert column.tobytes() == np.array(values).tobytes(), name

        scalar = [h_ratio(spec, s, e) for s, e, _ in points]
        assert all(type(value) is float for h in scalar for value in h)
        for name, column in zip(HRatio._fields, h_ratio(spec, shares, levels)):
            assert_same_bits(column, [getattr(h, name) for h in scalar], name)
        pairs = [growth_factors(spec, s, e) for s, e, _ in points]
        oracle_pairs = [oracles.growth_pair(s, e, spec.coefficients) for s, e, _ in points]
        for k, column in enumerate(growth_factors(spec, shares, levels)):
            assert_same_bits(column, [pair[k] for pair in pairs], "growth_factors")
            assert_same_bits(column, [pair[k] for pair in oracle_pairs], "growth_pair")
        alpha_params = (sched.alpha_base, sched.alpha_slope, sched.alpha_lo, sched.alpha_hi)
        share = excess_share(sched, levels, prices)
        assert_same_bits(share, [excess_share(sched, e, p) for _, e, p in points], "excess_share")
        oracle_shares = [oracles.share_of_price(p, oracles.clip_alpha(e, alpha_params))
                         for _, e, p in points]
        assert_same_bits(share, oracle_shares, "share_of_price")
        assert_same_bits(
            excess_share_slope_E(sched, levels, prices),
            [excess_share_slope_E(sched, e, p) for _, e, p in points], "excess_share_slope_E",
        )

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(calibrations(), st.floats(0.0, 0.2), st.floats(0.3, 3.0), st.integers(2, 300))
    def test_sweep_roots_equal_the_scalar_chain(self, calibration, e_min, e_max, points):
        sched, spec = calibration
        cfg = SolverConfig(bisect_tol=1e-6)  # the residual bound is not under test here
        diagram = sweep(sched, spec, SweepConfig(e_min, e_max, points), cfg)
        for row in diagram.rows:
            for fp in row.roots:
                s = excess_share(sched, row.E, fp.p_star)
                h = h_ratio(spec, s, row.E)
                t_prime, label = classify_stability(s, h.dH_ds, cfg.marginal_tol)
                assert (fp.s_star.hex(), fp.t_prime.hex(), fp.stability) == (
                    s.hex(), t_prime.hex(), label)

    def test_first_root_above_the_bound_is_named(self, sched, cubic, diagram):
        # pick bisect_tol between the second and third largest residual
        # ratios of the default sweep, so exactly two roots fail, at two levels
        roots = []
        for i, row in enumerate(diagram.rows):
            for fp in row.roots:
                h = h_ratio(cubic, excess_share(sched, row.E, fp.p_star), row.E)
                residual = fp.p_star * h.value - fp.p_star
                roots.append((i, row.E, fp.p_star, residual))
        ratios = sorted(abs(r) / max(1.0, p) for _, _, p, r in roots)
        tol = 0.5 * (ratios[-2] + ratios[-3])
        failing = [root for root in roots if abs(root[3]) > tol * max(1.0, root[2])]
        assert len(failing) == 2 and failing[0][0] != failing[1][0]
        _, e, p_star, residual = failing[0]  # roots are in (level, ascending p) order
        with pytest.raises(NoConvergence) as raised:
            sweep(sched, cubic, solver_cfg=SolverConfig(bisect_tol=tol))
        assert str(raised.value) == (
            f"fixed point p*={p_star} at E={e} has residual {residual}, above the "
            f"bound bisect_tol * max(1, p*) = {tol * max(1.0, p_star)}"
        )


class TestZeroConstantTerm:
    def test_level_with_zero_constant_term_matches_dense_oracle(self):
        # nu*E - chi1 + chi2 is exactly 0 at E = (chi1 - chi2)/nu = 1, so s = 0
        # is a root of the gap, and the closed form must still find it
        learn = (0.5, 0.8, 1.0, 1.5, 1.0)
        spec = LearningSpec.cubic(*learn)
        assert gap_coefficients(spec.coefficients, 1.0)[-1] == 0.0
        diagram = sweep(flat_sched(0.5), spec, SweepConfig(E_min=0.0, E_max=2.0, E_points=5))
        row = diagram.rows[2]
        assert row.E == 1.0 and row.roots
        oracle_roots = oracles.dense_roots(
            1.0, n=200_001, alpha_params=(0.5, 0.0, 0.5, 0.5), learn_params=learn
        )
        assert len(row.roots) == len(oracle_roots)
        for fp, p in zip(row.roots, oracle_roots):
            assert abs(fp.p_star - p) <= 1e-9 * max(1.0, p)


class TestEducationDomain:
    def test_negative_E_min_rejected_naming_the_value(self):
        with pytest.raises(ConfigError, match=r"E_min=-2\.0"):
            SweepConfig(E_min=-2.0)

    def test_level_where_nu_E_overflows_is_a_rootless_row(self, sched):
        # 10 * 5e307 and 10 * 1e308 are beyond float range: g_H is infinite there
        spec = LearningSpec.cubic(nu=10.0, phi1=0.8, phi2=1.0, chi1=1.2, chi2=1.5)
        diagram = sweep(sched, spec, SweepConfig(E_min=0.01, E_max=1e308, E_points=3))
        assert [row.E for row in diagram.rows] == [0.01, 5e307, 1e308]
        assert diagram.rows[0].roots == find_fixed_points(sched, spec, 0.01)
        assert len(diagram.rows[0].roots) == 3
        assert diagram.rows[1].roots == diagram.rows[2].roots == []
        assert find_fixed_points(sched, spec, 5e307) == find_fixed_points(sched, spec, 1e308) == []


class TestExtremeWindows:
    @settings(max_examples=40, deadline=None, derandomize=True, database=None)
    @given(calibrations(), st.sampled_from([5e-324, 1e-300, 1e-12, 1e-6, 0.01]),
           st.sampled_from([math.inf, 1e300, 1.7e308, 14.0, 1e6]),
           st.floats(0.0, 0.5), st.floats(0.1, 1e300), st.integers(2, 50), st.floats(0.0, 1.0))
    @example((PreferenceSchedule(), LearningSpec.cubic(0.6, 0.8, 1.0, 1.5, 1.2)),
             0.01, math.inf, 0.0, 1.0, 101, 0.5)
    def test_every_call_returns_or_raises_a_package_error(self, calibration, p_min, p_max,
                                                          e_min, e_max, points, at):
        # valid windows out to the ends of the float range, and an infinite
        # p_max, whose crossings include the locus's end at s = 0; a level
        # whose roots need the exact fallback must not leave it on an overflow
        sched, spec = calibration
        cfg = SolverConfig(p_min=p_min, p_max=p_max)
        e_min = min(e_min, 0.5 * e_max)
        for call in (lambda: sweep(sched, spec, SweepConfig(e_min, e_max, points), cfg),
                     lambda: find_fixed_points(sched, spec, e_min + at * (e_max - e_min), cfg)):
            try:
                call()
            except DemandTierError:
                pass


    def test_coefficient_past_the_split_range_keeps_its_events(self):
        # nu = 1e305 is past the range of Dekker's split; the locus then lies
        # within E < 3e-305, which the grid, the saddle-nodes and the count
        # changes of the exact oracle resolve
        learn = (1e305, 0.8, 1.0, 1.2, 1.5)
        e_max, p_min, p_max = 3e-305, 1e-6, 1e6
        diagram = sweep(PreferenceSchedule(), LearningSpec.cubic(*learn),
                        SweepConfig(0.0, e_max, 7), SolverConfig(p_min=p_min, p_max=p_max))
        for i, e in enumerate(diagram.E.tolist()):
            want = oracles.exact_roots(e, p_min, p_max, oracles.ALPHA_PARAMS, learn)
            assert diagram.roots.p_star[diagram.roots.level == i].tolist() == want, e
        exact = oracles.saddle_node_exact(learn)
        assert len(exact) == 2
        assert sorted((sn.E_bar, sn.s_bar) for sn in diagram.thresholds) == exact
        want = oracles.count_changes(0.0, e_max, p_min, p_max, oracles.ALPHA_PARAMS, learn,
                                     points=7, tol=1e-318)
        got = [(t.E, t.count_lo, t.count_hi) for t in diagram.transitions]
        assert [counts for _, *counts in got] == [counts for _, *counts in want] == [
            [1, 3], [3, 1], [1, 0]]
        assert all(abs(a[0] - b[0]) <= 1e-317 for a, b in zip(got, want))


class TestScaling:
    def test_hundred_thousand_level_sweep(self, sched, cubic):
        # correctness at scale only: no timing is asserted
        diagram = sweep(sched, cubic, SweepConfig(E_points=100_000))
        assert len(diagram.rows) == 100_000
        found = sorted((sn.E_bar, sn.s_bar) for sn in diagram.thresholds)
        assert len(found) == 2
        for (e_bar, s_bar), (e_ref, s_ref) in zip(found, (SN_LOW, SN_HIGH)):
            assert abs(e_bar - e_ref) <= 1e-10
            assert abs(s_bar - s_ref) <= 1e-10


class TestSweepDeterminism:

    def test_repeat_runs_identical(self, sched, cubic):
        small = SweepConfig(E_min=0.13, E_max=0.27, E_points=15)
        a = sweep(sched, cubic, small)
        b = sweep(sched, cubic, small)
        for ra, rb in zip(a.rows, b.rows):
            assert [fp.p_star for fp in ra.roots] == [fp.p_star for fp in rb.roots]


class TestLinearSweep:
    def test_unique_root_no_thresholds(self, sched, linear):
        diagram = sweep(sched, linear)
        assert all(len(row.roots) <= 1 for row in diagram.rows)
        assert diagram.thresholds == []
        assert diagram.transitions == []


class TestChannelCondition:
    def test_clipped_weight_zeroes_preference_channel(self, cubic):
        # pin the clip at the E = 0.215 weight: same fixed points, but the
        # preference channel is off, so rhs = 0 and only the supply channel acts
        clipped = PreferenceSchedule(alpha_hi=0.78 + 0.16 * 0.215)
        roots = find_fixed_points(clipped, cubic, 0.215)
        assert len(roots) == 3
        cond = channel_condition(clipped, cubic, roots[0].p_star, 0.215)
        assert cond.rhs == 0.0
        assert cond.education_lowers_price
        assert (cond.lhs > 0.0) == (h_ratio(cubic, roots[0].s_star, 0.215).dH_ds > 0.0)

    def test_comparison_equals_sign_when_share_channel_positive(self, sched, cubic):
        checked = 0
        for e in oracles.E_VALUES:
            for fp in find_fixed_points(sched, cubic, e):
                h = h_ratio(cubic, fp.s_star, e)
                if h.dH_ds <= 1e-8:
                    continue
                cond = channel_condition(sched, cubic, fp.p_star, e)
                assert cond.education_lowers_price == (cond.lhs > cond.rhs)
                checked += 1
        assert checked >= 3

    def test_middle_root_derivative_against_fd(self, sched, cubic):
        middle = find_fixed_points(sched, cubic, 0.215)[1]
        cond = channel_condition(sched, cubic, middle.p_star, 0.215)
        h = 1e-7
        fd = (
            oracles.t_map(middle.p_star, 0.215 + h)
            - oracles.t_map(middle.p_star, 0.215 - h)
        ) / (2.0 * h)
        assert cond.dT_dE == pytest.approx(fd, rel=1e-6)
        # monotone-learning phase at the middle root: both channels push the
        # price down, even though the comparison itself is not satisfied
        assert cond.education_lowers_price
        assert cond.lhs < cond.rhs

    def test_sign_agreement_with_fd_everywhere(self, sched, cubic):
        h = 1e-7
        for e in oracles.E_VALUES:
            for fp in find_fixed_points(sched, cubic, e):
                cond = channel_condition(sched, cubic, fp.p_star, e)
                fd = (
                    oracles.t_map(fp.p_star, e + h) - oracles.t_map(fp.p_star, e - h)
                ) / (2.0 * h)
                assert cond.education_lowers_price == (fd < 0.0)

    def test_nonpositive_price_rejected(self, sched, cubic):
        for p in (0.0, -1.5):
            with pytest.raises(InvalidPrice, match=f"relative price must be > 0, got {p}$"):
                channel_condition(sched, cubic, p, 0.215)

    def test_degenerate_channel_at_saddle_node(self, sched, cubic):
        e_bar, s_bar = SN_HIGH
        p = oracles.price_of_share(s_bar, oracles.clip_alpha(e_bar))
        with pytest.raises(DegenerateChannel) as excinfo:
            channel_condition(sched, cubic, p, e_bar, marginal_tol=1e-6)
        assert excinfo.value.dT_dE < 0.0


class TestSweepConfig:
    def test_validation(self):
        with pytest.raises(ConfigError, match="E_m"):
            SweepConfig(E_min=0.4, E_max=0.1)
        with pytest.raises(ConfigError, match="E_points"):
            SweepConfig(E_points=1)
        with pytest.raises(ConfigError, match="refine_tol"):
            SweepConfig(refine_tol=-1.0)
