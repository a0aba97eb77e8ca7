import random

import numpy as np
import pytest
from hypothesis import given, settings
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
    refine_saddle_node,
    sweep,
)
from demandtier.dynamics import gap_coefficients
from demandtier.errors import ConfigError, DegenerateChannel, InvalidPrice, NoConvergence
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

    def test_saddle_node_above_refine_tol_stays_a_flagged_transition(self, sched, cubic,
                                                                     diagram):
        strict = sweep(sched, cubic, SweepConfig(refine_tol=1e-30))
        assert strict.thresholds == []
        assert [(t.E, t.count_lo, t.count_hi) for t in strict.transitions] == [
            (t.E, t.count_lo, t.count_hi) for t in diagram.transitions]
        notes = [t.note for t in strict.transitions if abs(t.count_hi - t.count_lo) == 2]
        assert len(notes) == 2 and all(n.startswith("saddle-node residuals") for n in notes)

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


class TestRefineSaddleNode:
    def test_residuals_by_definition(self, cubic):
        sn = refine_saddle_node(cubic, (0.215, 0.280))
        assert sn.residuals[0] <= 1e-8
        assert sn.residuals[1] <= 1e-8
        assert 0.215 < sn.E_bar < 0.280

    def test_matches_closed_form(self, cubic):
        sn = refine_saddle_node(cubic, (0.215, 0.280))
        assert sn.E_bar == pytest.approx(SN_HIGH[0], abs=1e-8)
        assert sn.s_bar == pytest.approx(SN_HIGH[1], abs=1e-8)

    def test_linear_learning_never_converges(self, linear):
        # dH/ds has constant sign under monotone learning: no saddle-node exists
        with pytest.raises(NoConvergence, match="no saddle-node"):
            refine_saddle_node(linear, (0.1, 0.4))

    def test_bracket_without_saddle_node(self, cubic):
        with pytest.raises(NoConvergence, match="no saddle-node"):
            refine_saddle_node(cubic, (0.09, 0.095))

    def test_residuals_above_tolerance_raise(self, cubic):
        with pytest.raises(NoConvergence, match="residuals"):
            refine_saddle_node(cubic, (0.215, 0.280), refine_tol=1e-30)


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

    The linear and cubic specs are valid; the ``validate=False`` specs cancel
    the gap's leading coefficients -(phi2 + chi2), 3*chi2 and phi1 + chi1 - 3*chi2.
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
    elif kind == "degree 0":
        phi1 = draw(_UNIT)
        spec = LearningSpec.cubic(nu, phi1, 0.0, -phi1, 0.0, validate=False)
    elif kind == "degree 1":
        spec = LearningSpec.cubic(nu, draw(_UNIT), 0.0, draw(_UNIT), 0.0, validate=False)
    else:
        chi2 = draw(_UNIT)
        spec = LearningSpec.cubic(nu, draw(_UNIT), -chi2, draw(_UNIT), chi2, validate=False)
    return sched, spec


class TestEvents:
    @settings(max_examples=100, deadline=None, derandomize=True, database=None)
    @given(calibrations(), st.floats(0.0, 0.2), st.floats(0.3, 3.0), st.integers(2, 2000))
    def test_grid_counts_follow_the_running_count(self, calibration, e_min, e_max, points):
        # at each level away from every event, the grid's root count is the
        # count that the transitions run up to that level
        sched, spec = calibration
        diagram = sweep(sched, spec, SweepConfig(e_min, e_max, points))
        if gap_coefficients(spec, 0.0)[:3] == (0.0, 0.0, 0.0):
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
        assert gap_coefficients(spec, 1.0)[-1] == 0.0
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
