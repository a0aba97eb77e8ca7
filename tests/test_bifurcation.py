import random

import pytest

from demandtier import (
    LearningSpec,
    PreferenceSchedule,
    Stability,
    SweepConfig,
    channel_condition,
    find_fixed_points,
    h_ratio,
    refine_saddle_node,
    sweep,
)
from demandtier.errors import ConfigError, DegenerateChannel, NoConvergence

import oracles
from conftest import random_calibration

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
        brackets = [(t.E_lo, t.E_hi) for t in diagram.transitions]
        assert any(0.145 < lo < hi < 0.215 for lo, hi in brackets)
        assert any(0.215 < lo < hi < 0.280 for lo, hi in brackets)

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

    def test_containment_in_originating_bracket(self, diagram):
        refined = [t for t in diagram.transitions if t.saddle is not None]
        assert len(refined) == 2
        for t in refined:
            assert t.E_lo < t.saddle.E_bar < t.E_hi
            assert 0.0 < t.saddle.s_bar < 1.0

    def test_against_closed_form_oracle(self, diagram):
        for sn, (e_bar, s_bar) in zip(sorted(diagram.thresholds, key=lambda s: s.E_bar),
                                      (SN_LOW, SN_HIGH)):
            assert sn.E_bar == pytest.approx(e_bar, abs=1e-7)
            assert sn.s_bar == pytest.approx(s_bar, abs=1e-7)

    def test_window_edge_transitions_flagged_not_refined(self, diagram):
        flagged = [t for t in diagram.transitions if t.saddle is None]
        # the high-p root enters through p_max near E ~ 0.09 and the low-p root
        # leaves through p_min near E ~ 0.33: both are window effects, not collisions
        assert len(flagged) == 2
        assert {(t.count_lo, t.count_hi) for t in flagged} == {(0, 1), (1, 0)}
        for t in flagged:
            assert "no saddle-node lies in the bracket" in t.note

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
        # a 10x denser education grid localizes the same two collisions
        dense = sweep(sched, cubic, SweepConfig(E_points=801))
        assert len(dense.thresholds) == len(diagram.thresholds) == 2
        for a, b in zip(
            sorted(dense.thresholds, key=lambda s: s.E_bar),
            sorted(diagram.thresholds, key=lambda s: s.E_bar),
        ):
            assert a.E_bar == pytest.approx(b.E_bar, abs=1e-10)
            assert a.s_bar == pytest.approx(b.s_bar, abs=1e-10)


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
