import random

import numpy as np
import pytest

from demandtier import (
    SolverConfig,
    Stability,
    TechnologyState,
    classify_stability,
    excess_share,
    find_fixed_points,
    h_ratio,
    price_map,
    simulate_path,
)
from demandtier.errors import ConfigError, NoConvergence, ShareOutOfRange

import oracles
from conftest import load_goldens, random_calibration

GOLDEN = load_goldens()


class TestRootStructure:
    """The headline calibration: 1 stable / 3 (stable-unstable-stable) / 1 stable."""

    def test_single_stable_root_low_education(self, sched, cubic):
        roots = find_fixed_points(sched, cubic, 0.145)
        assert len(roots) == 1
        assert roots[0].stability is Stability.STABLE

    def test_three_roots_middle_education(self, sched, cubic):
        roots = find_fixed_points(sched, cubic, 0.215)
        assert [fp.stability for fp in roots] == [
            Stability.STABLE,
            Stability.UNSTABLE,
            Stability.STABLE,
        ]
        assert roots[0].p_star < roots[1].p_star < roots[2].p_star

    def test_single_stable_root_after_collision(self, sched, cubic):
        roots = find_fixed_points(sched, cubic, 0.280)
        assert len(roots) == 1
        assert roots[0].stability is Stability.STABLE

    def test_against_golden_oracle_values(self, sched, cubic):
        for e, golden in GOLDEN.items():
            roots = find_fixed_points(sched, cubic, e)
            assert len(roots) == len(golden)
            for fp, (p_star, s_star, _, label) in zip(roots, golden):
                assert abs(fp.p_star - p_star) <= 1e-9 * max(1.0, p_star)
                assert fp.s_star == pytest.approx(s_star, rel=1e-9)
                assert fp.stability.value == label

    def test_no_roots_is_legal(self, sched, cubic):
        assert find_fixed_points(sched, cubic, 0.05) == []
        assert find_fixed_points(sched, cubic, 0.45) == []


class TestResiduals:
    def test_residual_bound_via_public_map(self, sched, cubic):
        cfg = SolverConfig()
        for e in oracles.E_VALUES:
            for fp in find_fixed_points(sched, cubic, e, cfg):
                residual = price_map(sched, cubic, fp.p_star, e) - fp.p_star
                assert abs(residual) <= cfg.bisect_tol * max(1.0, fp.p_star)

    def test_dedup_gap(self, sched, cubic):
        # distinct roots, strictly increasing and well separated
        for e in oracles.E_VALUES:
            roots = [fp.p_star for fp in find_fixed_points(sched, cubic, e)]
            assert all(b - a > 1e-7 for a, b in zip(roots, roots[1:]))

    def test_root_above_bound_raises(self, sched, cubic):
        # at E = 0.145 the one root's residual is a few ulps, far above 1e-300
        with pytest.raises(NoConvergence, match="bisect_tol"):
            find_fixed_points(sched, cubic, 0.145, SolverConfig(bisect_tol=1e-300))

    def test_fixed_point_characterizations_agree(self, sched, cubic):
        # H(S(p*)) = 1 is the same equation as T(p*) = p*
        for e in oracles.E_VALUES:
            for fp in find_fixed_points(sched, cubic, e):
                s = excess_share(sched, e, fp.p_star)
                assert abs(h_ratio(cubic, s, e).value - 1.0) <= 1e-10


def assert_matches_oracle(roots, oracle_roots):
    assert len(roots) == len(oracle_roots)
    for fp, p in zip(roots, oracle_roots):
        assert abs(fp.p_star - p) <= 1e-9 * max(1.0, p)


class TestOracleAgreement:
    def test_headline_roots_match_dense_oracle(self, sched, cubic):
        for e in oracles.E_VALUES:
            assert_matches_oracle(find_fixed_points(sched, cubic, e), oracles.dense_roots(e))

    def test_random_calibrations_match_dense_oracle(self):
        # near each saddle-node, 1e-6 either side, a root pair is about to
        # appear or has just appeared: the hardest levels to count right
        rng = random.Random(20261018)
        near_threshold = 0
        for _ in range(10):
            sched, spec, alpha_params, learn = random_calibration(rng)
            levels = [rng.uniform(0.05, 0.45) for _ in range(3)]
            if learn[2] or learn[4]:
                for e_bar, _ in oracles.saddle_node_closed_form(learn):
                    if 0.0 < e_bar < 1.0:
                        levels += [e_bar - 1e-6, e_bar + 1e-6]
                        near_threshold += 1
            for e in levels:
                oracle_roots = oracles.dense_roots(
                    e, n=200_001, alpha_params=alpha_params, learn_params=learn
                )
                assert_matches_oracle(find_fixed_points(sched, spec, e), oracle_roots)
        assert near_threshold >= 4


class TestStability:
    def test_slope_matches_finite_difference(self, sched, cubic):
        for e in oracles.E_VALUES:
            for fp in find_fixed_points(sched, cubic, e):
                h = 1e-6 * fp.p_star
                fd = (
                    price_map(sched, cubic, fp.p_star + h, e)
                    - price_map(sched, cubic, fp.p_star - h, e)
                ) / (2.0 * h)
                assert fp.t_prime == pytest.approx(fd, rel=1e-5)

    def test_marginal_when_ratio_slope_vanishes(self):
        t_prime, label = classify_stability(0.37, 0.0)
        assert t_prime == 1.0
        assert label is Stability.MARGINAL

    def test_arithmetic_case(self):
        t_prime, label = classify_stability(0.5, 4.0)
        assert t_prime == 0.0
        assert label is Stability.STABLE

    def test_share_validation(self):
        with pytest.raises(ShareOutOfRange):
            classify_stability(0.0, 1.0)
        with pytest.raises(ShareOutOfRange):
            classify_stability(1.0, 1.0)

    def test_linear_learning_interior_roots_unstable(self, sched, linear):
        # monotone learning: the ratio falls in the share, so any interior
        # fixed point fails the stability test
        found_any = False
        for e in oracles.E_VALUES:
            for fp in find_fixed_points(sched, linear, e):
                found_any = True
                assert abs(fp.t_prime) > 1.0
                assert fp.stability is Stability.UNSTABLE
        assert found_any


class TestBasinConsistency:
    def test_stable_roots_attract(self, sched, cubic):
        cfg = SolverConfig()
        for e in oracles.E_VALUES:
            for fp in find_fixed_points(sched, cubic, e, cfg):
                if fp.stability is not Stability.STABLE:
                    continue
                for sign in (-1.0, 1.0):
                    start = fp.p_star + sign * 1e-6
                    path = simulate_path(
                        sched, cubic, TechnologyState(a_H=1.0, a_L=start), e, 10.0, 500
                    )
                    assert abs(path.p[-1] - fp.p_star) < 1e-9

    def test_unstable_root_repels(self, sched, cubic):
        cfg = SolverConfig()
        unstable = [
            fp for fp in find_fixed_points(sched, cubic, 0.215, cfg)
            if fp.stability is Stability.UNSTABLE
        ]
        assert len(unstable) == 1
        fp = unstable[0]
        for sign in (-1.0, 1.0):
            start = fp.p_star + sign * 1e-6
            path = simulate_path(
                sched, cubic, TechnologyState(a_H=1.0, a_L=start), 0.215, 10.0, 500
            )
            assert np.max(np.abs(path.p - fp.p_star)) > 1e-3


class TestSolverConfig:
    def test_defaults(self):
        cfg = SolverConfig()
        assert (cfg.p_min, cfg.p_max) == (0.01, 14.0)
        assert (cfg.bisect_tol, cfg.marginal_tol) == (1e-12, 1e-8)

    def test_validation(self):
        with pytest.raises(ConfigError, match="p_m"):
            SolverConfig(p_min=2.0, p_max=1.0)
        with pytest.raises(ConfigError, match="bisect_tol"):
            SolverConfig(bisect_tol=0.0)
