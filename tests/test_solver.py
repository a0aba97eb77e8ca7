import random

import numpy as np
import pytest

from demandtier import (
    LearningSpec,
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
from demandtier.solver import STABILITY_ORDER

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
        # at E = 0.145 the one root's residual is a few ulps, far above 1e-300;
        # a one-level solve and a batch name it alike
        cfg = SolverConfig(bisect_tol=1e-300)
        with pytest.raises(NoConvergence, match="bisect_tol") as one_level:
            find_fixed_points(sched, cubic, 0.145, cfg)
        with pytest.raises(NoConvergence) as batch:
            solver_rows(sched, cubic, np.array([0.145, 0.215]), cfg)
        p_star = oracles.exact_roots(0.145)[0]
        assert str(one_level.value) == str(batch.value)
        assert str(one_level.value).startswith(f"fixed point p*={p_star} at E=0.145 has residual ")
        assert str(one_level.value).endswith(
            f", above the bound bisect_tol * max(1, p*) = {1e-300 * p_star}")

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


def _oracle_roots(sched, spec, e, cfg=None):
    cfg = cfg or SolverConfig()
    alpha_params = (sched.alpha_base, sched.alpha_slope, sched.alpha_lo, sched.alpha_hi)
    return oracles.exact_roots(e, cfg.p_min, cfg.p_max, alpha_params, spec.coefficients)


class TestCorrectRounding:
    """Every p* is the double nearest the exact root of the model as floats
    specify it, which ``oracles.exact_roots`` finds in rational arithmetic."""

    def test_headline_roots_equal_the_exact_oracle(self, sched, cubic):
        for e in oracles.E_VALUES:
            assert [fp.p_star for fp in find_fixed_points(sched, cubic, e)] == (
                oracles.exact_roots(e))

    def test_random_calibrations_equal_the_exact_oracle(self):
        rng = random.Random(20261019)
        roots = 0
        for _ in range(60):
            sched, spec, _, _ = random_calibration(rng)
            for e in [rng.uniform(0.0, 0.5) for _ in range(4)]:
                want = _oracle_roots(sched, spec, e)
                assert [fp.p_star for fp in find_fixed_points(sched, spec, e)] == want, e
                roots += len(want)
        assert roots >= 100

    def test_levels_next_to_saddle_nodes_equal_the_exact_oracle(self, monkeypatch):
        # a root pair about to collide: 1e-9 away the double-double step may
        # not certify a root, and closer in the rounded discriminant cannot
        # tell one real root from three; both send the level to exact
        # arithmetic, on one level's floats and on a calibration's array alike
        from demandtier import solver

        uncertified, exact = [], []
        polish, exact_prices = solver._polish, solver._exact_prices

        def counted_polish(*args):
            result = polish(*args)
            uncertified.append(np.count_nonzero(np.logical_not(result[1])))
            return result

        def counted_exact_prices(*args):
            exact.append(args[0])
            return exact_prices(*args)

        monkeypatch.setattr(solver, "_polish", counted_polish)
        monkeypatch.setattr(solver, "_exact_prices", counted_exact_prices)
        rng = random.Random(20261020)
        levels = roots = 0
        while levels < 120:
            sched, spec, _, learn = random_calibration(rng)
            batch, wants, start = [], [], len(exact)
            for e_bar, _ in oracles.saddle_node_closed_form(learn):
                if e_bar <= 1e-9:
                    continue
                for e in (e_bar - 1e-9, e_bar + 1e-9, e_bar - 1e-13, e_bar + 1e-13, e_bar):
                    want = _oracle_roots(sched, spec, e)
                    assert [fp.p_star for fp in find_fixed_points(sched, spec, e)] == want, e
                    batch.append(e)
                    wants.append(want)
                    levels += 1
                    roots += len(want)
            one_level = exact[start:]
            columns = solver_rows(sched, spec, np.array(batch))
            for i, want in enumerate(wants):
                assert columns.p_star[columns.level == i].tolist() == want, batch[i]
            # the array path sends the levels that the one-level path sends
            assert exact[start + len(one_level):] == one_level
        assert roots > levels
        assert sum(uncertified) >= 5 and len(exact) >= 2 * (levels // 5)

    @pytest.mark.parametrize("learn", [
        (0.6, 0.8, 0.0, 1.2, 1e-300),  # two roots near +-1e150 and one in (0, 1)
        (0.6, 0.8, 1.0, 1.2, -1.0 + 1e-12),
        (0.6, 0.8, 1.0, 1.2, -1.7e308),  # the gap's coefficients overflow
    ])
    def test_extreme_cubics_equal_the_exact_oracle(self, sched, learn):
        spec = LearningSpec.cubic(*learn)
        levels = [0.05, 0.1, 0.215, 0.3, 0.45]
        columns = solver_rows(sched, spec, np.array(levels))
        for i, e in enumerate(levels):
            want = oracles.exact_roots(e, learn_params=learn)
            assert [fp.p_star for fp in find_fixed_points(sched, spec, e)] == want, e
            assert columns.p_star[columns.level == i].tolist() == want, e


class TestOneLevelAndBatch:
    """``find_fixed_points`` solves one level on floats, a sweep all levels on
    arrays; both give the same bits and the same errors."""

    def test_one_level_solves_equal_the_sweep_columns(self):
        # floats for one level, arrays for a sweep: the same bits, also on
        # levels next to a saddle-node, where the fallbacks run
        rng = random.Random(20261021)
        for _ in range(12):
            sched, spec, _, learn = random_calibration(rng)
            e_min, e_max = rng.uniform(0.0, 0.1), rng.uniform(0.3, 0.5)
            grid = np.linspace(e_min, e_max, rng.randrange(50, 400))
            thresholds = oracles.saddle_node_closed_form(learn)
            near = [e_bar + d for e_bar, _ in thresholds if e_bar > 1e-9
                    for d in (-1e-9, -1e-13, 0.0, 1e-13, 1e-9)]
            levels = np.sort(np.concatenate([grid, near]))
            columns = solver_rows(sched, spec, levels)
            expected = [(i, fp.p_star, fp.s_star, fp.t_prime, fp.stability)
                        for i, e in enumerate(levels.tolist())
                        for fp in find_fixed_points(sched, spec, e)]
            got = list(zip(columns.level.tolist(), columns.p_star.tolist(),
                           columns.s_star.tolist(), columns.t_prime.tolist(),
                           [STABILITY_ORDER[c] for c in columns.stability.tolist()]))
            assert got == expected

    def test_negative_level_rejected_on_both_paths(self, sched, cubic):
        message = "education level must be >= 0, got -0.25"
        with pytest.raises(ConfigError, match=f"^{message}$"):
            find_fixed_points(sched, cubic, -0.25)
        with pytest.raises(ConfigError, match=f"^{message}$"):
            solver_rows(sched, cubic, np.array([0.1, -0.25]))


def solver_rows(sched, spec, levels, cfg=None):
    from demandtier.solver import _fixed_point_rows

    return _fixed_point_rows(sched, spec, levels, cfg or SolverConfig())


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
