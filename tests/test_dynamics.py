import numpy as np
import pytest

from demandtier import (
    HouseholdBudget,
    LearningSpec,
    LearningVariant,
    TechnologyState,
    excess_share,
    excess_share_slope_E,
    growth_factors,
    h_ratio,
    price_map,
    simulate_path,
    solve_demand,
)
from demandtier.errors import (
    ConfigError,
    InvalidHorizon,
    InvalidPrice,
    InvalidState,
    ShareOutOfRange,
)

import oracles
from conftest import flat_sched, load_goldens


class TestExcessShare:
    def test_symmetric_case(self):
        assert excess_share(flat_sched(0.5), 0.0, 1.0) == pytest.approx(0.5, rel=1e-15)

    def test_weighted_case_against_demand_ratio(self):
        # closed form 0.78/1.22; the demand-ratio oracle rebuilds the share
        # from actual quantities with gamma_H > 0 to confirm the cancellation
        assert excess_share(flat_sched(0.78), 0.0, 2.0) == pytest.approx(
            0.78 / 1.22, rel=1e-14
        )
        sched = flat_sched(0.78, gamma_l=1.0, gamma_h=0.4)
        sol = solve_demand(sched, HouseholdBudget(income=25.0, price_H=2.0), 0.0)
        ratio = (sol.c_H - 0.4) / ((sol.c_H - 0.4) + (sol.c_L - 1.0))
        assert excess_share(sched, 0.0, 2.0) == pytest.approx(ratio, rel=1e-12)

    def test_vanishes_at_large_price(self, sched):
        values = [excess_share(sched, 0.1, p) for p in (1.0, 10.0, 1e3, 1e6, 1e9)]
        assert all(b < a for a, b in zip(values, values[1:]))
        assert values[-1] < 1e-8

    def test_strictly_decreasing_in_price(self, sched):
        grid = np.linspace(0.01, 14.0, 300)
        values = [excess_share(sched, 0.2, p) for p in grid]
        assert all(b < a for a, b in zip(values, values[1:]))
        assert all(0.0 < v < 1.0 for v in values)

    def test_nondecreasing_in_education(self, sched):
        for p in (0.3, 1.0, 5.0):
            values = [excess_share(sched, e, p) for e in np.linspace(0.0, 1.0, 50)]
            assert all(b >= a for a, b in zip(values, values[1:]))

    def test_invalid_price(self, sched):
        with pytest.raises(InvalidPrice):
            excess_share(sched, 0.1, 0.0)
        with pytest.raises(InvalidPrice):
            excess_share(sched, 0.1, -2.0)

    def test_slope_in_education_matches_fd(self, sched):
        h = 1e-7
        for p in (0.4, 1.7, 9.0):
            for e in (0.1, 0.25, 0.4):
                fd = (excess_share(sched, e + h, p) - excess_share(sched, e - h, p)) / (2 * h)
                assert excess_share_slope_E(sched, e, p) == pytest.approx(fd, rel=1e-6)


class TestGrowthFactors:
    def test_cubic_at_corners(self, cubic):
        g = growth_factors(cubic, 0.0, 0.0)
        assert g == (1.0, pytest.approx(0.7, rel=1e-15))
        g = growth_factors(cubic, 1.0, 0.0)
        assert g == (pytest.approx(0.8, rel=1e-15), 1.0)

    def test_linear_direct_substitution(self, linear):
        g = growth_factors(linear, 0.5, 0.1)
        assert g.g_H == pytest.approx(1.46, rel=1e-14)
        assert g.g_L == pytest.approx(1.6, rel=1e-14)

    def test_share_out_of_range(self, cubic):
        with pytest.raises(ShareOutOfRange):
            growth_factors(cubic, -0.01, 0.0)
        with pytest.raises(ShareOutOfRange):
            growth_factors(cubic, 1.01, 0.0)

    def test_strictly_positive_on_unit_interval(self, cubic, linear):
        for spec in (cubic, linear):
            for s in np.linspace(0.0, 1.0, 101):
                g = growth_factors(spec, s, 0.0)
                assert g.g_H > 0.0 and g.g_L > 0.0


class TestLearningSpecValidation:
    def test_nu_must_be_positive(self):
        with pytest.raises(ConfigError, match="nu"):
            LearningSpec.linear(nu=0.0, phi=0.8, chi=1.2)

    def test_linear_slopes_must_be_positive(self):
        with pytest.raises(ConfigError, match="phi"):
            LearningSpec.linear(nu=0.6, phi=0.0, chi=1.2)
        with pytest.raises(ConfigError, match="chi"):
            LearningSpec.linear(nu=0.6, phi=0.8, chi=-1.0)

    def test_cubic_positivity_guard(self):
        # g_H(1; 0) = 1 + 0.5 - 2.0 < 0
        with pytest.raises(ConfigError, match="phi1"):
            LearningSpec.cubic(nu=0.6, phi1=0.5, phi2=2.0, chi1=1.2, chi2=1.5)
        with pytest.raises(ConfigError, match="chi1"):
            LearningSpec.cubic(nu=0.6, phi1=0.8, phi2=1.0, chi1=0.5, chi2=2.0)

    def test_cubic_all_zero_rejected(self):
        with pytest.raises(ConfigError, match="degenerate"):
            LearningSpec.cubic(nu=0.6, phi1=0.0, phi2=0.0, chi1=0.0, chi2=0.0)

    def test_diagnostic_escape_hatch(self):
        spec = LearningSpec.linear(nu=0.0, phi=0.0, chi=1.2, validate=False)
        assert spec.nu == 0.0

    def test_string_variant_is_the_enum_member(self):
        spec = LearningSpec(variant="linear", phi=0.5)
        assert spec.variant is LearningVariant.LINEAR
        assert spec.coefficients == (0.6, 0.5, 0.0, 1.2, 0.0)
        # converted before the validate early return, and checked there too
        with pytest.raises(ConfigError, match="phi must be > 0 for linear"):
            LearningSpec(variant="linear", phi=0.0)
        assert LearningSpec(variant="linear", validate=False).variant is LearningVariant.LINEAR

    def test_unknown_string_variant_rejected(self):
        with pytest.raises(ConfigError, match="'linear' or 'cubic', got 'quadratic'"):
            LearningSpec(variant="quadratic")


class TestHRatio:
    def test_unity_at_fixed_point_share(self, cubic):
        for e, roots in load_goldens().items():
            for _, s_star, _, _ in roots:
                assert h_ratio(cubic, s_star, e).value == pytest.approx(1.0, abs=1e-10)

    def test_partials_match_central_differences(self, cubic, linear):
        rng = np.random.default_rng(7)
        h = 1e-7
        for spec in (cubic, linear):
            for _ in range(50):
                s = rng.uniform(0.02, 0.98)
                e = rng.uniform(0.0, 0.5)
                val = h_ratio(spec, s, e)
                fd_s = (h_ratio(spec, s + h, e).value - h_ratio(spec, s - h, e).value) / (2 * h)
                fd_e = (h_ratio(spec, s, e + h).value - h_ratio(spec, s, e - h).value) / (2 * h)
                assert val.dH_ds == pytest.approx(fd_s, rel=1e-6, abs=1e-9)
                assert val.dH_dE == pytest.approx(fd_e, rel=1e-6)

    def test_education_always_lowers_ratio(self, cubic, linear):
        for spec in (cubic, linear):
            for s in np.linspace(0.0, 1.0, 21):
                assert h_ratio(spec, s, 0.3).dH_dE < 0.0

    def test_linear_ratio_slope_always_negative(self, linear):
        for s in np.linspace(0.0, 1.0, 21):
            assert h_ratio(linear, s, 0.3).dH_ds < 0.0


class TestPriceMap:
    def test_fixed_points_map_to_themselves(self, sched, cubic):
        for e, roots in load_goldens().items():
            for p_star, _, _, _ in roots:
                assert abs(price_map(sched, cubic, p_star, e) - p_star) <= 1e-12 * max(1.0, p_star)

    def test_matches_independent_reimplementation(self, sched, cubic):
        for p in (0.05, 0.5, 1.0, 3.0, 13.0):
            for e in (0.0, 0.145, 0.33):
                assert price_map(sched, cubic, p, e) == pytest.approx(
                    oracles.t_map(p, e), rel=1e-14
                )

    def test_invalid_price(self, sched, cubic):
        with pytest.raises(InvalidPrice):
            price_map(sched, cubic, 0.0, 0.2)


class TestTechnologyState:
    def test_validation(self):
        with pytest.raises(InvalidState):
            TechnologyState(a_H=0.0, a_L=1.0)
        with pytest.raises(InvalidState):
            TechnologyState(a_H=1.0, a_L=-1.0)

    def test_relative_price(self):
        assert TechnologyState(a_H=2.0, a_L=5.0).relative_price == 2.5


class TestSimulatePath:
    def test_constant_at_fixed_point(self, sched, cubic):
        p_star = load_goldens()[0.28][0][0]
        path = simulate_path(
            sched, cubic, TechnologyState(a_H=1.0, a_L=p_star), 0.28, 10.0, 200
        )
        assert np.max(np.abs(path.p - p_star)) < 1e-10

    def test_converges_to_stable_root(self, sched, cubic):
        p_star = load_goldens()[0.28][0][0]
        path = simulate_path(sched, cubic, TechnologyState(a_H=1.0, a_L=5.0), 0.28, 10.0, 600)
        assert abs(path.p[-1] - p_star) < 1e-6

    def test_price_equals_productivity_ratio_exactly(self, sched, cubic):
        path = simulate_path(sched, cubic, TechnologyState(a_H=1.3, a_L=2.7), 0.2, 10.0, 100)
        assert np.array_equal(path.p, path.a_l / path.a_h)

    def test_share_in_unit_interval(self, sched, cubic):
        path = simulate_path(sched, cubic, TechnologyState(a_H=1.0, a_L=9.0), 0.1, 10.0, 300)
        assert np.all((path.s_q > 0.0) & (path.s_q < 1.0))

    def test_conjugate_price_iteration(self, sched, cubic):
        # iterating the price map directly must reproduce the productivity-ratio path
        e_path = np.linspace(0.1, 0.4, 500)
        path = simulate_path(sched, cubic, TechnologyState(a_H=1.0, a_L=4.0), e_path, 10.0, 500)
        p = 4.0
        direct = []
        for t in range(500):
            direct.append(p)
            p = price_map(sched, cubic, p, e_path[t])
        assert np.allclose(path.p, direct, rtol=1e-12, atol=0.0)

    def test_wage_never_matters(self, sched, cubic):
        a = simulate_path(sched, cubic, TechnologyState(a_H=1.0, a_L=4.0, wage=1.0), 0.2, 10.0, 200)
        b = simulate_path(sched, cubic, TechnologyState(a_H=1.0, a_L=4.0, wage=3.7), 0.2, 10.0, 200)
        for field in ("p", "s_q", "a_h", "a_l", "share_h", "utility"):
            assert np.array_equal(getattr(a, field), getattr(b, field), equal_nan=True)

    def test_non_interior_periods_flagged_not_fatal(self, cubic):
        # gamma_L = 4 and income 3.5: household below subsistence every period
        sched = flat_sched(0.78, gamma_l=4.0)
        path = simulate_path(sched, cubic, TechnologyState(a_H=1.0, a_L=4.0), 0.2, 3.5, 50)
        assert not path.interior.any()
        assert np.isnan(path.c_l).all()
        assert np.isfinite(path.p).all()

    def test_scalar_broadcast_and_path_inputs_agree(self, sched, cubic):
        a = simulate_path(sched, cubic, TechnologyState(a_H=1.0, a_L=4.0), 0.2, 10.0, 50)
        b = simulate_path(
            sched, cubic, TechnologyState(a_H=1.0, a_L=4.0),
            np.full(50, 0.2), np.full(50, 10.0), 50,
        )
        assert np.array_equal(a.p, b.p)

    def test_invalid_horizon(self, sched, cubic):
        state = TechnologyState(a_H=1.0, a_L=4.0)
        with pytest.raises(InvalidHorizon):
            simulate_path(sched, cubic, state, 0.2, 10.0, 0)
        with pytest.raises(InvalidHorizon):
            simulate_path(sched, cubic, state, np.array([0.2, 0.2]), 10.0, 5)
