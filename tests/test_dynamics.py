import math
import random
from fractions import Fraction

import numpy as np
import pytest

from demandtier import (
    HouseholdBudget,
    HRatio,
    LearningSpec,
    LearningVariant,
    PreferenceSchedule,
    TechnologyState,
    alpha_of,
    dynamics,
    excess_share,
    excess_share_slope_E,
    growth_factors,
    h_ratio,
    price_map,
    simulate_path,
    solve_demand,
)
from demandtier.dynamics import _simulate_arrays
from demandtier.errors import (
    ConfigError,
    InvalidHorizon,
    InvalidPrice,
    InvalidState,
    NumericalOverflow,
    ShareOutOfRange,
)

import oracles
from conftest import (
    flat_sched,
    level_scaling_case,
    load_goldens,
    random_calibration,
    slow_learning,
)


def assert_levels_step(spec, alpha, e, a_h0, a_l0):
    """Run the recurrence and check each level against ``growth_factors`` times
    the level before, bit for bit, and p against a_L/a_H; returns its arrays."""
    p, s, a_h, a_l = _simulate_arrays(spec, a_h0, a_l0, alpha, e)
    with np.errstate(divide="ignore", invalid="ignore"):
        assert np.array_equal(p, a_l / a_h)
    g = growth_factors(spec, s[:-1], e[:-1])
    assert a_h[1:].tobytes() == (g.g_H * a_h[:-1]).tobytes()
    assert a_l[1:].tobytes() == (g.g_L * a_l[:-1]).tobytes()
    return p, s, a_h, a_l


@pytest.fixture
def blocks(monkeypatch):
    """(start, resume) of each block step the recurrence takes."""
    calls = []

    def spy(*args):
        resume = extrapolate(*args)
        calls.append((args[3], resume[0]))
        return resume

    extrapolate = dynamics._extrapolate
    monkeypatch.setattr(dynamics, "_extrapolate", spy)
    return calls


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
        with pytest.raises(InvalidPrice, match="got -2.0$"):  # an array names its first
            excess_share(sched, 0.1, np.array([1.0, -2.0, 0.0]))

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
        with pytest.raises(ShareOutOfRange, match="got nan$"):  # an array names its first
            growth_factors(cubic, np.array([0.5, np.nan, 1.01]), 0.0)

    def test_strictly_positive_on_unit_interval(self, cubic, linear):
        for spec in (cubic, linear):
            for s in np.linspace(0.0, 1.0, 101):
                g = growth_factors(spec, s, 0.0)
                assert g.g_H > 0.0 and g.g_L > 0.0

    def test_product_cubes_within_three_ulp_of_the_exact_cube(self):
        # phi2*s*s*s rounds three products, each to within a relative 2^-53, so
        # it is within (1 + 2^-53)^3 - 1 of the exact phi2*s^3 relative, which
        # is 3 ulp of it to first order; so is chi2*u*u*u, with u = 1 - s as
        # rounded. The worst of these samples is about 2 ulp
        rng = random.Random(20261019)
        gamma3 = (1 + Fraction(1, 2**53)) ** 3 - 1
        for _ in range(2000):
            s, coeff = rng.random(), rng.uniform(0.0, 3.0)
            u = 1.0 - s
            spec = LearningSpec.cubic(nu=0.6, phi1=coeff, phi2=coeff, chi1=coeff, chi2=coeff)
            cube_s, cube_u = coeff * s * s * s, coeff * u * u * u
            assert growth_factors(spec, s, 0.0) == (1.0 + coeff * s - cube_s,
                                                    1.0 + coeff * u - cube_u)
            for product, x in ((cube_s, s), (cube_u, u)):
                exact = Fraction(coeff) * Fraction(x) ** 3
                error = abs(Fraction(product) - exact)
                assert error <= gamma3 * exact
                assert error <= 3 * Fraction(math.ulp(float(exact)))


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

    def test_string_variant_is_the_enum_member(self):
        spec = LearningSpec(variant="linear", phi=0.5)
        assert spec.variant is LearningVariant.LINEAR
        assert spec.coefficients == (0.6, 0.5, 0.0, 1.2, 0.0)
        # converted before the channels are checked, and checked as the member
        with pytest.raises(ConfigError, match="phi must be > 0 for linear"):
            LearningSpec(variant="linear", phi=0.0)

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

    # g_H = 1 + E at s = 0; a finite g_H from 2^512 on has a square beyond the floats
    GROWS_WITH_E = LearningSpec.cubic(nu=1.0, phi1=0.0, phi2=0.0, chi1=1.2, chi2=1.5)
    BELOW = math.nextafter(math.ldexp(1.0, 512), 0.0)

    def test_largest_g_h_with_a_finite_square_gives_finite_partials(self):
        # under the suite's warning filter a RuntimeWarning of the square would fail
        h = h_ratio(self.GROWS_WITH_E, 0.0, self.BELOW)
        assert all(math.isfinite(value) for value in h)
        assert h.dH_dE < 0.0
        column = h_ratio(self.GROWS_WITH_E, np.zeros(2), np.array([0.5, self.BELOW]))
        for name, values in zip(HRatio._fields, column):
            assert isinstance(values, np.ndarray)
            assert values[1] == getattr(h, name)

    def test_g_h_of_two_to_the_512_raises_naming_g_h_and_e(self):
        named = (r"^g_H = 1\.3407807929942597e\+154 at E = 1\.3407807929942597e\+154 is too "
                 r"large: its square, in dH/ds and dH/dE, overflows$")
        with pytest.raises(NumericalOverflow, match=named):
            h_ratio(self.GROWS_WITH_E, 0.0, math.ldexp(1.0, 512))
        with pytest.raises(NumericalOverflow, match=named):  # an array names its first
            h_ratio(self.GROWS_WITH_E, np.zeros(3),
                    np.array([self.BELOW, math.ldexp(1.0, 512), math.ldexp(1.0, 600)]))

    @pytest.mark.parametrize("E", [math.inf, -math.inf])
    def test_infinite_g_h_is_not_an_overflow(self, E):
        # inf squares to inf; dH/ds is then inf/inf, NaN, on arrays without
        # numpy's invalid-value warning, which the suite's filter makes an error
        h = h_ratio(self.GROWS_WITH_E, 0.0, E)
        assert h.value == 0.0 and math.isnan(h.dH_ds) and h.dH_dE == 0.0
        assert list(np.signbit([h.value, h.dH_dE])) == [E < 0.0, True]
        column = h_ratio(self.GROWS_WITH_E, np.zeros(1), np.array([E]))
        assert np.array_equal(column, [[value] for value in h], equal_nan=True)
        assert list(np.signbit([column.value[0], column.dH_dE[0]])) == [E < 0.0, True]

    # nu*E overflows to inf at E = 1e10, as it does at E = inf
    HUGE_NU = LearningSpec.cubic(1e300, 0.8, 1.0, 1.2, 1.5)

    @pytest.mark.parametrize("E", [1e10, math.inf])
    @pytest.mark.parametrize("array_s", [True, False], ids=["array-s", "float-s"])
    def test_an_overflowing_g_h_warns_on_arrays_no_more_than_on_floats(self, E, array_s):
        # the float calls give g_H = inf silently; under the suite's warning
        # filter a RuntimeWarning from the array calls would fail the test
        g, h = growth_factors(self.HUGE_NU, 0.5, E), h_ratio(self.HUGE_NU, 0.5, E)
        assert g.g_H == math.inf and h.value == h.dH_dE == 0.0 and math.isnan(h.dH_ds)
        s = np.array([0.5]) if array_s else 0.5
        g_column = growth_factors(self.HUGE_NU, s, np.array([E]))
        h_column = h_ratio(self.HUGE_NU, s, np.array([E]))
        assert np.array_equal(np.broadcast_arrays(*g_column), [[value] for value in g])
        assert np.array_equal(h_column, [[value] for value in h], equal_nan=True)


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


class TestSimulateArrays:
    def test_price_is_productivity_ratio(self, sched, cubic):
        e = np.full(32, 0.215)
        p, s, a_h, a_l = _simulate_arrays(cubic, 1.0, 4.0, alpha_of(sched, e), e)
        assert np.array_equal(p, a_l / a_h)
        assert np.all((s > 0.0) & (s < 1.0))

    @pytest.mark.parametrize("a_l0", [5e-324, 0.0])
    def test_price_after_a_h_underflows(self, a_l0):
        # g_H falls to about 0.01 near s = 1 and drives a_H to 0 in one step; the
        # price is then the IEEE quotient a_L/0 (inf, or NaN for 0/0), not an error
        spec = LearningSpec.cubic(nu=0.6, phi1=0.0, phi2=0.99, chi1=1.2, chi2=1.5)
        p, _, a_h, a_l = _simulate_arrays(spec, 1e-322, a_l0, np.full(8, 0.97), np.zeros(8))
        assert np.any(a_h == 0.0)
        with np.errstate(divide="ignore", invalid="ignore"):
            assert np.array_equal(p, a_l / a_h, equal_nan=True)

    def test_levels_equal_growth_factors_times_the_level_before(self):
        # the loop and growth_factors take the same products in the same order, on a
        # list of levels and on one level, both read through memoryviews
        rng = np.random.default_rng(20261018)
        for i in range(200):
            sched = PreferenceSchedule(alpha_base=rng.uniform(0.3, 0.9),
                                       alpha_slope=rng.uniform(0.0, 0.3))
            if i % 2:
                spec = LearningSpec.linear(*rng.uniform(0.1, 1.5, 3))
            else:  # 1 + c1*x - c2*x^3 is least on [0, 1] at x = 1, so c2 < 1 + c1
                nu, phi1, chi1 = rng.uniform(0.1, 1.5, 3)
                spec = LearningSpec.cubic(nu, phi1, rng.uniform(0.0, 1.0) * (1.0 + phi1),
                                          chi1, rng.uniform(0.0, 1.0) * (1.0 + chi1))
            e = rng.uniform(0.0, 0.5, 60) if i % 4 < 2 else np.full(60, rng.uniform(0.0, 0.5))
            assert_levels_step(spec, alpha_of(sched, e), e, rng.uniform(0.5, 2.0),
                               rng.uniform(0.5, 8.0))

    def test_levels_step_through_the_blocks_of_the_default_path(self, sched, cubic, blocks):
        e = np.full(16_000, 0.28)
        assert_levels_step(cubic, alpha_of(sched, e), e, 1.0, 5.0)
        # the share holds over most of the path: the blocks, not the loop, carry it
        assert sum(resume - start for start, resume in blocks) > 0.75 * len(e)

    @pytest.mark.parametrize("pieces", [1, 4])
    def test_levels_step_through_the_blocks_of_random_paths(self, blocks, pieces):
        # slowed learning keeps the levels finite; E is one level or constant pieces
        rng, taken = random.Random(20261021 + pieces), 0
        for _ in range(12):
            sched, spec, _, _ = random_calibration(rng)
            horizon = rng.randint(2000, 5000)
            cuts = sorted(rng.sample(range(1, horizon), pieces - 1))
            e = np.repeat([rng.uniform(0.0, 0.45) for _ in range(pieces)],
                          np.diff([0, *cuts, horizon]))
            blocks.clear()
            assert_levels_step(slow_learning(spec, horizon, 600.0), alpha_of(sched, e), e,
                               rng.uniform(0.5, 2.0), rng.uniform(0.5, 8.0))
            taken += bool(blocks)
        assert taken >= 4  # 9 and 6 of the 12 paths take blocks

    def test_a_run_that_ends_inside_a_block(self, sched, cubic, blocks):
        # the default path's share holds from about period 1300; E drops at 1400
        e = np.repeat([0.28, 0.145], [1400, 2600])
        assert_levels_step(cubic, alpha_of(sched, e), e, 1.0, 5.0)
        assert any(start < 1400 and resume == 1400 for start, resume in blocks)

    def test_a_h_underflows_to_0_after_a_run(self, blocks):
        # the share holds at 1 while g_H = 0.01 drives a_H down; once a_H is 0 the
        # price is inf and the share holds at 0, a second run
        spec = LearningSpec.cubic(nu=0.6, phi1=0.0, phi2=0.99, chi1=1.2, chi2=1.5)
        a_h = assert_levels_step(spec, np.full(2000, 0.97), np.zeros(2000), 1.0, 5e-324)[2]
        zero = np.argmax(a_h == 0.0)
        assert 0 < blocks[0][0] < blocks[0][1] < zero and a_h[-1] == 0.0
        assert blocks[-1][1] == len(a_h)


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

    @pytest.mark.parametrize("h", [1, 2, 37, 200])
    def test_one_level_rows_before_a_change_of_E_equal_the_one_level_path(self, sched, cubic, h):
        # both paths read their inputs through memoryviews; the longer one maps libm
        # once per run of E, the one-level path once
        state = TechnologyState(a_H=1.3, a_L=4.1)
        one = simulate_path(sched, cubic, state, 0.28, 10.0, h)
        changed = simulate_path(sched, cubic, state, [0.28] * h + [0.145] * 60, 10.0, h + 60)
        for field in ("p", "s_q", "a_h", "a_l", "c_l", "c_h", "share_h", "utility", "interior"):
            assert getattr(changed, field)[:h].tobytes() == getattr(one, field).tobytes(), field

    def test_scalar_broadcast_and_path_inputs_agree(self, sched, cubic):
        a = simulate_path(sched, cubic, TechnologyState(a_H=1.0, a_L=4.0), 0.2, 10.0, 50)
        b = simulate_path(
            sched, cubic, TechnologyState(a_H=1.0, a_L=4.0),
            np.full(50, 0.2), np.full(50, 10.0), 50,
        )
        assert np.array_equal(a.p, b.p)

    @pytest.mark.parametrize("e_path, income, message", [
        ([0.1, -0.5, 0.2, -1.0], 10.0,
         "education level must be >= 0, got -0.5: key 'E' in section 'simulation', period 1"),
        (0.2, -5, "income must be > 0, got -5.0: key 'income' in section 'simulation'"),
        (0.2, np.array([10.0, 11.0, 0.0]),
         "income must be > 0, got 0.0: key 'income' in section 'simulation', period 2"),
        # a negative scalar E may be a --E override: named by its value alone
        (-1, 10.0, "education level must be >= 0, got -1.0"),
    ])
    def test_bad_input_raises_before_the_recurrence(self, sched, cubic, monkeypatch, e_path,
                                                    income, message):
        def recurrence(*_):
            raise AssertionError("the recurrence ran")

        monkeypatch.setattr(dynamics, "_simulate_arrays", recurrence)
        with pytest.raises(ConfigError) as info:
            simulate_path(sched, cubic, TechnologyState(a_H=1.0, a_L=4.0), e_path, income, 3)
        assert str(info.value) == message

    def test_invalid_horizon(self, sched, cubic):
        state = TechnologyState(a_H=1.0, a_L=4.0)
        with pytest.raises(InvalidHorizon):
            simulate_path(sched, cubic, state, 0.2, 10.0, 0)
        with pytest.raises(InvalidHorizon):
            simulate_path(sched, cubic, state, np.array([0.2, 0.2]), 10.0, 5)


class TestLevelScaling:
    @pytest.mark.parametrize("k", [-40, -7, 3, 60])
    def test_levels_scale_by_a_power_of_two_and_nothing_else_moves(self, k):
        # the dynamics read the levels only through a_L/a_H, so scaling both
        # initial levels by 2^k scales every level by 2^k exactly and leaves
        # the bits of each other column as they were
        rng = random.Random(2024)
        for case in range(40):
            sched, spec, state, e_path, income, horizon = level_scaling_case(rng)
            scaled_state = TechnologyState(a_H=math.ldexp(state.a_H, k),
                                           a_L=math.ldexp(state.a_L, k))
            base = simulate_path(sched, spec, state, e_path, income, horizon)
            scaled = simulate_path(sched, spec, scaled_state, e_path, income, horizon)
            for field in ("p", "s_q", "c_l", "c_h", "share_h", "utility", "interior"):
                assert getattr(scaled, field).tobytes() == getattr(base, field).tobytes(), (
                    case, field)
            for field in ("a_h", "a_l"):
                assert getattr(scaled, field).tobytes() == np.ldexp(
                    getattr(base, field), k).tobytes(), (case, field)
