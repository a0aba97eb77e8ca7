import math
from itertools import groupby

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from demandtier import (
    HouseholdBudget,
    PreferenceSchedule,
    alpha_of,
    demand_arrays,
    dshare_H_dE,
    gammaL_of,
    income_elasticities,
    solve_demand,
    stone_geary_utility,
)
from demandtier._np import _libm
from demandtier.demand import (
    alpha_is_clipped, alpha_slope_of, elasticity_arrays, gammaL_slope_of,
)
from demandtier.errors import ConfigError, NonInteriorBudget

import oracles
from conftest import flat_sched


class TestAlphaSchedule:
    def test_intercept(self, sched):
        assert alpha_of(sched, 0.0) == pytest.approx(0.78, abs=1e-15)

    def test_upper_clip(self, sched):
        assert alpha_of(sched, 10.0) == 0.97

    def test_unclipped_value(self, sched):
        assert alpha_of(sched, 0.215) == pytest.approx(0.78 + 0.16 * 0.215, rel=1e-15)

    def test_monotone_and_bounded(self, sched):
        grid = np.linspace(-5.0, 20.0, 400)
        values = [alpha_of(sched, e) for e in grid]
        assert all(b >= a for a, b in zip(values, values[1:]))
        assert all(sched.alpha_lo <= v <= sched.alpha_hi for v in values)

    def test_invalid_bounds_rejected(self):
        with pytest.raises(ConfigError, match="alpha_lo"):
            PreferenceSchedule(alpha_lo=0.9, alpha_hi=0.5)
        with pytest.raises(ConfigError, match="alpha_slope"):
            PreferenceSchedule(alpha_slope=-0.1)


def test_clip_test_on_an_array_matches_the_scalar_one(sched):
    # both kinks, (0.6 - 0.78)/0.16 and (0.97 - 0.78)/0.16, lie on the grid
    grid = np.concatenate([np.linspace(-3.0, 3.0, 97), [-1.125, 1.1875]])
    clipped = alpha_is_clipped(sched, grid)
    assert clipped.tolist() == [alpha_is_clipped(sched, e) for e in grid.tolist()]
    assert clipped.any() and not clipped.all()
    assert alpha_slope_of(sched, grid).tolist() == [0.0 if c else 0.16 for c in clipped]
    # each formula over an array equals its own scalar calls, which return
    # Python floats, bit for bit; gamma_L is defined for E >= 0 only
    levels = grid[grid >= 0.0]
    for formula, values in [(alpha_of, grid), (alpha_slope_of, grid),
                            (gammaL_of, levels), (gammaL_slope_of, levels)]:
        scalars = [formula(sched, e) for e in values.tolist()]
        assert all(type(x) is float for x in scalars)
        assert formula(sched, values).tobytes() == np.array(scalars).tobytes()
        on_square = formula(sched, values[:36].reshape(6, 6))  # the shape is kept
        assert on_square.shape == (6, 6)
        assert on_square.tobytes() == np.array(scalars[:36]).tobytes()
    # and equals the oracles' independent formulas bit for bit
    oracle_alpha = [oracles.clip_alpha(e) for e in grid.tolist()]
    assert alpha_of(sched, grid).tobytes() == np.array(oracle_alpha).tobytes()
    oracle_gamma = [oracles.gamma_l(e) for e in levels.tolist()]
    assert gammaL_of(sched, levels).tobytes() == np.array(oracle_gamma).tobytes()


class TestGammaL:
    def test_identity_at_zero(self):
        sched = PreferenceSchedule(gammaL_base=2.0, gammaL_decay=0.5)
        assert gammaL_of(sched, 0.0) == 2.0

    def test_zero_base(self):
        sched = PreferenceSchedule(gammaL_base=0.0, gammaL_decay=0.5)
        assert gammaL_of(sched, 1.0) == 0.0

    def test_exponential_decay_value(self):
        # oracle: 2 * exp(-0.5), checked decreasing by finite steps below
        sched = PreferenceSchedule(gammaL_base=2.0, gammaL_decay=0.5)
        assert gammaL_of(sched, 1.0) == pytest.approx(1.2130613194252668, rel=1e-14)

    def test_monotone_decreasing(self):
        sched = PreferenceSchedule(gammaL_base=2.0, gammaL_decay=0.5)
        grid = np.linspace(0.0, 5.0, 200)
        values = [gammaL_of(sched, e) for e in grid]
        assert all(b < a for a, b in zip(values, values[1:]))
        assert all(v >= 0.0 for v in values)

    def test_negative_education_rejected(self, sched):
        with pytest.raises(ConfigError):
            gammaL_of(sched, -0.1)
        with pytest.raises(ConfigError, match="got -0.5$"):
            gammaL_of(sched, np.array([0.1, -0.5, -2.0]))


PAYLOAD_NAN = np.array([0x7FF8_0000_0000_0001], np.uint64).view(np.float64)[0]


@pytest.mark.parametrize("x", [
    np.full(50, -0.3),
    np.repeat([0.1, -2.0, 0.1, 7.5], [3, 1, 40, 6]),
    np.tile([0.25, -0.25], 20),
    np.linspace(-5.0, 5.0, 101),
    np.array([0.0, 0.0, -0.0, -0.0, 0.0, 1.0]),
    np.array([math.nan, math.nan, -math.nan, PAYLOAD_NAN, PAYLOAD_NAN, 1.0, math.nan]),
    np.array([]),
    np.array([-1.5]),
    np.repeat([[0.5], [-0.5], [0.5]], 4, axis=1),
    np.repeat([[0.5], [-0.5], [0.5]], 4, axis=1).T,
], ids=["constant", "piecewise", "alternating", "distinct", "signed-zeros", "nan", "empty",
        "one", "2-d", "2-d-transposed"])
def test_libm_equals_the_map_calling_f_once_per_run_of_equal_bits(x):
    calls = []

    def exp(v):
        calls.append(v)
        return math.exp(v)

    got = _libm(exp, x)
    want = np.array([math.exp(v) for v in x.ravel().tolist()]).reshape(x.shape)
    assert got.shape == x.shape
    assert got.tobytes() == want.tobytes()
    assert len(calls) == len(list(groupby(x.ravel().view(np.uint64).tolist())))


class TestSolveDemand:
    def test_homothetic_symmetric_case(self):
        sol = solve_demand(flat_sched(0.5), HouseholdBudget(income=10.0, price_H=2.0), 0.0)
        assert sol.c_L == pytest.approx(5.0, rel=1e-14)
        assert sol.c_H == pytest.approx(2.5, rel=1e-14)
        assert sol.supernumerary == 10.0
        assert sol.share_H == pytest.approx(0.5, rel=1e-14)

    def test_subsistence_shifted_case(self):
        sol = solve_demand(
            flat_sched(0.5, gamma_l=2.0), HouseholdBudget(income=10.0, price_H=2.0), 0.0
        )
        assert sol.supernumerary == pytest.approx(8.0, rel=1e-14)
        assert sol.c_L == pytest.approx(6.0, rel=1e-14)
        assert sol.c_H == pytest.approx(2.0, rel=1e-14)
        assert sol.share_H == pytest.approx(0.4, rel=1e-14)
        assert sol.c_L + 2.0 * sol.c_H == pytest.approx(10.0, rel=1e-14)
        assert sol.utility == pytest.approx(math.sqrt(8.0), rel=1e-14)

    def test_non_interior_budget(self):
        with pytest.raises(NonInteriorBudget):
            solve_demand(
                flat_sched(0.5, gamma_l=12.0), HouseholdBudget(income=10.0, price_H=2.0), 0.0
            )

    def test_budget_validation(self):
        with pytest.raises(ConfigError, match="income"):
            HouseholdBudget(income=-1.0, price_H=2.0)
        with pytest.raises(ConfigError, match="price_H"):
            HouseholdBudget(income=1.0, price_H=0.0)

    def test_utility_zero_on_boundary(self):
        sched = flat_sched(0.5, gamma_l=2.0)
        assert stone_geary_utility(sched, 0.0, 2.0, 1.0) == 0.0
        with pytest.raises(ConfigError):
            stone_geary_utility(sched, 0.0, 1.9, 1.0)


class TestIncomeElasticities:
    def test_homothetic_limit(self):
        eta = income_elasticities(flat_sched(0.37), HouseholdBudget(income=10.0, price_H=2.0), 0.0)
        assert eta.eta_H == pytest.approx(1.0, rel=1e-14)
        assert eta.eta_L == pytest.approx(1.0, rel=1e-14)

    @pytest.mark.parametrize("alpha", [0.3, 0.5, 0.8])
    def test_eta_H_is_income_over_supernumerary(self, alpha):
        eta = income_elasticities(
            flat_sched(alpha, gamma_l=2.0), HouseholdBudget(income=10.0, price_H=2.0), 0.0
        )
        assert eta.eta_H == pytest.approx(1.25, rel=1e-14)

    def test_eta_L_value_and_fd_oracle(self):
        sched = flat_sched(0.8, gamma_l=2.0)
        budget = HouseholdBudget(income=10.0, price_H=2.0)
        eta = income_elasticities(sched, budget, 0.0)
        assert eta.eta_L == pytest.approx(0.2 / 0.36, rel=1e-13)

        h = 1e-6 * budget.income
        for good, value in (("c_H", eta.eta_H), ("c_L", eta.eta_L)):
            up = getattr(solve_demand(sched, HouseholdBudget(income=10.0 + h, price_H=2.0), 0.0), good)
            dn = getattr(solve_demand(sched, HouseholdBudget(income=10.0 - h, price_H=2.0), 0.0), good)
            c = getattr(solve_demand(sched, budget, 0.0), good)
            fd = (up - dn) / (2.0 * h) * budget.income / c
            assert value == pytest.approx(fd, rel=1e-6)

    def test_gamma_h_must_be_zero(self):
        with pytest.raises(ConfigError, match="gamma_H"):
            income_elasticities(
                flat_sched(0.5, gamma_h=0.3), HouseholdBudget(income=10.0, price_H=2.0), 0.0
            )


class TestShareSlope:
    def test_both_channels_off(self):
        slope = dshare_H_dE(flat_sched(0.5, gamma_l=2.0), HouseholdBudget(income=10.0, price_H=2.0), 0.0)
        assert slope.value == 0.0

    def test_preference_channel_only(self, sched):
        # constant gamma_L = 2, unclipped weight: slope = 0.16 * B / Y = 0.128
        const_gamma = PreferenceSchedule(gammaL_base=2.0, gammaL_decay=0.0)
        slope = dshare_H_dE(const_gamma, HouseholdBudget(income=10.0, price_H=2.0), 0.0)
        assert not slope.alpha_clipped
        assert slope.value == pytest.approx(0.16 * 8.0 / 10.0, rel=1e-14)

    def test_matches_central_difference(self, sched):
        budget = HouseholdBudget(income=10.0, price_H=2.0)
        slope = dshare_H_dE(sched, budget, 0.2)
        h = 1e-6
        fd = (
            solve_demand(sched, budget, 0.2 + h).share_H
            - solve_demand(sched, budget, 0.2 - h).share_H
        ) / (2.0 * h)
        assert slope.value > 0.0
        assert slope.value == pytest.approx(fd, rel=1e-5)

    def test_clipped_region_flagged(self, sched):
        budget = HouseholdBudget(income=10.0, price_H=2.0)
        slope = dshare_H_dE(sched, budget, 5.0)  # weight pinned at the upper clip
        assert slope.alpha_clipped
        # only the subsistence channel remains
        expected = -(0.97 / 10.0) * (-0.5 * gammaL_of(sched, 5.0))
        assert slope.value == pytest.approx(expected, rel=1e-13)

    def test_non_interior(self):
        with pytest.raises(NonInteriorBudget):
            dshare_H_dE(flat_sched(0.5, gamma_l=12.0), HouseholdBudget(income=10.0, price_H=2.0), 0.0)


def _random_cases(n, seed, gamma_h_zero=True):
    rng = np.random.default_rng(seed)
    for _ in range(n):
        sched = PreferenceSchedule(
            alpha_base=rng.uniform(0.3, 0.7),
            alpha_slope=rng.uniform(0.01, 0.3),
            alpha_lo=0.01,
            alpha_hi=0.99,
            gammaL_base=rng.uniform(0.05, 5.0),
            gammaL_decay=rng.uniform(0.0, 2.0),
            gamma_H=0.0 if gamma_h_zero else rng.uniform(0.0, 1.0),
        )
        e = rng.uniform(0.0, 0.9)
        price_l = rng.uniform(0.1, 5.0)
        price_h = rng.uniform(0.1, 5.0)
        subsistence = price_l * gammaL_of(sched, e) + price_h * sched.gamma_H
        budget = HouseholdBudget(
            income=subsistence + rng.uniform(0.5, 50.0), price_H=price_h, price_L=price_l
        )
        yield sched, budget, e


class TestDemandIdentities:
    """Randomized draws of the demand-system identities (small version of the
    acceptance-criterion suite)."""

    N = 1000

    def test_budget_exhaustion_and_homogeneity(self):
        for sched, budget, e in _random_cases(self.N, seed=101, gamma_h_zero=False):
            sol = solve_demand(sched, budget, e)
            spending = budget.price_L * sol.c_L + budget.price_H * sol.c_H
            assert abs(spending - budget.income) <= 1e-12 * budget.income
            scaled = HouseholdBudget(
                income=budget.income * 7.3,
                price_H=budget.price_H * 7.3,
                price_L=budget.price_L * 7.3,
            )
            sol2 = solve_demand(sched, scaled, e)
            assert sol2.c_L == pytest.approx(sol.c_L, rel=1e-12)
            assert sol2.c_H == pytest.approx(sol.c_H, rel=1e-12)
            assert sol2.share_H == pytest.approx(sol.share_H, rel=1e-12)

    def test_engel_aggregation_and_luxury_necessity(self):
        for sched, budget, e in _random_cases(self.N, seed=202):
            sol = solve_demand(sched, budget, e)
            eta = income_elasticities(sched, budget, e)
            engel = sol.share_H * eta.eta_H + sol.share_L * eta.eta_L
            assert abs(engel - 1.0) <= 1e-12
            if gammaL_of(sched, e) > 0.0:
                assert eta.eta_H > 1.0
                assert eta.eta_L < 1.0

    def test_share_slope_positive_and_matches_fd(self):
        h = 1e-6
        for sched, budget, e in _random_cases(self.N, seed=303):
            slope = dshare_H_dE(sched, budget, e)
            assert slope.value > 0.0
            fd = (
                solve_demand(sched, budget, e + h).share_H
                - solve_demand(sched, budget, max(e - h, 0.0)).share_H
            ) / (h + min(e, h))
            assert slope.value == pytest.approx(fd, rel=1e-5)


def test_supernumerary_income(sched):
    budget = HouseholdBudget(income=10.0, price_H=2.0)
    expected = 10.0 - gammaL_of(sched, 0.3)
    assert solve_demand(sched, budget, 0.3).supernumerary == pytest.approx(expected, rel=1e-14)


def _oracle(sched, budget, e):
    """oracles.household at a budget, with alpha and gamma_L from the oracles too."""
    alpha = oracles.clip_alpha(e, (sched.alpha_base, sched.alpha_slope,
                                   sched.alpha_lo, sched.alpha_hi))
    gamma_l = oracles.gamma_l(e, sched.gammaL_base, sched.gammaL_decay)
    return oracles.household(budget.income, budget.price_L, budget.price_H, alpha,
                             gamma_l, sched.gamma_H)


class TestHouseholdOracle:
    """The one demand formula against a straight derivation in plain floats,
    on draws where price_L is not 1."""

    N = 1000

    def test_solve_demand(self):
        for sched, budget, e in _random_cases(self.N, seed=404, gamma_h_zero=False):
            sol = solve_demand(sched, budget, e)
            b, c_l, c_h, share_h, utility, _, _ = _oracle(sched, budget, e)
            got = (sol.supernumerary, sol.c_L, sol.c_H, sol.share_H, sol.utility)
            assert got == pytest.approx((b, c_l, c_h, share_h, utility), rel=1e-12, abs=0.0)
            assert sol.share_L == pytest.approx(1.0 - share_h, rel=1e-12, abs=0.0)

    def test_demand_arrays(self):
        # the array form is at price_L = 1: some draws' incomes then fall short
        for sched, budget, e in _random_cases(self.N, seed=505, gamma_h_zero=False):
            at_one = HouseholdBudget(income=budget.income, price_H=budget.price_H)
            expected = _oracle(sched, at_one, e)
            got = demand_arrays(sched, budget.income, budget.price_H, e)
            assert got.interior.tolist() == [expected is not None]
            row = [got.supernumerary[0], got.c_L[0], got.c_H[0], got.share_H[0], got.utility[0]]
            if expected is None:
                assert all(math.isnan(x) for x in row)
                continue
            assert row == pytest.approx(expected[:5], rel=1e-12, abs=0.0)

    def test_income_elasticities(self):
        for sched, budget, e in _random_cases(self.N, seed=606):
            eta = income_elasticities(sched, budget, e)
            *_, eta_h, eta_l = _oracle(sched, budget, e)
            assert (eta.eta_H, eta.eta_L) == pytest.approx((eta_h, eta_l), rel=1e-12, abs=0.0)

    def test_share_H_rounded_to_one_gives_inf_on_floats_as_on_arrays(self):
        # alpha = 1 - 2**-53, no subsistence and a subnormal income: share_H
        # rounds to 1, share_L = c_L/Y underflows to 0, and eta_L =
        # (1 - alpha)/share_L divides by zero
        sched = PreferenceSchedule(alpha_lo=1.0 - 2.0**-53, alpha_hi=1.0 - 2.0**-53,
                                   gammaL_base=0.0)
        _, floats = elasticity_arrays(sched, 1e-310, 0.7, 0.2)
        _, arrays = elasticity_arrays(sched, np.array([1e-310]), 0.7, 0.2)
        assert floats.eta_L == arrays.eta_L[0] == math.inf

    def test_share_L_is_not_one_minus_a_share_H_rounded_to_one(self):
        # at income 1, share_H rounds to 1 but share_L = c_L/Y keeps 1 - alpha,
        # which 1 - share_H would cancel to 0
        sched = PreferenceSchedule(alpha_lo=1.0 - 2.0**-53, alpha_hi=1.0 - 2.0**-53,
                                   gammaL_base=0.0)
        budget = HouseholdBudget(income=1.0, price_H=0.7)
        floats, eta = elasticity_arrays(sched, 1.0, 0.7, 0.2)
        arrays, eta_arrays = elasticity_arrays(sched, np.array([1.0]), 0.7, 0.2)
        assert floats.share_H == 1.0
        assert floats.share_L == arrays.share_L[0] == solve_demand(sched, budget, 0.2).share_L
        assert floats.share_L == 2.0**-53
        assert eta.eta_L == eta_arrays.eta_L[0] == 1.0


def _finite(lo, hi):
    return st.floats(lo, hi, allow_nan=False, allow_infinity=False)


@st.composite
def _demand_rows(draw):
    """A preference schedule and rows of (income, price_H, E).

    alpha_base and alpha_slope range wide enough that alpha(E) is clipped on
    some rows and not on others. Income is a multiple of the row's
    subsistence cost gamma_L(E) + price_H*gamma_H, from 0.2x to 5x, so rows
    below, at and above subsistence all occur.
    """
    alpha_lo = draw(_finite(0.05, 0.9))
    sched = PreferenceSchedule(
        alpha_base=draw(_finite(0.0, 1.0)),
        alpha_slope=draw(_finite(0.0, 2.0)),
        alpha_lo=alpha_lo,
        alpha_hi=draw(_finite(alpha_lo, 0.99)),
        gammaL_base=draw(_finite(0.0, 5.0)),
        gammaL_decay=draw(_finite(0.0, 2.0)),
        gamma_H=draw(st.one_of(st.just(0.0), _finite(0.0, 2.0))),
    )
    n = draw(st.integers(1, 12))
    e = draw(st.lists(_finite(0.0, 2.0), min_size=n, max_size=n))
    price = draw(st.lists(_finite(0.05, 20.0), min_size=n, max_size=n))
    factor = draw(st.lists(_finite(0.2, 5.0), min_size=n, max_size=n))
    income = []
    for e_t, p_t, f_t in zip(e, price, factor):
        cost = gammaL_of(sched, e_t) + p_t * sched.gamma_H
        income.append(f_t * cost if cost > 0.0 else f_t)
    return sched, np.array(income), np.array(price), np.array(e)


class TestDemandArrays:
    @settings(max_examples=40, deadline=None, derandomize=True, database=None)
    @given(_demand_rows())
    def test_matches_scalar_solve_demand(self, case):
        sched, income, price, e = case
        got = demand_arrays(sched, income, price, e)
        for i in range(income.size):
            try:
                sol = solve_demand(sched, HouseholdBudget(income[i], price[i]), e[i])
            except NonInteriorBudget:
                assert not got.interior[i]
                assert all(math.isnan(col[i]) for col in got[:5])
                continue
            assert got.interior[i]
            # solve_demand is a one-row call, so this checks that a row in a
            # batch is the row solved alone: equal to the bit, except utility,
            # whose np.power may take another vector path in a batch
            assert got.c_L[i] == sol.c_L
            assert got.c_H[i] == sol.c_H
            assert got.supernumerary[i] == sol.supernumerary
            assert got.share_H[i] == sol.share_H
            assert got.utility[i] == pytest.approx(sol.utility, rel=1e-13, abs=0.0)

    def test_scalars_broadcast_against_rows(self, sched):
        income = np.array([1.0, 10.0, 20.0])
        got = demand_arrays(sched, income, 2.0, 0.3)
        assert got.interior.tolist() == [False, True, True]
        sol = solve_demand(sched, HouseholdBudget(20.0, 2.0), 0.3)
        assert got.c_H[2] == sol.c_H

    def test_scalar_level_and_price_give_the_full_length_bits_at_alpha_one_half(self):
        # numpy raises to a scalar or stride-0 exponent of 0.5 with sqrt, which
        # rounds unlike np.power on an array exponent for about 5% of values
        # (and likewise x*x for 2 and 1/x for -1); utility ex_L**(1-a) * ex_H**a
        # matches the full-length rows only because a has the rows' full shape
        sched = PreferenceSchedule(alpha_base=0.5, alpha_slope=0.0, alpha_lo=0.4,
                                   alpha_hi=0.9, gamma_H=0.0)
        income = 3.0 + np.random.default_rng(20261019).lognormal(3.0, 1.0, 20_000)
        full = (np.full(income.size, 2.0), np.full(income.size, 0.2))

        def columns(price, e):
            demand, elasticities = elasticity_arrays(sched, income, price, e)
            return demand_arrays(sched, income, price, e) + demand + elasticities

        for col, ref in zip(columns(2.0, 0.2), columns(*full), strict=True):
            assert col.shape == income.shape and col.tobytes() == ref.tobytes()
        b = demand_arrays(sched, income, 2.0, 0.2).supernumerary
        sqrt_path = (0.5 * b) ** 0.5 * (0.5 * b / 2.0) ** 0.5
        assert np.any(sqrt_path != demand_arrays(sched, income, *full).utility)

    @pytest.mark.parametrize("price", [math.nan, math.inf])
    def test_nan_supernumerary_stays_interior(self, sched, price):
        # a price of NaN or inf (productivities out of float range) makes B
        # NaN when gamma_H = 0, which the scalar form does not reject either
        sol = solve_demand(sched, HouseholdBudget(10.0, price), 0.2)
        got = demand_arrays(sched, np.array([10.0]), np.array([price]), np.array([0.2]))
        assert math.isnan(sol.supernumerary)
        assert got.interior.tolist() == [True]
        assert all(math.isnan(col[0]) for col in got[:5])

    @pytest.mark.parametrize("income", [10.0, 1.0])  # interior, and B <= 0
    def test_all_scalar_inputs_give_the_one_element_row(self, sched, income):
        got = demand_arrays(sched, income, 2.0, 0.3)
        one = demand_arrays(sched, np.array([income]), np.array([2.0]), np.array([0.3]))
        for col, expected in zip(got, one):
            assert col.shape == (1,)
            assert col.tobytes() == expected.tobytes()

    def test_first_invalid_row_gives_the_scalar_message(self, sched):
        with pytest.raises(ConfigError, match=r"^price_H must be > 0, got 0.0$"):
            demand_arrays(sched, np.array([10.0, 10.0, -1.0]), np.array([2.0, 0.0, 2.0]), 0.2)
        with pytest.raises(ConfigError, match=r"^income must be > 0, got -1.0$"):
            demand_arrays(sched, np.array([10.0, -1.0, 10.0]), np.array([2.0, 2.0, 0.0]), 0.2)
        with pytest.raises(ConfigError, match="education level must be >= 0"):
            demand_arrays(sched, 10.0, 2.0, np.array([0.2, -0.1]))

    def test_require_interior_raises_for_the_first_short_row(self, sched):
        income = np.array([10.0, 1.5, 1.0])
        with pytest.raises(NonInteriorBudget) as scalar:
            solve_demand(sched, HouseholdBudget(1.5, 2.0), 0.2)
        with pytest.raises(NonInteriorBudget) as array:
            demand_arrays(sched, income, 2.0, 0.2, require_interior=True)
        assert str(array.value) == str(scalar.value)
