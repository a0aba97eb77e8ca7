"""Kernel checks: the simulation recurrence and the residual helpers."""

import numpy as np
import pytest

from demandtier import (
    LearningSpec, LearningVariant, PreferenceSchedule, _kernels, alpha_of, growth_factors,
)

COEFFS = (0.6, 0.8, 1.0, 1.2, 1.5)
ALPHA = 0.8144
E = 0.215


def test_active_backend_reported():
    assert _kernels.backend() == "numpy"


def test_simulate_price_is_productivity_ratio():
    alpha_arr = np.full(32, ALPHA)
    e_arr = np.full(32, E)
    p, s, a_h, a_l = _kernels.simulate_arrays(1.0, 4.0, alpha_arr, e_arr, *COEFFS, 32)
    assert np.array_equal(p, a_l / a_h)
    assert np.all((s > 0.0) & (s < 1.0))


@pytest.mark.parametrize("a_l0", [5e-324, 0.0])
def test_simulate_price_after_a_h_underflows(a_l0):
    # g_H falls to about 0.1 near s = 1 and drives a_H to 0 in one step; the
    # price is then the IEEE quotient a_L/0 (inf, or NaN for 0/0), not an error
    alpha_arr = np.full(8, 0.97)
    p, _, a_h, a_l = _kernels.simulate_arrays(
        1e-322, a_l0, alpha_arr, np.zeros(8), 0.6, 0.0, 0.99, 1.2, 1.5, 8
    )
    assert np.any(a_h == 0.0)
    with np.errstate(divide="ignore", invalid="ignore"):
        assert np.array_equal(p, a_l / a_h, equal_nan=True)


def test_simulated_levels_within_their_ulp_bound_of_growth_factors():
    # the loop cubes by products and growth_factors by libm pow, so the levels
    # are not bit-equal to growth_factors(s_t, E_t) * level_t. To first order,
    # with u = 2**-53: the cubes differ by 4u of s^3 (two product roundings,
    # pow within 1 ulp), phi2 times them by 2u more, the two g by 2u of g and
    # the two levels by 2u of the level: (4 + 6*m)u of a level, with
    # m = phi2*s^3/g_H (chi2*(1-s)^3/g_L for a_L), and u*|x| < spacing(x)
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
        e = rng.uniform(0.0, 0.5, 60)
        p, s, a_h, a_l = _kernels.simulate_arrays(
            rng.uniform(0.5, 2.0), rng.uniform(0.5, 8.0), alpha_of(sched, e), e,
            *spec.coefficients, 60)
        assert np.array_equal(p, a_l / a_h)
        _, _, phi2, _, chi2 = spec.coefficients
        s, u = s[:-1], 1.0 - s[:-1]
        g = growth_factors(spec, s, e[:-1])
        for level, factor, m in ((a_h, g.g_H, phi2 * s**3 / g.g_H),
                                 (a_l, g.g_L, chi2 * u**3 / g.g_L)):
            exact = factor * level[:-1]
            gap = np.abs(level[1:] - exact)
            assert np.all(gap <= (4.0 + 6.0 * m) * np.spacing(exact))
            if spec.variant is LearningVariant.LINEAR:
                assert not gap.any()  # no cube: the same operations


def test_bisect_finds_known_root():
    # bracket around the middle root at E = 0.215
    root = _kernels.bisect_root(3.5, 3.6, ALPHA, E, *COEFFS, 1e-12, 200)
    residual = _kernels.map_residual(root, ALPHA, E, *COEFFS)
    assert abs(residual) <= 1e-12 * max(1.0, root)
