"""Kernel checks: the simulation recurrence, the residual helpers and the libm map."""

import math
from itertools import groupby

import numpy as np
import pytest

from demandtier import LearningSpec, PreferenceSchedule, _kernels, alpha_of, growth_factors
from demandtier._np import _libm

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


def test_simulated_levels_equal_growth_factors_times_the_level_before():
    # the loop and growth_factors take the same products in the same order, on
    # memoryviews of a list of levels and on the repeated floats of one level
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
        p, s, a_h, a_l = _kernels.simulate_arrays(
            rng.uniform(0.5, 2.0), rng.uniform(0.5, 8.0), alpha_of(sched, e), e,
            *spec.coefficients, 60)
        assert np.array_equal(p, a_l / a_h)
        g = growth_factors(spec, s[:-1], e[:-1])
        assert a_h[1:].tobytes() == (g.g_H * a_h[:-1]).tobytes()
        assert a_l[1:].tobytes() == (g.g_L * a_l[:-1]).tobytes()


def test_bisect_finds_known_root():
    # bracket around the middle root at E = 0.215
    root = _kernels.bisect_root(3.5, 3.6, ALPHA, E, *COEFFS, 1e-12, 200)
    residual = _kernels.map_residual(root, ALPHA, E, *COEFFS)
    assert abs(residual) <= 1e-12 * max(1.0, root)


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
