"""Kernel checks: the simulation recurrence and the residual helpers."""

import numpy as np
import pytest

from demandtier import _kernels

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


def test_bisect_finds_known_root():
    # bracket around the middle root at E = 0.215
    root = _kernels.bisect_root(3.5, 3.6, ALPHA, E, *COEFFS, 1e-12, 200)
    residual = _kernels.map_residual(root, ALPHA, E, *COEFFS)
    assert abs(residual) <= 1e-12 * max(1.0, root)
