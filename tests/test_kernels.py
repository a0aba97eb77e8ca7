"""Kernel checks: the simulation recurrence and the residual helpers."""

import numpy as np

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


def test_bisect_finds_known_root():
    # bracket around the middle root at E = 0.215
    root = _kernels.bisect_root(3.5, 3.6, ALPHA, E, *COEFFS, 1e-12, 200)
    residual = _kernels.map_residual(root, ALPHA, E, *COEFFS)
    assert abs(residual) <= 1e-12 * max(1.0, root)
