"""Numeric kernels: forward simulation of the productivity pair, and the
price-map residual helpers of the earlier grid solver.

Learning coefficients arrive as the unified quintuple
``(nu, phi1, phi2, chi1, chi2)`` with the linear variant mapped to zero cubic
terms, so a single kernel family serves both variants.
"""

import math

from ._np import np


def backend() -> str:
    return "numpy"


# map_residual, grid_residual and bisect_root have no caller in the package
# since fixed points became cubic roots; the benchmark's tracer
# (perfbench/tracer.py) still binds them by name, so they stay until it stops.


def map_residual(p, alpha, e, nu, phi1, phi2, chi1, chi2):
    """Residual p_next - p of the price map at a single relative price."""
    s = alpha / (alpha + (1.0 - alpha) * p)
    u = 1.0 - s
    g_h = 1.0 + nu * e + phi1 * s - phi2 * s * s * s
    g_l = 1.0 + chi1 * u - chi2 * u * u * u
    return p * (g_l - g_h) / g_h


def grid_residual(p_grid, alpha, e, nu, phi1, phi2, chi1, chi2):
    """Map residual over a price grid, vectorized."""
    return map_residual(p_grid, alpha, e, nu, phi1, phi2, chi1, chi2)


def bisect_root(lo, hi, alpha, e, nu, phi1, phi2, chi1, chi2, tol, max_iter):
    """Bisect a sign-change bracket of the map residual.

    Halves until |residual| <= tol * max(1, p) or the bracket reaches float
    resolution.
    """
    f_lo = map_residual(lo, alpha, e, nu, phi1, phi2, chi1, chi2)
    if f_lo == 0.0:
        return lo
    mid = 0.5 * (lo + hi)
    for _ in range(max_iter):
        mid = 0.5 * (lo + hi)
        f_mid = map_residual(mid, alpha, e, nu, phi1, phi2, chi1, chi2)
        scale = mid if mid > 1.0 else 1.0
        if abs(f_mid) <= tol * scale:
            return mid
        if (f_mid > 0.0) == (f_lo > 0.0):
            lo = mid
            f_lo = f_mid
        else:
            hi = mid
        if hi - lo <= 4.4e-16 * hi:
            return 0.5 * (lo + hi)
    return mid


def simulate_arrays(a_h0, a_l0, alpha_arr, e_arr, nu, phi1, phi2, chi1, chi2, horizon):
    """Iterate the sectoral productivity pair forward.

    Returns per-period arrays (p, s, a_H, a_L) of length ``horizon``: the
    relative price is the productivity ratio a_L/a_H, the excess-quantity
    share follows from it, and both productivities advance by their growth
    factors. The loop runs on Python floats, which round exactly as numpy
    float64 does but cost far less per operation, and keeps only the levels;
    ``p`` and ``s`` are formed after it, over arrays, by the same operations.

    The cubes are products (``s*s*s``) where ``dynamics.growth_factors`` calls
    libm ``pow``, so a level is within ``4 + 6*m`` ulp of ``growth_factors(s_t,
    E_t)`` times the one before, with ``m = phi2*s**3/g_H`` (``chi2*(1-s)**3/g_L``
    for a_L). About 7% of cubic steps differ; linear ones are bit-equal. ``pow``
    here is slower and changes the default simulate output.
    """
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        alpha = alpha_arr[:horizon]
        a_h_out, a_l_out = [], []
        a_h, a_l = float(a_h0), float(a_l0)
        for al, rest, base in zip(alpha.tolist(), (1.0 - alpha).tolist(),
                                  (1.0 + nu * e_arr[:horizon]).tolist()):
            a_h_out.append(a_h)
            a_l_out.append(a_l)
            try:
                pt = a_l / a_h
            except ZeroDivisionError:  # a_H underflowed to 0: the IEEE quotient
                pt = math.inf if a_l > 0.0 else math.nan
            st = al / (al + rest * pt)
            u = 1.0 - st
            a_h = (base + phi1 * st - phi2 * st * st * st) * a_h
            a_l = (1.0 + chi1 * u - chi2 * u * u * u) * a_l
        a_h_arr, a_l_arr = np.array(a_h_out), np.array(a_l_out)
        p = a_l_arr / a_h_arr
        return p, alpha / (alpha + (1.0 - alpha) * p), a_h_arr, a_l_arr
