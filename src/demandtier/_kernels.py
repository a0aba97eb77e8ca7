"""Names that the benchmark's tracer binds: the price-map residual helpers of
the earlier grid solver, which no command calls, and the path-simulation
recurrence of ``dynamics`` under its former name.
"""

# The benchmark's tracer (perfbench/tracer.py) binds these names. It patches a
# function by identity in every loaded module, so its wrapper of simulate_arrays
# also replaces the dynamics._simulate_arrays that simulate_path calls.
# map_residual, grid_residual and bisect_root have no caller in the package
# since fixed points became cubic roots. All stay until the tracer stops.
from .dynamics import _simulate_arrays as simulate_arrays  # noqa: F401


def backend() -> str:
    return "numpy"


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

