"""Independent straight-line reimplementations used as test oracles.

Nothing here imports computational code from the package: formulas are
written out directly so the tests check the implementation against a second
derivation rather than against itself.
"""

import math

import numpy as np

# headline calibration: clipped affine weight schedule and cubic learning
ALPHA_PARAMS = (0.78, 0.16, 0.60, 0.97)
CUBIC_PARAMS = (0.6, 0.8, 1.0, 1.2, 1.5)
E_VALUES = (0.145, 0.215, 0.280)


def clip_alpha(E, params=ALPHA_PARAMS):
    base, slope, lo, hi = params
    return min(hi, max(lo, base + slope * E))


def gamma_l(E, base=2.0, decay=0.5):
    return base * math.exp(-decay * E)


def share_of_price(p, alpha):
    return alpha / (alpha + (1.0 - alpha) * p)


def price_of_share(s, alpha):
    return alpha * (1.0 - s) / ((1.0 - alpha) * s)


def growth_pair(s, E, params=CUBIC_PARAMS):
    nu, phi1, phi2, chi1, chi2 = params
    u = 1.0 - s
    return 1.0 + nu * E + phi1 * s - phi2 * s**3, 1.0 + chi1 * u - chi2 * u**3


def t_map(p, E, alpha_params=ALPHA_PARAMS, learn_params=CUBIC_PARAMS):
    s = share_of_price(p, clip_alpha(E, alpha_params))
    g_h, g_l = growth_pair(s, E, learn_params)
    return p * g_l / g_h


def central_diff(f, x, h):
    return (f(x + h) - f(x - h)) / (2.0 * h)


def dense_roots(E, p_min=0.01, p_max=14.0, n=1_000_001,
                alpha_params=ALPHA_PARAMS, learn_params=CUBIC_PARAMS):
    """Brute-force root finding: dense grid bracketing plus plain bisection."""
    alpha = clip_alpha(E, alpha_params)
    grid = np.linspace(p_min, p_max, n)
    s = alpha / (alpha + (1.0 - alpha) * grid)
    nu, phi1, phi2, chi1, chi2 = learn_params
    u = 1.0 - s
    g_h = 1.0 + nu * E + phi1 * s - phi2 * s**3
    g_l = 1.0 + chi1 * u - chi2 * u**3
    f = grid * (g_l - g_h) / g_h

    def residual(p):
        return t_map(p, E, alpha_params, learn_params) - p

    roots = []
    for i in range(n - 1):
        if f[i] == 0.0:
            roots.append(float(grid[i]))
        elif f[i] * f[i + 1] < 0.0:
            lo, hi = float(grid[i]), float(grid[i + 1])
            f_lo = residual(lo)
            for _ in range(200):
                mid = 0.5 * (lo + hi)
                f_mid = residual(mid)
                if abs(f_mid) <= 1e-13 * max(1.0, mid) or hi - lo <= 4.4e-16 * hi:
                    break
                if (f_mid > 0.0) == (f_lo > 0.0):
                    lo, f_lo = mid, f_mid
                else:
                    hi = mid
            roots.append(0.5 * (lo + hi))
    return roots


def fd_stability(p_star, E, alpha_params=ALPHA_PARAMS, learn_params=CUBIC_PARAMS):
    """Stability label from a finite-difference map slope at the root."""
    h = 1e-6 * p_star
    slope = central_diff(lambda p: t_map(p, E, alpha_params, learn_params), p_star, h)
    if abs(slope) < 1.0 - 1e-8:
        return slope, "stable"
    if abs(slope) > 1.0 + 1e-8:
        return slope, "unstable"
    return slope, "marginal"


def saddle_node_closed_form(learn_params=CUBIC_PARAMS):
    """Threshold pairs (E_bar, s_bar) for the headline cubic calibration.

    At a collision both growth factors agree and the share derivative of
    their gap vanishes, so s_bar solves the quadratic stationarity condition
    of q(s) = g_H(s, 0) - g_L(1-s) and E_bar = -q(s_bar)/nu.
    """
    nu, phi1, phi2, chi1, chi2 = learn_params

    def q(s):
        u = 1.0 - s
        return phi1 * s - phi2 * s**3 - chi1 * u + chi2 * u**3

    # q'(s) = phi1 - 3 phi2 s^2 + chi1 - 3 chi2 (1-s)^2, a quadratic in s
    a = -3.0 * phi2 - 3.0 * chi2
    b = 6.0 * chi2
    c = phi1 + chi1 - 3.0 * chi2
    disc = b * b - 4.0 * a * c
    out = []
    if disc < 0.0:  # q is monotone on the reals: no collision anywhere
        return out
    for root in ((-b + math.sqrt(disc)) / (2.0 * a), (-b - math.sqrt(disc)) / (2.0 * a)):
        if 0.0 < root < 1.0:
            out.append((-q(root) / nu, root))
    return sorted(out)


def planner_objective(e_vec, a_h0, a_l_path, y_vec, beta, nu, phi,
                      kappa_scale, kappa_curv,
                      alpha_params=ALPHA_PARAMS, gl_base=2.0, gl_decay=0.5, gamma_h=0.0):
    """Discounted utility sum under the planner's constraint set.

    The high-tier productivity responds to education and the excess share;
    the low-tier productivity path is exogenous data. Consumption is chosen
    optimally each period out of income net of the education cost.
    """
    a_h = a_h0
    total = 0.0
    for t, e in enumerate(e_vec):
        p = a_l_path[t] / a_h
        alpha = clip_alpha(e, alpha_params)
        net = y_vec[t] - kappa_scale * e**kappa_curv
        budget = net - gamma_l(e, gl_base, gl_decay) - p * gamma_h
        if budget <= 0.0:
            raise ValueError("non-interior period in oracle objective")
        utility = ((1.0 - alpha) * budget) ** (1.0 - alpha) * (alpha * budget / p) ** alpha
        total += beta**t * utility
        s = alpha / (alpha + (1.0 - alpha) * p)
        a_h *= 1.0 + nu * e + phi * s
    return total


def planner_fd_wedges(e_vec, a_h0, a_l_path, y_vec, beta, nu, phi,
                      kappa_scale, kappa_curv, h=1e-6, **kwargs):
    """Objective gradient in each period's education, discounted back to t."""
    wedges = []
    for t in range(len(e_vec)):
        up = list(e_vec)
        down = list(e_vec)
        up[t] += h
        down[t] -= h
        j_up = planner_objective(up, a_h0, a_l_path, y_vec, beta, nu, phi,
                                 kappa_scale, kappa_curv, **kwargs)
        j_dn = planner_objective(down, a_h0, a_l_path, y_vec, beta, nu, phi,
                                 kappa_scale, kappa_curv, **kwargs)
        wedges.append((j_up - j_dn) / (2.0 * h) / beta**t)
    return wedges
