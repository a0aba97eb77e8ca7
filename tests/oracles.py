"""Independent straight-line reimplementations used as test oracles.

Nothing here imports computational code from the package: formulas are
written out directly so the tests check the implementation against a second
derivation rather than against itself.
"""

import math
import sys
from fractions import Fraction

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


def household(income, price_l, price_h, alpha, gamma_l_value, gamma_h=0.0):
    """Stone-Geary demand from its first-order conditions, in plain floats.

    Returns (B, c_L, c_H, share_H, utility, eta_H, eta_L), or None when the
    supernumerary income B is not positive. The elasticities are
    dc/dY * Y/c with dc_L/dY = (1-alpha)/price_L and dc_H/dY = alpha/price_H.
    """
    b = income - price_l * gamma_l_value - price_h * gamma_h
    if b <= 0.0:
        return None
    c_l = gamma_l_value + (1.0 - alpha) * b / price_l
    c_h = gamma_h + alpha * b / price_h
    utility = (c_l - gamma_l_value) ** (1.0 - alpha) * (c_h - gamma_h) ** alpha
    eta_h = alpha / price_h * income / c_h
    eta_l = (1.0 - alpha) / price_l * income / c_l
    return b, c_l, c_h, price_h * c_h / income, utility, eta_h, eta_l


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


def _poly_mul(a, b):
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def _poly_trim(a):
    while a and a[-1] == 0:
        a = a[:-1]
    return a


def _poly_sub_rem(a, b):
    """Remainder of a divided by b; coefficients lowest power first."""
    a = list(a)
    while len(a) >= len(b):
        factor = a[-1] / b[-1]
        shift = len(a) - len(b)
        for k, c in enumerate(b):
            a[shift + k] -= factor * c
        a = _poly_trim(a[:-1])
    return a


def _poly_div(a, b):
    """Exact quotient of a by b (b divides a)."""
    a, quotient = list(a), [Fraction(0)] * (len(a) - len(b) + 1)
    for shift in range(len(a) - len(b), -1, -1):
        factor = a[shift + len(b) - 1] / b[-1]
        quotient[shift] = factor
        for k, c in enumerate(b):
            a[shift + k] -= factor * c
    return quotient


def _integer_poly(a):
    """a times the positive lcm of its denominators: integer coefficients, same signs."""
    scale = math.lcm(*(c.denominator for c in a))
    return [int(c * scale) for c in a]


def _sign_at(poly, x):
    """Sign of the integer polynomial ``poly`` at the dyadic rational x.

    With x = n / 2**k, 2**(k*deg) * poly(x) is an integer; Horner's rule
    computes it with shifts in place of divisions.
    """
    n, k = x.numerator, x.denominator.bit_length() - 1
    value = poly[-1]
    for shift, c in enumerate(reversed(poly[:-1]), start=1):
        value = value * n + (c << (k * shift))
    return (value > 0) - (value < 0)


def _round_root(poly, lo, hi):
    """The double nearest the one root of ``poly`` in (lo, hi), where poly
    changes sign; a root halfway between two doubles goes to the even one,
    as float(Fraction) rounds. lo and hi are dyadic."""
    sign_lo = _sign_at(poly, lo)
    while True:
        a, b = float(lo), float(hi)
        if a == b:
            return a
        adjacent = math.nextafter(a, math.inf) == b
        mid = (Fraction(a) + Fraction(b)) / 2 if adjacent else Fraction(0.5 * a + 0.5 * b)
        side = _sign_at(poly, mid)
        if side == 0:
            return float(mid)
        if adjacent:
            return b if side == sign_lo else a
        if side == sign_lo:
            lo = mid
        else:
            hi = mid


def exact_roots(E, p_min=0.01, p_max=14.0,
                alpha_params=ALPHA_PARAMS, learn_params=CUBIC_PARAMS):
    """The fixed points in [p_min, p_max], each the double nearest the exact root.

    Exact for the model as floats specify it: the parameters, E and
    alpha = clip_alpha(E) are taken as the rationals they hold. With
    D = alpha + (1-alpha)*p, s = alpha/D and 1 - s = (1-alpha)*p/D, the gap
    g_H(s, E) - g_L(1-s) times D^3 > 0 is a polynomial in p; Sturm's theorem
    isolates its distinct roots in (p_min/2, 2*p_max] (capped at the largest
    double), exact bisection rounds
    each one, and the rounded roots inside the window are returned ascending.
    """
    a = Fraction(clip_alpha(E, alpha_params))
    b = 1 - a
    nu, phi1, phi2, chi1, chi2 = map(Fraction, learn_params)
    d1 = [a, b]  # D, lowest power of p first
    d2 = _poly_mul(d1, d1)
    d3 = _poly_mul(d2, d1)
    gap = [nu * Fraction(E) * c for c in d3]
    for k, c in enumerate(d2):
        gap[k] += phi1 * a * c
        gap[k + 1] -= chi1 * b * c
    gap[0] -= phi2 * a ** 3
    gap[3] += chi2 * b ** 3
    gap = _poly_trim(gap)
    if len(gap) < 2:  # constant in p: no isolated root
        return []
    derivative = _poly_trim([k * c for k, c in enumerate(gap)][1:])
    common = gap
    rest = derivative
    while rest:
        common, rest = rest, _poly_sub_rem(common, rest)
    simple = _poly_div(gap, common)  # the square-free part: every root simple
    chain = [simple, _poly_trim([k * c for k, c in enumerate(simple)][1:])]
    while len(chain[-1]) > 1:
        chain.append([-c for c in _poly_sub_rem(chain[-2], chain[-1])])
    chain = [_integer_poly(poly) for poly in chain]

    def variations(x):
        signs = [s for s in (_sign_at(poly, x) for poly in chain) if s]
        return sum(1 for u, v in zip(signs, signs[1:]) if u != v)

    found = []
    stack = [(Fraction(p_min) / 2, min(2 * Fraction(p_max), Fraction(sys.float_info.max)))]
    while stack:
        lo, hi = stack.pop()
        count = variations(lo) - variations(hi)
        if count == 0:
            continue
        if count > 1:
            mid = (lo + hi) / 2
            stack += [(lo, mid), (mid, hi)]
        elif _sign_at(chain[0], hi) == 0:
            found.append(float(hi))
        else:
            found.append(_round_root(chain[0], lo, hi))
    return sorted(p for p in found if p_min <= p <= p_max)


def count_changes(E_min, E_max, p_min=0.01, p_max=14.0,
                  alpha_params=ALPHA_PARAMS, learn_params=CUBIC_PARAMS,
                  points=201, tol=1e-11):
    """Each change of the number of ``exact_roots`` strictly inside (E_min, E_max),
    as (E, count below, count above), ascending in E.

    The counts are sampled on ``points`` even levels, to which the midpoints
    between consecutive closed-form saddle-node levels are added, so that two
    collisions in one cell do not cancel; a cell whose ends differ is halved
    until it is narrower than ``tol``, and E is its midpoint. Two changes that
    cancel within one cell are missed.
    """
    def count(E):
        return len(exact_roots(E, p_min, p_max, alpha_params, learn_params))

    e_bars = [e for e, _ in saddle_node_closed_form(learn_params) if E_min < e < E_max]
    levels = set(np.linspace(E_min, E_max, points).tolist())
    levels.update(0.5 * (a + b) for a, b in zip(e_bars, e_bars[1:]))
    levels = sorted(levels)
    changes = []

    def locate(lo, hi, n_lo, n_hi):
        if n_lo == n_hi:
            return
        mid = 0.5 * (lo + hi)
        if hi - lo <= tol:
            changes.append((mid, n_lo, n_hi))
            return
        n_mid = count(mid)
        locate(lo, mid, n_lo, n_mid)
        locate(mid, hi, n_mid, n_hi)

    counts = [count(e) for e in levels]
    for lo, hi, n_lo, n_hi in zip(levels, levels[1:], counts, counts[1:]):
        locate(lo, hi, n_lo, n_hi)
    return changes


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
    if a == 0.0:  # phi2 = -chi2: q' is linear, or constant under linear learning
        roots = (-c / b,) if b != 0.0 else ()
    elif disc < 0.0:  # q is monotone on the reals: no collision anywhere
        return out
    else:
        roots = ((-b + math.sqrt(disc)) / (2.0 * a), (-b - math.sqrt(disc)) / (2.0 * a))
    for root in roots:
        if 0.0 < root < 1.0:
            out.append((-q(root) / nu, root))
    return sorted(out)


def planner_objective(e_vec, a_h0, a_l_path, y_vec, beta, nu, phi,
                      kappa_scale, kappa_curv,
                      alpha_params=ALPHA_PARAMS, gl_base=2.0, gl_decay=0.5, gamma_h=0.0,
                      phi2=0.0):
    """Discounted utility sum under the planner's constraint set.

    The high-tier productivity grows by 1 + nu*E + phi*s - phi2*s^3 in the
    education level and the excess share: linear learning by default, cubic
    learning (phi as phi1) with phi2 set. The low-tier productivity path is
    exogenous data. Consumption is chosen optimally each period out of income
    net of the education cost.
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
        a_h *= 1.0 + nu * e + phi * s - phi2 * s**3
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
