import csv
import math
from pathlib import Path

import pytest

from demandtier import LearningSpec, LearningVariant, PreferenceSchedule, TechnologyState

DATA_DIR = Path(__file__).parent / "data"


@pytest.fixture
def sched():
    """Default clipped affine weight schedule with decaying low-tier threshold."""
    return PreferenceSchedule()


@pytest.fixture
def cubic():
    """Headline cubic learning calibration."""
    return LearningSpec.cubic(nu=0.6, phi1=0.8, phi2=1.0, chi1=1.2, chi2=1.5)


@pytest.fixture
def linear():
    """Monotone linear learning with the same channel strengths."""
    return LearningSpec.linear(nu=0.6, phi=0.8, chi=1.2)


def inert_linear_spec():
    """Linear learning with nu = phi = 0, both spillover channels off.

    The spec lies outside the model's domain, where every learning channel is
    active, so ``LearningSpec`` rejects it: this builds it without
    ``__post_init__``, for the diagnostics that switch the channels off.
    """
    spec = object.__new__(LearningSpec)
    vars(spec).update(LearningSpec._defaults, variant=LearningVariant.LINEAR, nu=0.0, phi=0.0,
                      chi=1.2)
    return spec


def flat_sched(alpha, gamma_l=0.0, gamma_h=0.0, decay=0.0):
    """Constant-weight schedule (clip bounds pinned to alpha)."""
    return PreferenceSchedule(
        alpha_base=alpha, alpha_slope=0.0, alpha_lo=alpha, alpha_hi=alpha,
        gammaL_base=gamma_l, gammaL_decay=decay, gamma_H=gamma_h,
    )


def load_goldens():
    """Committed oracle roots: {E: [(p_star, s_star, slope, stability), ...]}."""
    out = {}
    with open(DATA_DIR / "golden_fixed_points.csv", newline="") as fh:
        for row in csv.DictReader(fh):
            out.setdefault(float(row["E"]), []).append(
                (
                    float(row["p_star"]),
                    float(row["s_star"]),
                    float(row["t_prime_fd"]),
                    row["stability"],
                )
            )
    return out


def random_calibration(rng):
    """A valid calibration drawn from the benchmark's ranges.

    Returns (schedule, spec, alpha_params, learn_params); the last two are the
    tuples the oracles take, with linear learning as zero cubic terms.
    """
    prefs = dict(
        alpha_base=rng.uniform(0.70, 0.85),
        alpha_slope=rng.uniform(0.05, 0.30),
        alpha_lo=rng.uniform(0.55, 0.65),
        alpha_hi=rng.uniform(0.93, 0.98),
        gammaL_base=rng.uniform(1.0, 3.0),
        gammaL_decay=rng.uniform(0.2, 0.8),
    )
    nu = rng.uniform(0.3, 0.9)
    if rng.random() < 0.2:
        learn = (nu, rng.uniform(0.3, 1.2), 0.0, rng.uniform(0.5, 1.5), 0.0)
        spec = LearningSpec.linear(nu=learn[0], phi=learn[1], chi=learn[3])
    else:
        phi1 = rng.uniform(0.5, 1.1)
        chi1 = rng.uniform(0.8, 1.6)
        # 1 + c1 - c2 > 0 keeps each growth factor positive; 0.9 leaves a margin
        learn = (nu, phi1, rng.uniform(0.5, 0.9 * (1.0 + phi1)),
                 chi1, rng.uniform(0.8, 0.9 * (1.0 + chi1)))
        spec = LearningSpec.cubic(*learn)
    alpha_params = (prefs["alpha_base"], prefs["alpha_slope"],
                    prefs["alpha_lo"], prefs["alpha_hi"])
    return PreferenceSchedule(**prefs), spec, alpha_params, learn


def slow_learning(spec, horizon: int, budget: float):
    """``spec`` with every learning rate shrunk by one factor until no level can
    move by more than e^budget over ``horizon`` periods at E in [0, 0.45], as
    the benchmark's path generator does."""
    nu, phi1, phi2, chi1, chi2 = spec.coefficients
    grid = [j / 200.0 for j in range(201)]
    worst_h = max(abs(math.log(1.0 + nu * e + phi1 * s - phi2 * s**3))
                  for s in grid for e in (0.0, 0.45))
    worst_l = max(abs(math.log(1.0 + chi1 * (1 - s) - chi2 * (1 - s) ** 3)) for s in grid)
    factor = min(1.0, budget / (horizon * (worst_h + worst_l)))
    rates = ("nu", "phi", "chi", "phi1", "phi2", "chi1", "chi2")
    return LearningSpec(variant=spec.variant, **{k: getattr(spec, k) * factor for k in rates})


def level_scaling_case(rng):
    """A seeded path set-up whose levels may be scaled by 2^k, |k| <= 60.

    Returns (schedule, spec, initial state, E, income, horizon): a calibration
    of ``random_calibration``, a horizon of 50, 200 or 400 periods, and E and
    income each a scalar or a linear ramp over the horizon. Every learning rate
    is shrunk by ``slow_learning`` until no level can move by more than e^200
    over the horizon, so that a level scaled by 2^k stays a normal float and
    each product rounds as the unscaled one does.
    """
    sched, spec, _, _ = random_calibration(rng)
    horizon = rng.choice((50, 200, 400))

    def path(lo, hi):
        if rng.random() < 0.5:
            return rng.uniform(lo, hi)
        start, end = rng.uniform(lo, hi), rng.uniform(lo, hi)
        return [start + (end - start) * t / (horizon - 1) for t in range(horizon)]

    e_path, income = path(0.0, 0.45), path(6.0, 20.0)
    spec = slow_learning(spec, horizon, 200.0)
    initial = TechnologyState(a_H=rng.uniform(0.5, 2.0), a_L=rng.uniform(0.5, 10.0))
    return sched, spec, initial, e_path, income, horizon
