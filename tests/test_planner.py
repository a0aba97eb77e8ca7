import random

import numpy as np
import pytest

from demandtier import (
    HouseholdBudget,
    LearningSpec,
    PlannerConfig,
    PreferenceSchedule,
    TechnologyState,
    education_wedge_sign,
    evaluate_foc,
    kappa,
    kappa_prime,
    simulate_path,
    solve_demand,
)
from demandtier.errors import (
    ConfigError,
    InvalidHorizon,
    NonInteriorBudget,
    NumericalOverflow,
)

import oracles


@pytest.fixture
def cfg():
    return PlannerConfig(beta=0.95, horizon=3, kappa_scale=0.05, kappa_curv=2.0)


@pytest.fixture
def small_path(sched, linear):
    return simulate_path(sched, linear, TechnologyState(a_H=1.0, a_L=2.0), 0.2, 10.0, 3)


def _oracle_args(path, cfg, spec):
    _, phi1, phi2, _, _ = spec.coefficients
    return dict(
        a_h0=path.a_h[0],
        a_l_path=path.a_l,
        y_vec=path.income_path,
        beta=cfg.beta,
        nu=spec.nu,
        phi=phi1,
        phi2=phi2,
        kappa_scale=cfg.kappa_scale,
        kappa_curv=cfg.kappa_curv,
    )


class TestFocOracle:
    def test_wedges_match_objective_gradient(self, sched, linear, cfg, small_path):
        report = evaluate_foc(sched, linear, cfg, small_path)
        fd = oracles.planner_fd_wedges(list(small_path.e_path), **_oracle_args(small_path, cfg, linear))
        for analytic, numeric in zip(report.wedge, fd):
            assert analytic == pytest.approx(numeric, rel=1e-6)

    def test_wedge_identity(self, sched, linear, cfg, small_path):
        report = evaluate_foc(sched, linear, cfg, small_path)
        recomputed = report.preference_term + report.spillover_term - report.shadow_cost
        assert np.array_equal(report.wedge, recomputed)

    def test_terminal_spillover_is_exactly_zero(self, sched, linear, cfg, small_path):
        report = evaluate_foc(sched, linear, cfg, small_path)
        assert report.eta_t[-1] == 0.0
        assert report.spillover_term[-1] == 0.0

    def test_sign_pattern_matches_objective_gradient(self, sched, linear, cfg, small_path):
        report = evaluate_foc(sched, linear, cfg, small_path)
        fd = oracles.planner_fd_wedges(list(small_path.e_path), **_oracle_args(small_path, cfg, linear))
        assert list(education_wedge_sign(report)) == [w > 0.0 for w in fd]

    def test_costate_equals_discounted_continuation_derivative(self, sched, linear, cfg, small_path):
        # eta_0 should be beta times the sensitivity of the remaining-value
        # sum to next period's high-tier productivity
        report = evaluate_foc(sched, linear, cfg, small_path)
        h = 1e-6
        args = _oracle_args(small_path, cfg, linear)

        def continuation(a_h1):
            return oracles.planner_objective(
                list(small_path.e_path[1:]), a_h1, small_path.a_l[1:],
                small_path.income_path[1:], cfg.beta, linear.nu, linear.phi,
                cfg.kappa_scale, cfg.kappa_curv,
            )

        a_h1 = small_path.a_h[1]
        fd = (continuation(a_h1 + h) - continuation(a_h1 - h)) / (2.0 * h)
        assert fd > 0.0
        assert report.eta_t[0] == pytest.approx(cfg.beta * fd, rel=1e-6)

    def test_eta_positive_before_terminal(self, sched, linear, cfg, small_path):
        report = evaluate_foc(sched, linear, cfg, small_path)
        assert np.all(report.eta_t[:-1] > 0.0)


class TestPreferenceTerm:
    def test_matches_envelope_finite_difference(self, sched, linear, cfg, small_path):
        # indirect utility at net income, differentiated in E only
        report = evaluate_foc(sched, linear, cfg, small_path)
        h = 1e-6
        for t in range(len(report)):
            e_t = small_path.e_path[t]
            p_t = small_path.p[t]
            y_net = small_path.income_path[t] - kappa(cfg, e_t)

            def value(e):
                return solve_demand(sched, HouseholdBudget(income=y_net, price_H=p_t), e).utility

            fd = (value(e_t + h) - value(e_t - h)) / (2.0 * h)
            assert report.preference_term[t] == pytest.approx(fd, rel=1e-5)


class TestDiagnostics:
    def test_spillover_channels_off(self, sched, cfg, small_path):
        # nu = phi = 0 switches both spillover channels off; the FOC
        # degenerates to preference term vs shadow cost
        inert = LearningSpec.linear(nu=0.0, phi=0.0, chi=1.2, validate=False)
        path = simulate_path(sched, inert, TechnologyState(a_H=1.0, a_L=2.0), 0.2, 10.0, 3)
        report = evaluate_foc(sched, inert, cfg, path)
        assert np.all(report.spillover_term == 0.0)
        assert np.array_equal(report.wedge, report.preference_term - report.shadow_cost)

    def test_discounting_monotonicity(self, sched, linear, small_path):
        high = evaluate_foc(sched, linear, PlannerConfig(beta=0.95, horizon=3), small_path)
        low = evaluate_foc(sched, linear, PlannerConfig(beta=0.50, horizon=3), small_path)
        assert np.all(np.abs(low.spillover_term) <= np.abs(high.spillover_term))

    def test_cubic_variant_matches_objective_gradient(self, sched, cubic, cfg):
        path = simulate_path(sched, cubic, TechnologyState(a_H=1.0, a_L=2.0), 0.2, 10.0, 3)
        report = evaluate_foc(sched, cubic, cfg, path)
        fd = oracles.planner_fd_wedges(list(path.e_path), **_oracle_args(path, cfg, cubic))
        assert report.spillover_term[0] > 0.0
        for analytic, numeric in zip(report.wedge, fd):
            assert analytic == pytest.approx(numeric, rel=1e-6)

    def test_short_path_rejected(self, sched, linear, small_path):
        with pytest.raises(InvalidHorizon):
            evaluate_foc(sched, linear, PlannerConfig(horizon=10), small_path)

    def test_non_interior_budget_surfaces(self, sched, linear, cfg):
        path = simulate_path(sched, linear, TechnologyState(a_H=1.0, a_L=2.0), 0.2, 1.5, 3)
        with pytest.raises(NonInteriorBudget):
            evaluate_foc(sched, linear, cfg, path)

    def test_education_cost_cannot_exceed_income(self, sched, linear):
        cfg = PlannerConfig(beta=0.9, horizon=3, kappa_scale=300.0, kappa_curv=1.0)
        path = simulate_path(sched, linear, TechnologyState(a_H=1.0, a_L=2.0), 0.2, 10.0, 3)
        with pytest.raises(ConfigError, match="education cost"):
            evaluate_foc(sched, linear, cfg, path)

    def test_non_finite_term_raises_naming_column_and_period(self, sched, cfg):
        huge_chi = LearningSpec.linear(nu=0.6, phi=0.8, chi=1e300)
        path = simulate_path(sched, huge_chi, TechnologyState(a_H=1.0, a_L=5.0), 0.2, 10.0, 3)
        assert np.isinf(path.p[2])
        with pytest.raises(NumericalOverflow, match=r"^planner FOC column 'spillover_term' "
                           r"is nan at t=0: "):
            evaluate_foc(sched, huge_chi, cfg, path)

    @pytest.mark.parametrize(
        "incomes, error, t",
        [
            ([10.0, 1.5, 0.001], NonInteriorBudget, 1),
            ([10.0, 0.001, 1.5], ConfigError, 1),
            ([1.5, 10.0, 0.001], NonInteriorBudget, 0),
        ],
    )
    def test_first_failing_period_decides_the_error(self, sched, linear, cfg, incomes, error, t):
        path = simulate_path(sched, linear, TechnologyState(a_H=1.0, a_L=2.0), 0.2, incomes, 3)
        with pytest.raises(error) as caught:
            evaluate_foc(sched, linear, cfg, path)
        net = incomes[t] - kappa(cfg, 0.2)
        if error is ConfigError:
            assert str(caught.value) == (
                f"income {incomes[t]} cannot cover the education cost {kappa(cfg, 0.2)} at t={t}: "
                "keys 'kappa_scale' and 'kappa_curv' in section 'planner' and key 'E' in "
                "section 'simulation' set the cost kappa_scale*E**kappa_curv"
            )
        else:
            with pytest.raises(NonInteriorBudget) as scalar:
                solve_demand(sched, HouseholdBudget(income=net, price_H=path.p[t]), 0.2)
            assert str(caught.value).startswith(
                f"{scalar.value} at t={t}, at net income {net}: keys 'income' and 'E' in ")


class TestKappa:
    def test_power_form(self, cfg):
        assert kappa(cfg, 0.2) == pytest.approx(0.05 * 0.04, rel=1e-14)
        assert kappa_prime(cfg, 0.2) == pytest.approx(0.05 * 2.0 * 0.2, rel=1e-14)

    def test_validation(self):
        with pytest.raises(ConfigError, match="beta"):
            PlannerConfig(beta=1.0)
        with pytest.raises(ConfigError, match="horizon"):
            PlannerConfig(horizon=0)
        with pytest.raises(ConfigError, match="kappa_curv"):
            PlannerConfig(kappa_curv=0.5)


class TestLongerHorizon:
    def test_ten_period_wedges_match_oracle(self, sched, linear):
        cfg = PlannerConfig(beta=0.9, horizon=10, kappa_scale=0.1, kappa_curv=1.5)
        e_path = np.linspace(0.15, 0.35, 10)
        path = simulate_path(sched, linear, TechnologyState(a_H=1.0, a_L=3.0), e_path, 12.0, 10)
        report = evaluate_foc(sched, linear, cfg, path)
        fd = oracles.planner_fd_wedges(
            list(path.e_path),
            a_h0=path.a_h[0], a_l_path=path.a_l, y_vec=path.income_path,
            beta=cfg.beta, nu=linear.nu, phi=linear.phi,
            kappa_scale=cfg.kappa_scale, kappa_curv=cfg.kappa_curv,
        )
        for analytic, numeric in zip(report.wedge, fd):
            assert analytic == pytest.approx(numeric, rel=1e-5)


def _random_planner_case(rng, variant):
    """A seeded calibration, planner set-up and simulated path for one variant.

    Returns (schedule, spec, planner config, path, oracle keyword arguments);
    half the draws have gamma_H > 0.
    """
    alpha = (rng.uniform(0.65, 0.80), rng.uniform(0.05, 0.30),
             rng.uniform(0.55, 0.62), rng.uniform(0.93, 0.98))
    gl_base, gl_decay = rng.uniform(0.5, 3.0), rng.uniform(0.1, 0.8)
    gamma_h = rng.uniform(0.01, 0.3) if rng.random() < 0.5 else 0.0
    sched = PreferenceSchedule(
        alpha_base=alpha[0], alpha_slope=alpha[1], alpha_lo=alpha[2], alpha_hi=alpha[3],
        gammaL_base=gl_base, gammaL_decay=gl_decay, gamma_H=gamma_h,
    )
    nu, phi1, chi1 = rng.uniform(0.1, 1.0), rng.uniform(0.1, 1.5), rng.uniform(0.1, 1.5)
    if variant == "linear":
        spec = LearningSpec.linear(nu=nu, phi=phi1, chi=chi1)
    else:
        # phi2 < 1 + phi1 and chi2 < 1 + chi1 keep both growth factors positive
        spec = LearningSpec.cubic(nu, phi1, rng.uniform(0.0, 0.9 * (1.0 + phi1)),
                                  chi1, rng.uniform(0.0, 0.9 * (1.0 + chi1)))
    horizon = rng.randint(2, 12)
    cfg = PlannerConfig(beta=rng.uniform(0.5, 0.99), horizon=horizon,
                        kappa_scale=rng.uniform(0.01, 0.3), kappa_curv=rng.uniform(1.0, 3.0))
    initial = TechnologyState(a_H=rng.uniform(0.5, 2.0), a_L=rng.uniform(0.5, 4.0))
    path = simulate_path(sched, spec, initial, [rng.uniform(0.05, 0.6) for _ in range(horizon)],
                         [rng.uniform(8.0, 20.0) for _ in range(horizon)], horizon)
    oracle_args = dict(_oracle_args(path, cfg, spec), alpha_params=alpha,
                       gl_base=gl_base, gl_decay=gl_decay, gamma_h=gamma_h)
    return sched, spec, cfg, path, oracle_args


class TestRandomCalibrations:
    @pytest.mark.parametrize("variant, seed", [("linear", 20), ("cubic", 21)])
    def test_wedges_match_objective_gradient(self, variant, seed):
        # 120 seeded draws per variant, horizons 2-12, random beta and kappa;
        # a draw with a non-interior period has no FOC and is drawn again. The
        # step h = 1e-5 keeps the difference quotient's rounding, which the
        # 1/beta^t rescaling of late periods magnifies, below its truncation
        rng = random.Random(seed)
        checked = with_gamma_h = 0
        while checked < 120:
            sched, spec, cfg, path, oracle_args = _random_planner_case(rng, variant)
            try:
                report = evaluate_foc(sched, spec, cfg, path)
            except NonInteriorBudget:
                continue
            fd = oracles.planner_fd_wedges(list(path.e_path), h=1e-5, **oracle_args)
            scale = np.max(np.abs(report.wedge))
            assert np.max(np.abs(report.wedge - fd)) <= 1e-7 * scale, (checked, spec, cfg)
            checked += 1
            with_gamma_h += sched.gamma_H > 0.0
        assert with_gamma_h >= 40
