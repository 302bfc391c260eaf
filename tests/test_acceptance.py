"""Full-scale verification gate: every headline guarantee, end to end.

Each ``test_criterion_<n>`` function is one verdict (the conftest hook prints
a PASS/FAIL line per criterion after the run).  Monte-Carlo runs use the
validated full-scale settings — path counts, horizons, and tolerances are
fixed, not shrunk for speed — so this file dominates the suite's runtime
(about two minutes, most of it the d=100 noise-floor ensemble).
"""

import math

import numpy as np
import pytest

from sgflow.bounds import BoundInputs, RateBound, ball_bound, noise_integral, \
    pl_noise_integral
from sgflow.estimators import principal_sqrt, sigma_mb, sigma_vr
from sgflow.harness import (RunSpec, ball_experiment, ensemble_run,
                            geometric_checkpoints,
                            landscape_stretch_experiment,
                            time_change_experiment, verify_bound,
                            weak_error_experiment)
from sgflow.problems import (FiniteSumProblem, ProblemConstants,
                             make_isotropic_quadratic,
                             make_perturbed_quadratic, make_spread_quadratic)
from sgflow.schedules import (AdjustmentSchedule, BatchSchedule,
                              StalenessSchedule, phi, phi_inverse)

SEED = 314159

# shared two-component test problem: H = diag(1, 2), additive noise +-(0.5, 0.3)
# => L = 2, mu = 1, sigma*^2 = 0.34, and h = 0.25 sits exactly at 0.5 / L
PERT = make_perturbed_quadratic([1.0, 2.0], [0.0, 0.0],
                                [[0.5, 0.3], [-0.5, -0.3]])
X0 = [1.0, 1.0]
SCHEDULES = {
    "constant": AdjustmentSchedule(h=0.25),
    "power05": AdjustmentSchedule(h=0.25, family="power", a=0.5),
}

# per-epoch contraction factor for the declared constants mu=10, L=1,
# h=0.01, m=100: (1 + 2 L^2 h^2 m) / (h m (mu - 2 L^2 h)) = 51/499
RHO_DECLARED = 0.10220440881763528


@pytest.mark.parametrize("d,level", [(2, 5e-6), (100, 2.5e-4)])
def test_criterion_1_noise_floor_level(d, level):
    # isotropic quadratic at mu = L = 2 with exactly isotropic noise: the
    # time-averaged tail of E[f - f*] must sit on h d sigma*^2 / 4 within 10%
    problem = make_isotropic_quadratic(2.0, d, sigma_star_sq=0.1)
    report = ball_experiment(problem, h=1e-4, b=1, dt=1e-4, T_long=3.0,
                             n_paths=1000, seed=SEED + 1 + d,
                             mode="continuous")
    assert report.passed
    det = report.details
    assert det["exact_level"] == pytest.approx(level, rel=1e-12)
    assert det["relative_error"] <= 0.10


def test_criterion_2_time_change_equivalence():
    # annealed flow vs constant-drift flow with rescaled noise: X(tau(t)) and
    # Y(t) agree in mean and std at >= 95% of checkpoints, 3 SE each.
    # T_w = log(51) puts the unwarped horizon at tau(T_w) = 50.
    problem = make_isotropic_quadratic(1.0, 1, sigma_star_sq=25.0)
    report = time_change_experiment(problem, [2.0], h=1e-3, T_w=math.log(51),
                                    n_paths=100, seed=SEED + 2)
    assert report.passed
    assert report.checkpoint_pass.mean() >= 0.95
    assert report.details["unwarped_horizon"] == pytest.approx(50.0, rel=1e-12)


def test_criterion_3_variance_reduced_contraction():
    # two-component curvature-spread quadratic, epochs of m=100 steps at
    # h=0.01; E|x_{jm} - x*|^2 <= rho^j |x0 - x*|^2 + 3 SE at every epoch,
    # for the discrete recursion and for the delay-SDE model alike
    problem = make_spread_quadratic(10.0, 1.0)
    x0 = [3.0]
    inputs = BoundInputs(d=1, L=1.0, f0_gap=problem.gap(np.array(x0)),
                         dist0_sq=9.0, adj=AdjustmentSchedule(h=0.01),
                         batch=BatchSchedule(), sigma_star_sq=0.0,
                         mu_pl=10.0, mu_rsi=10.0, tau=1.0, m=100)
    discrete = RateBound("vr_dt", inputs)
    rho = discrete.evaluate(1) / discrete.evaluate(0)
    assert rho == pytest.approx(RHO_DECLARED, rel=1e-12)

    spec = RunSpec(mode="svrg", problem=problem, x0=x0, h=0.01,
                   epoch_steps=100, n_epochs=5, record_every=100)
    stats = ensemble_run(spec, 500, SEED + 31)
    report = verify_bound(stats, discrete)
    assert report.passed

    spec_sdde = RunSpec(mode="vr-pgf", problem=problem, x0=x0,
                        staleness=StalenessSchedule(m=100, h=0.01),
                        dt=0.002, T=5.0, record_every=500)
    stats_sdde = ensemble_run(spec_sdde, 500, SEED + 32)
    report_sdde = verify_bound(stats_sdde, RateBound("vr_ct", inputs))
    assert report_sdde.passed
    assert np.all(report_sdde.empirical
                  <= report_sdde.reference + 3.0 * report_sdde.se)


@pytest.mark.parametrize("name", sorted(SCHEDULES))
def test_criterion_4_discrete_gradient_domination_bound(name):
    # 500 paths x 2000 steps of mini-batch SGD at h = 0.5/L: the mean f-gap
    # must respect the gradient-domination recursion bound at all checkpoints
    adj = SCHEDULES[name]
    spec = RunSpec(mode="sgd", problem=PERT, x0=X0, adj=adj, n_steps=2000,
                   record_every=10)
    stats = ensemble_run(spec, 500, SEED + 4)
    inputs = BoundInputs.from_problem(PERT, X0, adj)
    report = verify_bound(stats, RateBound("pl_dt", inputs))
    assert report.passed
    assert report.max_violation_se <= 3.0


@pytest.mark.parametrize("name", sorted(SCHEDULES))
def test_criterion_5_continuous_rate_bounds(name):
    # the diffusion model of the same runs at dt = h/5, one weighted ensemble
    # per schedule, checked against all four continuous guarantees: weighted
    # gradient norm, randomized and last-iterate suboptimality, f-gap decay
    adj = SCHEDULES[name]
    spec = RunSpec(mode="mb-pgf", problem=PERT, x0=X0, adj=adj, dt=0.05,
                   T=500.0, record_every=100, weights=True)
    stats = ensemble_run(spec, 500, SEED + 5)
    inputs = BoundInputs.from_problem(PERT, X0, adj)
    for kind in ("smooth_ct", "wqc_rand_ct", "wqc_last_ct", "pl_ct"):
        report = verify_bound(stats, RateBound(kind, inputs))
        assert report.passed, kind
        assert report.max_violation_se <= 3.0, kind


@pytest.mark.parametrize("a", [0.3, 0.5, 0.8])
def test_criterion_6_asymptotic_exponent(a):
    # (1+t)^(-a) schedule on the Gaussian-noise surrogate: the log-log slope
    # of the mean f-gap over the final decade of a 10^5-step run must sit
    # within 0.15 of -a
    problem = make_isotropic_quadratic(1.0, 1, sigma_star_sq=1.0)
    adj = AdjustmentSchedule(h=0.1, family="power", a=a)
    spec = RunSpec(mode="pgd", problem=problem, x0=[1.0], adj=adj,
                   n_steps=100_000,
                   record_ks=geometric_checkpoints(100_000, 240))
    stats = ensemble_run(spec, 400, SEED + 6)
    tail = stats.grid >= 1e3  # final decade of T = 10^4
    slope = np.polyfit(np.log1p(stats.grid[tail]),
                       np.log(stats.mean["f_gap"][tail]), 1)[0]
    assert abs(slope + a) <= 0.15


def test_criterion_7_landscape_stretching():
    # deterministic annealed flow on a diagonal quadratic with a saddle:
    # every coordinate follows (1+t)^(-lambda_i) x0_i within 5 dt |x0|, the
    # autonomous equivalent-gradient ODE reproduces the same curves, and the
    # saddle coordinate grows with log-log slope 0.5 +- 0.02
    report = landscape_stretch_experiment([1.0, 2.0, -0.5], [1.0, 1.0, 1.0],
                                          dt=1e-4, T=10.0)
    assert report.passed
    det = report.details
    assert det["max_error_vs_closed_form"] <= det["tolerance"]
    assert det["max_error_ode_vs_closed_form"] <= det["tolerance"]
    assert det["slopes"]["coord_2"] == pytest.approx(0.5, abs=0.02)


def test_criterion_8_weak_error_order():
    # halving the stepsize must halve |E[x_K] - E[X(Kh)]|: successive error
    # ratios in [1.6, 2.4] across h = 0.02, 0.01, 0.005 at 10^4 paths
    problem = make_isotropic_quadratic(1.0, 1, sigma_star_sq=0.04)
    report = weak_error_experiment(problem, (0.02, 0.01, 0.005), 1.0,
                                   10_000, SEED + 8, [5.0])
    assert report.passed
    for ratio in report.details["error_ratios"]:
        assert 1.6 <= ratio <= 2.4


# -- criterion 9: deterministic property suite (no path simulation) -----------


def test_criterion_9_estimator_unbiased_and_batch_scaling():
    p = FiniteSumProblem.from_affine(
        np.array([[1.0, 3.0], [2.0, 1.0], [3.0, 2.0]]),
        np.array([[0.4, -0.2], [-0.1, 0.5], [-0.3, -0.3]]),
        np.zeros(2), ProblemConstants(L=3.0))
    x = np.array([0.9, -0.4])
    n_draws = 100_000
    D, C = p.affine.D, p.affine.C
    gs = np.array([p.component_grad(i, x) for i in range(p.n_components)])
    target = (gs - p.grad(x)).T @ (gs - p.grad(x)) / p.n_components
    for b in (1, 4):
        rng = np.random.default_rng(SEED + 90 + b)
        idx = rng.integers(0, p.n_components, size=(n_draws, b))
        vals = (D[idx] * x + C[idx]).mean(axis=1)
        se = vals.std(axis=0, ddof=1) / np.sqrt(n_draws)
        assert np.all(np.abs(vals.mean(axis=0) - p.grad(x)) <= 4.0 * se)
        emp = np.cov(vals, rowvar=False, ddof=1)
        assert (np.linalg.norm(emp - target / b)
                <= 0.03 * np.linalg.norm(target / b))


def test_criterion_9_principal_sqrt_roundtrip():
    rng = np.random.default_rng(SEED + 91)
    for d in (2, 5, 8):
        B = rng.normal(size=(d, d))
        A = B @ B.T
        S = principal_sqrt(A)
        assert np.max(np.abs(S @ S - A)) <= 1e-9
        assert np.max(np.abs(S - S.T)) <= 1e-12


def test_criterion_9_clock_inversion():
    adjs = [AdjustmentSchedule(h=0.2),
            AdjustmentSchedule(h=0.2, family="power", a=0.3),
            AdjustmentSchedule(h=0.2, family="power", a=0.5),
            AdjustmentSchedule(h=0.2, family="power", a=1.0)]
    for adj in adjs:
        for s in (1e-3, 0.1, 1.0, 4.0, 25.0):
            assert abs(phi(adj, float(phi_inverse(adj, s))) - s) <= 1e-10


def test_criterion_9_quadrature_matches_closed_form():
    # the stabilized quadrature used by the gradient-domination noise term,
    # against the hand closed form for psi = 1/(1+s):
    # (1+t)^{-2mu} * ((1+t)^{2mu-1} - 1) / (2mu - 1)
    adj = AdjustmentSchedule(h=0.1, family="power", a=1.0)
    for mu in (0.75, 1.0, 2.0):
        inputs = BoundInputs(d=1, L=2.0, f0_gap=1.0, dist0_sq=1.0, adj=adj,
                             batch=BatchSchedule(), mu_pl=mu)
        for t in (0.5, 3.0, 20.0):
            hand = (((1 + t) ** (2 * mu - 1) - 1.0)
                    / ((2 * mu - 1) * (1 + t) ** (2 * mu)))
            got = pl_noise_integral(inputs, t)
            assert abs(got - hand) <= 1e-8 * hand
    # and the plain psi^2 integral against its primitive, psi = (1+s)^{-1/2}
    inputs = BoundInputs(d=1, L=2.0, f0_gap=1.0, dist0_sq=1.0,
                         adj=AdjustmentSchedule(h=0.1, family="power", a=0.5),
                         batch=BatchSchedule())
    for t in (0.5, 3.0, 20.0):
        assert abs(noise_integral(inputs, t) - math.log1p(t)) \
            <= 1e-8 * math.log1p(t)


def test_criterion_9_vr_covariance_trace_bound():
    # tr Sigma_VR(x, y) <= 2 L^2 (|x - x*|^2 + |y - x*|^2), 100 random pairs
    for p in (PERT, make_spread_quadratic(10.0, 1.0, d=2)):
        rng = np.random.default_rng(SEED + 92)
        L = p.constants.L
        for _ in range(100):
            x = 4.0 * rng.normal(size=p.d)
            y = 4.0 * rng.normal(size=p.d)
            tr = float(np.trace(sigma_vr(p, x, y).sigma_matrix))
            cap = 2.0 * L ** 2 * (np.sum((x - p.x_star) ** 2)
                                  + np.sum((y - p.x_star) ** 2))
            assert tr <= cap * (1 + 1e-12)


def test_criterion_9_ball_ratio_identity():
    # the discrete convergence-ball level is exactly twice the continuous one
    inputs = BoundInputs(d=3, L=2.0, f0_gap=1.0, dist0_sq=1.0,
                         adj=AdjustmentSchedule(h=0.07),
                         batch=BatchSchedule(b=2), sigma_star_sq=0.13,
                         mu_pl=0.9)
    assert ball_bound(inputs, "discrete") == 2.0 * ball_bound(inputs, "continuous")
    # the isotropic covariance behind criterion 1 really is sigma*^2 * I
    iso = make_isotropic_quadratic(2.0, 3, sigma_star_sq=0.1)
    assert np.allclose(sigma_mb(iso, np.zeros(3)).sigma_matrix,
                       0.1 * np.eye(3), atol=1e-15)
