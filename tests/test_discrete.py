"""The three optimization loops: recursion, recording, randomness plumbing."""

import numpy as np
import pytest

from sgflow._kernels import _observable_arrays
from sgflow.discrete import run_mb_sgd, run_pgd, run_svrg_option2
from sgflow.problems import (
    make_isotropic_quadratic,
    make_perturbed_quadratic,
    make_spread_quadratic,
)
from sgflow.schedules import AdjustmentSchedule, BatchSchedule

seed = 5150

H_DIAG = np.array([1.0, 2.0])
NOISE = np.array([[0.5, 0.3], [-0.5, -0.3]])


def noisy_problem():
    return make_perturbed_quadratic(H_DIAG, np.zeros(2), NOISE)


def quiet_problem():
    # single-component quadratic: the estimator is exact, runs are deterministic
    return make_isotropic_quadratic(1.0, 2)


def test_sgd_zero_noise_halves_exactly():
    # mu = 1, h = 1/2: x_{k+1} = x_k - x_k/2, exact in floating point
    p = quiet_problem()
    x0 = np.array([1.0, -3.0])
    tr = run_mb_sgd(p, AdjustmentSchedule(h=0.5), BatchSchedule(), x0, 10,
                    np.random.default_rng(seed))
    expected = np.array([0.5 ** k * x0 for k in range(11)])
    assert np.array_equal(tr.states, expected)
    assert np.array_equal(tr.times, 0.5 * np.arange(11))
    assert not tr.diverged and tr.divergence_step is None
    assert len(tr) == 11


def test_sgd_power_schedule_matches_plain_recursion():
    p = quiet_problem()
    adj = AdjustmentSchedule(h=0.4, family="power", a=0.5)
    x0 = np.array([2.0, 1.0])
    tr = run_mb_sgd(p, adj, BatchSchedule(), x0, 25, np.random.default_rng(seed))
    x = x0.copy()
    for k in range(25):
        x = x - adj.eta_k(k) * p.grad(x)
        assert np.allclose(tr.states[k + 1], x, rtol=1e-15, atol=0)


def test_record_every_thinning():
    p = quiet_problem()
    tr = run_mb_sgd(p, AdjustmentSchedule(h=0.5), BatchSchedule(),
                    np.ones(2), 10, np.random.default_rng(seed), record_every=3)
    assert np.array_equal(tr.times / 0.5, [0, 3, 6, 9, 10])  # final step kept
    assert len(tr) == 5
    tr2 = run_mb_sgd(p, AdjustmentSchedule(h=0.5), BatchSchedule(),
                     np.ones(2), 10, np.random.default_rng(seed), record_every=99)
    assert np.array_equal(tr2.times / 0.5, [0, 10])
    with pytest.raises(ValueError):
        run_mb_sgd(p, AdjustmentSchedule(h=0.5), BatchSchedule(), np.ones(2),
                   10, np.random.default_rng(seed), record_every=0)


def test_observables_recomputable_from_states():
    p = noisy_problem()
    rng = np.random.default_rng(seed)
    for tr in (run_mb_sgd(p, AdjustmentSchedule(h=0.25), BatchSchedule(b=2),
                          np.array([1.0, 1.0]), 40, rng),
               run_pgd(p, AdjustmentSchedule(h=0.25, family="power", a=0.5),
                       BatchSchedule(b=2), np.array([2.0, -3.0]), 40, rng),
               run_svrg_option2(p, 0.25, 4, 10, np.array([1.0, 1.0]), rng)):
        # bit for bit the ensembles' block formula of the states
        for got, want in zip((tr.f_gap, tr.grad_norm_sq, tr.dist_sq),
                             _observable_arrays(p, tr.states)):
            assert np.array_equal(got, want)
        # the row formulas sum the same d products in another order (BLAS
        # ddot may fuse them): the stated tolerance is d * eps relative
        rows = np.array([[p.gap(x), float(p.grad(x) @ p.grad(x)),
                          float(np.sum(x ** 2))] for x in tr.states])
        np.testing.assert_allclose(
            np.stack([tr.f_gap, tr.grad_norm_sq, tr.dist_sq], axis=1), rows,
            rtol=p.d * np.finfo(float).eps, atol=0)


def test_sgd_one_step_expected_gap():
    # E f(x_1) = (1/2) sum_j H_j ((1 - h H_j)^2 u_j^2 + h^2 c_j^2)
    # = 0.5446875 at x0 = (1, 1), h = 1/4 (worked by hand)
    p = noisy_problem()
    n = 4000
    rng = np.random.default_rng(seed)
    gaps = np.empty(n)
    for i in range(n):
        tr = run_mb_sgd(p, AdjustmentSchedule(h=0.25), BatchSchedule(),
                        np.array([1.0, 1.0]), 1, rng)
        gaps[i] = tr.f_gap[1]
    se = gaps.std(ddof=1) / np.sqrt(n)
    assert abs(gaps.mean() - 0.5446875) <= 4.0 * se


def test_pgd_one_step_moments():
    # x_1 = x_0 - h grad f - (h/sqrt(b)) sigma Z: Gaussian with known moments
    p = noisy_problem()
    h, b, n = 0.25, 2, 6000
    x0 = np.array([1.0, 1.0])
    rng = np.random.default_rng(seed + 1)
    ends = np.empty((n, 2))
    for i in range(n):
        tr = run_pgd(p, AdjustmentSchedule(h=h), BatchSchedule(b=b), x0, 1, rng)
        ends[i] = tr.states[1]
    target_mean = x0 - h * p.grad(x0)
    se = ends.std(axis=0, ddof=1) / np.sqrt(n)
    assert np.all(np.abs(ends.mean(axis=0) - target_mean) <= 4.0 * se)
    cov_target = h * h / b * (NOISE.T @ NOISE / 2)
    emp = np.cov(ends, rowvar=False, ddof=1)
    assert np.linalg.norm(emp - cov_target) <= 0.08 * np.linalg.norm(cov_target)


def test_pgd_zero_noise_is_gradient_descent():
    p = quiet_problem()
    x0 = np.array([1.0, -3.0])
    tr = run_pgd(p, AdjustmentSchedule(h=0.5), BatchSchedule(), x0, 8,
                 np.random.default_rng(seed))
    assert np.array_equal(tr.states, [0.5 ** k * x0 for k in range(9)])


def test_pgd_constant_volatility_matches_exact_for_isotropic_noise():
    # for isotropic noise the exact square root IS sqrt(s2) I, so the two
    # modes integrate the same path from the same seed
    p = make_isotropic_quadratic(1.0, 2, sigma_star_sq=0.2)
    x0 = np.array([1.5, -0.5])
    adj = AdjustmentSchedule(h=0.1)
    tr_exact = run_pgd(p, adj, BatchSchedule(), x0, 30, np.random.default_rng(7))
    tr_const = run_pgd(p, adj, BatchSchedule(), x0, 30, np.random.default_rng(7),
                       volatility_mode="constant")
    assert np.allclose(tr_exact.states, tr_const.states, rtol=1e-12, atol=1e-14)


def test_pgd_volatility_mode_errors():
    spread = make_spread_quadratic(10.0, 1.0)  # declares no sigma_star_sq
    rng = np.random.default_rng(0)
    with pytest.raises(ValueError):
        run_pgd(spread, AdjustmentSchedule(h=0.01), BatchSchedule(),
                np.array([1.0]), 1, rng, volatility_mode="constant")
    with pytest.raises(ValueError):
        run_pgd(spread, AdjustmentSchedule(h=0.01), BatchSchedule(),
                np.array([1.0]), 1, rng, volatility_mode="frozen")


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_divergence_is_flagged_and_truncated():
    p = quiet_problem()
    x0 = np.array([1.0, 1.0])
    h = 1e155  # second step overflows: |x_2| ~ h^2
    for runner in (run_mb_sgd, run_pgd):
        tr = runner(p, AdjustmentSchedule(h=h), BatchSchedule(), x0, 5,
                    np.random.default_rng(seed))
        assert tr.diverged
        assert tr.divergence_step == 2
        assert len(tr) == 2  # x_0 and the still-finite x_1
        assert np.all(np.isfinite(tr.states))


def test_svrg_replays_against_manual_recursion():
    # spread = 0 makes the inner update deterministic, so the whole run —
    # including the index draws and the uniform epoch-end resampling — can be
    # replayed with a cloned generator
    lam, m, n_epochs, h = 2.0, 4, 3, 0.05
    p = make_spread_quadratic(lam, 0.0)
    x0 = np.array([3.0])
    tr = run_svrg_option2(p, h, m, n_epochs, x0, np.random.default_rng(seed))

    rng = np.random.default_rng(seed)
    x = x0.copy()
    states = [x.copy()]
    flags = [False]
    for _ in range(n_epochs):
        pivot = x.copy()
        window = []
        for i in range(m):
            window.append(x.copy())
            rng.integers(0, p.n_components, size=1)  # the component draw
            g = lam * (x - pivot) + lam * pivot
            x = x - h * g
            if i < m - 1:
                states.append(x.copy())
                flags.append(False)
        x = window[int(rng.integers(0, m))].copy()
        states.append(x.copy())
        flags.append(True)
    assert np.array_equal(tr.states, np.array(states))
    assert np.array_equal(tr.jump_flags, np.array(flags))
    assert np.array_equal(tr.times, h * np.arange(m * n_epochs + 1))


def test_svrg_epoch_end_resamples_from_window():
    p = make_spread_quadratic(10.0, 1.0)
    m, n_epochs = 5, 3
    tr = run_svrg_option2(p, 0.01, m, n_epochs, np.array([4.0]),
                          np.random.default_rng(seed + 3))
    flags = np.flatnonzero(tr.jump_flags)
    assert np.array_equal(flags, [m, 2 * m, 3 * m])
    for j in range(n_epochs):
        window = tr.states[j * m:(j + 1) * m]
        resampled = tr.states[(j + 1) * m]
        assert np.any(np.all(window == resampled, axis=1))


def test_svrg_single_step_epochs_never_move():
    # m = 1: the only window entry is the epoch start, so resampling always
    # returns to it and the trajectory is constant
    p = make_spread_quadratic(10.0, 1.0)
    x0 = np.array([4.0])
    tr = run_svrg_option2(p, 0.01, 1, 4, x0, np.random.default_rng(seed))
    assert np.array_equal(tr.states, np.tile(x0, (5, 1)))
    assert np.array_equal(tr.jump_flags, [False, True, True, True, True])


def test_run_argument_validation():
    p = quiet_problem()
    rng = np.random.default_rng(0)
    with pytest.raises(ValueError):
        run_mb_sgd(p, AdjustmentSchedule(h=0.5), BatchSchedule(), np.ones(2), 0, rng)
    with pytest.raises(ValueError):
        run_pgd(p, AdjustmentSchedule(h=0.5), BatchSchedule(), np.ones(2), 0, rng)
    with pytest.raises(ValueError):
        run_svrg_option2(p, 0.5, 0, 1, np.ones(2), rng)
    with pytest.raises(ValueError):
        run_svrg_option2(p, 0.5, 1, 0, np.ones(2), rng)
