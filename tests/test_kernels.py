"""Vectorised ensemble kernels against the per-path simulators.

The kernels claim stream-for-stream reproduction of the simulators: feeding
them the same per-path generators must give the same sample paths.  For the
discrete recursions and the constant-volatility diffusions that equality is
bitwise (the matrix products reduce over too few terms to reassociate); the
variance-reduced delay kernel recomputes its volatility in closed form and is
pinned to a tight relative tolerance instead.
"""

import os
import sys
import threading
import time

import numpy as np
import pytest

import sgflow._kernels as knl
from sgflow._kernels import (
    kernel_mb_pgf,
    kernel_mb_sgd,
    kernel_pgd,
    kernel_svrg,
    kernel_time_changed,
    kernel_vr_pgf,
    supports_kernel,
)
from sgflow.continuous import (
    simulate_mb_pgf,
    simulate_time_changed,
    simulate_vr_pgf,
)
from sgflow.discrete import run_mb_sgd, run_pgd, run_svrg_option2
from sgflow.problems import (
    FiniteSumProblem,
    ProblemConstants,
    make_isotropic_quadratic,
    make_perturbed_quadratic,
    make_spread_quadratic,
)
from sgflow.schedules import AdjustmentSchedule, BatchSchedule, StalenessSchedule

seed = 60601
n_paths = 6

H_DIAG = np.array([1.0, 2.0])
NOISE = np.array([[0.5, 0.3], [-0.5, -0.3]])
X_STAR = np.array([0.25, -1.0])
X0 = np.array([2.0, -3.0])


def noisy_problem():
    # constant covariance, non-diagonal square root: exercises the matrix path
    return make_perturbed_quadratic(H_DIAG, X_STAR, NOISE)


def isotropic_problem():
    # sqrt(sigma*^2) I volatility: exercises the scalar fast path
    return make_isotropic_quadratic(1.0, 2, sigma_star_sq=0.2)


def gen_list(master, n):
    return [np.random.Generator(np.random.PCG64(s))
            for s in np.random.SeedSequence(master).spawn(n)]


def stack_paths(run_one, master, n):
    """States (n, n_rec, d) from per-path simulator runs on spawned streams."""
    return np.stack([run_one(rng).states for rng in gen_list(master, n)])


# -- dispatch ----------------------------------------------------------------


def callable_problem():
    constants = ProblemConstants(L=1.0)
    return FiniteSumProblem(
        d=1, x_star=np.zeros(1), constants=constants,
        components=[(lambda x: float(0.5 * x @ x), lambda x: x)],
    )


@pytest.mark.parametrize("mode", ["sgd", "pgd", "svrg", "mb-pgf", "vr-pgf",
                                  "time-changed"])
def test_supports_kernel_needs_affine(mode):
    assert not supports_kernel(mode, callable_problem(), BatchSchedule())


@pytest.mark.parametrize("mode", ["sgd", "pgd", "mb-pgf", "time-changed"])
def test_supports_kernel_needs_constant_batch(mode):
    growing = BatchSchedule(family="linear-growth", b0=1.0, rate=2.0)
    assert not supports_kernel(mode, noisy_problem(), growing)


def test_supports_kernel_table():
    perturbed = noisy_problem()
    spread1 = make_spread_quadratic(3.0, 1.0)
    spread2 = make_spread_quadratic(3.0, 1.0, d=2)
    b = BatchSchedule(b=2)

    assert supports_kernel("sgd", perturbed, b)
    assert supports_kernel("pgd", perturbed, b)
    assert supports_kernel("svrg", perturbed, None)
    assert supports_kernel("svrg", spread2, None)

    # the mini-batch diffusions need a constant covariance
    assert supports_kernel("mb-pgf", perturbed, b)
    assert supports_kernel("time-changed", isotropic_problem(), b)
    assert not supports_kernel("mb-pgf", spread1, b)
    assert not supports_kernel("time-changed", spread1, b)

    # the delay kernel covers only the two-component scalar family
    assert supports_kernel("vr-pgf", spread1, None)
    assert not supports_kernel("vr-pgf", spread2, None)
    assert not supports_kernel("vr-pgf", perturbed, None)

    assert not supports_kernel("warp-drive", perturbed, b)


def test_scalar_of():
    assert knl._scalar_of(np.eye(3)) == 1.0
    assert knl._scalar_of(np.sqrt(0.2) * np.eye(2)) == np.sqrt(0.2)
    assert knl._scalar_of(np.zeros((2, 2))) == 0.0
    assert knl._scalar_of(np.diag([1.0, 2.0])) is None
    assert knl._scalar_of(np.array([[1.0, 0.1], [0.1, 1.0]])) is None


# -- discrete kernels --------------------------------------------------------


def test_kernel_mb_sgd_matches_simulator_bitwise():
    p = noisy_problem()
    adj = AdjustmentSchedule(h=0.25, family="power", a=0.5)
    batch = BatchSchedule(b=2)
    n_steps = 25

    res = kernel_mb_sgd(p, adj, batch, X0, n_steps, gen_list(seed, n_paths),
                        record_ks=np.arange(n_steps + 1))
    ref = stack_paths(lambda rng: run_mb_sgd(p, adj, batch, X0, n_steps, rng),
                      seed, n_paths)

    assert np.array_equal(res.record_ks, np.arange(n_steps + 1))
    assert np.array_equal(res.states, ref)
    assert not res.diverged.any()
    assert np.all(res.divergence_step == -1)
    assert res.wsum_f_gap is None and res.wsum_grad_sq is None


def test_kernel_mb_sgd_partial_recording():
    p = noisy_problem()
    adj = AdjustmentSchedule(h=0.1)
    batch = BatchSchedule(b=1)
    ks = np.array([0, 3, 11, 12])

    res = kernel_mb_sgd(p, adj, batch, X0, 12, gen_list(seed, 3), record_ks=ks)
    full = kernel_mb_sgd(p, adj, batch, X0, 12, gen_list(seed, 3),
                         record_ks=np.arange(13))
    assert res.states.shape == (3, 4, 2)
    assert np.array_equal(res.states, full.states[:, ks, :])


@pytest.mark.parametrize("bad_ks", [[], [3, 3, 5], [0, 2, 1], [-1, 4], [0, 99]])
def test_kernel_record_ks_validation(bad_ks):
    p = noisy_problem()
    with pytest.raises(ValueError):
        kernel_mb_sgd(p, AdjustmentSchedule(h=0.1), BatchSchedule(), X0, 10,
                      gen_list(seed, 2), record_ks=bad_ks)


def test_kernel_mb_sgd_weighted_sums():
    p = noisy_problem()
    adj = AdjustmentSchedule(h=0.25, family="power", a=1.0)
    batch = BatchSchedule(b=1)
    n_steps = 15
    ks = np.arange(n_steps + 1)

    res = kernel_mb_sgd(p, adj, batch, X0, n_steps, gen_list(seed, n_paths),
                        record_ks=ks, weights=True)

    for path, rng in enumerate(gen_list(seed, n_paths)):
        traj = run_mb_sgd(p, adj, batch, X0, n_steps, rng)
        acc_f = acc_g = 0.0
        for k in range(n_steps + 1):
            g = p.grad(traj.states[k])
            acc_f = acc_f + adj.psi_k(k) * p.gap(traj.states[k])
            acc_g = acc_g + adj.psi_k(k) * float(g @ g)
            assert res.wsum_f_gap[path, k] == acc_f
            assert res.wsum_grad_sq[path, k] == acc_g


@pytest.mark.parametrize("problem_fn, mode, exact_bits", [
    # scalar volatility: the kernel's scalar multiply is bitwise neutral
    (isotropic_problem, "constant", True),
    (isotropic_problem, "exact", True),
    # matrix volatility: BLAS matvec vs matmul reassociate -- ulp-level only
    (noisy_problem, "exact", False),
])
def test_kernel_pgd_matches_simulator(problem_fn, mode, exact_bits):
    p = problem_fn()
    adj = AdjustmentSchedule(h=0.2, family="power", a=0.5)
    batch = BatchSchedule(b=3)
    n_steps = 30

    res = kernel_pgd(p, adj, batch, X0, n_steps, gen_list(seed, n_paths),
                     record_ks=np.arange(n_steps + 1), volatility_mode=mode)
    ref = stack_paths(
        lambda rng: run_pgd(p, adj, batch, X0, n_steps, rng,
                            volatility_mode=mode),
        seed, n_paths)
    if exact_bits:
        assert np.array_equal(res.states, ref)
    else:
        assert res.states == pytest.approx(ref, rel=1e-14)
    assert not res.diverged.any()


def test_kernel_pgd_rejects_state_dependent_volatility():
    spread = make_spread_quadratic(3.0, 1.0, d=2)
    with pytest.raises(ValueError, match="constant-covariance"):
        kernel_pgd(spread, AdjustmentSchedule(h=0.1), BatchSchedule(), [1.0, 1.0],
                   5, gen_list(seed, 2), record_ks=[0, 5])


def test_kernel_svrg_matches_simulator_bitwise():
    p = noisy_problem()
    h, m, n_epochs = 0.05, 3, 4
    n_steps = m * n_epochs

    res = kernel_svrg(p, h, m, n_epochs, X0, gen_list(seed, n_paths),
                      record_ks=np.arange(n_steps + 1))
    ref = stack_paths(lambda rng: run_svrg_option2(p, h, m, n_epochs, X0, rng),
                      seed, n_paths)
    assert np.array_equal(res.states, ref)
    assert not res.diverged.any()


# -- diffusion kernels -------------------------------------------------------


@pytest.mark.parametrize("problem_fn, mode, exact_bits", [
    (noisy_problem, "exact", False),
    (isotropic_problem, "constant", True),
])
def test_kernel_mb_pgf_matches_simulator(problem_fn, mode, exact_bits):
    p = problem_fn()
    adj = AdjustmentSchedule(h=0.2, family="power", a=0.5)
    batch = BatchSchedule(family="linear-growth", b0=1.0, rate=2.0)
    dt, n_steps = 0.01, 40

    res = kernel_mb_pgf(p, adj, batch, X0, dt, n_steps, gen_list(seed, n_paths),
                        record_ks=np.arange(n_steps + 1), volatility_mode=mode)
    ref = stack_paths(
        lambda rng: simulate_mb_pgf(p, adj, batch, X0, dt, n_steps * dt, rng,
                                    volatility_mode=mode),
        seed, n_paths)
    if exact_bits:
        assert np.array_equal(res.states, ref)
    else:
        assert res.states == pytest.approx(ref, rel=1e-14)
    assert not res.diverged.any()


def test_kernel_mb_pgf_weighted_trapezoid():
    p = noisy_problem()
    adj = AdjustmentSchedule(h=0.2, family="power", a=1.0)
    batch = BatchSchedule(b=1)
    dt, n_steps = 0.02, 20
    ks = np.arange(n_steps + 1)

    res = kernel_mb_pgf(p, adj, batch, X0, dt, n_steps, gen_list(seed, 4),
                        record_ks=ks, weights=True)

    for path, rng in enumerate(gen_list(seed, 4)):
        traj = simulate_mb_pgf(p, adj, batch, X0, dt, n_steps * dt, rng)
        acc_f = acc_g = 0.0
        prev_f = prev_g = None
        for k in range(n_steps + 1):
            g = p.grad(traj.states[k])
            wf = adj.psi(k * dt) * p.gap(traj.states[k])
            wg = adj.psi(k * dt) * float(g @ g)
            if k > 0:
                acc_f = acc_f + (0.5 * dt) * (prev_f + wf)
                acc_g = acc_g + (0.5 * dt) * (prev_g + wg)
            prev_f, prev_g = wf, wg
            assert res.wsum_f_gap[path, k] == pytest.approx(acc_f, rel=1e-12)
            assert res.wsum_grad_sq[path, k] == pytest.approx(acc_g, rel=1e-12)
        # the weighted sums start at zero: nothing accumulated at t = 0
        assert res.wsum_f_gap[path, 0] == 0.0


def test_kernel_time_changed_matches_simulator_bitwise():
    p = isotropic_problem()
    adj = AdjustmentSchedule(h=0.2, family="power", a=1.0)
    batch = BatchSchedule(b=1)
    dt, n_steps = 0.05, 20

    res = kernel_time_changed(p, adj, batch, X0, dt, n_steps,
                              gen_list(seed, n_paths),
                              record_ks=np.arange(n_steps + 1))
    ref = stack_paths(
        lambda rng: simulate_time_changed(p, adj, batch, X0, dt, n_steps * dt,
                                          rng),
        seed, n_paths)
    assert np.array_equal(res.states, ref)


@pytest.mark.parametrize("with_jumps", [True, False])
def test_kernel_vr_pgf_matches_simulator(with_jumps):
    p = make_spread_quadratic(3.0, 1.0)
    st = StalenessSchedule(m=2, h=0.01)
    dt = 0.01  # epoch spans q = 2 grid steps
    n_steps = 7  # horizon not an epoch multiple: exercises the tail block
    x0 = np.array([1.5])

    res = kernel_vr_pgf(p, st, x0, dt, n_steps, gen_list(seed, n_paths),
                        record_ks=np.arange(n_steps + 1), with_jumps=with_jumps)
    ref = stack_paths(
        lambda rng: simulate_vr_pgf(p, st, x0, dt, n_steps * dt, rng,
                                    with_jumps=with_jumps),
        seed, n_paths)
    # the kernel evaluates the one-sample volatility in closed form; the
    # simulator takes a 1x1 eigendecomposition -- equal only up to round-off
    assert res.states == pytest.approx(ref, rel=1e-9, abs=1e-12)
    assert not res.diverged.any()


def test_kernel_vr_pgf_rejects_wrong_shapes():
    with pytest.raises(ValueError, match="two-component"):
        kernel_vr_pgf(make_spread_quadratic(3.0, 1.0, d=2),
                      StalenessSchedule(m=2, h=0.01), [1.0, 1.0], 0.01, 4,
                      gen_list(seed, 2), record_ks=[0, 4])
    with pytest.raises(ValueError, match="multiple of dt"):
        kernel_vr_pgf(make_spread_quadratic(3.0, 1.0),
                      StalenessSchedule(m=3, h=0.01), [1.0], 0.02, 4,
                      gen_list(seed, 2), record_ks=[0, 4])


# -- chunking and divergence -------------------------------------------------


def test_chunked_draws_reproduce_unchunked(monkeypatch):
    p = noisy_problem()
    adj = AdjustmentSchedule(h=0.2)
    batch = BatchSchedule(b=2)
    ks = np.arange(21)

    whole_sgd = kernel_mb_sgd(p, adj, batch, X0, 20, gen_list(seed, 3), ks)
    whole_pgd = kernel_pgd(p, adj, batch, X0, 20, gen_list(seed, 3), ks)

    # shrink the chunk budget so every step becomes its own generator call
    monkeypatch.setattr(knl, "_CHUNK_DOUBLES", 1)
    tiny_sgd = kernel_mb_sgd(p, adj, batch, X0, 20, gen_list(seed, 3), ks)
    tiny_pgd = kernel_pgd(p, adj, batch, X0, 20, gen_list(seed, 3), ks)

    assert np.array_equal(whole_sgd.states, tiny_sgd.states)
    assert np.array_equal(whole_pgd.states, tiny_pgd.states)


# -- parallel chunk fill -------------------------------------------------------

FILL_STEPS, FILL_WIDTH = 11, 3  # 3-step chunks: 11 steps end on a short one


def _drawn(kind, gens):
    """Every chunk the draw generator yields, joined along the steps."""
    if kind == "normal":
        chunks = knl._normal_chunks(gens, FILL_STEPS, FILL_WIDTH)
    else:
        chunks = knl._index_chunks(gens, FILL_STEPS, 5, FILL_WIDTH)
    return np.concatenate([B.copy() for _, B in chunks], axis=1)


@pytest.mark.parametrize("kind", ["normal", "index"])
@pytest.mark.parametrize("n_paths", [1, 4, 7])
@pytest.mark.parametrize("workers", [1, 2, 3, 5])
def test_parallel_fill_gives_the_serial_draws(workers, n_paths, kind,
                                              monkeypatch):
    monkeypatch.setattr(knl, "_fill_workers", lambda n: workers)
    monkeypatch.setattr(knl, "_CHUNK_DOUBLES", 3 * n_paths * FILL_WIDTH)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # hand the GIL between threads at every chance
    try:
        got = _drawn(kind, gen_list(seed, n_paths))
    finally:
        sys.setswitchinterval(interval)
    # one sized call per path: the stream that every split must reproduce
    ref = np.array([g.standard_normal((FILL_STEPS, FILL_WIDTH)) if kind == "normal"
                    else g.integers(0, 5, size=(FILL_STEPS, FILL_WIDTH))
                    for g in gen_list(seed, n_paths)])
    assert got.dtype == ref.dtype and got.tobytes() == ref.tobytes()


class _FailingStream:
    def standard_normal(self, out):
        raise RuntimeError("stream failed")


class _SlowStream:
    done = False

    def standard_normal(self, out):
        time.sleep(0.2)
        out[...] = 0.0
        self.done = True


def _draw_threads():
    return [t for t in threading.enumerate() if t.name.startswith("sgflow-draw")]


@pytest.mark.parametrize("failing", [0, 3], ids=["caller-range", "pool-range"])
def test_fill_error_reaches_the_caller_after_every_range(failing, monkeypatch):
    # two ranges of two paths: the caller fills paths 0-1, a pool thread 2-3
    monkeypatch.setattr(knl, "_fill_workers", lambda n: 2)
    slow = _SlowStream()
    gens = gen_list(seed, 4)
    gens[failing] = _FailingStream()
    gens[2 if failing == 0 else 1] = slow  # a range that is still drawing
    with pytest.raises(RuntimeError, match="stream failed"):
        for _ in knl._normal_chunks(gens, 5, 2):
            pass
    assert slow.done
    assert _draw_threads() == []


def test_fill_workers_within_cores_and_paths():
    assert 1 <= knl._fill_workers(10**6) <= os.cpu_count()
    assert knl._fill_workers(1) == 1


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_divergence_flags_match_simulator():
    # component curvatures 1 and 1e200: drawing the stiff component overflows
    # within a step or two, drawing the tame one snaps the iterate to x*
    D = np.array([[1.0], [1e200]])
    C = np.zeros((2, 1))
    p = FiniteSumProblem.from_affine(D, C, np.zeros(1), ProblemConstants(L=1e200))
    adj = AdjustmentSchedule(h=1.0)
    batch = BatchSchedule(b=1)
    x0 = np.array([10.0])
    n_steps, paths = 6, 40

    res = kernel_mb_sgd(p, adj, batch, x0, n_steps, gen_list(seed, paths),
                        record_ks=np.arange(n_steps + 1))
    trajs = [run_mb_sgd(p, adj, batch, x0, n_steps, rng)
             for rng in gen_list(seed, paths)]

    assert any(t.diverged for t in trajs)
    assert not all(t.diverged for t in trajs)
    for path, traj in enumerate(trajs):
        assert res.diverged[path] == traj.diverged
        if traj.diverged:
            assert res.divergence_step[path] == traj.divergence_step
        else:
            assert np.array_equal(res.states[path], traj.states)


def _run_kernel(kind, p, x0, n_steps, gens):
    adj, batch = AdjustmentSchedule(h=1.0), BatchSchedule()
    ks = np.arange(n_steps + 1)
    if kind == "pgd":
        return kernel_pgd(p, adj, batch, x0, n_steps, gens, ks)
    return kernel_mb_pgf(p, adj, batch, x0, 1.0, n_steps, gens, ks)


def _run_simulator(kind, p, x0, n_steps, rng):
    adj, batch = AdjustmentSchedule(h=1.0), BatchSchedule()
    if kind == "pgd":
        return run_pgd(p, adj, batch, x0, n_steps, rng)
    return simulate_mb_pgf(p, adj, batch, x0, 1.0, float(n_steps), rng)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("stiff", [
    lambda: make_isotropic_quadratic(6e102, 2, sigma_star_sq=1.0),
    lambda: make_perturbed_quadratic([6e102, 6e102], [0.0, 0.0], NOISE),
], ids=["scalar-vol", "matrix-vol"])
@pytest.mark.parametrize("kind", ["pgd", "mb-pgf"])
def test_overflow_flagged_at_simulator_step(kind, stiff):
    # curvature 6e102 with h = dt = 1 multiplies the offset by about -6e102
    # per step: depending on its draws a path overflows at step 4 or 5, so
    # within 4 steps some paths diverge and some do not
    p = stiff()
    x0, n_steps, paths = np.zeros(2), 4, 30

    res = _run_kernel(kind, p, x0, n_steps, gen_list(seed, paths))
    trajs = [_run_simulator(kind, p, x0, n_steps, rng)
             for rng in gen_list(seed, paths)]

    assert any(t.diverged for t in trajs)
    assert not all(t.diverged for t in trajs)
    for path, traj in enumerate(trajs):
        assert res.diverged[path] == traj.diverged
        assert res.divergence_step[path] == (traj.divergence_step
                                             if traj.diverged else -1)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # simulator observables
@pytest.mark.parametrize("kind", ["pgd", "mb-pgf"])
def test_overflowing_sum_of_finite_states_not_flagged(kind):
    # every entry stays near 1.5e308, so the block's sum overflows although
    # each state is finite: the sum filter must defer to the exact test
    p = make_isotropic_quadratic(1e-300, 2, sigma_star_sq=0.2)
    x0, n_steps, paths = np.array([1.5e308, 1.5e308]), 5, 6

    with np.errstate(over="ignore"):
        assert not np.isfinite(np.tile(x0, (paths, 1)).sum())
    res = _run_kernel(kind, p, x0, n_steps, gen_list(seed, paths))
    ref = stack_paths(lambda rng: _run_simulator(kind, p, x0, n_steps, rng),
                      seed, paths)

    assert np.all(np.isfinite(res.states)) and np.all(res.states > 1e308)
    assert not res.diverged.any()
    assert np.all(res.divergence_step == -1)
    assert np.array_equal(res.states, ref)
