"""Vectorised kernels against the per-path reference loops.

The kernels are the only step loops of the package; ``tests/reference.py``
keeps the per-path loops the simulators ran before.  The kernels claim
stream-for-stream reproduction of those loops: feeding them the same
per-path generators must give the same sample paths.  For the discrete
recursions and the scalar-volatility diffusions that equality is bitwise; a
matrix volatility multiplies the noise block as one product, and the
variance-reduced delay kernel recomputes its volatility in closed form, so
those two are pinned to a tight relative tolerance instead.
"""

import gc
import inspect
import math
import os
import sys
import threading
import time
import weakref

import numpy as np
import pytest

import reference
import sgflow
import sgflow._kernels as knl
from sgflow._kernels import (
    kernel_mb_pgf,
    kernel_mb_sgd,
    kernel_pgd,
    kernel_svrg,
    kernel_time_changed,
    kernel_vr_pgf,
)
from reference import (
    run_mb_sgd,
    run_pgd,
    run_svrg_option2,
    simulate_mb_pgf,
    simulate_time_changed,
    simulate_vr_pgf,
)
from sgflow.estimators import sigma_mb
from sgflow.problems import (
    FiniteSumProblem,
    ProblemConstants,
    make_isotropic_quadratic,
    make_perturbed_quadratic,
    make_spread_quadratic,
)
from sgflow.schedules import (
    AdjustmentSchedule,
    BatchSchedule,
    StalenessSchedule,
    phi_inverse,
)

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
    """States (n, n_rec, d) from per-path reference-loop runs on spawned streams."""
    return np.stack([run_one(rng).states for rng in gen_list(master, n)])


# -- volatility ------------------------------------------------------------


def test_scalar_of():
    assert knl._scalar_of(np.eye(3)) == 1.0
    assert knl._scalar_of(np.sqrt(0.2) * np.eye(2)) == np.sqrt(0.2)
    assert knl._scalar_of(np.zeros((2, 2))) == 0.0
    assert knl._scalar_of(np.diag([1.0, 2.0])) is None
    assert knl._scalar_of(np.array([[1.0, 0.1], [0.1, 1.0]])) is None


def test_exact_constant_volatility_is_taken_once_per_problem(monkeypatch):
    calls = []

    def counted(problem, x):
        calls.append(problem)
        return sigma_mb(problem, x)

    monkeypatch.setattr(knl, "sigma_mb", counted)
    p = noisy_problem()
    first = knl._pgd_constant_sigma(p, "exact")
    assert np.array_equal(first, sigma_mb(p, p.x_star).sqrt_matrix)
    assert knl._pgd_constant_sigma(p, "exact") is first
    assert not first.flags.writeable  # shared by every call
    assert len(calls) == 1
    knl._pgd_constant_sigma(noisy_problem(), "exact")  # an equal, new problem
    assert len(calls) == 2
    # the cache keeps no problem alive
    alive = weakref.ref(p)
    del p, calls[:]
    gc.collect()
    assert alive() is None


def _observable_problems(d):
    rng = np.random.default_rng(seed + d)
    c = rng.normal(size=d)
    affine = make_perturbed_quadratic(rng.uniform(0.5, 2.0, d),
                                      rng.normal(size=d), [c, -c])
    comps = [(lambda x, i=i: affine.component_value(i, x),
              lambda x, i=i: affine.component_grad(i, x)) for i in range(2)]
    return {"affine": affine,
            "callable": FiniteSumProblem(d, affine.x_star, affine.constants,
                                         components=comps)}


@pytest.mark.parametrize("d", [1, 2, 3, 100])
@pytest.mark.parametrize("kind", ["affine", "callable"])
def test_observable_rows_do_not_depend_on_the_block(kind, d):
    # a run without a state block reduces one record (n_paths rows) at a
    # time, the others whole (paths x records) blocks: the rows must agree
    problem = _observable_problems(d)[kind]
    n, n_rec = 4, 5
    states = 3.0 * np.random.default_rng(seed).normal(size=(n, n_rec, d))
    whole = np.reshape(knl._observable_arrays(problem, states.reshape(-1, d)),
                       (3, n, n_rec))
    per_record = np.stack([knl._observable_arrays(problem, states[:, i])
                           for i in range(n_rec)], axis=-1)
    per_row = np.array([[knl._observable_arrays(problem, states[p, i][None])
                         for i in range(n_rec)] for p in range(n)])
    assert np.array_equal(whole, per_record)
    assert np.array_equal(whole, np.moveaxis(per_row[..., 0], 2, 0))


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


@pytest.mark.parametrize("dt", [None, 0.05], ids=["prefix", "trapezoid"])
def test_recorder_weighted_average_of_a_constant_is_that_constant(dt):
    # numerators and denominators take psi from one table, so a block frozen
    # at f - f* = 0.5 (|grad f|^2 = 1) averages to exactly those values at
    # every record; halving is exact, so the sums of 0.5 psi are half the
    # sums of psi bit for bit
    p = make_isotropic_quadratic(1.0, 1)
    adj = AdjustmentSchedule(h=0.1, family="power", a=0.5)
    n_steps = 500
    psi = knl._psi_table(adj, n_steps, dt)
    rec = knl._BlockRecorder(p, n_steps, 3, np.arange(0, n_steps + 1, 7),
                             psi, dt)
    X = rec.start([1.0])
    for k in range(1, n_steps + 1):
        rec.record(k, X)
    res = rec.finish()
    f_avg = res.wsum_f_gap / res.denominators
    g_avg = res.wsum_grad_sq / res.denominators
    first = 0 if dt is None else 1  # t = 0 has an empty integral: NaN
    assert np.all(f_avg[:, first:] == 0.5)
    assert np.all(g_avg[:, first:] == 1.0)
    assert np.isnan(res.denominators[:first]).all()


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


# one config per mode: a growing batch for sgd and mb-pgf, exact volatility
# for time-changed
_GROWING = BatchSchedule(family="linear-growth", b0=1.0, rate=2.0)
_POWER = AdjustmentSchedule(h=0.2, family="power", a=0.5)
GENERATOR_STATE_RUNS = {
    "run_mb_sgd": lambda sim, rng: sim(noisy_problem(), _POWER, _GROWING, X0,
                                       30, rng),
    "run_pgd": lambda sim, rng: sim(noisy_problem(), _POWER, BatchSchedule(b=3),
                                    X0, 30, rng),
    "run_svrg_option2": lambda sim, rng: sim(noisy_problem(), 0.05, 3, 4, X0,
                                             rng),
    "simulate_mb_pgf": lambda sim, rng: sim(noisy_problem(), _POWER, _GROWING,
                                            X0, 0.01, 0.4, rng),
    "simulate_vr_pgf": lambda sim, rng: sim(
        make_spread_quadratic(3.0, 1.0), StalenessSchedule(m=2, h=0.01),
        np.array([1.5]), 0.01, 0.07, rng),
    "simulate_time_changed": lambda sim, rng: sim(
        isotropic_problem(), AdjustmentSchedule(h=0.2, family="power", a=1.0),
        BatchSchedule(b=1), X0, 0.05, 1.0, rng, volatility_mode="exact"),
}


@pytest.mark.parametrize("name", sorted(GENERATOR_STATE_RUNS))
def test_simulator_leaves_the_generator_where_the_loop_does(name):
    # after a run that does not diverge, the simulator's chunked draws have
    # taken exactly the per-step loop's values, so the caller's next draws
    # from the same generator are the loop's
    run = GENERATOR_STATE_RUNS[name]
    after = {}
    for label, sim in (("simulator", getattr(sgflow, name)),
                       ("loop", getattr(reference, name))):
        rng = np.random.default_rng(seed)
        assert not run(sim, rng).diverged
        after[label] = (rng.standard_normal(3), rng.integers(0, 7, size=3))
    for got, want in zip(after["simulator"], after["loop"]):
        assert np.array_equal(got, want)


def test_kernel_vr_pgf_rejects_wrong_shapes():
    # an epoch must span a whole number of grid steps
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
        chunks = knl._index_chunks(gens, FILL_STEPS, 5, [FILL_WIDTH] * FILL_STEPS)
    return np.concatenate([B.copy() for _, B in chunks], axis=1)


def test_growing_batch_indices_are_the_per_step_draws(monkeypatch):
    # batch sizes that vary by step, drawn in 3-step chunks 4 wide: each
    # step's first b_k entries are the b_k indices of a per-step call
    monkeypatch.setattr(knl, "_CHUNK_DOUBLES", 3 * 2 * 4)
    sizes = [1, 2, 2, 3, 4, 4, 1]
    drawn = np.concatenate([B.copy() for _, B in knl._index_chunks(
        gen_list(seed, 2), len(sizes), 5, sizes)], axis=1)
    for p, g in enumerate(gen_list(seed, 2)):
        for k, b in enumerate(sizes):
            assert np.array_equal(drawn[p, k, :b], g.integers(0, 5, size=b))


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
    # two fill threads: path ``failing`` raises while another path is drawing
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


class _NamedFailure:
    """A stream that raises, after ``delay`` seconds, an error naming its path."""

    def __init__(self, path, delay=0.0):
        self.path, self.delay = path, delay

    def standard_normal(self, out):
        time.sleep(self.delay)
        raise RuntimeError(f"path {self.path} failed")


@pytest.mark.parametrize("workers", [1, 2, 3])
def test_two_failing_paths_raise_the_lower_ones_error(workers, monkeypatch):
    # path 1 raises late, path 4 at once: with several threads path 4's error
    # comes first in time, but a one-thread fill in path order raises path 1's
    monkeypatch.setattr(knl, "_fill_workers", lambda n: workers)
    monkeypatch.setattr(knl, "_CHUNK_DOUBLES", 3 * 6 * 2)
    gens = gen_list(seed, 6)
    gens[1] = _NamedFailure(1, delay=0.1)
    gens[4] = _NamedFailure(4)
    with pytest.raises(RuntimeError, match="path 1 failed"):
        for _ in knl._normal_chunks(gens, 6, 2):
            pass
    assert _draw_threads() == []


def test_slow_path_holds_back_one_row_and_no_value(monkeypatch):
    # path 0 draws slowly in every chunk: the other thread fills the rest of
    # the chunk meanwhile, and the bits are those of a one-thread fill
    n_paths, steps, width = 6, 8, 2
    monkeypatch.setattr(knl, "_CHUNK_DOUBLES", 4 * n_paths * width)
    monkeypatch.setattr(knl, "_fill_workers", lambda n: 1)
    ref = np.concatenate([Z.copy() for _, Z in knl._normal_chunks(
        gen_list(seed, n_paths), steps, width, (0.5,))], axis=1)

    filled_by = []
    streams = [_CountingStream(g) for g in gen_list(seed, n_paths)]
    streams[0].delay = 0.3
    for s in streams:
        draw = s.standard_normal

        def standard_normal(out, draw=draw, s=s):
            draw(out)
            filled_by.append((s, threading.current_thread().name))
        s.standard_normal = standard_normal
    monkeypatch.setattr(knl, "_fill_workers", lambda n: 2)
    got = np.concatenate([Z.copy() for _, Z in knl._normal_chunks(
        streams, steps, width, (0.5,))], axis=1)
    assert got.tobytes() == ref.tobytes()
    assert _draw_threads() == []
    # in each chunk the thread that drew the slow path drew nothing else
    for chunk in (filled_by[:n_paths], filled_by[n_paths:]):
        slow_thread = next(name for s, name in chunk if s is streams[0])
        assert [s for s, name in chunk if name == slow_thread] == [streams[0]]


def test_fill_workers_within_cores_and_paths():
    assert 1 <= knl._fill_workers(10**6) <= os.cpu_count()
    assert knl._fill_workers(1) == 1


# -- pipelined chunk fill --------------------------------------------------------


class _CountingStream:
    """A real stream that sleeps before each draw and counts finished draws."""

    def __init__(self, gen, delay=0.0, fail_on=None):
        self.gen, self.delay, self.fail_on = gen, delay, fail_on
        self.calls = 0

    def standard_normal(self, out):
        time.sleep(self.delay)
        if self.calls == self.fail_on:
            self.calls += 1
            raise RuntimeError("stream failed")
        self.gen.standard_normal(out=out)
        self.calls += 1


def _wait_until(condition, timeout=10.0):
    deadline = time.monotonic() + timeout
    while not condition() and time.monotonic() < deadline:
        time.sleep(0.01)
    return condition()


@pytest.mark.parametrize("workers", [1, 2])
def test_consecutive_chunks_never_share_memory(workers, monkeypatch):
    monkeypatch.setattr(knl, "_fill_workers", lambda n: workers)
    monkeypatch.setattr(knl, "_CHUNK_DOUBLES", 3 * 4 * FILL_WIDTH)
    chunks = [B for _, B in knl._normal_chunks(gen_list(seed, 4), FILL_STEPS,
                                                FILL_WIDTH)]
    assert len(chunks) == 4
    for held, nxt in zip(chunks, chunks[1:]):
        assert not np.shares_memory(held, nxt)


@pytest.mark.parametrize("workers", [1, 2])
def test_held_chunk_is_untouched_while_the_next_fills(workers, monkeypatch):
    monkeypatch.setattr(knl, "_fill_workers", lambda n: workers)
    monkeypatch.setattr(knl, "_CHUNK_DOUBLES", 3 * 4 * FILL_WIDTH)
    streams = [_CountingStream(g, delay=0.02) for g in gen_list(seed, 4)]
    ref = np.array([g.standard_normal((FILL_STEPS, FILL_WIDTH))
                    for g in gen_list(seed, 4)])
    chunks = knl._normal_chunks(streams, FILL_STEPS, FILL_WIDTH)
    for j in range(4):
        k0, Z = next(chunks)
        held = Z.copy()
        # the next chunk's fill runs while this one is held, and ends
        assert _wait_until(lambda: all(s.calls == min(j + 2, 4)
                                       for s in streams))
        assert Z.tobytes() == held.tobytes()
        assert held.tobytes() == ref[:, k0:k0 + Z.shape[1]].tobytes()
    with pytest.raises(StopIteration):
        next(chunks)
    assert _draw_threads() == []


def test_next_chunk_error_reaches_the_caller_at_next(monkeypatch):
    # two ranges of two paths; path 3 fails drawing chunk 1 while path 0
    # is still slowly drawing it
    monkeypatch.setattr(knl, "_fill_workers", lambda n: 2)
    monkeypatch.setattr(knl, "_CHUNK_DOUBLES", 3 * 4 * 2)
    streams = [_CountingStream(g) for g in gen_list(seed, 4)]
    streams[0].delay = 0.1
    streams[3].fail_on = 1
    chunks = knl._normal_chunks(streams, 6, 2)
    next(chunks)  # chunk 0 arrives whole; chunk 1 is filling
    with pytest.raises(RuntimeError, match="stream failed"):
        next(chunks)
    assert [s.calls for s in streams] == [2, 2, 2, 2]
    assert _draw_threads() == []


def test_closing_early_leaves_no_draw_thread(monkeypatch):
    monkeypatch.setattr(knl, "_fill_workers", lambda n: 2)
    monkeypatch.setattr(knl, "_CHUNK_DOUBLES", 4 * 2)
    streams = [_CountingStream(g, delay=0.05) for g in gen_list(seed, 4)]
    chunks = knl._normal_chunks(streams, 10, 2)
    next(chunks)
    chunks.close()  # chunk 1 is still filling
    assert _draw_threads() == []
    assert [s.calls for s in streams] == [2, 2, 2, 2]


def test_kernel_raising_mid_chunk_leaves_no_draw_thread(monkeypatch):
    monkeypatch.setattr(knl, "_CHUNK_DOUBLES", 4 * 4 * 2)
    streams = [_CountingStream(g, delay=0.05) for g in gen_list(seed, 4)]
    real_record = knl._BlockRecorder.record

    def record(self, k, X):
        if k == 6:  # the middle of chunk 1 (steps 4-7)
            raise RuntimeError("step failed")
        real_record(self, k, X)

    monkeypatch.setattr(knl._BlockRecorder, "record", record)
    with pytest.raises(RuntimeError, match="step failed"):
        # step 6 is on the record grid: the kernel steps in segments between
        # recorded steps and calls record only there
        kernel_pgd(isotropic_problem(), AdjustmentSchedule(h=0.2),
                   BatchSchedule(), X0, 20, streams, [0, 6, 20])
    assert _draw_threads() == []
    calls = [s.calls for s in streams]
    time.sleep(0.2)  # no fill goes on after the kernel has returned
    assert [s.calls for s in streams] == calls == [3, 3, 3, 3]


@pytest.mark.parametrize("scales", ["scalar-array", "array-scalar", "array-array"])
@pytest.mark.parametrize("workers", [1, 2, 3, 5])
def test_scaled_fill_equals_draw_then_scale(workers, scales, monkeypatch):
    n_paths = 6
    monkeypatch.setattr(knl, "_fill_workers", lambda n: workers)
    monkeypatch.setattr(knl, "_CHUNK_DOUBLES", 3 * n_paths * FILL_WIDTH)
    rng = np.random.default_rng(seed)

    def factor(kind):
        return (0.7 * math.pi if kind == "scalar"
                else rng.uniform(0.1, 3.0, FILL_STEPS))

    chosen = tuple(factor(kind) for kind in scales.split("-"))
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        got = np.concatenate(
            [Z.copy() for _, Z in knl._normal_chunks(gen_list(seed, n_paths),
                                                     FILL_STEPS, FILL_WIDTH,
                                                     chosen)], axis=1)
    finally:
        sys.setswitchinterval(interval)
    ref = np.array([g.standard_normal((FILL_STEPS, FILL_WIDTH))
                    for g in gen_list(seed, n_paths)])
    for s in chosen:
        ref *= s[:, None] if np.ndim(s) else s
    assert got.tobytes() == ref.tobytes()


def test_constant_scale_array_gives_the_scalar_bits():
    c = 0.7 * math.pi
    assert knl._constant_scale(np.full(FILL_STEPS, c)) == c
    assert np.ndim(knl._constant_scale(np.full(FILL_STEPS, c))) == 0
    # compared bit for bit: a sign of zero that differs keeps the array
    mixed = np.array([0.0, -0.0] * 3)
    assert knl._constant_scale(mixed) is mixed

    def drawn(scales):
        return np.concatenate([Z.copy() for _, Z in knl._normal_chunks(
            gen_list(seed, 4), FILL_STEPS, FILL_WIDTH, scales)], axis=1)

    assert (drawn((np.full(FILL_STEPS, c), 1.5)).tobytes()
            == drawn((c, 1.5)).tobytes())
    ref = np.array([g.standard_normal((FILL_STEPS, FILL_WIDTH))
                    for g in gen_list(seed, 4)])
    ref *= np.full(FILL_STEPS, c)[:, None]
    ref *= 1.5
    assert drawn((np.full(FILL_STEPS, c), 1.5)).tobytes() == ref.tobytes()


# -- step-major tiles ----------------------------------------------------------

TILE_PATHS, TILE_STEPS = 5, 23  # 7-step chunks cut into 3-step tiles


def _chunks_and_tiles(chunks):
    """Copies of every chunk and of every tile, with their k0, in order.

    Each tile also says whether it shares memory with the chunk it came from.
    Every chunk's tiles are read forwards, and then its first tile again (a
    replayed segment reads a tile again).
    """
    held, tiles = [], []

    def watched():
        for k0, B in chunks:
            held.append((k0, B.copy(), B))
            yield k0, B

    for k0, n, tile in knl._step_tiles(watched()):
        assert n == held[-1][1].shape[1]
        first, i = len(tiles), 0
        while i < n:
            t0, T = tile(i)
            assert t0 == i
            tiles.append((k0 + t0, T.copy(), np.shares_memory(T, held[-1][2])))
            i = t0 + len(T)
        t0, T = tile(0)
        assert t0 == 0 and T.tobytes() == tiles[first][1].tobytes()
    return [(k0, B) for k0, B, _ in held], tiles


def _assert_transposed(chunks, tiles):
    whole = np.concatenate([B for _, B in chunks], axis=1)
    stepped = np.concatenate([T for _, T, _ in tiles], axis=0)
    assert stepped.dtype == whole.dtype
    assert (stepped.tobytes()
            == np.ascontiguousarray(whole.transpose(1, 0, 2)).tobytes())
    # each tile starts where the one before it ended
    lengths = [len(T) for _, T, _ in tiles]
    assert [k0 for k0, _, _ in tiles] == np.cumsum([0] + lengths[:-1]).tolist()


@pytest.mark.parametrize("width", [1, 2, 3, 7, 8, 100])
@pytest.mark.parametrize("paths", [1, TILE_PATHS])
def test_step_tiles_are_the_transposed_chunks(paths, width, monkeypatch):
    monkeypatch.setattr(knl, "_CHUNK_DOUBLES", 7 * paths * width)
    monkeypatch.setattr(knl, "_TILE_DOUBLES", 3 * paths * width)
    chunks, tiles = _chunks_and_tiles(
        knl._normal_chunks(gen_list(seed, paths), TILE_STEPS, width))
    assert [k0 for k0, _ in chunks] == [0, 7, 14, 21]
    _assert_transposed(chunks, tiles)
    # one path, or rows of a cache line or more: the chunk's own memory
    view = paths == 1 or width >= 8
    assert [shared for *_, shared in tiles] == [view] * len(tiles)
    assert [k0 for k0, _, _ in tiles] == (
        [0, 7, 14, 21] if view else [0, 3, 6, 7, 10, 13, 14, 17, 20, 21])


def test_step_tiles_of_growing_batch_indices(monkeypatch):
    sizes = [1 + k // 4 for k in range(TILE_STEPS)]  # 1 to 6 indices a step
    width = max(sizes)
    monkeypatch.setattr(knl, "_CHUNK_DOUBLES", 7 * TILE_PATHS * width)
    monkeypatch.setattr(knl, "_TILE_DOUBLES", 3 * TILE_PATHS * width)
    chunks, tiles = _chunks_and_tiles(knl._index_chunks(
        gen_list(seed, TILE_PATHS), TILE_STEPS, 5, sizes))
    assert chunks[0][1].dtype == np.int64
    _assert_transposed(chunks, tiles)
    assert not any(shared for *_, shared in tiles)


def test_closing_tiles_early_leaves_no_draw_thread(monkeypatch):
    monkeypatch.setattr(knl, "_fill_workers", lambda n: 2)
    monkeypatch.setattr(knl, "_CHUNK_DOUBLES", 4 * 4 * 2)
    monkeypatch.setattr(knl, "_TILE_DOUBLES", 3 * 4 * 2)
    streams = [_CountingStream(g, delay=0.05) for g in gen_list(seed, 4)]
    chunks = knl._normal_chunks(streams, 10, 2)
    tiles = knl._step_tiles(chunks)
    k0, n, tile = next(tiles)
    t0, T = tile(0)
    assert (k0, n, t0, len(T)) == (0, 4, 0, 3)
    tiles.close()  # chunk 1 is still filling
    assert inspect.getgeneratorstate(chunks) == inspect.GEN_CLOSED
    assert _draw_threads() == []
    assert [s.calls for s in streams] == [2, 2, 2, 2]


def test_kernel_raising_mid_tile_closes_tiles_and_chunks(monkeypatch):
    monkeypatch.setattr(knl, "_CHUNK_DOUBLES", 4 * 4 * 2)
    monkeypatch.setattr(knl, "_TILE_DOUBLES", 3 * 4 * 2)
    made = []
    real_tiles, real_record = knl._step_tiles, knl._BlockRecorder.record

    def step_tiles(chunks):
        made.append((chunks, real_tiles(chunks)))
        return made[-1][1]

    def record(self, k, X):
        if k == 6:  # within the tile of steps 4-6, in chunk 1 (steps 4-7)
            raise RuntimeError("step failed")
        real_record(self, k, X)

    monkeypatch.setattr(knl, "_step_tiles", step_tiles)
    monkeypatch.setattr(knl._BlockRecorder, "record", record)
    streams = [_CountingStream(g, delay=0.05) for g in gen_list(seed, 4)]
    with pytest.raises(RuntimeError, match="step failed"):
        kernel_pgd(isotropic_problem(), AdjustmentSchedule(h=0.2),
                   BatchSchedule(), X0, 20, streams, [0, 6, 20])
    [(chunks, tiles)] = made
    assert inspect.getgeneratorstate(tiles) == inspect.GEN_CLOSED
    assert inspect.getgeneratorstate(chunks) == inspect.GEN_CLOSED
    assert _draw_threads() == []
    calls = [s.calls for s in streams]
    time.sleep(0.2)  # no fill goes on after the kernel has returned
    assert [s.calls for s in streams] == calls == [3, 3, 3, 3]


@pytest.mark.parametrize("vol", ["matrix", "rows"])
@pytest.mark.parametrize("d", [2, 3])
def test_noise_of_a_tile_row_is_that_of_the_chunk_view(d, vol):
    # the matrix volatility's N @ sigma.T is the one BLAS call whose operand
    # layout follows the draws': a strided step of a path-major chunk and a
    # contiguous tile row must give the same bits; the row loop sees each
    # path's row either way
    rng = np.random.default_rng(seed + d)
    problem = _observable_problems(d)["callable"]
    sigma = None if vol == "rows" else rng.normal(size=(d, d))
    n, steps = 6, 5
    B = rng.normal(size=(n, steps, d))
    X = rng.normal(size=(n, d))
    noise, _ = knl._noise(problem, sigma, X, rng.uniform(0.5, 2.0, steps), 0.3)
    tile = np.ascontiguousarray(B.transpose(1, 0, 2))
    for i in range(steps):
        assert not B[:, i].flags.c_contiguous and tile[i].flags.c_contiguous
        assert noise(B[:, i], i).tobytes() == noise(tile[i], i).tobytes()


def _chunk_views(chunks):
    """Every chunk as one tile of strided step views, in place of copies."""
    try:
        for k0, B in chunks:
            view = (0, B.transpose(1, 0, 2))
            yield k0, B.shape[1], lambda i: view
    finally:
        chunks.close()


@pytest.mark.parametrize("kind", ["pgd", "mb-pgf"])
@pytest.mark.parametrize("d", [2, 3])
def test_matrix_kernels_step_tiles_and_chunk_views_alike(d, kind, monkeypatch):
    rng = np.random.default_rng(seed + d)
    c = rng.normal(size=d)
    problem = make_perturbed_quadratic(rng.uniform(0.5, 2.0, d),
                                       rng.normal(size=d), [c, -c])
    assert knl._scalar_of(knl._pgd_constant_sigma(problem, "exact")) is None
    monkeypatch.setattr(knl, "_CHUNK_DOUBLES", 7 * n_paths * d)
    monkeypatch.setattr(knl, "_TILE_DOUBLES", 3 * n_paths * d)
    adj = AdjustmentSchedule(h=0.1, family="power", a=0.5)
    x0, ks = np.linspace(1.0, -1.0, d), [0, 5, 17, 18, 19, 40]

    def run():
        gens = gen_list(seed, n_paths)
        if kind == "pgd":
            return kernel_pgd(problem, adj, BatchSchedule(b=2), x0, 40, gens, ks)
        return kernel_mb_pgf(problem, adj, BatchSchedule(b=2), x0, 0.01, 40,
                             gens, ks)

    tiled = run()
    monkeypatch.setattr(knl, "_step_tiles", _chunk_views)
    assert tiled.states.tobytes() == run().states.tobytes()


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


# -- segmented stepping ------------------------------------------------------
#
# The affine kernels step from one recorded step to the next with one
# divergence test per segment, and replay a segment step by step when a path
# turned non-finite in it.  A run that records every step tests every step,
# so it is the reference: any record grid and any chunking must give the
# same states at the grid's steps, and the same flags and divergence steps.

SEGMENT_PATHS = 16


def _growing_problem(vol):
    # curvature 5 under psi = (1 + t)^(-0.1), h = dt = 1: the step's factor
    # 1 - 5 psi_k stays below -1 for about 10^4 steps, so every path
    # overflows, at a step its draws decide
    if vol == "scalar":
        return make_isotropic_quadratic(5.0, 2, sigma_star_sq=1.0)
    return make_perturbed_quadratic([5.0, 5.0], [0.0, 0.0], NOISE)


def _segmented_run(kind, vol, weights, n_steps, ks):
    p = _growing_problem(vol)
    adj = AdjustmentSchedule(h=1.0, family="power", a=0.1)
    batch, x0 = BatchSchedule(), np.zeros(2)
    gens = gen_list(seed, SEGMENT_PATHS)
    if kind == "sgd":
        return kernel_mb_sgd(p, adj, batch, x0, n_steps, gens, ks,
                             weights=weights)
    if kind == "pgd":
        return kernel_pgd(p, adj, batch, x0, n_steps, gens, ks,
                          volatility_mode="exact", weights=weights)
    if kind == "mb-pgf":
        return kernel_mb_pgf(p, adj, batch, x0, 1.0, n_steps, gens, ks,
                             volatility_mode="exact", weights=weights)
    # unit drift rate: dt = 0.5 keeps the factor 1 - 5 dt at -1.5
    return kernel_time_changed(p, adj, batch, x0, 0.5, n_steps, gens, ks,
                               volatility_mode="exact")


def _same_run(res, ref, ks):
    assert res.states.tobytes() == ref.states[:, ks].tobytes()
    assert res.diverged.tobytes() == ref.diverged.tobytes()
    assert res.divergence_step.tobytes() == ref.divergence_step.tobytes()
    if ref.wsum_f_gap is not None:
        assert res.wsum_f_gap.tobytes() == ref.wsum_f_gap[:, ks].tobytes()
        assert res.wsum_grad_sq.tobytes() == ref.wsum_grad_sq[:, ks].tobytes()
        assert res.denominators.tobytes() == ref.denominators[ks].tobytes()


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("kind, weights", [
    ("sgd", False), ("sgd", True), ("pgd", False), ("pgd", True),
    ("mb-pgf", False), ("mb-pgf", True), ("time-changed", False),
])
@pytest.mark.parametrize("vol", ["scalar", "matrix"])
def test_segmented_divergence_matches_per_step_recording(kind, weights, vol,
                                                         monkeypatch):
    # run to the last divergence step but one, so that some paths survive
    probe = _segmented_run(kind, vol, False, 3000, np.arange(3001))
    assert probe.diverged.all()
    n = int(np.unique(probe.divergence_step)[-2])
    ref = _segmented_run(kind, vol, weights, n, np.arange(n + 1))
    steps = np.unique(ref.divergence_step[ref.diverged])
    assert ref.diverged.any() and not ref.diverged.all()
    assert steps.size >= 2
    first, second = int(steps[0]), int(steps[1])
    width = 1 if kind == "sgd" else 2  # draws per path and step
    grids = [
        # every divergence inside one segment, at different steps
        [0, n],
        # the first divergence exactly at a record step, later ones in a
        # segment that starts with non-finite paths
        [0, first, n],
        # the first divergence in the middle of a segment, a later one at
        # its end
        [0, first - 1, second],
    ]
    for ks in grids:
        ks = sorted(set(ks))
        _same_run(_segmented_run(kind, vol, weights, n, ks), ref, ks)
    # a divergence at a tile's last step, and 3-step tiles, within one chunk:
    # segments and their replays cross tiles
    with pytest.MonkeyPatch.context() as tiles:
        for tile in (first, second, 3):
            tiles.setattr(knl, "_TILE_DOUBLES", tile * SEGMENT_PATHS * width)
            for ks in ([0, n], [0, first, n]):
                _same_run(_segmented_run(kind, vol, weights, n, ks), ref, ks)
    # a divergence at a chunk's last step
    for chunk in (first, second):
        monkeypatch.setattr(knl, "_CHUNK_DOUBLES", chunk * SEGMENT_PATHS * width)
        for ks in ([0, n], [0, first, n]):
            _same_run(_segmented_run(kind, vol, weights, n, ks), ref, ks)


@pytest.mark.parametrize("kind", ["pgd", "mb-pgf"])
def test_signed_zero_start_without_noise_matches_simulator(kind):
    # sigma = 0: every noise value is an exact zero, and x* = 0, c_mean = 0,
    # so the -0.0 and +0.0 coordinates stay zero; the kernel skips the
    # exact identities (+ 0.0 among them), so only the sign of a zero may
    # differ from the simulator's, and the states compare equal
    p = make_isotropic_quadratic(0.5, 3, sigma_star_sq=0.0)
    adj = AdjustmentSchedule(h=0.1, family="power", a=0.5)
    x0 = np.array([-0.0, 0.0, 1.5])
    n_steps, ks = 12, np.arange(13)
    if kind == "pgd":
        res = kernel_pgd(p, adj, BatchSchedule(), x0, n_steps,
                         gen_list(seed, 3), ks, volatility_mode="constant")
        ref = stack_paths(lambda rng: run_pgd(p, adj, BatchSchedule(), x0,
                                              n_steps, rng,
                                              volatility_mode="constant"),
                          seed, 3)
    else:
        res = kernel_mb_pgf(p, adj, BatchSchedule(), x0, 0.1, n_steps,
                            gen_list(seed, 3), ks, volatility_mode="constant")
        ref = stack_paths(lambda rng: simulate_mb_pgf(
            p, adj, BatchSchedule(), x0, 0.1, n_steps * 0.1, rng,
            volatility_mode="constant"), seed, 3)
    assert np.all(res.states == ref)
    assert np.all(res.states[:, :, :2] == 0.0)
    assert not res.diverged.any()


# -- per-run tables ------------------------------------------------------------

TABLE_SCHEDULES = {
    "constant": (AdjustmentSchedule(h=0.2), BatchSchedule(b=3)),
    "power-0.5": (AdjustmentSchedule(h=0.2, family="power", a=0.5),
                  BatchSchedule(b=1)),
    "power-1-growing": (AdjustmentSchedule(h=0.2, family="power", a=1.0),
                        BatchSchedule(family="linear-growth", b0=1.0, rate=2.5)),
}


@pytest.mark.parametrize("name", sorted(TABLE_SCHEDULES))
def test_diffusion_tables_are_the_per_step_expressions(name, monkeypatch):
    # the drift rates, volatilities and node weights the diffusion kernels
    # hand to their step loop, against one scalar expression per step
    adj, batch = TABLE_SCHEDULES[name]
    p, dt, n_steps = isotropic_problem(), 0.013, 700
    seen = {}
    real_em = knl._kernel_em

    def capture(*args, **kwargs):
        bound = inspect.signature(real_em).bind(*args, **kwargs).arguments
        seen["drift"], seen["vol"] = bound["drift_coef"], bound["vol_coef"]
        seen["nodes"] = bound["node_psi"]
        return real_em(*args, **kwargs)

    monkeypatch.setattr(knl, "_kernel_em", capture)

    def same(got, want):
        return np.asarray(got, dtype=float).tobytes() == np.asarray(
            want, dtype=float).tobytes()

    kernel_mb_pgf(p, adj, batch, X0, dt, n_steps, gen_list(seed, 2), [0, n_steps],
                  weights=True)
    psi = [adj.psi(k * dt) for k in range(n_steps + 1)]
    assert same(seen["drift"], psi[:n_steps])
    assert same(seen["vol"], [psi[k] * np.sqrt(adj.h / batch.value(k * dt))
                              for k in range(n_steps)])
    assert same(seen["nodes"], psi)

    kernel_time_changed(p, adj, batch, X0, dt, n_steps, gen_list(seed, 2),
                        [0, n_steps])
    warped = [phi_inverse(adj, k * dt) for k in range(n_steps)]
    assert same(seen["drift"], np.ones(n_steps))
    assert same(seen["vol"], [np.sqrt(adj.h * adj.psi(w) / batch.value(w))
                              for w in warped])
    assert seen["nodes"] is None


# -- dense recording -----------------------------------------------------------
#
# A run that records every step steps through runs of recorded steps and
# reads the divergence flags from the snapshots; the per-path loops of
# tests/reference.py test every step.


def _reference_path(kind, rng, n_steps):
    p = _growing_problem("scalar")
    adj = AdjustmentSchedule(h=1.0, family="power", a=0.1)
    x0 = np.zeros(2)
    if kind == "sgd":
        return run_mb_sgd(p, adj, BatchSchedule(), x0, n_steps, rng)
    if kind == "pgd":
        return run_pgd(p, adj, BatchSchedule(), x0, n_steps, rng)
    return simulate_mb_pgf(p, adj, BatchSchedule(), x0, 1.0, float(n_steps), rng)


def _public_path(kind, rng, n_steps):
    p = _growing_problem("scalar")
    adj = AdjustmentSchedule(h=1.0, family="power", a=0.1)
    x0 = np.zeros(2)
    if kind == "sgd":
        return sgflow.run_mb_sgd(p, adj, BatchSchedule(), x0, n_steps, rng)
    if kind == "pgd":
        return sgflow.run_pgd(p, adj, BatchSchedule(), x0, n_steps, rng)
    return sgflow.simulate_mb_pgf(p, adj, BatchSchedule(), x0, 1.0,
                                  float(n_steps), rng)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("kind", ["sgd", "pgd", "mb-pgf"])
def test_dense_recording_matches_the_per_step_loops(kind, monkeypatch):
    probe = _segmented_run(kind, "scalar", False, 3000, np.arange(3001))
    n = int(np.unique(probe.divergence_step)[-2])  # some paths survive
    # 40-step chunks: the overflows fall inside runs of recorded steps, and
    # chunk ends cut those runs
    width = 1 if kind == "sgd" else 2
    monkeypatch.setattr(knl, "_CHUNK_DOUBLES", 40 * SEGMENT_PATHS * width)
    res = _segmented_run(kind, "scalar", False, n, np.arange(n + 1))
    assert res.diverged.any() and not res.diverged.all()
    mid_chunk = 0
    for path, rng in enumerate(gen_list(seed, SEGMENT_PATHS)):
        ref = _reference_path(kind, rng, n)
        assert res.diverged[path] == ref.diverged
        assert res.divergence_step[path] == (ref.divergence_step
                                             if ref.diverged else -1)
        assert np.array_equal(res.states[path, :len(ref)], ref.states)
        if ref.diverged:
            mid_chunk += ref.divergence_step % 40 not in (0, 1)
    assert mid_chunk
    # 7-step tiles end inside those runs too, within each chunk
    with pytest.MonkeyPatch.context() as tiles:
        tiles.setattr(knl, "_TILE_DOUBLES", 7 * SEGMENT_PATHS * width)
        ks = np.arange(n + 1)
        _same_run(_segmented_run(kind, "scalar", False, n, ks), res, ks)
    # one path at a time through the public simulators
    monkeypatch.setattr(knl, "_CHUNK_DOUBLES", 40 * width)
    diverging = int(np.flatnonzero(res.diverged)[0])
    for path in (diverging, int(np.flatnonzero(~res.diverged)[0])):
        one = _public_path(kind, gen_list(seed, SEGMENT_PATHS)[path], n)
        ref = _reference_path(kind, gen_list(seed, SEGMENT_PATHS)[path], n)
        assert one.diverged == ref.diverged
        assert one.divergence_step == ref.divergence_step
        assert np.array_equal(one.states, ref.states)


# -- block reduction -----------------------------------------------------------


@pytest.mark.parametrize("record_every", [1, 3])
@pytest.mark.parametrize("kind", ["sgd", "mb-pgf"])
def test_observables_without_states_are_the_kept_states_reduction(
        kind, record_every, monkeypatch):
    # 20 paths x d = 3: a 64k-value snapshot buffer holds 1 092 records, so
    # the 5 001 or 1 667 records fill it several times or twice, and
    # 700-step noise chunks end inside the buffers
    p = make_isotropic_quadratic(1.0, 3, sigma_star_sq=0.2)
    adj = AdjustmentSchedule(h=0.01, family="power", a=0.5)
    n_steps, paths = 5000, 20
    ks = np.arange(0, n_steps + 1, record_every)
    width = 1 if kind == "sgd" else 3
    monkeypatch.setattr(knl, "_CHUNK_DOUBLES", 700 * paths * width)

    def run(keep_states):
        gens = gen_list(seed, paths)
        if kind == "sgd":
            return kernel_mb_sgd(p, adj, BatchSchedule(), X0[:1].repeat(3),
                                 n_steps, gens, ks, keep_states=keep_states)
        return kernel_mb_pgf(p, adj, BatchSchedule(), X0[:1].repeat(3), 0.01,
                             n_steps, gens, ks, volatility_mode="constant",
                             keep_states=keep_states)

    full, lean = run(True), run(False)
    want = np.reshape(knl._observable_arrays(p, full.states.reshape(-1, 3)),
                      (3, paths, ks.size))
    assert lean.states is None
    assert lean.observables.tobytes() == want.tobytes()
    assert lean.diverged.tobytes() == full.diverged.tobytes()
