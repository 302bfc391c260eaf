"""Path-vectorised Monte-Carlo kernels for the ensemble runner.

The simulators in :mod:`sgflow.discrete` and :mod:`sgflow.continuous` advance
one path at a time with per-step generator draws; ensembles of thousands of
paths would spend most of their budget in that Python loop.  The harness
therefore dispatches suitable runs here.  A kernel holds an (n_paths, d)
state block and draws every path's noise from that path's own generator in
chunks: PCG64 streams are partition invariant -- ``standard_normal((k, d))``
consumes the stream exactly like k successive ``standard_normal(d)`` calls,
and sized integer draws behave the same way -- so a kernel fed the same
per-path generators reproduces the simulator's sample paths (up to
floating-point association in the matrix products; the test suite pins the
equivalence and its tolerance).  The same two facts let every usable core
fill a chunk: one thread per contiguous range of paths touches only those
paths' streams, in the same order, and NumPy releases the GIL while it
fills, so the draws run in parallel and no value depends on how many cores
there are (:func:`_draw_chunks`).

Kernels cover only the shapes the experiments hit, and
:func:`supports_kernel` states exactly which: affine-gradient finite sums and
constant batch sizes, a constant volatility matrix for the Gaussian
surrogate, a constant covariance for the mini-batch diffusions, and the
two-component one-dimensional family for the variance-reduced delay kernel.
The harness makes that decision before any path runs and sends every other
configuration to the plain per-path simulators; a kernel's own errors reach
the caller.

Each kernel keeps only its recursion loop.  :class:`_BlockRecorder` does the
bookkeeping they share: the record grid, the divergence flags, the snapshots
and the running ``psi``-weighted sums of the observables (prefix sums over
iterates for the discrete recursions, trapezoidal quadrature over the grid
for the diffusions), which are the empirical counterparts of the
randomized-output rate guarantees.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor, wait
from dataclasses import dataclass

import numpy as np

from .discrete import _pgd_constant_sigma
from .problems import FiniteSumProblem
from .schedules import (
    AdjustmentSchedule,
    BatchSchedule,
    StalenessSchedule,
    phi_inverse,
    record_steps,
)

__all__ = [
    "KernelResult",
    "kernel_mb_sgd",
    "kernel_pgd",
    "kernel_mb_pgf",
    "kernel_time_changed",
    "kernel_svrg",
    "kernel_vr_pgf",
    "supports_kernel",
]

# Per-chunk noise budget in float64 values (~80 MB); chunking only affects
# how many values are drawn per generator call, never the values themselves.
_CHUNK_DOUBLES = 10_000_000


@dataclass
class KernelResult:
    """States (and optional weighted observable sums) at the recorded steps.

    ``states`` is (n_paths, n_records, d); recorded entries of paths that
    diverged are whatever non-finite values the recursion produced and must
    be masked via ``diverged`` by the consumer.  ``wsum_f_gap`` and
    ``wsum_grad_sq`` are (n_paths, n_records) running weighted sums of
    f(x)-f* and |grad f(x)|^2 (prefix sums for discrete kernels, trapezoid
    integrals for continuous ones); None when not requested.
    """

    record_ks: np.ndarray
    states: np.ndarray
    diverged: np.ndarray
    divergence_step: np.ndarray
    wsum_f_gap: np.ndarray | None = None
    wsum_grad_sq: np.ndarray | None = None


def supports_kernel(mode: str, problem: FiniteSumProblem,
                    batch: BatchSchedule | None,
                    volatility_mode: str = "exact") -> bool:
    """Whether a kernel covers this configuration.

    Every kernel needs an affine gradient family and a constant batch size.
    The Gaussian surrogate needs a constant volatility matrix: the constant
    volatility mode or a constant covariance.  The mini-batch diffusions
    need a constant covariance in either volatility mode, and the delay
    kernel needs the two-component family with d = 1 (its volatility is
    state-dependent).
    """
    if problem.affine is None:
        return False
    if batch is not None and batch.family != "constant":
        return False
    if mode in ("sgd", "svrg"):
        return True
    if mode == "pgd":
        return (volatility_mode == "constant"
                or problem.has_constant_mb_covariance)
    if mode in ("mb-pgf", "time-changed"):
        return problem.has_constant_mb_covariance
    if mode == "vr-pgf":
        return problem.d == 1 and problem.n_components == 2
    return False


def _affine_parts(problem: FiniteSumProblem):
    affine = problem.affine
    if affine is None:
        raise ValueError("kernels require an affine-gradient problem")
    return affine.D, affine.C, affine.d_mean, affine.c_mean


def _step_tables(adj: AdjustmentSchedule, n_steps: int):
    """Stepsizes eta_k (k < n_steps) and weights psi_k (k <= n_steps).

    Python-float lists built from one scalar schedule call per entry, the
    calls the per-path simulators make: evaluating the schedule on an index
    array may round psi differently by an ulp (see :mod:`sgflow.schedules`).
    """
    eta = [float(adj.eta_k(k)) for k in range(n_steps)]
    psi = [float(adj.psi_k(k)) for k in range(n_steps + 1)]
    return eta, psi


def _fill_workers(n_paths: int) -> int:
    """Threads that fill one noise chunk: the usable cores, at most n_paths.

    Read from the machine rather than set: the count decides how long a
    chunk takes to fill, never what it holds (see :func:`_draw_chunks`).
    """
    try:
        cores = len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        cores = os.cpu_count() or 1
    return max(1, min(cores, n_paths))


def _draw_chunks(gens, n_steps: int, width: int, dtype, fill_row):
    """Yield (k0, B) with B[p] the next chunk of draws from path p's generator.

    ``fill_row(g, row)`` fills one path's (chunk, width) row from g.  Every
    chunk is drawn into one reused (n_paths, chunk, width) buffer, so only
    one chunk is ever alive; the consumer must be done with a chunk before
    it asks for the next.

    The paths are split into :func:`_fill_workers` contiguous ranges that
    fill at the same time: the first by the caller, the others by pool
    threads.  No value moves.  Each path owns its generator, so a thread
    touches only its own paths' streams, and each stream is consumed in the
    same order by the same sized calls whatever the split.  NumPy releases
    the GIL while it fills an array, so the ranges do draw in parallel.
    Since no worker count can change a result, the count is read from the
    machine and is not a setting.  Every range is finished before a chunk
    is yielded or an error raised, so no thread writes into a buffer the
    caller holds; the first error in path order reaches the caller.  The
    threads live for one call (a pool kept across calls would hang in a
    forked child).
    """
    n_paths = len(gens)
    chunk = max(1, min(n_steps, _CHUNK_DOUBLES // max(1, n_paths * width)))
    buf = np.empty((n_paths, chunk, width), dtype=dtype)
    n_workers = _fill_workers(n_paths)
    cuts = [n_paths * i // n_workers for i in range(n_workers + 1)]
    ranges = list(zip(cuts[:-1], cuts[1:]))

    def fill(B, lo, hi):
        for p in range(lo, hi):
            fill_row(gens[p], B[p])

    pool = (ThreadPoolExecutor(n_workers - 1, thread_name_prefix="sgflow-draw")
            if n_workers > 1 else None)
    try:
        for k0 in range(0, n_steps, chunk):
            B = buf[:, :min(chunk, n_steps - k0)]
            futures = [pool.submit(fill, B, lo, hi) for lo, hi in ranges[1:]]
            try:
                fill(B, *ranges[0])
            finally:
                wait(futures)
            for f in futures:
                f.result()
            yield k0, B
    finally:
        if pool is not None:
            pool.shutdown()


def _normal_chunks(gens, n_steps: int, d: int):
    """Yield (k0, Z) with Z[p] the next chunk of N(0,1) steps for path p."""
    def fill_row(g, row):
        g.standard_normal(out=row)  # straight into the C-contiguous row
    yield from _draw_chunks(gens, n_steps, d, np.float64, fill_row)


def _index_chunks(gens, n_steps: int, n_components: int, b: int):
    """Yield (k0, I) with I[p] the next chunk of batch index draws for path p."""
    def fill_row(g, row):
        row[...] = g.integers(0, n_components, size=row.shape)
    yield from _draw_chunks(gens, n_steps, b, np.int64, fill_row)


class _BlockRecorder:
    """The bookkeeping every kernel shares for its (n_paths, d) state block.

    It resolves the record grid, flags the paths whose state turns
    non-finite, snapshots the block at the recorded steps and, given the
    weights ``psi`` (per step index, or per grid node with ``dt``),
    accumulates every alive path's psi-weighted sums of f - f* and
    |grad f|^2: prefix sums over the iterates without ``dt``, trapezoid
    integrals over the grid with it.  A kernel starts its block with
    :meth:`start` and calls :meth:`record` once after every step.
    """

    def __init__(self, problem: FiniteSumProblem, n_steps: int, n_paths: int,
                 record_ks, psi=None, dt: float | None = None):
        self.record_ks = record_steps(n_steps, record_ks=record_ks)
        n_rec = self.record_ks.size
        self.problem = problem
        self.states = np.empty((n_paths, n_rec, problem.d))
        self.alive = np.ones(n_paths, dtype=bool)
        self.diverged = np.zeros(n_paths, dtype=bool)
        self.div_step = np.full(n_paths, -1)
        self.psi, self.dt = psi, dt
        self.acc_f = np.zeros(n_paths)
        self.acc_g = np.zeros(n_paths)
        self.wsum_f = np.zeros((n_paths, n_rec)) if psi is not None else None
        self.wsum_g = np.zeros((n_paths, n_rec)) if psi is not None else None
        self._steps = self.record_ks.tolist() + [-1]  # -1: past the grid
        self._cursor = 0

    def start(self, x0) -> np.ndarray:
        """The block of n_paths copies of x0, recorded as step 0."""
        X = np.tile(np.asarray(x0, dtype=float).reshape(self.problem.d),
                    (self.alive.size, 1))
        self.record(0, X)
        return X

    def record(self, k: int, X: np.ndarray) -> None:
        """Flag, accumulate and (on the grid) snapshot the block after step k."""
        # a finite sum implies finite entries; a sum that overflows on finite
        # entries falls through to the exact per-row test, which flags nothing
        if k and not math.isfinite(X.sum()):
            self._flag(k, X)
        if self.psi is not None:
            self._accumulate(k, X)
        i = self._cursor
        if k != self._steps[i]:
            return
        self.states[:, i, :] = X
        if self.wsum_f is not None:
            self.wsum_f[:, i] = self.acc_f
            self.wsum_g[:, i] = self.acc_g
        self._cursor = i + 1

    def check(self, k: int, X: np.ndarray) -> None:
        """Flag the paths whose state is non-finite after step k, unrecorded."""
        if not math.isfinite(X.sum()):
            self._flag(k, X)

    def _flag(self, k: int, X: np.ndarray) -> None:
        bad = self.alive & ~np.isfinite(X).all(axis=1)
        if np.any(bad):
            self.diverged[bad] = True
            self.div_step[bad] = k
            self.alive &= ~bad

    def _accumulate(self, k: int, X: np.ndarray) -> None:
        p = self.problem
        f_gap, grad_sq = p.affine.block_observables(X - p.x_star,
                                                    p.constants.f_star)
        alive, w = self.alive, self.psi[k]
        if self.dt is None:
            self.acc_f[alive] += w * f_gap[alive]
            self.acc_g[alive] += w * grad_sq[alive]
            return
        wf, wg = w * f_gap, w * grad_sq
        if k > 0:
            self.acc_f[alive] += (0.5 * self.dt) * (self._prev_f + wf)[alive]
            self.acc_g[alive] += (0.5 * self.dt) * (self._prev_g + wg)[alive]
        self._prev_f, self._prev_g = wf, wg

    def finish(self) -> KernelResult:
        assert self._cursor == self.record_ks.size, "missed a recording step"
        return KernelResult(record_ks=self.record_ks, states=self.states,
                            diverged=self.diverged, divergence_step=self.div_step,
                            wsum_f_gap=self.wsum_f, wsum_grad_sq=self.wsum_g)


def _scalar_of(matrix: np.ndarray) -> float | None:
    """s when matrix == s * I exactly, else None.

    Multiplying a noise block by s*I row-wise sums one s*z_i among exact
    zeros, so replacing the matmul by a scalar multiply is bitwise neutral
    -- it only skips arithmetic that cannot change the result.
    """
    d = matrix.shape[0]
    s = float(matrix[0, 0])
    if np.all(matrix == s * np.eye(d)):
        return s
    return None


def kernel_mb_sgd(problem: FiniteSumProblem, adj: AdjustmentSchedule,
                  batch: BatchSchedule, x0, n_steps: int, gens,
                  record_ks, weights: bool = False) -> KernelResult:
    """Vectorised mini-batch SGD (constant batch size, affine gradients)."""
    D, C, _, _ = _affine_parts(problem)
    b = batch.size_at_step(0, adj.h)
    eta, psi = _step_tables(adj, n_steps)
    rec = _BlockRecorder(problem, n_steps, len(gens), record_ks,
                         psi if weights else None)
    X = rec.start(x0)
    with np.errstate(over="ignore", invalid="ignore"):
        for k0, I in _index_chunks(gens, n_steps, problem.n_components, b):
            for i in range(I.shape[1]):
                k = k0 + i
                idx = I[:, i, :]
                U = X - problem.x_star
                G = (D[idx] * U[:, None, :] + C[idx]).mean(axis=1)
                G *= eta[k]
                X -= G
                rec.record(k + 1, X)
    return rec.finish()


def kernel_pgd(problem: FiniteSumProblem, adj: AdjustmentSchedule,
               batch: BatchSchedule, x0, n_steps: int, gens, record_ks,
               volatility_mode: str = "exact",
               weights: bool = False) -> KernelResult:
    """Vectorised Gaussian surrogate (constant batch size and volatility matrix)."""
    _, _, d_mean, c_mean = _affine_parts(problem)
    sig = _pgd_constant_sigma(problem, volatility_mode)
    if sig is None:
        raise ValueError("kernel_pgd needs a constant-covariance family")
    eta, psi = _step_tables(adj, n_steps)
    coef = np.array(eta) / np.sqrt(batch.size_at_step(0, adj.h))
    rec = _BlockRecorder(problem, n_steps, len(gens), record_ks,
                         psi if weights else None)
    X = rec.start(x0)
    sig_scalar = _scalar_of(sig)
    x_star = problem.x_star
    G = np.empty_like(X)
    # X <- (X - eta_k G) - coef_k noise_k, in place with the same operations
    # in the same order as the per-path recursion
    with np.errstate(over="ignore", invalid="ignore"):
        for k0, Z in _normal_chunks(gens, n_steps, problem.d):
            if sig_scalar is not None:  # noise_k = coef_k (s z_k), per chunk
                Z *= sig_scalar
                Z *= coef[k0:k0 + Z.shape[1], None]
            for i in range(Z.shape[1]):
                k = k0 + i
                np.subtract(X, x_star, out=G)
                G *= d_mean
                G += c_mean
                G *= eta[k]
                X -= G
                if sig_scalar is not None:
                    X -= Z[:, i, :]
                else:
                    noise = Z[:, i, :] @ sig.T
                    noise *= coef[k]
                    X -= noise
                rec.record(k + 1, X)
    return rec.finish()


def _kernel_em_constant(problem: FiniteSumProblem, x0, dt: float,
                        n_steps: int, gens, record_ks,
                        drift_coef: np.ndarray, vol_coef: np.ndarray,
                        volatility_mode: str,
                        node_psi: np.ndarray | None) -> KernelResult:
    """Euler-Maruyama for dX = -c(t) grad f(X) dt + v(t) sigma dB.

    ``drift_coef``/``vol_coef`` are the per-step scalars c(t_k), v(t_k);
    sigma is the constant matrix of ``volatility_mode``, which needs a
    constant covariance; ``node_psi`` (grid values of psi) switches on
    trapezoidal accumulation of the weighted observables.
    """
    _, _, d_mean, c_mean = _affine_parts(problem)
    if not problem.has_constant_mb_covariance:
        raise ValueError("the diffusion kernels need a constant-covariance family")
    sigma_matrix = _pgd_constant_sigma(problem, volatility_mode)
    rec = _BlockRecorder(problem, n_steps, len(gens), record_ks, node_psi, dt)
    X = rec.start(x0)
    sqrt_dt = np.sqrt(dt)
    sig_scalar = _scalar_of(sigma_matrix)
    drift = drift_coef.tolist()
    x_star = problem.x_star
    G = np.empty_like(X)
    # X <- X + (dt (-c_k G) + sqrt(dt) noise_k), in place with the same
    # operations in the same order as the per-path integrator
    with np.errstate(over="ignore", invalid="ignore"):
        for k0, Z in _normal_chunks(gens, n_steps, problem.d):
            if sig_scalar is not None:  # noise_k = (v_k s) z_k, per chunk
                Z *= (vol_coef[k0:k0 + Z.shape[1]] * sig_scalar)[:, None]
                Z *= sqrt_dt
            for i in range(Z.shape[1]):
                k = k0 + i
                np.subtract(X, x_star, out=G)
                G *= d_mean
                G += c_mean
                G *= -drift[k]
                G *= dt
                if sig_scalar is not None:
                    G += Z[:, i, :]
                else:
                    noise = Z[:, i, :] @ (vol_coef[k] * sigma_matrix).T
                    noise *= sqrt_dt
                    G += noise
                X += G
                rec.record(k + 1, X)
    return rec.finish()


def kernel_mb_pgf(problem: FiniteSumProblem, adj: AdjustmentSchedule,
                  batch: BatchSchedule, x0, dt: float, n_steps: int, gens,
                  record_ks, volatility_mode: str = "exact",
                  weights: bool = False) -> KernelResult:
    """Vectorised annealed gradient flow with constant covariance factor."""
    h = adj.h
    times = np.arange(n_steps) * dt
    drift_coef = np.array([adj.psi(t) for t in times])
    vol_coef = np.array([adj.psi(t) * np.sqrt(h / batch.value(t))
                         for t in times])
    node_psi = (np.array([adj.psi(k * dt) for k in range(n_steps + 1)])
                if weights else None)
    return _kernel_em_constant(problem, x0, dt, n_steps, gens, record_ks,
                               drift_coef, vol_coef, volatility_mode, node_psi)


def kernel_time_changed(problem: FiniteSumProblem, adj: AdjustmentSchedule,
                        batch: BatchSchedule, x0, dt: float, n_steps: int,
                        gens, record_ks,
                        volatility_mode: str = "constant") -> KernelResult:
    """Vectorised unwarped process: unit drift rate, decaying noise amplitude."""
    h = adj.h
    vol_coef = np.empty(n_steps)
    for k in range(n_steps):
        warped = phi_inverse(adj, k * dt)
        vol_coef[k] = np.sqrt(h * adj.psi(warped) / batch.value(warped))
    drift_coef = np.ones(n_steps)
    return _kernel_em_constant(problem, x0, dt, n_steps, gens, record_ks,
                               drift_coef, vol_coef, volatility_mode,
                               node_psi=None)


def kernel_svrg(problem: FiniteSumProblem, h: float, epoch_steps: int,
                n_epochs: int, x0, gens, record_ks) -> KernelResult:
    """Vectorised SVRG with uniform epoch-end resampling (affine, b = 1)."""
    D, C, d_mean, c_mean = _affine_parts(problem)
    if epoch_steps < 1:
        raise ValueError("epoch_steps must be >= 1")
    m = epoch_steps
    n_paths = len(gens)
    rec = _BlockRecorder(problem, m * n_epochs, n_paths, record_ks)
    X = rec.start(x0)
    window = np.empty((n_paths, m, problem.d))
    rows = np.arange(n_paths)
    with np.errstate(over="ignore", invalid="ignore"):
        for j in range(n_epochs):
            pivot = X.copy()
            grad_pivot = (pivot - problem.x_star) * d_mean + c_mean
            I = np.array([g.integers(0, problem.n_components, size=m)
                          for g in gens])
            for i in range(m):
                window[:, i, :] = X
                G = D[I[:, i]] * (X - pivot) + grad_pivot
                X = X - h * G
                if i < m - 1:
                    rec.record(j * m + i + 1, X)
            rec.check((j + 1) * m, X)  # the epoch's last step, before the jump
            J = np.array([g.integers(0, m) for g in gens])
            X = window[rows, J, :].copy()
            rec.record((j + 1) * m, X)
    return rec.finish()


def kernel_vr_pgf(problem: FiniteSumProblem, staleness: StalenessSchedule,
                  x0, dt: float, n_steps: int, gens, record_ks,
                  with_jumps: bool = True) -> KernelResult:
    """Vectorised variance-reduced delay diffusion (two components, d = 1).

    The volatility is the exact one-sample deviation of the variance-reduced
    estimate, which for two affine components is |(D_1 - D_2)/2 (x - x_delayed)|
    per path -- computed here with the same centering arithmetic as
    :func:`sgflow.estimators.sigma_vr`.
    """
    D, C, d_mean, c_mean = _affine_parts(problem)
    if problem.d != 1 or problem.n_components != 2:
        raise ValueError("kernel_vr_pgf covers the two-component 1-d family")
    q = staleness.grid_steps(dt)
    h = staleness.h
    n_paths = len(gens)
    rec = _BlockRecorder(problem, n_steps, n_paths, record_ks)
    x = rec.start(x0)[:, 0]
    xs = float(problem.x_star[0])
    d0, d1 = float(D[0, 0]), float(D[1, 0])
    dm, cm = float(d_mean[0]), float(c_mean[0])
    window = np.empty((n_paths, q))
    rows = np.arange(n_paths)
    sqrt_dt = np.sqrt(dt)
    sqrt_h = np.sqrt(h)
    # Noise must be drawn in epoch-sized blocks: the per-path stream
    # interleaves q normal increments with one jump draw per epoch.
    with np.errstate(over="ignore", invalid="ignore"):
        k0 = 0
        while k0 < n_steps:
            q_eff = min(q, n_steps - k0)
            Z = np.array([g.standard_normal(q_eff) for g in gens])
            for i in range(q_eff):
                k = k0 + i
                window[:, k % q] = x
                x_del = window[:, 0]
                grad = dm * (x - xs) + cm
                # one-sample covariance of the VR estimate, centered as in
                # sigma_vr: e_i = (grad f_i(x) - grad f_i(y)) - (grad f(x) - grad f(y))
                mean_term = grad - (dm * (x_del - xs) + cm)
                e0 = d0 * (x - x_del) - mean_term
                e1 = d1 * (x - x_del) - mean_term
                s = np.sqrt(0.5 * (e0 * e0 + e1 * e1))
                step = dt * (-grad) + sqrt_dt * (sqrt_h * s) * Z[:, i]
                x = x + step
                if with_jumps and (k + 1) % q == 0:
                    J = np.array([g.integers(0, q) for g in gens])
                    x = window[rows, J].copy()
                rec.record(k + 1, x[:, None])
            k0 += q_eff
    return rec.finish()
