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
there are.  Two chunk buffers take turns, so those threads fill the next
chunk while the kernel steps through the current one, and the noise scaling
of the scalar-volatility kernels happens in the fill, value by value as the
kernel would have done it (:func:`_draw_chunks`, :func:`_normal_chunks`).

Kernels cover only the shapes the experiments hit, and
:func:`supports_kernel` states exactly which: affine-gradient finite sums and
constant batch sizes, a constant volatility matrix for the Gaussian
surrogate, a constant covariance for the mini-batch diffusions, and the
two-component one-dimensional family for the variance-reduced delay kernel.
The harness makes that decision before any path runs and sends every other
configuration to the plain per-path simulators; a kernel's own errors reach
the caller.

Each kernel keeps only its recursion, one step loop over a range of steps.
:class:`_BlockRecorder` does the bookkeeping they share: the record grid,
the divergence flags, the snapshots and the running ``psi``-weighted sums of
the observables and of ``psi`` itself (prefix sums over iterates for the
discrete recursions, trapezoidal quadrature over the grid for the
diffusions), whose ratios are the empirical counterparts of the
randomized-output rate guarantees.  The harness books its per-path simulator
runs through the same recorder, so both engines share one weighting rule and
one scalar ``psi`` table (:func:`_psi_table`); each kernel takes all of its
stepsizes and coefficients from one such table.

The recorder also drives the affine kernels' step loops
(:meth:`_BlockRecorder.drive`): they run in segments from one recorded step
to the next, with one divergence test per segment instead of one per step,
and a segment in which a path turns non-finite is replayed step by step, so
the divergence flags and steps stay those of a per-step test.  Their drift
(:func:`_grad_ops`) leaves out the operations that are exact identities for
the problem at hand.  Every state is then the value the full operation
sequence gives, with one exception: adding +0.0 turns -0.0 into +0.0, so
where that addition is skipped the sign of an exact zero may differ from
the old operation sequence (and equal values still compare equal).
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

# Per-buffer noise budget in float64 values (~40 MB; a draw keeps two
# buffers, ~80 MB together); chunking only affects how many values are drawn
# per generator call, never the values themselves.
_CHUNK_DOUBLES = 5_000_000


@dataclass
class KernelResult:
    """States (and optional weighted observable sums) at the recorded steps.

    ``states`` is (n_paths, n_records, d); recorded entries of paths that
    diverged are whatever non-finite values the recursion produced and must
    be masked via ``diverged`` by the consumer.  ``wsum_f_gap`` and
    ``wsum_grad_sq`` are (n_paths, n_records) running weighted sums of
    f(x)-f* and |grad f(x)|^2 (prefix sums for discrete kernels, trapezoid
    integrals for continuous ones), and ``denominators`` (n_records,) the
    same sums of psi alone, NaN where the integral is empty (t = 0), so
    their ratios are the weighted averages; all three None when not
    requested.
    """

    record_ks: np.ndarray
    states: np.ndarray
    diverged: np.ndarray
    divergence_step: np.ndarray
    wsum_f_gap: np.ndarray | None = None
    wsum_grad_sq: np.ndarray | None = None
    denominators: np.ndarray | None = None


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


def _psi_table(adj: AdjustmentSchedule, n_steps: int,
               dt: float | None = None) -> list:
    """psi_k at every step index k <= n_steps, or psi(k dt) at every grid node.

    Python floats from one scalar schedule call per entry, the calls the
    per-path simulators make: evaluating the schedule on an index array may
    round psi differently by an ulp, depending on the host's SIMD level.
    """
    if dt is None:
        return [float(adj.psi_k(k)) for k in range(n_steps + 1)]
    return [float(adj.psi(k * dt)) for k in range(n_steps + 1)]


def _step_tables(adj: AdjustmentSchedule, n_steps: int):
    """Stepsizes eta_k (k < n_steps) and weights psi_k (k <= n_steps).

    Both from one psi table: eta_k is defined as h * psi_k, the product
    :meth:`AdjustmentSchedule.eta_k` takes, so the values are its own.
    """
    psi = _psi_table(adj, n_steps)
    return [adj.h * p for p in psi[:n_steps]], psi


def _grad_ops(problem: FiniteSumProblem) -> tuple:
    """grad f = (X - x*) d_mean + c_mean row-wise, as (ufunc, operand) pairs.

    Applied in order, the first reading the state block and writing the
    output, the rest in place on it.  Operations that are exact identities
    are left out: ``- x*`` when x* is all zero, ``* d_mean`` when it is all
    one, ``+ c_mean`` when it is all zero; a uniform d_mean multiplies as a
    scalar, which gives the same products.  No value changes but the sign of
    an exact zero, where a skipped operation would have added +0.0 to -0.0
    (``+ c_mean``, or ``- x*`` with a -0.0 in x*).  An empty tuple means
    grad f(X) = X.
    """
    _, _, d_mean, c_mean = _affine_parts(problem)
    ops = []
    if problem.x_star.any():
        ops.append((np.subtract, problem.x_star))
    if np.any(d_mean != 1.0):
        uniform = np.all(d_mean == d_mean[0])
        ops.append((np.multiply, float(d_mean[0]) if uniform else d_mean))
    if c_mean.any():
        ops.append((np.add, c_mean))
    return tuple(ops)


def _gap_and_grad_sq(problem: FiniteSumProblem, X: np.ndarray):
    """(f - f*, |grad f|^2) for each row of a (n, d) block of states."""
    if problem.affine is not None:
        return problem.affine.block_observables(X - problem.x_star,
                                                problem.constants.f_star)
    grads = [problem.grad(x) for x in X]
    return (np.array([problem.gap(x) for x in X], dtype=float),
            np.array([float(g @ g) for g in grads], dtype=float))


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

    ``fill_row(g, row, k0)`` fills one path's (chunk, width) row, the steps
    from k0 on, from g.  Two (n_paths, chunk, width) buffers take turns
    (one when a single chunk covers the run): while the caller steps chunk
    j in one, pool threads fill chunk j+1 into the other.  A fill only ever
    touches the buffer the caller is not holding -- chunk j+1's fill is
    submitted just before chunk j is yielded, into the buffer of chunk j-1,
    which the caller gave up by asking for chunk j -- so the consumer must
    be done with a chunk before it asks for the next.

    The paths are split into :func:`_fill_workers` contiguous ranges, one
    pool thread each.  No value moves.  Each path owns its generator, so a
    thread touches only its own paths' streams, and every generator is
    drawn by one thread at a time, in chunk order, by the same sized calls
    whatever the split or the overlap.  NumPy releases the GIL while it
    fills an array, so the ranges draw in parallel with each other and with
    the caller's steps.  Since no worker count can change a result, the
    count is read from the machine and is not a setting.  A chunk is
    yielded, or its first error in path order raised, only after every one
    of its ranges has finished; on the way out every fill still in flight
    is waited for, so no thread outlives the call or writes into a buffer
    the caller holds.  The threads live for one call (a pool kept across
    calls would hang in a forked child).
    """
    n_paths = len(gens)
    chunk = max(1, min(n_steps, _CHUNK_DOUBLES // max(1, n_paths * width)))
    starts = range(0, n_steps, chunk)
    bufs = [np.empty((n_paths, chunk, width), dtype=dtype)
            for _ in range(min(2, len(starts)))]
    n_workers = _fill_workers(n_paths)
    cuts = [n_paths * i // n_workers for i in range(n_workers + 1)]
    ranges = list(zip(cuts[:-1], cuts[1:]))

    def fill(B, k0, lo, hi):
        for p in range(lo, hi):
            fill_row(gens[p], B[p], k0)

    def chunk_view(j):
        return bufs[j % 2][:, :min(chunk, n_steps - starts[j])]

    def submit(j):
        B = chunk_view(j)
        return [pool.submit(fill, B, starts[j], lo, hi) for lo, hi in ranges]

    pool = ThreadPoolExecutor(n_workers, thread_name_prefix="sgflow-draw")
    pending = []
    try:
        if starts:
            pending = submit(0)
        for j, k0 in enumerate(starts):
            filling, pending = pending, []
            wait(filling)
            for f in filling:
                f.result()
            if j + 1 < len(starts):
                pending = submit(j + 1)
            yield k0, chunk_view(j)
    finally:
        wait(pending)
        pool.shutdown()


def _normal_chunks(gens, n_steps: int, d: int, scales=()):
    """Yield (k0, Z) with Z[p] the next chunk of N(0,1) steps for path p.

    Each factor of ``scales``, a scalar or a per-step array, multiplies the
    draws in order, as ``row *= s`` or ``row *= s[k0:k0 + n, None]``, while
    the row is still in cache.  These are the products a kernel would take
    on the whole chunk, one value at a time, so they give the same bits.
    """
    def fill_row(g, row, k0):
        g.standard_normal(out=row)  # straight into the C-contiguous row
        for s in scales:
            row *= s[k0:k0 + row.shape[0], None] if np.ndim(s) else s
    yield from _draw_chunks(gens, n_steps, d, np.float64, fill_row)


def _index_chunks(gens, n_steps: int, n_components: int, b: int):
    """Yield (k0, I) with I[p] the next chunk of batch index draws for path p."""
    def fill_row(g, row, k0):
        row[...] = g.integers(0, n_components, size=row.shape)
    yield from _draw_chunks(gens, n_steps, b, np.int64, fill_row)


class _BlockRecorder:
    """The bookkeeping every ensemble shares for its (n_paths, d) state block.

    It resolves the record grid, flags the paths whose state turns
    non-finite, snapshots the block at the recorded steps and, given the
    weights ``psi`` (per step index, or per grid node with ``dt``; see
    :func:`_psi_table`), accumulates every alive path's psi-weighted sums
    of f - f* and |grad f|^2 and the matching sums of psi alone: prefix
    sums over the iterates without ``dt``, trapezoid integrals over the
    grid with it.  A kernel starts its block with :meth:`start` and either
    calls :meth:`record` once after every step, or hands its step loop to
    :meth:`drive`, which calls :meth:`record` at the recorded steps; the
    harness feeds it its per-path runs step by step.  The snapshots'
    observables are left to the consumer, which reduces them once after the
    run, not once per step.

    :meth:`drive` tests for divergence once per segment, not once per step.
    That is exact only where non-finite values are absorbing: once an entry
    of a row is inf or NaN, every later step leaves it non-finite.  It holds
    for the affine recursions of :func:`kernel_mb_sgd`, :func:`kernel_pgd`
    and the diffusions: a step updates each entry by adding, subtracting and
    multiplying finite operands and terms computed from that entry alone
    (the noise never reads the state), and inf or NaN stays non-finite
    through all three.  It fails for :func:`kernel_svrg` and
    :func:`kernel_vr_pgf`, whose epoch-end jumps can copy a finite window
    state over a non-finite one, so those two keep their per-step
    :meth:`record` calls.
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
        self.acc_w = 0.0
        self.wsum_f = np.zeros((n_paths, n_rec)) if psi is not None else None
        self.wsum_g = np.zeros((n_paths, n_rec)) if psi is not None else None
        self.wsum_w = np.zeros(n_rec) if psi is not None else None
        self._steps = self.record_ks.tolist() + [n_steps + 1]  # past the grid
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
            self.wsum_w[i] = self.acc_w
        self._cursor = i + 1

    def check(self, k: int, X: np.ndarray) -> None:
        """Flag the paths whose state is non-finite after step k, unrecorded."""
        if not math.isfinite(X.sum()):
            self._flag(k, X)

    def drive(self, X: np.ndarray, chunks, advance) -> None:
        """Step the block X through every chunk of draws, booking the run.

        ``chunks`` yields (k0, B) like :func:`_normal_chunks`, and
        ``advance(B, k0, i0, i1)`` applies steps k0 + i0 to k0 + i1 - 1 to X
        in place, with the draws B[:, i0:i1].  Each chunk is stepped in
        segments that end at the next recorded step or at the chunk's end;
        with psi-weights every segment is one step, since the weighted sums
        take every step.  After a segment of several steps one sum tests the
        block; if a path still alive has turned non-finite, the block saved
        at the segment's start is restored and the segment replayed one step
        at a time, each step tested, so every flag is set at its step.  The
        replay repeats the same operations on the same values, and non-finite
        entries are absorbing in the recursions driven here (see the class
        docstring), so a segment with no new non-finite row at its end had
        none at any of its steps.
        """
        weighted = self.psi is not None
        saved = np.empty_like(X)
        try:
            for k0, B in chunks:
                n, i0 = B.shape[1], 0
                while i0 < n:
                    due = self._steps[self._cursor]
                    i1 = i0 + 1 if weighted else min(n, due - k0)
                    if i1 - i0 > 1:
                        np.copyto(saved, X)
                        advance(B, k0, i0, i1)
                        if (not math.isfinite(X.sum())
                                and np.any(self._newly_non_finite(X))):
                            np.copyto(X, saved)
                            for i in range(i0, i1):
                                advance(B, k0, i, i + 1)
                                self.check(k0 + i + 1, X)
                    else:
                        advance(B, k0, i0, i1)
                    k = k0 + i1
                    if weighted or k == due:
                        self.record(k, X)
                    else:
                        self.check(k, X)
                    i0 = i1
        finally:
            chunks.close()  # its fills end here, also when a step raised

    def _newly_non_finite(self, X: np.ndarray) -> np.ndarray:
        """The paths still alive whose state has a non-finite entry."""
        return self.alive & ~np.isfinite(X).all(axis=1)

    def _flag(self, k: int, X: np.ndarray) -> None:
        bad = self._newly_non_finite(X)
        if np.any(bad):
            self.diverged[bad] = True
            self.div_step[bad] = k
            self.alive &= ~bad

    def _accumulate(self, k: int, X: np.ndarray) -> None:
        alive, w = self.alive, self.psi[k]
        f_gap, grad_sq = _gap_and_grad_sq(self.problem, X)
        if self.dt is None:
            self.acc_f[alive] += w * f_gap[alive]
            self.acc_g[alive] += w * grad_sq[alive]
            self.acc_w += w
            return
        wf, wg = w * f_gap, w * grad_sq
        if k > 0:
            self.acc_f[alive] += (0.5 * self.dt) * (self._prev_f + wf)[alive]
            self.acc_g[alive] += (0.5 * self.dt) * (self._prev_g + wg)[alive]
            self.acc_w += (0.5 * self.dt) * (self._prev_w + w)
        self._prev_f, self._prev_g, self._prev_w = wf, wg, w

    def finish(self) -> KernelResult:
        assert self._cursor == self.record_ks.size, "missed a recording step"
        w = self.wsum_w
        return KernelResult(record_ks=self.record_ks, states=self.states,
                            diverged=self.diverged, divergence_step=self.div_step,
                            wsum_f_gap=self.wsum_f, wsum_grad_sq=self.wsum_g,
                            denominators=None if w is None
                            else np.where(w > 0, w, np.nan))


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
    """Vectorised mini-batch SGD (constant batch size, affine gradients).

    Driven in segments by :meth:`_BlockRecorder.drive`.
    """
    D, C, _, _ = _affine_parts(problem)
    b = batch.size_at_step(0, adj.h)
    eta, psi = _step_tables(adj, n_steps)
    rec = _BlockRecorder(problem, n_steps, len(gens), record_ks,
                         psi if weights else None)
    X = rec.start(x0)
    x_star = problem.x_star

    def advance(I, k0, i0, i1):
        for i in range(i0, i1):
            idx = I[:, i, :]
            U = X - x_star
            G = (D[idx] * U[:, None, :] + C[idx]).mean(axis=1)
            G *= eta[k0 + i]
            np.subtract(X, G, out=X)

    with np.errstate(over="ignore", invalid="ignore"):
        rec.drive(X, _index_chunks(gens, n_steps, problem.n_components, b),
                  advance)
    return rec.finish()


def kernel_pgd(problem: FiniteSumProblem, adj: AdjustmentSchedule,
               batch: BatchSchedule, x0, n_steps: int, gens, record_ks,
               volatility_mode: str = "exact",
               weights: bool = False) -> KernelResult:
    """Vectorised Gaussian surrogate (constant batch size and volatility matrix).

    X <- (X - eta_k grad f(X)) - coef_k sigma z_k, in place, with the
    per-path recursion's operations in its order, less the exact identities
    of :func:`_grad_ops`; driven in segments by :meth:`_BlockRecorder.drive`.
    """
    sig = _pgd_constant_sigma(problem, volatility_mode)
    if sig is None:
        raise ValueError("kernel_pgd needs a constant-covariance family")
    eta, psi = _step_tables(adj, n_steps)
    coef = np.array(eta) / np.sqrt(batch.size_at_step(0, adj.h))
    rec = _BlockRecorder(problem, n_steps, len(gens), record_ks,
                         psi if weights else None)
    X = rec.start(x0)
    grad_ops = _grad_ops(problem)
    G = np.empty_like(X)
    sig_scalar = _scalar_of(sig)
    if sig_scalar is not None:
        scales = (sig_scalar, coef)  # noise_k = coef_k (s z_k), scaled as drawn

        def noise(z, k):
            return z
    else:
        scales = ()

        def noise(z, k):
            out = z @ sig.T
            out *= coef[k]
            return out

    def advance(Z, k0, i0, i1):
        for i in range(i0, i1):
            A = X
            for op, operand in grad_ops:
                op(A, operand, out=G)
                A = G
            np.multiply(A, eta[k0 + i], out=G)
            np.subtract(X, G, out=X)
            np.subtract(X, noise(Z[:, i, :], k0 + i), out=X)

    with np.errstate(over="ignore", invalid="ignore"):
        rec.drive(X, _normal_chunks(gens, n_steps, problem.d, scales), advance)
    return rec.finish()


def _kernel_em_constant(problem: FiniteSumProblem, x0, dt: float,
                        n_steps: int, gens, record_ks,
                        drift_coef, vol_coef: np.ndarray,
                        volatility_mode: str,
                        node_psi: list | None) -> KernelResult:
    """Euler-Maruyama for dX = -c(t) grad f(X) dt + v(t) sigma dB.

    ``drift_coef``/``vol_coef`` are the per-step scalars c(t_k), v(t_k);
    sigma is the constant matrix of ``volatility_mode``, which needs a
    constant covariance; ``node_psi`` (grid values of psi) switches on
    trapezoidal accumulation of the weighted observables.  The step is
    X <- X + (dt (-c_k grad f(X)) + sqrt(dt) v_k sigma z_k), in place, with
    the per-path integrator's operations in its order, less the exact
    identities of :func:`_grad_ops`; when every c_k is 1.0 the two factors
    -c_k and dt fold into one -dt, exact since negation is.  Driven in
    segments by :meth:`_BlockRecorder.drive`.
    """
    if not problem.has_constant_mb_covariance:
        raise ValueError("the diffusion kernels need a constant-covariance family")
    sigma_matrix = _pgd_constant_sigma(problem, volatility_mode)
    rec = _BlockRecorder(problem, n_steps, len(gens), record_ks, node_psi, dt)
    X = rec.start(x0)
    sqrt_dt = np.sqrt(dt)
    grad_ops = _grad_ops(problem)
    G = np.empty_like(X)
    # G <- (-c_k G) dt as one factor -dt when every c_k is 1.0, else as the
    # factor -c_k followed by dt
    drift = np.asarray(drift_coef, dtype=float)
    if np.all(drift == 1.0):
        rate, after_rate = [-dt] * n_steps, ()
    else:
        rate, after_rate = (-drift).tolist(), ((np.multiply, dt),)
    sig_scalar = _scalar_of(sigma_matrix)
    if sig_scalar is not None:
        # noise_k = (v_k s) z_k sqrt(dt), scaled as it is drawn
        scales = (vol_coef * sig_scalar, sqrt_dt)

        def noise(z, k):
            return z
    else:
        scales = ()

        def noise(z, k):
            out = z @ (vol_coef[k] * sigma_matrix).T
            out *= sqrt_dt
            return out

    def advance(Z, k0, i0, i1):
        for i in range(i0, i1):
            A = X
            for op, operand in grad_ops:
                op(A, operand, out=G)
                A = G
            np.multiply(A, rate[k0 + i], out=G)
            for op, operand in after_rate:
                op(G, operand, out=G)
            np.add(G, noise(Z[:, i, :], k0 + i), out=G)
            np.add(X, G, out=X)

    with np.errstate(over="ignore", invalid="ignore"):
        rec.drive(X, _normal_chunks(gens, n_steps, problem.d, scales), advance)
    return rec.finish()


def kernel_mb_pgf(problem: FiniteSumProblem, adj: AdjustmentSchedule,
                  batch: BatchSchedule, x0, dt: float, n_steps: int, gens,
                  record_ks, volatility_mode: str = "exact",
                  weights: bool = False) -> KernelResult:
    """Vectorised annealed gradient flow with constant covariance factor.

    The drift rate psi(t_k), the volatility psi(t_k) sqrt(h / b(t_k)) and
    the node weights all come from one table of psi on the grid.
    """
    h = adj.h
    psi = _psi_table(adj, n_steps, dt)
    vol_coef = np.array([psi[k] * np.sqrt(h / batch.value(k * dt))
                         for k in range(n_steps)])
    return _kernel_em_constant(problem, x0, dt, n_steps, gens, record_ks,
                               psi[:n_steps], vol_coef, volatility_mode,
                               psi if weights else None)


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
    return _kernel_em_constant(problem, x0, dt, n_steps, gens, record_ks,
                               np.ones(n_steps), vol_coef, volatility_mode,
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
