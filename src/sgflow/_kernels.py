"""Path-vectorised step loops: the one implementation of every recursion.

Each run mode has one kernel.  ``ensemble_run`` hands it a block of paths,
and the simulators of :mod:`sgflow.discrete` and :mod:`sgflow.continuous`
hand it one path.  A kernel holds an (n_paths, d) state block and draws every
path's noise from that path's own generator in chunks: PCG64 streams are
partition invariant -- ``standard_normal((k, d))`` consumes the stream
exactly like k successive ``standard_normal(d)`` calls, and sized integer
draws behave the same way -- so a path's states do not depend on the other
paths of its block, except where a constant volatility matrix that is not a
multiple of I multiplies the whole noise block as one product (the test
suite pins that tolerance).  The same facts let every usable core fill a
chunk, one thread per contiguous range of paths, with no value depending on
how many cores there are; two chunk buffers take turns, so the next chunk
fills while the kernel steps through this one, and the scalar-volatility
kernels' noise is scaled in the fill, value by value as the kernel would
scale it (:func:`_draw_chunks`, :func:`_normal_chunks`).

The block gradient and volatility are array expressions where the problem
has affine gradients and the volatility matrix is constant.  Otherwise the
kernel loops over the rows (:func:`_rows`) with the functions one path
calls: ``problem.grad``, the component gradients of the mini-batch and
variance-reduced estimates, and the square roots of ``sigma_mb`` and
``sigma_vr``.  The loop evaluates finite rows only and gives a non-finite
row NaN, so a user's callable never sees a diverged point.  Batch sizes come
from one schedule call per step, and all stepsizes, coefficients and weights
from one table of ``psi`` values (:func:`_psi_table`).

:class:`_BlockRecorder` does the bookkeeping: the record grid, the
divergence flags, the snapshots and the running ``psi``-weighted sums behind
the randomized-output guarantees.  It also drives the SGD, PGD and
diffusion kernels (:meth:`_BlockRecorder.drive`) in segments from one
recorded step to the next, with one divergence test per segment; a segment
in which a path turns non-finite is replayed step by step, so the flags are
those of a per-step test.  Their affine drift (:func:`_grad_ops`) leaves out
operations that are exact identities; the only value that can differ from
the full operation sequence is the sign of an exact zero (adding +0.0 turns
-0.0 into +0.0).
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor, wait
from dataclasses import dataclass

import numpy as np

from .estimators import sigma_mb, sigma_vr
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


def _pgd_constant_sigma(problem: FiniteSumProblem,
                        volatility_mode: str) -> np.ndarray | None:
    """sigma for ``volatility_mode`` where it is constant, else None.

    "constant" is sqrt(sigma_star_sq) I; "exact" is the square root of the
    one-sample covariance, constant for the constant-covariance families.
    """
    if volatility_mode == "constant":
        s2 = problem.constants.sigma_star_sq
        if s2 is None:
            raise ValueError("volatility_mode='constant' needs a declared sigma_star_sq")
        return np.sqrt(s2) * np.eye(problem.d)
    if volatility_mode != "exact":
        raise ValueError(f"unknown volatility_mode {volatility_mode!r}")
    if problem.has_constant_mb_covariance:
        return sigma_mb(problem, problem.x_star).sqrt_matrix
    return None


def _psi_table(adj: AdjustmentSchedule, n_steps: int,
               dt: float | None = None) -> list:
    """psi_k at every step index k <= n_steps, or psi(k dt) at every grid node.

    Python floats, one schedule call per entry; an index-array argument
    gives the same values (:mod:`sgflow.schedules` has one scalar formula
    per value).
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


def _batch_sizes(batch: BatchSchedule, n_steps: int, h: float) -> list:
    """b_k for k < n_steps: one scalar call per step, one for a constant batch."""
    if batch.family == "constant":
        return [batch.size_at_step(0, h)] * n_steps
    return [batch.size_at_step(k, h) for k in range(n_steps)]


def _rows(fn, shape: tuple, X: np.ndarray, *per_row) -> np.ndarray:
    """fn(X[p], *(a[p] for a in per_row)), of shape ``shape``, for each row p.

    A row of X with a non-finite entry is never passed to fn and gets NaN,
    which keeps it non-finite through the step (see :class:`_BlockRecorder`).
    """
    out = np.full((X.shape[0], *shape), np.nan)
    for p in np.flatnonzero(np.isfinite(X).all(axis=1)):
        out[p] = fn(X[p], *(a[p] for a in per_row))
    return out


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
    d_mean, c_mean = problem.affine.d_mean, problem.affine.c_mean
    ops = []
    if problem.x_star.any():
        ops.append((np.subtract, problem.x_star))
    if np.any(d_mean != 1.0):
        uniform = np.all(d_mean == d_mean[0])
        ops.append((np.multiply, float(d_mean[0]) if uniform else d_mean))
    if c_mean.any():
        ops.append((np.add, c_mean))
    return tuple(ops)


def _grad_block(problem: FiniteSumProblem):
    """grad f row-wise: (X, out) -> :func:`_grad_ops` into out, or the rows."""
    if problem.affine is None:
        return lambda X, out: _rows(problem.grad, (problem.d,), X)
    ops = _grad_ops(problem)

    def grad(X, out):
        A = X
        for op, operand in ops:
            op(A, operand, out=out)
            A = out
        return A
    return grad


def _gap_and_grad_sq(problem: FiniteSumProblem, X: np.ndarray):
    """(f - f*, |grad f|^2) for each row of a (n, d) block of states."""
    if problem.affine is not None:
        return problem.affine.block_observables(X - problem.x_star,
                                                problem.constants.f_star)

    def gap_and_grad_sq(x):
        g = problem.grad(x)
        return problem.gap(x), float(g @ g)
    both = _rows(gap_and_grad_sq, (2,), X)
    return both[:, 0], both[:, 1]


def _noise(problem: FiniteSumProblem, sigma, X: np.ndarray, inner, outer):
    """(noise(Z, k), scales): step k's noise (inner_k sigma(X)) z_k outer_k.

    ``inner`` is a per-step table or None, ``outer`` a table or a scalar.
    For sigma = s I the factors are the scales of :func:`_normal_chunks`;
    sigma None is the square root of ``sigma_mb`` row by row.
    """
    def post(k):
        return outer[k] if np.ndim(outer) else outer

    if sigma is None:
        def one_row(x, z, k):
            S = sigma_mb(problem, x).sqrt_matrix
            return (S if inner is None else inner[k] * S) @ z

        def noise(Z, k):
            out = _rows(lambda x, z: one_row(x, z, k), (problem.d,), X, Z)
            out *= post(k)
            return out
        return noise, ()
    s = _scalar_of(sigma)
    if s is not None:
        return (lambda Z, k: Z), (s if inner is None else inner * s, outer)

    def noise(Z, k):
        out = Z @ (sigma if inner is None else inner[k] * sigma).T
        out *= post(k)
        return out
    return noise, ()


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
    calls would hang in a forked child); a single chunk for a single worker
    is filled in the caller, with no thread.
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

    if n_workers == 1 and len(starts) == 1:  # nothing to overlap: no thread
        fill(chunk_view(0), 0, 0, n_paths)
        yield 0, chunk_view(0)
        return
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


def _index_chunks(gens, n_steps: int, n_components: int, sizes: list):
    """Yield (k0, I) with I[p, i, :b] the b = sizes[k0 + i] indices of path p.

    The draws of per-step ``integers(0, n_components, size=b_k)`` calls, in
    step order; a varying batch fills the first b_k of max(sizes) entries.
    """
    width = max(sizes, default=1)
    if min(sizes, default=width) == width:
        def fill_row(g, row, k0):
            row[...] = g.integers(0, n_components, size=row.shape)
    else:
        used = np.arange(width) < np.array(sizes)[:, None]

        def fill_row(g, row, k0):
            mask = used[k0:k0 + row.shape[0]]
            row[mask] = g.integers(0, n_components, size=np.count_nonzero(mask))
    yield from _draw_chunks(gens, n_steps, width, np.int64, fill_row)


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
    :meth:`drive`, which calls :meth:`record` at the recorded steps.  The
    snapshots' observables are left to the consumer, which reduces them once
    after the run, not once per step.

    :meth:`drive` tests for divergence once per segment, which is exact
    only where non-finite values are absorbing.  They are in
    :func:`kernel_mb_sgd`, :func:`kernel_pgd` and the diffusions: an affine
    step adds, subtracts and multiplies each entry with finite operands and
    terms of that entry alone (a constant volatility never reads the
    state), and the row loops (:func:`_rows`) give a non-finite row NaN.
    The epoch-end jumps of :func:`kernel_svrg` and :func:`kernel_vr_pgf` can
    copy a finite state over a non-finite one, so those two record per step.
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
    """Vectorised mini-batch SGD: X <- X - eta_k G_MB(X, b_k), path by path.

    G_MB averages D[i] (x - x*) + C[i] over each path's b_k indices for an
    affine family, and the component gradients row by row otherwise.
    Driven in segments by :meth:`_BlockRecorder.drive`.
    """
    sizes = _batch_sizes(batch, n_steps, adj.h)
    eta, psi = _step_tables(adj, n_steps)
    rec = _BlockRecorder(problem, n_steps, len(gens), record_ks,
                         psi if weights else None)
    X = rec.start(x0)
    affine, x_star = problem.affine, problem.x_star

    def estimate(x, idx):
        return np.mean([problem.component_grad(int(i), x) for i in idx], axis=0)

    def advance(I, k0, i0, i1):
        for i in range(i0, i1):
            idx = I[:, i, :sizes[k0 + i]]
            if affine is None:
                G = _rows(estimate, (problem.d,), X, idx)
            else:
                U = X - x_star
                G = (affine.D[idx] * U[:, None, :] + affine.C[idx]).mean(axis=1)
            G *= eta[k0 + i]
            np.subtract(X, G, out=X)

    with np.errstate(over="ignore", invalid="ignore"):
        rec.drive(X, _index_chunks(gens, n_steps, problem.n_components, sizes),
                  advance)
    return rec.finish()


def kernel_pgd(problem: FiniteSumProblem, adj: AdjustmentSchedule,
               batch: BatchSchedule, x0, n_steps: int, gens, record_ks,
               volatility_mode: str = "exact",
               weights: bool = False) -> KernelResult:
    """Vectorised Gaussian surrogate of mini-batch SGD.

    X <- (X - eta_k grad f(X)) - coef_k sigma(X) z_k with coef_k =
    eta_k / sqrt(b_k), in place, less the exact identities of
    :func:`_grad_ops`.  sigma is the constant matrix of ``volatility_mode``
    where there is one, else the square root of ``sigma_mb`` row by row.
    Driven in segments by :meth:`_BlockRecorder.drive`.
    """
    sig = _pgd_constant_sigma(problem, volatility_mode)
    eta, psi = _step_tables(adj, n_steps)
    coef = np.array(eta) / np.sqrt(_batch_sizes(batch, n_steps, adj.h))
    rec = _BlockRecorder(problem, n_steps, len(gens), record_ks,
                         psi if weights else None)
    X = rec.start(x0)
    grad = _grad_block(problem)
    G = np.empty_like(X)
    noise, scales = _noise(problem, sig, X, None, coef)

    def advance(Z, k0, i0, i1):
        for i in range(i0, i1):
            k = k0 + i
            N = noise(Z[:, i, :], k)  # of the state before the step
            np.multiply(grad(X, G), eta[k], out=G)
            np.subtract(X, G, out=X)
            np.subtract(X, N, out=X)

    with np.errstate(over="ignore", invalid="ignore"):
        rec.drive(X, _normal_chunks(gens, n_steps, problem.d, scales), advance)
    return rec.finish()


def _kernel_em(problem: FiniteSumProblem, x0, dt: float, n_steps: int, gens,
               record_ks, drift_coef, vol_coef: np.ndarray,
               volatility_mode: str, node_psi: list | None) -> KernelResult:
    """Euler-Maruyama for dX = -c(t) grad f(X) dt + v(t) sigma(X) dB.

    ``drift_coef``/``vol_coef`` are the per-step scalars c(t_k), v(t_k);
    sigma is the constant matrix of ``volatility_mode`` where there is one,
    else the square root of ``sigma_mb`` row by row; ``node_psi`` (grid
    values of psi) switches on trapezoidal accumulation of the weighted
    observables.  The step is X <- X + (dt (-c_k grad f(X)) + sqrt(dt)
    (v_k sigma) z_k), in place, less the exact identities of
    :func:`_grad_ops`; when every c_k is 1.0 the two factors -c_k and dt
    fold into one -dt, exact since negation is.  Driven in segments by
    :meth:`_BlockRecorder.drive`.
    """
    sigma_matrix = _pgd_constant_sigma(problem, volatility_mode)
    rec = _BlockRecorder(problem, n_steps, len(gens), record_ks, node_psi, dt)
    X = rec.start(x0)
    sqrt_dt = np.sqrt(dt)
    grad = _grad_block(problem)
    G = np.empty_like(X)
    # G <- (-c_k G) dt as one factor -dt when every c_k is 1.0, else as the
    # factor -c_k followed by dt
    drift = np.asarray(drift_coef, dtype=float)
    if np.all(drift == 1.0):
        rate, after_rate = [-dt] * n_steps, ()
    else:
        rate, after_rate = (-drift).tolist(), ((np.multiply, dt),)
    noise, scales = _noise(problem, sigma_matrix, X, vol_coef, sqrt_dt)

    def advance(Z, k0, i0, i1):
        for i in range(i0, i1):
            k = k0 + i
            np.multiply(grad(X, G), rate[k], out=G)
            for op, operand in after_rate:
                op(G, operand, out=G)
            np.add(G, noise(Z[:, i, :], k), out=G)
            np.add(X, G, out=X)

    with np.errstate(over="ignore", invalid="ignore"):
        rec.drive(X, _normal_chunks(gens, n_steps, problem.d, scales), advance)
    return rec.finish()


def kernel_mb_pgf(problem: FiniteSumProblem, adj: AdjustmentSchedule,
                  batch: BatchSchedule, x0, dt: float, n_steps: int, gens,
                  record_ks, volatility_mode: str = "exact",
                  weights: bool = False) -> KernelResult:
    """Vectorised annealed gradient flow with mini-batch noise.

    The drift rate psi(t_k), the volatility psi(t_k) sqrt(h / b(t_k)) and
    the node weights all come from one table of psi on the grid.
    """
    h = adj.h
    psi = _psi_table(adj, n_steps, dt)
    vol_coef = np.array([psi[k] * np.sqrt(h / batch.value(k * dt))
                         for k in range(n_steps)])
    return _kernel_em(problem, x0, dt, n_steps, gens, record_ks,
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
    return _kernel_em(problem, x0, dt, n_steps, gens, record_ks,
                      np.ones(n_steps), vol_coef, volatility_mode,
                      node_psi=None)


def kernel_svrg(problem: FiniteSumProblem, h: float, epoch_steps: int,
                n_epochs: int, x0, gens, record_ks) -> KernelResult:
    """Vectorised SVRG with uniform epoch-end resampling (b = 1, psi = 1).

    Within an epoch X <- X - h G_VR(X, pivot), with the pivot frozen at the
    epoch's start; at its end each path restarts from a uniformly drawn
    state of its epoch window.  G_VR is D[i] (x - pivot) + grad f(pivot) for
    an affine family, and the component gradients row by row otherwise.
    """
    if epoch_steps < 1:
        raise ValueError("epoch_steps must be >= 1")
    m = epoch_steps
    n_paths = len(gens)
    rec = _BlockRecorder(problem, m * n_epochs, n_paths, record_ks)
    X = rec.start(x0)
    window = np.empty((n_paths, m, problem.d))
    rows = np.arange(n_paths)
    affine = problem.affine

    def estimate(x, pivot, idx):
        return np.mean([problem.component_grad(int(i), x)
                        - problem.component_grad(int(i), pivot)
                        for i in idx], axis=0) + problem.grad(pivot)

    with np.errstate(over="ignore", invalid="ignore"):
        for j in range(n_epochs):
            pivot = X.copy()
            if affine is not None:
                grad_pivot = (pivot - problem.x_star) * affine.d_mean + affine.c_mean
            I = np.array([g.integers(0, problem.n_components, size=m)
                          for g in gens])
            for i in range(m):
                window[:, i, :] = X
                if affine is None:
                    G = _rows(estimate, (problem.d,), X, pivot, I[:, i:i + 1])
                else:
                    G = affine.D[I[:, i]] * (X - pivot) + grad_pivot
                X = X - h * G
                if i < m - 1:
                    rec.record(j * m + i + 1, X)
            rec.check((j + 1) * m, X)  # the epoch's last step, before the jump
            J = np.array([g.integers(0, m) for g in gens])
            X = window[rows, J, :].copy()
            rec.record((j + 1) * m, X)
    return rec.finish()


def _vr_increment(problem: FiniteSumProblem, dt: float, h: float):
    """The delay kernel's increment (X, X_del, Z) -> step.

    sqrt(h) sigma_VR is the square root of ``sigma_vr`` row by row, except
    for the two-component one-dimensional affine family, whose one-sample
    deviation |(D_1 - D_2)/2 (x - x_delayed)| takes a closed form with the
    centering arithmetic of :func:`sgflow.estimators.sigma_vr`.
    """
    sqrt_dt, sqrt_h = np.sqrt(dt), np.sqrt(h)
    if (problem.affine is None or problem.d != 1
            or problem.n_components != 2):
        grad = _grad_block(problem)

        def increment(X, X_del, Z):
            step = grad(X, np.empty_like(X)) * -dt
            noise = _rows(lambda x, x_del, z:
                          (sqrt_h * sigma_vr(problem, x, x_del).sqrt_matrix) @ z,
                          (problem.d,), X, X_del, Z)
            return step + sqrt_dt * noise
        return increment
    D, dm, cm = problem.affine.D, problem.affine.d_mean, problem.affine.c_mean
    xs = float(problem.x_star[0])
    d0, d1 = float(D[0, 0]), float(D[1, 0])
    dm, cm = float(dm[0]), float(cm[0])

    def increment(X, X_del, Z):
        x, x_del = X[:, 0], X_del[:, 0]
        grad = dm * (x - xs) + cm
        # one-sample covariance of the VR estimate, centered as in
        # sigma_vr: e_i = (grad f_i(x) - grad f_i(y)) - (grad f(x) - grad f(y))
        mean_term = grad - (dm * (x_del - xs) + cm)
        e0 = d0 * (x - x_del) - mean_term
        e1 = d1 * (x - x_del) - mean_term
        s = np.sqrt(0.5 * (e0 * e0 + e1 * e1))
        return (dt * (-grad) + sqrt_dt * (sqrt_h * s) * Z[:, 0])[:, None]
    return increment


def kernel_vr_pgf(problem: FiniteSumProblem, staleness: StalenessSchedule,
                  x0, dt: float, n_steps: int, gens, record_ks,
                  with_jumps: bool = True) -> KernelResult:
    """Vectorised variance-reduced delay diffusion.

    dX = -grad f(X) dt + sqrt(h) sigma_VR(X, X_del) dB, where X_del is the
    state at the current epoch's start; with ``with_jumps`` each epoch ends
    on a uniformly drawn grid state of that epoch.  The volatility is the
    square root of ``sigma_vr`` row by row, in closed form for the
    two-component one-dimensional affine family (:func:`_vr_increment`).
    """
    q = staleness.grid_steps(dt)
    n_paths = len(gens)
    rec = _BlockRecorder(problem, n_steps, n_paths, record_ks)
    X = rec.start(x0)
    increment = _vr_increment(problem, dt, staleness.h)
    window = np.empty((n_paths, q, problem.d))
    rows = np.arange(n_paths)
    # Noise must be drawn in epoch-sized blocks: the per-path stream
    # interleaves q normal increments with one jump draw per epoch.
    with np.errstate(over="ignore", invalid="ignore"):
        k0 = 0
        while k0 < n_steps:
            q_eff = min(q, n_steps - k0)
            Z = np.array([g.standard_normal((q_eff, problem.d)) for g in gens])
            for i in range(q_eff):
                k = k0 + i
                window[:, k % q] = X
                X = X + increment(X, window[:, 0], Z[:, i])
                if with_jumps and (k + 1) % q == 0:
                    J = np.array([g.integers(0, q) for g in gens])
                    X = window[rows, J].copy()
                rec.record(k + 1, X)
            k0 += q_eff
    return rec.finish()
