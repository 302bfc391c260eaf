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
chunk, each thread taking the next path's row until none is left, with no
value depending on how many cores there are; two chunk buffers take turns,
so the next chunk fills while the kernel steps through this one, and the
scalar-volatility kernels' noise is scaled in the fill, value by value as
the kernel would scale it (:func:`_draw_chunks`, :func:`_normal_chunks`).

The block gradient and volatility are array expressions where the problem
has affine gradients and the volatility matrix is constant.  Otherwise the
kernel loops over the rows (:func:`_rows`) with the functions one path
calls: ``problem.grad``, the component gradients of the mini-batch and
variance-reduced estimates, and the square roots of ``sigma_mb`` and
``sigma_vr``.  The loop evaluates finite rows only and gives a non-finite
row NaN, so a user's callable never sees a diverged point.  Every per-run
table -- batch sizes, the ``psi`` values (:func:`_psi_table`) and the
stepsizes, coefficients and weights built on them -- comes from one array
call per schedule value, which maps the schedule's scalar formula over the
steps; the products, quotients and square roots that combine them are
array operations, correctly rounded like their scalar forms, so every entry
is the per-step scalar expression's value.

:class:`_BlockRecorder` does the bookkeeping: the record grid, the
divergence flags, the snapshots (or, for a caller that reads no state, their
observables, reduced a buffer of snapshots at a time) and the running
``psi``-weighted sums behind the randomized-output guarantees.  It also
drives the SGD, PGD and diffusion kernels (:meth:`_BlockRecorder.drive`) in
segments from one recorded step to the next, with one divergence test per
segment; a segment in which a path turns non-finite is replayed step by
step, so the flags are those of a per-step test.  A run of consecutive
recorded steps is one dense segment whose flags are read from its
snapshots.  A chunk is path-major, so one step's draws lie a row apart per
path; the driven kernels read them from step-major tiles instead
(:func:`_step_tiles`): a chunk of several paths whose rows are narrower than
a cache line is copied, byte for byte, a cache-sized tile at a time, so that
each step reads one contiguous (n_paths, width) block.  The segments, and
so the records, do not depend on the tiles.  The PGD and diffusion kernels
state their step once, as factor tables and a combine, for two executors
(:func:`_elementwise`): one ufunc call per operation on the block, or, for a
block of at most ``_NARROW_VALUES`` values with an affine gradient and a
volatility s I, each value's recursion on Python floats, whose +, - and *
round like NumPy's elementwise loops.  The step loops leave out
operations that are exact identities: those of the affine drift
(:func:`_grad_ops`, and no gradient call at all where grad f(X) = X), fill
scales equal to 1.0, and the noise call where the scaled draws are the
noise.  The only value that can differ from the full operation sequence is
the sign of an exact zero (adding +0.0 turns -0.0 into +0.0).
"""

from __future__ import annotations

import math
import operator
import os
import threading
import weakref
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

# Snapshot values (~0.5 MB) a run without a state block collects before it
# reduces them to observables in one call; at least one record is collected.
_REDUCE_DOUBLES = 65_536

# Draws (~0.5 MB, within L2) in one step-major tile that a driven kernel
# steps through (:func:`_step_tiles`); at least one step is copied.
_TILE_DOUBLES = 65_536

# State values (n_paths * d) up to which an elementwise step runs on Python
# floats (:func:`_elementwise`), in calls of more than two steps a value.  A
# 5-operation mb-pgf step, every step recorded, took 1.5 / 2.7 / 4.0 / 5.2 us
# on floats against 3.9 / 3.9 / 4.0 / 4.2 us on NumPy at 4 / 8 / 12 / 16
# values (2 vCPU, Python 3.11, NumPy 2.4).  A float call also converts, at
# about 2 us plus 2.3 us a value: 8 values recorded every 9 steps took 3.9 us
# a step either way, and a weighted run's one-step calls 31 against 26 us.
_NARROW_VALUES = 8

# The Python float operation that rounds as each ufunc of an elementwise step
_FLOAT_OPS = {np.add: operator.add, np.subtract: operator.sub,
              np.multiply: operator.mul}


@dataclass
class KernelResult:
    """States or observables (and optional weighted sums) at the recorded steps.

    A run that keeps its state block (the default) has ``states``, of shape
    (n_paths, n_records, d), and ``observables`` None.  A run that keeps no
    block (``keep_states=False``, for callers that read no state) has
    ``states`` None and ``observables``, of shape (3, n_paths, n_records):
    f - f*, |grad f|^2 and |x - x*|^2 of each recorded snapshot
    (:func:`_observable_arrays`).  Recorded entries of paths that diverged
    are whatever non-finite values the recursion produced and must be masked
    via ``diverged`` by the consumer.  ``wsum_f_gap`` and
    ``wsum_grad_sq`` are (n_paths, n_records) running weighted sums of
    f(x)-f* and |grad f(x)|^2 (prefix sums for discrete kernels, trapezoid
    integrals for continuous ones), and ``denominators`` (n_records,) the
    same sums of psi alone, NaN where the integral is empty (t = 0), so
    their ratios are the weighted averages; all three None when not
    requested.  ``jump_period`` is q when every q-th step ends on an epoch
    jump (:func:`_epoch_loop`), and None in a run without jumps.
    """

    record_ks: np.ndarray
    states: np.ndarray | None
    diverged: np.ndarray
    divergence_step: np.ndarray
    wsum_f_gap: np.ndarray | None = None
    wsum_grad_sq: np.ndarray | None = None
    denominators: np.ndarray | None = None
    observables: np.ndarray | None = None
    jump_period: int | None = None


# The "exact" constant volatility of each problem, computed once; weak keys,
# so the cache keeps no problem alive.
_EXACT_SIGMA = weakref.WeakKeyDictionary()


def _pgd_constant_sigma(problem: FiniteSumProblem,
                        volatility_mode: str) -> np.ndarray | None:
    """sigma for ``volatility_mode`` where it is constant, else None.

    "constant" is sqrt(sigma_star_sq) I; "exact" is the square root of the
    one-sample covariance, constant for the constant-covariance families and
    then taken once per problem (read-only, shared by every call).
    """
    if volatility_mode == "constant":
        s2 = problem.constants.sigma_star_sq
        if s2 is None:
            raise ValueError("volatility_mode='constant' needs a declared sigma_star_sq")
        return np.sqrt(s2) * np.eye(problem.d)
    if volatility_mode != "exact":
        raise ValueError(f"unknown volatility_mode {volatility_mode!r}")
    if not problem.has_constant_mb_covariance:
        return None
    sigma = _EXACT_SIGMA.get(problem)
    if sigma is None:
        sigma = sigma_mb(problem, problem.x_star).sqrt_matrix
        sigma.flags.writeable = False
        _EXACT_SIGMA[problem] = sigma
    return sigma


def _psi_table(adj: AdjustmentSchedule, n_steps: int,
               dt: float | None = None) -> np.ndarray:
    """psi_k at every step index k <= n_steps, or psi(k dt) at every grid node.

    One array call: :mod:`sgflow.schedules` maps its one scalar formula over
    the indices, or over the nodes k dt, products rounded as a scalar k * dt
    is, so every entry is the per-step scalar call's value.
    """
    k = np.arange(n_steps + 1)
    return adj.psi_k(k) if dt is None else adj.psi(k * dt)


def _step_tables(adj: AdjustmentSchedule, n_steps: int):
    """Stepsizes eta_k (k < n_steps) and weights psi_k (k <= n_steps).

    Both from one psi table: eta_k is defined as h * psi_k, the product
    :meth:`AdjustmentSchedule.eta_k` takes, so the values are its own.
    """
    psi = _psi_table(adj, n_steps)
    return (adj.h * psi[:n_steps]).tolist(), psi.tolist()


def _batch_sizes(batch: BatchSchedule, n_steps: int, h: float) -> list:
    """b_k for k < n_steps: one array call, one scalar call for a constant batch."""
    if batch.family == "constant":
        return [batch.size_at_step(0, h)] * n_steps
    return batch.size_at_step(np.arange(n_steps), h).tolist()


def _batch_values(batch: BatchSchedule, times: np.ndarray):
    """b(t) at each of the times: one array call, one scalar for a constant batch."""
    return batch.value(0.0) if batch.family == "constant" else batch.value(times)


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
    """grad f row-wise: (X, out) -> :func:`_grad_ops` into out, or the rows.

    None where grad f(X) = X (no operation is left), so that a step loop
    reads X itself instead of calling an identity.
    """
    if problem.affine is None:
        return lambda X, out: _rows(problem.grad, (problem.d,), X)
    ops = _grad_ops(problem)
    if not ops:
        return None

    def grad(X, out):
        A = X
        for op, operand in ops:
            op(A, operand, out)
            A = out
        return A
    return grad


def _observable_arrays(problem: FiniteSumProblem, X: np.ndarray):
    """(f - f*, |grad f|^2, |x - x*|^2) for each row of a (n, d) block of states.

    The one observable formula: ensembles reduce their snapshots with it,
    :class:`_BlockRecorder` weights it, and single paths take it once for
    their recorded states.  Its sums are NumPy's own (``einsum``), with no
    BLAS call, whose kernel OpenBLAS picks for the CPU at run time.
    """
    U = X - problem.x_star
    if problem.affine is not None:
        f_gap, grad_sq = problem.affine.block_observables(U, problem.constants.f_star)
    else:
        f_gap = _rows(problem.gap, (), X)
        G = _rows(problem.grad, (problem.d,), X)
        grad_sq = np.einsum("nd,nd->n", G, G)
    return f_gap, grad_sq, np.einsum("nd,nd->n", U, U)


def _noise(problem: FiniteSumProblem, sigma, X: np.ndarray, inner, outer):
    """(noise(Z, k), scales): step k's noise (inner_k sigma(X)) z_k outer_k.

    ``inner`` is a per-step table or None, ``outer`` a table or a scalar.
    For sigma = s I the factors are the scales of :func:`_normal_chunks`,
    and noise is None: the scaled draws are the noise.  sigma None is the
    square root of ``sigma_mb`` row by row.
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
        return None, (s if inner is None else inner * s, outer)

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
    be done with a chunk before it asks for the next.  The driven kernels'
    consumer is :func:`_step_tiles`, which asks for chunk j+1 only when its
    own consumer asks for that chunk's tiles, so chunk j is held while its
    tiles are read.

    :func:`_fill_workers` pool threads fill a chunk, taking its paths one at
    a time, in path order, from one shared iterator, so a thread that loses
    its core to the stepping caller holds back one row, not a range of them.
    No value moves.  Each path owns its generator and each row is handed out
    once, so every generator is drawn by one thread at a time, in chunk
    order, by the same sized calls whatever the split or the overlap.  NumPy
    releases the GIL while it fills an array, so the rows draw in parallel
    with each other and with the caller's steps.  Since no worker count can
    change a result, the count is read from the machine and is not a
    setting.  A chunk is yielded, or its first error in path order raised,
    only after every one of its threads has finished; a thread whose row
    raises takes no further row, and every row before it has been handed
    out, so that error is the one a single thread filling the rows in order
    would raise.  On the way out every fill still in flight is waited for, so
    no thread outlives the call or writes into a buffer the caller holds.
    The threads live for one call (a pool kept across calls would hang in a
    forked child); a single chunk for a single worker is filled in the
    caller, with no thread.
    """
    n_paths = len(gens)
    chunk = max(1, min(n_steps, _CHUNK_DOUBLES // max(1, n_paths * width)))
    starts = range(0, n_steps, chunk)
    bufs = [np.empty((n_paths, chunk, width), dtype=dtype)
            for _ in range(min(2, len(starts)))]
    n_workers = _fill_workers(n_paths)
    lock = threading.Lock()

    def fill(B, k0, todo, errors):
        while True:
            with lock:
                p = next(todo, None)
            if p is None:
                return
            try:
                fill_row(gens[p], B[p], k0)
            except Exception as exc:  # raised by the caller, in path order
                errors[p] = exc
                return

    def chunk_view(j):
        return bufs[j % 2][:, :min(chunk, n_steps - starts[j])]

    def submit(j):
        B, todo, errors = chunk_view(j), iter(range(n_paths)), {}
        return [pool.submit(fill, B, starts[j], todo, errors)
                for _ in range(n_workers)], errors

    if n_workers == 1 and len(starts) == 1:  # nothing to overlap: no thread
        B = chunk_view(0)
        for g, row in zip(gens, B):
            fill_row(g, row, 0)
        yield 0, B
        return
    pool = ThreadPoolExecutor(n_workers, thread_name_prefix="sgflow-draw")
    pending = []
    try:
        if starts:
            pending, errors = submit(0)
        for j, k0 in enumerate(starts):
            filling, pending = pending, []
            wait(filling)
            for f in filling:
                f.result()
            if errors:
                raise errors[min(errors)]
            if j + 1 < len(starts):
                pending, errors = submit(j + 1)
            yield k0, chunk_view(j)
    finally:
        wait(pending)
        pool.shutdown()


def _constant_scale(s):
    """A per-step scale array whose entries are one number, as that scalar.

    Entries are compared bit for bit, so 0.0 and -0.0 stay apart; every
    product with the scalar is then the product with the array's entry.
    Scalars and other arrays are returned as they are.
    """
    if np.ndim(s) == 0 or np.size(s) == 0:
        return s
    a = np.ascontiguousarray(s, dtype=np.float64)
    bits = a.view(np.uint64)
    return a[0] if np.all(bits == bits[0]) else s


def _normal_chunks(gens, n_steps: int, d: int, scales=()):
    """Yield (k0, Z) with Z[p] the next chunk of N(0,1) steps for path p.

    Each factor of ``scales``, a scalar or a per-step array, multiplies the
    draws in order, as ``row *= s`` or ``row *= s[k0:k0 + n, None]``, while
    the row is still in cache.  These are the products a kernel would take
    on the whole chunk, one value at a time, so they give the same bits.  A
    per-step array whose entries are all one number multiplies as that
    scalar (:func:`_constant_scale`), about three times faster on a wide
    row; a factor equal to 1.0 everywhere is left out: multiplying by it is
    exact.
    """
    scales = [_constant_scale(s) for s in scales]
    scales = [s for s in scales if not np.all(s == 1.0)]

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


def _step_tiles(chunks):
    """Yield (k0, n, tile) for each chunk (k0, B) of ``chunks``, n steps long.

    ``tile(i)`` is (t0, T): the chunk's draws of steps t0 to t0 + len(T) - 1,
    step i among them, step-major, so that T[j] holds the (n_paths, width)
    draws of step k0 + t0 + j as one contiguous block.  In the path-major
    chunk a step's draws B[:, i] are n_paths rows a chunk's row length
    apart: a gather that touches a cache line per path.  A chunk whose
    paths' rows are one cache line or more (8 values) wide, or that holds
    one path, has one tile, the view ``B.transpose(1, 0, 2)``.  Any other
    is copied a tile of ``_TILE_DOUBLES`` values at a time, on demand, into
    one reused buffer; each copy moves every path's row of a step as one
    void item of its bytes, so no value changes.  A tile is valid until the
    next ``tile`` call, and a chunk's ``tile`` until the next chunk is asked
    for.  Closing this generator closes ``chunks``, which ends its fills.
    """
    buf = src = held = None

    def tile(i):
        nonlocal held
        t0 = i - i % len(buf)
        m = min(len(buf), n - t0)
        if held != t0:
            np.copyto(items[:m], src[t0:t0 + m])
            held = t0
        return t0, buf[:m]

    try:
        for k0, B in chunks:
            n_paths, n, width = B.shape
            if n_paths == 1 or width >= 8:
                whole = (0, B.transpose(1, 0, 2))
                yield k0, n, lambda i: whole
                continue
            if buf is None:
                size = max(1, min(n, _TILE_DOUBLES // max(1, n_paths * width)))
                buf = np.empty((size, n_paths, width), dtype=B.dtype)
                row = np.dtype((np.void, width * B.itemsize))
                items = buf.view(row)[..., 0]
            src, held = B.view(row)[..., 0].T, None  # (n, n_paths) items
            yield k0, n, tile
    finally:
        chunks.close()


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
    :meth:`drive`, which books the recorded steps itself.

    With ``keep_states`` (the default) a snapshot is a copy of the block
    into the (n_paths, n_records, d) snapshot array, which the consumer
    reduces after the run.  Without it no such array is allocated: the
    snapshots go to a buffer of at most ``_REDUCE_DOUBLES`` values (at least
    one record), and each full buffer is reduced to the three observables
    of its rows by one :func:`_observable_arrays` call, into a (3, n_paths,
    n_records) array.  The observables of a row do not depend on the block
    it sits in, so both give the same bits.  Only runs whose caller reads no
    state drop the block.  The others keep reducing after the run: running
    the bound and probe ensembles without the block left a larger heap to
    the runs that follow in one process (the record-every-step bound configs
    before a ball config; see the README's ensemble section for the
    measurements).

    :meth:`drive` tests for divergence once per segment, which is exact
    only where non-finite values are absorbing.  They are in
    :func:`kernel_mb_sgd`, :func:`kernel_pgd` and the diffusions: an affine
    step adds, subtracts and multiplies each entry with finite operands and
    terms of that entry alone (a constant volatility never reads the
    state), and the row loops (:func:`_rows`) give a non-finite row NaN.
    The epoch-end jumps of :func:`_epoch_loop` can copy a finite state over
    a non-finite one, so that loop tests every step.
    """

    def __init__(self, problem: FiniteSumProblem, n_steps: int, n_paths: int,
                 record_ks, psi=None, dt: float | None = None,
                 keep_states: bool = True):
        self.record_ks = record_steps(n_steps, record_ks=record_ks)
        n_rec, d = self.record_ks.size, problem.d
        self.problem = problem
        self.states = np.empty((n_paths, n_rec, d)) if keep_states else None
        self.observables = None if keep_states else np.empty((3, n_paths, n_rec))
        # (slots, n_paths, d) snapshots not yet reduced, from record _reduced on
        self._buffer = None if keep_states else np.empty(
            (max(1, min(n_rec, _REDUCE_DOUBLES // (n_paths * d))), n_paths, d))
        self._reduced = 0
        self.alive = np.ones(n_paths, dtype=bool)
        self.diverged = np.zeros(n_paths, dtype=bool)
        self.div_step = np.full(n_paths, -1)
        self.psi = None if psi is None else np.asarray(psi, dtype=float).tolist()
        self.dt = dt
        self.acc_f = np.zeros(n_paths)
        self.acc_g = np.zeros(n_paths)
        self.acc_w = 0.0
        self.wsum_f = np.zeros((n_paths, n_rec)) if psi is not None else None
        self.wsum_g = np.zeros((n_paths, n_rec)) if psi is not None else None
        self.wsum_w = np.zeros(n_rec) if psi is not None else None
        self._steps = self.record_ks.tolist() + [n_steps + 1]  # past the grid
        # _following[i]: the records after record i that are one step apart
        ks = self.record_ks
        ends = np.append(np.flatnonzero(np.diff(ks) != 1), n_rec - 1)
        self._following = (ends[np.searchsorted(ends, np.arange(n_rec))]
                           - np.arange(n_rec)).tolist()
        self._cursor = 0

    def start(self, x0) -> np.ndarray:
        """The block of n_paths copies of x0, recorded as step 0."""
        X = np.tile(np.asarray(x0, dtype=float).reshape(self.problem.d),
                    (self.alive.size, 1))
        self.record(0, X)
        return X

    def record(self, k: int, X: np.ndarray) -> None:
        """Flag, accumulate and (on the grid) record the block after step k."""
        # a finite sum implies finite entries; a sum that overflows on finite
        # entries falls through to the exact per-row test, which flags nothing
        if k and not math.isfinite(X.sum()):
            self._flag(k, X)
        if self.psi is not None:
            self._accumulate(k, X)
        i = self._cursor
        if k != self._steps[i]:
            return
        if self.states is not None:
            self.states[:, i, :] = X
        else:
            self._slots(1)[:, 0] = X
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

        ``chunks`` yields (k0, B) like :func:`_normal_chunks`, and the steps
        read them from the step-major tiles of :func:`_step_tiles`:
        ``advance(Z, k0, i0, i1, snaps=None)`` applies steps k0 + i0 to
        k0 + i1 - 1 to X in place, step k0 + i with the contiguous (n_paths,
        width) draws Z[i], and writes the state after each step into its
        slot of ``snaps``, given; a stretch of steps that crosses tiles is
        one ``advance`` call per tile.  Each chunk is stepped in segments
        that end at the next recorded step or at the chunk's end; with
        psi-weights every segment is one step, since the weighted sums take
        every step.  After a
        segment of several steps one sum tests the block; if a path still
        alive has turned non-finite, the block saved at the segment's start
        is restored and the segment replayed one step at a time, each step
        tested, so every flag is set at its step.  The replay repeats the
        same operations on the same values, and non-finite entries are
        absorbing in the recursions driven here (see the class docstring), so
        a segment with no new non-finite row at its end had none at any of
        its steps.  Closing the tiles, on the way out, ends the fills.

        Recorded steps that follow a recorded step are one dense segment (up
        to the chunk's end, or a full snapshot buffer): one ``advance`` call
        per tile writes each step's state into its snapshot slot, and the
        flags are read once, from the snapshots -- a path is new to
        non-finite values in the segment if its last snapshot is, and then
        it first was at its first non-finite snapshot.
        """
        weighted = self.psi is not None
        saved = np.empty_like(X)
        tiles = _step_tiles(chunks)

        def steps(tile, k0, i0, i1):
            while i0 < i1:
                t0, Z = tile(i0)
                j1 = min(i1, t0 + len(Z))
                advance(Z, k0 + t0, i0 - t0, j1 - t0)
                i0 = j1

        try:
            for k0, n, tile in tiles:
                i0 = 0
                while i0 < n:
                    due = self._steps[self._cursor]
                    i1 = i0 + 1 if weighted else min(n, due - k0)
                    if i1 - i0 > 1:
                        np.copyto(saved, X)
                        steps(tile, k0, i0, i1)
                        if (not math.isfinite(X.sum())
                                and np.any(self._newly_non_finite(X))):
                            np.copyto(X, saved)
                            for i in range(i0, i1):
                                steps(tile, k0, i, i + 1)
                                self.check(k0 + i + 1, X)
                    else:
                        steps(tile, k0, i0, i1)
                    k = k0 + i1
                    if weighted:
                        self.record(k, X)
                    elif k == due:
                        self.record(k, X)
                        i1 += self._dense(X, tile, k0, n, i1, advance)
                    else:
                        self.check(k, X)
                    i0 = i1
        finally:
            tiles.close()  # closes chunks too: also when a step raised

    def _dense(self, X: np.ndarray, tile, k0: int, n: int, i0: int,
               advance) -> int:
        """Step and record the run of recorded steps from k0 + i0 + 1 on.

        The run ends at the chunk's end (n steps) or a full buffer; each of
        its tiles is one ``advance`` call, with the run's snapshot slots in
        that tile as its target.  Returns the run's length.
        """
        m = min(n - i0, self._following[self._cursor - 1])
        if m == 0:
            return 0
        snaps = self._slots(m)
        m = snaps.shape[1]
        j = 0
        while j < m:
            t0, Z = tile(i0 + j)
            i, i1 = i0 + j - t0, min(len(Z), i0 + m - t0)
            advance(Z, k0 + t0, i, i1, snaps[:, j:j + i1 - i])
            j += i1 - i
        self._cursor += m
        last = snaps[:, m - 1]
        if not math.isfinite(last.sum()):
            bad = self._newly_non_finite(last)
            if np.any(bad):
                first = np.argmin(np.isfinite(snaps[bad]).all(axis=2), axis=1)
                self.diverged[bad] = True
                self.div_step[bad] = k0 + i0 + 1 + first
                self.alive &= ~bad
        return m

    def _slots(self, m: int) -> np.ndarray:
        """(n_paths, <= m, d) views of the snapshot slots from the cursor on.

        Without a state block a full buffer is reduced first, and the views
        end at the buffer's end.
        """
        i = self._cursor
        if self.states is not None:
            return self.states[:, i:i + m]
        j = i - self._reduced
        if j == len(self._buffer):
            self._reduce()
            j = 0
        return self._buffer[j:j + m].transpose(1, 0, 2)

    def _reduce(self) -> None:
        """Reduce the buffered snapshots to their observables, in one call."""
        i0, i1 = self._reduced, self._cursor
        if i1 > i0:
            buf = self._buffer[:i1 - i0]
            obs = _observable_arrays(self.problem, buf.reshape(-1, buf.shape[2]))
            self.observables[:, :, i0:i1] = np.reshape(
                obs, (3, i1 - i0, buf.shape[1])).transpose(0, 2, 1)
        self._reduced = i1

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
        f_gap, grad_sq, _ = _observable_arrays(self.problem, X)
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

    def finish(self, jump_period: int | None = None) -> KernelResult:
        assert self._cursor == self.record_ks.size, "missed a recording step"
        if self._buffer is not None:
            self._reduce()
        w = self.wsum_w
        return KernelResult(record_ks=self.record_ks, states=self.states,
                            diverged=self.diverged, divergence_step=self.div_step,
                            wsum_f_gap=self.wsum_f, wsum_grad_sq=self.wsum_g,
                            denominators=None if w is None
                            else np.where(w > 0, w, np.nan),
                            observables=self.observables,
                            jump_period=jump_period)


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


def _elementwise(problem: FiniteSumProblem, X: np.ndarray, noise,
                 factors: tuple, combine):
    """``advance`` for a step that sets each value of X from that value alone.

    Step k takes g = grad f(X) (:func:`_grad_block`, or X), multiplies it by
    each per-step table of ``factors`` at k, in order, and ends on
    ``combine(x, g, z)``, z the draws Z[i] or ``noise(Z[i], k)`` of the
    state before the step; its augmented assignments write the block in
    place and rebind a Python float.  Given ``snaps``, (n_paths, i1 - i0, d)
    slots, each step's state is written to its slot.

    A block of at most ``_NARROW_VALUES`` values, affine and with no noise
    call, steps each value's recursion on Python floats (the :func:`_grad_ops`
    pairs at the value's coordinate, the factors, ``combine``) in calls of
    more than two steps a value, reading X on entry and writing it on exit.
    Python's float +, - and * are separate, correctly rounded double
    operations, like NumPy's elementwise loops, so every bit is kept.  Other
    blocks and calls take one ufunc call per operation.
    """
    grad, G = _grad_block(problem), np.empty_like(X)

    def block(Z, k0, i0, i1, snaps=None):
        for i in range(i0, i1):
            k = k0 + i
            N = Z[i] if noise is None else noise(Z[i], k)
            g = X if grad is None else grad(X, G)
            for table in factors:
                g = np.multiply(g, table[k], G)
            combine(X, G, N)
            if snaps is not None:
                snaps[:, i - i0] = X

    if noise is not None or problem.affine is None or X.size > _NARROW_VALUES:
        return block
    # each value's gradient operations, with its coordinate of each operand
    value_ops = [[(_FLOAT_OPS[op], a if np.ndim(a) == 0 else float(a[c]))
                  for op, a in _grad_ops(problem)]
                 for c in range(problem.d)] * len(X)

    def narrow(Z, k0, i0, i1, snaps=None):
        if i1 - i0 <= 2 * X.size:  # see _NARROW_VALUES
            return block(Z, k0, i0, i1, snaps)
        tables = [table[k0 + i0:k0 + i1] for table in factors]
        draws = Z[i0:i1].reshape(i1 - i0, -1)
        states = np.empty(draws.shape)  # one value's floats alive at a time
        for v, (x, ops) in enumerate(zip(X.ravel().tolist(), value_ops)):
            path = []
            for fs, z in zip(zip(*tables), draws[:, v].tolist()):
                g = x
                for op, a in ops:
                    g = op(g, a)
                for f in fs:
                    g = g * f
                x = combine(x, g, z)
                path.append(x)
            states[:, v] = path
        X.flat = states[-1]
        if snaps is not None:
            snaps[...] = states.reshape(i1 - i0, *X.shape).transpose(1, 0, 2)
    return narrow


def _pgd_combine(x, g, z):
    """x <- (x - g) - z."""
    x -= g
    x -= z
    return x


def _em_combine(x, g, z):
    """x <- x + (g + z)."""
    g += z
    x += g
    return x


def kernel_mb_sgd(problem: FiniteSumProblem, adj: AdjustmentSchedule,
                  batch: BatchSchedule, x0, n_steps: int, gens,
                  record_ks, weights: bool = False,
                  keep_states: bool = True) -> KernelResult:
    """Vectorised mini-batch SGD: X <- X - eta_k G_MB(X, b_k), path by path.

    G_MB averages D[i] (x - x*) + C[i] over each path's b_k indices for an
    affine family, and the component gradients row by row otherwise.
    Driven in segments by :meth:`_BlockRecorder.drive`.
    """
    sizes = _batch_sizes(batch, n_steps, adj.h)
    eta, psi = _step_tables(adj, n_steps)
    rec = _BlockRecorder(problem, n_steps, len(gens), record_ks,
                         psi if weights else None, keep_states=keep_states)
    X = rec.start(x0)
    affine, x_star = problem.affine, problem.x_star

    def estimate(x, idx):
        return np.mean([problem.component_grad(int(i), x) for i in idx], axis=0)

    # a batch of one is its own mean: the mean over one index is left out
    single = affine is not None and max(sizes, default=1) == 1

    def advance(I, k0, i0, i1, snaps=None):
        for i in range(i0, i1):
            if single:
                idx = I[i, :, 0]
                G = affine.D[idx] * (X - x_star)
                G += affine.C[idx]
            elif affine is None:
                G = _rows(estimate, (problem.d,), X, I[i, :, :sizes[k0 + i]])
            else:
                idx = I[i, :, :sizes[k0 + i]]
                U = X - x_star
                G = (affine.D[idx] * U[:, None, :] + affine.C[idx]).mean(axis=1)
            G *= eta[k0 + i]
            np.subtract(X, G, X)
            if snaps is not None:
                snaps[:, i - i0] = X

    with np.errstate(over="ignore", invalid="ignore"):
        rec.drive(X, _index_chunks(gens, n_steps, problem.n_components, sizes),
                  advance)
    return rec.finish()


def kernel_pgd(problem: FiniteSumProblem, adj: AdjustmentSchedule,
               batch: BatchSchedule, x0, n_steps: int, gens, record_ks,
               volatility_mode: str = "exact",
               weights: bool = False,
               keep_states: bool = True) -> KernelResult:
    """Vectorised Gaussian surrogate of mini-batch SGD.

    X <- (X - eta_k grad f(X)) - coef_k sigma(X) z_k with coef_k =
    eta_k / sqrt(b_k), in place, less the exact identities of
    :func:`_grad_ops`.  sigma is the constant matrix of ``volatility_mode``
    where there is one, else the square root of ``sigma_mb`` row by row.
    Stepped by :func:`_elementwise`, driven in segments by
    :meth:`_BlockRecorder.drive`.
    """
    sig = _pgd_constant_sigma(problem, volatility_mode)
    eta, psi = _step_tables(adj, n_steps)
    coef = np.array(eta) / np.sqrt(_batch_sizes(batch, n_steps, adj.h))
    rec = _BlockRecorder(problem, n_steps, len(gens), record_ks,
                         psi if weights else None, keep_states=keep_states)
    X = rec.start(x0)
    noise, scales = _noise(problem, sig, X, None, coef)
    advance = _elementwise(problem, X, noise, (eta,), _pgd_combine)
    with np.errstate(over="ignore", invalid="ignore"):
        rec.drive(X, _normal_chunks(gens, n_steps, problem.d, scales), advance)
    return rec.finish()


def _kernel_em(problem: FiniteSumProblem, x0, dt: float, n_steps: int, gens,
               record_ks, drift_coef, vol_coef: np.ndarray,
               volatility_mode: str, node_psi: list | None,
               keep_states: bool = True) -> KernelResult:
    """Euler-Maruyama for dX = -c(t) grad f(X) dt + v(t) sigma(X) dB.

    ``drift_coef``/``vol_coef`` are the per-step scalars c(t_k), v(t_k);
    sigma is the constant matrix of ``volatility_mode`` where there is one,
    else the square root of ``sigma_mb`` row by row; ``node_psi`` (grid
    values of psi) switches on trapezoidal accumulation of the weighted
    observables.  The step is X <- X + (dt (-c_k grad f(X)) + sqrt(dt)
    (v_k sigma) z_k), in place, less the exact identities of
    :func:`_grad_ops`; when every c_k is 1.0 the two factors -c_k and dt
    fold into one -dt, exact since negation is.  Stepped by
    :func:`_elementwise`, driven in segments by :meth:`_BlockRecorder.drive`.
    """
    sigma_matrix = _pgd_constant_sigma(problem, volatility_mode)
    rec = _BlockRecorder(problem, n_steps, len(gens), record_ks, node_psi, dt,
                         keep_states)
    X = rec.start(x0)
    # g <- (-c_k g) dt as one factor -dt when every c_k is 1.0, else as the
    # factor -c_k followed by dt
    drift = np.asarray(drift_coef, dtype=float)
    factors = (([-dt] * n_steps,) if np.all(drift == 1.0)
               else ((-drift).tolist(), [dt] * n_steps))
    noise, scales = _noise(problem, sigma_matrix, X, vol_coef, np.sqrt(dt))
    advance = _elementwise(problem, X, noise, factors, _em_combine)
    with np.errstate(over="ignore", invalid="ignore"):
        rec.drive(X, _normal_chunks(gens, n_steps, problem.d, scales), advance)
    return rec.finish()


def kernel_mb_pgf(problem: FiniteSumProblem, adj: AdjustmentSchedule,
                  batch: BatchSchedule, x0, dt: float, n_steps: int, gens,
                  record_ks, volatility_mode: str = "exact",
                  weights: bool = False,
                  keep_states: bool = True) -> KernelResult:
    """Vectorised annealed gradient flow with mini-batch noise.

    The drift rate psi(t_k), the volatility psi(t_k) sqrt(h / b(t_k)) and
    the node weights all come from one table of psi on the grid.
    """
    psi = _psi_table(adj, n_steps, dt)
    vol_coef = psi[:n_steps] * np.sqrt(
        adj.h / _batch_values(batch, np.arange(n_steps) * dt))
    return _kernel_em(problem, x0, dt, n_steps, gens, record_ks,
                      psi[:n_steps], vol_coef, volatility_mode,
                      psi if weights else None, keep_states)


def kernel_time_changed(problem: FiniteSumProblem, adj: AdjustmentSchedule,
                        batch: BatchSchedule, x0, dt: float, n_steps: int,
                        gens, record_ks,
                        volatility_mode: str = "constant",
                        keep_states: bool = True) -> KernelResult:
    """Vectorised unwarped process: unit drift rate, decaying noise amplitude.

    The volatility sqrt(h psi(tau) / b(tau)) at tau = phi_inverse(k dt)
    takes one array call per schedule value.
    """
    warped = phi_inverse(adj, np.arange(n_steps) * dt)
    vol_coef = np.sqrt(adj.h * adj.psi(warped) / _batch_values(batch, warped))
    return _kernel_em(problem, x0, dt, n_steps, gens, record_ks,
                      np.ones(n_steps), vol_coef, volatility_mode,
                      node_psi=None, keep_states=keep_states)


def _epoch_jump(rec: _BlockRecorder, k: int, X, window, gens) -> np.ndarray:
    """The block after step k's epoch-end jump to uniformly drawn window states.

    The pre-jump state is tested first: a path that turns non-finite on its
    epoch's last step is flagged there, although it lands on a finite state.
    """
    rec.check(k, X)
    J = np.array([g.integers(0, window.shape[1]) for g in gens])
    return window[np.arange(len(gens)), J]


def _epoch_loop(problem: FiniteSumProblem, x0, gens, n_steps: int, q: int,
                record_ks, keep_states: bool, draw, epoch,
                jumps: bool = True) -> KernelResult:
    """The epochs of q steps of SVRG option II and its delay diffusion.

    Each epoch draws ``draw(g, n)`` per path for its n steps, and
    ``epoch(start)``, given the block at the epoch's start (SVRG's pivot,
    the diffusion's delayed state), returns its step (X, W[:, i]) -> X.
    The states before its steps fill the epoch window; with ``jumps`` a
    full epoch ends on :func:`_epoch_jump` to one of them, a partial last
    epoch on no jump.  Every step is recorded, so every step is tested.
    """
    rec = _BlockRecorder(problem, n_steps, len(gens), record_ks,
                         keep_states=keep_states)
    X = rec.start(x0)
    window = np.empty((len(gens), q, problem.d))
    with np.errstate(over="ignore", invalid="ignore"):
        for k0 in range(0, n_steps, q):
            n = min(q, n_steps - k0)
            W = np.array([draw(g, n) for g in gens])
            step = epoch(X.copy())
            for i in range(n):
                window[:, i] = X
                X = step(X, W[:, i])
                k = k0 + i + 1
                if jumps and i == q - 1:
                    X = _epoch_jump(rec, k, X, window, gens)
                rec.record(k, X)
    return rec.finish(jump_period=q if jumps else None)


def kernel_svrg(problem: FiniteSumProblem, h: float, epoch_steps: int,
                n_epochs: int, x0, gens, record_ks,
                keep_states: bool = True) -> KernelResult:
    """Vectorised SVRG with uniform epoch-end resampling (b = 1, psi = 1).

    Within an epoch X <- X - h G_VR(X, pivot), with the pivot frozen at the
    epoch's start; at its end each path restarts from a uniformly drawn
    state of its epoch window.  G_VR is D[i] (x - pivot) + grad f(pivot) for
    an affine family, and the component gradients row by row otherwise.
    """
    if epoch_steps < 1:
        raise ValueError("epoch_steps must be >= 1")
    affine = problem.affine

    def estimate(x, pivot, idx):
        return np.mean([problem.component_grad(int(i), x)
                        - problem.component_grad(int(i), pivot)
                        for i in idx], axis=0) + problem.grad(pivot)

    def epoch(pivot):
        if affine is None:
            return lambda X, I: X - h * _rows(estimate, (problem.d,), X, pivot,
                                              I[:, None])
        grad_pivot = (pivot - problem.x_star) * affine.d_mean + affine.c_mean
        return lambda X, I: X - h * (affine.D[I] * (X - pivot) + grad_pivot)

    return _epoch_loop(problem, x0, gens, epoch_steps * n_epochs, epoch_steps,
                       record_ks, keep_states,
                       lambda g, n: g.integers(0, problem.n_components, size=n),
                       epoch)


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
            step = (X if grad is None else grad(X, np.empty_like(X))) * -dt
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
                  with_jumps: bool = True,
                  keep_states: bool = True) -> KernelResult:
    """Vectorised variance-reduced delay diffusion.

    dX = -grad f(X) dt + sqrt(h) sigma_VR(X, X_del) dB, where X_del is the
    state at the current epoch's start; with ``with_jumps`` each full epoch
    ends on a uniformly drawn grid state of that epoch.  The volatility is the
    square root of ``sigma_vr`` row by row, in closed form for the
    two-component one-dimensional affine family (:func:`_vr_increment`).
    """
    increment = _vr_increment(problem, dt, staleness.h)
    return _epoch_loop(problem, x0, gens, n_steps, staleness.grid_steps(dt),
                       record_ks, keep_states,
                       lambda g, n: g.standard_normal((n, problem.d)),
                       lambda X_del: lambda X, Z: X + increment(X, X_del, Z),
                       jumps=with_jumps)
