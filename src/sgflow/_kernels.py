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
equivalence and its tolerance).

Kernels cover only the shapes the experiments hit: affine-gradient finite
sums, constant batch sizes, and constant state-volatility factors for the
diffusions (the variance-reduced delay kernel additionally requires the
two-component one-dimensional family).  Everything else falls back to the
plain per-path simulators.

Alongside the recorded states, kernels can accumulate the running
``psi``-weighted sums of the observables (prefix sums over iterates for the
discrete recursions, trapezoidal quadrature over the grid for the
diffusions); these are the empirical counterparts of the randomized-output
rate guarantees.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .discrete import _pgd_constant_sigma
from .problems import FiniteSumProblem
from .schedules import (
    AdjustmentSchedule,
    BatchSchedule,
    StalenessSchedule,
    phi_inverse,
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
                    batch: BatchSchedule | None) -> bool:
    """Whether the fast path can run this configuration.

    Discrete/diffusion kernels need an affine gradient family and a constant
    batch size; the mini-batch diffusions additionally need a constant
    covariance (or the constant-volatility mode, checked by the caller);
    the variance-reduced kernels need the two-component family (and d = 1
    for the delay equation, whose volatility is state-dependent).
    """
    if problem.affine is None:
        return False
    if batch is not None and batch.family != "constant":
        return False
    if mode in ("sgd", "pgd"):
        return True
    if mode in ("mb-pgf", "time-changed"):
        return problem.has_constant_mb_covariance
    if mode == "svrg":
        return True
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


def _check_record_ks(record_ks, n_steps: int) -> np.ndarray:
    ks = np.asarray(record_ks, dtype=int)
    if ks.ndim != 1 or ks.size == 0:
        raise ValueError("record_ks must be a non-empty 1-d index array")
    if np.any(np.diff(ks) <= 0):
        raise ValueError("record_ks must be strictly increasing")
    if ks[0] < 0 or ks[-1] > n_steps:
        raise ValueError(f"record_ks must lie within [0, {n_steps}]")
    return ks


def _normal_chunks(gens, n_steps: int, d: int):
    """Yield (k0, Z) with Z[p] the next chunk of N(0,1) steps for path p."""
    n_paths = len(gens)
    chunk = max(1, min(n_steps, _CHUNK_DOUBLES // max(1, n_paths * d)))
    k0 = 0
    while k0 < n_steps:
        size = min(chunk, n_steps - k0)
        Z = np.empty((n_paths, size, d))
        for p, g in enumerate(gens):
            Z[p] = g.standard_normal((size, d))
        yield k0, Z
        k0 += size


def _index_chunks(gens, n_steps: int, n_components: int, b: int):
    """Yield (k0, I) with I[p] the next chunk of batch index draws for path p."""
    n_paths = len(gens)
    chunk = max(1, min(n_steps, _CHUNK_DOUBLES // max(1, n_paths * b)))
    k0 = 0
    while k0 < n_steps:
        size = min(chunk, n_steps - k0)
        I = np.empty((n_paths, size, b), dtype=np.int64)
        for p, g in enumerate(gens):
            I[p] = g.integers(0, n_components, size=(size, b))
        yield k0, I
        k0 += size


class _BlockRecorder:
    """Snapshots the state block (and accumulators) at the requested steps."""

    def __init__(self, record_ks: np.ndarray, n_paths: int, d: int,
                 with_weights: bool):
        self.record_ks = record_ks
        self.states = np.empty((n_paths, record_ks.size, d))
        self.wsum_f = np.zeros((n_paths, record_ks.size)) if with_weights else None
        self.wsum_g = np.zeros((n_paths, record_ks.size)) if with_weights else None
        self._cursor = 0

    def record(self, k: int, X: np.ndarray,
               acc_f: np.ndarray | None = None,
               acc_g: np.ndarray | None = None) -> None:
        if self._cursor >= self.record_ks.size or k != self.record_ks[self._cursor]:
            return
        self.states[:, self._cursor, :] = X
        if self.wsum_f is not None:
            self.wsum_f[:, self._cursor] = acc_f
            self.wsum_g[:, self._cursor] = acc_g
        self._cursor += 1

    def finish(self, diverged: np.ndarray, div_step: np.ndarray) -> KernelResult:
        assert self._cursor == self.record_ks.size, "missed a recording step"
        return KernelResult(record_ks=self.record_ks, states=self.states,
                            diverged=diverged, divergence_step=div_step,
                            wsum_f_gap=self.wsum_f, wsum_grad_sq=self.wsum_g)


def _observable_rows(U: np.ndarray, d_mean: np.ndarray, c_mean: np.ndarray,
                     f_star: float):
    """(f_gap, grad_norm_sq) for a block of offsets U = X - x*."""
    G = U * d_mean + c_mean
    f_gap = 0.5 * np.einsum("pd,pd->p", U, U * d_mean) + U @ c_mean - f_star
    return f_gap, np.einsum("pd,pd->p", G, G)


def _mark_divergence(X, alive, diverged, div_step, k_next):
    # a finite sum implies finite entries; a sum that overflows on finite
    # entries falls through to the exact per-row test, which flags nothing
    if math.isfinite(X.sum()):
        return
    bad = alive & ~np.isfinite(X).all(axis=1)
    if np.any(bad):
        diverged[bad] = True
        div_step[bad] = k_next
        alive &= ~bad


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
    D, C, d_mean, c_mean = _affine_parts(problem)
    ks = _check_record_ks(record_ks, n_steps)
    n_paths = len(gens)
    b = batch.size_at_step(0, adj.h)
    eta, psi = _step_tables(adj, n_steps)
    X = np.tile(np.asarray(x0, dtype=float).reshape(problem.d), (n_paths, 1))
    rec = _BlockRecorder(ks, n_paths, problem.d, weights)
    alive = np.ones(n_paths, dtype=bool)
    diverged = np.zeros(n_paths, dtype=bool)
    div_step = np.full(n_paths, -1)
    acc_f = np.zeros(n_paths)
    acc_g = np.zeros(n_paths)

    def visit(k: int) -> None:
        if weights:
            f_gap, grad_sq = _observable_rows(X - problem.x_star, d_mean,
                                              c_mean, problem.constants.f_star)
            acc_f[alive] += psi[k] * f_gap[alive]
            acc_g[alive] += psi[k] * grad_sq[alive]
        rec.record(k, X, acc_f, acc_g)

    visit(0)
    with np.errstate(over="ignore", invalid="ignore"):
        for k0, I in _index_chunks(gens, n_steps, problem.n_components, b):
            for i in range(I.shape[1]):
                k = k0 + i
                idx = I[:, i, :]
                U = X - problem.x_star
                G = (D[idx] * U[:, None, :] + C[idx]).mean(axis=1)
                G *= eta[k]
                X -= G
                _mark_divergence(X, alive, diverged, div_step, k + 1)
                visit(k + 1)
    return rec.finish(diverged, div_step)


def kernel_pgd(problem: FiniteSumProblem, adj: AdjustmentSchedule,
               batch: BatchSchedule, x0, n_steps: int, gens, record_ks,
               volatility_mode: str = "exact",
               weights: bool = False) -> KernelResult:
    """Vectorised Gaussian surrogate with a constant volatility matrix."""
    _, _, d_mean, c_mean = _affine_parts(problem)
    sig = _pgd_constant_sigma(problem, volatility_mode)
    if sig is None:
        raise ValueError("kernel_pgd needs a constant-covariance family")
    ks = _check_record_ks(record_ks, n_steps)
    n_paths = len(gens)
    eta, psi = _step_tables(adj, n_steps)
    coef = np.array([adj.eta_k(k) / np.sqrt(batch.size_at_step(k, adj.h))
                     for k in range(n_steps)])
    X = np.tile(np.asarray(x0, dtype=float).reshape(problem.d), (n_paths, 1))
    rec = _BlockRecorder(ks, n_paths, problem.d, weights)
    alive = np.ones(n_paths, dtype=bool)
    diverged = np.zeros(n_paths, dtype=bool)
    div_step = np.full(n_paths, -1)
    acc_f = np.zeros(n_paths)
    acc_g = np.zeros(n_paths)

    def visit(k: int) -> None:
        if weights:
            f_gap, grad_sq = _observable_rows(X - problem.x_star, d_mean,
                                              c_mean, problem.constants.f_star)
            acc_f[alive] += psi[k] * f_gap[alive]
            acc_g[alive] += psi[k] * grad_sq[alive]
        rec.record(k, X, acc_f, acc_g)

    sig_scalar = _scalar_of(sig)
    x_star = problem.x_star
    G = np.empty_like(X)
    visit(0)
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
                _mark_divergence(X, alive, diverged, div_step, k + 1)
                visit(k + 1)
    return rec.finish(diverged, div_step)


def _kernel_em_constant(problem: FiniteSumProblem, x0, dt: float,
                        n_steps: int, gens, record_ks,
                        drift_coef: np.ndarray, vol_coef: np.ndarray,
                        sigma_matrix: np.ndarray,
                        node_psi: np.ndarray | None) -> KernelResult:
    """Euler-Maruyama for dX = -c(t) grad f(X) dt + v(t) sigma dB.

    ``drift_coef``/``vol_coef`` are the per-step scalars c(t_k), v(t_k);
    ``node_psi`` (grid values of psi) switches on trapezoidal accumulation of
    the weighted observables.
    """
    _, _, d_mean, c_mean = _affine_parts(problem)
    ks = _check_record_ks(record_ks, n_steps)
    n_paths = len(gens)
    weights = node_psi is not None
    X = np.tile(np.asarray(x0, dtype=float).reshape(problem.d), (n_paths, 1))
    rec = _BlockRecorder(ks, n_paths, problem.d, weights)
    alive = np.ones(n_paths, dtype=bool)
    diverged = np.zeros(n_paths, dtype=bool)
    div_step = np.full(n_paths, -1)
    acc_f = np.zeros(n_paths)
    acc_g = np.zeros(n_paths)
    prev_f = prev_g = None
    sqrt_dt = np.sqrt(dt)

    def visit(k: int) -> None:
        nonlocal prev_f, prev_g
        if weights:
            f_gap, grad_sq = _observable_rows(X - problem.x_star, d_mean,
                                              c_mean, problem.constants.f_star)
            wf, wg = node_psi[k] * f_gap, node_psi[k] * grad_sq
            if k > 0:
                acc_f[alive] += (0.5 * dt) * (prev_f + wf)[alive]
                acc_g[alive] += (0.5 * dt) * (prev_g + wg)[alive]
            prev_f, prev_g = wf, wg
        rec.record(k, X, acc_f, acc_g)

    sig_scalar = _scalar_of(sigma_matrix)
    drift = drift_coef.tolist()
    x_star = problem.x_star
    G = np.empty_like(X)
    visit(0)
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
                _mark_divergence(X, alive, diverged, div_step, k + 1)
                visit(k + 1)
    return rec.finish(diverged, div_step)


def kernel_mb_pgf(problem: FiniteSumProblem, adj: AdjustmentSchedule,
                  batch: BatchSchedule, x0, dt: float, n_steps: int, gens,
                  record_ks, volatility_mode: str = "exact",
                  weights: bool = False) -> KernelResult:
    """Vectorised annealed gradient flow with constant covariance factor."""
    sig = _pgd_constant_sigma(problem, volatility_mode)
    if sig is None:
        raise ValueError("kernel_mb_pgf needs a constant-covariance family")
    h = adj.h
    times = np.arange(n_steps) * dt
    drift_coef = np.array([adj.psi(t) for t in times])
    vol_coef = np.array([adj.psi(t) * np.sqrt(h / batch.value(t))
                         for t in times])
    node_psi = (np.array([adj.psi(k * dt) for k in range(n_steps + 1)])
                if weights else None)
    return _kernel_em_constant(problem, x0, dt, n_steps, gens, record_ks,
                               drift_coef, vol_coef, sig, node_psi)


def kernel_time_changed(problem: FiniteSumProblem, adj: AdjustmentSchedule,
                        batch: BatchSchedule, x0, dt: float, n_steps: int,
                        gens, record_ks,
                        volatility_mode: str = "constant") -> KernelResult:
    """Vectorised unwarped process: unit drift rate, decaying noise amplitude."""
    sig = _pgd_constant_sigma(problem, volatility_mode)
    if sig is None:
        raise ValueError("kernel_time_changed needs a constant-covariance family")
    h = adj.h
    vol_coef = np.empty(n_steps)
    for k in range(n_steps):
        warped = phi_inverse(adj, k * dt)
        vol_coef[k] = np.sqrt(h * adj.psi(warped) / batch.value(warped))
    drift_coef = np.ones(n_steps)
    return _kernel_em_constant(problem, x0, dt, n_steps, gens, record_ks,
                               drift_coef, vol_coef, sig, node_psi=None)


def kernel_svrg(problem: FiniteSumProblem, h: float, epoch_steps: int,
                n_epochs: int, x0, gens, record_ks) -> KernelResult:
    """Vectorised SVRG with uniform epoch-end resampling (affine, b = 1)."""
    D, C, d_mean, c_mean = _affine_parts(problem)
    m = epoch_steps
    n_steps = m * n_epochs
    ks = _check_record_ks(record_ks, n_steps)
    n_paths = len(gens)
    d = problem.d
    X = np.tile(np.asarray(x0, dtype=float).reshape(d), (n_paths, 1))
    rec = _BlockRecorder(ks, n_paths, d, with_weights=False)
    alive = np.ones(n_paths, dtype=bool)
    diverged = np.zeros(n_paths, dtype=bool)
    div_step = np.full(n_paths, -1)
    window = np.empty((n_paths, m, d))
    rows = np.arange(n_paths)
    rec.record(0, X)
    with np.errstate(over="ignore", invalid="ignore"):
        for j in range(n_epochs):
            pivot = X.copy()
            grad_pivot = (pivot - problem.x_star) * d_mean + c_mean
            I = np.empty((n_paths, m), dtype=np.int64)
            for p, g in enumerate(gens):
                I[p] = g.integers(0, problem.n_components, size=m)
            for i in range(m):
                window[:, i, :] = X
                G = D[I[:, i]] * (X - pivot) + grad_pivot
                X = X - h * G
                _mark_divergence(X, alive, diverged, div_step, j * m + i + 1)
                if i < m - 1:
                    rec.record(j * m + i + 1, X)
            J = np.empty(n_paths, dtype=np.int64)
            for p, g in enumerate(gens):
                J[p] = g.integers(0, m)
            X = window[rows, J, :].copy()
            rec.record((j + 1) * m, X)
    return rec.finish(diverged, div_step)


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
    ks = _check_record_ks(record_ks, n_steps)
    ratio = staleness.epoch_time / dt
    if abs(ratio - round(ratio)) > 1e-9 or round(ratio) < 1:
        raise ValueError("epoch time must be a positive multiple of dt")
    q = int(round(ratio))
    h = staleness.h
    n_paths = len(gens)
    x = np.tile(float(np.asarray(x0, dtype=float).reshape(1)[0]), n_paths)
    xs = float(problem.x_star[0])
    d0, d1 = float(D[0, 0]), float(D[1, 0])
    dm, cm = float(d_mean[0]), float(c_mean[0])
    rec = _BlockRecorder(ks, n_paths, 1, with_weights=False)
    alive = np.ones(n_paths, dtype=bool)
    diverged = np.zeros(n_paths, dtype=bool)
    div_step = np.full(n_paths, -1)
    window = np.empty((n_paths, q))
    rows = np.arange(n_paths)
    sqrt_dt = np.sqrt(dt)
    sqrt_h = np.sqrt(h)
    rec.record(0, x[:, None])
    # Noise must be drawn in epoch-sized blocks: the per-path stream
    # interleaves q normal increments with one jump draw per epoch.
    with np.errstate(over="ignore", invalid="ignore"):
        k0 = 0
        while k0 < n_steps:
            q_eff = min(q, n_steps - k0)
            Z = np.empty((n_paths, q_eff))
            for p, g in enumerate(gens):
                Z[p] = g.standard_normal(q_eff)
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
                    J = np.empty(n_paths, dtype=np.int64)
                    for p, g in enumerate(gens):
                        J[p] = g.integers(0, q)
                    x = window[rows, J].copy()
                _mark_divergence(x[:, None], alive, diverged, div_step, k + 1)
                rec.record(k + 1, x[:, None])
            k0 += q_eff
    return rec.finish(diverged, div_step)
