"""Stochastic optimization loops: mini-batch SGD, its Gaussian surrogate, and SVRG.

All three walk the same schedule machinery (stepsize h·psi_k, batch b_k) and
record the observables every rate bound is stated in terms of: suboptimality
f(x_k) - f*, squared gradient norm and squared distance to the minimizer.
Runs are deterministic given a numpy Generator; ensembles derive independent
per-path generators from a master seed (see :mod:`sgflow.harness`).

Each simulator runs its path through the recursion's kernel in
:mod:`sgflow._kernels`, as ensembles do, and replays the recorded states
through :class:`_Recorder` for the observables.  Divergent paths (non-finite
iterates, e.g. from an inadmissible stepsize) are truncated and flagged
rather than raising, so an ensemble can report its divergence fraction.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import _kernels
# unused here; perfbench/layers.py traces the estimators under these names
from .estimators import mb_estimate, sigma_mb, vr_estimate
from .problems import FiniteSumProblem
from .schedules import AdjustmentSchedule, BatchSchedule, record_steps

__all__ = ["Trajectory", "run_mb_sgd", "run_pgd", "run_svrg_option2"]


@dataclass
class Trajectory:
    """A recorded sample path on a strictly increasing time grid.

    ``states`` has one row per recorded time.  The observable arrays are
    recomputable from the states (and are spot-checked in the test suite).
    For runs without an attached problem the observables are None.
    ``jump_flags`` marks epoch-boundary resampling events where present.
    """

    times: np.ndarray
    states: np.ndarray
    f_gap: np.ndarray | None = None
    grad_norm_sq: np.ndarray | None = None
    dist_sq: np.ndarray | None = None
    jump_flags: np.ndarray | None = None
    diverged: bool = False
    divergence_step: int | None = None

    def __len__(self) -> int:
        return len(self.times)


class _Recorder:
    """Accumulates a trajectory with an optional thinning stride.

    Records step indices divisible by ``record_every`` plus the final step;
    computes observables from the problem when one is attached.
    """

    def __init__(self, problem: FiniteSumProblem | None, d: int, n_steps: int,
                 dt: float, record_every: int = 1, track_jumps: bool = False):
        self.problem = problem
        self.dt = dt
        self.record_every = record_every
        self._record_steps = idx = record_steps(n_steps, record_every)
        n_rec = idx.size
        self.times = idx * dt
        self.states = np.empty((n_rec, d))
        self.f_gap = np.empty(n_rec) if problem is not None else None
        self.grad_norm_sq = np.empty(n_rec) if problem is not None else None
        self.dist_sq = np.empty(n_rec) if problem is not None else None
        self.jump_flags = np.zeros(n_rec, dtype=bool) if track_jumps else None
        self._cursor = 0
        self._next_step = idx[0]
        self.diverged = False
        self.divergence_step: int | None = None

    def record(self, k: int, x: np.ndarray, jumped: bool = False) -> None:
        if self._cursor == self._record_steps.size or k != self._next_step:
            return
        i = self._cursor
        self.states[i] = x
        if self.problem is not None:
            g = self.problem.grad(x)
            self.f_gap[i] = self.problem.gap(x)
            self.grad_norm_sq[i] = float(g @ g)
            self.dist_sq[i] = float(np.sum((x - self.problem.x_star) ** 2))
        if self.jump_flags is not None:
            self.jump_flags[i] = jumped
        self._cursor += 1
        if self._cursor < self._record_steps.size:
            self._next_step = self._record_steps[self._cursor]

    def mark_divergence(self, k: int) -> None:
        self.diverged = True
        self.divergence_step = k

    def finish(self) -> Trajectory:
        n = self._cursor
        return Trajectory(
            times=self.times[:n], states=self.states[:n],
            f_gap=None if self.f_gap is None else self.f_gap[:n],
            grad_norm_sq=None if self.grad_norm_sq is None else self.grad_norm_sq[:n],
            dist_sq=None if self.dist_sq is None else self.dist_sq[:n],
            jump_flags=None if self.jump_flags is None else self.jump_flags[:n],
            diverged=self.diverged, divergence_step=self.divergence_step)


def _trajectory(problem: FiniteSumProblem, res: _kernels.KernelResult,
                dt: float, record_every: int,
                jump_every: int | None = None) -> Trajectory:
    """The first path of a kernel run, replayed through a :class:`_Recorder`.

    The recorder adds the observables, ends the path before its divergence
    step and, given ``jump_every``, flags the states at its positive
    multiples as epoch-end jumps.
    """
    ks = res.record_ks.tolist()
    rec = _Recorder(problem, problem.d, ks[-1], dt, record_every,
                    track_jumps=jump_every is not None)
    end = int(res.divergence_step[0]) if res.diverged[0] else ks[-1] + 1
    for k, x in zip(ks, res.states[0]):
        if k >= end:
            break
        rec.record(k, x, jumped=bool(jump_every) and k > 0 and k % jump_every == 0)
    if res.diverged[0]:
        rec.mark_divergence(end)
    return rec.finish()


def run_mb_sgd(problem: FiniteSumProblem, adj: AdjustmentSchedule,
               batch: BatchSchedule, x0, n_steps: int,
               rng: np.random.Generator, record_every: int = 1) -> Trajectory:
    """Mini-batch SGD:  x_{k+1} = x_k - h psi_k G_MB(x_k, b_k)."""
    if n_steps < 1:
        raise ValueError("n_steps must be >= 1")
    res = _kernels.kernel_mb_sgd(problem, adj, batch, x0, n_steps, [rng],
                                 record_steps(n_steps, record_every))
    return _trajectory(problem, res, adj.h, record_every)


def run_pgd(problem: FiniteSumProblem, adj: AdjustmentSchedule,
            batch: BatchSchedule, x0, n_steps: int, rng: np.random.Generator,
            record_every: int = 1, volatility_mode: str = "exact") -> Trajectory:
    """Gaussian surrogate of mini-batch SGD.

    x_{k+1} = x_k - h psi_k grad f(x_k) - h psi_k / sqrt(b_k) · sigma(x_k) Z_k
    with Z_k standard normal, where sigma(x) is the principal square root of
    the one-sample covariance.  The first two moments of each step match the
    sampled estimator exactly.

    volatility_mode="constant" replaces sigma(x) by sqrt(sigma_star_sq)·I
    (requires the constant to be declared); "exact" recomputes — or, for
    constant-covariance families, caches — the true matrix.
    """
    if n_steps < 1:
        raise ValueError("n_steps must be >= 1")
    res = _kernels.kernel_pgd(problem, adj, batch, x0, n_steps, [rng],
                              record_steps(n_steps, record_every),
                              volatility_mode=volatility_mode)
    return _trajectory(problem, res, adj.h, record_every)


def run_svrg_option2(problem: FiniteSumProblem, h: float, epoch_steps: int,
                     n_epochs: int, x0, rng: np.random.Generator,
                     record_every: int = 1) -> Trajectory:
    """SVRG with uniform epoch-end resampling (option II), b = 1 and psi = 1.

    Within epoch j the pivot is frozen at the epoch-start iterate x_{jm};
    inner steps use the variance-reduced estimate x_{k+1} = x_k - h G_VR(x_k).
    At the epoch end, the next epoch's start is drawn uniformly from the m
    iterates {x_{jm}, ..., x_{jm+m-1}} — the window the contraction bound
    averages over.  Epoch-boundary states carry a jump flag.
    """
    if epoch_steps < 1:
        raise ValueError("epoch_steps must be >= 1")
    if n_epochs < 1:
        raise ValueError("n_epochs must be >= 1")
    n_steps = epoch_steps * n_epochs
    res = _kernels.kernel_svrg(problem, h, epoch_steps, n_epochs, x0, [rng],
                               record_steps(n_steps, record_every))
    return _trajectory(problem, res, h, record_every, jump_every=epoch_steps)
