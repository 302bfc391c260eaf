"""Stochastic optimization loops: mini-batch SGD, its Gaussian surrogate, and SVRG.

All three walk the same schedule machinery (stepsize h·psi_k, batch b_k) and
record the observables every rate bound is stated in terms of: suboptimality
f(x_k) - f*, squared gradient norm and squared distance to the minimizer.
Runs are deterministic given a numpy Generator; ensembles derive independent
per-path generators from a master seed (see :mod:`sgflow.harness`).

Each simulator runs its path through the recursion's kernel in
:mod:`sgflow._kernels`, as ensembles do, and takes the observables of the
recorded states from the kernel's one reduction
(:func:`sgflow._kernels._observable_arrays`), so a path's observables are
the same bits on every CPU NumPy and OpenBLAS dispatch for.  Divergent paths
(non-finite iterates, e.g. from an inadmissible stepsize) are truncated and
flagged rather than raising, so an ensemble can report its divergence
fraction.
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
    those of the states under :func:`sgflow._kernels._observable_arrays`,
    the function ensembles reduce with.  For runs without an attached
    problem the observables are None.  ``jump_flags`` marks epoch-boundary
    resampling events where present.
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
    """Accumulates a path's states with an optional thinning stride.

    Records step indices divisible by ``record_every`` plus the final step;
    :meth:`finish` adds the observables when a problem is attached.
    """

    def __init__(self, problem: FiniteSumProblem | None, d: int, n_steps: int,
                 dt: float, record_every: int = 1, track_jumps: bool = False):
        self.problem = problem
        self._record_steps = idx = record_steps(n_steps, record_every)
        self.times = idx * dt
        self.states = np.empty((idx.size, d))
        self.jump_flags = np.zeros(idx.size, dtype=bool) if track_jumps else None
        self._cursor = 0
        self.divergence_step: int | None = None

    def record(self, k: int, x: np.ndarray, jumped: bool = False) -> None:
        i = self._cursor
        if i == self._record_steps.size or k != self._record_steps[i]:
            return
        self.states[i] = x
        if self.jump_flags is not None:
            self.jump_flags[i] = jumped
        self._cursor = i + 1

    def mark_divergence(self, k: int) -> None:
        self.divergence_step = k

    def finish(self) -> Trajectory:
        n = self._cursor
        states = self.states[:n]
        obs = ((None,) * 3 if self.problem is None
               else _kernels._observable_arrays(self.problem, states))
        return Trajectory(self.times[:n], states, *obs,
                          jump_flags=None if self.jump_flags is None
                          else self.jump_flags[:n],
                          diverged=self.divergence_step is not None,
                          divergence_step=self.divergence_step)


def _trajectory(problem: FiniteSumProblem, res: _kernels.KernelResult,
                dt: float) -> Trajectory:
    """The first path of a kernel run, ended before its divergence step.

    In a run with epoch-end jumps, the states at positive multiples of its
    ``jump_period`` are flagged as jumps.
    """
    ks = res.record_ks
    div = int(res.divergence_step[0]) if res.diverged[0] else None
    n = ks.size if div is None else int(np.searchsorted(ks, div))
    ks = ks[:n]
    q = res.jump_period
    return Trajectory(ks * dt, res.states[0, :n], *res.observables[:, 0, :n],
                      jump_flags=None if q is None else (ks > 0) & (ks % q == 0),
                      diverged=div is not None, divergence_step=div)


def run_mb_sgd(problem: FiniteSumProblem, adj: AdjustmentSchedule,
               batch: BatchSchedule, x0, n_steps: int,
               rng: np.random.Generator, record_every: int = 1) -> Trajectory:
    """Mini-batch SGD:  x_{k+1} = x_k - h psi_k G_MB(x_k, b_k).

    Draws are made ahead, so a run that diverges leaves ``rng`` further along
    than a per-step loop does; the states and ``divergence_step`` agree.
    """
    if n_steps < 1:
        raise ValueError("n_steps must be >= 1")
    res = _kernels.kernel_mb_sgd(problem, adj, batch, x0, n_steps, [rng],
                                 record_steps(n_steps, record_every))
    return _trajectory(problem, res, adj.h)


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

    Draws are made ahead, so a run that diverges leaves ``rng`` further along
    than a per-step loop does; the states and ``divergence_step`` agree.
    """
    if n_steps < 1:
        raise ValueError("n_steps must be >= 1")
    res = _kernels.kernel_pgd(problem, adj, batch, x0, n_steps, [rng],
                              record_steps(n_steps, record_every),
                              volatility_mode=volatility_mode)
    return _trajectory(problem, res, adj.h)


def run_svrg_option2(problem: FiniteSumProblem, h: float, epoch_steps: int,
                     n_epochs: int, x0, rng: np.random.Generator,
                     record_every: int = 1) -> Trajectory:
    """SVRG with uniform epoch-end resampling (option II), b = 1 and psi = 1.

    Within epoch j the pivot is frozen at the epoch-start iterate x_{jm};
    inner steps use the variance-reduced estimate x_{k+1} = x_k - h G_VR(x_k).
    At the epoch end, the next epoch's start is drawn uniformly from the m
    iterates {x_{jm}, ..., x_{jm+m-1}} — the window the contraction bound
    averages over.  Epoch-boundary states carry a jump flag.

    Draws are made ahead, so a run that diverges leaves ``rng`` further along
    than a per-step loop does; the states and ``divergence_step`` agree.
    """
    if epoch_steps < 1:
        raise ValueError("epoch_steps must be >= 1")
    if n_epochs < 1:
        raise ValueError("n_epochs must be >= 1")
    n_steps = epoch_steps * n_epochs
    res = _kernels.kernel_svrg(problem, h, epoch_steps, n_epochs, x0, [rng],
                               record_steps(n_steps, record_every))
    return _trajectory(problem, res, h)
