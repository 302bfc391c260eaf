"""The per-path step loops of the six simulators, kept as a test reference.

These are the simulators as they were before every recursion ran through
:mod:`sgflow._kernels`: one path, one Python step loop, per-step generator
draws, observables recorded row by row.  ``test_kernels``' parity tests, the
engine test in ``test_harness`` and the fingerprint printer compare the
kernels and the public simulators against them.  They use the package's
estimators, schedules, recorder and generic Euler-Maruyama integrator, so
they stay the reference for exactly the arithmetic the package states.
:func:`one_path_at_a_time` runs an ensemble's kernel one path at a time.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from sgflow._kernels import KernelResult, _pgd_constant_sigma
from sgflow.continuous import SdeSpec, euler_maruyama
from sgflow.discrete import Trajectory, _Recorder
from sgflow.estimators import mb_estimate, sigma_mb, sigma_vr, vr_estimate
from sgflow.problems import FiniteSumProblem
from sgflow.schedules import (
    AdjustmentSchedule,
    BatchSchedule,
    StalenessSchedule,
    phi_inverse,
)


def run_mb_sgd(problem: FiniteSumProblem, adj: AdjustmentSchedule,
               batch: BatchSchedule, x0, n_steps: int,
               rng: np.random.Generator, record_every: int = 1) -> Trajectory:
    """Mini-batch SGD:  x_{k+1} = x_k - h psi_k G_MB(x_k, b_k)."""
    if n_steps < 1:
        raise ValueError("n_steps must be >= 1")
    x = np.array(x0, dtype=float).reshape(problem.d)
    rec = _Recorder(problem, problem.d, n_steps, adj.h, record_every)
    rec.record(0, x)
    for k in range(n_steps):
        b_k = batch.size_at_step(k, adj.h)
        g = mb_estimate(problem, x, b_k, rng).value
        x = x - adj.eta_k(k) * g
        if not np.all(np.isfinite(x)):
            rec.mark_divergence(k + 1)
            break
        rec.record(k + 1, x)
    return rec.finish()


def run_pgd(problem: FiniteSumProblem, adj: AdjustmentSchedule,
            batch: BatchSchedule, x0, n_steps: int, rng: np.random.Generator,
            record_every: int = 1, volatility_mode: str = "exact") -> Trajectory:
    """Gaussian surrogate of mini-batch SGD.

    x_{k+1} = x_k - h psi_k grad f(x_k) - h psi_k / sqrt(b_k) · sigma(x_k) Z_k
    with Z_k standard normal, where sigma(x) is the principal square root of
    the one-sample covariance.
    """
    if n_steps < 1:
        raise ValueError("n_steps must be >= 1")
    x = np.array(x0, dtype=float).reshape(problem.d)
    sigma_const = _pgd_constant_sigma(problem, volatility_mode)
    rec = _Recorder(problem, problem.d, n_steps, adj.h, record_every)
    rec.record(0, x)
    for k in range(n_steps):
        b_k = batch.size_at_step(k, adj.h)
        eta = adj.eta_k(k)
        z = rng.standard_normal(problem.d)
        sig = sigma_const if sigma_const is not None else sigma_mb(problem, x).sqrt_matrix
        x = x - eta * problem.grad(x) - (eta / np.sqrt(b_k)) * (sig @ z)
        if not np.all(np.isfinite(x)):
            rec.mark_divergence(k + 1)
            break
        rec.record(k + 1, x)
    return rec.finish()


def run_svrg_option2(problem: FiniteSumProblem, h: float, epoch_steps: int,
                     n_epochs: int, x0, rng: np.random.Generator,
                     record_every: int = 1) -> Trajectory:
    """SVRG with uniform epoch-end resampling (option II), b = 1 and psi = 1."""
    if epoch_steps < 1:
        raise ValueError("epoch_steps must be >= 1")
    if n_epochs < 1:
        raise ValueError("n_epochs must be >= 1")
    m = epoch_steps
    x = np.array(x0, dtype=float).reshape(problem.d)
    n_steps = m * n_epochs
    rec = _Recorder(problem, problem.d, n_steps, h, record_every, track_jumps=True)
    rec.record(0, x)
    epoch_window = np.empty((m, problem.d))
    for j in range(n_epochs):
        pivot = x.copy()
        for i in range(m):
            epoch_window[i] = x
            g = vr_estimate(problem, x, pivot, 1, rng).value
            x = x - h * g
            if not np.all(np.isfinite(x)):
                rec.mark_divergence(j * m + i + 1)
                return rec.finish()
            if i < m - 1:
                rec.record(j * m + i + 1, x)
        x = epoch_window[rng.integers(0, m)].copy()
        rec.record((j + 1) * m, x, jumped=True)
    return rec.finish()


def _mb_volatility(problem: FiniteSumProblem, volatility_mode: str) -> Callable:
    """State part sigma(x) of the mini-batch volatility, exact or constant."""
    const = _pgd_constant_sigma(problem, volatility_mode)
    if const is not None:
        return lambda x: const
    return lambda x: sigma_mb(problem, x).sqrt_matrix


def simulate_mb_pgf(problem: FiniteSumProblem, adj: AdjustmentSchedule,
                    batch: BatchSchedule, x0, dt: float, T: float,
                    rng: np.random.Generator, volatility_mode: str = "exact",
                    record_every: int = 1) -> Trajectory:
    """dX = -psi(t) grad f(X) dt + psi(t) sqrt(h / b(t)) sigma(X) dB."""
    sig = _mb_volatility(problem, volatility_mode)
    h = adj.h

    def drift(x, t):
        return -adj.psi(t) * problem.grad(x)

    def volatility(x, t, _):
        return (adj.psi(t) * np.sqrt(h / batch.value(t))) * sig(x)

    spec = SdeSpec(drift=drift, volatility=volatility, x0=x0, dt=dt, T=T,
                   problem=problem)
    return euler_maruyama(spec, rng, record_every)


def simulate_vr_pgf(problem: FiniteSumProblem, staleness: StalenessSchedule,
                    x0, dt: float, T: float, rng: np.random.Generator,
                    with_jumps: bool = True, record_every: int = 1) -> Trajectory:
    """dX = -grad f(X) dt + sqrt(h) sigma_VR(X(t), X(t - xi(t))) dB."""
    h = staleness.h

    def drift(x, t):
        return -problem.grad(x)

    def volatility(x, t, x_delayed):
        return np.sqrt(h) * sigma_vr(problem, x, x_delayed).sqrt_matrix

    spec = SdeSpec(drift=drift, volatility=volatility, x0=x0, dt=dt, T=T,
                   delay=staleness, jump_rule="uniform_epoch" if with_jumps else None,
                   problem=problem)
    return euler_maruyama(spec, rng, record_every)


def simulate_time_changed(problem: FiniteSumProblem, adj: AdjustmentSchedule,
                          batch: BatchSchedule, x0, dt: float, T: float,
                          rng: np.random.Generator, volatility_mode: str = "constant",
                          record_every: int = 1) -> Trajectory:
    """dY = -grad f(Y) dt + sqrt(h psi(tau(t)) / b(tau(t))) sigma dB."""
    sig = _mb_volatility(problem, volatility_mode)
    h = adj.h

    def drift(y, t):
        return -problem.grad(y)

    def volatility(y, t, _):
        warped = phi_inverse(adj, t)
        return np.sqrt(h * adj.psi(warped) / batch.value(warped)) * sig(y)

    spec = SdeSpec(drift=drift, volatility=volatility, x0=x0, dt=dt, T=T,
                   problem=problem)
    return euler_maruyama(spec, rng, record_every)


def run_one_path(spec, rng: np.random.Generator,
                 record_every: int = 1) -> Trajectory:
    """One path of a ``harness.RunSpec`` through the reference loops."""
    if spec.mode == "sgd":
        return run_mb_sgd(spec.problem, spec.adj, spec.batch, spec.x0,
                          spec.n_steps, rng, record_every)
    if spec.mode == "pgd":
        return run_pgd(spec.problem, spec.adj, spec.batch, spec.x0,
                       spec.n_steps, rng, record_every,
                       volatility_mode=spec.volatility_mode)
    if spec.mode == "svrg":
        return run_svrg_option2(spec.problem, spec.h, spec.epoch_steps,
                                spec.n_epochs, spec.x0, rng, record_every)
    if spec.mode == "mb-pgf":
        return simulate_mb_pgf(spec.problem, spec.adj, spec.batch, spec.x0,
                               spec.dt, spec.T, rng,
                               volatility_mode=spec.volatility_mode,
                               record_every=record_every)
    if spec.mode == "vr-pgf":
        return simulate_vr_pgf(spec.problem, spec.staleness, spec.x0,
                               spec.dt, spec.T, rng, record_every=record_every)
    return simulate_time_changed(spec.problem, spec.adj, spec.batch, spec.x0,
                                 spec.dt, spec.T, rng,
                                 volatility_mode=spec.volatility_mode,
                                 record_every=record_every)


def one_path_at_a_time(dispatch):
    """``harness._kernel_dispatch`` run on one generator at a time.

    Every path runs alone, as the per-path simulators run it, and the
    one-path results are stacked into the result of the whole ensemble.
    """
    def run(spec, gens, ks, **kwargs):
        parts = [dispatch(spec, [g], ks, **kwargs) for g in gens]

        def stacked(name, axis=0):
            if getattr(parts[0], name) is None:
                return None
            return np.concatenate([getattr(part, name) for part in parts], axis)
        return KernelResult(ks, *(
            stacked(name) for name in ("states", "diverged", "divergence_step",
                                       "wsum_f_gap", "wsum_grad_sq")),
            denominators=parts[0].denominators,
            observables=stacked("observables", axis=1),
            jump_period=parts[0].jump_period)
    return run
