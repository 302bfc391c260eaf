"""Euler-Maruyama integration of the diffusion models behind the algorithms.

The generic integrator :func:`euler_maruyama` advances

    x_{k+1} = x_k + dt * drift(x_k, t_k) + sqrt(dt) * volatility(x_k, t_k) @ Z_k

with fresh standard-normal increments Z_k, for any :class:`SdeSpec`.  In
delay mode it integrates a delay equation whose lag is the sawtooth
staleness xi(t) = t mod T_epoch: the delayed state is always the most recent
epoch-start state, which lies exactly on the grid because T_epoch must be a
multiple of dt (no interpolation, by construction).  An optional jump rule
resamples the state at each epoch end uniformly from the grid states of the
finished epoch.

Three simulators run the paper's diffusions through their kernels in
:mod:`sgflow._kernels`, as ensembles do, on one path:

* :func:`simulate_mb_pgf` — annealed gradient flow with mini-batch volatility
  psi(t) sqrt(h/b(t)) sigma(x);
* :func:`simulate_vr_pgf` — variance-reduced flow, volatility
  sqrt(h) sigma_VR(x(t), x(t - xi(t))), with the epoch jumps of SVRG;
* :func:`simulate_time_changed` — the unwarped process Y with
  dY = -grad f(Y) dt + sqrt(h psi(tau(t))/b(tau(t))) sigma dB, which matches
  the annealed process X(tau(t)) in distribution.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import _kernels
from .discrete import Trajectory, _Recorder, _trajectory
# unused here; perfbench/layers.py traces the estimators under these names
from .estimators import sigma_mb, sigma_vr
from .problems import FiniteSumProblem
from .schedules import AdjustmentSchedule, BatchSchedule, StalenessSchedule, record_steps
from .schedules import phi_inverse  # unused here; traced under this name too

__all__ = [
    "SdeSpec",
    "euler_maruyama",
    "simulate_mb_pgf",
    "simulate_vr_pgf",
    "simulate_time_changed",
]


@dataclass
class SdeSpec:
    """A diffusion to integrate: drift/volatility fields, grid, optional delay.

    drift(x, t) returns a vector; volatility(x, t, x_delayed) returns a d×d
    matrix (x_delayed is None unless ``delay`` is set).  ``volatility=None``
    means a deterministic flow (no noise is drawn at all).  When ``delay`` is
    given, its epoch time must be a positive multiple of dt; ``jump_rule``
    may then be "uniform_epoch" to resample at epoch ends.  ``problem`` is
    only used to record observables.
    """

    drift: Callable[[np.ndarray, float], np.ndarray]
    volatility: Callable[[np.ndarray, float, np.ndarray | None], np.ndarray] | None
    x0: np.ndarray
    dt: float
    T: float
    delay: StalenessSchedule | None = None
    jump_rule: str | None = None
    problem: FiniteSumProblem | None = None

    def __post_init__(self) -> None:
        self.x0 = np.atleast_1d(np.asarray(self.x0, dtype=float))
        _grid_steps(self.dt, self.T)
        if self.jump_rule not in (None, "uniform_epoch"):
            raise ValueError(f"unknown jump rule {self.jump_rule!r}")
        if self.delay is not None:
            self.delay.grid_steps(self.dt)
        elif self.jump_rule is not None:
            raise ValueError("a jump rule needs a delay schedule (epochs)")

    @property
    def n_steps(self) -> int:
        return _grid_steps(self.dt, self.T)


def _grid_steps(dt: float, T: float) -> int:
    """The number of steps of size dt in the horizon T, once both are checked."""
    if not (dt > 0):
        raise ValueError("dt must be positive")
    if T < dt:
        raise ValueError("horizon T must be at least one step dt")
    return int(round(T / dt))


def euler_maruyama(spec: SdeSpec, rng: np.random.Generator,
                   record_every: int = 1) -> Trajectory:
    """Integrate an :class:`SdeSpec` to one sample path.

    Non-finite states truncate the path and set the divergence flag.  In delay
    mode the delayed lookup for t in [j·T_epoch, (j+1)·T_epoch) returns the
    stored state at j·T_epoch (pre-history is x0), and with the uniform jump
    rule the state at each epoch end is replaced by a uniformly drawn state of
    the finished epoch before integration continues.
    """
    d = spec.x0.size
    K = spec.n_steps
    rec = _Recorder(spec.problem, d, K, spec.dt, record_every,
                    track_jumps=spec.jump_rule is not None)
    x = spec.x0.copy()
    rec.record(0, x)
    q = None
    epoch_window = None
    if spec.delay is not None:
        q = spec.delay.grid_steps(spec.dt)
        epoch_window = np.empty((q, d))
    sqrt_dt = np.sqrt(spec.dt)
    for k in range(K):
        t = k * spec.dt
        x_delayed = None
        if q is not None:
            epoch_window[k % q] = x
            x_delayed = epoch_window[0]
        step = spec.dt * spec.drift(x, t)
        if spec.volatility is not None:
            z = rng.standard_normal(d)
            step = step + sqrt_dt * (spec.volatility(x, t, x_delayed) @ z)
        x = x + step
        jumped = False
        if q is not None and spec.jump_rule == "uniform_epoch" and (k + 1) % q == 0:
            x = epoch_window[rng.integers(0, q)].copy()
            jumped = True
        if not np.all(np.isfinite(x)):
            rec.mark_divergence(k + 1)
            break
        rec.record(k + 1, x, jumped=jumped)
    return rec.finish()


def simulate_mb_pgf(problem: FiniteSumProblem, adj: AdjustmentSchedule,
                    batch: BatchSchedule, x0, dt: float, T: float,
                    rng: np.random.Generator, volatility_mode: str = "exact",
                    record_every: int = 1) -> Trajectory:
    """Annealed gradient flow with mini-batch noise:

        dX = -psi(t) grad f(X) dt + psi(t) sqrt(h / b(t)) sigma(X) dB.

    The batch schedule enters unrounded.  dt should not exceed the stepsize h
    the model was derived from (the diffusion is the fine-grained limit).

    Draws are made ahead, so a run that diverges leaves ``rng`` further along
    than a per-step loop does; the states and ``divergence_step`` agree.
    """
    n_steps = _grid_steps(dt, T)
    res = _kernels.kernel_mb_pgf(problem, adj, batch, x0, dt, n_steps, [rng],
                                 record_steps(n_steps, record_every),
                                 volatility_mode=volatility_mode)
    return _trajectory(problem, res, dt, record_every)


def simulate_vr_pgf(problem: FiniteSumProblem, staleness: StalenessSchedule,
                    x0, dt: float, T: float, rng: np.random.Generator,
                    with_jumps: bool = True, record_every: int = 1) -> Trajectory:
    """Variance-reduced gradient flow (a delay equation):

        dX = -grad f(X) dt + sqrt(h) sigma_VR(X(t), X(t - xi(t))) dB,

    where the delayed argument is the current epoch's start state.  With
    ``with_jumps`` the epoch-end state is resampled uniformly from the epoch's
    grid states, as in the discrete algorithm.  Uses psi = 1 and b = 1 (the
    regime the variance-reduction guarantee covers).

    Draws are made ahead, so a run that diverges leaves ``rng`` further along
    than a per-step loop does; the states and ``divergence_step`` agree.
    """
    n_steps = _grid_steps(dt, T)
    res = _kernels.kernel_vr_pgf(problem, staleness, x0, dt, n_steps, [rng],
                                 record_steps(n_steps, record_every),
                                 with_jumps=with_jumps)
    q = staleness.grid_steps(dt)
    return _trajectory(problem, res, dt, record_every,
                       jump_every=q if with_jumps else None)


def simulate_time_changed(problem: FiniteSumProblem, adj: AdjustmentSchedule,
                          batch: BatchSchedule, x0, dt: float, T: float,
                          rng: np.random.Generator, volatility_mode: str = "constant",
                          record_every: int = 1) -> Trajectory:
    """The unwarped counterpart of the annealed flow:

        dY = -grad f(Y) dt + sqrt(h psi(tau(t)) / b(tau(t))) sigma dB,

    with tau the inverse of phi(t) = ∫ psi.  Y(t) has the law of X(tau(t)), so
    annealing is traded for a vanishing noise amplitude: with psi = 1/(1+t)
    and constant sigma the amplitude is sqrt(h) sigma e^{-t/2}.

    Draws are made ahead, so a run that diverges leaves ``rng`` further along
    than a per-step loop does; the states and ``divergence_step`` agree.
    """
    n_steps = _grid_steps(dt, T)
    res = _kernels.kernel_time_changed(problem, adj, batch, x0, dt, n_steps,
                                       [rng], record_steps(n_steps, record_every),
                                       volatility_mode=volatility_mode)
    return _trajectory(problem, res, dt, record_every)
