"""Monte-Carlo ensemble runner and the verification experiments.

``ensemble_run`` simulates many independent sample paths of any of the six
run modes (the three discrete recursions and the three diffusions), derives
every path's generator from one master seed, and aggregates the observables
into means, variances and standard errors on a shared record grid.  Every
ensemble runs on its mode's vectorised kernel (:mod:`sgflow._kernels`), the
one implementation of each recursion, which the per-path simulators run as
well; so a path's states are the simulator's for the same generator, and
results are deterministic functions of (config, seed).

On top of the runner sit the named experiments: rate-bound verification
(``verify_bound``), the time-change distribution match, landscape
stretching under the 1/(1+t) schedule, the weak-error order probe, the
convergence-ball level, and a Lyapunov supermartingale probe for
gradient-dominated runs.  Each returns a :class:`VerificationReport` with
per-checkpoint pass/fail detail; checks are one-sided against a bound plus
``slack_se`` standard errors, or two-sided within ``slack_se`` combined
standard errors for distribution matches.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from types import SimpleNamespace

import numpy as np

from . import _kernels, bounds
# ensemble_run reduces through this name, which perfbench/layers.py wraps
from ._kernels import _observable_arrays
from .bounds import (
    BoundInputs,
    RateBound,
    _equivalent_gradient_formula,
    ball_bound,
    equivalent_gradient_rhs,
    landscape_stretch_reference,
)
from .continuous import _grid_steps
# the six simulators are unused here; perfbench/layers.py wraps these names
from .continuous import simulate_mb_pgf, simulate_time_changed, simulate_vr_pgf
from .discrete import Trajectory, _trajectory, run_mb_sgd, run_pgd, run_svrg_option2
from .problems import FiniteSumProblem, ProblemConstants
from .schedules import (
    AdjustmentSchedule,
    BatchSchedule,
    StalenessSchedule,
    phi,
    phi_inverse,
    record_steps,
)

# the pl-probe integrates through bounds' one quadrature, by this name, which
# perfbench/layers.py wraps apart from bounds.quad
integrate = SimpleNamespace(quad=bounds.quad)

__all__ = [
    "EnsembleDivergenceError",
    "EnsembleStats",
    "RunSpec",
    "VerificationReport",
    "ensemble_run",
    "geometric_checkpoints",
    "verify_bound",
    "time_change_experiment",
    "landscape_stretch_experiment",
    "weak_error_experiment",
    "ball_experiment",
    "pl_supermartingale_probe",
]

_MODES = ("sgd", "pgd", "svrg", "mb-pgf", "vr-pgf", "time-changed")


class EnsembleDivergenceError(RuntimeError):
    """More than half of an ensemble's paths diverged."""


@dataclass
class EnsembleStats:
    """Cross-path statistics of the recorded observables on a shared grid.

    ``mean``/``variance`` map observable names to arrays over the grid:
    scalar observables ``f_gap``, ``grad_norm_sq``, ``dist_sq`` (shape
    (n_records,)), the per-coordinate ``state`` (shape (n_records, d)) unless
    the caller ran with ``keep_states=False`` (the ball experiment, which
    reads only ``f_gap``; see :func:`ensemble_run`), and —
    when the run requested weight tracking — ``f_gap_wavg`` and
    ``grad_norm_sq_wavg``, the running psi-weighted averages that the
    randomized-output guarantees bound.  ``n_paths`` counts the paths that
    entered the statistics; diverged paths are excluded and counted
    separately.  Standard error is sqrt(variance / n_paths) throughout.
    """

    grid: np.ndarray
    record_ks: np.ndarray
    n_paths: int
    divergence_count: int
    mean: dict = field(default_factory=dict)
    variance: dict = field(default_factory=dict)

    def se(self, key: str) -> np.ndarray:
        return np.sqrt(self.variance[key] / self.n_paths)


@dataclass
class RunSpec:
    """One simulation configuration, shared by every path of an ensemble.

    mode selects the recursion/diffusion; the schedule fields that apply
    depend on it (see ``__post_init__`` for the exact requirements).  With
    ``weights=True`` the run also tracks the running psi-weighted averages of
    f-gap and squared gradient norm (prefix sums for the discrete modes,
    trapezoidal time integrals for mb-pgf), which the randomized-output
    bounds are stated against.
    """

    mode: str
    problem: FiniteSumProblem
    x0: np.ndarray
    adj: AdjustmentSchedule | None = None
    batch: BatchSchedule | None = None
    n_steps: int | None = None
    dt: float | None = None
    T: float | None = None
    h: float | None = None                 # svrg stepsize (psi = 1 regime)
    epoch_steps: int | None = None         # svrg epoch length m
    n_epochs: int | None = None
    staleness: StalenessSchedule | None = None  # vr-pgf epoch clock
    volatility_mode: str | None = None
    record_every: int = 1
    record_ks: np.ndarray | None = None
    weights: bool = False

    def __post_init__(self) -> None:
        if self.mode not in _MODES:
            raise ValueError(f"unknown mode {self.mode!r}; expected one of {_MODES}")
        self.x0 = np.asarray(self.x0, dtype=float).reshape(self.problem.d)
        if self.batch is None:
            self.batch = BatchSchedule()
        if self.mode in ("sgd", "pgd"):
            if self.adj is None or self.n_steps is None:
                raise ValueError(f"mode {self.mode!r} needs adj and n_steps")
            if self.n_steps < 1:
                raise ValueError("n_steps must be >= 1")
        elif self.mode in ("mb-pgf", "time-changed"):
            if self.adj is None or self.dt is None or self.T is None:
                raise ValueError(f"mode {self.mode!r} needs adj, dt and T")
            _grid_steps(self.dt, self.T)
        elif self.mode == "svrg":
            if self.h is None or self.epoch_steps is None or self.n_epochs is None:
                raise ValueError("mode 'svrg' needs h, epoch_steps and n_epochs")
            for name in ("epoch_steps", "n_epochs"):
                if getattr(self, name) < 1:
                    raise ValueError(f"{name} must be >= 1")
        elif self.mode == "vr-pgf":
            if self.staleness is None or self.dt is None or self.T is None:
                raise ValueError("mode 'vr-pgf' needs staleness, dt and T")
            _grid_steps(self.dt, self.T)
            self.staleness.grid_steps(self.dt)
        if self.volatility_mode is None:
            self.volatility_mode = "constant" if self.mode == "time-changed" else "exact"
        if self.weights and self.mode in ("svrg", "vr-pgf", "time-changed"):
            raise ValueError(f"weighted averages are not defined for mode {self.mode!r}")

    @property
    def total_steps(self) -> int:
        if self.mode in ("sgd", "pgd"):
            return int(self.n_steps)
        if self.mode == "svrg":
            return self.epoch_steps * self.n_epochs
        return int(round(self.T / self.dt))

    @property
    def grid_spacing(self) -> float:
        if self.mode in ("sgd", "pgd"):
            return self.adj.h
        if self.mode == "svrg":
            return self.h
        return self.dt

    def resolved_record_ks(self) -> np.ndarray:
        return record_steps(self.total_steps, self.record_every, self.record_ks)


def _seed_sequence(seed) -> np.random.SeedSequence:
    """``seed`` (an int or a SeedSequence) as a SeedSequence."""
    return (seed if isinstance(seed, np.random.SeedSequence)
            else np.random.SeedSequence(seed))


def geometric_checkpoints(last: int, n_points: int = 30, start: int = 1) -> np.ndarray:
    """~n_points geometrically spaced integer checkpoints in [start, last]."""
    if n_points < 1:
        raise ValueError(f"n_checkpoints must be >= 1, got {n_points}")
    if last < start:
        raise ValueError(f"need last >= start, got [{start}, {last}]")
    raw = np.geomspace(start, last, n_points)
    return np.unique(np.round(raw).astype(int))


# -- ensemble runner ---------------------------------------------------------


def _run_one_path(spec: RunSpec, rng: np.random.Generator) -> Trajectory:
    """One path of the spec, recorded on its grid (``resolved_record_ks``).

    The ensemble's kernel run on one generator, replayed as the public
    simulators replay theirs, with epoch-end jumps flagged for svrg and
    vr-pgf.
    """
    res = _kernel_dispatch(spec, [rng], spec.resolved_record_ks())
    return _trajectory(spec.problem, res, spec.grid_spacing)


def _kernel_dispatch(spec: RunSpec, gens, ks: np.ndarray, *,
                     keep_states: bool = True) -> _kernels.KernelResult:
    """The spec's run on its mode's kernel, one path per generator.

    ``keep_states=False`` runs it without a state block: the result holds
    the recorded observables instead of the states.
    """
    if spec.mode == "sgd":
        return _kernels.kernel_mb_sgd(spec.problem, spec.adj, spec.batch,
                                      spec.x0, spec.n_steps, gens, ks,
                                      weights=spec.weights,
                                      keep_states=keep_states)
    if spec.mode == "pgd":
        return _kernels.kernel_pgd(spec.problem, spec.adj, spec.batch,
                                   spec.x0, spec.n_steps, gens, ks,
                                   volatility_mode=spec.volatility_mode,
                                   weights=spec.weights,
                                   keep_states=keep_states)
    if spec.mode == "mb-pgf":
        return _kernels.kernel_mb_pgf(spec.problem, spec.adj, spec.batch,
                                      spec.x0, spec.dt, spec.total_steps,
                                      gens, ks,
                                      volatility_mode=spec.volatility_mode,
                                      weights=spec.weights,
                                      keep_states=keep_states)
    if spec.mode == "time-changed":
        return _kernels.kernel_time_changed(spec.problem, spec.adj,
                                            spec.batch, spec.x0, spec.dt,
                                            spec.total_steps, gens, ks,
                                            volatility_mode=spec.volatility_mode,
                                            keep_states=keep_states)
    if spec.mode == "svrg":
        return _kernels.kernel_svrg(spec.problem, spec.h, spec.epoch_steps,
                                    spec.n_epochs, spec.x0, gens, ks,
                                    keep_states=keep_states)
    return _kernels.kernel_vr_pgf(spec.problem, spec.staleness, spec.x0,
                                  spec.dt, spec.total_steps, gens, ks,
                                  keep_states=keep_states)


def ensemble_run(spec: RunSpec, n_paths: int, master_seed, *,
                 keep_states: bool = True) -> EnsembleStats:
    """Simulate n_paths independent paths and aggregate their observables.

    Per-path generators are spawned from ``master_seed`` (an int or a
    numpy SeedSequence), so results are reproducible and independent of how
    the work is batched.  The mode's kernel runs every path
    (:func:`_kernel_dispatch`).  Paths that diverge are masked out of the statistics and
    counted; more than 50% divergence raises :class:`EnsembleDivergenceError`.

    With ``keep_states`` (the default) the kernel keeps the (n_paths,
    n_records, d) state block, the observables are computed once after the
    run, in chunks of whole paths, and the stats include the "state"
    moments.  A caller that reads no ``mean["state"]``/``variance["state"]``
    passes ``keep_states=False``: the kernel then reduces each snapshot to
    its observables as it records it, keeps no block, and the stats have no
    "state" key.  Every other statistic has the same bits either way.
    """
    if n_paths < 2:
        raise ValueError("an ensemble needs n_paths >= 2")
    ks = spec.resolved_record_ks()
    gens = [np.random.default_rng(child)
            for child in _seed_sequence(master_seed).spawn(n_paths)]
    result = _kernel_dispatch(spec, gens, ks, keep_states=keep_states)

    div_count = int(result.diverged.sum())
    if div_count * 2 > n_paths:
        raise EnsembleDivergenceError(
            f"{div_count}/{n_paths} paths diverged; the configuration is "
            "unstable (check the stepsize against the admissibility conditions)")
    n_alive = n_paths - div_count
    if n_alive < 2:
        raise EnsembleDivergenceError("fewer than two non-divergent paths")
    # a mask copies the whole block; all alive takes a view instead
    alive = ~result.diverged if div_count else slice(None)

    if keep_states:
        states = result.states[alive]
        n_rec, d = ks.size, spec.problem.d
        obs = np.empty((3, n_alive, n_rec))
        rows = max(1, _kernels._CHUNK_DOUBLES // 8 // (n_rec * d))
        for p0 in range(0, n_alive, rows):  # whole paths: each chunk is a view
            obs[:, p0:p0 + rows] = np.reshape(_observable_arrays(
                spec.problem, states[p0:p0 + rows].reshape(-1, d)), (3, -1, n_rec))
    else:
        obs = result.observables[:, alive]
    stats = EnsembleStats(grid=ks * spec.grid_spacing, record_ks=ks,
                          n_paths=n_alive, divergence_count=div_count)
    for key, block in zip(("f_gap", "grad_norm_sq", "dist_sq"), obs):
        stats.mean[key] = block.mean(axis=0)
        stats.variance[key] = block.var(axis=0, ddof=1)
    if keep_states:
        stats.mean["state"] = states.mean(axis=0)
        stats.variance["state"] = states.var(axis=0, ddof=1)
    if spec.weights:
        for key, wsum in (("f_gap_wavg", result.wsum_f_gap),
                          ("grad_norm_sq_wavg", result.wsum_grad_sq)):
            wavg = wsum[alive] / result.denominators
            stats.mean[key] = wavg.mean(axis=0)
            stats.variance[key] = wavg.var(axis=0, ddof=1)
    return stats


# -- reports -----------------------------------------------------------------


@dataclass
class VerificationReport:
    """Per-checkpoint outcome of one experiment.

    ``reference`` holds the bound (one-sided checks) or the target value
    (two-sided checks).  ``max_violation_se`` is the largest checkpoint
    violation: (empirical - reference)/SE for bound, pl-supermartingale and
    ball, which pass at <= slack_se; for time-change the larger of the
    mean and std violations, |Y - X|/SE; for landscape the error's ratio
    to its allowance; for weak-error |slope - 1|, with slack_se = 0.  Every
    report has at least one checkpoint, and passes when all of them do,
    unless the experiment's own verdict differs (time-change's pass
    fraction; landscape's ODE and slope conditions).  ``details`` carries
    experiment-specific extras (fitted slopes, error ratios, sub-reports).
    """

    experiment: str
    passed: bool
    checkpoints: np.ndarray
    empirical: np.ndarray
    reference: np.ndarray
    se: np.ndarray
    checkpoint_pass: np.ndarray
    slack_se: float
    max_violation_se: float
    n_paths: int
    runtime_seconds: float
    details: dict = field(default_factory=dict)

    def to_json_dict(self) -> dict:
        return {
            "experiment": self.experiment,
            "passed": bool(self.passed),
            "slack_se": float(self.slack_se),
            "max_violation_se": _json_clean(self.max_violation_se),
            "n_paths": int(self.n_paths),
            "runtime_seconds": float(self.runtime_seconds),
            "checkpoints": [
                {"at": _json_clean(c), "empirical": _json_clean(e),
                 "reference": _json_clean(r), "se": _json_clean(s),
                 "pass": bool(p)}
                for c, e, r, s, p in zip(self.checkpoints, self.empirical,
                                         self.reference, self.se,
                                         self.checkpoint_pass)
            ],
            "details": _json_clean(self.details),
        }


def _json_clean(v):
    """v with NumPy values, tuples and reports turned into JSON types.

    Non-finite floats become their repr ('inf', 'nan').
    """
    if isinstance(v, (np.floating, float)):
        f = float(v)
        return f if math.isfinite(f) else repr(f)
    if isinstance(v, (np.bool_, bool)):  # before int: bool is an int subclass
        return bool(v)
    if isinstance(v, (np.integer, int)):
        return int(v)
    if isinstance(v, np.ndarray):
        return [_json_clean(x) for x in v.tolist()]
    if isinstance(v, (list, tuple)):
        return [_json_clean(x) for x in v]
    if isinstance(v, dict):
        return {str(k): _json_clean(x) for k, x in v.items()}
    if isinstance(v, VerificationReport):
        return v.to_json_dict()
    return v


def _violations(empirical, reference, se, slack_se, two_sided=False):
    """Each checkpoint's (empirical - reference)/se, or its absolute value
    when two-sided, and whether it is at most slack_se."""
    emp = np.asarray(empirical, dtype=float)
    ref = np.asarray(reference, dtype=float)
    se = np.asarray(se, dtype=float)
    delta = np.abs(emp - ref) if two_sided else emp - ref
    with np.errstate(divide="ignore", invalid="ignore"):
        v = np.where(se > 0, delta / np.where(se > 0, se, 1.0),
                     np.where(delta <= 0, 0.0, np.inf))
    ok = (delta <= slack_se * se) | (delta <= 0)
    return v, ok


def _finish_report(experiment, checkpoints, empirical, reference, se,
                   violation, ok, slack_se, n_paths, t0, details,
                   passed=None) -> VerificationReport:
    """The report from each checkpoint's violation and flag, timed from t0;
    it passes when every flag is set, unless ``passed`` says otherwise."""
    if np.size(checkpoints) == 0:
        raise ValueError(f"the {experiment} check has no checkpoints")
    return VerificationReport(
        experiment=experiment, passed=bool(ok.all() if passed is None else passed),
        checkpoints=np.asarray(checkpoints), empirical=np.asarray(empirical, dtype=float),
        reference=np.asarray(reference, dtype=float), se=np.asarray(se, dtype=float),
        checkpoint_pass=ok, slack_se=slack_se,
        max_violation_se=float(np.max(violation)),
        n_paths=n_paths, runtime_seconds=time.perf_counter() - t0,
        details=details)


# -- bound verification ------------------------------------------------------


def _bound_positions(bound: RateBound, times, checkpoints=None,
                     n_checkpoints: int | None = None) -> tuple[np.ndarray, np.ndarray]:
    """The positions on the record ``times`` that :func:`verify_bound` checks,
    and the bound's point at each."""
    pos, where = bound.marks(times)
    if bound.point == "epoch":
        for name, given in (("checkpoints", checkpoints),
                            ("n_checkpoints", n_checkpoints)):
            if given is not None:
                raise ValueError(f"{bound.kind!r} is checked at every epoch mark "
                                 f"on the record grid and takes no {name}")
        return pos, where
    if checkpoints is None:
        pick = geometric_checkpoints(
            pos.size, 30 if n_checkpoints is None else n_checkpoints) - 1
    else:
        picked = np.asarray(checkpoints, dtype=int)
        if np.any((picked < 0) | (picked >= len(times))):
            raise ValueError("checkpoint positions outside the record grid")
        if not np.isin(picked, pos).all():
            raise ValueError("checkpoints must sit at positive times/steps on marks")
        pick = np.searchsorted(pos, picked)
    return pos[pick], where[pick]


def verify_bound(stats: EnsembleStats, bound: RateBound, slack_se: float = 3.0,
                 checkpoints: np.ndarray | None = None,
                 n_checkpoints: int | None = None) -> VerificationReport:
    """One-sided Monte-Carlo check of a rate guarantee at ``bound.marks``.

    Each checkpoint must satisfy mean <= ``bound.curve`` + slack_se * SE for
    the mean of ``bound.observable``.  The epoch kinds are checked at every
    mark and reject ``checkpoints`` and ``n_checkpoints``; the others at
    ~n_checkpoints (default 30) geometric marks, or at ``checkpoints``, stats
    grid positions on marks.
    """
    key = bound.observable
    if key not in stats.mean:
        raise ValueError(f"stats lack the {key!r} observable required by "
                         f"{bound.kind!r} (run with weights=True?)")
    t0 = time.perf_counter()
    pos, where = _bound_positions(bound, stats.grid, checkpoints, n_checkpoints)

    reference = bound.curve(where)
    empirical = stats.mean[key][pos]
    se = stats.se(key)[pos]
    v, ok = _violations(empirical, reference, se, slack_se)
    report = _finish_report(f"bound:{bound.kind}", where, empirical, reference,
                            se, v, ok, slack_se, stats.n_paths, t0,
                            {"observable": key})
    report.details["pass_fraction"] = float(ok.mean())
    return report


def _slope(x, y) -> float:
    """The least-squares slope of y on x: sum((x - x̄)(y - ȳ)) / sum((x - x̄)²).

    A closed form, not ``np.polyfit``: LAPACK's least-squares solve rounds
    differently under the CPU kernels OpenBLAS picks at run time.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    dx = x - x.mean()
    return float(np.sum(dx * (y - y.mean())) / np.sum(dx * dx))


# -- time change -------------------------------------------------------------


def time_change_experiment(problem: FiniteSumProblem, x0, h: float, T_w: float,
                           n_paths: int, seed, dt: float | None = None,
                           n_checkpoints: int = 30, slack_se: float = 3.0,
                           min_pass_fraction: float = 0.95) -> VerificationReport:
    """Distribution match between the annealed flow and its unwarped twin.

    Simulates X under the 1/(1+t)-annealed flow on [0, tau(T_w)] and Y under
    the constant-drift flow with decaying noise on [0, T_w], with independent
    noise, and compares mean and standard deviation of the state at warped
    checkpoints: Y(t) should equal X(tau(t)) in law.  A checkpoint passes
    when both moments agree within slack_se combined standard errors; the
    experiment passes when at least ``min_pass_fraction`` of checkpoints do.
    """
    if problem.constants.sigma_star_sq is None:
        raise ValueError("the time-change experiment runs in constant-volatility "
                         "mode and needs a declared sigma_star_sq")
    x0 = np.asarray(x0, dtype=float)
    t0 = time.perf_counter()
    adj = AdjustmentSchedule(h=h, family="power", a=1.0)
    dt = h if dt is None else dt
    if not dt > 0:
        raise ValueError(f"dt must be positive, got {dt}")
    T_x = float(phi_inverse(adj, T_w))
    n_x = int(math.ceil(T_x / dt))
    n_y = int(math.ceil(T_w / dt))

    warped_pos = geometric_checkpoints(n_y, n_checkpoints, start=1)
    s_times = warped_pos * dt
    x_pos = np.round(phi_inverse(adj, s_times) / dt).astype(int)
    x_pos = np.minimum(np.maximum(x_pos, 1), n_x)
    x_ks = np.unique(x_pos)
    y_ks = warped_pos

    seed_x, seed_y = _seed_sequence(seed).spawn(2)
    spec_x = RunSpec(mode="mb-pgf", problem=problem, x0=x0, adj=adj, dt=dt,
                     T=n_x * dt, record_ks=x_ks, volatility_mode="constant")
    spec_y = RunSpec(mode="time-changed", problem=problem, x0=x0, adj=adj,
                     dt=dt, T=n_y * dt, record_ks=y_ks,
                     volatility_mode="constant")
    stats_x = ensemble_run(spec_x, n_paths, seed_x)
    stats_y = ensemble_run(spec_y, n_paths, seed_y)

    lookup = {k: i for i, k in enumerate(x_ks)}
    sel = np.array([lookup[k] for k in x_pos])
    mean_x = stats_x.mean["state"][sel]          # (n_cp, d)
    mean_y = stats_y.mean["state"]
    var_x = stats_x.variance["state"][sel]
    var_y = stats_y.variance["state"]
    n_x_paths, n_y_paths = stats_x.n_paths, stats_y.n_paths

    se_mean = np.sqrt(var_x / n_x_paths + var_y / n_y_paths)
    std_x, std_y = np.sqrt(var_x), np.sqrt(var_y)
    # large-sample SE of a sample standard deviation: sd / sqrt(2 (n - 1))
    se_std = np.sqrt(std_x ** 2 / (2 * (n_x_paths - 1))
                     + std_y ** 2 / (2 * (n_y_paths - 1)))
    v_mean, ok_mean = _violations(mean_y, mean_x, se_mean, slack_se, two_sided=True)
    v_std, ok_std = _violations(std_y, std_x, se_std, slack_se, two_sided=True)
    ok = (ok_mean & ok_std).all(axis=1)
    frac = float(ok.mean())
    details = {
        "pass_fraction": frac,
        "min_pass_fraction": min_pass_fraction,
        "warped_horizon": T_w,
        "unwarped_horizon": T_x,
        "mean_x": mean_x, "mean_y": mean_y,
        "std_x": std_x, "std_y": std_y,
        "std_violation_se": v_std,
    }
    return _finish_report("time-change", s_times, mean_y[:, 0], mean_x[:, 0],
                          se_mean[:, 0], np.maximum(v_mean, v_std), ok,
                          slack_se, min(n_x_paths, n_y_paths), t0, details,
                          passed=frac >= min_pass_fraction)


# -- landscape stretching ----------------------------------------------------


def landscape_stretch_experiment(lambda_vec, x0, dt: float, T: float,
                                 n_paths: int = 1, seed=0, sigma: float = 0.0,
                                 slack_se: float = 3.0, tol_mult: float = 5.0,
                                 slope_tol: float = 0.02,
                                 n_checkpoints: int = 30) -> VerificationReport:
    """Closed-form check of the 1/(1+t) schedule on a diagonal quadratic.

    Each coordinate of the annealed flow should follow (1+t)^(-lambda_i)
    x0_i — a power law whose exponent is the local curvature, saddle
    directions (lambda_i < 0) included.  Deterministic runs (sigma = 0)
    are compared pathwise with an O(dt) tolerance (tol_mult * dt * |x0|);
    noisy runs compare the ensemble mean within slack_se standard errors
    plus the same discretization allowance.  The autonomous
    equivalent-gradient ODE — plain gradient flow on the stretched
    landscape — is Euler-integrated on the same grid and must reproduce the
    same curves, and each nonzero coordinate's slope of log|u| against
    log(1+t) over the late segment must match -lambda_i within slope_tol.
    """
    lam = np.asarray(lambda_vec, dtype=float)
    x0 = np.asarray(x0, dtype=float)
    if lam.shape != x0.shape or lam.ndim != 1:
        raise ValueError("lambda_vec and x0 must be 1-d arrays of equal length")
    d = lam.size
    t0_clock = time.perf_counter()
    L = float(np.max(np.abs(lam)))
    if L <= 0:
        raise ValueError("at least one lambda must be nonzero")
    constants = ProblemConstants(L=L, sigma_star_sq=float(sigma) ** 2)
    problem = FiniteSumProblem.from_affine(
        D=lam[None, :], C=np.zeros((1, d)), x_star=np.zeros(d),
        constants=constants)
    adj = AdjustmentSchedule(h=1.0, family="power", a=1.0)
    n_steps = _grid_steps(dt, T)

    spec = RunSpec(mode="mb-pgf", problem=problem, x0=x0, adj=adj, dt=dt,
                   T=n_steps * dt, volatility_mode="constant")
    if sigma == 0.0:  # one deterministic path
        ks = spec.resolved_record_ks()
        mean_states = _kernel_dispatch(spec, [np.random.default_rng(0)],
                                       ks).states[0]
        se_states = np.zeros_like(mean_states)
        times = ks * dt
        n_used = 1
    else:
        stats = ensemble_run(spec, n_paths, seed)
        mean_states = stats.mean["state"]
        se_states = np.sqrt(stats.variance["state"] / stats.n_paths)
        times = stats.grid
        n_used = stats.n_paths

    ref = np.stack([landscape_stretch_reference(lam[i], x0[i], times)
                    for i in range(d)], axis=1)
    tol = tol_mult * dt * float(np.linalg.norm(x0))

    # autonomous equivalent-gradient ODE, Euler on the same grid, stepped on
    # Python floats one coordinate at a time; every coordinate takes
    # u + dt du, also where du = 0, so a -0.0 start turns +0.0 as it would
    # in an array update
    ode = np.empty((n_steps + 1, d))
    ode[0] = x0
    for i, (lam_i, u0_i) in enumerate(zip(lam.tolist(), x0.tolist())):
        if lam_i == 0.0 or u0_i == 0.0:
            ode[1:, i] = u0_i + dt * 0.0
            continue
        # the first step checks lam and u0; the others take the formula
        u = u0_i + dt * equivalent_gradient_rhs(lam_i, u0_i, u0_i)
        column = [u]
        for _ in range(n_steps - 1):
            u = u + dt * _equivalent_gradient_formula(lam_i, u0_i, u)
            column.append(u)
        ode[1:, i] = column
    ode_err = float(np.abs(ode - np.stack(
        [landscape_stretch_reference(lam[i], x0[i], np.arange(n_steps + 1) * dt)
         for i in range(d)], axis=1)).max())

    cp = geometric_checkpoints(len(times) - 1, n_checkpoints, start=1)
    emp = np.abs(mean_states - ref).max(axis=1)[cp]
    allowance = tol + slack_se * np.abs(se_states).max(axis=1)[cp]

    slopes = {}
    slope_ok = True
    fit_mask = times >= max(1.0, T / 10.0)
    if fit_mask.sum() >= 2:
        for i in range(d):
            if x0[i] == 0.0:
                continue
            y = np.abs(mean_states[fit_mask, i])
            if np.any(y <= 0):
                continue
            slope = _slope(np.log1p(times[fit_mask]), np.log(y))
            slopes[f"coord_{i}"] = slope
            if abs(slope + lam[i]) > slope_tol:
                slope_ok = False

    v, ok = _violations(emp, 0.0, allowance, 1.0)
    details = {
        "max_error_vs_closed_form": float(np.abs(mean_states - ref).max()),
        "max_error_ode_vs_closed_form": ode_err,
        "tolerance": tol,
        "slopes": slopes,
        "slope_tolerance": slope_tol,
        "slope_ok": slope_ok,
        "sigma": sigma,
    }
    return _finish_report("landscape", times[cp], emp, allowance,
                          np.abs(se_states).max(axis=1)[cp], v, ok, slack_se,
                          n_used, t0_clock, details,
                          passed=ok.all() and ode_err <= tol and slope_ok)


# -- weak error --------------------------------------------------------------


def weak_error_experiment(problem: FiniteSumProblem, h_list, T: float,
                          n_paths: int, seed, x0,
                          slope_range=(0.7, 1.3)) -> VerificationReport:
    """Order-1 weak-error probe of the diffusion model of mini-batch SGD.

    For each stepsize h the mean of the final SGD iterate is compared with
    the analytic mean of the flow, E[X(T)] = x* + e^{-HT}(x0 - x*): the
    log-log slope of the error against h must land in ``slope_range``, i.e.
    near the first-order guarantee.  Error ratios at successive stepsizes
    are reported alongside.
    """
    if problem.affine is None or np.any(problem.affine.c_mean != 0.0):
        raise ValueError("the weak-error probe needs an affine family with "
                         "mean-zero gradient noise (analytic mean available)")
    h_list = [float(h) for h in h_list]
    if len(h_list) < 2:
        raise ValueError("need at least two stepsizes to fit a slope")
    x0 = np.asarray(x0, dtype=float)
    t0 = time.perf_counter()
    d_mean = problem.affine.d_mean
    analytic = problem.x_star + np.exp(-d_mean * T) * (x0 - problem.x_star)

    children = _seed_sequence(seed).spawn(len(h_list))
    errors, ses, n_used = [], [], n_paths
    for h, child in zip(h_list, children):
        K = round(T / h)
        if abs(K * h - T) > 1e-9 * T:
            raise ValueError(f"horizon T={T} is not a multiple of h={h}")
        adj = AdjustmentSchedule(h=h)
        spec = RunSpec(mode="sgd", problem=problem, x0=x0, adj=adj,
                       n_steps=K, record_ks=np.array([0, K]))
        stats = ensemble_run(spec, n_paths, child)
        n_used = min(n_used, stats.n_paths)
        diff = stats.mean["state"][-1] - analytic
        errors.append(float(np.linalg.norm(diff)))
        ses.append(float(np.sqrt(np.sum(stats.variance["state"][-1]
                                        / stats.n_paths))))
    errors = np.asarray(errors)
    ses = np.asarray(ses)
    if np.all(errors == 0):
        slope = 1.0
        ratios = np.full(len(h_list) - 1, 2.0)
        passed = True
    else:
        slope = _slope(np.log(h_list), np.log(errors))
        ratios = errors[:-1] / errors[1:]
        passed = slope_range[0] <= slope <= slope_range[1]
    details = {
        "h_list": h_list,
        "slope": slope,
        "slope_range": list(slope_range),
        "error_ratios": ratios,
        "analytic_mean": analytic,
    }
    return _finish_report("weak-error", h_list, errors, errors, ses,
                          [abs(slope - 1.0)], np.full(len(h_list), passed),
                          0.0, n_used, t0, details)


# -- convergence ball --------------------------------------------------------


def ball_experiment(problem: FiniteSumProblem, h: float, b: int, dt: float,
                    T_long: float, n_paths: int, seed, mode: str,
                    tail_fraction: float = 0.5, slack_se: float = 3.0,
                    isotropic_rel_tol: float = 0.10,
                    x0=None) -> VerificationReport:
    """Stationary noise-floor check against the convergence-ball level.

    Runs the constant-schedule dynamics well past the mixing time, averages
    E[f - f*] over the tail ``tail_fraction`` of the horizon, and requires
    the average not to exceed the ball bound (h d L sigma*^2 / (4 mu b)
    continuous, twice that discrete) plus slack.  For an isotropic
    constant-covariance problem in continuous mode the level is exact
    (h d sigma*^2 / 4b at mu = L) and the tail must also match it within
    ``isotropic_rel_tol`` relative.
    """
    c = problem.constants
    if c.mu_pl is None:
        raise ValueError("the ball experiment needs the gradient-domination constant")
    if T_long < 5.0 / c.mu_pl:
        raise ValueError(f"T_long={T_long} is below the mixing horizon "
                         f"5/mu={5.0 / c.mu_pl}")
    if mode not in ("continuous", "discrete"):
        raise ValueError(f"unknown mode {mode!r}")
    t0 = time.perf_counter()
    adj = AdjustmentSchedule(h=h)
    batch = BatchSchedule(b=b)
    x0 = problem.x_star.copy() if x0 is None else np.asarray(x0, dtype=float)

    if mode == "continuous":
        n_steps = _grid_steps(dt, T_long)
        spacing = dt
        spec = RunSpec(mode="mb-pgf", problem=problem, x0=x0, adj=adj,
                       batch=batch, dt=dt, T=n_steps * dt)
    else:
        n_steps = int(round(T_long / h))
        spacing = h
        spec = RunSpec(mode="pgd", problem=problem, x0=x0, adj=adj,
                       batch=batch, n_steps=n_steps)
    stride = max(1, n_steps // 512)
    spec.record_every = stride
    stats = ensemble_run(spec, n_paths, seed, keep_states=False)

    tail_mask = stats.grid >= (1.0 - tail_fraction) * n_steps * spacing
    if tail_mask.sum() < 2:
        raise ValueError("tail window too small; lower tail_fraction or raise T_long")
    inputs = BoundInputs.from_problem(problem, x0, adj, batch)
    bound = ball_bound(inputs, mode)
    tail_mean = float(stats.mean["f_gap"][tail_mask].mean())
    # SE of the time average: variance of the per-time means shrinks with
    # path count; use the average of the pointwise variances (conservative
    # versus assuming independence across tail times).
    tail_se = float(np.sqrt(stats.variance["f_gap"][tail_mask].mean()
                            / stats.n_paths))

    details = {"tail_mean": tail_mean, "ball_bound": bound,
               "tail_window_start": float((1.0 - tail_fraction) * n_steps * spacing),
               "mode": mode}
    exact_ok = True
    if (mode == "continuous" and problem.has_constant_mb_covariance
            and c.sigma_star_sq is not None and c.mu_pl == c.L):
        exact_level = h * problem.d * c.sigma_star_sq / (4.0 * b)
        rel_err = abs(tail_mean - exact_level) / exact_level if exact_level else 0.0
        exact_ok = rel_err <= isotropic_rel_tol
        details.update({"exact_level": exact_level, "relative_error": rel_err,
                        "relative_tolerance": isotropic_rel_tol})

    v, ok = _violations([tail_mean], [bound], [tail_se], slack_se)
    return _finish_report("ball", [n_steps * spacing], [tail_mean], [bound],
                          [tail_se], v, ok & exact_ok, slack_se, stats.n_paths,
                          t0, details)


# -- Lyapunov probe ----------------------------------------------------------


def pl_supermartingale_probe(problem: FiniteSumProblem, adj: AdjustmentSchedule,
                             batch: BatchSchedule, x0, dt: float, T: float,
                             n_paths: int, seed, slack_se: float = 3.0,
                             n_checkpoints: int = 12) -> VerificationReport:
    """Increment check of the gradient-domination energy e^{2 mu phi(t)} (f - f*).

    Along the annealed flow the mean energy may only grow by the injected
    noise, (h d L sigma*^2 / 2) int e^{2 mu phi(s)} psi(s)^2 / b(s) ds per
    interval; each grid increment of the empirical mean energy must stay
    within that allowance plus slack.  Horizons must keep 2 mu phi(T)
    moderate — the energy is evaluated literally.
    """
    c = problem.constants
    if c.mu_pl is None:
        raise ValueError("the probe needs the gradient-domination constant")
    mu = c.mu_pl
    if 2.0 * mu * float(phi(adj, T)) > 600.0:
        raise ValueError("2 mu phi(T) too large; the energy would overflow")
    t0 = time.perf_counter()
    n_steps = _grid_steps(dt, T)
    cp = geometric_checkpoints(n_steps, n_checkpoints, start=1)
    cp = np.concatenate(([0], cp))
    spec = RunSpec(mode="mb-pgf", problem=problem, x0=x0, adj=adj, batch=batch,
                   dt=dt, T=n_steps * dt, record_ks=cp)
    stats = ensemble_run(spec, n_paths, seed)
    times = stats.grid
    # the scalar exp, as in schedules: NumPy's array exp may round by SIMD level
    factor = np.array([math.exp(2.0 * mu * p) for p in phi(adj, times)])
    energy = factor * stats.mean["f_gap"]
    energy_se = factor * stats.se("f_gap")

    s2 = c.sigma_star_sq if c.sigma_star_sq is not None else 0.0
    coef = adj.h * problem.d * c.L * s2 / 2.0

    def integrand(s):
        return (math.exp(2.0 * mu * float(phi(adj, s))) * adj.psi(s) ** 2
                / batch.value(s))

    increments = np.diff(energy)
    allowance = np.empty(increments.size)
    for i in range(increments.size):
        val, _ = integrate.quad(integrand, times[i], times[i + 1],
                                epsrel=1e-10, limit=200)
        allowance[i] = coef * val
    se_inc = energy_se[:-1] + energy_se[1:]  # triangle inequality, conservative
    v, ok = _violations(increments, allowance, se_inc, slack_se)
    report = _finish_report("pl-supermartingale", times[1:], increments,
                            allowance, se_inc, v, ok, slack_se, stats.n_paths,
                            t0, {"mu": mu, "coef": coef})
    report.details["pass_fraction"] = float(ok.mean())
    return report
