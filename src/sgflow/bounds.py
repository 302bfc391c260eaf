"""Every convergence-rate guarantee as an evaluable function of time or step index.

Continuous-time bounds (for the diffusion models), with phi(t) = ∫ psi and
I(t) = ∫ psi²/b:

* ``bound_smooth_ct`` — randomized-time gradient norm:
  E|grad f(X(t~))|² <= f0_gap/phi(t) + (h d L sigma*²)/(2 phi(t)) · I(t)
* ``bound_wqc`` (randomized) — E[f(X(t~)) - f*] <=
  dist0²/(2 tau phi(t)) + (h d sigma*²)/(2 tau phi(t)) · I(t)
* ``bound_wqc`` (last) — same head, noise integral ∫ (L tau phi(s) + 1) psi²/b ds
* ``bound_pl_ct`` — E[f(X(t)) - f*] <=
  e^{-2 mu phi(t)} f0_gap + (h d L sigma*²/2) ∫ psi²/b · e^{-2 mu (phi(t)-phi(s))} ds
* ``bound_vr`` — per-epoch contraction rho^j · dist0² under restricted secancy.

Discrete-time bounds mirror these exactly with the finite sums
Phi_{k+1} = Σ psi_i and Σ psi_i²/b_i (no Riemann approximation), plus the
stepsize admissibility conditions under which each holds.  The integrals
have closed forms for constant schedules, for power schedules with a
constant batch, and for e^{-2 mu (phi(t) - phi(s))} with both constant; the
rest (the linear-growth batch, and the exponential kernel under a power
schedule) take adaptive quadrature at 1e-10 relative accuracy or better.
The exponential-kernel integral is evaluated in a stabilized form whose
exponent is always <= 0, so large mu·t never overflows.

Every quadrature in sgflow, these and the pl-probe's allowance in
:mod:`sgflow.harness`, calls :func:`quad`, which loads ``scipy.integrate``
on its first call.  A run that integrates nothing -- every ensemble and
simulator, and every closed-form bound -- never loads it.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass
from functools import partial

import numpy as np

from .problems import FiniteSumProblem
from .schedules import AdjustmentSchedule, BatchSchedule, phi, phi_inverse

__all__ = [
    "AdmissibilityError",
    "BoundInputs",
    "RateBound",
    "RateDescriptor",
    "bound_smooth_ct",
    "bound_wqc",
    "bound_pl_ct",
    "bound_vr",
    "bound_discrete",
    "bound_discrete_curve",
    "asymptotic_exponent",
    "lyapunov_energy",
    "landscape_stretch_reference",
    "equivalent_gradient_rhs",
    "ball_bound",
    "CONTINUOUS_KINDS",
    "DISCRETE_KINDS",
]

CONTINUOUS_KINDS = ("smooth_ct", "wqc_rand_ct", "wqc_last_ct", "pl_ct", "vr_ct")
DISCRETE_KINDS = ("smooth_dt", "wqc_rand_dt", "wqc_last_dt", "pl_dt", "vr_dt")


def quad(func, a: float, b: float, **options):
    """``scipy.integrate.quad(func, a, b, **options)``, imported on first use.

    ``scipy.integrate`` is most of what importing sgflow would cost without
    this (about 0.6 s and 50 MB resident on a 2-vCPU x86-64 host), and most
    runs integrate nothing.
    """
    from scipy.integrate import quad as scipy_quad

    return scipy_quad(func, a, b, **options)


# Exponential-kernel weights below e^{-45} (~3e-20) are dropped; far beyond
# the 1e-10 relative quadrature target for any admissible parameter set.
_EXP_CUTOFF = 45.0


class AdmissibilityError(ValueError):
    """A stepsize condition required by the requested guarantee is violated."""


@dataclass(frozen=True)
class BoundInputs:
    """Problem constants, schedules and initial quantities a bound depends on.

    ``f0_gap`` is f(x0) - f*, ``dist0_sq`` is |x0 - x*|².  Constants may be
    declared directly (e.g. to evaluate a bound with assumed constants) or
    pulled from a problem via :meth:`from_problem`.
    """

    d: int
    L: float
    f0_gap: float
    dist0_sq: float
    adj: AdjustmentSchedule
    batch: BatchSchedule
    sigma_star_sq: float = 0.0
    mu_pl: float | None = None
    mu_rsi: float | None = None
    tau: float | None = None
    m: int | None = None  # epoch length in steps, for the variance-reduced bound

    @property
    def h(self) -> float:
        return self.adj.h

    @classmethod
    def from_problem(cls, problem: FiniteSumProblem, x0, adj: AdjustmentSchedule,
                     batch: BatchSchedule | None = None, m: int | None = None,
                     sigma_star_sq: float | None = None) -> "BoundInputs":
        x0 = np.asarray(x0, dtype=float)
        c = problem.constants
        if sigma_star_sq is None:
            sigma_star_sq = c.sigma_star_sq if c.sigma_star_sq is not None else 0.0
        return cls(d=problem.d, L=c.L, f0_gap=problem.gap(x0),
                   dist0_sq=float(np.sum((x0 - problem.x_star) ** 2)),
                   adj=adj, batch=batch if batch is not None else BatchSchedule(),
                   sigma_star_sq=sigma_star_sq, mu_pl=c.mu_pl, mu_rsi=c.mu_rsi,
                   tau=c.tau_wqc, m=m)


# -- schedule integrals ------------------------------------------------------


def _power_primitive(p: float, t: float) -> float:
    """∫_0^t (1+s)^p ds in closed form."""
    if p == -1.0:
        return math.log1p(t)
    return ((1.0 + t) ** (p + 1.0) - 1.0) / (p + 1.0)


def noise_integral(inputs: BoundInputs, t: float) -> float:
    """I(t) = ∫_0^t psi(s)² / b(s) ds (closed form for constant batch)."""
    adj, batch = inputs.adj, inputs.batch
    if batch.family == "constant":
        if adj.family == "constant":
            return t / batch.b
        return _power_primitive(-2.0 * adj.a, t) / batch.b
    val, _ = quad(lambda s: adj.psi(s) ** 2 / batch.value(s), 0.0, t,
                  epsabs=0.0, epsrel=1e-12, limit=200)
    return val


def wqc_last_integral(inputs: BoundInputs, t: float) -> float:
    """∫_0^t (L tau phi(s) + 1) psi(s)²/b(s) ds for the last-iterate bound."""
    adj, batch = inputs.adj, inputs.batch
    lt = inputs.L * inputs.tau
    if batch.family == "constant":
        b = batch.b
        if adj.family == "constant":
            return (lt * t * t / 2.0 + t) / b
        a = adj.a
        if a == 1.0:
            # phi(s) = log(1+s): ∫ log(1+s)(1+s)^{-2} ds = 1 - (1+log(1+t))/(1+t)
            log_part = 1.0 - (1.0 + math.log1p(t)) / (1.0 + t)
            return (lt * log_part + _power_primitive(-2.0, t)) / b
        # phi(s) = ((1+s)^{1-a} - 1)/(1-a)
        coeff = lt / (1.0 - a)
        return (coeff * _power_primitive(1.0 - 3.0 * a, t)
                + (1.0 - coeff) * _power_primitive(-2.0 * a, t)) / b
    val, _ = quad(lambda s: (lt * phi(adj, s) + 1.0) * adj.psi(s) ** 2
                  / batch.value(s), 0.0, t, epsabs=0.0, epsrel=1e-12, limit=200)
    return val


def pl_noise_integral(inputs: BoundInputs, t: float) -> float:
    """J(t) = ∫_0^t psi²/b · e^{-2 mu (phi(t) - phi(s))} ds, stabilized.

    The exponent is always <= 0; contributions with weight below e^{-45} are
    dropped by raising the lower limit, which keeps adaptive quadrature both
    stable and fast for arbitrarily large mu·phi(t).
    """
    mu = _require(inputs.mu_pl, "mu_pl", "the gradient-domination bound")
    adj, batch = inputs.adj, inputs.batch
    if t == 0.0:
        return 0.0
    if adj.family == "constant" and batch.family == "constant":
        return (1.0 - math.exp(-2.0 * mu * t)) / (2.0 * mu * batch.b)
    phi_t = phi(adj, t)
    s_lo = 0.0
    if 2.0 * mu * phi_t > _EXP_CUTOFF:
        s_lo = float(phi_inverse(adj, phi_t - _EXP_CUTOFF / (2.0 * mu)))

    def integrand(s: float) -> float:
        return (adj.psi(s) ** 2 / batch.value(s)
                * math.exp(-2.0 * mu * (phi_t - phi(adj, s))))

    val, _ = quad(integrand, s_lo, t, epsabs=0.0, epsrel=1e-11, limit=400)
    return val


# -- continuous-time bounds --------------------------------------------------


def bound_smooth_ct(inputs: BoundInputs, t: float) -> float:
    """Randomized-time squared-gradient bound for the diffusion under smoothness."""
    if t <= 0:
        raise ValueError("the randomized-time bound needs t > 0")
    phi_t = phi(inputs.adj, t)
    noise = inputs.h * inputs.d * inputs.L * inputs.sigma_star_sq / 2.0
    return (inputs.f0_gap + noise * noise_integral(inputs, t)) / phi_t


def bound_wqc(inputs: BoundInputs, t: float, variant: str) -> float:
    """Suboptimality bound under weak quasi-convexity.

    variant="randomized" bounds E[f(X(t~)) - f*] at the psi-distributed random
    time t~ in [0, t]; variant="last" bounds E[f(X(t)) - f*] and carries the
    extra (L tau phi(s) + 1) factor inside the noise integral.
    """
    if t <= 0:
        raise ValueError("the weak-quasi-convexity bounds need t > 0")
    tau = _require(inputs.tau, "tau", "the weak-quasi-convexity bounds")
    phi_t = phi(inputs.adj, t)
    head = inputs.dist0_sq / (2.0 * tau * phi_t)
    scale = inputs.h * inputs.d * inputs.sigma_star_sq / (2.0 * tau * phi_t)
    if variant == "randomized":
        return head + scale * noise_integral(inputs, t)
    if variant == "last":
        return head + scale * wqc_last_integral(inputs, t)
    raise ValueError(f"unknown variant {variant!r}; expected 'randomized' or 'last'")


def bound_pl_ct(inputs: BoundInputs, t: float) -> float:
    """Last-iterate suboptimality bound under gradient domination (PL)."""
    if t < 0:
        raise ValueError("t must be >= 0")
    mu = _require(inputs.mu_pl, "mu_pl", "the gradient-domination bound")
    head = math.exp(-2.0 * mu * phi(inputs.adj, t)) * inputs.f0_gap
    noise = inputs.h * inputs.d * inputs.L * inputs.sigma_star_sq / 2.0
    return head + noise * pl_noise_integral(inputs, t)


def bound_vr(inputs: BoundInputs, j: int, mode: str) -> float:
    """Per-epoch squared-distance contraction of the variance-reduced method.

    mode="continuous" uses epoch time T = m h:
        rho = (2 h L² T + 1) / (T (mu - 2 h L²));
    mode="discrete" uses the step form
        rho = (1 + 2 L² h² m) / (h m (mu - 2 L² h)).
    The two coincide exactly since T = m h.  Requires mu - 2 h L² > 0.
    """
    if j < 0:
        raise ValueError("epoch index must be >= 0")
    mu = _require(inputs.mu_rsi, "mu_rsi", "the variance-reduction bound")
    m = _require(inputs.m, "m", "the variance-reduction bound")
    h, L = inputs.h, inputs.L
    denom_core = mu - 2.0 * h * L * L
    if denom_core <= 0:
        raise AdmissibilityError(
            f"variance-reduction bound needs mu - 2 h L^2 > 0; "
            f"got mu={mu}, h={h}, L={L} (h must be < {mu / (2 * L * L):.6g})")
    if mode == "continuous":
        T = m * h
        rho = (2.0 * h * L * L * T + 1.0) / (T * denom_core)
    elif mode == "discrete":
        rho = (1.0 + 2.0 * L * L * h * h * m) / (h * m * denom_core)
    else:
        raise ValueError(f"unknown mode {mode!r}; expected 'continuous' or 'discrete'")
    return rho ** j * inputs.dist0_sq


# -- discrete-time bounds ----------------------------------------------------


def _discrete_admissibility(inputs: BoundInputs, kind: str) -> None:
    h, L = inputs.h, inputs.L
    if kind in ("smooth_dt", "pl_dt"):
        if h > 1.0 / L:
            raise AdmissibilityError(f"{kind} needs h <= 1/L = {1.0 / L:.6g}, got h={h}")
    elif kind in ("wqc_rand_dt", "wqc_last_dt"):
        tau = _require(inputs.tau, "tau", kind)
        if not (0.0 < h <= tau / (2.0 * L)):
            raise AdmissibilityError(
                f"{kind} needs 0 < h <= tau/(2L) = {tau / (2 * L):.6g}, got h={h}")
    else:
        raise ValueError(f"unknown discrete bound kind {kind!r}; "
                         f"expected one of {DISCRETE_KINDS[:4]}")


def bound_discrete(inputs: BoundInputs, k: int, kind: str) -> float:
    """Guarantee for the iterate produced after step index k (i.e. x_{k+1}).

    kind="smooth_dt" / "wqc_rand_dt" bound the randomized iterate drawn from
    steps {0..k} with weights psi_i; kind="wqc_last_dt" bounds E[f(x_{k+1})-f*];
    kind="pl_dt" evaluates the exact forward recursion

        B(0) = f0_gap,   B(i+1) = (1 - mu h psi_i) B(i) + h² d L sigma*² psi_i² / (2 b_i)

    and returns B(k+1), so with sigma*²=0 and psi=1 the value is
    (1 - mu h)^{k+1} f0_gap.  Each kind checks its stepsize admissibility.
    """
    return float(bound_discrete_curve(inputs, np.asarray([k]), kind)[0])


def bound_discrete_curve(inputs: BoundInputs, ks, kind: str) -> np.ndarray:
    """:func:`bound_discrete` over increasing step indices, bit for bit, in one pass."""
    _discrete_admissibility(inputs, kind)
    ks = np.asarray(ks, dtype=int)
    if ks.size == 0:
        return np.zeros(0)
    if np.any(ks < 0):
        raise ValueError("step indices must be >= 0")
    k_max = int(ks.max())
    h, d, L, s2 = inputs.h, inputs.d, inputs.L, inputs.sigma_star_sq
    psis = inputs.adj.psi_k(np.arange(k_max + 1))
    bs = np.asarray(inputs.batch.size_at_step(np.arange(k_max + 1), h), dtype=float)
    big_phi = np.cumsum(psis)            # Phi_{i+1}
    w = psis * psis / bs                 # psi_i² / b_i

    if kind == "smooth_dt":
        head = 2.0 * inputs.f0_gap
        noise = h * h * d * L * s2 * np.cumsum(w)
        return (head + noise)[ks] / (h * big_phi[ks])
    if kind == "wqc_rand_dt":
        tau = inputs.tau
        noise = d * h * h * s2 * np.cumsum(w)
        return (inputs.dist0_sq + noise)[ks] / (tau * h * big_phi[ks])
    if kind == "wqc_last_dt":  # the continuous weight L tau phi(ih), as L tau h Phi_{i+1}
        tau = inputs.tau
        noise = h * h * d * s2 * np.cumsum((1.0 + tau * L * h * big_phi) * w)
        return (inputs.dist0_sq + noise)[ks] / (2.0 * tau * h * big_phi[ks])
    # pl_dt: exact forward recursion, evaluated once up to k_max
    mu = _require(inputs.mu_pl, "mu_pl", "the gradient-domination bound")
    inject = h * h * d * L * s2 * w / 2.0
    contract = 1.0 - mu * h * psis
    B_path = np.empty(k_max + 1)
    B = inputs.f0_gap
    for i in range(k_max + 1):
        B = contract[i] * B + inject[i]
        B_path[i] = B
    return B_path[ks]


# -- asymptotics, energies, stretching ---------------------------------------


@dataclass(frozen=True)
class RateDescriptor:
    """Asymptotic decay of a bound: t^{-exponent}, possibly with a log factor.

    form is one of "power" (rate t^-exponent), "power_log"
    (log(t) · t^-exponent), "inverse_log" (1/log t) or "none" (no guarantee).
    """

    form: str
    exponent: float | None = None

    def evaluate(self, t):
        t = np.asarray(t, dtype=float)
        if self.form == "power":
            return t ** (-self.exponent)
        if self.form == "power_log":
            return np.log(t) * t ** (-self.exponent)
        if self.form == "inverse_log":
            return 1.0 / np.log(t)
        raise ValueError("no rate to evaluate: this class/exponent pair "
                         "carries no convergence guarantee")


def asymptotic_exponent(a: float, cls: str) -> RateDescriptor:
    """Asymptotic decay class of each bound under psi(t) = (1+t)^{-a}.

    Columns: "PL" (last iterate under gradient domination), "WQC_RAND" /
    "WQC_LAST" (randomized / last iterate under weak quasi-convexity),
    "SMOOTH_RAND" (randomized squared gradient).  Interior exponents switch at
    a = 1/2 and (for the last iterate) a = 2/3, with logarithmic corrections
    exactly at the thresholds and a 1/log(t) rate at a = 1.
    """
    if not (0.0 < a <= 1.0):
        raise ValueError(f"decay power must be in (0, 1], got {a}")
    if cls == "PL":
        if a == 1.0:
            raise ValueError("no rate is available for the gradient-domination "
                             "bound at a = 1")
        return RateDescriptor("power", a)
    if cls in ("SMOOTH_RAND", "WQC_RAND"):
        if a < 0.5:
            return RateDescriptor("power", a)
        if a == 0.5:
            return RateDescriptor("power_log", 0.5)
        if a < 1.0:
            return RateDescriptor("power", 1.0 - a)
        return RateDescriptor("inverse_log")
    if cls == "WQC_LAST":
        if a <= 0.5:
            return RateDescriptor("none")  # noise does not average out
        if a < 2.0 / 3.0:
            return RateDescriptor("power", 2.0 * a - 1.0)
        if a == 2.0 / 3.0:
            return RateDescriptor("power_log", 1.0 / 3.0)
        if a < 1.0:
            return RateDescriptor("power", 1.0 - a)
        return RateDescriptor("inverse_log")
    raise ValueError(f"unknown class {cls!r}; expected PL, WQC_LAST, WQC_RAND "
                     "or SMOOTH_RAND")


def lyapunov_energy(kind: str, problem: FiniteSumProblem, x, t: float, *,
                    adj: AdjustmentSchedule | None = None) -> float:
    """Energy functions whose dissipation yields each bound.

    SMOOTH: f(x) - f*;  WQC1: |x - x*|²/2;
    WQC2:  tau phi(t) (f(x) - f*) + |x - x*|²/2;
    PL:    e^{2 mu phi(t)} (f(x) - f*);   RSI: |x - x*|²/2.
    WQC2 and PL need the adjustment schedule for phi(t).
    """
    x = np.asarray(x, dtype=float)
    dist_sq = float(np.sum((x - problem.x_star) ** 2))
    if kind == "SMOOTH":
        return problem.gap(x)
    if kind in ("WQC1", "RSI"):
        return 0.5 * dist_sq
    if kind == "WQC2":
        tau = _require(problem.constants.tau_wqc, "tau_wqc", "the WQC2 energy")
        _require(adj, "adj", "the WQC2 energy")
        return tau * phi(adj, t) * problem.gap(x) + 0.5 * dist_sq
    if kind == "PL":
        mu = _require(problem.constants.mu_pl, "mu_pl", "the PL energy")
        _require(adj, "adj", "the PL energy")
        return math.exp(2.0 * mu * phi(adj, t)) * problem.gap(x)
    raise ValueError(f"unknown energy kind {kind!r}")


def landscape_stretch_reference(lam: float, u0: float, t):
    """Coordinate solution u(t) = (1+t)^{-lam} u0 of gradient flow with psi = 1/(1+t)."""
    t = np.asarray(t, dtype=float)
    out = (1.0 + t) ** (-lam) * u0
    return out[()] if out.ndim == 0 else out


def equivalent_gradient_rhs(lam: float, u0: float, u: float) -> float:
    """Autonomous right-hand side reproducing the annealed flow on one coordinate.

    Substituting (1+t) = (u/u0)^{-1/lam} into du/dt = -lam u/(1+t) gives

        du/dt = -lam · u · (u/u0)^{1/lam},

    i.e. plain gradient flow on the stretched landscape g(u) ∝ u^{2 + 1/lam}.
    Defined while u/u0 > 0 (the solution never changes sign).
    """
    if lam == 0.0:
        raise ValueError("lam must be nonzero")
    if u0 == 0.0:
        raise ValueError("u0 must be nonzero for the feedback form")
    return _equivalent_gradient_formula(lam, u0, u)


def _equivalent_gradient_formula(lam: float, u0: float, u: float) -> float:
    """:func:`equivalent_gradient_rhs` for a lam and u0 already checked nonzero."""
    ratio = u / u0
    if ratio <= 0.0:
        raise ValueError("feedback form is defined only while u/u0 > 0")
    return -lam * u * ratio ** (1.0 / lam)


def ball_bound(inputs: BoundInputs, mode: str) -> float:
    """Stationary ("ball of convergence") level of the gradient-domination bound.

    Under psi = 1 and constant batch b, the bound converges to
    h d L sigma*² / (4 mu b) for the diffusion and to h d L sigma*² / (2 mu b)
    for the discrete algorithm — exactly twice the continuous level.
    """
    mu = _require(inputs.mu_pl, "mu_pl", "the convergence ball")
    if inputs.batch.family != "constant":
        raise ValueError("the ball limit assumes a constant batch size")
    denom = {"continuous": 4.0, "discrete": 2.0}.get(mode)
    if denom is None:
        raise ValueError(f"unknown mode {mode!r}; expected 'continuous' or 'discrete'")
    return (inputs.h * inputs.d * inputs.L * inputs.sigma_star_sq
            / (denom * mu * inputs.batch.b))


@dataclass(frozen=True)
class _Kind:
    observable: str  # the EnsembleStats mean the kind bounds
    value: Callable | None = None  # (inputs, time or epoch) -> bound; None for steps
    point: str = "time"  # what the bound is a function of: a time, step or epoch
    lag: int = 0  # record step k reads bound_discrete(k - lag)
    at_zero: Callable | None = None  # inputs -> the bound at point 0, if set


# A randomized output averages over x_0..x_k, so step k reads bound_discrete(k);
# a last iterate x_k reads bound_discrete(k - 1), and x_0 reads f0 - f* (pl_dt's
# B(0)) or inf (wqc_last_dt, as Phi_0 = 0).  A bound over phi(t) is inf at t = 0.
_KINDS = {
    "smooth_ct": _Kind("grad_norm_sq_wavg", bound_smooth_ct, at_zero=lambda _: math.inf),
    "wqc_rand_ct": _Kind("f_gap_wavg", partial(bound_wqc, variant="randomized"),
                         at_zero=lambda _: math.inf),
    "wqc_last_ct": _Kind("f_gap", partial(bound_wqc, variant="last"),
                         at_zero=lambda _: math.inf),
    "pl_ct": _Kind("f_gap", bound_pl_ct),
    "vr_ct": _Kind("dist_sq", lambda inputs, j: bound_vr(inputs, int(j), "continuous"),
                   "epoch"),
    "vr_dt": _Kind("dist_sq", lambda inputs, j: bound_vr(inputs, int(j), "discrete"),
                   "epoch"),
    "smooth_dt": _Kind("grad_norm_sq_wavg", point="step"),
    "wqc_rand_dt": _Kind("f_gap_wavg", point="step"),
    "wqc_last_dt": _Kind("f_gap", point="step", lag=1, at_zero=lambda _: math.inf),
    "pl_dt": _Kind("f_gap", point="step", lag=1, at_zero=lambda inputs: inputs.f0_gap),
}


@dataclass(frozen=True)
class RateBound:
    """A guarantee kind bundled with its inputs, evaluable along a run.

    Time kinds map a time t to the bound, step kinds a step k (the bound on
    x_k) and the variance-reduced kinds an epoch j; :meth:`marks` says where on
    a run's record times each kind is checked, and at which point.
    """

    kind: str
    inputs: BoundInputs

    def __post_init__(self) -> None:
        if self.kind not in _KINDS:
            raise ValueError(f"unknown bound kind {self.kind!r}; expected one "
                             f"of {CONTINUOUS_KINDS + DISCRETE_KINDS}")

    @property
    def is_continuous(self) -> bool:
        return self.kind in CONTINUOUS_KINDS

    @property
    def observable(self) -> str:
        """The ensemble mean the kind bounds, a key of ``EnsembleStats.mean``."""
        return _KINDS[self.kind].observable

    @property
    def point(self) -> str:
        """What the bound is a function of: "time", "step" or "epoch"."""
        return _KINDS[self.kind].point

    def marks(self, times) -> tuple[np.ndarray, np.ndarray]:
        """Where on the record ``times`` the kind is checked, and its point there.

        A mark is a time t > 0: each one for a time kind, at point t; for a step
        (variance-reduced) kind, each whole number k >= 1 of steps h (j >= 1 of
        epochs m h), within 1e-9 max(1, unit), at point k (j).  No mark: ValueError.
        """
        point, times = self.point, np.asarray(times, dtype=float)
        pos = np.flatnonzero(times > 0)
        points = times[pos]
        if point != "time":
            unit = self.inputs.h * (1 if point == "step" else
                                    _require(self.inputs.m, "m", f"{self.kind!r} marks"))
            whole = np.round(points / unit)
            on = (whole >= 1) & (np.abs(points - whole * unit) <= 1e-9 * max(1.0, unit))
            pos, points = pos[on], whole[on].astype(int)
        if pos.size == 0:
            raise ValueError(f"{self.kind!r} has no {point} marks on the record grid")
        return pos, points

    def evaluate(self, arg) -> float:
        value = _KINDS[self.kind].value
        return float(self.curve([arg])[0]) if value is None else value(self.inputs, arg)

    def curve(self, points) -> np.ndarray:
        """The bound at each time, epoch or record step k of a run's grid; step
        k gets the bound on x_k, and all steps take one bound_discrete_curve."""
        spec = _KINDS[self.kind]
        points = np.asarray(points)
        start = (points == 0) & bool(spec.at_zero)
        values = np.full(points.shape, spec.at_zero(self.inputs) if start.any() else 0.0)
        rest = points[~start]
        values[~start] = (bound_discrete_curve(self.inputs, rest - spec.lag, self.kind)
                          if spec.value is None else [self.evaluate(p) for p in rest])
        return values


def _require(value, name: str, where: str):
    if value is None:
        raise ValueError(f"{name} is required for {where}")
    return value
