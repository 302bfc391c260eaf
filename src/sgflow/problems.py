"""Finite-sum objectives f = (1/N) * sum_i f_i with exact gradients and known constants.

The canonical test family is *diagonal quadratic plus linear noise*:

    f_i(x) = 1/2 <x - x*, D_i ⊙ (x - x*)> + <c_i, x - x*>,    sum_i c_i = 0,

whose component gradients are affine, ``grad f_i(x) = D_i ⊙ (x - x*) + c_i``.
When every row D_i is the same diagonal H this is a fixed quadratic with additive
gradient noise and *state-independent* one-sample covariance (1/N) Σ c_i c_iᵀ,
which makes every estimator statistic available in closed form.  A second
construction varies the curvature between components instead (useful for
variance-reduction experiments, where additive noise would cancel exactly).

Regularity constants are declared at construction and can be spot-checked
numerically with :func:`verify_class`; they are never inferred.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

__all__ = [
    "ProblemConstants",
    "FiniteSumProblem",
    "full_gradient",
    "make_perturbed_quadratic",
    "make_isotropic_quadratic",
    "make_spread_quadratic",
    "expected_value_ou",
    "verify_class",
    "ClassReport",
]

_STATIONARITY_TOL = 1e-10


@dataclass(frozen=True)
class ProblemConstants:
    """Declared regularity constants of a finite-sum problem.

    L is the per-component gradient Lipschitz constant.  The optional fields
    are the Polyak-Lojasiewicz constant ``mu_pl``, the restricted-secant
    constant ``mu_rsi``, the weak-quasi-convexity constant ``tau_wqc`` and the
    uniform one-sample volatility bound ``sigma_star_sq`` (largest eigenvalue
    of the mini-batch gradient covariance, over the region of interest).
    """

    L: float
    f_star: float = 0.0
    mu_pl: float | None = None
    mu_rsi: float | None = None
    tau_wqc: float | None = None
    sigma_star_sq: float | None = None

    def __post_init__(self) -> None:
        if not (self.L > 0 and np.isfinite(self.L)):
            raise ValueError(f"L must be positive and finite, got {self.L}")
        for name in ("mu_pl", "mu_rsi", "tau_wqc"):
            v = getattr(self, name)
            if v is not None and not (v > 0 and np.isfinite(v)):
                raise ValueError(f"{name} must be positive when provided, got {v}")
        if self.sigma_star_sq is not None and not (self.sigma_star_sq >= 0):
            raise ValueError(f"sigma_star_sq must be >= 0, got {self.sigma_star_sq}")
        if self.mu_pl is not None and self.mu_pl > self.L * (1 + 1e-12):
            raise ValueError(f"mu_pl={self.mu_pl} exceeds L={self.L}; "
                             "smoothness forces mu_pl <= L")
        if self.mu_rsi is not None and self.mu_pl is None:
            raise ValueError("mu_rsi given without mu_pl (restricted secant "
                             "implies the gradient-domination property)")


@dataclass(frozen=True)
class _AffineParts:
    """Per-component affine gradient data: grad f_i(x) = D[i] ⊙ (x - x*) + C[i].

    ``d_mean`` and ``c_mean`` are the component means of D and C, computed
    once here for every full-gradient and observable evaluation.
    """

    D: np.ndarray  # (N, d) per-component diagonal curvatures
    C: np.ndarray  # (N, d) per-component gradient offsets
    d_mean: np.ndarray = field(init=False, repr=False, compare=False)
    c_mean: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "d_mean", self.D.mean(axis=0))
        object.__setattr__(self, "c_mean", self.C.mean(axis=0))

    def block_observables(self, U: np.ndarray, f_star: float):
        """(f - f*, |grad f|^2) row-wise for a (n, d) block of offsets U = X - x*."""
        G = U * self.d_mean + self.c_mean
        f_gap = (0.5 * np.einsum("nd,nd->n", U, U * self.d_mean)
                 + np.einsum("nd,d->n", U, self.c_mean) - f_star)
        return f_gap, np.einsum("nd,nd->n", G, G)


class FiniteSumProblem:
    """A finite sum f = (1/N) Σ f_i on R^d with exact per-component gradients.

    Construct either from explicit ``(value, gradient)`` callable pairs or from
    affine parts via :meth:`from_affine`.  The minimizer ``x_star`` must be a
    stationary point of f (checked at construction to 1e-10).
    """

    def __init__(self, d: int, x_star: np.ndarray, constants: ProblemConstants,
                 components: Sequence[tuple[Callable, Callable]] | None = None,
                 affine: _AffineParts | None = None) -> None:
        if d < 1:
            raise ValueError("dimension must be >= 1")
        if (components is None) == (affine is None):
            raise ValueError("provide exactly one of components / affine")
        self.d = int(d)
        self.x_star = np.asarray(x_star, dtype=float).reshape(d)
        self.constants = constants
        self._components = list(components) if components is not None else None
        self.affine = affine
        if affine is not None:
            if affine.D.shape != affine.C.shape or affine.D.shape[1] != d:
                raise ValueError("affine parts must both have shape (N, d)")
        if self.n_components < 1:
            raise ValueError("need at least one component")
        g0 = self.grad(self.x_star)
        if np.linalg.norm(g0) > _STATIONARITY_TOL:
            raise ValueError(
                f"x_star is not stationary: |grad f(x_star)| = {np.linalg.norm(g0):.3e}")

    @classmethod
    def from_affine(cls, D: np.ndarray, C: np.ndarray, x_star: np.ndarray,
                    constants: ProblemConstants) -> "FiniteSumProblem":
        D = np.atleast_2d(np.asarray(D, dtype=float))
        C = np.atleast_2d(np.asarray(C, dtype=float))
        return cls(D.shape[1], x_star, constants, affine=_AffineParts(D=D, C=C))

    # -- evaluation ---------------------------------------------------------

    @property
    def n_components(self) -> int:
        if self.affine is not None:
            return self.affine.D.shape[0]
        return len(self._components)

    @property
    def has_constant_mb_covariance(self) -> bool:
        """True when the one-sample gradient covariance does not depend on x."""
        return self.affine is not None and bool(
            np.all(self.affine.D == self.affine.D[0]))

    def component_value(self, i: int, x: np.ndarray) -> float:
        x = self._check_x(x)
        if self.affine is not None:
            u = x - self.x_star
            return float(0.5 * u @ (self.affine.D[i] * u) + self.affine.C[i] @ u)
        return float(self._components[i][0](x))

    def component_grad(self, i: int, x: np.ndarray) -> np.ndarray:
        x = self._check_x(x)
        if self.affine is not None:
            return self.affine.D[i] * (x - self.x_star) + self.affine.C[i]
        return np.asarray(self._components[i][1](x), dtype=float).reshape(self.d)

    def value(self, x: np.ndarray) -> float:
        """f(x) = (1/N) Σ f_i(x)."""
        x = self._check_x(x)
        if self.affine is not None:
            u = x - self.x_star
            return float(0.5 * u @ (self.affine.d_mean * u) + self.affine.c_mean @ u)
        return float(np.mean([f(x) for f, _ in self._components]))

    def gap(self, x: np.ndarray) -> float:
        """Suboptimality f(x) - f(x*)."""
        return self.value(x) - self.constants.f_star

    def grad(self, x: np.ndarray) -> np.ndarray:
        """Full gradient (1/N) Σ grad f_i(x)."""
        x = self._check_x(x)
        if self.affine is not None:
            u = x - self.x_star
            return self.affine.d_mean * u + self.affine.c_mean
        return np.mean([np.asarray(g(x), dtype=float) for _, g in self._components],
                       axis=0).reshape(self.d)

    def _check_x(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        if x.shape != (self.d,):
            raise ValueError(f"point has shape {x.shape}, expected ({self.d},)")
        return x


def full_gradient(problem: FiniteSumProblem, x: np.ndarray) -> np.ndarray:
    """Exact full gradient of f at x."""
    return problem.grad(x)


# -- constructors -----------------------------------------------------------


def make_perturbed_quadratic(H_diag, x_star, noise_vectors) -> FiniteSumProblem:
    """Diagonal quadratic with additive, mean-zero gradient noise.

    f_i(x) = 1/2 <x - x*, H (x - x*)> + <c_i, x - x*>  with  Σ_i c_i = 0 exactly
    (supply the last vector as the negative sum of the others; that difference
    is exact in floating point).  The one-sample covariance is the constant
    matrix (1/N) Σ c_i c_iᵀ, so every noise statistic is state-independent.

    Constants are filled in automatically: L = max |λ_i|; when all λ_i > 0 the
    quadratic is convex with mu_pl = mu_rsi = min λ_i and tau_wqc = 1;
    sigma_star_sq is the exact top eigenvalue of the covariance.
    """
    H_diag = np.asarray(H_diag, dtype=float).ravel()
    d = H_diag.size
    x_star = np.asarray(x_star, dtype=float).reshape(d)
    C = np.atleast_2d(np.asarray(noise_vectors, dtype=float))
    if C.shape[1] != d:
        raise ValueError(f"noise vectors have dimension {C.shape[1]}, expected {d}")
    if np.any(C.sum(axis=0) != 0.0):
        raise ValueError("noise vectors must sum to exactly zero "
                         "(a nonzero sum would bias the gradient estimator)")
    N = C.shape[0]
    cov = (C.T @ C) / N
    sigma_star_sq = float(np.linalg.eigvalsh(cov)[-1]) if C.any() else 0.0
    convex = bool(np.all(H_diag > 0))
    constants = ProblemConstants(
        L=float(np.max(np.abs(H_diag))),
        f_star=0.0,
        mu_pl=float(np.min(H_diag)) if convex else None,
        mu_rsi=float(np.min(H_diag)) if convex else None,
        tau_wqc=1.0 if convex else None,
        sigma_star_sq=sigma_star_sq,
    )
    D = np.tile(H_diag, (N, 1))
    return FiniteSumProblem.from_affine(D, C, x_star, constants)


def make_isotropic_quadratic(mu: float, d: int, x_star=None,
                             sigma_star_sq: float = 0.0) -> FiniteSumProblem:
    """Isotropic quadratic f = (mu/2) |x - x*|^2, optionally with isotropic noise.

    For sigma_star_sq > 0 the components carry 2d noise vectors ±s·e_j with
    s = sqrt(sigma_star_sq * d), giving one-sample covariance exactly
    sigma_star_sq * I.  This is the Ornstein-Uhlenbeck test problem: under the
    diffusion model its suboptimality has the closed form of
    :func:`expected_value_ou`.
    """
    if mu <= 0:
        raise ValueError("mu must be positive")
    if sigma_star_sq < 0:
        raise ValueError("sigma_star_sq must be >= 0")
    if x_star is None:
        x_star = np.zeros(d)
    H = np.full(d, float(mu))
    if sigma_star_sq == 0.0:
        return make_perturbed_quadratic(H, x_star, np.zeros((1, d)))
    s = float(np.sqrt(sigma_star_sq * d))
    eye = np.eye(d)
    C = np.concatenate([s * eye, -s * eye], axis=0)
    return make_perturbed_quadratic(H, x_star, C)


def make_spread_quadratic(lambda_mean: float, spread: float, d: int = 1,
                          x_star=None) -> FiniteSumProblem:
    """Two-component isotropic quadratic whose components disagree on curvature.

    f_1 = (λ+δ)/2 |x - x*|²,  f_2 = (λ-δ)/2 |x - x*|²,  so f = (λ/2) |x - x*|².
    Unlike additive-noise quadratics, the component *curvatures* differ, which
    is what makes the variance-reduced estimator genuinely noisy:
    its covariance at (x, pivot y) is δ² (x-y)(x-y)ᵀ.

    The one-sample covariance δ²(x-x*)(x-x*)ᵀ is unbounded over R^d, so no
    global sigma_star_sq is declared.
    """
    if not (lambda_mean > spread >= 0):
        raise ValueError("need lambda_mean > spread >= 0 so both components are convex")
    if x_star is None:
        x_star = np.zeros(d)
    D = np.stack([np.full(d, lambda_mean + spread), np.full(d, lambda_mean - spread)])
    C = np.zeros((2, d))
    constants = ProblemConstants(
        L=lambda_mean + spread,
        f_star=0.0,
        mu_pl=lambda_mean,
        mu_rsi=lambda_mean,
        tau_wqc=1.0,
    )
    return FiniteSumProblem.from_affine(D, C, np.asarray(x_star, dtype=float),
                                        constants)


# -- closed forms and numeric checks ---------------------------------------


def expected_value_ou(problem: FiniteSumProblem, x0, h: float,
                      sigma_star_sq: float, t) -> float | np.ndarray:
    """Exact E[f(X(t)) - f*] for the diffusion on an isotropic quadratic.

    With f = (mu/2)|x - x*|² and constant isotropic volatility the diffusion is
    an Ornstein-Uhlenbeck process and

        E[f(X(t)) - f*] = (f(x0) - f*) e^{-2 mu t} + (h d sigma*² / 4) (1 - e^{-2 mu t}),

    which starts at f(x0) - f*, is monotone toward the stationary level
    h·d·sigma*²/4, and equals it in the t -> ∞ limit.
    """
    if problem.affine is None or not problem.has_constant_mb_covariance:
        raise ValueError("closed form requires the isotropic quadratic family")
    H = problem.affine.D[0]
    if np.any(H != H[0]) or H[0] <= 0:
        raise ValueError("closed form requires an isotropic quadratic "
                         f"(got curvature diagonal {H})")
    mu = float(H[0])
    gap0 = problem.gap(np.asarray(x0, dtype=float))
    t = np.asarray(t, dtype=float)
    decay = np.exp(-2.0 * mu * t)
    ball = h * problem.d * sigma_star_sq / 4.0
    out = gap0 * decay + ball * (1.0 - decay)
    return out[()] if out.ndim == 0 else out


@dataclass(frozen=True)
class ClassReport:
    """Result of a random spot-check of a declared function-class inequality."""

    class_name: str
    passes: bool
    worst_slack: float
    n_samples: int


def verify_class(problem: FiniteSumProblem, cls: str, n_samples: int,
                 radius: float, rng: np.random.Generator) -> ClassReport:
    """Spot-check a declared inequality on random points in a ball around x*.

    cls = "WQC":  <grad f(x), x - x*>  >=  tau (f(x) - f*)
    cls = "PL":   1/2 |grad f(x)|²     >=  mu_pl (f(x) - f*)
    cls = "RSI":  <grad f(x), x - x*>  >=  mu_rsi |x - x*|²

    Passes iff the worst slack (lhs - rhs) over the sample is >= -1e-9.
    """
    c = problem.constants
    needed = {"WQC": c.tau_wqc, "PL": c.mu_pl, "RSI": c.mu_rsi}
    if cls not in needed:
        raise ValueError(f"unknown class {cls!r}; expected WQC, PL or RSI")
    const = needed[cls]
    if const is None:
        raise ValueError(f"problem does not declare the constant needed for {cls}")
    worst = np.inf
    for _ in range(n_samples):
        u = rng.standard_normal(problem.d)
        u *= radius * rng.random() ** (1.0 / problem.d) / np.linalg.norm(u)
        x = problem.x_star + u
        g = problem.grad(x)
        if cls == "WQC":
            slack = g @ (x - problem.x_star) - const * problem.gap(x)
        elif cls == "PL":
            slack = 0.5 * g @ g - const * problem.gap(x)
        else:
            slack = g @ (x - problem.x_star) - const * (u @ u)
        worst = min(worst, float(slack))
    return ClassReport(class_name=cls, passes=worst >= -1e-9,
                       worst_slack=worst, n_samples=n_samples)
