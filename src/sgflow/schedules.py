"""Learning-rate, batch-size and staleness schedules, and the time warp they induce.

The stepsize of every algorithm in this package is factored as ``eta_k = h * psi_k``
where ``h`` is a fixed discretization stepsize and ``psi`` is a nonincreasing
*adjustment function* with ``psi(0) = 1``.  Two families are supported:

* ``constant`` —  psi(t) = 1;
* ``power(a)`` —  psi(t) = (1 + t)^(-a)  with  a in (0, 1].

The discrete weights are read off the continuous function on the step grid,
``psi_k = psi(h*k)``.  Each schedule value has one scalar formula per
family, a function of one Python float, whatever the argument's shape:
``int``, ``float`` and ``np.float64`` arguments are checked and run it
directly; any other argument is checked once, as a whole, and the formula is
mapped over its elements (``tolist()``), with no per-element method call
or ``np.float64`` result in between, so an array of n values costs n formula
evaluations and a 0-d array gives the scalar result.
The formulas take the C library's scalar functions, never NumPy's array
``power``, ``log1p`` or ``expm1``, whose vector loops (and the ``sqrt``,
``square`` and ``reciprocal`` that array ``power`` takes for the exponents
1/2, 2 and -1) round differently by an ulp.  So no schedule value depends on
the SIMD level NumPy dispatches to; what is left of the host is the C
library's own choice of implementation (glibc picks FMA variants at load
time).  Results are ``np.float64`` (the float ``1.0`` for a constant psi, an
``int`` for ``size_at_step``), or arrays of the argument's shape.  Overflow
gives ``inf``, as NumPy scalar arithmetic does.

The running integral ``phi(t) = ∫_0^t psi(s) ds`` acts as a deformed clock: every
convergence rate in :mod:`sgflow.bounds` is a function of ``phi(t)`` rather than
of ``t`` itself.  Its inverse ``phi_inverse`` is the time warp used by the
time-changed process in :mod:`sgflow.continuous`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import partial

import numpy as np

__all__ = [
    "AdjustmentSchedule",
    "BatchSchedule",
    "StalenessSchedule",
    "phi",
    "phi_inverse",
    "discrete_phi",
    "randomized_index",
    "randomized_time",
    "record_steps",
]

# Exact argument types the formulas take directly; every other argument is
# mapped over its elements by _each.
_SCALARS = (int, float, np.float64)


def _each(scalar, formula, x, message: str, dtype=float):
    """``formula`` over the elements of array-like ``x``, in x's shape.

    ``x`` is checked once: an element below 0 raises ValueError(message)
    (NaN passes, as it does the scalar check).  ``formula`` takes each
    element as a Python float.  A 0-d argument gives ``scalar``'s own result.
    """
    x = np.asarray(x, dtype=float)
    if x.ndim == 0:
        return scalar(float(x))
    if np.any(x < 0):
        raise ValueError(message)
    return np.array([formula(v) for v in x.ravel().tolist()],
                    dtype=dtype).reshape(x.shape)


def _pow(x: float, y: float) -> float:
    """The C library's pow; overflow gives inf, as NumPy scalar arithmetic does."""
    try:
        return math.pow(x, y)
    except OverflowError:
        return math.inf


def _expm1(x: float) -> float:
    """The C library's expm1; overflow gives inf."""
    try:
        return math.expm1(x)
    except OverflowError:
        return math.inf


@dataclass(frozen=True)
class AdjustmentSchedule:
    """Stepsize decomposition eta_k = h * psi_k.

    Parameters
    ----------
    h : float
        Discretization stepsize (equals eta_0, since psi(0) = 1).
    family : str
        Either ``"constant"`` or ``"power"``.
    a : float, optional
        Decay exponent for the power family; must lie in (0, 1].
    """

    h: float
    family: str = "constant"
    a: float | None = None

    def __post_init__(self) -> None:
        if not (self.h > 0 and np.isfinite(self.h)):
            raise ValueError(f"stepsize h must be positive and finite, got {self.h}")
        if self.family not in ("constant", "power"):
            raise ValueError(f"unknown adjustment family {self.family!r}; "
                             "expected 'constant' or 'power'")
        if self.family == "power":
            if self.a is None or not (0.0 < self.a <= 1.0):
                raise ValueError(f"power family needs exponent a in (0, 1], got {self.a}")
        elif self.a is not None:
            raise ValueError("exponent a is only meaningful for the power family")

    def _psi_formula(self):
        """psi as a function of a float t >= 0: the family's one formula."""
        if self.family == "constant":
            return lambda t: 1.0
        e = -self.a
        return lambda t: math.pow(1.0 + t, e)

    def psi(self, t):
        """Adjustment value psi(t); accepts scalars or arrays, requires t >= 0."""
        if type(t) not in _SCALARS:
            return _each(self.psi, self._psi_formula(), t,
                         "psi is only defined for t >= 0")
        if t < 0:
            raise ValueError("psi is only defined for t >= 0")
        psi = self._psi_formula()(t)
        return psi if self.family == "constant" else np.float64(psi)

    def psi_k(self, k):
        """Discrete weight psi_k = psi(h*k) for step index k >= 0."""
        if type(k) not in _SCALARS:
            psi, h = self._psi_formula(), self.h
            return _each(self.psi_k, lambda k: psi(h * k), k,
                         "step index must be >= 0")
        if k < 0:
            raise ValueError("step index must be >= 0")
        return self.psi(self.h * float(k))

    def eta_k(self, k):
        """Stepsize eta_k = h * psi_k."""
        return self.h * self.psi_k(k)


@dataclass(frozen=True)
class BatchSchedule:
    """Mini-batch size as a function of time.

    ``constant`` keeps b(t) = b; ``linear-growth`` uses b(t) = b0 + rate*t.
    Discrete algorithms round b(h*k) half-up to an integer >= 1; the diffusion
    integrators use the unrounded value.
    """

    family: str = "constant"
    b: int = 1
    b0: float = 1.0
    rate: float = 0.0

    def __post_init__(self) -> None:
        if self.family not in ("constant", "linear-growth"):
            raise ValueError(f"unknown batch family {self.family!r}; "
                             "expected 'constant' or 'linear-growth'")
        if self.family == "constant":
            if not (isinstance(self.b, (int, np.integer)) and self.b >= 1):
                raise ValueError(f"constant batch size must be an integer >= 1, got {self.b}")
        else:
            if self.b0 < 1.0:
                raise ValueError("linear-growth batch requires b0 >= 1")
            if self.rate < 0.0:
                raise ValueError("linear-growth batch requires rate >= 0")

    def _value_formula(self):
        """b as a function of a float t >= 0: the family's one formula."""
        if self.family == "constant":
            b = float(self.b)
            return lambda t: b
        b0, rate = self.b0, self.rate
        return lambda t: b0 + rate * t

    def _size_formula(self, h: float):
        """b_k as a function of a float step index k >= 0."""
        value = self._value_formula()

        def size(k):
            t = k * h
            if t < 0:
                raise ValueError("batch schedule is only defined for t >= 0")
            v = value(t)
            if not v < 2.0 ** 63:
                raise ValueError(f"batch size b(h k) at step k={k:g} is {v}, "
                                 "not below 2**63")
            return max(math.floor(v + 0.5), 1)
        return size

    def value(self, t):
        """Unrounded b(t) >= 1 (used by the SDE integrators)."""
        if type(t) not in _SCALARS:
            return _each(self.value, self._value_formula(), t,
                         "batch schedule is only defined for t >= 0")
        if t < 0:
            raise ValueError("batch schedule is only defined for t >= 0")
        return np.float64(self._value_formula()(float(t)))

    def size_at_step(self, k, h: float):
        """Integer batch size b_k = round-half-up(b(h*k)), clamped to >= 1.

        Raises ValueError where b(h*k) is 2**63 or more, infinite or NaN:
        no int64 holds that batch size.
        """
        if type(k) not in _SCALARS:
            return _each(partial(self.size_at_step, h=h), self._size_formula(h),
                         k, "batch schedule is only defined for t >= 0",
                         dtype=int)
        return self._size_formula(h)(float(k))


@dataclass(frozen=True)
class StalenessSchedule:
    """Sawtooth staleness xi(t) = t mod T_epoch with T_epoch = m * h.

    ``m`` is the epoch length in steps; the delayed state referenced by the
    variance-reduced diffusion at time t is the state at t - xi(t), i.e. the
    most recent epoch start.
    """

    m: int
    h: float
    epoch_time: float = field(init=False)

    def __post_init__(self) -> None:
        if not (isinstance(self.m, (int, np.integer)) and self.m >= 1):
            raise ValueError(f"epoch length m must be an integer >= 1, got {self.m}")
        if not (self.h > 0):
            raise ValueError("stepsize h must be positive")
        object.__setattr__(self, "epoch_time", self.m * self.h)

    def grid_steps(self, dt: float) -> int:
        """Grid steps of size dt per epoch; the epoch must span a whole number."""
        ratio = self.epoch_time / dt
        if abs(ratio - round(ratio)) > 1e-9 or round(ratio) < 1:
            raise ValueError(
                f"epoch time {self.epoch_time} must be a positive "
                f"multiple of dt={dt} so delayed states lie on the grid")
        return int(round(ratio))

    def xi(self, t):
        """Staleness xi(t) = t mod (m*h), in [0, m*h)."""
        t = np.asarray(t, dtype=float)
        if np.any(t < 0):
            raise ValueError("staleness is only defined for t >= 0")
        out = np.mod(t, self.epoch_time)
        return out[()] if out.ndim == 0 else out


def record_steps(n_steps: int, record_every: int = 1,
                 record_ks=None) -> np.ndarray:
    """The step indices a run of n_steps records.

    ``record_ks`` if given (non-empty, strictly increasing, within
    [0, n_steps]), else every ``record_every``-th step and the last.
    """
    if record_ks is not None:
        ks = np.asarray(record_ks, dtype=int)
        if ks.ndim != 1 or ks.size == 0 or np.any(np.diff(ks) <= 0):
            raise ValueError("record_ks must be a non-empty increasing index array")
        if ks[0] < 0 or ks[-1] > n_steps:
            raise ValueError(f"record_ks out of range [0, {n_steps}]")
        return ks
    if record_every < 1:
        raise ValueError("record_every must be >= 1")
    ks = np.arange(0, n_steps + 1, record_every)
    if ks[-1] != n_steps:
        ks = np.append(ks, n_steps)
    return ks


def phi(schedule: AdjustmentSchedule, t):
    """Deformed clock phi(t) = ∫_0^t psi(s) ds, in closed form.

    constant : phi(t) = t
    power(1) : phi(t) = log(1 + t)
    power(a) : phi(t) = ((1 + t)^(1-a) - 1) / (1 - a)      (a != 1)

    Strictly increasing with phi(0) = 0.
    """
    if type(t) not in _SCALARS:
        return _each(partial(phi, schedule), _phi_formula(schedule), t,
                     "phi is only defined for t >= 0")
    if t < 0:
        raise ValueError("phi is only defined for t >= 0")
    return np.float64(_phi_formula(schedule)(float(t)))


def _phi_formula(schedule: AdjustmentSchedule):
    """phi as a function of a float t >= 0: the family's one formula."""
    if schedule.family == "constant":
        return lambda t: t
    if schedule.a == 1.0:
        return math.log1p
    e = 1.0 - schedule.a
    return lambda t: (math.pow(1.0 + t, e) - 1.0) / e


def phi_inverse(schedule: AdjustmentSchedule, s):
    """Inverse warp tau(s) with phi(tau(s)) = s.

    Closed forms: constant -> s;  power(1) -> e^s - 1;
    power(a != 1) -> (1 + (1-a) s)^(1/(1-a)) - 1.
    """
    if type(s) not in _SCALARS:
        return _each(partial(phi_inverse, schedule),
                     _phi_inverse_formula(schedule), s,
                     "phi_inverse is only defined for s >= 0")
    if s < 0:
        raise ValueError("phi_inverse is only defined for s >= 0")
    return np.float64(_phi_inverse_formula(schedule)(float(s)))


def _phi_inverse_formula(schedule: AdjustmentSchedule):
    """phi_inverse as a function of a float s >= 0: the family's one formula."""
    if schedule.family == "constant":
        return lambda s: s
    if schedule.a == 1.0:
        return _expm1
    e = 1.0 - schedule.a
    return lambda s: _pow(1.0 + e * s, 1.0 / e) - 1.0


def phi_inverse_bisect(schedule: AdjustmentSchedule, s: float,
                       rel_tol: float = 1e-12) -> float:
    """Generic inverse of phi by bracketed bisection (cross-check for the closed forms)."""
    if s < 0:
        raise ValueError("phi_inverse is only defined for s >= 0")
    if s == 0.0:
        return 0.0
    hi = 1.0
    while phi(schedule, hi) < s:
        hi *= 2.0
        if hi > 1e300:
            raise ValueError(f"phi never reaches {s}")
    lo = 0.0
    while hi - lo > rel_tol * max(1.0, hi):
        mid = 0.5 * (lo + hi)
        if phi(schedule, mid) < s:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def discrete_phi(schedule: AdjustmentSchedule, k: int) -> float:
    """Discrete clock Phi_{k+1} = sum_{i=0}^{k} psi_i.

    Satisfies |h*Phi_{k+1} - phi(h*(k+1))| = O(h) (left Riemann sum of a
    nonincreasing integrand).
    """
    if k < 0:
        raise ValueError("step index must be >= 0")
    return float(np.sum(schedule.psi_k(np.arange(k + 1))))


def psi_prefix_sums(schedule: AdjustmentSchedule, k: int) -> np.ndarray:
    """Array [Phi_1, ..., Phi_{k+1}] of discrete-clock prefix sums (vectorized helper)."""
    if k < 0:
        raise ValueError("step index must be >= 0")
    return np.cumsum(schedule.psi_k(np.arange(k + 1)))


def randomized_index(schedule: AdjustmentSchedule, k: int, rng: np.random.Generator) -> int:
    """Random step index in {0..k} with P(i) = psi_i / Phi_{k+1}.

    This is the index distribution under which the randomized-iterate rate
    bounds hold; drawn by inverse CDF on the cumulative weights.
    """
    cum = psi_prefix_sums(schedule, k)
    u = rng.random() * cum[-1]
    return int(np.searchsorted(cum, u, side="right"))


def randomized_time(schedule: AdjustmentSchedule, t: float, rng: np.random.Generator) -> float:
    """Random time in [0, t] with density psi(s)/phi(t), via s = tau(U * phi(t))."""
    if t <= 0:
        raise ValueError("randomized_time needs t > 0")
    u = rng.random()
    return float(phi_inverse(schedule, u * phi(schedule, t)))
