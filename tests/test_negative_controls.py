"""Negative controls: known defects injected into the code must fail the gate.

Each mutant monkeypatches one defect into sgflow; each check is one of the
experiments the gate runs, at a small fixed size and seed, except
``bound-index``, which compares a bound's reference values with their closed
form on a noiseless run, ``wqc-last-scaling``, which rescales the objective
under a discrete bound, and ``jump-divergence``, which counts the paths of
a run that must all diverge, and ``fingerprint``, which compares the kernels'
golden digests with every eligible step on Python floats.  Every check must
pass on the real code (the positive control), and every (mutant, check) pair
listed in ``KILLS`` must fail.  The pairs not listed survive: the check cannot
see that defect at this size, and no test asserts either outcome for them.
Run this file as a script to print the whole kill matrix:

    PYTHONPATH=src python tests/test_negative_controls.py
"""

import inspect
import math
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest

import sgflow._kernels as knl
import sgflow.bounds as bounds
import sgflow.harness as harness
from sgflow.bounds import BoundInputs, RateBound
from sgflow.harness import (RunSpec, ball_experiment, ensemble_run,
                            time_change_experiment, verify_bound)
from sgflow.problems import (FiniteSumProblem, ProblemConstants,
                             make_isotropic_quadratic, make_perturbed_quadratic,
                             make_spread_quadratic)
from sgflow.schedules import AdjustmentSchedule, BatchSchedule, StalenessSchedule
from test_fingerprints import GOLDEN, _digests, _run

SEED = 271828

# -- checks: small fixed-size runs of the gate's experiments -------------------


def _ball(mode):
    problem = make_isotropic_quadratic(2.0, 2, sigma_star_sq=0.1)
    return ball_experiment(problem, h=0.01, b=1, dt=0.01, T_long=3.0,
                           n_paths=2000, seed=SEED + 1, mode=mode)


def check_ball_ct():
    return _ball("continuous")


def check_ball_dt():
    return _ball("discrete")


def check_time_change():
    problem = make_isotropic_quadratic(1.0, 1, sigma_star_sq=25.0)
    return time_change_experiment(problem, [2.0], h=1e-2, T_w=math.log(51),
                                  n_paths=200, seed=SEED + 2)


def check_pl_ct():
    problem = make_perturbed_quadratic([1.0, 2.0], [0.0, 0.0],
                                       [[0.5, 0.3], [-0.5, -0.3]])
    x0, adj = [1.0, 1.0], AdjustmentSchedule(h=0.25)
    spec = RunSpec(mode="mb-pgf", problem=problem, x0=x0, adj=adj, dt=0.05,
                   T=50.0, record_every=10)
    stats = ensemble_run(spec, 400, SEED + 3)
    return verify_bound(stats, RateBound("pl_ct",
                                         BoundInputs.from_problem(problem, x0, adj)))


def check_pl_dt():
    # criterion 4's shape (mini-batch SGD, h = 0.5/L, psi = (1+t)^(-1/2)) at
    # a tenth of its steps
    problem = make_perturbed_quadratic([1.0, 2.0], [0.0, 0.0],
                                       [[0.5, 0.3], [-0.5, -0.3]])
    x0, adj = [1.0, 1.0], AdjustmentSchedule(h=0.25, family="power", a=0.5)
    spec = RunSpec(mode="sgd", problem=problem, x0=x0, adj=adj, n_steps=200)
    stats = ensemble_run(spec, 400, SEED + 4)
    return verify_bound(stats, RateBound("pl_dt",
                                         BoundInputs.from_problem(problem, x0, adj)))


def check_vr_dt():
    # criterion 3's discrete shape: SVRG on the spread quadratic, 5 epochs of
    # m = 100 steps at h = 0.01, checked at every epoch mark
    problem, x0 = make_spread_quadratic(10.0, 1.0), [3.0]
    inputs = BoundInputs(d=1, L=1.0, f0_gap=problem.gap(np.array(x0)),
                         dist0_sq=9.0, adj=AdjustmentSchedule(h=0.01),
                         batch=BatchSchedule(), mu_rsi=10.0, m=100)
    spec = RunSpec(mode="svrg", problem=problem, x0=x0, h=0.01,
                   epoch_steps=100, n_epochs=5, record_every=100)
    return verify_bound(ensemble_run(spec, 500, SEED + 7), RateBound("vr_dt", inputs))


def check_bound_index():
    # noiseless gradient descent with psi = 1: the pl-dt bound on x_k is
    # (1 - mu h)^k f0 exactly, so the reference at checkpoint k must be that
    # value up to rounding; the cell shows the largest relative deviation
    problem = make_perturbed_quadratic([1.0, 2.0], [0.0, 0.0], np.zeros((1, 2)))
    x0, adj = [1.0, 1.0], AdjustmentSchedule(h=0.25)
    spec = RunSpec(mode="sgd", problem=problem, x0=x0, adj=adj, n_steps=200)
    inputs = BoundInputs.from_problem(problem, x0, adj)
    assert inputs.sigma_star_sq == 0.0
    report = verify_bound(ensemble_run(spec, 2, SEED + 5),
                          RateBound("pl_dt", inputs))
    closed = (1.0 - inputs.mu_pl * adj.h) ** report.checkpoints * inputs.f0_gap
    deviation = np.abs(report.reference / closed - 1.0).max()
    return SimpleNamespace(passed=bool(deviation <= 1e-12),
                           max_violation_se=float(deviation))


def check_wqc_last_scaling():
    # f -> f/c with h -> c h, L -> L/c and sigma*^2 -> sigma*^2/c^2 leaves the
    # SGD iterates unchanged, so c times the last-iterate bound at step 200
    # must keep its bits at c = 4 and 1/4; the cell shows the largest
    # relative change
    def scaled(c):
        inputs = BoundInputs(d=2, L=2.0 / c, f0_gap=1.3 / c, dist0_sq=2.0,
                             adj=AdjustmentSchedule(h=0.05 * c),
                             batch=BatchSchedule(b=2), sigma_star_sq=0.34 / c**2,
                             tau=1.0)
        return c * RateBound("wqc_last_dt", inputs).curve([200])[0]

    change = max(abs(scaled(c) / scaled(1.0) - 1.0) for c in (4.0, 0.25))
    return SimpleNamespace(passed=change == 0.0, max_violation_se=float(change))


def check_jump_divergence():
    # component curvatures 1 and 1e200: from x0 = 10 every path of the delay
    # diffusion overflows on the last step of its first two-step epoch, just
    # before a jump that lands it on a finite state; all must be flagged, and
    # the cell shows how many were counted as survivors
    problem = FiniteSumProblem.from_affine([[1.0], [1e200]], [[0.0], [0.0]],
                                           [0.0], ProblemConstants(L=1e200))
    gens = [np.random.default_rng(s)
            for s in np.random.SeedSequence(SEED + 6).spawn(50)]
    res = knl.kernel_vr_pgf(problem, StalenessSchedule(m=2, h=1e-3), [10.0],
                            1e-3, 6, gens, np.arange(7))
    survivors = int(np.count_nonzero(~res.diverged))
    return SimpleNamespace(passed=survivors == 0,
                           max_violation_se=float(survivors))


def check_fingerprint():
    # every kernel case of tests/test_fingerprints.py against its golden
    # digests, each eligible step on Python floats (the unweighted
    # time-changed cases); the cell shows how many cases changed
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(knl, "_NARROW_VALUES", 1 << 30)
        changed = sum(_digests(_run(case)) != GOLDEN[case] for case in GOLDEN)
    return SimpleNamespace(passed=changed == 0, max_violation_se=float(changed))


CHECKS = {"ball-ct": check_ball_ct, "ball-dt": check_ball_dt,
          "time-change": check_time_change, "pl-ct": check_pl_ct,
          "pl-dt": check_pl_dt, "vr-dt": check_vr_dt,
          "bound-index": check_bound_index,
          "wqc-last-scaling": check_wqc_last_scaling,
          "jump-divergence": check_jump_divergence,
          "fingerprint": check_fingerprint}


# -- mutants: one defect each, patched in with monkeypatch ---------------------


def volatility_x1_5(monkeypatch):
    """Every constant volatility matrix 1.5 times too large."""
    real = knl._pgd_constant_sigma

    def scaled(problem, volatility_mode):
        sig = real(problem, volatility_mode)
        return None if sig is None else 1.5 * sig

    monkeypatch.setattr(knl, "_pgd_constant_sigma", scaled)


def no_sqrt_h(monkeypatch):
    """The diffusion kernels' volatility without its sqrt(h) factor.

    Each kernel's code is swapped on the function object itself, so every
    caller sees the defect, also one that imported the kernel by name.
    """
    for kernel, term, dropped in ((knl.kernel_mb_pgf, "adj.h / ", "1.0 / "),
                                  (knl.kernel_time_changed, "adj.h * ", "")):
        source = inspect.getsource(kernel)
        assert source.count(term) == 1
        namespace = dict(vars(knl))
        exec(source.replace(term, dropped), namespace)
        monkeypatch.setattr(kernel, "__code__", namespace[kernel.__name__].__code__)


def ball_bound_halved(monkeypatch):
    """The convergence-ball level the ball experiment checks against, halved."""
    real = harness.ball_bound
    monkeypatch.setattr(harness, "ball_bound",
                        lambda inputs, mode: 0.5 * real(inputs, mode))


def identity_warp(monkeypatch):
    """The time-change experiment's clock inverse replaced by the identity."""
    monkeypatch.setattr(harness, "phi_inverse", lambda adj, s: s)


def bound_one_step_ahead(monkeypatch):
    """Discrete last-iterate bounds for x_k evaluated at k, not k - 1."""
    for kind in ("wqc_last_dt", "pl_dt"):
        monkeypatch.setitem(bounds._KINDS, kind, replace(bounds._KINDS[kind], lag=0))


def wqc_last_unscaled_phi(monkeypatch):
    """The discrete last-iterate noise weights 1 + tau L Phi_{i+1}, where the
    continuous bound's phi(ih) is about h Phi_{i+1}."""
    source = inspect.getsource(bounds.bound_discrete_curve)
    assert "tau * L * h * big_phi" in source
    namespace = dict(vars(bounds))
    exec(source.replace("tau * L * h * big_phi", "tau * L * big_phi"), namespace)
    monkeypatch.setattr(bounds, "bound_discrete_curve",
                        namespace["bound_discrete_curve"])


def no_pre_jump_check(monkeypatch):
    """Epoch-end jumps with no divergence test of the pre-jump state."""
    real = knl._epoch_jump

    def unchecked_jump(rec, k, X, window, gens):
        return real(SimpleNamespace(check=lambda k, X: None), k, X, window, gens)

    monkeypatch.setattr(knl, "_epoch_jump", unchecked_jump)


def _in_svrg(monkeypatch, name, mutate):
    """``knl.<name>`` replaced by ``mutate(real)`` inside SVRG kernel calls only."""
    real_kernel, real = knl.kernel_svrg, getattr(knl, name)

    def mutant(*args, **kwargs):
        setattr(knl, name, mutate(real))  # for this kernel call only
        try:
            return real_kernel(*args, **kwargs)
        finally:
            setattr(knl, name, real)

    monkeypatch.setattr(knl, "kernel_svrg", mutant)


def svrg_frozen_pivot(monkeypatch):
    """Every SVRG epoch's pivot held at x0, not moved to the epoch's start."""
    def frozen(real):
        def loop(problem, x0, gens, *args):
            *args, epoch = args
            start = np.tile(np.asarray(x0, dtype=float), (len(gens), 1))
            return real(problem, x0, gens, *args, lambda _: epoch(start))
        return loop

    _in_svrg(monkeypatch, "_epoch_loop", frozen)


def svrg_jump_to_start(monkeypatch):
    """Each SVRG epoch-end jump landing on the epoch's first state."""
    def to_start(real):
        def jump(rec, k, X, window, gens):
            real(rec, k, X, window, gens)  # the pre-jump test and the draws
            return window[:, 0].copy()
        return jump

    _in_svrg(monkeypatch, "_epoch_jump", to_start)


def narrow_reassociated(monkeypatch):
    """The diffusion step on Python floats as (x + g) + z, not x + (g + z)."""
    real = knl._em_combine

    def reassociated(x, g, z):
        return (x + g) + z if type(x) is float else real(x, g, z)

    monkeypatch.setattr(knl, "_em_combine", reassociated)


MUTANTS = {"volatility-x1.5": volatility_x1_5, "no-sqrt-h": no_sqrt_h,
           "ball-bound-halved": ball_bound_halved,
           "identity-warp": identity_warp,
           "bound-at-k": bound_one_step_ahead,
           "wqc-last-unscaled-phi": wqc_last_unscaled_phi,
           "no-pre-jump-check": no_pre_jump_check,
           "svrg-frozen-pivot": svrg_frozen_pivot,
           "svrg-jump-to-start": svrg_jump_to_start,
           "narrow-reassociated": narrow_reassociated}

# the (mutant, check) pairs whose check fails; every other pair survives
KILLS = [
    ("volatility-x1.5", "ball-ct"),
    ("volatility-x1.5", "ball-dt"),
    ("volatility-x1.5", "fingerprint"),
    ("no-sqrt-h", "ball-ct"),
    ("no-sqrt-h", "fingerprint"),
    ("ball-bound-halved", "ball-ct"),
    ("identity-warp", "time-change"),
    ("bound-at-k", "bound-index"),
    ("wqc-last-unscaled-phi", "wqc-last-scaling"),
    ("no-pre-jump-check", "jump-divergence"),
    ("svrg-frozen-pivot", "vr-dt"),
    ("svrg-jump-to-start", "vr-dt"),
    ("narrow-reassociated", "fingerprint"),
]


@pytest.mark.parametrize("check", sorted(CHECKS))
def test_check_passes_without_a_defect(check):
    assert CHECKS[check]().passed


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("mutant,check", KILLS,
                         ids=[f"{m}-{c}" for m, c in KILLS])
def test_defect_fails_the_check(mutant, check, monkeypatch):
    MUTANTS[mutant](monkeypatch)
    assert not CHECKS[check]().passed


if __name__ == "__main__":
    # each cell: the verdict and the check's worst violation in SE
    print(f"{'mutant':20s}" + "".join(f"{c:>18s}" for c in CHECKS))
    for name in [None] + list(MUTANTS):
        with pytest.MonkeyPatch.context() as mp:
            if name is not None:
                MUTANTS[name](mp)
            with np.errstate(all="ignore"):
                reports = [CHECKS[c]() for c in CHECKS]
        row = [f"{'pass' if r.passed else 'FAIL'} {r.max_violation_se:+.3g}"
               for r in reports]
        print(f"{name or '(none)':20s}" + "".join(f"{c:>18s}" for c in row))
