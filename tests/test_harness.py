"""Ensemble runner, statistics, and the verification experiments.

Determinism claims are asserted bitwise: the same (spec, seed) pair must give
the same statistics whether the kernel steps the whole block of paths or one
path at a time, whether or not the noise is chunked, and across repeated
calls.  Bound verification
is pinned with hand-built ensembles whose moments are known exactly.
"""

import hashlib
import json
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

import reference
import sgflow.harness as harness
from sgflow import _kernels
from sgflow.bounds import AdmissibilityError, BoundInputs, RateBound, bound_discrete
from sgflow.discrete import run_pgd, run_svrg_option2
from sgflow.harness import (
    EnsembleDivergenceError,
    EnsembleStats,
    RunSpec,
    ball_experiment,
    ensemble_run,
    geometric_checkpoints,
    landscape_stretch_experiment,
    pl_supermartingale_probe,
    time_change_experiment,
    verify_bound,
    weak_error_experiment,
)
from sgflow.harness import _kernel_dispatch, _run_one_path
from sgflow.problems import (
    FiniteSumProblem,
    ProblemConstants,
    make_isotropic_quadratic,
    make_perturbed_quadratic,
    make_spread_quadratic,
)
from sgflow.schedules import AdjustmentSchedule, BatchSchedule, StalenessSchedule

seed = 271828


def per_path_engine(monkeypatch):
    """Make ensemble_run run its kernel one path at a time, as the simulators do."""
    monkeypatch.setattr(harness, "_kernel_dispatch",
                        reference.one_path_at_a_time(harness._kernel_dispatch))

H_DIAG = np.array([1.0, 2.0])
NOISE = np.array([[0.5, 0.3], [-0.5, -0.3]])
X_STAR = np.array([0.25, -1.0])
X0 = np.array([2.0, -3.0])


def noisy_problem():
    return make_perturbed_quadratic(H_DIAG, X_STAR, NOISE)


def sgd_spec(**over):
    base = dict(mode="sgd", problem=noisy_problem(), x0=X0,
                adj=AdjustmentSchedule(h=0.25), n_steps=20)
    base.update(over)
    return RunSpec(**base)


# -- RunSpec -----------------------------------------------------------------


def test_run_spec_defaults_and_geometry():
    spec = sgd_spec()
    assert spec.batch.family == "constant" and spec.batch.b == 1
    assert spec.volatility_mode == "exact"
    assert spec.total_steps == 20
    assert spec.grid_spacing == 0.25

    tc = RunSpec(mode="time-changed", problem=make_isotropic_quadratic(
        1.0, 1, sigma_star_sq=0.25), x0=[1.0],
        adj=AdjustmentSchedule(h=0.1, family="power", a=1.0), dt=0.05, T=1.0)
    assert tc.volatility_mode == "constant"
    assert tc.total_steps == 20
    assert tc.grid_spacing == 0.05

    sv = RunSpec(mode="svrg", problem=noisy_problem(), x0=X0, h=0.1,
                 epoch_steps=4, n_epochs=3)
    assert sv.total_steps == 12
    assert sv.grid_spacing == 0.1


@pytest.mark.parametrize("over, message", [
    (dict(mode="annealed"), "unknown mode"),
    (dict(adj=None), "needs adj"),
    (dict(n_steps=None), "needs adj"),
])
def test_run_spec_rejects_bad_sgd_config(over, message):
    with pytest.raises(ValueError, match=message):
        sgd_spec(**over)


def test_run_spec_per_mode_requirements():
    p = noisy_problem()
    with pytest.raises(ValueError, match="needs adj, dt and T"):
        RunSpec(mode="mb-pgf", problem=p, x0=X0, adj=AdjustmentSchedule(h=0.1))
    with pytest.raises(ValueError, match="needs h, epoch_steps and n_epochs"):
        RunSpec(mode="svrg", problem=p, x0=X0, h=0.1, epoch_steps=4)
    with pytest.raises(ValueError, match="needs staleness, dt and T"):
        RunSpec(mode="vr-pgf", problem=make_spread_quadratic(3.0, 1.0),
                x0=[1.0], dt=0.01, T=0.1)


@pytest.mark.parametrize("mode", ["svrg", "vr-pgf", "time-changed"])
def test_run_spec_weights_only_for_weighted_guarantees(mode):
    kwargs = dict(mode=mode, x0=[1.0], weights=True)
    if mode == "svrg":
        kwargs.update(problem=make_spread_quadratic(3.0, 1.0), h=0.1,
                      epoch_steps=2, n_epochs=2)
    elif mode == "vr-pgf":
        kwargs.update(problem=make_spread_quadratic(3.0, 1.0),
                      staleness=StalenessSchedule(m=2, h=0.01), dt=0.01, T=0.1)
    else:
        kwargs.update(problem=make_isotropic_quadratic(1.0, 1, sigma_star_sq=0.25),
                      adj=AdjustmentSchedule(h=0.1), dt=0.05, T=0.5)
    with pytest.raises(ValueError, match="weighted averages"):
        RunSpec(**kwargs)


def test_resolved_record_ks():
    spec = sgd_spec(record_every=3)
    assert np.array_equal(spec.resolved_record_ks(), [0, 3, 6, 9, 12, 15, 18, 20])
    spec = sgd_spec(record_ks=np.array([0, 5, 20]))
    assert np.array_equal(spec.resolved_record_ks(), [0, 5, 20])
    for bad in ([], [5, 5], [3, 1], [-1, 5], [0, 21]):
        with pytest.raises(ValueError):
            sgd_spec(record_ks=np.array(bad, dtype=int)).resolved_record_ks()


def test_geometric_checkpoints():
    cp = geometric_checkpoints(100_000, 30)
    assert cp[0] == 1 and cp[-1] == 100_000
    assert np.all(np.diff(cp) > 0)
    assert len(cp) <= 30
    assert np.array_equal(geometric_checkpoints(5, 30), [1, 2, 3, 4, 5])
    assert geometric_checkpoints(50, 10, start=7)[0] == 7
    with pytest.raises(ValueError):
        geometric_checkpoints(2, 10, start=5)
    for n in (0, -1):
        with pytest.raises(ValueError, match=f"n_checkpoints must be >= 1, got {n}"):
            geometric_checkpoints(50, n)


# -- ensemble statistics -----------------------------------------------------


def test_ensemble_run_needs_two_paths():
    with pytest.raises(ValueError, match="n_paths >= 2"):
        ensemble_run(sgd_spec(), 1, seed)


def test_ensemble_run_is_deterministic():
    spec = sgd_spec(weights=True)
    a = ensemble_run(spec, 12, seed)
    b = ensemble_run(spec, 12, seed)
    assert set(a.mean) == {"f_gap", "grad_norm_sq", "dist_sq", "state",
                           "f_gap_wavg", "grad_norm_sq_wavg"}
    for key in a.mean:
        assert np.array_equal(a.mean[key], b.mean[key])
        assert np.array_equal(a.variance[key], b.variance[key])
    c = ensemble_run(spec, 12, seed + 1)
    assert not np.array_equal(a.mean["f_gap"], c.mean["f_gap"])


def parity_specs():
    iso = make_isotropic_quadratic(1.0, 2, sigma_star_sq=0.2)
    return [
        ("sgd", sgd_spec(weights=True), True),
        ("pgd", RunSpec(mode="pgd", problem=iso, x0=X0,
                        adj=AdjustmentSchedule(h=0.2), n_steps=20), True),
        ("mb-pgf", RunSpec(mode="mb-pgf", problem=iso, x0=X0,
                           adj=AdjustmentSchedule(h=0.2, family="power", a=1.0),
                           dt=0.02, T=0.4, weights=True,
                           volatility_mode="constant"), True),
        ("time-changed", RunSpec(mode="time-changed", problem=iso, x0=X0,
                                 adj=AdjustmentSchedule(h=0.2, family="power",
                                                        a=1.0),
                                 dt=0.02, T=0.4), True),
        ("svrg", RunSpec(mode="svrg", problem=noisy_problem(), x0=X0, h=0.05,
                         epoch_steps=3, n_epochs=4), True),
        ("vr-pgf", RunSpec(mode="vr-pgf", problem=make_spread_quadratic(3.0, 1.0),
                           x0=[1.5], staleness=StalenessSchedule(m=2, h=0.01),
                           dt=0.01, T=0.08), False),
    ]


@pytest.mark.parametrize("name, spec, exact_bits",
                         [pytest.param(*row, id=row[0]) for row in parity_specs()])
def test_kernel_and_fallback_agree(name, spec, exact_bits, monkeypatch):
    fast = ensemble_run(spec, 8, seed)
    per_path_engine(monkeypatch)
    slow = ensemble_run(spec, 8, seed)
    assert np.array_equal(fast.grid, slow.grid)
    assert set(fast.mean) == set(slow.mean)
    for key in fast.mean:
        if exact_bits:
            # equal_nan: the weighted averages are NaN at t = 0 by contract
            assert np.array_equal(fast.mean[key], slow.mean[key],
                                  equal_nan=True), (name, key)
            assert np.array_equal(fast.variance[key], slow.variance[key],
                                  equal_nan=True)
        else:
            assert fast.mean[key] == pytest.approx(slow.mean[key],
                                                   rel=1e-9, abs=1e-12)


def test_zero_noise_ensemble_has_zero_variance():
    quiet = make_isotropic_quadratic(1.0, 2)  # single component, no noise
    spec = RunSpec(mode="sgd", problem=quiet, x0=X0,
                   adj=AdjustmentSchedule(h=0.5), n_steps=10)
    stats = ensemble_run(spec, 5, seed)
    assert np.all(stats.variance["f_gap"] == 0.0)
    assert np.all(stats.se("f_gap") == 0.0)
    assert np.all(stats.variance["state"] == 0.0)
    # h = 1/L halves the offset every step
    assert stats.mean["dist_sq"][-1] == pytest.approx(
        0.25 ** 10 * float((X0 - quiet.x_star) @ (X0 - quiet.x_star)), rel=1e-12)


def stiff_problem():
    # drawing component 1 overflows within two steps at h = 1; drawing
    # component 0 first snaps the iterate onto x* for good
    D = np.array([[1.0], [1e200]])
    return FiniteSumProblem.from_affine(D, np.zeros((2, 1)), np.zeros(1),
                                        ProblemConstants(L=1e200))


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("kernel", [True, False])
def test_diverged_paths_are_excluded(kernel, monkeypatch):
    if not kernel:
        per_path_engine(monkeypatch)
    spec = RunSpec(mode="sgd", problem=stiff_problem(), x0=[10.0],
                   adj=AdjustmentSchedule(h=1.0), n_steps=2)
    n = 300
    stats = ensemble_run(spec, n, seed)
    # divergence happens exactly when the first two draws both hit the stiff
    # component: probability 1/4
    assert 0 < stats.divergence_count < n // 2
    assert stats.n_paths == n - stats.divergence_count
    # every surviving path ends exactly at x* = 0
    assert stats.mean["dist_sq"][-1] == 0.0
    assert stats.variance["dist_sq"][-1] == 0.0


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("kernel", [True, False])
def test_majority_divergence_raises(kernel, monkeypatch):
    if not kernel:
        per_path_engine(monkeypatch)
    hopeless = FiniteSumProblem.from_affine(
        np.array([[1e200]]), np.zeros((1, 1)), np.zeros(1),
        ProblemConstants(L=1e200))
    spec = RunSpec(mode="sgd", problem=hopeless, x0=[10.0],
                   adj=AdjustmentSchedule(h=1.0), n_steps=3)
    with pytest.raises(EnsembleDivergenceError):
        ensemble_run(spec, 4, seed)


def _strict(fn):
    """fn, raising on a non-finite argument as a user's callable may."""
    def checked(x):
        if not np.all(np.isfinite(x)):
            raise FloatingPointError("callable evaluated at a diverged point")
        return fn(x)
    return checked


def _strict_callable(problem):
    """The problem given through callables that raise on non-finite points."""
    comps = [(_strict(lambda x, i=i: problem.component_value(i, x)),
              _strict(lambda x, i=i: problem.component_grad(i, x)))
             for i in range(problem.n_components)]
    return FiniteSumProblem(d=problem.d, x_star=problem.x_star,
                            constants=problem.constants, components=comps)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_diverging_callable_family_is_truncated_without_an_error():
    # the row loops never pass a diverged state to a user's callable, so a
    # diverging path ends as the reference loop ends it
    p = _strict_callable(noisy_problem())
    adj = AdjustmentSchedule(h=1e155)  # the second step overflows
    tr = run_pgd(p, adj, BatchSchedule(), X0, 5, np.random.default_rng(seed))
    ref = reference.run_pgd(p, adj, BatchSchedule(), X0, 5,
                            np.random.default_rng(seed))
    assert tr.diverged and tr.divergence_step == ref.divergence_step == 2
    for key in ("times", "states", "f_gap", "grad_norm_sq", "dist_sq"):
        assert np.array_equal(getattr(tr, key), getattr(ref, key)), key

    # an ensemble in which about a quarter of the paths diverge
    spec = RunSpec(mode="sgd", problem=_strict_callable(stiff_problem()),
                   x0=[10.0], adj=AdjustmentSchedule(h=1.0), n_steps=2)
    n = 40
    stats = ensemble_run(spec, n, seed)
    gens = [np.random.default_rng(s)
            for s in np.random.SeedSequence(seed).spawn(n)]
    diverged = [reference.run_one_path(spec, g).diverged for g in gens]
    assert stats.divergence_count == sum(diverged) > 0
    assert stats.mean["dist_sq"][-1] == 0.0


def test_run_one_path_dispatch_matches_direct_call():
    p = noisy_problem()
    spec = RunSpec(mode="svrg", problem=p, x0=X0, h=0.05, epoch_steps=3,
                   n_epochs=2)
    tr = _run_one_path(spec, np.random.default_rng(seed))
    ref = run_svrg_option2(p, 0.05, 3, 2, X0, np.random.default_rng(seed))
    assert np.array_equal(tr.states, ref.states)
    assert np.array_equal(tr.jump_flags, ref.jump_flags)


def test_run_one_path_records_path_0_of_the_ensemble(monkeypatch):
    # a single path records on its spec's grid, record_ks included, exactly
    # where path 0 of ensemble_run at the same seed records
    spec = sgd_spec(n_steps=50, record_ks=np.array([0, 3, 10, 49, 50]))
    runs = []
    real = harness._kernel_dispatch
    monkeypatch.setattr(harness, "_kernel_dispatch",
                        lambda *a, **kw: runs.append(real(*a, **kw)) or runs[-1])
    ensemble_run(spec, 3, seed)
    rng = np.random.default_rng(np.random.SeedSequence(seed).spawn(1)[0])
    tr = _run_one_path(spec, rng)
    assert np.array_equal(tr.times, [0.0, 0.75, 2.5, 12.25, 12.5])
    assert np.array_equal(tr.states, runs[0].states[0])

    # over 200 steps, on 8 paths: sgd and a scalar volatility give path 0's
    # bits; a matrix volatility's noise product rounds apart by up to 2^-53
    # (pgd) and 2^-52 (mb-pgf) on these states, of size up to 3
    iso = make_isotropic_quadratic(1.0, 2, sigma_star_sq=0.2)
    cases = [(sgd_spec(n_steps=200), 0.0)]
    for problem, atol in ((iso, 0.0), (noisy_problem(), 2.0 ** -52)):
        cases += [(sgd_spec(mode="pgd", problem=problem, n_steps=200), atol),
                  (sgd_spec(mode="mb-pgf", problem=problem, n_steps=None,
                            dt=0.05, T=10.0), atol)]
    for spec, atol in cases:
        ks = spec.resolved_record_ks()
        gens = [np.random.default_rng(s)
                for s in np.random.SeedSequence(seed).spawn(8)]
        path_0 = _kernel_dispatch(spec, gens, ks).states[0]
        rng = np.random.default_rng(np.random.SeedSequence(seed).spawn(1)[0])
        one = _run_one_path(spec, rng).states
        assert one.shape == path_0.shape == (201, 2)
        assert np.max(np.abs(one - path_0)) <= atol, spec.mode


# -- the engine --------------------------------------------------------------


def test_kernel_errors_are_not_swallowed(monkeypatch):
    # a kernel that fails must fail the run, with its own error
    def broken(*args, **kwargs):
        raise ValueError("injected kernel failure")

    monkeypatch.setattr(_kernels, "kernel_mb_sgd", broken)
    with pytest.raises(ValueError, match="injected kernel failure"):
        ensemble_run(sgd_spec(), 4, seed)


def _callable_problem():
    # the perturbed quadratic given through callables: no affine parts
    p = noisy_problem()
    comps = [(lambda x, i=i: p.component_value(i, x),
              lambda x, i=i: p.component_grad(i, x))
             for i in range(p.n_components)]
    return FiniteSumProblem(d=2, x_star=X_STAR, constants=p.constants,
                            components=comps)


NO_BLOCK_SPECS = [pytest.param(row[1], id=row[0]) for row in parity_specs()] + [
    pytest.param(RunSpec(mode="sgd", problem=stiff_problem(), x0=[10.0],
                         adj=AdjustmentSchedule(h=1.0), n_steps=2),
                 id="sgd-diverging"),
    pytest.param(RunSpec(mode="pgd", problem=_callable_problem(), x0=X0,
                         adj=AdjustmentSchedule(h=0.2), n_steps=12,
                         record_every=5), id="pgd-callable"),
]


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("spec", NO_BLOCK_SPECS)
def test_ensemble_without_state_block_has_the_same_statistics(spec):
    # keep_states=False reduces each snapshot as it is recorded; every
    # statistic but the state moments keeps its bits, diverged paths included
    full = ensemble_run(spec, 40, seed)
    lean = ensemble_run(spec, 40, seed, keep_states=False)
    assert set(full.mean) - set(lean.mean) == {"state"}
    assert set(lean.variance) == set(lean.mean)
    assert lean.divergence_count == full.divergence_count
    for key in lean.mean:
        assert np.array_equal(lean.mean[key], full.mean[key], equal_nan=True), key
        assert np.array_equal(lean.variance[key], full.variance[key],
                              equal_nan=True), key


def test_ensemble_without_state_block_allocates_none(monkeypatch):
    # small noise buffers, so that the (paths x records x d) block is the
    # largest allocation a run with it makes
    monkeypatch.setattr(_kernels, "_CHUNK_DOUBLES", 20_000)
    problem = make_isotropic_quadratic(2.0, 100, sigma_star_sq=0.1)
    spec = RunSpec(mode="mb-pgf", problem=problem, x0=problem.x_star,
                   adj=AdjustmentSchedule(h=1e-3), dt=1e-3, T=0.2)
    n = 20
    ks = spec.resolved_record_ks()
    block_bytes = n * ks.size * problem.d * 8

    gens = [np.random.default_rng(s)
            for s in np.random.SeedSequence(seed).spawn(n)]
    res = _kernel_dispatch(spec, gens, ks, keep_states=False)
    assert res.states is None
    assert res.observables.shape == (3, n, ks.size)

    def traced(**kwargs):
        tracemalloc.start()
        try:
            stats = ensemble_run(spec, n, seed, **kwargs)
            return stats, tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    full, full_peak = traced()
    lean, lean_peak = traced(keep_states=False)
    assert full_peak > block_bytes  # the measurement sees the block
    assert lean_peak < block_bytes
    assert "state" not in lean.mean and "state" not in lean.variance
    for key in ("f_gap", "grad_norm_sq", "dist_sq"):
        assert np.array_equal(lean.mean[key], full.mean[key]), key
        assert np.array_equal(lean.variance[key], full.variance[key]), key


SELECTION_PROBLEMS = {
    "isotropic": lambda: make_isotropic_quadratic(1.0, 2, sigma_star_sq=0.2),
    "perturbed": noisy_problem,
    "spread-d1": lambda: make_spread_quadratic(3.0, 1.0),
    "spread-d2": lambda: make_spread_quadratic(3.0, 1.0, d=2),
    "callable": _callable_problem,
}
SELECTION_BATCHES = {
    "constant": BatchSchedule(b=2),
    "linear-growth": BatchSchedule(family="linear-growth", b0=1.0, rate=2.0),
}


def _selection_spec(mode, problem, batch, volatility):
    common = dict(mode=mode, problem=problem, x0=np.ones(problem.d),
                  batch=batch, volatility_mode=volatility)
    adj = AdjustmentSchedule(h=0.05, family="power", a=0.5)
    if mode in ("sgd", "pgd"):
        return RunSpec(adj=adj, n_steps=6, **common)
    if mode in ("mb-pgf", "time-changed"):
        return RunSpec(adj=adj, dt=0.05, T=0.3, **common)
    if mode == "svrg":
        return RunSpec(h=0.05, epoch_steps=2, n_epochs=3, **common)
    return RunSpec(staleness=StalenessSchedule(m=2, h=0.05), dt=0.05, T=0.3,
                   **common)


def _value_error(run):
    try:
        run()
    except ValueError as e:
        return str(e)
    return None


# Every cell's two paths before the simulators and ensembles ran on the
# kernels: the first 16 hex digits of the SHA-256 of each path's states, which
# the per-path simulator and the ensemble engine of the time gave alike, or
# the ValueError both raised.
ENGINE_GRID = {
    'sgd-callable-constant-exact': ('9a634b8f8fa5dd7e', '763dc936b7200222'),
    'sgd-callable-constant-constant': ('9a634b8f8fa5dd7e', '763dc936b7200222'),
    'sgd-callable-linear-growth-exact': ('1cb6d5cce15103c5', '0e5a1a95bc431d01'),
    'sgd-callable-linear-growth-constant': ('1cb6d5cce15103c5', '0e5a1a95bc431d01'),
    'sgd-isotropic-constant-exact': ('007919bacc09adbc', '1908dd10c6de196e'),
    'sgd-isotropic-constant-constant': ('007919bacc09adbc', '1908dd10c6de196e'),
    'sgd-isotropic-linear-growth-exact': ('a78f430778c983f7', '6e52049a059016b1'),
    'sgd-isotropic-linear-growth-constant': ('a78f430778c983f7', '6e52049a059016b1'),
    'sgd-perturbed-constant-exact': ('9a634b8f8fa5dd7e', '763dc936b7200222'),
    'sgd-perturbed-constant-constant': ('9a634b8f8fa5dd7e', '763dc936b7200222'),
    'sgd-perturbed-linear-growth-exact': ('1cb6d5cce15103c5', '0e5a1a95bc431d01'),
    'sgd-perturbed-linear-growth-constant': ('1cb6d5cce15103c5', '0e5a1a95bc431d01'),
    'sgd-spread-d1-constant-exact': ('4eeeb803294fe429', '5049e733cf5f85c7'),
    'sgd-spread-d1-constant-constant': ('4eeeb803294fe429', '5049e733cf5f85c7'),
    'sgd-spread-d1-linear-growth-exact': ('6b79a6ff0007025a', '3df27880235aa122'),
    'sgd-spread-d1-linear-growth-constant': ('6b79a6ff0007025a', '3df27880235aa122'),
    'sgd-spread-d2-constant-exact': ('77b74aa4489f7de8', 'db7bccd435a4a64f'),
    'sgd-spread-d2-constant-constant': ('77b74aa4489f7de8', 'db7bccd435a4a64f'),
    'sgd-spread-d2-linear-growth-exact': ('db81152b1ff2ba49', 'd2ac31686a2f17c0'),
    'sgd-spread-d2-linear-growth-constant': ('db81152b1ff2ba49', 'd2ac31686a2f17c0'),
    'pgd-callable-constant-exact': ('23530e897d9907b7', '88102f2c3d40031b'),
    'pgd-callable-constant-constant': ('6554137721742085', 'ff5ebc7f2b82e702'),
    'pgd-callable-linear-growth-exact': ('12ab3fe55d342db3', 'e1b2eb45dc28da49'),
    'pgd-callable-linear-growth-constant': ('ca6bf820605d4b24', '11321f60e7ff8610'),
    'pgd-isotropic-constant-exact': ('9a7d9784ff5b9390', 'ee7322af5b0d07a5'),
    'pgd-isotropic-constant-constant': ('9a7d9784ff5b9390', 'ee7322af5b0d07a5'),
    'pgd-isotropic-linear-growth-exact': ('dc26e73ea11f8ced', '1b1ba7d26e8013b6'),
    'pgd-isotropic-linear-growth-constant': ('dc26e73ea11f8ced', '1b1ba7d26e8013b6'),
    'pgd-perturbed-constant-exact': ('b9d6f0eb57b77361', 'f0f246d3170b2eaa'),
    'pgd-perturbed-constant-constant': ('e5eb447233d6ff61', '33fe814c9af85192'),
    'pgd-perturbed-linear-growth-exact': ('3f7948ac2aa20a29', 'e8383deb5350aba3'),
    'pgd-perturbed-linear-growth-constant': ('ca6bf820605d4b24', '11321f60e7ff8610'),
    'pgd-spread-d1-constant-exact': ('6b8f33e322a5ddba', 'b6ff22f54bb1cdf3'),
    'pgd-spread-d1-constant-constant': "volatility_mode='constant' needs a declared sigma_star_sq",
    'pgd-spread-d1-linear-growth-exact': ('52665b660ab4d869', '5311941e85f75f3e'),
    'pgd-spread-d1-linear-growth-constant': "volatility_mode='constant' needs a declared sigma_star_sq",
    'pgd-spread-d2-constant-exact': ('5d285cd1a0615c8b', '83360cf7f5a01831'),
    'pgd-spread-d2-constant-constant': "volatility_mode='constant' needs a declared sigma_star_sq",
    'pgd-spread-d2-linear-growth-exact': ('676cd04b2015932e', 'ef4d9de86213fe47'),
    'pgd-spread-d2-linear-growth-constant': "volatility_mode='constant' needs a declared sigma_star_sq",
    'svrg-callable-constant-exact': ('8cd6fa64d8d37618', 'e01f1a3fa08019ea'),
    'svrg-callable-constant-constant': ('8cd6fa64d8d37618', 'e01f1a3fa08019ea'),
    'svrg-callable-linear-growth-exact': ('8cd6fa64d8d37618', 'e01f1a3fa08019ea'),
    'svrg-callable-linear-growth-constant': ('8cd6fa64d8d37618', 'e01f1a3fa08019ea'),
    'svrg-isotropic-constant-exact': ('2cade3049336fa26', 'e3e6d59141e60211'),
    'svrg-isotropic-constant-constant': ('2cade3049336fa26', 'e3e6d59141e60211'),
    'svrg-isotropic-linear-growth-exact': ('2cade3049336fa26', 'e3e6d59141e60211'),
    'svrg-isotropic-linear-growth-constant': ('2cade3049336fa26', 'e3e6d59141e60211'),
    'svrg-perturbed-constant-exact': ('8cd6fa64d8d37618', 'e01f1a3fa08019ea'),
    'svrg-perturbed-constant-constant': ('8cd6fa64d8d37618', 'e01f1a3fa08019ea'),
    'svrg-perturbed-linear-growth-exact': ('8cd6fa64d8d37618', 'e01f1a3fa08019ea'),
    'svrg-perturbed-linear-growth-constant': ('8cd6fa64d8d37618', 'e01f1a3fa08019ea'),
    'svrg-spread-d1-constant-exact': ('e50ea9216aaa9ef8', '9f093037ff8f565f'),
    'svrg-spread-d1-constant-constant': ('e50ea9216aaa9ef8', '9f093037ff8f565f'),
    'svrg-spread-d1-linear-growth-exact': ('e50ea9216aaa9ef8', '9f093037ff8f565f'),
    'svrg-spread-d1-linear-growth-constant': ('e50ea9216aaa9ef8', '9f093037ff8f565f'),
    'svrg-spread-d2-constant-exact': ('64b63a98ce523a12', '9feacb2cb21a5425'),
    'svrg-spread-d2-constant-constant': ('64b63a98ce523a12', '9feacb2cb21a5425'),
    'svrg-spread-d2-linear-growth-exact': ('64b63a98ce523a12', '9feacb2cb21a5425'),
    'svrg-spread-d2-linear-growth-constant': ('64b63a98ce523a12', '9feacb2cb21a5425'),
    'mb-pgf-callable-constant-exact': ('92c13a596ac19d94', 'af6670427788ddf0'),
    'mb-pgf-callable-constant-constant': ('3902a4909243c1c4', '0dc8838e757c55b3'),
    'mb-pgf-callable-linear-growth-exact': ('11c2eda3639e991e', '173eed1d15c4c32f'),
    'mb-pgf-callable-linear-growth-constant': ('abe90d7568dab6c8', 'cdd8c9c051c732a5'),
    'mb-pgf-isotropic-constant-exact': ('22f94632d27fdbc8', '6a97954ebf029d46'),
    'mb-pgf-isotropic-constant-constant': ('22f94632d27fdbc8', '6a97954ebf029d46'),
    'mb-pgf-isotropic-linear-growth-exact': ('47d04156e9702fe9', 'f07a9be7460d3e98'),
    'mb-pgf-isotropic-linear-growth-constant': ('47d04156e9702fe9', 'f07a9be7460d3e98'),
    'mb-pgf-perturbed-constant-exact': ('093fb2a2c61fb429', '9aa9d4c9f9a6dd41'),
    'mb-pgf-perturbed-constant-constant': ('3902a4909243c1c4', '0dc8838e757c55b3'),
    'mb-pgf-perturbed-linear-growth-exact': ('e6b9f21280109491', '56956e7bf29eddfd'),
    'mb-pgf-perturbed-linear-growth-constant': ('abe90d7568dab6c8', 'cdd8c9c051c732a5'),
    'mb-pgf-spread-d1-constant-exact': ('ab31c2c3fed47d3d', '7c74b80473ecb580'),
    'mb-pgf-spread-d1-constant-constant': "volatility_mode='constant' needs a declared sigma_star_sq",
    'mb-pgf-spread-d1-linear-growth-exact': ('10e90574da6eb399', '953d06067a1ea832'),
    'mb-pgf-spread-d1-linear-growth-constant': "volatility_mode='constant' needs a declared sigma_star_sq",
    'mb-pgf-spread-d2-constant-exact': ('dc9d0d8082e830aa', '352a1d831fd829ed'),
    'mb-pgf-spread-d2-constant-constant': "volatility_mode='constant' needs a declared sigma_star_sq",
    'mb-pgf-spread-d2-linear-growth-exact': ('1ea775f89984ad55', 'e66da32287ab39d2'),
    'mb-pgf-spread-d2-linear-growth-constant': "volatility_mode='constant' needs a declared sigma_star_sq",
    'vr-pgf-callable-constant-exact': ('c10582bb1f325501', 'ad301d56e46bdfd1'),
    'vr-pgf-callable-constant-constant': ('c10582bb1f325501', 'ad301d56e46bdfd1'),
    'vr-pgf-callable-linear-growth-exact': ('c10582bb1f325501', 'ad301d56e46bdfd1'),
    'vr-pgf-callable-linear-growth-constant': ('c10582bb1f325501', 'ad301d56e46bdfd1'),
    'vr-pgf-isotropic-constant-exact': ('899b3f0d03260e93', '3c762247a0546027'),
    'vr-pgf-isotropic-constant-constant': ('899b3f0d03260e93', '3c762247a0546027'),
    'vr-pgf-isotropic-linear-growth-exact': ('899b3f0d03260e93', '3c762247a0546027'),
    'vr-pgf-isotropic-linear-growth-constant': ('899b3f0d03260e93', '3c762247a0546027'),
    'vr-pgf-perturbed-constant-exact': ('c10582bb1f325501', 'ad301d56e46bdfd1'),
    'vr-pgf-perturbed-constant-constant': ('c10582bb1f325501', 'ad301d56e46bdfd1'),
    'vr-pgf-perturbed-linear-growth-exact': ('c10582bb1f325501', 'ad301d56e46bdfd1'),
    'vr-pgf-perturbed-linear-growth-constant': ('c10582bb1f325501', 'ad301d56e46bdfd1'),
    'vr-pgf-spread-d1-constant-exact': ('9f093037ff8f565f', 'e50ea9216aaa9ef8'),
    'vr-pgf-spread-d1-constant-constant': ('9f093037ff8f565f', 'e50ea9216aaa9ef8'),
    'vr-pgf-spread-d1-linear-growth-exact': ('9f093037ff8f565f', 'e50ea9216aaa9ef8'),
    'vr-pgf-spread-d1-linear-growth-constant': ('9f093037ff8f565f', 'e50ea9216aaa9ef8'),
    'vr-pgf-spread-d2-constant-exact': ('1c286ba8543bb8dc', '932bdaedeb937d35'),
    'vr-pgf-spread-d2-constant-constant': ('1c286ba8543bb8dc', '932bdaedeb937d35'),
    'vr-pgf-spread-d2-linear-growth-exact': ('1c286ba8543bb8dc', '932bdaedeb937d35'),
    'vr-pgf-spread-d2-linear-growth-constant': ('1c286ba8543bb8dc', '932bdaedeb937d35'),
    'time-changed-callable-constant-exact': ('eeb6a94e4d4a44ca', '6829d0744f83a676'),
    'time-changed-callable-constant-constant': ('664ade31c9298213', 'f6ae2e912160d118'),
    'time-changed-callable-linear-growth-exact': ('c87a163dafbed721', 'a74a5c4bfc5160c3'),
    'time-changed-callable-linear-growth-constant': ('2a3ae5a436d304aa', '350b98de32a8062f'),
    'time-changed-isotropic-constant-exact': ('52a6f6f9fe0a236b', '6dfa2b773aeafb47'),
    'time-changed-isotropic-constant-constant': ('52a6f6f9fe0a236b', '6dfa2b773aeafb47'),
    'time-changed-isotropic-linear-growth-exact': ('e9d59a048991d8b0', '90a6d98663deb3b9'),
    'time-changed-isotropic-linear-growth-constant': ('e9d59a048991d8b0', '90a6d98663deb3b9'),
    'time-changed-perturbed-constant-exact': ('d44b0ce2f2221ddc', '6829d0744f83a676'),
    'time-changed-perturbed-constant-constant': ('664ade31c9298213', 'f6ae2e912160d118'),
    'time-changed-perturbed-linear-growth-exact': ('fd16424b18f33b94', 'd52e71421aa251db'),
    'time-changed-perturbed-linear-growth-constant': ('2a3ae5a436d304aa', '350b98de32a8062f'),
    'time-changed-spread-d1-constant-exact': ('2d6dea2afb290eb3', '8943673342451f5b'),
    'time-changed-spread-d1-constant-constant': "volatility_mode='constant' needs a declared sigma_star_sq",
    'time-changed-spread-d1-linear-growth-exact': ('6f44abbd2d8fee5a', 'fc379c91378864f0'),
    'time-changed-spread-d1-linear-growth-constant': "volatility_mode='constant' needs a declared sigma_star_sq",
    'time-changed-spread-d2-constant-exact': ('6c34dd4722e488d3', '1f5c93b0b5f0d603'),
    'time-changed-spread-d2-constant-constant': "volatility_mode='constant' needs a declared sigma_star_sq",
    'time-changed-spread-d2-linear-growth-exact': ('a0d7489f2dab9078', 'cf8024e933a8fa62'),
    'time-changed-spread-d2-linear-growth-constant': "volatility_mode='constant' needs a declared sigma_star_sq",
}


def _digest(states):
    return hashlib.sha256(np.ascontiguousarray(states).tobytes()).hexdigest()[:16]


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("volatility", ["exact", "constant"])
@pytest.mark.parametrize("batch_name", sorted(SELECTION_BATCHES))
@pytest.mark.parametrize("problem_name", sorted(SELECTION_PROBLEMS))
@pytest.mark.parametrize("mode", ["sgd", "pgd", "svrg", "mb-pgf", "vr-pgf",
                                  "time-changed"])
def test_supports_kernel_is_exact(mode, problem_name, batch_name, volatility):
    # the kernel supports every valid configuration, exactly: the ensemble
    # engine and the simulator reproduce each cell's frozen paths bit for
    # bit, or raise its frozen error.  The one exception is a constant
    # volatility matrix that is not a multiple of I under a growing batch:
    # its ensemble moved from per-path matrix-vector products to one block
    # matrix product, which holds the matrix-path tolerance of test_kernels
    batch = SELECTION_BATCHES[batch_name]
    spec = _selection_spec(mode, SELECTION_PROBLEMS[problem_name](), batch,
                           volatility)
    frozen = ENGINE_GRID[f"{mode}-{problem_name}-{batch_name}-{volatility}"]

    def gens():
        return [np.random.default_rng(s)
                for s in np.random.SeedSequence(seed).spawn(2)]

    if isinstance(frozen, str):
        ks = spec.resolved_record_ks()
        for run in (lambda: _kernel_dispatch(spec, gens(), ks),
                    lambda: _run_one_path(spec, gens()[0])):
            with pytest.raises(ValueError) as err:
                run()
            assert str(err.value) == frozen
        return
    res = _kernel_dispatch(spec, gens(), spec.resolved_record_ks())
    assert not res.diverged.any()
    block_product = (batch.family != "constant" and problem_name == "perturbed"
                     and volatility == "exact" and mode not in ("sgd", "svrg", "vr-pgf"))
    for p, rng in enumerate(gens()):
        tr = _run_one_path(spec, rng)
        assert tr.divergence_step is None
        assert _digest(tr.states) == frozen[p]
        if block_product:
            ref = reference.run_one_path(spec, gens()[p]).states
            assert _digest(ref) == frozen[p]
            assert res.states[p] == pytest.approx(ref, rel=1e-14)
        else:
            assert _digest(res.states[p]) == frozen[p]


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("volatility", ["exact", "constant"])
@pytest.mark.parametrize("problem_name", sorted(SELECTION_PROBLEMS))
@pytest.mark.parametrize("mode", ["sgd", "pgd", "svrg", "mb-pgf", "vr-pgf",
                                  "time-changed"])
def test_float_steps_run_exactly_where_eligible(mode, problem_name, volatility,
                                                monkeypatch):
    # kernel_pgd and the diffusions step a small block on Python floats where
    # the problem is affine and the volatility is a multiple of I (every
    # cell's block is small); every other cell steps on arrays alone
    problem = SELECTION_PROBLEMS[problem_name]()
    spec = _selection_spec(mode, problem, SELECTION_BATCHES["constant"],
                           volatility)
    # 30 steps, every one recorded: after step 1 one call of 29 steps, more
    # than two a value for the 2 paths x d <= 2 values
    if spec.n_steps is not None:
        spec = replace(spec, n_steps=30)
    elif spec.T is not None:
        spec = replace(spec, T=1.5)
    stepped = set()
    for name in ("_pgd_combine", "_em_combine"):
        def spy(x, g, z, combine=getattr(_kernels, name)):
            stepped.add(type(x))
            return combine(x, g, z)
        monkeypatch.setattr(_kernels, name, spy)
    gens = [np.random.default_rng(s)
            for s in np.random.SeedSequence(seed).spawn(2)]
    if isinstance(ENGINE_GRID[f"{mode}-{problem_name}-constant-{volatility}"], str):
        with pytest.raises(ValueError):
            _kernel_dispatch(spec, gens, spec.resolved_record_ks())
        assert not stepped
        return
    _kernel_dispatch(spec, gens, spec.resolved_record_ks())
    sigma = (_kernels._pgd_constant_sigma(problem, volatility)
             if mode in ("pgd", "mb-pgf", "time-changed") else None)
    eligible = (problem.affine is not None and sigma is not None
                and _kernels._scalar_of(sigma) is not None)
    assert (float in stepped) == eligible


# -- weighted averages -------------------------------------------------------


def _denominators(spec):
    """The weighted averages' denominators of the run's recorder."""
    gens = [np.random.default_rng(s)
            for s in np.random.SeedSequence(seed).spawn(2)]
    return _kernel_dispatch(spec, gens, spec.resolved_record_ks()).denominators


def test_weight_denominators_discrete_prefix_sums():
    adj = AdjustmentSchedule(h=0.25, family="power", a=1.0)
    spec = sgd_spec(adj=adj, n_steps=8, weights=True, record_ks=[0, 2, 8])
    ks = np.array([0, 2, 8])
    denom = _denominators(spec)
    prefix = np.cumsum([adj.psi_k(k) for k in range(9)])
    assert denom == pytest.approx(prefix[ks], rel=1e-15)


def test_weight_denominators_continuous_trapezoid():
    iso = make_isotropic_quadratic(1.0, 1, sigma_star_sq=0.25)
    adj = AdjustmentSchedule(h=0.1, family="power", a=1.0)
    spec = RunSpec(mode="mb-pgf", problem=iso, x0=[1.0], adj=adj, dt=0.5, T=2.0,
                   weights=True, record_ks=[0, 1, 4])
    denom = _denominators(spec)
    assert np.isnan(denom[0])  # empty integral at t = 0
    w = [adj.psi(k * 0.5) for k in range(5)]
    trap1 = 0.25 * (w[0] + w[1])
    trap4 = sum(0.25 * (w[i] + w[i + 1]) for i in range(4))
    assert denom[1] == pytest.approx(trap1, rel=1e-14)
    assert denom[2] == pytest.approx(trap4, rel=1e-14)


def test_weighted_average_of_constant_is_exact():
    # psi-weighted average of f-gap along a frozen path equals the value
    # itself when the path never moves: x0 = x* keeps every observable at 0,
    # so instead pin the quadrature against a one-step hand computation
    spec = sgd_spec(n_steps=4, weights=True,
                    adj=AdjustmentSchedule(h=0.25, family="power", a=1.0))
    stats = ensemble_run(spec, 6, seed)
    denom = _denominators(spec)
    # the weighted average at k = 0 is exactly the starting f-gap
    f0 = noisy_problem().gap(X0)
    assert stats.mean["f_gap_wavg"][0] == pytest.approx(f0, rel=1e-12)
    assert np.all(denom[1:] > denom[:-1])


@pytest.mark.parametrize("mode", ["sgd", "pgd"])
def test_weighted_per_path_run_on_a_callable_problem(mode):
    # a callable family runs on the kernels' row loops, and its weighted
    # averages are the psi-weighted prefix sums of each path's own f-gap and
    # squared gradient norm (from the reference loop), divided by the prefix
    # sums of psi
    adj = AdjustmentSchedule(h=0.25, family="power", a=0.5)
    spec = RunSpec(mode=mode, problem=_callable_problem(), x0=X0, adj=adj,
                   n_steps=12, record_every=5, weights=True)
    stats = ensemble_run(spec, 3, seed)
    ks = stats.record_ks
    assert ks.tolist() == [0, 5, 10, 12]
    p = _callable_problem()
    gens = [np.random.default_rng(s)
            for s in np.random.SeedSequence(seed).spawn(3)]
    f_avg, g_avg = [], []
    for rng in gens:
        states = reference.run_one_path(spec, rng).states
        acc_w = acc_f = acc_g = 0.0
        row_f, row_g = [], []
        for k, x in enumerate(states):
            w = adj.psi_k(k)
            g = p.grad(x)
            acc_w += w
            acc_f += w * p.gap(x)
            acc_g += w * float(g @ g)
            if k in ks:
                row_f.append(acc_f / acc_w)
                row_g.append(acc_g / acc_w)
        f_avg.append(row_f)
        g_avg.append(row_g)
    assert stats.mean["f_gap_wavg"] == pytest.approx(np.mean(f_avg, axis=0),
                                                     rel=1e-13)
    assert stats.mean["grad_norm_sq_wavg"] == pytest.approx(
        np.mean(g_avg, axis=0), rel=1e-13)


# -- bound verification ------------------------------------------------------


def pl_inputs(h=0.1, f0=1.5):
    return BoundInputs(d=1, L=1.0, f0_gap=f0, dist0_sq=0.0,
                       adj=AdjustmentSchedule(h=h), batch=BatchSchedule(),
                       sigma_star_sq=0.0, mu_pl=1.0)


def manual_stats(ks, grid, mean, var, n_paths=50):
    stats = EnsembleStats(grid=np.asarray(grid, dtype=float),
                          record_ks=np.asarray(ks), n_paths=n_paths,
                          divergence_count=0)
    stats.mean.update(mean)
    stats.variance.update(var)
    return stats


def test_verify_bound_last_iterate_alignment():
    # noiseless gradient-dominated recursion: f(x_k) = (1 - mu h)^k f0 exactly,
    # and the k-th iterate is bounded by the (k-1)-step guarantee
    inputs = pl_inputs()
    f0 = inputs.f0_gap
    ks = np.arange(4)
    f_path = (1.0 - 0.1) ** ks * f0
    stats = manual_stats(ks, ks * 0.1, {"f_gap": f_path},
                         {"f_gap": np.zeros(4)})
    bound = RateBound("pl_dt", inputs)
    report = verify_bound(stats, bound, checkpoints=np.array([1, 2, 3]))
    assert report.passed
    assert report.max_violation_se == 0.0
    expected = np.array([bound_discrete(inputs, k - 1, "pl_dt")
                         for k in (1, 2, 3)])
    assert np.array_equal(report.reference, expected)
    assert report.reference == pytest.approx(f_path[1:], rel=1e-12)
    assert report.details["observable"] == "f_gap"


def test_verify_bound_zero_se_needs_exact_compliance():
    inputs = pl_inputs()
    ks = np.arange(3)
    high = (1.0 - 0.1) ** ks * inputs.f0_gap * 1.0001  # above the bound
    stats = manual_stats(ks, ks * 0.1, {"f_gap": high}, {"f_gap": np.zeros(3)})
    report = verify_bound(stats, RateBound("pl_dt", inputs),
                          checkpoints=np.array([1, 2]))
    assert not report.passed
    assert report.max_violation_se == np.inf


def test_verify_bound_requires_weighted_observable():
    inputs = pl_inputs()
    stats = manual_stats([0, 1], [0.0, 0.1], {"f_gap": np.ones(2)},
                         {"f_gap": np.zeros(2)})
    with pytest.raises(ValueError, match="weights=True"):
        verify_bound(stats, RateBound("smooth_dt", inputs))


def test_verify_bound_checkpoint_validation():
    inputs = pl_inputs()
    ks = np.arange(4)
    stats = manual_stats(ks, ks * 0.1, {"f_gap": np.zeros(4)},
                         {"f_gap": np.zeros(4)})
    bound = RateBound("pl_dt", inputs)
    with pytest.raises(ValueError, match="positive times"):
        verify_bound(stats, bound, checkpoints=np.array([0, 1]))
    with pytest.raises(ValueError, match="outside the record grid"):
        verify_bound(stats, bound, checkpoints=np.array([1, 9]))


@pytest.mark.parametrize("picks", [{"checkpoints": np.array([], dtype=int)}])
def test_verify_bound_with_no_checkpoints_is_an_error(picks):
    ks = np.arange(4)
    stats = manual_stats(ks, ks * 0.1, {"f_gap": np.zeros(4)},
                         {"f_gap": np.zeros(4)})
    with pytest.raises(ValueError, match="bound:pl_dt check has no checkpoints"):
        verify_bound(stats, RateBound("pl_dt", pl_inputs()), **picks)


def _verify_bound_at(n):
    ks = np.arange(4)
    stats = manual_stats(ks, ks * 0.1, {"f_gap": np.zeros(4)},
                         {"f_gap": np.zeros(4)})
    return verify_bound(stats, RateBound("pl_dt", pl_inputs()), n_checkpoints=n)


CHECKPOINT_EXPERIMENTS = {
    "time-change": lambda n: time_change_experiment(
        _iso_noisy(), [1.0], h=0.05, T_w=0.5, n_paths=8, seed=seed,
        n_checkpoints=n),
    "landscape": lambda n: landscape_stretch_experiment(
        [1.0], [1.0], dt=0.01, T=1.0, n_checkpoints=n),
    "pl-probe": lambda n: pl_supermartingale_probe(
        noisy_problem(), AdjustmentSchedule(h=0.1), BatchSchedule(), X0,
        dt=0.1, T=2.0, n_paths=8, seed=seed, n_checkpoints=n),
    "verify-bound": _verify_bound_at,
}


@pytest.mark.parametrize("n", [0, -1])
@pytest.mark.parametrize("name", sorted(CHECKPOINT_EXPERIMENTS))
def test_experiments_reject_fewer_than_one_checkpoint(name, n):
    with pytest.raises(ValueError,
                       match=f"^n_checkpoints must be >= 1, got {n}$"):
        CHECKPOINT_EXPERIMENTS[name](n)


def vr_inputs(m=3):
    return BoundInputs(d=1, L=1.0, f0_gap=1.0, dist0_sq=4.0,
                       adj=AdjustmentSchedule(h=0.01), batch=BatchSchedule(),
                       mu_rsi=10.0, m=m)


def test_verify_bound_vr_discrete_epoch_marks():
    inputs = vr_inputs(m=3)
    bound = RateBound("vr_dt", inputs)
    rho = bound.evaluate(1) / inputs.dist0_sq
    ks = np.arange(7)
    dist = np.full(7, 1e6)  # garbage off the epoch marks and at epoch 0: ignored
    dist[[3, 6]] = 0.9 * inputs.dist0_sq * rho ** np.array([1.0, 2.0])
    stats = manual_stats(ks, ks * 0.01, {"dist_sq": dist},
                         {"dist_sq": np.zeros(7)})
    report = verify_bound(stats, bound)
    assert report.passed
    assert np.array_equal(report.checkpoints, [1, 2])
    assert report.reference == pytest.approx(
        inputs.dist0_sq * rho ** np.array([1.0, 2.0]), rel=1e-12)

    off_grid = manual_stats([1, 2], [0.01, 0.02],
                            {"dist_sq": np.zeros(2)}, {"dist_sq": np.zeros(2)})
    with pytest.raises(ValueError, match="no epoch marks"):
        verify_bound(off_grid, bound)


def test_verify_bound_vr_discrete_marks_by_time_on_a_finer_grid():
    # steps of 0.005 with m = 3 and h = 0.01: the epoch time 0.03 is step 6,
    # so the one mark is position 6, not a multiple of m
    inputs = vr_inputs(m=3)
    ks = np.arange(7)
    dist = np.array([4.0, 1e6, 1e6, 1e6, 1e6, 1e6, 0.5])
    stats = manual_stats(ks, ks * 0.005, {"dist_sq": dist},
                         {"dist_sq": np.zeros(7)})
    report = verify_bound(stats, RateBound("vr_dt", inputs))
    assert np.array_equal(report.checkpoints, [1])
    assert np.array_equal(report.empirical, dist[[6]])
    assert report.passed


@pytest.mark.parametrize("kind", ["vr_dt", "vr_ct"])
def test_verify_bound_vr_rejects_checkpoints(kind):
    ks = np.arange(7)
    stats = manual_stats(ks, ks * 0.01, {"dist_sq": np.zeros(7)},
                         {"dist_sq": np.zeros(7)})
    with pytest.raises(ValueError, match=f"'{kind}' is checked at every epoch "
                                         "mark .* takes no checkpoints"):
        verify_bound(stats, RateBound(kind, vr_inputs(m=3)),
                     checkpoints=np.arange(1, 3))


@pytest.mark.parametrize("n", [30, 2])
@pytest.mark.parametrize("kind", ["vr_dt", "vr_ct"])
def test_verify_bound_vr_rejects_n_checkpoints(kind, n):
    # every epoch mark is checked, so a number of picks is not used: it is
    # rejected, the default value too
    ks = np.arange(7)
    stats = manual_stats(ks, ks * 0.01, {"dist_sq": np.zeros(7)},
                         {"dist_sq": np.zeros(7)})
    with pytest.raises(ValueError, match=f"'{kind}' is checked at every epoch "
                                         "mark .* takes no .*n_checkpoints"):
        verify_bound(stats, RateBound(kind, vr_inputs(m=3)), n_checkpoints=n)


def test_verify_bound_vr_continuous_marks_by_time():
    inputs = vr_inputs(m=3)  # epoch time 0.03
    bound = RateBound("vr_ct", inputs)
    grid = np.array([0.0, 0.01, 0.03, 0.06])
    dist = np.array([4.0, 1e6, 0.0, 0.0])
    stats = manual_stats(np.arange(4), grid, {"dist_sq": dist},
                         {"dist_sq": np.zeros(4)})
    report = verify_bound(stats, bound)
    assert np.array_equal(report.checkpoints, [1, 2])
    assert report.passed


def test_verify_bound_reads_a_step_kind_by_time_on_a_finer_grid():
    # mb-pgf at dt = h/5: record step 5k sits at time k h, so the pl_dt check
    # reads step k there, against the bound on x_k, and skips the steps between
    problem, adj = noisy_problem(), AdjustmentSchedule(h=0.25)
    spec = RunSpec(mode="mb-pgf", problem=problem, x0=X0, adj=adj, dt=0.05, T=5.0)
    stats = ensemble_run(spec, 50, seed)
    bound = RateBound("pl_dt", BoundInputs.from_problem(problem, X0, adj))
    report = verify_bound(stats, bound)
    ks = report.checkpoints
    assert ks[0] == 1 and ks[-1] == 20
    assert np.array_equal(stats.record_ks[5 * ks], 5 * ks)
    assert np.array_equal(report.empirical, stats.mean["f_gap"][5 * ks])
    assert report.reference.tolist() == [bound.curve([k])[0] for k in ks]
    assert report.passed


def test_verify_bound_on_a_grid_that_starts_after_step_0():
    problem, adj = noisy_problem(), AdjustmentSchedule(h=0.25)
    spec = sgd_spec(n_steps=100, record_ks=np.arange(5, 101, 5))
    stats = ensemble_run(spec, 50, seed)
    report = verify_bound(stats, RateBound(
        "pl_dt", BoundInputs.from_problem(problem, X0, adj)))
    # geometric picks among the marks, from the grid's first step to its last
    assert report.checkpoints[0] == 5 and report.checkpoints[-1] == 100
    assert np.isin(report.checkpoints, stats.record_ks).all()
    assert report.passed


def test_a_run_on_its_picked_steps_checks_what_the_full_grid_checks():
    # verify bound's plan: pick the marks on the run's record grid, record
    # step 0 and the picked steps only, then check every mark of that grid
    problem, adj = noisy_problem(), AdjustmentSchedule(h=0.25)
    bound = RateBound("pl_dt", BoundInputs.from_problem(problem, X0, adj))
    spec = sgd_spec(n_steps=400)
    full = verify_bound(ensemble_run(spec, 50, seed), bound)
    ks = spec.resolved_record_ks()
    pos, where = harness._bound_positions(bound, ks * spec.grid_spacing)
    assert np.array_equal(where, full.checkpoints)
    stats = ensemble_run(replace(spec, record_ks=np.union1d(ks[:1], ks[pos])),
                         50, seed)
    marks, _ = bound.marks(stats.grid)
    assert np.array_equal(marks, np.arange(1, pos.size + 1))
    report = verify_bound(stats, bound, checkpoints=marks)
    for name in ("checkpoints", "empirical", "reference", "se"):
        assert np.array_equal(getattr(report, name), getattr(full, name))
    # picking again on the picked grid would drop some of them
    assert verify_bound(stats, bound).checkpoints.size < pos.size


# -- experiments -------------------------------------------------------------


def test_time_change_experiment_matches_in_law():
    iso = make_isotropic_quadratic(1.0, 1, sigma_star_sq=0.25)
    report = time_change_experiment(iso, [1.0], h=0.05, T_w=0.5, n_paths=64,
                                    seed=seed)
    assert report.experiment == "time-change"
    assert report.passed
    assert report.details["warped_horizon"] == 0.5
    assert report.details["unwarped_horizon"] == pytest.approx(
        np.expm1(0.5), rel=1e-12)
    payload = json.dumps(report.to_json_dict())
    assert "time-change" in payload


def test_time_change_experiment_needs_declared_noise_level():
    with pytest.raises(ValueError, match="sigma_star_sq"):
        time_change_experiment(make_spread_quadratic(3.0, 1.0), [1.0],
                               h=0.05, T_w=0.5, n_paths=8, seed=seed)


def test_landscape_stretch_deterministic_power_laws():
    report = landscape_stretch_experiment((1.0, -0.5), (1.0, 1.0),
                                          dt=1e-3, T=3.0)
    assert report.passed
    assert report.n_paths == 1
    assert report.details["slopes"]["coord_0"] == pytest.approx(-1.0, abs=0.02)
    assert report.details["slopes"]["coord_1"] == pytest.approx(0.5, abs=0.02)
    assert report.details["max_error_vs_closed_form"] <= report.details["tolerance"]
    # booleans stay JSON booleans, not 1/0
    payload = json.loads(json.dumps(report.to_json_dict()))
    assert payload["details"]["slope_ok"] is True


def test_landscape_stretch_rejects_bad_inputs():
    with pytest.raises(ValueError, match="equal length"):
        landscape_stretch_experiment((1.0, 2.0), (1.0,), dt=1e-3, T=1.0)
    with pytest.raises(ValueError, match="nonzero"):
        landscape_stretch_experiment((0.0, 0.0), (1.0, 1.0), dt=1e-3, T=1.0)


def _iso_noisy():
    return make_isotropic_quadratic(1.0, 1, sigma_star_sq=0.25)


DT_EXPERIMENTS = {
    "time-change": lambda dt: time_change_experiment(
        _iso_noisy(), [1.0], h=0.05, T_w=0.5, n_paths=8, seed=seed, dt=dt),
    "landscape": lambda dt: landscape_stretch_experiment(
        (1.0, -0.5), (1.0, 1.0), dt=dt, T=3.0),
    "ball": lambda dt: ball_experiment(
        _iso_noisy(), h=0.05, b=1, dt=dt, T_long=20.0, n_paths=8, seed=seed,
        mode="continuous"),
    "pl-probe": lambda dt: pl_supermartingale_probe(
        noisy_problem(), AdjustmentSchedule(h=0.1), BatchSchedule(), X0, dt=dt,
        T=2.0, n_paths=8, seed=seed),
}


@pytest.mark.parametrize("dt", [0.0, float("nan")], ids=["zero", "nan"])
@pytest.mark.parametrize("name", sorted(DT_EXPERIMENTS))
def test_experiments_reject_a_step_that_is_not_positive(name, dt):
    # a ValueError that names dt, before any division by it
    with pytest.raises(ValueError, match="dt must be positive"):
        DT_EXPERIMENTS[name](dt)


@pytest.mark.parametrize("n", [2, 3, 40, 20_001])
def test_slope_is_the_least_squares_fit(n):
    rng = np.random.default_rng(seed + n)
    x = np.sort(rng.uniform(0.0, 5.0, n))
    y = -0.5 * x + rng.normal(0.0, 0.1, n)
    assert harness._slope(x, y) == pytest.approx(np.polyfit(x, y, 1)[0],
                                                 rel=1e-12)


def test_weak_error_deterministic_slope():
    # single-component quadratic: SGD is plain gradient descent, and the
    # weak error |(1-h)^{T/h} - e^{-T}| |x0| is first order in h
    quiet = make_isotropic_quadratic(1.0, 1)
    report = weak_error_experiment(quiet, h_list=(0.1, 0.05), T=1.0,
                                   n_paths=2, seed=seed, x0=[5.0])
    assert report.passed
    assert report.details["slope"] == pytest.approx(1.0316, abs=0.01)
    assert report.details["error_ratios"][0] == pytest.approx(2.044, abs=0.01)


def test_weak_error_zero_error_short_circuit():
    quiet = make_isotropic_quadratic(1.0, 1)
    report = weak_error_experiment(quiet, h_list=(0.1, 0.05), T=1.0,
                                   n_paths=2, seed=seed, x0=[0.0])  # x0 = x*
    assert report.passed
    assert report.details["slope"] == 1.0
    assert np.all(report.details["error_ratios"] == 2.0)


def test_weak_error_reports_the_paths_it_used(monkeypatch):
    # the smallest surviving path count over its ensembles, as every other
    # experiment reports, not the requested count
    real_run, lost = harness.ensemble_run, iter([1, 3])

    def losing_paths(*args, **kwargs):
        stats = real_run(*args, **kwargs)
        stats.n_paths -= next(lost)
        return stats

    monkeypatch.setattr(harness, "ensemble_run", losing_paths)
    report = weak_error_experiment(make_isotropic_quadratic(1.0, 1),
                                   h_list=(0.1, 0.05), T=1.0, n_paths=8,
                                   seed=seed, x0=[5.0])
    assert report.n_paths == 5


def test_weak_error_argument_validation():
    quiet = make_isotropic_quadratic(1.0, 1)
    with pytest.raises(ValueError, match="not a multiple"):
        weak_error_experiment(quiet, h_list=(0.3, 0.1), T=1.0, n_paths=2,
                              seed=seed, x0=[5.0])
    with pytest.raises(ValueError, match="two stepsizes"):
        weak_error_experiment(quiet, h_list=(0.1,), T=1.0, n_paths=2,
                              seed=seed, x0=[5.0])
    constants = ProblemConstants(L=1.0)
    opaque = FiniteSumProblem(
        d=1, x_star=np.zeros(1), constants=constants,
        components=[(lambda x: float(0.5 * x @ x), lambda x: x)])
    with pytest.raises(ValueError, match="affine"):
        weak_error_experiment(opaque, h_list=(0.1, 0.05), T=1.0, n_paths=2,
                              seed=seed, x0=[5.0])


def test_ball_experiment_hits_exact_isotropic_level():
    iso = make_isotropic_quadratic(1.0, 1, sigma_star_sq=0.25)
    report = ball_experiment(iso, h=0.05, b=1, dt=0.05, T_long=20.0,
                             n_paths=200, seed=seed, mode="continuous")
    assert report.passed
    assert report.details["exact_level"] == pytest.approx(0.05 * 0.25 / 4.0)
    assert report.details["relative_error"] <= 0.10
    # at mu = L the bound coincides with the exact level, so the tail may
    # exceed it by the Euler bias -- but never by more than the slack
    assert report.details["tail_mean"] <= (report.details["ball_bound"]
                                           + report.slack_se * report.se[0])


def test_ball_experiment_guards():
    iso = make_isotropic_quadratic(1.0, 1, sigma_star_sq=0.25)
    with pytest.raises(ValueError, match="mixing horizon"):
        ball_experiment(iso, h=0.05, b=1, dt=0.05, T_long=1.0, n_paths=8,
                        seed=seed, mode="continuous")
    with pytest.raises(ValueError, match="unknown mode"):
        ball_experiment(iso, h=0.05, b=1, dt=0.05, T_long=20.0, n_paths=8,
                        seed=seed, mode="stationary")
    constants = ProblemConstants(L=1.0)
    opaque = FiniteSumProblem(
        d=1, x_star=np.zeros(1), constants=constants,
        components=[(lambda x: float(0.5 * x @ x), lambda x: x)])
    with pytest.raises(ValueError, match="gradient-domination"):
        ball_experiment(opaque, h=0.05, b=1, dt=0.05, T_long=20.0, n_paths=8,
                        seed=seed, mode="continuous")


def test_pl_supermartingale_probe_energy_growth_within_allowance():
    p = noisy_problem()  # mu = 1 < L = 2: the noise allowance has 2x headroom
    report = pl_supermartingale_probe(p, AdjustmentSchedule(h=0.1),
                                      BatchSchedule(), X0, dt=0.02, T=2.0,
                                      n_paths=128, seed=seed)
    assert report.experiment == "pl-supermartingale"
    assert report.passed
    assert report.details["mu"] == 1.0


def test_pl_supermartingale_probe_horizon_guard():
    p = noisy_problem()
    with pytest.raises(ValueError, match="too large"):
        pl_supermartingale_probe(p, AdjustmentSchedule(h=0.1), BatchSchedule(),
                                 X0, dt=0.05, T=400.0, n_paths=8, seed=seed)


def test_admissibility_error_reaches_caller():
    # stepsize violating mu > 2 h L^2 must surface as AdmissibilityError
    inputs = BoundInputs(d=1, L=1.0, f0_gap=1.0, dist0_sq=4.0,
                         adj=AdjustmentSchedule(h=5.0), batch=BatchSchedule(),
                         mu_rsi=1.0, m=3)
    with pytest.raises(AdmissibilityError):
        RateBound("vr_dt", inputs).evaluate(1)
