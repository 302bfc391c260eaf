"""Ensemble runner, statistics, and the verification experiments.

Determinism claims are asserted bitwise: the same (spec, seed) pair must give
the same statistics whether or not the vectorised kernels are used, whether
or not the noise is chunked, and across repeated calls.  Bound verification
is pinned with hand-built ensembles whose moments are known exactly.
"""

import json

import numpy as np
import pytest

from sgflow import _kernels
from sgflow.bounds import AdmissibilityError, BoundInputs, RateBound, bound_discrete
from sgflow.discrete import run_svrg_option2
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
    """Make ensemble_run take the per-path simulators: no kernel covers a spec."""
    monkeypatch.setattr(_kernels, "supports_kernel", lambda *a, **k: False)
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


def test_run_one_path_dispatch_matches_direct_call():
    p = noisy_problem()
    spec = RunSpec(mode="svrg", problem=p, x0=X0, h=0.05, epoch_steps=3,
                   n_epochs=2)
    tr = _run_one_path(spec, np.random.default_rng(seed))
    ref = run_svrg_option2(p, 0.05, 3, 2, X0, np.random.default_rng(seed))
    assert np.array_equal(tr.states, ref.states)
    assert np.array_equal(tr.jump_flags, ref.jump_flags)


# -- engine selection --------------------------------------------------------


def test_kernel_errors_are_not_swallowed(monkeypatch):
    # a kernel that fails must fail the run, not hand it silently to the
    # per-path simulators
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


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("volatility", ["exact", "constant"])
@pytest.mark.parametrize("batch_name", sorted(SELECTION_BATCHES))
@pytest.mark.parametrize("problem_name", sorted(SELECTION_PROBLEMS))
@pytest.mark.parametrize("mode", ["sgd", "pgd", "svrg", "mb-pgf", "vr-pgf",
                                  "time-changed"])
def test_supports_kernel_is_exact(monkeypatch, mode, problem_name, batch_name,
                                  volatility):
    # supports_kernel must hold exactly when the batch size is constant and
    # the kernel runs without a shape error.  A ValueError the per-path
    # simulator raises too (a missing sigma_star_sq) is the configuration's
    # fault, not the kernel's, and reaches the caller from either engine.
    batch = SELECTION_BATCHES[batch_name]
    spec = _selection_spec(mode, SELECTION_PROBLEMS[problem_name](), batch,
                           volatility)
    supported = _kernels.supports_kernel(mode, spec.problem, spec.batch,
                                         volatility)

    def gens():
        return [np.random.default_rng(s)
                for s in np.random.SeedSequence(seed).spawn(2)]

    monkeypatch.setattr(_kernels, "supports_kernel", lambda *a, **k: True)
    ks = spec.resolved_record_ks()
    kernel_error = _value_error(lambda: _kernel_dispatch(spec, gens(), ks))
    path_error = _value_error(lambda: _run_one_path(spec, gens()[0]))
    shape_error = kernel_error is not None and kernel_error != path_error
    assert supported == (batch.family == "constant" and not shape_error)


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
    # no kernel takes a callable family: the per-path engine runs it, and its
    # weighted averages are the psi-weighted prefix sums of each path's own
    # f-gap and squared gradient norm, divided by the prefix sums of psi
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
        states = _run_one_path(spec, rng).states
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


def vr_inputs(m=3):
    return BoundInputs(d=1, L=1.0, f0_gap=1.0, dist0_sq=4.0,
                       adj=AdjustmentSchedule(h=0.01), batch=BatchSchedule(),
                       mu_rsi=10.0, m=m)


def test_verify_bound_vr_discrete_epoch_marks():
    inputs = vr_inputs(m=3)
    bound = RateBound("vr_dt", inputs)
    rho = bound.evaluate(1) / inputs.dist0_sq
    ks = np.arange(7)
    dist = np.full(7, 1e6)  # garbage off the epoch marks: must be ignored
    dist[[0, 3, 6]] = 0.9 * inputs.dist0_sq * rho ** np.array([0.0, 1.0, 2.0])
    stats = manual_stats(ks, ks * 0.01, {"dist_sq": dist},
                         {"dist_sq": np.zeros(7)})
    report = verify_bound(stats, bound)
    assert report.passed
    assert np.array_equal(report.checkpoints, [0, 1, 2])
    assert report.reference == pytest.approx(
        inputs.dist0_sq * rho ** np.array([0.0, 1.0, 2.0]), rel=1e-12)

    off_grid = manual_stats([1, 2], [0.01, 0.02],
                            {"dist_sq": np.zeros(2)}, {"dist_sq": np.zeros(2)})
    with pytest.raises(ValueError, match="no epoch marks"):
        verify_bound(off_grid, bound)


def test_verify_bound_vr_continuous_marks_by_time():
    inputs = vr_inputs(m=3)  # epoch time 0.03
    bound = RateBound("vr_ct", inputs)
    grid = np.array([0.0, 0.01, 0.03, 0.06])
    dist = np.array([4.0, 1e6, 0.0, 0.0])
    stats = manual_stats(np.arange(4), grid, {"dist_sq": dist},
                         {"dist_sq": np.zeros(4)})
    report = verify_bound(stats, bound)
    assert np.array_equal(report.checkpoints, [0, 1, 2])
    assert report.passed


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
