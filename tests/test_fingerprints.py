"""Golden fingerprints of the ensemble kernels, simulators and ensembles.

Each kernel case runs a kernel for 2 000 steps under the power schedule
a = 0.5 and compares the SHA-256 of its recorded states (and of its weighted
sums, where they are on) with a digest frozen from the reference
implementation.  A new psi value enters every step, so a coefficient table
that moves by one ulp anywhere changes the digest: these tests pin the
kernels' arithmetic bit for bit, where the simulator-parity tests in
``test_kernels.py`` allow the matrix paths a tolerance.  The same is done for
one path of each public simulator (states and observables), which runs its
kernel on one generator, for one discrete bound curve, and for the means and
variances of ``ensemble_run`` in every mode, on the whole block of paths and
one path at a time.

The digests hold per libm build: they depend on this platform's libm
(``pow``, ``exp``, ``expm1``, ``log1p``, ``sqrt``), including the variants
glibc selects at load time (with or without FMA), and on the NumPy build.
They were frozen on x86-64 Linux with glibc 2.36 and NumPy 2.4.6.  Every
schedule value behind them comes from one scalar formula, also for array
arguments (a digest of such tables is pinned too), and one function,
``sgflow._kernels._observable_arrays``, computes the observables of
ensembles and single paths with NumPy sums, not BLAS dot products.  So they
do not depend on the SIMD level NumPy dispatches to, nor on the CPU kernel
OpenBLAS picks: the last test reruns them with AVX-512 and with AVX2 masked,
and under OpenBLAS's Haswell kernels; they also hold under its Zen and
SkylakeX kernels.  Under its pre-AVX2 kernels (``Sandybridge``,
``Nehalem``) the matrix-volatility noise product differs and so do the
digests that take it.  For the same reason the weak-error and landscape
slopes are fitted in closed form, not by ``np.polyfit``; the fit's bits are
pinned too.  On another platform or libm they may legitimately differ; print
the local digests, and those of the per-path reference loops in
``tests/reference.py``, with ``PYTHONPATH=src python
tests/test_fingerprints.py`` and compare them.
"""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import reference
import sgflow._kernels as knl
import sgflow.harness as harness
from sgflow._kernels import (
    _step_tables,
    kernel_mb_pgf,
    kernel_mb_sgd,
    kernel_pgd,
    kernel_svrg,
    kernel_time_changed,
    kernel_vr_pgf,
)
from sgflow.continuous import (
    simulate_mb_pgf,
    simulate_time_changed,
    simulate_vr_pgf,
)
from sgflow.bounds import BoundInputs, bound_discrete_curve
from sgflow.discrete import run_mb_sgd, run_pgd, run_svrg_option2
from sgflow.harness import RunSpec, ensemble_run
from sgflow.problems import (
    make_isotropic_quadratic,
    make_perturbed_quadratic,
    make_spread_quadratic,
)
from sgflow.schedules import (
    AdjustmentSchedule,
    BatchSchedule,
    StalenessSchedule,
    phi,
    phi_inverse,
    psi_prefix_sums,
)

N_STEPS = 2_000
N_PATHS = 4
SEED = 20181005
X0 = np.array([2.0, -3.0])


def _noisy():
    # constant covariance with a non-diagonal square root: the matrix path
    return make_perturbed_quadratic([1.0, 2.0], [0.25, -1.0],
                                    [[0.5, 0.3], [-0.5, -0.3]])


def _isotropic():
    # sqrt(sigma*^2) I volatility: the scalar path
    return make_isotropic_quadratic(1.0, 2, sigma_star_sq=0.2)


def _spread():
    # two components of different curvature, d = 1: the delay-kernel family
    return make_spread_quadratic(3.0, 1.0)


def _staleness():
    return StalenessSchedule(m=4, h=0.01)  # four grid steps of dt = 0.01


def _adj():
    return AdjustmentSchedule(h=0.05, family="power", a=0.5)


def _gens():
    return [np.random.default_rng(s)
            for s in np.random.SeedSequence(SEED).spawn(N_PATHS)]


def _run(case: str):
    adj = _adj()
    ks = np.arange(N_STEPS + 1)
    if case == "sgd":
        return kernel_mb_sgd(_noisy(), adj, BatchSchedule(b=2), X0, N_STEPS,
                             _gens(), ks, weights=True)
    if case == "pgd-scalar":
        return kernel_pgd(_isotropic(), adj, BatchSchedule(b=3), X0, N_STEPS,
                          _gens(), ks, volatility_mode="constant", weights=True)
    if case == "pgd-matrix":
        return kernel_pgd(_noisy(), adj, BatchSchedule(b=3), X0, N_STEPS,
                          _gens(), ks, volatility_mode="exact", weights=True)
    if case == "mb-pgf-scalar":
        return kernel_mb_pgf(_isotropic(), adj, BatchSchedule(b=2), X0, 0.01,
                             N_STEPS, _gens(), ks, volatility_mode="constant",
                             weights=True)
    if case == "mb-pgf-matrix":
        return kernel_mb_pgf(_noisy(), adj, BatchSchedule(b=2), X0, 0.01,
                             N_STEPS, _gens(), ks, volatility_mode="exact",
                             weights=True)
    if case == "time-changed":
        return kernel_time_changed(_isotropic(), adj, BatchSchedule(b=1), X0,
                                   0.01, N_STEPS, _gens(), ks)
    if case == "time-changed-a1":
        # tau = expm1 at a = 1: the warp NumPy's SIMD expm1 rounded
        # differently from the scalar libm call
        a1 = AdjustmentSchedule(h=0.05, family="power", a=1.0)
        return kernel_time_changed(_isotropic(), a1, BatchSchedule(b=1), X0,
                                   0.01, N_STEPS, _gens(), ks)
    if case == "svrg":
        return kernel_svrg(_noisy(), 0.05, 5, N_STEPS // 5, X0, _gens(), ks)
    if case == "vr-pgf":
        return kernel_vr_pgf(_spread(), _staleness(), X0[:1], 0.01, N_STEPS,
                             _gens(), ks)
    raise ValueError(case)


def _digests(res) -> dict:
    arrays = {"states": res.states, "wsum_f_gap": res.wsum_f_gap,
              "wsum_grad_sq": res.wsum_grad_sq}
    return {name: hashlib.sha256(np.ascontiguousarray(a).tobytes()).hexdigest()
            for name, a in arrays.items() if a is not None}


GOLDEN = {
    "sgd": {
        "states": "5ced94a1bd66d5ee6693d1a051423ea3fd33570b2873c54797a02921aa878a4a",
        "wsum_f_gap": "70021775c4ecee892e129ac10e5a6b291d8d30964f27773c7e74d44513066da9",
        "wsum_grad_sq": "f197549ecae318af4b580e8fb8538f15d7c02a69d3c3e741206da737444bc555",
    },
    "pgd-scalar": {
        "states": "edc37e3237ee948ef56193c9d43f26a3306545d861bd7cf4ccb4525d2c73265b",
        "wsum_f_gap": "b555c52e476a6df69ea0a812b6b7e6e4844b93ac90b488d4a9a670275a49ad3b",
        "wsum_grad_sq": "d7986a936022d430a6a133d667c786c736976e252ab3084ec87ff5af825e45ac",
    },
    "pgd-matrix": {
        "states": "146cfee2b9023d5438ee05d0f346f91993bf12cd1cdab9eba0ad80955fc2ec28",
        "wsum_f_gap": "aec939cf3ac4e98b4793fbfa53815d6ca0d2f686286f77c27d74260668ac81a3",
        "wsum_grad_sq": "52f9118370e7eb01738fb459fcad626d7e4b3ee57470b3a966d34daccc64273a",
    },
    "mb-pgf-scalar": {
        "states": "ead0dcb3fb89f3ed185fef9b3383eb8211bd4489b97ddbe4e5c7d6ba4bc3f2aa",
        "wsum_f_gap": "c141751479242b933ed750bd278e2b49d61fe47780c012cc8e7edd113322f8b3",
        "wsum_grad_sq": "ac6dd9376067236ab9c89957d51cbe8bfda4d9de9e5f587e872148f965e1a596",
    },
    "mb-pgf-matrix": {
        "states": "fe962cb412fbc89a3f78a5de83e9290276b13d8c33f7ceaa6867a2a0eba6d3ef",
        "wsum_f_gap": "2918617c28211faf7535b20f86ecee5b092c68e3276b762aa75d7f5e2cf576a8",
        "wsum_grad_sq": "c1e1f825af2aca3bc2094fd0b8a5af0e727df182224ebd8b8eb799a20aa42123",
    },
    "time-changed": {
        "states": "30a71865342913b3e56f4f13e29bf432f4542c44986f3df6076457f7c119357f",
    },
    "time-changed-a1": {
        "states": "e337c34a556524c041be65d261bf0ebd3b33f9d09770159b0e6e2c6399866e02",
    },
    "svrg": {
        "states": "a3da20857807c0d17400425fb6cc08d4cbcc568ebc0158148a893c10be548ebe",
    },
    "vr-pgf": {
        "states": "85e85ccbad0962a3b81dc2e9279e63f0466b8c633d3477e5b53907faaf17e576",
    },
}


@pytest.mark.parametrize("case", sorted(GOLDEN))
def test_kernel_fingerprint(case):
    res = _run(case)
    assert not res.diverged.any()
    assert _digests(res) == GOLDEN[case]


@pytest.mark.parametrize("adj", [
    AdjustmentSchedule(h=0.1, family="power", a=0.5),
    AdjustmentSchedule(h=0.05, family="power", a=1.0),
    AdjustmentSchedule(h=0.2),
], ids=["power-0.5", "power-1", "constant"])
def test_step_tables_are_the_scalar_schedule_values(adj):
    # the tables kernel_pgd and kernel_mb_sgd step with must hold the values
    # of the schedule calls, as Python floats
    eta, psi = _step_tables(adj, N_STEPS)
    assert len(eta) == N_STEPS and len(psi) == N_STEPS + 1
    for k in range(N_STEPS + 1):
        if k < N_STEPS:
            assert type(eta[k]) is float and eta[k] == adj.eta_k(k)
        assert type(psi[k]) is float and psi[k] == adj.psi_k(k)


@pytest.mark.parametrize("case", ["sgd", "pgd-matrix", "mb-pgf-matrix",
                                  "time-changed"])
def test_chunked_draws_keep_the_fingerprint(case, monkeypatch):
    # chunks of 7 steps (each draw is 2 wide: d, or the sgd batch size);
    # 2 000 = 285 * 7 + 5, so the draws also end on a shorter chunk
    monkeypatch.setattr(knl, "_CHUNK_DOUBLES", 7 * N_PATHS * 2)
    assert _digests(_run(case)) == GOLDEN[case]


@pytest.mark.parametrize("case", sorted(GOLDEN))
def test_tiled_steps_keep_the_fingerprint(case, monkeypatch):
    # the driven kernels step from 3-step tiles of the 7-step chunks, so
    # tiles end at odd steps within a chunk and at its end
    monkeypatch.setattr(knl, "_CHUNK_DOUBLES", 7 * N_PATHS * 2)
    monkeypatch.setattr(knl, "_TILE_DOUBLES", 3 * N_PATHS * 2)
    assert _digests(_run(case)) == GOLDEN[case]


# the kernels that draw through _kernels._draw_chunks (svrg and vr-pgf draw
# per epoch)
CHUNKED_CASES = sorted(set(GOLDEN) - {"svrg", "vr-pgf"})


@pytest.mark.parametrize("workers", [1, 2, 3, 5])
@pytest.mark.parametrize("case", CHUNKED_CASES)
def test_parallel_fill_keeps_the_fingerprint(case, workers, monkeypatch):
    # any number of fill threads, also more than paths (5 > N_PATHS leaves a
    # range empty), on 7-step chunks that end on a shorter one
    monkeypatch.setattr(knl, "_fill_workers", lambda n_paths: workers)
    monkeypatch.setattr(knl, "_CHUNK_DOUBLES", 7 * N_PATHS * 2)
    assert _digests(_run(case)) == GOLDEN[case]


# _NARROW_VALUES at 0 keeps every elementwise step on the block loop; above
# every block it puts the step on Python floats wherever it is eligible (a
# scalar volatility on an affine problem, in calls of more than two steps a
# value: the unweighted time-changed cases here, and a weighted run's
# one-step calls never)
EXECUTORS = {"block": 0, "narrow": 1 << 30}


@pytest.mark.parametrize("executor", sorted(EXECUTORS))
@pytest.mark.parametrize("case", sorted(GOLDEN))
def test_kernel_fingerprint_on_either_executor(case, executor, monkeypatch):
    monkeypatch.setattr(knl, "_NARROW_VALUES", EXECUTORS[executor])
    assert _digests(_run(case)) == GOLDEN[case]


@pytest.mark.parametrize("executor", sorted(EXECUTORS))
@pytest.mark.parametrize("case", ["mb-pgf-scalar", "pgd-scalar", "time-changed",
                                  "time-changed-a1"])
def test_split_draws_keep_the_fingerprint_on_either_executor(case, executor,
                                                              monkeypatch):
    # the chunked, tiled and parallel-fill variants above, on one executor,
    # for the cases with a scalar volatility (the others step on the block)
    monkeypatch.setattr(knl, "_NARROW_VALUES", EXECUTORS[executor])
    monkeypatch.setattr(knl, "_CHUNK_DOUBLES", 7 * N_PATHS * 2)
    assert _digests(_run(case)) == GOLDEN[case]
    with pytest.MonkeyPatch.context() as tiles:
        tiles.setattr(knl, "_TILE_DOUBLES", 3 * N_PATHS * 2)
        assert _digests(_run(case)) == GOLDEN[case]
    for workers in (1, 2, 3, 5):
        monkeypatch.setattr(knl, "_fill_workers", lambda n_paths: workers)
        assert _digests(_run(case)) == GOLDEN[case]


# -- a discrete bound curve --------------------------------------------------

# the pl_dt curve under psi_k = (1 + h k)^(-1/2): the table NumPy's SIMD power
# rounded differently from the scalar libm call
GOLDEN_BOUND_CURVE = "e26a0b6b24bd91d24ffd0da4b19083fe1776a42e278a51914023dd86b17b2203"


def _bound_curve_digest() -> str:
    inputs = BoundInputs.from_problem(_noisy(), X0, _adj(), BatchSchedule(b=2))
    curve = bound_discrete_curve(inputs, np.arange(N_STEPS + 1), "pl_dt")
    return hashlib.sha256(np.ascontiguousarray(curve).tobytes()).hexdigest()


def test_bound_curve_fingerprint():
    assert _bound_curve_digest() == GOLDEN_BOUND_CURVE


# -- schedule tables from array arguments ------------------------------------

# psi_k over an index array, phi and phi_inverse over a grid on [0, 4] and the
# prefix sums of psi_k, at a = 1/2 and a = 1: the tables NumPy's SIMD power,
# log1p and expm1 rounded differently from the scalar libm calls
GOLDEN_SCHEDULE_TABLES = "f90ce874aa6b4be66184ae9d1c916ec930cce3d847fa683520f155607e49c341"


def _schedule_tables_digest() -> str:
    ks = np.arange(20_001)
    grid = np.linspace(0.0, 4.0, 20_001)
    digest = hashlib.sha256()
    for a in (0.5, 1.0):
        adj = AdjustmentSchedule(h=2e-4, family="power", a=a)
        for table in (adj.psi_k(ks), phi(adj, grid), phi_inverse(adj, grid),
                      psi_prefix_sums(adj, ks[-1])):
            digest.update(np.ascontiguousarray(table).tobytes())
    return digest.hexdigest()


def test_schedule_table_fingerprint():
    assert _schedule_tables_digest() == GOLDEN_SCHEDULE_TABLES


# -- per-path simulators -----------------------------------------------------

SIMULATORS = {"run_mb_sgd": run_mb_sgd, "run_pgd": run_pgd,
              "run_svrg_option2": run_svrg_option2,
              "simulate_mb_pgf": simulate_mb_pgf,
              "simulate_vr_pgf": simulate_vr_pgf,
              "simulate_time_changed": simulate_time_changed}


def _simulate(case: str, reference_loop: bool = False):
    """One path of a public simulator (or its reference loop), first stream."""
    sim = getattr(reference, case) if reference_loop else SIMULATORS[case]
    adj = _adj()
    rng = _gens()[0]
    T = N_STEPS * 0.01
    growing = BatchSchedule(family="linear-growth", b0=1.0, rate=0.5)
    if case == "run_mb_sgd":
        return sim(_noisy(), adj, BatchSchedule(b=2), X0, N_STEPS, rng)
    if case == "run_pgd":
        return sim(_noisy(), adj, growing, X0, N_STEPS, rng)
    if case == "run_svrg_option2":
        return sim(_noisy(), 0.05, 5, N_STEPS // 5, X0, rng)
    if case == "simulate_mb_pgf":
        return sim(_noisy(), adj, growing, X0, 0.01, T, rng)
    if case == "simulate_vr_pgf":
        return sim(_spread(), _staleness(), X0[:1], 0.01, T, rng)
    if case == "simulate_time_changed":
        return sim(_isotropic(), adj, BatchSchedule(b=1), X0, 0.01, T, rng)
    raise ValueError(case)


def _trajectory_digests(tr) -> dict:
    arrays = {"states": tr.states, "f_gap": tr.f_gap,
              "grad_norm_sq": tr.grad_norm_sq, "dist_sq": tr.dist_sq}
    return {name: hashlib.sha256(np.ascontiguousarray(a).tobytes()).hexdigest()
            for name, a in arrays.items()}


GOLDEN_SIMULATORS = {
    "run_mb_sgd": {
        "states": "3a8d7537a93728411c20063d7324b6662cfb8a8e6dfe334c95c1fb273959b65c",
        "f_gap": "ca885ba8cbc987e79dc3dfdc8dbf9044026ea5d0e2df14abf23111b630c351d8",
        "grad_norm_sq": "55782a9e2c24869efef89f1e96d0d9a76f345a16d1349b5029c53795eca77fe7",
        "dist_sq": "e9d41105289a198bf8d02e01c96e1f4a3236cbe6dbdd5c8c0bda5e64c1466e28",
    },
    "run_pgd": {
        "states": "6a9d5c32643678769e8e8e3b3a8e77145b5b0736c1d27746a002b85e9d89c292",
        "f_gap": "7a8a632e6eea904633fe51367d9d6eb1a71b96d735813930d0d6be8b432e0df0",
        "grad_norm_sq": "07fedbdea7c6c02c7aabd462716d30f2b37767d0c4d4ec799ce9d44ee94192e7",
        "dist_sq": "91bae22b43d5761d70bae8b489c4358dbbfd8fcb983b6c1a21600dd74ced395a",
    },
    "run_svrg_option2": {
        "states": "22746445f90366b371016ba099fc68930366c1a5a2ac23c2a9425c05d95e9c0e",
        "f_gap": "9419f4e720bd35173b7e796f9bab0e1d2cb463f980a1edf13205d9626d2fca88",
        "grad_norm_sq": "9cd1522f0c5ca46c701c75844238080017518b80f18dda591ff712d066e951d9",
        "dist_sq": "a62a3dda1d3799761b96052d88cd12a0ab10c8c187cf9310fafeead7f826f052",
    },
    "simulate_mb_pgf": {
        "states": "17ed992f708f9fb346aeee93d704808fc901c8ba6897212ed2232d3665878636",
        "f_gap": "a6cea59e910f00600658710d97629978924e4c278d876de98f5dff0b50f0d802",
        "grad_norm_sq": "179c5d3175d13cac5b508e2ec9b367ae31ef5b20b95742f94e6301a28e636bcf",
        "dist_sq": "d5db8f285decdedd25b79ee70fa7cfdae5e1b5ebf479581477f65c6a7d7050a1",
    },
    "simulate_vr_pgf": {
        "states": "96998e7e095c1bc29a230d378daccd5ec3859c6df1389aa3ca97c7f98ff43a2d",
        "f_gap": "50fb45e16270ae3464218885e2bae114c32c26cba808823dc34e1036558347f7",
        "grad_norm_sq": "91b3042189509c244340e8f9fef3289a351df9159132a03b7ddbffd884929df5",
        "dist_sq": "0c754fcaa3b80a8492f1210b8bb6dd76d0cb10c1d0edd3e8c34fe51f84c9d2e5",
    },
    "simulate_time_changed": {
        "states": "16949f076f3ec27c4099e5f9f800570fb057c5cff39c0d4f7c61cc7e5600abc1",
        "f_gap": "afb091e006c50b61fe0099910d025634a78b5bd3e26e286d01ab7bafbee392b7",
        "grad_norm_sq": "2f73d33204f381b08cd69b1e6812faa9cd284a37db5181c9f586fefe713de800",
        "dist_sq": "2f73d33204f381b08cd69b1e6812faa9cd284a37db5181c9f586fefe713de800",
    },
}


@pytest.mark.parametrize("case", sorted(GOLDEN_SIMULATORS))
def test_simulator_fingerprint(case):
    tr = _simulate(case)
    assert not tr.diverged and len(tr) == N_STEPS + 1
    assert _trajectory_digests(tr) == GOLDEN_SIMULATORS[case]


# -- ensembles ---------------------------------------------------------------

ENSEMBLE_STEPS = 300
ENSEMBLE_MODES = ("sgd", "pgd", "mb-pgf", "time-changed", "svrg", "vr-pgf")


def _ensemble(mode: str, engine: str = "kernel"):
    """ensemble_run of one mode, weighted where the mode allows it.

    ``engine="paths"`` runs the kernel on one path at a time, as the public
    simulators do, and stacks the paths; the matrix-volatility modes (pgd,
    mb-pgf) then take per-path matrix products instead of one block product.
    """
    T = ENSEMBLE_STEPS * 0.01
    common = dict(x0=X0, record_every=7)
    if mode in ("sgd", "pgd"):
        spec = RunSpec(mode=mode, problem=_noisy(), adj=_adj(),
                       batch=BatchSchedule(b=2), n_steps=ENSEMBLE_STEPS,
                       weights=True, **common)
    elif mode == "mb-pgf":
        spec = RunSpec(mode=mode, problem=_noisy(), adj=_adj(),
                       batch=BatchSchedule(b=2), dt=0.01, T=T, weights=True,
                       **common)
    elif mode == "time-changed":
        spec = RunSpec(mode=mode, problem=_isotropic(), adj=_adj(), dt=0.01,
                       T=T, **common)
    elif mode == "svrg":
        spec = RunSpec(mode=mode, problem=_noisy(), h=0.05, epoch_steps=5,
                       n_epochs=ENSEMBLE_STEPS // 5, **common)
    else:
        spec = RunSpec(mode=mode, problem=_spread(), x0=X0[:1],
                       staleness=_staleness(), dt=0.01, T=T, record_every=7)
    with pytest.MonkeyPatch.context() as mp:
        if engine == "paths":
            mp.setattr(harness, "_kernel_dispatch",
                       reference.one_path_at_a_time(harness._kernel_dispatch))
        return ensemble_run(spec, N_PATHS, SEED)


def _stats_digest(stats) -> str:
    h = hashlib.sha256()
    h.update(np.ascontiguousarray(stats.grid).tobytes())
    h.update(np.asarray([stats.n_paths, stats.divergence_count]).tobytes())
    for key in sorted(stats.mean):
        h.update(key.encode())
        h.update(np.ascontiguousarray(stats.mean[key]).tobytes())
        h.update(np.ascontiguousarray(stats.variance[key]).tobytes())
    return h.hexdigest()


GOLDEN_ENSEMBLES = {
    "sgd/kernel":
        "49b6dfea788e82d2738239dae4cbacd43a202635319cb4c1708206cb1ed4177c",
    "sgd/paths":
        "49b6dfea788e82d2738239dae4cbacd43a202635319cb4c1708206cb1ed4177c",
    "pgd/kernel":
        "c019bcff0113e3117938f242e3db42ee03009e2b1712bbf17c089dbc8460aa39",
    "pgd/paths":
        "d395f36f3d87121aae6a43786f47d6166fe394b19f57b68c573ea45385d10f76",
    "mb-pgf/kernel":
        "8ba529ff92598edb6d3598831557bad0c82e8f8b80f64c26051973054a7db207",
    "mb-pgf/paths":
        "926bbfa8ae2db9f01c586664f82fde28ef9c93847c26b228030f455615e7948c",
    "time-changed/kernel":
        "b612610f998222f62944a512e153c8701a8d2aff20d1f60eb73ca5abd96e728e",
    "time-changed/paths":
        "b612610f998222f62944a512e153c8701a8d2aff20d1f60eb73ca5abd96e728e",
    "svrg/kernel":
        "1f986bd571e43ff8d0af8cae3b5676eaa1b59ac15860c0e1d07bf2425960887f",
    "svrg/paths":
        "1f986bd571e43ff8d0af8cae3b5676eaa1b59ac15860c0e1d07bf2425960887f",
    "vr-pgf/kernel":
        "68b085ed683facb72445c1806634c38ad599e117597b5175a293a268b26cdeba",
    "vr-pgf/paths":
        "68b085ed683facb72445c1806634c38ad599e117597b5175a293a268b26cdeba",
}


@pytest.mark.parametrize("case", sorted(GOLDEN_ENSEMBLES))
def test_ensemble_fingerprint(case):
    mode, engine = case.rsplit("/", 1)
    stats = _ensemble(mode, engine)
    assert _stats_digest(stats) == GOLDEN_ENSEMBLES[case]


@pytest.mark.parametrize("workers", [1, 2, 3, 5])
@pytest.mark.parametrize("mode", ("sgd", "pgd", "mb-pgf", "time-changed"))
def test_ensemble_fingerprint_for_any_fill_worker_count(mode, workers,
                                                         monkeypatch):
    monkeypatch.setattr(knl, "_fill_workers", lambda n_paths: workers)
    stats = _ensemble(mode)
    assert _stats_digest(stats) == GOLDEN_ENSEMBLES[f"{mode}/kernel"]


@pytest.mark.parametrize("case", sorted(GOLDEN_ENSEMBLES))
def test_small_chunks_keep_the_ensemble_digests(case, monkeypatch):
    # a budget of 2 112 doubles splits the (4, 44, 2) state block into
    # observable chunks of 3 paths and 1, and the kernels' draws into
    # 264-step chunks ending on a 36-step one (1 056-step chunks one path
    # at a time)
    monkeypatch.setattr(knl, "_CHUNK_DOUBLES", 2_112)
    mode, engine = case.rsplit("/", 1)
    assert _stats_digest(_ensemble(mode, engine)) == GOLDEN_ENSEMBLES[case]


# -- the closed-form slope fit -----------------------------------------------

# the fit behind the weak-error and landscape slopes, on inputs that take no
# vector transcendental function: its mean and sums must not depend on the
# SIMD level
GOLDEN_SLOPE = "-0x1.7ffffd93c03e5p-1"


def _slope_fit() -> float:
    i = np.arange(20_001)
    x = 1.0 + i / 64.0
    return harness._slope(x, -0.75 * x + (i * 7919 % 101) / 997.0)


def test_slope_fit_fingerprint():
    assert _slope_fit().hex() == GOLDEN_SLOPE


# NumPy's runtime dispatch switched down to what an x86-64 host without
# AVX-512, and then without AVX2 as well, would run, and OpenBLAS's Haswell
# kernels, which such a host without AVX-512 runs; set in the child's
# environment only, and the native child runs the native kernels
SIMD_LEVELS = {
    "native": {},
    "no-avx512": {"NPY_DISABLE_CPU_FEATURES": "AVX512_SPR AVX512_ICL X86_V4"},
    "no-avx2": {"NPY_DISABLE_CPU_FEATURES": "AVX512_SPR AVX512_ICL X86_V4 X86_V3"},
    "openblas-haswell": {"OPENBLAS_CORETYPE": "Haswell"},
}


def test_digests_do_not_depend_on_simd_level():
    # every kernel, simulator, bound-curve, schedule-table, slope and
    # ensemble digest above must hold whatever SIMD level NumPy and OpenBLAS
    # dispatch to: the schedule values behind them come from scalar
    # formulas, never from NumPy's vector power, log1p or expm1, and the
    # observables and the slope from NumPy sums, never from a BLAS dot
    # product or a LAPACK solve
    root = Path(__file__).resolve().parents[1]
    cmd = [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
           str(Path(__file__).resolve()),
           "-k", "ensemble_fingerprint or kernel_fingerprint"
                 " or simulator_fingerprint or bound_curve_fingerprint"
                 " or schedule_table_fingerprint or slope_fit_fingerprint"]
    children = {}
    for level, settings in SIMD_LEVELS.items():
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [str(root / "src"), env.get("PYTHONPATH")]))
        env.pop("NPY_DISABLE_CPU_FEATURES", None)
        env.pop("OPENBLAS_CORETYPE", None)
        env.update(settings)
        children[level] = subprocess.Popen(
            cmd, cwd=root, env=env, stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT, text=True)
    # the kernel digests at the default executor and on each one, the
    # simulator, bound-curve, schedule-table, slope and ensemble digests, and
    # 4 worker counts x 4 modes
    n_cases = ((1 + len(EXECUTORS)) * len(GOLDEN) + len(GOLDEN_SIMULATORS) + 3
               + len(GOLDEN_ENSEMBLES) + 4 * 4)
    for level, child in children.items():
        out, _ = child.communicate(timeout=600)
        assert child.returncode == 0, (level, out[-3000:])
        assert f"{n_cases} passed" in out, (level, out[-3000:])


if __name__ == "__main__":
    print("GOLDEN = {")
    for name in ("sgd", "pgd-scalar", "pgd-matrix", "mb-pgf-scalar",
                 "mb-pgf-matrix", "time-changed", "time-changed-a1", "svrg",
                 "vr-pgf"):
        print(f"    {name!r}: {_digests(_run(name))!r},")
    print(f"}}\nGOLDEN_BOUND_CURVE = {_bound_curve_digest()!r}")
    print(f"GOLDEN_SCHEDULE_TABLES = {_schedule_tables_digest()!r}")
    print(f"GOLDEN_SLOPE = {_slope_fit().hex()!r}")
    print("GOLDEN_SIMULATORS = {")
    for name in SIMULATORS:
        digests = _trajectory_digests(_simulate(name))
        same = digests == _trajectory_digests(_simulate(name, reference_loop=True))
        print(f"    {name!r}: {digests!r},"
              + ("" if same else "  # differs from the reference loop"))
    print("}\nGOLDEN_ENSEMBLES = {")
    for mode in ENSEMBLE_MODES:
        for engine in ("kernel", "paths"):
            stats = _ensemble(mode, engine)
            print(f"    {mode + '/' + engine!r}: {_stats_digest(stats)!r},")
    print("}")
