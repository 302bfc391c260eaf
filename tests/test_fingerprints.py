"""Golden fingerprints of the ensemble kernels' sample paths.

Each case runs a kernel for 2 000 steps under the power schedule a = 0.5 and
compares the SHA-256 of its recorded states (and of its weighted sums, where
they are on) with a digest frozen from the reference implementation.  A new
psi value enters every step, so a coefficient table that moves by one ulp
anywhere changes the digest: these tests pin the kernels' arithmetic bit for
bit, where the simulator-parity tests in ``test_kernels.py`` allow the matrix
paths a tolerance.

The digests depend on this platform's libm (``pow``, ``sqrt``) and on the
NumPy build: they were frozen on x86-64 Linux with glibc, an AVX-512 CPU and
NumPy 2.4.6.  On another platform they may legitimately differ; print the
local digests with ``PYTHONPATH=src python tests/test_fingerprints.py`` and
compare them with a run of the reference implementation there.
"""

import hashlib

import numpy as np
import pytest

from sgflow._kernels import (
    _step_tables,
    kernel_mb_pgf,
    kernel_mb_sgd,
    kernel_pgd,
    kernel_time_changed,
)
from sgflow.problems import make_isotropic_quadratic, make_perturbed_quadratic
from sgflow.schedules import AdjustmentSchedule, BatchSchedule

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


def _gens():
    return [np.random.default_rng(s)
            for s in np.random.SeedSequence(SEED).spawn(N_PATHS)]


def _run(case: str):
    adj = AdjustmentSchedule(h=0.05, family="power", a=0.5)
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
    # of the scalar calls the per-path simulators make, not those of an
    # index-array evaluation, which SIMD power may round differently
    eta, psi = _step_tables(adj, N_STEPS)
    assert len(eta) == N_STEPS and len(psi) == N_STEPS + 1
    for k in range(N_STEPS + 1):
        if k < N_STEPS:
            assert type(eta[k]) is float and eta[k] == adj.eta_k(k)
        assert type(psi[k]) is float and psi[k] == adj.psi_k(k)


if __name__ == "__main__":
    for name in ("sgd", "pgd-scalar", "pgd-matrix", "mb-pgf-scalar",
                 "mb-pgf-matrix", "time-changed"):
        print(f"    {name!r}: {_digests(_run(name))!r},")
