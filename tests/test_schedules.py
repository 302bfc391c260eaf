"""Adjustment / batch / staleness schedules and the reparametrized clock."""

import math

import numpy as np
import pytest

from sgflow.schedules import (
    AdjustmentSchedule,
    BatchSchedule,
    StalenessSchedule,
    discrete_phi,
    phi,
    phi_inverse,
    psi_prefix_sums,
    randomized_index,
    randomized_time,
)
from sgflow.schedules import phi_inverse_bisect

seed = 20260818
grid = np.linspace(0.0, 25.0, 41)[1:]  # strictly positive times

# closed-form anchors, worked by hand:
#   a = 1/2:  phi(t) = 2*(sqrt(1+t) - 1)        -> phi(3) = 2
#   a = 1:    tau(s) = e^s - 1                  -> tau(2) = e^2 - 1
PHI_3_HALF = 2.0
TAU_2_LOG = 6.3890560989306495


def test_psi_basics():
    adj = AdjustmentSchedule(h=0.1, family="power", a=0.7)
    assert adj.psi(0.0) == 1.0
    vals = adj.psi(grid)
    assert np.all(np.diff(vals) < 0)  # strictly decaying along the grid
    # psi_k is psi sampled on the step grid, eta_k the actual stepsizes
    ks = np.arange(12)
    assert np.array_equal(adj.psi_k(ks), adj.psi(0.1 * ks))
    assert np.array_equal(adj.eta_k(ks), 0.1 * adj.psi_k(ks))


def test_constant_family_is_identity_clock():
    adj = AdjustmentSchedule(h=0.5)
    assert adj.psi(17.3) == 1.0
    for t in grid:
        assert phi(adj, t) == t
        assert phi_inverse(adj, t) == t


def test_phi_closed_form_anchors():
    assert phi(AdjustmentSchedule(h=0.1, family="power", a=0.5), 3.0) == pytest.approx(PHI_3_HALF, abs=1e-14)
    assert phi_inverse(AdjustmentSchedule(h=0.1, family="power", a=1.0), 2.0) == pytest.approx(TAU_2_LOG, rel=1e-15)
    # log clock: phi(t) = log(1+t)
    assert phi(AdjustmentSchedule(h=0.1, family="power", a=1.0), math.e - 1.0) == pytest.approx(1.0, rel=1e-15)


@pytest.mark.parametrize("a", [0.25, 0.5, 0.75, 1.0])
def test_phi_inverse_round_trip(a):
    adj = AdjustmentSchedule(h=0.2, family="power", a=a)
    ss = phi(adj, grid)
    assert np.max(np.abs(phi_inverse(adj, ss) - grid)) <= 1e-10 * np.max(grid)
    assert np.max(np.abs(phi(adj, phi_inverse(adj, ss)) - ss)) <= 1e-10 * np.max(ss)


@pytest.mark.parametrize("a", [0.3, 0.5, 1.0])
def test_phi_inverse_matches_bisection(a):
    # the closed form against a slow bracketing solve of phi(t) = s
    adj = AdjustmentSchedule(h=1.0, family="power", a=a)
    for s in (0.01, 0.5, 2.0, 7.0):
        t_closed = phi_inverse(adj, s)
        t_bisect = phi_inverse_bisect(adj, s)
        assert math.isclose(t_closed, t_bisect, rel_tol=1e-10, abs_tol=1e-12)


def test_discrete_phi_is_prefix_sum():
    adj = AdjustmentSchedule(h=0.3, family="power", a=0.6)
    acc = 0.0
    for k in range(20):
        acc += float(adj.psi(0.3 * k))
        assert discrete_phi(adj, k) == pytest.approx(acc, rel=1e-15)
    sums = psi_prefix_sums(adj, 19)
    assert sums.shape == (20,)
    assert sums[-1] == pytest.approx(acc, rel=1e-15)
    assert np.all(np.diff(sums) > 0)


def test_randomized_index_frequencies():
    # P(i) = psi_i / Phi_{k+1}; check empirical frequencies to 4 binomial SEs
    adj = AdjustmentSchedule(h=1.0, family="power", a=1.0)
    k = 3
    weights = adj.psi_k(np.arange(k + 1))
    probs = weights / weights.sum()
    rng = np.random.default_rng(seed)
    n = 20_000
    draws = np.array([randomized_index(adj, k, rng) for _ in range(n)])
    counts = np.bincount(draws, minlength=k + 1)
    for i in range(k + 1):
        se = math.sqrt(probs[i] * (1 - probs[i]) / n)
        assert abs(counts[i] / n - probs[i]) <= 4 * se


def test_randomized_time_distribution():
    # P(s <= q) = phi(q)/phi(t); compare the empirical CDF at a few quantiles
    adj = AdjustmentSchedule(h=1.0, family="power", a=0.5)
    t = 10.0
    rng = np.random.default_rng(seed + 1)
    n = 20_000
    draws = np.array([randomized_time(adj, t, rng) for _ in range(n)])
    assert draws.min() >= 0.0 and draws.max() <= t
    for q in (1.0, 3.0, 7.0):
        target = phi(adj, q) / phi(adj, t)
        se = math.sqrt(target * (1 - target) / n)
        assert abs(np.mean(draws <= q) - target) <= 4 * se


def test_batch_constant():
    batch = BatchSchedule(b=3)
    assert batch.value(1234.5) == 3.0
    assert batch.size_at_step(7, 0.1) == 3


def test_batch_linear_growth_rounds_half_up():
    batch = BatchSchedule(family="linear-growth", b0=1.0, rate=1.0)
    # value(t) = 1 + t is exact; b_k samples it at t = h*k and rounds
    # halves away from zero
    assert batch.value(2.5) == 3.5
    assert batch.size_at_step(0, 0.5) == 1   # value 1.0
    assert batch.size_at_step(1, 0.5) == 2   # value 1.5 -> 2
    assert batch.size_at_step(9, 0.5) == 6   # value 5.5 -> 6
    shrink = BatchSchedule(family="linear-growth", b0=1.0, rate=0.0)
    assert shrink.size_at_step(10_000, 1.0) == 1  # never below one sample


def test_staleness_sawtooth():
    st = StalenessSchedule(m=4, h=0.25)
    assert st.epoch_time == 1.0
    ts = np.array([0.0, 0.3, 0.99, 1.0, 1.7, 2.0])
    assert np.allclose(st.xi(ts), [0.0, 0.3, 0.99, 0.0, 0.7, 0.0], atol=1e-12)


@pytest.mark.parametrize("kwargs", [
    dict(h=0.0),
    dict(h=-1.0),
    dict(h=math.inf),
    dict(h=0.1, family="exp"),
    dict(h=0.1, family="power"),           # power needs a
    dict(h=0.1, family="power", a=0.0),
    dict(h=0.1, family="power", a=1.5),
    dict(h=0.1, family="constant", a=0.5),  # a is meaningless here
])
def test_adjustment_rejects_bad_parameters(kwargs):
    with pytest.raises(ValueError):
        AdjustmentSchedule(**kwargs)


@pytest.mark.parametrize("kwargs", [
    dict(b=0),
    dict(b=1.5),
    dict(family="linear-growth", b0=0.5, rate=1.0),
    dict(family="linear-growth", b0=1.0, rate=-0.1),
    dict(family="geometric"),
])
def test_batch_rejects_bad_parameters(kwargs):
    with pytest.raises(ValueError):
        BatchSchedule(**kwargs)


def test_staleness_rejects_bad_parameters():
    with pytest.raises(ValueError):
        StalenessSchedule(m=0, h=0.1)
    with pytest.raises(ValueError):
        StalenessSchedule(m=4, h=0.0)


def test_clock_functions_reject_bad_arguments():
    adj = AdjustmentSchedule(h=0.1)
    rng = np.random.default_rng(0)
    with pytest.raises(ValueError):
        discrete_phi(adj, -1)
    with pytest.raises(ValueError):
        randomized_index(adj, -1, rng)
    with pytest.raises(ValueError):
        randomized_time(adj, 0.0, rng)


# -- scalar path ---------------------------------------------------------------

ADJUSTMENTS = [
    AdjustmentSchedule(h=0.1),
    AdjustmentSchedule(h=0.1, family="power", a=0.5),
    AdjustmentSchedule(h=0.3, family="power", a=1.0),
    AdjustmentSchedule(h=0.05, family="power", a=0.3),
]
BATCHES = [
    BatchSchedule(b=3),
    BatchSchedule(family="linear-growth", b0=1.0, rate=2.5),
]
# integers along a long run, and floats over twelve decades
SCALAR_INTS = list(range(0, 100_000, 613))
SCALAR_FLOATS = list(np.geomspace(1e-6, 1e6, 301)) + [0.0, 0.5, 2.0]


def _scalar_methods(adj, batch):
    return {
        "psi": adj.psi,
        "psi_k": adj.psi_k,
        "eta_k": adj.eta_k,
        "phi": lambda x: phi(adj, x),
        "phi_inverse": lambda x: phi_inverse(adj, x),
        "value": batch.value,
        "size_at_step": lambda x: batch.size_at_step(x, adj.h),
    }


def _bits(v):
    return v if isinstance(v, int) else np.float64(v).tobytes()


@pytest.mark.parametrize("adj", ADJUSTMENTS, ids=lambda s: f"{s.family}-{s.a}")
@pytest.mark.parametrize("batch", BATCHES, ids=lambda s: s.family)
def test_scalar_path_matches_0d_array_path(adj, batch):
    # int, float and np.float64 arguments skip the array conversion; they
    # must give the bits and the type a 0-d array argument gives
    for name, f in _scalar_methods(adj, batch).items():
        for x in SCALAR_INTS + SCALAR_FLOATS:
            args = [float(x), np.float64(x), np.asarray(x)]
            if isinstance(x, int):
                args.append(x)
            with np.errstate(over="ignore"):  # e^s - 1 at large s
                ref = f(np.asarray(x, dtype=float))
                results = [f(arg) for arg in args]
            for arg, got in zip(args, results):
                assert type(got) is type(ref), (name, arg)
                assert _bits(got) == _bits(ref), (name, arg)


def test_scalar_path_result_types():
    const, power = ADJUSTMENTS[0], ADJUSTMENTS[1]
    for arg in (3, 3.0, np.float64(3.0), np.asarray(3.0)):
        assert type(const.psi(arg)) is float and const.psi(arg) == 1.0
        assert type(const.eta_k(arg)) is float
        assert type(power.psi(arg)) is np.float64
        assert type(power.eta_k(arg)) is np.float64
        assert type(phi(const, arg)) is np.float64
        assert type(phi_inverse(power, arg)) is np.float64
        assert type(BATCHES[0].value(arg)) is np.float64
        assert type(BATCHES[1].value(arg)) is np.float64
        assert type(BATCHES[1].size_at_step(arg, 0.5)) is int


@pytest.mark.parametrize("bad", [-1, -0.5, np.float64(-2.0), np.asarray(-1.0)])
def test_scalar_path_rejects_negative_arguments(bad):
    for adj in ADJUSTMENTS:
        for name, f in _scalar_methods(adj, BATCHES[1]).items():
            with pytest.raises(ValueError):
                f(bad)


@pytest.mark.parametrize("adj", ADJUSTMENTS[1:], ids=lambda s: f"a={s.a}")
@pytest.mark.parametrize("s", [1e308, 10**300, np.float64(1e300)])
def test_phi_inverse_overflows_to_inf(adj, s):
    # NumPy float arithmetic overflows to inf; Python-float ** would raise
    with np.errstate(over="ignore"):
        out = phi_inverse(adj, s)
    assert type(out) is np.float64 and out == np.inf


# -- array arguments -----------------------------------------------------------

# long enough that NumPy's vector power, log1p and expm1 rounded thousands of
# these values differently from the scalar calls on an AVX-512 host
N_POINTS = 200_001
INDICES = np.arange(N_POINTS)
TIMES = np.linspace(0.0, 4.0, N_POINTS)


def _same_bits(got, want):
    return (type(got) is np.ndarray and got.dtype == want.dtype
            and got.shape == want.shape and got.tobytes() == want.tobytes())


def _scalar_map(f, xs, dtype=float):
    return np.array([f(x) for x in xs.tolist()], dtype=dtype)


@pytest.mark.parametrize("a", [0.3, 0.5, 1.0])
def test_array_arguments_give_the_scalar_bits(a):
    adj = AdjustmentSchedule(h=2e-5, family="power", a=a)
    for f, xs in ((adj.psi_k, INDICES), (adj.eta_k, INDICES), (adj.psi, TIMES),
                  (lambda x: phi(adj, x), TIMES),
                  (lambda x: phi_inverse(adj, x), TIMES)):
        assert _same_bits(f(xs), _scalar_map(f, xs))
    psi_ks = _scalar_map(adj.psi_k, INDICES[:20_001])
    assert _same_bits(psi_prefix_sums(adj, 20_000), np.cumsum(psi_ks))
    for k in (0, 1, 999, 20_000):
        assert discrete_phi(adj, k) == float(np.sum(psi_ks[:k + 1]))


@pytest.mark.parametrize("batch", BATCHES, ids=lambda s: s.family)
def test_batch_array_arguments_give_the_scalar_bits(batch):
    assert _same_bits(batch.value(TIMES), _scalar_map(batch.value, TIMES))
    sizes = batch.size_at_step(INDICES, 2e-5)
    assert _same_bits(sizes, _scalar_map(lambda k: batch.size_at_step(k, 2e-5),
                                         INDICES, dtype=int))


def test_array_arguments_keep_shape_and_dtype():
    adj, batch = ADJUSTMENTS[1], BATCHES[1]
    block = np.arange(6.0).reshape(2, 3)
    assert adj.psi(block).shape == (2, 3)
    assert batch.size_at_step(block, 0.5).dtype == np.dtype(int)
    empty = batch.size_at_step(np.arange(0), 0.5)
    assert empty.shape == (0,) and empty.dtype == np.dtype(int)
    assert phi(adj, []).shape == (0,) and phi(adj, []).dtype == np.float64
    assert np.array_equal(ADJUSTMENTS[0].psi([0.0, 2.5]), [1.0, 1.0])
    with pytest.raises(ValueError, match="step index must be >= 0"):
        adj.psi_k(np.array([3, -1]))
