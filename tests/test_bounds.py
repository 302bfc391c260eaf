"""Rate guarantees: closed forms, schedule integrals, admissibility gates."""

import math
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest
from scipy.integrate import quad

from sgflow.bounds import (
    CONTINUOUS_KINDS,
    DISCRETE_KINDS,
    AdmissibilityError,
    BoundInputs,
    RateBound,
    RateDescriptor,
    asymptotic_exponent,
    ball_bound,
    bound_discrete,
    bound_discrete_curve,
    bound_pl_ct,
    bound_smooth_ct,
    bound_vr,
    bound_wqc,
    equivalent_gradient_rhs,
    landscape_stretch_reference,
    lyapunov_energy,
    noise_integral,
    pl_noise_integral,
    wqc_last_integral,
)
from sgflow.problems import make_perturbed_quadratic
from sgflow.schedules import AdjustmentSchedule, BatchSchedule, phi

# shared scenario: curvatures (1, 2), noise vectors +/-(0.5, 0.3), start
# offset (1, 1) -> d=2, L=2, mu=1, tau=1, sigma*^2=0.34, f0=1.5, dist0=2
D = 2
L = 2.0
MU = 1.0
TAU = 1.0
S2 = 0.34
F0 = 1.5
DIST0 = 2.0
H = 0.25

# integrals of psi(s)^2 and (L tau phi(s) + 1) psi(s)^2 over [0, 7] at
# L tau = 2, from adaptive quadrature at epsrel 1e-13 (frozen)
I7 = {0.3: 3.243491774985175, 0.5: 2.079441541679836, 1.0: 0.875}
W7 = {0.3: 16.961191396480338, 0.5: 8.389092372930014, 1.0: 2.1051396145800414}

# gradient-domination curve at the scenario constants, psi = 1, b = 1:
#   e^{-2t} f0 + (h d L s2 / 2)(1 - e^{-2t}) / 2
PL_CT_FROZEN = {0.0: 1.5, 1.0: 0.27649942577980696, 10.0: 0.08500000291653237}


def make_inputs(adj=None, batch=None, **over):
    base = dict(d=D, L=L, f0_gap=F0, dist0_sq=DIST0,
                adj=adj if adj is not None else AdjustmentSchedule(h=H),
                batch=batch if batch is not None else BatchSchedule(),
                sigma_star_sq=S2, mu_pl=MU, mu_rsi=MU, tau=TAU)
    base.update(over)
    return BoundInputs(**base)


def test_from_problem_pulls_declared_constants():
    p = make_perturbed_quadratic([1.0, 2.0], [0.25, -1.0],
                                 [[0.5, 0.3], [-0.5, -0.3]])
    adj = AdjustmentSchedule(h=H)
    x0 = p.x_star + np.array([1.0, 1.0])
    inputs = BoundInputs.from_problem(p, x0, adj, m=7)
    assert inputs.d == 2 and inputs.L == 2.0
    assert inputs.f0_gap == pytest.approx(F0, rel=1e-14)
    assert inputs.dist0_sq == pytest.approx(DIST0, rel=1e-14)
    assert inputs.sigma_star_sq == pytest.approx(S2, rel=1e-14)
    assert inputs.mu_pl == 1.0 and inputs.mu_rsi == 1.0 and inputs.tau == 1.0
    assert inputs.m == 7
    assert inputs.h == H
    assert inputs.batch.b == 1


# -- schedule integrals -------------------------------------------------------


@pytest.mark.parametrize("a", [0.3, 0.5, 1.0])
def test_noise_integral_closed_form(a):
    adj = AdjustmentSchedule(h=H, family="power", a=a)
    assert noise_integral(make_inputs(adj=adj), 7.0) == pytest.approx(I7[a], rel=1e-12)
    # 1/b scaling and an in-test quadrature cross-check at b = 3
    inputs3 = make_inputs(adj=adj, batch=BatchSchedule(b=3))
    ref, _ = quad(lambda s: (1 + s) ** (-2 * a) / 3.0, 0.0, 7.0, epsrel=1e-12)
    assert noise_integral(inputs3, 7.0) == pytest.approx(ref, rel=1e-8)
    assert noise_integral(inputs3, 7.0) == pytest.approx(I7[a] / 3.0, rel=1e-12)


def test_noise_integral_constant_families():
    assert noise_integral(make_inputs(batch=BatchSchedule(b=3)), 7.0) == 7.0 / 3.0


@pytest.mark.parametrize("a", [0.3, 0.5, 1.0])
def test_wqc_last_integral_closed_form(a):
    adj = AdjustmentSchedule(h=H, family="power", a=a)
    assert wqc_last_integral(make_inputs(adj=adj), 7.0) == pytest.approx(W7[a], rel=1e-12)


def test_wqc_last_integral_constant_psi():
    t = 7.0
    expected = (L * TAU * t * t / 2.0 + t) / 2.0
    assert wqc_last_integral(make_inputs(batch=BatchSchedule(b=2)), t) == pytest.approx(expected, rel=1e-14)


def test_pl_noise_integral_constant_closed_form():
    inputs = make_inputs(batch=BatchSchedule(b=2))
    t = 3.0
    expected = (1.0 - math.exp(-2.0 * MU * t)) / (2.0 * MU * 2)
    assert pl_noise_integral(inputs, t) == pytest.approx(expected, rel=1e-13)
    assert pl_noise_integral(inputs, 0.0) == 0.0


@pytest.mark.parametrize("t", [3.0, 1e6])
def test_pl_noise_integral_power_psi(t):
    # independent oracle by substituting v = phi(t) - phi(s):
    #   J(t) = ∫_0^{phi(t)} (1 + (1-a)(phi(t)-v))^{-a/(1-a)} e^{-2 mu v} dv,
    # which stays a small, well-conditioned domain even for huge t
    a = 0.5
    adj = AdjustmentSchedule(h=H, family="power", a=a)
    inputs = make_inputs(adj=adj)
    phi_t = phi(adj, t)
    v_hi = min(phi_t, 60.0 / (2.0 * MU))

    def integrand(v):
        return (1.0 + (1 - a) * (phi_t - v)) ** (-a / (1 - a)) * math.exp(-2 * MU * v)

    ref, _ = quad(integrand, 0.0, v_hi, epsabs=0.0, epsrel=1e-12, limit=400)
    assert pl_noise_integral(inputs, t) == pytest.approx(ref, rel=1e-8)


def test_linear_growth_batch_integrals():
    # psi = 1 and b(s) = 1 + s give log/affine antiderivatives by hand
    batch = BatchSchedule(family="linear-growth", b0=1.0, rate=1.0)
    inputs = make_inputs(batch=batch)
    t = 5.0
    assert noise_integral(inputs, t) == pytest.approx(math.log1p(t), rel=1e-10)
    expected = L * TAU * (t - math.log1p(t)) + math.log1p(t)
    assert wqc_last_integral(inputs, t) == pytest.approx(expected, rel=1e-10)


# -- continuous-time bounds ---------------------------------------------------


def test_bound_smooth_ct_constant_psi():
    inputs = make_inputs()
    t = 2.5
    expected = (F0 + (H * D * L * S2 / 2.0) * t) / t
    assert bound_smooth_ct(inputs, t) == pytest.approx(expected, rel=1e-14)
    with pytest.raises(ValueError):
        bound_smooth_ct(inputs, 0.0)


def test_bound_wqc_variants_compose_head_and_noise():
    adj = AdjustmentSchedule(h=H, family="power", a=0.5)
    inputs = make_inputs(adj=adj)
    t = 7.0
    phi_t = phi(adj, t)
    head = DIST0 / (2.0 * TAU * phi_t)
    scale = H * D * S2 / (2.0 * TAU * phi_t)
    assert bound_wqc(inputs, t, "randomized") == pytest.approx(
        head + scale * I7[0.5], rel=1e-12)
    assert bound_wqc(inputs, t, "last") == pytest.approx(
        head + scale * W7[0.5], rel=1e-12)
    with pytest.raises(ValueError):
        bound_wqc(inputs, t, "average")
    with pytest.raises(ValueError):
        bound_wqc(inputs, 0.0, "randomized")
    with pytest.raises(ValueError):
        bound_wqc(make_inputs(tau=None), t, "randomized")


@pytest.mark.parametrize("t", sorted(PL_CT_FROZEN))
def test_bound_pl_ct_frozen_curve(t):
    assert bound_pl_ct(make_inputs(), t) == pytest.approx(PL_CT_FROZEN[t], rel=1e-12)


def test_bound_pl_ct_edges():
    inputs = make_inputs()
    assert bound_pl_ct(inputs, 0.0) == F0
    with pytest.raises(ValueError):
        bound_pl_ct(inputs, -1.0)
    with pytest.raises(ValueError):
        bound_pl_ct(make_inputs(mu_pl=None), 1.0)


def test_vr_contraction_factor_frozen():
    # mu = 10, L = 1, h = 0.01, m = 100 -> rho = 51/499 exactly
    inputs = make_inputs(d=1, L=1.0, f0_gap=5.0, dist0_sq=4.0,
                         adj=AdjustmentSchedule(h=0.01),
                         mu_pl=10.0, mu_rsi=10.0, m=100)
    rho = float(Fraction(51, 499))
    assert bound_vr(inputs, 0, "discrete") == 4.0
    assert bound_vr(inputs, 1, "discrete") / 4.0 == pytest.approx(rho, rel=1e-14)
    for j in range(6):
        dt = bound_vr(inputs, j, "discrete")
        ct = bound_vr(inputs, j, "continuous")
        assert dt == ct  # T = m h makes the two forms identical
        assert dt == pytest.approx(rho ** j * 4.0, rel=1e-12)


def test_vr_bound_rejections():
    good = make_inputs(L=1.0, mu_rsi=10.0, m=100,
                       adj=AdjustmentSchedule(h=0.01))
    with pytest.raises(AdmissibilityError):
        # mu - 2 h L^2 = 0 at h = 5
        bound_vr(make_inputs(L=1.0, mu_rsi=10.0, m=100,
                             adj=AdjustmentSchedule(h=5.0)), 1, "discrete")
    with pytest.raises(ValueError):
        bound_vr(good, -1, "discrete")
    with pytest.raises(ValueError):
        bound_vr(make_inputs(m=None), 1, "discrete")
    with pytest.raises(ValueError):
        bound_vr(make_inputs(mu_rsi=None, m=100), 1, "discrete")
    with pytest.raises(ValueError):
        bound_vr(good, 1, "weekly")


def test_ball_levels_and_exact_factor_two():
    inputs = make_inputs(batch=BatchSchedule(b=4))
    ct = ball_bound(inputs, "continuous")
    dt = ball_bound(inputs, "discrete")
    assert ct == pytest.approx(H * D * L * S2 / (4.0 * MU * 4), rel=1e-15)
    assert dt == 2.0 * ct  # exact in floating point, not approximate
    with pytest.raises(ValueError):
        ball_bound(make_inputs(mu_pl=None), "continuous")
    with pytest.raises(ValueError):
        ball_bound(make_inputs(batch=BatchSchedule(family="linear-growth",
                                                   b0=1.0, rate=1.0)), "continuous")
    with pytest.raises(ValueError):
        ball_bound(inputs, "stationary")


# -- discrete-time bounds -----------------------------------------------------


def discrete_oracle(inputs, k, kind):
    """Plain-loop reimplementation of the four step-indexed guarantees."""
    h, d, L_, s2, tau = inputs.h, inputs.d, inputs.L, inputs.sigma_star_sq, inputs.tau
    big_phi = 0.0
    acc = 0.0
    B = inputs.f0_gap
    for i in range(k + 1):
        psi_i = float(inputs.adj.psi(h * i))
        b_i = float(inputs.batch.size_at_step(i, h))
        big_phi += psi_i
        w_i = psi_i * psi_i / b_i
        if kind == "smooth_dt":
            acc += w_i
        elif kind == "wqc_rand_dt":
            acc += w_i
        elif kind == "wqc_last_dt":
            acc += (1.0 + tau * L_ * h * big_phi) * w_i
        else:
            B = (1.0 - inputs.mu_pl * h * psi_i) * B + h * h * d * L_ * s2 * w_i / 2.0
    if kind == "smooth_dt":
        return (2.0 * inputs.f0_gap + h * h * d * L_ * s2 * acc) / (h * big_phi)
    if kind == "wqc_rand_dt":
        return (inputs.dist0_sq + d * h * h * s2 * acc) / (tau * h * big_phi)
    if kind == "wqc_last_dt":
        return (inputs.dist0_sq + h * h * d * s2 * acc) / (2.0 * tau * h * big_phi)
    return B


@pytest.mark.parametrize("kind", DISCRETE_KINDS[:4])
@pytest.mark.parametrize("family,a", [("constant", None), ("power", 0.5)])
def test_bound_discrete_matches_plain_loop(kind, family, a):
    adj = AdjustmentSchedule(h=H, family=family, a=a)
    inputs = make_inputs(adj=adj, batch=BatchSchedule(b=2))
    for k in (0, 3, 9, 17):
        assert bound_discrete(inputs, k, kind) == pytest.approx(
            discrete_oracle(inputs, k, kind), rel=1e-12)


def test_bound_discrete_with_growing_batch():
    batch = BatchSchedule(family="linear-growth", b0=1.0, rate=2.0)
    inputs = make_inputs(batch=batch)
    for k in (0, 5, 12):
        assert bound_discrete(inputs, k, "pl_dt") == pytest.approx(
            discrete_oracle(inputs, k, "pl_dt"), rel=1e-12)


def test_pl_dt_zero_noise_is_pure_contraction():
    inputs = make_inputs(sigma_star_sq=0.0)
    for k in (0, 1, 7, 20):
        assert bound_discrete(inputs, k, "pl_dt") == pytest.approx(
            (1.0 - MU * H) ** (k + 1) * F0, rel=1e-14)


def test_bound_discrete_curve_matches_pointwise():
    inputs = make_inputs(adj=AdjustmentSchedule(h=H, family="power", a=0.5))
    ks = np.array([0, 2, 5, 11, 23])
    for kind in DISCRETE_KINDS[:4]:
        curve = bound_discrete_curve(inputs, ks, kind)
        single = np.array([bound_discrete(inputs, int(k), kind) for k in ks])
        assert np.array_equal(curve, single)
    assert bound_discrete_curve(inputs, np.array([], dtype=int), "pl_dt").size == 0


# Rescaling: f -> f/c with h -> c h, L -> L/c, mu -> mu/c,
# sigma*^2 -> sigma*^2/c^2 and f0 -> f0/c leaves the SGD iterates unchanged,
# so under psi = 1 and a constant batch an f-gap bound scales by exactly 1/c
# and a gradient-norm bound by 1/c^2.  c = 4 and 1/4 are powers of two, so
# every rounded operation scales exactly and the rescaled values keep their
# bits.
RESCALINGS = (1.0, 4.0, 0.25)


def rescaled_inputs(c, h=0.05):
    return BoundInputs(d=2, L=2.0 / c, f0_gap=1.3 / c, dist0_sq=2.0,
                       adj=AdjustmentSchedule(h=h * c),
                       batch=BatchSchedule(b=2), sigma_star_sq=0.34 / c**2,
                       mu_pl=1.0 / c, mu_rsi=1.0 / c, tau=1.0, m=1000)


def rescaled_bound(kind, c, k=200):
    return RateBound(kind, rescaled_inputs(c)).evaluate(k)


@pytest.mark.parametrize("kind, power", [
    ("smooth_dt", 2), ("wqc_rand_dt", 1), ("pl_dt", 1), ("vr_dt", 0), ("vr_ct", 0)])
def test_discrete_bounds_are_invariant_under_rescaling(kind, power):
    # the variance-reduced kinds, at epoch 200, bound |x - x*|^2, which does
    # not scale: their rho reads only L h and mu_rsi h
    scaled = [c ** power * rescaled_bound(kind, c) for c in RESCALINGS]
    assert scaled == [scaled[0]] * len(RESCALINGS)


def test_wqc_last_dt_is_invariant_under_rescaling():
    # its noise weights read 1 + tau L h Phi_{i+1}; with 1 + tau L Phi_{i+1}
    # c * wqc_last_dt(200) was 1.825, 0.537 and 6.976 at c = 1, 4 and 1/4
    scaled = [c * rescaled_bound("wqc_last_dt", c) for c in RESCALINGS]
    assert scaled == [scaled[0]] * len(RESCALINGS)


@pytest.mark.parametrize("kind, power", [
    ("smooth_ct", 2), ("wqc_rand_ct", 1), ("wqc_last_ct", 1), ("pl_ct", 1)])
def test_continuous_bounds_are_invariant_under_rescaling(kind, power):
    # the time of step 200 at h = 0.05 c is 10 c
    scaled = [c ** power * RateBound(kind, rescaled_inputs(c)).evaluate(10.0 * c)
              for c in RESCALINGS]
    assert scaled == [scaled[0]] * len(RESCALINGS)


# Matching rates: under psi = 1 the bound on x_k over the continuous bound at
# t = k h, at T = k h = 10, has a limit as h -> 0: 2 for the randomized
# outputs (1.974, 1.991, 1.998 for smooth at h = 0.2, 0.05, 0.0125) and 1
# for wqc_last.  pl is left out: its discrete contraction 1 - mu h psi decays
# like e^{-mu T} against the continuous e^{-2 mu T}, so at a fixed T its
# ratio grows as h -> 0 (2.0005, 2.005, 2.026).
@pytest.mark.parametrize("kind, limit", [
    ("smooth", 2.0), ("wqc_rand", 2.0), ("wqc_last", 1.0)])
def test_discrete_rates_match_the_continuous_ones(kind, limit):
    gaps = []
    for h in (0.2, 0.05, 0.0125):
        inputs = rescaled_inputs(1.0, h=h)
        k = round(10.0 / h)
        ratio = (RateBound(f"{kind}_dt", inputs).curve([k])[0]
                 / RateBound(f"{kind}_ct", inputs).evaluate(k * h))
        gaps.append(abs(ratio - limit))
    assert gaps[0] > gaps[1] > gaps[2]
    assert gaps[2] < 0.005


@pytest.mark.parametrize("family,a", [("constant", None), ("power", 0.5)])
def test_noiseless_bounds_take_their_closed_forms(family, a):
    adj = AdjustmentSchedule(h=H, family=family, a=a)
    inputs = make_inputs(adj=adj, sigma_star_sq=0.0)
    t, k = 7.0, 20
    phi_t = phi(adj, t)
    continuous = {"smooth_ct": F0 / phi_t,
                  "wqc_rand_ct": DIST0 / (2.0 * TAU * phi_t),
                  "wqc_last_ct": DIST0 / (2.0 * TAU * phi_t),
                  "pl_ct": math.exp(-2.0 * MU * phi_t) * F0}
    for kind, closed in continuous.items():
        assert RateBound(kind, inputs).evaluate(t) == pytest.approx(closed, rel=1e-14)
    psis = [float(adj.psi(H * i)) for i in range(k + 1)]
    big_phi = math.fsum(psis)  # Phi_{k+1}
    discrete = {"smooth_dt": 2.0 * F0 / (H * big_phi),
                "wqc_rand_dt": DIST0 / (TAU * H * big_phi),
                "wqc_last_dt": DIST0 / (2.0 * TAU * H * big_phi),
                "pl_dt": math.prod(1.0 - MU * H * p for p in psis) * F0}
    for kind, closed in discrete.items():
        assert bound_discrete(inputs, k, kind) == pytest.approx(closed, rel=1e-13)


# the kinds that read each of sigma*^2, f0 - f* and |x0 - x*|^2
READERS = {
    "sigma_star_sq": {f"{c}_{m}" for c in ("smooth", "wqc_rand", "wqc_last", "pl")
                      for m in ("ct", "dt")},
    "f0_gap": {"smooth_ct", "smooth_dt", "pl_ct", "pl_dt"},
    "dist0_sq": {"wqc_rand_ct", "wqc_last_ct", "wqc_rand_dt", "wqc_last_dt",
                 "vr_ct", "vr_dt"},
}


@pytest.mark.parametrize("field", sorted(READERS))
def test_bounds_grow_with_what_they_read(field):
    # mu_rsi = 10 makes the variance-reduced kinds admissible at h = 0.25
    low = make_inputs(mu_rsi=10.0, m=10)
    high = replace(low, **{field: 2.0 * getattr(low, field)})
    for kind in CONTINUOUS_KINDS + DISCRETE_KINDS:
        points = ([1, 3] if kind.startswith("vr") else
                  [0.5, 2.0, 10.0] if kind.endswith("_ct") else [1, 5, 40])
        before = RateBound(kind, low).curve(points)
        after = RateBound(kind, high).curve(points)
        if kind in READERS[field]:
            assert np.all(after > before), kind
        else:
            assert np.array_equal(after, before), kind


def test_discrete_admissibility_gates():
    # smoothness/PL kinds need h <= 1/L; the WQC kinds the stricter tau/(2L)
    loose = make_inputs(adj=AdjustmentSchedule(h=0.3))
    assert bound_discrete(loose, 4, "pl_dt") > 0  # 0.3 <= 1/L = 0.5
    with pytest.raises(AdmissibilityError):
        bound_discrete(loose, 4, "wqc_rand_dt")  # 0.3 > tau/(2L) = 0.25
    with pytest.raises(AdmissibilityError):
        bound_discrete(make_inputs(adj=AdjustmentSchedule(h=0.6)), 4, "pl_dt")
    with pytest.raises(ValueError):
        bound_discrete(make_inputs(), -1, "pl_dt")
    with pytest.raises(ValueError):
        bound_discrete(make_inputs(), 4, "pl_qt")


# -- rate dispatch, asymptotics, energies -------------------------------------


def test_rate_bound_dispatch_matches_direct_calls():
    inputs = make_inputs()
    # the variance-reduced kinds need mu - 2 h L^2 > 0, so they get their own
    # admissible constants
    inputs_vr = make_inputs(L=1.0, mu_rsi=10.0, m=10,
                            adj=AdjustmentSchedule(h=0.01))
    direct = {
        "smooth_ct": bound_smooth_ct(inputs, 2.0),
        "wqc_rand_ct": bound_wqc(inputs, 2.0, "randomized"),
        "wqc_last_ct": bound_wqc(inputs, 2.0, "last"),
        "pl_ct": bound_pl_ct(inputs, 2.0),
        "vr_ct": bound_vr(inputs_vr, 2, "continuous"),
        "smooth_dt": bound_discrete(inputs, 5, "smooth_dt"),
        "wqc_rand_dt": bound_discrete(inputs, 5, "wqc_rand_dt"),
        # a last iterate at step 5 is x_5, which bound_discrete reaches at k = 4
        "wqc_last_dt": bound_discrete(inputs, 4, "wqc_last_dt"),
        "pl_dt": bound_discrete(inputs, 4, "pl_dt"),
        "vr_dt": bound_vr(inputs_vr, 2, "discrete"),
    }
    for kind in CONTINUOUS_KINDS + DISCRETE_KINDS:
        rb = RateBound(kind=kind,
                       inputs=inputs_vr if kind.startswith("vr") else inputs)
        assert rb.is_continuous == (kind in CONTINUOUS_KINDS)
        arg = 2.0 if kind.endswith("_ct") else (2 if kind.startswith("vr") else 5)
        assert rb.evaluate(arg) == direct[kind]
    with pytest.raises(ValueError):
        RateBound(kind="cubic", inputs=inputs)


def test_curve_gives_step_k_the_bound_on_x_k():
    inputs = make_inputs(adj=AdjustmentSchedule(h=H, family="power", a=0.5),
                         mu_rsi=10.0, m=10)
    ks = np.array([0, 1, 4, 9])
    for kind in ("smooth_dt", "wqc_rand_dt"):  # averages over x_0..x_k
        assert np.array_equal(RateBound(kind, inputs).curve(ks),
                              bound_discrete_curve(inputs, ks, kind))
    for kind, at_zero in (("wqc_last_dt", math.inf), ("pl_dt", F0)):
        curve = RateBound(kind, inputs).curve(ks)
        assert curve[0] == at_zero
        assert np.array_equal(curve[1:], bound_discrete_curve(inputs, ks[1:] - 1, kind))
    for kind in ("smooth_ct", "wqc_rand_ct", "wqc_last_ct", "pl_ct"):
        rb = RateBound(kind, inputs)
        curve = rb.curve([0.0, 2.0])
        assert curve[0] == (F0 if kind == "pl_ct" else math.inf)
        assert curve[1] == rb.evaluate(2.0)
    for kind in ("vr_ct", "vr_dt"):
        rb = RateBound(kind, inputs)
        assert rb.curve(np.arange(3)).tolist() == [rb.evaluate(j) for j in range(3)]
    with pytest.raises(ValueError):
        RateBound("pl_dt", inputs).curve([-1])


def test_evaluate_reads_a_step_kind_as_curve():
    # evaluate(k) and curve([k]) both give the bound on x_k, so the last
    # iterate's x_1 reads bound_discrete at k = 0 and x_0 its start value
    inputs = make_inputs()
    for kind in ("smooth_dt", "wqc_rand_dt", "wqc_last_dt", "pl_dt"):
        rb = RateBound(kind, inputs)
        for k in (0, 1, 5):
            assert rb.evaluate(k) == rb.curve([k])[0]
    assert RateBound("pl_dt", inputs).evaluate(0) == F0
    assert RateBound("pl_dt", inputs).evaluate(1) == bound_discrete(inputs, 0, "pl_dt")


def test_marks_map_record_times_to_each_kind_point():
    # h = 0.25 and m = 2: a step is 0.25, an epoch 0.5; 0.3 is on neither
    inputs = make_inputs(mu_rsi=10.0, m=2)
    times = np.array([0.0, 0.25, 0.3, 0.5, 0.75 + 1e-12, 1.0])
    pos, points = RateBound("pl_ct", inputs).marks(times)
    assert pos.tolist() == [1, 2, 3, 4, 5]
    assert np.array_equal(points, times[1:])
    for kind in ("smooth_dt", "wqc_rand_dt", "wqc_last_dt", "pl_dt"):
        pos, points = RateBound(kind, inputs).marks(times)
        assert pos.tolist() == [1, 3, 4, 5]
        assert points.tolist() == [1, 2, 3, 4]
    for kind in ("vr_ct", "vr_dt"):
        pos, points = RateBound(kind, inputs).marks(times)
        assert pos.tolist() == [3, 5]
        assert points.tolist() == [1, 2]
    with pytest.raises(ValueError, match="'vr_dt' has no epoch marks"):
        RateBound("vr_dt", inputs).marks([0.0, 0.25])
    with pytest.raises(ValueError, match="'pl_dt' has no step marks"):
        RateBound("pl_dt", inputs).marks([0.0, 0.1])
    with pytest.raises(ValueError, match="'pl_ct' has no time marks"):
        RateBound("pl_ct", inputs).marks([0.0])
    with pytest.raises(ValueError, match="m is required"):
        RateBound("vr_ct", make_inputs(mu_rsi=10.0)).marks(times)


def test_observables_follow_the_output_each_kind_bounds():
    observables = {kind: RateBound(kind, make_inputs()).observable
                   for kind in CONTINUOUS_KINDS + DISCRETE_KINDS}
    assert observables == {
        "smooth_ct": "grad_norm_sq_wavg", "smooth_dt": "grad_norm_sq_wavg",
        "wqc_rand_ct": "f_gap_wavg", "wqc_rand_dt": "f_gap_wavg",
        "wqc_last_ct": "f_gap", "wqc_last_dt": "f_gap",
        "pl_ct": "f_gap", "pl_dt": "f_gap", "vr_ct": "dist_sq", "vr_dt": "dist_sq"}


@pytest.mark.parametrize("cls,a,form,exponent", [
    ("PL", 0.3, "power", 0.3),
    ("PL", 0.5, "power", 0.5),
    ("PL", 0.8, "power", 0.8),
    ("SMOOTH_RAND", 0.3, "power", 0.3),
    ("SMOOTH_RAND", 0.5, "power_log", 0.5),
    ("SMOOTH_RAND", 0.8, "power", 0.2),
    ("SMOOTH_RAND", 1.0, "inverse_log", None),
    ("WQC_RAND", 0.3, "power", 0.3),
    ("WQC_RAND", 0.5, "power_log", 0.5),
    ("WQC_RAND", 0.8, "power", 0.2),
    ("WQC_RAND", 1.0, "inverse_log", None),
    ("WQC_LAST", 0.3, "none", None),
    ("WQC_LAST", 0.5, "none", None),
    ("WQC_LAST", 0.55, "power", 0.1),
    ("WQC_LAST", 2.0 / 3.0, "power_log", 1.0 / 3.0),
    ("WQC_LAST", 0.8, "power", 0.2),
    ("WQC_LAST", 1.0, "inverse_log", None),
])
def test_asymptotic_exponent_table(cls, a, form, exponent):
    desc = asymptotic_exponent(a, cls)
    assert desc.form == form
    if exponent is None:
        assert desc.exponent is None
    else:
        assert desc.exponent == pytest.approx(exponent, rel=1e-12)


def test_asymptotic_exponent_rejections_and_evaluate():
    with pytest.raises(ValueError):
        asymptotic_exponent(1.0, "PL")
    with pytest.raises(ValueError):
        asymptotic_exponent(0.0, "PL")
    with pytest.raises(ValueError):
        asymptotic_exponent(1.5, "PL")
    with pytest.raises(ValueError):
        asymptotic_exponent(0.5, "CONVEX")
    with pytest.raises(ValueError):
        RateDescriptor("none").evaluate(10.0)
    assert RateDescriptor("power", 0.5).evaluate(4.0) == 0.5
    assert RateDescriptor("power_log", 1.0).evaluate(math.e) == pytest.approx(math.exp(-1.0))
    assert RateDescriptor("inverse_log").evaluate(math.e ** 2) == pytest.approx(0.5)


def test_lyapunov_energies():
    p = make_perturbed_quadratic([1.0, 2.0], np.zeros(2), [[0.5, 0.3], [-0.5, -0.3]])
    x = np.array([1.0, 1.0])
    adj = AdjustmentSchedule(h=H)
    gap = p.gap(x)
    assert lyapunov_energy("SMOOTH", p, x, 3.0) == gap
    assert lyapunov_energy("WQC1", p, x, 3.0) == 1.0
    assert lyapunov_energy("RSI", p, x, 3.0) == 1.0
    assert lyapunov_energy("WQC2", p, x, 3.0, adj=adj) == pytest.approx(3.0 * gap + 1.0, rel=1e-14)
    assert lyapunov_energy("PL", p, x, 3.0, adj=adj) == pytest.approx(math.exp(6.0) * gap, rel=1e-14)
    with pytest.raises(ValueError):
        lyapunov_energy("WQC2", p, x, 3.0)
    with pytest.raises(ValueError):
        lyapunov_energy("ENTROPY", p, x, 3.0)


def test_landscape_reference_and_equivalent_rhs():
    assert landscape_stretch_reference(1.0, 1.0, 1.0) == 0.5
    ts = np.array([0.0, 1.0, 3.0])
    assert np.allclose(landscape_stretch_reference(2.0, 3.0, ts),
                       3.0 / (1.0 + ts) ** 2)
    assert equivalent_gradient_rhs(1.0, 1.0, 0.5) == -0.25
    assert equivalent_gradient_rhs(-0.5, 1.0, 2.0) == pytest.approx(0.25, rel=1e-15)
    # the feedback form reproduces du/dt = -lam u / (1+t) along the solution
    for lam, u0, t in ((2.0, 3.0, 1.5), (-0.5, 1.0, 4.0), (1.0, -2.0, 0.7)):
        u = float(landscape_stretch_reference(lam, u0, t))
        direct = -lam * u / (1.0 + t)
        assert equivalent_gradient_rhs(lam, u0, u) == pytest.approx(direct, rel=1e-12)
    with pytest.raises(ValueError):
        equivalent_gradient_rhs(0.0, 1.0, 0.5)
    with pytest.raises(ValueError):
        equivalent_gradient_rhs(1.0, 0.0, 0.5)
    with pytest.raises(ValueError):
        equivalent_gradient_rhs(1.0, 1.0, -0.5)
