"""Toy-model quantization: potentials, spectra, densities, balanced metrics.

Oracles used here are independent closed forms: Bernoulli/Beta integrals for
the section norms at the round potential, the exact top-degree constant, and
the exact (2 pi) C_k = 1 - 1/k^2 identity in the unweighted mode.
"""

import math
import re
import tracemalloc

import mpmath as mp
import numpy as np
import pytest
from scipy.special import betaln

from kahlerlab.errors import (
    ConfigError,
    NoConvergence,
    NotAdmissible,
    OutOfDomain,
    WeightSignError,
)
from kahlerlab.numerics import gauss_legendre
from kahlerlab.quantization import (
    BlendPotential,
    FSPotential,
    HermitianNorms,
    ProfilePotential,
    _ShiftedPotential,
    ToyModel,
    _balanced_pass,
    balanced_iterate,
    balanced_defects,
    balanced_step,
    bergman_density,
    c_k_constant,
    c_top_exact,
    eigenvalues,
    expansion_check,
    fs,
    hilb,
    random_potential,
    rho_p,
    round_potential,
    sup_grid,
    weighted_scalar_toy,
)

MU = np.linspace(0.03, 0.97, 173)
TT = np.linspace(-9.0, 9.0, 181)


# -- models and potentials ---------------------------------------------------


def test_model_validation():
    assert ToyModel().xi_zero
    assert not ToyModel(b0=1.0).xi_zero
    with pytest.raises(OutOfDomain):
        ToyModel(b0=-0.5)
    with pytest.raises(OutOfDomain):
        ToyModel(b0=0.0)  # f^{-(p+1)} is not integrable at mu = 0
    with pytest.raises(OutOfDomain):
        ToyModel(b0=1e16)  # b0 + 1 == b0: the weight's interval [b0, b0 + 1] is empty
    assert ToyModel(b0=1e15).f(1.0) == 1e15 + 1.0
    with pytest.raises(OutOfDomain):
        ToyModel(p=math.inf)


def test_round_potential_closed_forms():
    phi = round_potential()
    m = phi.jet(MU)
    np.testing.assert_allclose(m.S, 2.0 * MU * (1.0 - MU), atol=1e-12)
    np.testing.assert_allclose(phi.jet(0.5).v, -math.log(2.0), atol=1e-13)
    np.testing.assert_allclose(m.t, np.log(MU / (1.0 - MU)), atol=1e-11)
    ends = phi.jet(np.array([1e-9, 1.0 - 1e-9]))
    np.testing.assert_allclose(ends.dS, [2.0, -2.0], atol=1e-8)


def test_profile_potentials_are_anchored_at_the_midpoint():
    # R and R' are integrated from mu = 1/2, so there v = v_round = -log 2
    # and t = 0 with no correction
    rng = np.random.default_rng(0)
    for _ in range(200):
        m = random_potential(rng).jet(0.5)
        assert abs(m.t) <= 1e-16 and abs(m.v + math.log(2.0)) <= 1e-16


def test_round_potential_carries_a_one_term_q():
    # q = 1: the chopped fit keeps one coefficient, exactly 1, no noise tail
    series = round_potential()._series
    assert series.shape[0] == 1 and series[0, 0] == 1.0


@pytest.mark.parametrize("scale", [0.5, 0.8])
def test_profile_potential_d2S_matches_mpmath(scale):
    # S = 2 mu (1-mu) q with q = exp(mu (1-mu) g) as random_potential draws
    # it; the oracle differentiates S twice at 40 digits
    mu = np.linspace(0.05, 0.95, 19)
    for seed in range(100, 106):
        phi = random_potential(np.random.default_rng(seed), scale)
        co = np.random.default_rng(seed).normal(size=4) * scale / (1.0 + np.arange(4))
        g = [mp.mpf(c) for c in co[::-1]]
        with mp.workdps(40):
            want = [float(mp.diff(lambda m: 2 * m * (1 - m) * mp.exp(m * (1 - m) * mp.polyval(g, m)), mp.mpf(x), 2)) for x in mu]
        np.testing.assert_allclose(phi.jet(mu).d2S, want, rtol=0, atol=1e-12, err_msg=f"seed={seed}")


def test_profile_potential_rejects_nonpositive_q():
    with pytest.raises(NotAdmissible):
        ProfilePotential(lambda mu: 1.0 - 5.0 * mu * (1.0 - mu))


@pytest.mark.parametrize("q", [lambda mu: 1.0 + 0.1 * mu, lambda mu: 1.05 + 0.0 * mu], ids=["q1", "q0-and-q1"])
def test_profile_potential_rejects_q_off_one_at_an_end(q):
    # q > 0, but q(0) = 1 and q(1) = 1 fail: S'(0) = 2 q(0) and S'(1) = -2 q(1)
    with pytest.raises(NotAdmissible):
        ProfilePotential(q)


def _fs_of_random(seed, k=16, model=ToyModel(p=1.0)):
    """FS of hilb of a random potential: a t-native potential whose momenta
    at the pulled-back points differ from the points u."""
    return fs(hilb(random_potential(np.random.default_rng(seed)), k, model), k, model)


def test_jets_reject_points_outside_the_open_interval():
    # every comparison with NaN is false, so the gate must require u > 0 and
    # u < 1, not reject u <= 0 or u >= 1, which would pass NaN on
    for phi in (random_potential(np.random.default_rng(0)), _fs_of_random(0)):
        for u in ([math.nan, 0.5], [0.0, 0.5], [0.5, 1.0], math.nan):
            with pytest.raises(OutOfDomain):
                phi.jet(np.array(u))


def test_potential_derivative_chain():
    # the t-derivatives of psi are checked by central differences of psi
    # itself; S' and S'' of the jet's chain rules by central differences
    # along t, as dS/dmu = (S(t + h) - S(t - h)) / (mu(t + h) - mu(t - h))
    phi = _fs_of_random(1)
    t = np.linspace(-4.0, 4.0, 41)
    h = 1e-4
    s, sp, sm = phi.at_t(t), phi.at_t(t + h), phi.at_t(t - h)
    d2 = (sp.psi - 2.0 * s.psi + sm.psi) / h**2
    np.testing.assert_allclose(s.psi2, d2, atol=1e-6)
    d3 = (sp.psi2 - sm.psi2) / (2.0 * h)
    np.testing.assert_allclose(s.psi3, d3, atol=1e-6)
    d4 = (sp.psi3 - sm.psi3) / (2.0 * h)
    np.testing.assert_allclose(s.psi4, d4, atol=1e-5)
    m = phi.jet(MU)
    up, dn = (phi.jet(1.0 / (1.0 + np.exp(phi.beta - m.t - d))) for d in (h, -h))  # logit(u) + beta = t +- h
    np.testing.assert_allclose(up.t - dn.t, 2.0 * h, atol=1e-12)
    dmu = up.mu - dn.mu
    np.testing.assert_allclose(m.dS, (up.S - dn.S) / dmu, atol=1e-6)
    np.testing.assert_allclose(m.d2S, (up.dS - dn.dS) / dmu, atol=1e-5)


@pytest.mark.parametrize("b", [0.0, 1.5, -4.0, 120.0, -120.0])
@pytest.mark.parametrize("k", [8, 32, 64])
def test_fs_of_binomial_norms_is_the_round_metric(k, b):
    # sum_j binom(k, j) e^{j(t+b)} = (1 + e^{t+b})^k, so log h_j =
    # -log binom(k, j) - j b gives psi = log(1 + e^{t+b}) exactly, with
    # beta = -b: the pulled-back point t = logit(u) - b has mu = u, and there
    # S = 2 mu (1-mu), v = v_0(mu) - b mu and S'' = -4
    u = 0.5 * (np.polynomial.legendre.leggauss(256)[0] + 1.0)
    phi = FSPotential(HermitianNorms(k, [-math.log(math.comb(k, j)) - j * b for j in range(k + 1)]), 0.0)
    s = phi.jet(u)
    mu = s.mu
    # the softmax exponent j t - log h_j rounds by up to ~k |b| eps, a relative
    # error of the weights, of which mu = E_W[j]/k and S = 2 Var_W[j]/k <= 1/2
    # take at most half; the bound exceeds 1e-13 only at |b| = 120
    s_tol = max(1e-13, 0.5 * k * abs(b) * np.finfo(float).eps)
    assert np.max(np.abs(s.t - (np.log(u / (1.0 - u)) - b))) <= 1e-11
    assert np.max(np.abs(mu - u)) <= s_tol
    assert np.max(np.abs(s.S - 2.0 * mu * (1.0 - mu))) <= s_tol
    assert np.max(np.abs(s.v - (mu * np.log(mu) + (1.0 - mu) * np.log(1.0 - mu) - b * mu))) <= 1e-13
    assert np.max(np.abs(s.d2S + 4.0)) <= 1e-8


@pytest.mark.parametrize("b", [120.0, -120.0])
@pytest.mark.parametrize("k", [8, 32, 64])
def test_gauge_shifted_fs_potentials_sample_covariantly(k, b):
    # log h -> log h + k a + j b maps psi(t) to psi(t - b) - a and moves beta
    # by b, so at the same u the jet has the same mu, S, S' and S'', its t
    # moves by b and its v by b mu + a, up to the rounding of the shifted
    # exponent j t - log h_j (~k |b| eps, amplified in S'' by the 1/psi''^2
    # of its cumulant cancellation)
    model = ToyModel(b0=1.0, p=4.0)
    u = 0.5 * (np.polynomial.legendre.leggauss(256)[0] + 1.0)
    H = hilb(random_potential(np.random.default_rng(5), scale=0.8), k, model)
    a = 0.3
    base = fs(H, k, model).jet(u)
    s = fs(HermitianNorms(k=k, log_h=H.log_h + k * a + np.arange(k + 1) * b), k, model).jet(u)
    ulp = k * abs(b) * np.finfo(float).eps
    assert np.max(np.abs(s.mu - base.mu)) <= 0.5 * ulp
    assert np.max(np.abs(s.S - base.S)) <= 0.5 * ulp
    assert np.max(np.abs(s.dS - base.dS)) <= 4.0 * ulp
    assert np.max(np.abs(s.d2S - base.d2S)) <= 1e3 * ulp
    assert np.max(np.abs(s.t - base.t - b)) <= 4.0 * abs(b) * np.finfo(float).eps
    assert np.max(np.abs(s.v - base.v - b * s.mu - a)) <= 1e-12


@pytest.mark.parametrize("k", [16, 64, 256])
def test_fs_of_uniform_norms_matches_the_closed_form(k):
    # h_j = 1: psi' = mu(t) climbs from 0 to 1 over |t| ~ 100/k; its closed
    # form mu(t) = ((k+1)/(1 - e^{-(k+1)t}) - 1/(1 - e^{-t}))/k, read at the
    # jet's own t, is the jet's mu
    u = np.linspace(0.01, 0.99, 20)  # not 1/2, where t = 0 and the closed form reads 0/0
    s = FSPotential(HermitianNorms(k, np.zeros(k + 1)), 0.0).jet(u)
    with mp.workdps(40):
        exact = [float(((k + 1) / (1 - mp.exp(-(k + 1) * mp.mpf(x))) - 1 / (1 - mp.exp(-mp.mpf(x)))) / k) for x in s.t]
    assert np.max(np.abs(np.array(exact) - s.mu)) <= 1e-14


def test_fs_potential_takes_k_plus_1_norms():
    # an FS potential is built from HermitianNorms, which hold k+1 norms: its
    # softmax pass reads k off the norms, while beta and the end values
    # divide by the k of the norms
    for log_h in (np.zeros(10), np.zeros(8), np.zeros((3, 3))):
        with pytest.raises(OutOfDomain, match=r"need k\+1 norms"):
            FSPotential(HermitianNorms(8, log_h), 0.0)
    phi = FSPotential(HermitianNorms(8, np.arange(9.0)), 0.0)
    assert phi.k == 8 and phi.beta == 1.0


@pytest.mark.parametrize("k", [0, -1])
def test_fs_potential_rejects_k_below_1(k):
    # beta and the end values divide by k: the norms name the error before any division
    with pytest.raises(OutOfDomain, match="k must be >= 1"):
        FSPotential(HermitianNorms(k, np.zeros(1)), 0.0)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_fs_potential_rejects_norms_that_are_not_finite(bad):
    # a NaN norm once built an FS potential whose aubin_I was NaN, silently
    log_h = np.zeros(9)
    log_h[3] = bad
    with pytest.raises(OutOfDomain, match="norms must be positive and finite"):
        FSPotential(HermitianNorms(8, log_h), 0.0)


@pytest.mark.parametrize("b", [0.0, 1.5, -4.0])
@pytest.mark.parametrize("k", [8, 64, 512])
def test_fs_cumulants_of_binomial_norms(k, b):
    # psi = log(1 + e^{t+b}) here, so mu and the t-derivatives psi'' to
    # psi'''' are those of the logistic sigma = 1/(1 + e^{-(t+b)})
    t = np.linspace(-30.0, 30.0, 241)
    phi = FSPotential(HermitianNorms(k, [-math.log(math.comb(k, j)) - j * b for j in range(k + 1)]), 0.0)
    s = phi.at_t(t)
    sig = 1.0 / (1.0 + np.exp(-(t + b)))
    assert np.max(np.abs(s.mu - sig)) <= 1e-11
    assert np.max(np.abs(s.psi2 - sig * (1.0 - sig))) <= 1e-11
    assert np.max(np.abs(s.psi3 - sig * (1.0 - sig) * (1.0 - 2.0 * sig))) <= 1e-11
    assert np.max(np.abs(s.psi4 - sig * (1.0 - sig) * (1.0 - 6.0 * sig + 6.0 * sig * sig))) <= 1e-11


@pytest.mark.parametrize("model", [ToyModel(p=1.0), ToyModel(b0=1.0, p=4.0)], ids=["xi=0", "b0=1"])
@pytest.mark.parametrize("k", [8, 64, 256])
def test_fs_gram_sample_is_at_t_at_the_pulled_back_nodes(k, model):
    # the Gram sample stops the softmax pass at psi'', where at_t goes on to
    # psi''' and psi'''': each field it keeps is bit for bit the one built
    # from at_t at t_i = logit(u_i) + beta, with the dmu weights
    # w_i psi''(t_i)/(u_i(1-u_i)) and dv = v - v_round; on smooth and rough
    # norms, and in a gauge
    u, w = gauss_legendre(256, 0.0, 1.0)
    rng = np.random.default_rng(37)
    smooth = hilb(random_potential(rng, 1.5), k, model).log_h
    rough = smooth + rng.normal(size=k + 1)
    for log_h in (smooth, rough, rough + 0.3 * k + 2.5 * np.arange(k + 1)):
        phi = fs(HermitianNorms(k=k, log_h=log_h), k, model)
        t = np.log(u / (1.0 - u)) + phi.beta
        s = phi.at_t(t)
        v = s.mu * t - s.psi
        v_round = s.mu * np.log(s.mu) + (1.0 - s.mu) * np.log(1.0 - s.mu)
        want = (s.mu, t, v, 2.0 * s.psi2, w / (u * (1.0 - u)) * s.psi2, v - v_round)
        for got, ref in zip(phi.gram_sample, want, strict=True):
            np.testing.assert_array_equal(got, ref)


def test_a_blend_needs_a_component():
    with pytest.raises(OutOfDomain, match="need at least one component"):
        BlendPotential([])


def test_blend_potential_is_affine_in_psi():
    a, b = fs(hilb(round_potential(), 8, ToyModel(p=1.0)), 8, ToyModel(p=1.0)), _fs_of_random(2)
    blend = BlendPotential([(0.3, a), (0.7, b)])
    s, sa, sb = blend.at_t(TT), a.at_t(TT), b.at_t(TT)
    np.testing.assert_allclose(s.psi, 0.3 * sa.psi + 0.7 * sb.psi, atol=1e-13)
    np.testing.assert_allclose(s.psi2, 0.3 * sa.psi2 + 0.7 * sb.psi2, atol=1e-13)


@pytest.mark.parametrize("b", [0.0, 40.0, -120.0])
def test_blend_of_a_potential_with_itself_is_that_potential(b):
    # the blend's Gram nodes and jet points move with its parts' beta;
    # at beta = 0 the Gram of a part shifted by b = 40 lost all but 5e-13 of
    # its dmu mass, and hilb was off by 260 in log h
    model, k = ToyModel(p=1.0), 8
    H = hilb(random_potential(np.random.default_rng(1)), k, model)
    a = fs(HermitianNorms(k=k, log_h=H.log_h + np.arange(k + 1) * b), k, model)
    blend = BlendPotential([(0.5, a), (0.5, a)])
    assert blend.beta == a.beta
    np.testing.assert_allclose(hilb(blend, k, model).log_h, hilb(a, k, model).log_h, atol=1e-12)
    for x, y in zip(blend.jet(MU), a.jet(MU)):
        np.testing.assert_allclose(x, y, atol=1e-12)


def test_shift_potential_moves_log_norms_exactly():
    model = ToyModel(b0=1.0, p=4.0)
    phi = random_potential(np.random.default_rng(3))
    k, s = 6, 0.37
    H0 = hilb(phi, k, model)
    H1 = hilb(_ShiftedPotential(phi, s), k, model)
    np.testing.assert_allclose(H1.log_h, H0.log_h - 2.0 * k * s, atol=1e-10)


# -- spectra and constants ---------------------------------------------------


def test_eigenvalue_ladder():
    spec1 = eigenvalues(1, ToyModel(b0=1.0, p=0.0), check_weights=False)
    np.testing.assert_allclose(spec1.lam, [1.0, 2.0])
    spec2 = eigenvalues(2, ToyModel(b0=1.0, p=0.0), check_weights=False)
    np.testing.assert_allclose(spec2.lam, [1.0, 1.5, 2.0])
    spec0 = eigenvalues(5, ToyModel())
    np.testing.assert_allclose(spec0.lam, np.ones(6))


def test_weight_sign_guard_at_small_k():
    for k in (1, 2):
        for p in (1.0, 2.0, 4.0):
            with pytest.raises(WeightSignError):
                eigenvalues(k, ToyModel(b0=1.0, p=p))


def test_the_spectrum_is_built_once_and_its_errors_raise_on_every_call():
    # memoized: a second call returns the same read-only arrays; an error is
    # not memoized, so the weight-sign gate and the domain checks raise again
    model = ToyModel(b0=1.0, p=4.0)
    spec = eigenvalues(8, model)
    for a, b in zip(spec, eigenvalues(8, model), strict=True):
        assert a is b and not a.flags.writeable
    with pytest.raises(ValueError):
        spec.lam_p[0] = 1.0
    for _ in range(2):
        with pytest.raises(WeightSignError):
            eigenvalues(2, model)
        with pytest.raises(OutOfDomain, match="k must be >= 1"):
            eigenvalues(0, model)
        with pytest.raises(OutOfDomain, match="overflows a float"):
            eigenvalues(8, ToyModel(b0=0.5, p=2000.0))
    assert eigenvalues(2, model, check_weights=False).lam_p[0] <= 0.0


def test_fs_rejects_k1_in_unweighted_mode():
    model = ToyModel(p=1.0)
    H = HermitianNorms(k=1, log_h=np.zeros(2))
    with pytest.raises(WeightSignError):
        fs(H, 1, model)


def test_c_top_closed_forms():
    np.testing.assert_allclose(c_top_exact(ToyModel(b0=1.0, p=4.0)), 9.6, rtol=1e-14)
    np.testing.assert_allclose(c_top_exact(ToyModel(b0=1.0, p=1.0)), 8.0, rtol=1e-14)
    for p in (1.0, 2.0, 4.0):
        np.testing.assert_allclose(c_top_exact(ToyModel(p=p)), 4.0, rtol=1e-14)
    # p = 0: c = 2 (a0 + a1) / log(a1/a0)
    np.testing.assert_allclose(c_top_exact(ToyModel(b0=1.0, p=0.0)), 6.0 / math.log(2.0), rtol=1e-14)
    np.testing.assert_allclose(c_top_exact(ToyModel(b0=0.5, p=0.0)), 4.0 / math.log(3.0), rtol=1e-14)
    # p = 1: c = 4 a0 a1 / (a1 - a0), with a1 - a0 = 1
    np.testing.assert_allclose(c_top_exact(ToyModel(b0=1e6, p=1.0)), 4.0 * 1e6 * (1e6 + 1.0), rtol=1e-14)


def _c_top_quadrature(phi, model):
    """The defining ratio int Scal_p f^{-(p+1)} dmu / int f^{-(p+1)} dmu by
    Gauss quadrature of the profile's Scal_p."""
    rule = gauss_legendre(256, 0.0, 1.0)
    w = rule.weights * model.f(rule.nodes) ** (-(model.p + 1.0))
    return float(np.dot(weighted_scalar_toy(phi.jet(rule.nodes), model), w)) / float(w.sum())


def test_class_integrals_name_weight_data_whose_powers_overflow():
    with pytest.raises(OutOfDomain, match=r"\(b0, p\) = \(1e-320, 4\.0\)"):
        c_top_exact(ToyModel(b0=1e-320, p=4.0))
    # c is finite at (1e-80, -2), but C_k's volume, int x^3 dx over
    # [b0, b0 + 1], overflows inside its closed form b0^4 expm1(4 L) / 4
    assert math.isfinite(c_top_exact(ToyModel(b0=1e-80, p=-2.0)))
    with pytest.raises(OutOfDomain, match=r"\(b0, p\) = \(1e-80, -2\.0\)"):
        c_k_constant(8, ToyModel(b0=1e-80, p=-2.0))


@pytest.mark.parametrize("b0, p", [(1e3, 120.0), (1e15, 30.0)])
def test_class_constant_names_weight_data_whose_powers_underflow(b0, p):
    # a0^{1-p}, a1^{1-p} and int x^{-(p+1)} dx over [b0, b0 + 1] all
    # underflow to 0, where c would divide 0 by 0; C_k reads c first
    model = ToyModel(b0=b0, p=p)
    for reader in (c_top_exact, lambda m: c_k_constant.__wrapped__(8, m)):
        with pytest.raises(OutOfDomain, match=rf"underflows to 0 at \(b0, p\) = \({b0!r}, {p!r}\)"):
            reader(model)


def test_c_top_quadrature_is_metric_independent():
    for p in (4.0, 0.0):
        model = ToyModel(b0=1.0, p=p)
        rng = np.random.default_rng(4)
        vals = [_c_top_quadrature(round_potential(), model), _c_top_quadrature(random_potential(rng), model)]
        np.testing.assert_allclose(vals[0], c_top_exact(model), rtol=1e-11)
        np.testing.assert_allclose(vals[1], c_top_exact(model), rtol=1e-11)


def test_round_is_extremal_for_p2_weight():
    # At (b0, p) = (1, 2) the round profile solves Scal_p = c exactly:
    # 4 f^2 + 2 f S' - 2 S = 8 identically for S = 2 mu (1 - mu), f = mu + 1.
    model = ToyModel(b0=1.0, p=2.0)
    vals = weighted_scalar_toy(round_potential().jet(MU), model)
    np.testing.assert_allclose(vals, 8.0, atol=1e-10)
    np.testing.assert_allclose(c_top_exact(model), 8.0, rtol=1e-14)


def test_ck_constant_unweighted_identity():
    model = ToyModel(p=1.0)
    for k in (2, 3, 4, 8, 16):
        got = 2.0 * math.pi * c_k_constant(k, model)
        np.testing.assert_allclose(got, 1.0 - 1.0 / k**2, rtol=1e-13)


@pytest.mark.parametrize("b0, p", [(0.5, 4.0), (1.0, 2.0), (3.0, 4.0), (1e-3, 6.0)])
def test_ck_constant_weighted_volume_matches_mpmath(b0, p):
    # C_k's denominator 2 pi k int_0^1 (mu + b0)^{1-p} dmu by 40-digit quadrature
    model = ToyModel(b0=b0, p=p)
    with mp.workdps(40):
        vol = mp.quad(lambda mu: (mu + mp.mpf(b0)) ** (1 - mp.mpf(p)), [0, 1])
    for k in (4, 8, 16):
        lam_sum = math.fsum(eigenvalues(k, model, check_weights=False).lam_p)
        np.testing.assert_allclose(c_k_constant(k, model), lam_sum / float(2 * mp.pi * k * vol), rtol=2e-15)


# -- hilb / fs ----------------------------------------------------------------


def test_hilb_round_matches_beta_integrals():
    # Unweighted round norms: h_j = 2 pi k B(j+1, k-j+1) / lambda_j(p), and
    # lambda_j(p) = 1 - 1/k here (unit eigenvalues, c = 4). From k = 64 the
    # Gram's (k+1) x 256 buffer passes glibc's 128 kB mmap threshold; |log h|
    # grows like k, and its rounding with it (1.7e-12 at k = 1024)
    model = ToyModel(p=1.0)
    for k in (9, 64, 256, 1024):
        H = hilb(round_potential(), k, model)
        j = np.arange(k + 1)
        expected = (
            math.log(2.0 * math.pi * k)
            + betaln(j + 1.0, k - j + 1.0)
            - math.log(1.0 - 1.0 / k)
        )
        atol = max(1e-12, 4e-15 * k)
        np.testing.assert_allclose(H.log_h, expected, atol=atol)
        np.testing.assert_allclose(H.log_h, H.log_h[::-1], atol=atol)


def _traced_peak_in_buffers(fn, k: int) -> float:
    """Traced peak of one warm call of fn, in (k+1) x 256 float64 buffers."""
    fn()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        fn()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return (peak - base) / ((k + 1) * 256 * 8)


@pytest.mark.parametrize("model", [ToyModel(p=1.0), ToyModel(b0=1.0, p=4.0)], ids=["xi=0", "b0=1,p=4"])
def test_each_gram_pass_holds_few_full_size_buffers(model):
    # every (k+1) x 256 float temporary passes glibc's mmap threshold from
    # k = 64 and costs page faults per call. hilb works in one buffer; rho_p
    # frees the Gram's before it takes one on the jet (193 momenta); a
    # balanced pass keeps only E, and its Jacobian adds m and J, whose
    # (k+1)^2 floats are 4.0 buffers at this k
    k = 1024
    phi = random_potential(np.random.default_rng(3), scale=0.6)
    s = phi.jet(sup_grid())
    x = hilb(phi, k, model).log_h
    assert _traced_peak_in_buffers(lambda: hilb(phi, k, model), k) < 1.5
    assert _traced_peak_in_buffers(lambda: rho_p(phi, k, model, s), k) < 2.5
    assert _traced_peak_in_buffers(lambda: _balanced_pass(x, k, model)[1](), k) < 6.5


def test_fs_hilb_fixes_round_potential():
    model = ToyModel(p=1.0)
    phi = round_potential()
    for k in (2, 5, 12):
        back = fs(hilb(phi, k, model), k, model)
        np.testing.assert_allclose(back.at_t(TT).psi, np.logaddexp(0.0, TT), atol=1e-12)


def test_fs_validates_k():
    model = ToyModel(p=1.0)
    H = hilb(round_potential(), 4, model)
    with pytest.raises(OutOfDomain):
        fs(H, 5, model)


@pytest.mark.parametrize("k", [0, -1])
def test_hilb_names_k_below_1(k):
    # the Gram's log(2 pi k) raised a bare "math domain error" here
    model = ToyModel(p=1.0)
    with pytest.raises(OutOfDomain, match="k must be >= 1"):
        hilb(round_potential(), k, model)
    with pytest.raises(OutOfDomain, match="k must be >= 1"):
        balanced_iterate(round_potential(), k, model)


@pytest.mark.parametrize("model", [ToyModel(p=4.0), ToyModel(b0=1.0, p=4.0)], ids=["xi=0", "b0=1,p=4"])
@pytest.mark.parametrize("k", [8, 32, 128])
def test_hilb_fs_is_gauge_equivariant(model, k):
    # log h -> log h + k a + j b shifts psi by -a and t by b, so hilb(fs(.))
    # moves by the same k a + j b: the Gram sample of an FS potential must
    # move its nodes with the potential
    j = np.arange(k + 1, dtype=float)
    H = hilb(random_potential(np.random.default_rng(43), scale=0.8), k, model)
    base = hilb(fs(H, k, model), k, model).log_h
    a = 0.3
    for b in (-10.0, 5.0, 20.0):
        shifted = HermitianNorms(k=k, log_h=H.log_h + k * a + j * b)
        got = hilb(fs(shifted, k, model), k, model).log_h - (k * a + j * b)
        np.testing.assert_allclose(got, base, rtol=0.0, atol=2e-12, err_msg=f"b={b}")


def _mp_log_gram(log_h, k, model, js, log_ck):
    # log G_j, G_j = 2 pi k int e^{j t - k psi} f(psi')^{1-p} psi'' dt over
    # the real line at 30 digits, with e^{-k psi} = C_k / sum_i y^i/h_i
    # (y = e^t) and psi', psi'' the first two cumulants of i under the
    # weights y^i/h_i, divided by k
    with mp.workdps(30):
        w = [mp.exp(-mp.mpf(float(x))) for x in log_h]
        mid = mp.mpf(float(log_h[-1]) - float(log_h[0])) / k  # the integrands' window moves with the gauge
        memo = {}

        def common(t):
            # y and everything but y^j, shared by the integrands of every j;
            # moments about the nearer end c of 0..k, so psi'' ~ e^{-|t|}
            # does not cancel in the tails quad samples
            if t not in memo:
                y = mp.exp(t)
                c = 0 if t < mid else k
                s0 = s1 = s2 = mp.mpf(0)
                for i in range(k, -1, -1):
                    s0, s1, s2 = s0 * y + w[i], s1 * y + (i - c) * w[i], s2 * y + (i - c) ** 2 * w[i]
                d = s1 / s0
                f = 1 if model.xi_zero else (c + d) / k + mp.mpf(model.b0)
                memo[t] = (y, f ** (1 - mp.mpf(model.p)) * (s2 / s0 - d * d) / (k * s0))
            return memo[t]

        out = []
        for j in js:
            val = mp.quad(lambda t: common(t)[0] ** j * common(t)[1], [-mp.inf, mid, mp.inf])
            out.append(float(mp.log(2 * mp.pi * k * val) + mp.mpf(log_ck)))
    return np.array(out)


@pytest.mark.parametrize("b0, p", [(math.inf, 1.0), (1.0, 4.0), (0.5, 2.0)])
def test_fs_gram_matches_mpmath(b0, p):
    # the Gram of an FS potential, taken on its t side at the pull-back of
    # the momentum nodes, against a 30-digit quadrature over the real line
    # that reads psi in closed form from the norms, off a gauge-shifted start;
    # balanced_step's one pass, log hilb(fs(H)) - log H, against the same
    model = ToyModel(b0=b0, p=p)
    for k, js in ((8, list(range(9))), (32, [0, 1, 16, 31, 32])):
        j = np.arange(k + 1, dtype=float)
        H0 = hilb(random_potential(np.random.default_rng(41), scale=0.8), k, model)
        H = HermitianNorms(k=k, log_h=H0.log_h + 0.3 * k - 2.0 * j)
        phi = fs(H, k, model)
        log_lam_p = np.log(eigenvalues(k, model).lam_p)
        want = _mp_log_gram(H.log_h, k, model, js, phi.log_ck)
        got = hilb(phi, k, model).log_h + log_lam_p
        np.testing.assert_allclose(got[js], want, rtol=0.0, atol=1e-13)
        got = balanced_step(H, k, model) + H.log_h + log_lam_p
        np.testing.assert_allclose(got[js], want, rtol=0.0, atol=1e-13, err_msg="balanced_step")


_MODES = [ToyModel(p=1.0), ToyModel(b0=1.0, p=4.0), ToyModel(b0=0.5, p=2.0)]
_MODE_IDS = ["xi=0", "b0=1,p=4", "b0=0.5,p=2"]


def _step_atol(x, ulps):
    # both sides form j t_i - x_j, whose absolute rounding is ~eps max|x|
    # per entry; a gauge shift of b = 60 at k = 256 puts max|x| near 1.5e4
    return ulps * np.finfo(float).eps * float(np.max(np.abs(x)))


@pytest.mark.parametrize("model", _MODES, ids=_MODE_IDS)
@pytest.mark.parametrize("k", [8, 32, 64, 128, 256])
def test_balanced_step_matches_the_composition(model, k):
    # the one pass against hilb(fs(H)) - log H, which builds the FS potential
    # and samples its Gram: the same 256-node rule, summed in another order.
    # Smooth starts, and rough ones (random_potential(scale 1.5) plus
    # 3 N(0, 1) noise, which the rule does not resolve, on either route),
    # each gauge-shifted by b = -60, 0, 60. The worst gap seen is 8 eps
    # max|x| (2.2e-12); the bound is 32 eps max|x| (3.4e-12 at k = 256)
    j = np.arange(k + 1, dtype=float)
    rng = np.random.default_rng(5)
    for scale, noise in ((0.8, 0.0), (1.5, 3.0)):
        x0 = hilb(random_potential(rng, scale=scale), k, model).log_h + noise * rng.normal(size=k + 1)
        for b in (-60.0, 0.0, 60.0):
            H = HermitianNorms(k=k, log_h=x0 + 0.3 * k + j * b)
            want = hilb(fs(H, k, model), k, model).log_h - H.log_h
            got = balanced_step(H, k, model)
            np.testing.assert_allclose(got, want, rtol=0.0, atol=_step_atol(H.log_h, 32), err_msg=f"noise={noise}, b={b}")


@pytest.mark.parametrize("model", _MODES, ids=_MODE_IDS)
@pytest.mark.parametrize("k", [8, 32, 128, 256])
def test_balanced_step_is_gauge_invariant(model, k):
    # g(x + k a + j b) = g(x): the exact symmetry of T = hilb o fs, to the
    # rounding of the shifted x (worst seen: 0.9 eps max|x|)
    j = np.arange(k + 1, dtype=float)
    x = hilb(random_potential(np.random.default_rng(43), scale=0.8), k, model).log_h
    base = balanced_step(HermitianNorms(k=k, log_h=x), k, model)
    for a in (0.3, -2.0):
        for b in (-60.0, -10.0, 5.0, 60.0):
            shifted = x + k * a + j * b
            got = balanced_step(HermitianNorms(k=k, log_h=shifted), k, model)
            np.testing.assert_allclose(got, base, rtol=0.0, atol=_step_atol(shifted, 8), err_msg=f"a={a}, b={b}")


def test_balanced_step_keeps_a_row_far_below_the_others():
    # log h_4 raised by 800 nats: the softmax weight of s_4 is below e^-745 at
    # every node, so only the row shift keeps log sum_i W_4i c_i finite
    model, k = ToyModel(p=1.0), 8
    x = hilb(random_potential(np.random.default_rng(3), scale=0.8), k, model).log_h.copy()
    x[4] += 800.0
    H = HermitianNorms(k=k, log_h=x)
    got = balanced_step(H, k, model)
    assert np.all(np.isfinite(got)) and got[4] < -790.0
    want = hilb(fs(H, k, model), k, model).log_h - x
    np.testing.assert_allclose(got, want, rtol=0.0, atol=_step_atol(x, 32))


def test_balanced_step_checks_level_and_weights():
    model = ToyModel(p=1.0)
    H = hilb(round_potential(), 4, model)
    with pytest.raises(OutOfDomain):
        balanced_step(H, 5, model)
    with pytest.raises(WeightSignError):
        balanced_step(HermitianNorms(k=1, log_h=np.zeros(2)), 1, model)


def test_norms_validation():
    with pytest.raises(OutOfDomain):
        HermitianNorms(k=3, log_h=np.zeros(3))
    with pytest.raises(OutOfDomain):
        HermitianNorms(k=2, log_h=np.array([0.0, math.nan, 0.0]))


# -- densities ----------------------------------------------------------------


def test_bergman_unweighted_constant():
    # With unit weights in the unweighted mode (p = 1, so f^{1-p} = 1) the
    # density telescopes to the dimension count: (2 pi) B = (k+1)/k exactly.
    model = ToyModel(p=1.0)
    k = 7
    B = bergman_density(round_potential(), k, model, np.ones(k + 1), round_potential().jet(MU))
    np.testing.assert_allclose(2.0 * math.pi * B, (k + 1.0) / k, rtol=1e-12)


@pytest.mark.parametrize("weights", [np.ones(7), np.ones(9), np.ones((8, 1)), 1.0])
def test_bergman_density_takes_k_plus_1_weights(weights):
    # numpy's "shapes not aligned", or a broadcast, before
    with pytest.raises(OutOfDomain, match=r"need k\+1 weights"):
        bergman_density(round_potential(), 7, ToyModel(p=1.0), weights, round_potential().jet(MU))


def test_rho_decomposition_pointwise():
    model = ToyModel(b0=1.0, p=4.0)
    k = 8
    rng = np.random.default_rng(5)
    for phi in (round_potential(), random_potential(rng)):
        spec = eigenvalues(k, model)
        s = phi.jet(MU)
        main = bergman_density(phi, k, model, spec.lam ** (1.0 - model.p), s)
        corr = bergman_density(phi, k, model, spec.lam ** (-(model.p + 1.0)), s)
        lhs = rho_p(phi, k, model, s)
        rhs = main - c_top_exact(model) / (4.0 * k) * corr
        np.testing.assert_allclose(lhs, rhs, atol=1e-12)


def test_rho_trace_recovers_weighted_dimension():
    model = ToyModel(b0=1.0, p=4.0)
    k = 8
    phi = random_potential(np.random.default_rng(6))
    spec = eigenvalues(k, model)
    rule = gauss_legendre(256, 0.0, 1.0)
    total = 2.0 * math.pi * k * float(np.dot(rule.weights, rho_p(phi, k, model, phi.jet(rule.nodes))))
    np.testing.assert_allclose(total, float(np.sum(spec.lam_p)), rtol=1e-12)


def test_section_dimension_count():
    from kahlerlab.numerics import gauss_legendre

    model = ToyModel(b0=1.0, p=4.0)
    k = 6
    phi = round_potential()
    rule = gauss_legendre(256, 0.0, 1.0)
    B = bergman_density(phi, k, model, np.ones(k + 1), phi.jet(rule.nodes))
    total = 2.0 * math.pi * k * float(np.dot(rule.weights, B))
    np.testing.assert_allclose(total, k + 1.0, rtol=1e-12)


# -- expansion ----------------------------------------------------------------


def test_expansion_exact_in_unweighted_round_case():
    # (2 pi) rho = 1 - 1/k^2 exactly here, so the residual is 1/k^2 on the
    # nose and the fitted slope is -2.
    model = ToyModel(p=1.0)
    rep = expansion_check(round_potential(), model, [4, 8, 16, 32])
    np.testing.assert_allclose(rep.residual_sup, [1.0 / k**2 for k in rep.k_list], rtol=1e-7)
    np.testing.assert_allclose(rep.slope, -2.0, atol=1e-6)


def test_expansion_needs_four_points():
    # four distinct k: a repeated k adds no point to the fit
    for ks in ([8, 16, 32], [8, 8, 8, 8], [8, 16, 16, 32]):
        with pytest.raises(ConfigError):
            expansion_check(round_potential(), ToyModel(p=1.0), ks)
    rep = expansion_check(round_potential(), ToyModel(p=1.0), [32, 8, 16, 8, 4])
    assert rep.k_list == (4, 8, 16, 32)


def test_expansion_weighted_slopes():
    model = ToyModel(b0=1.0, p=4.0)
    rep = expansion_check(round_potential(), model, [8, 12, 16, 24, 32])
    assert -2.3 < rep.slope < -1.7
    slopes = rep.running_slopes()
    assert len(slopes) == 4


def test_expansion_leading_term_slope_at_large_k():
    # The leading-term sup-error lives in the boundary layer at small k; the
    # O(1/k) rate is visible on this grid once k mu >> 1 at the grid edge.
    model = ToyModel(b0=1.0, p=4.0)
    rep = expansion_check(round_potential(), model, [32, 64, 128, 256])
    assert -1.3 < rep.leading_slope < -0.7


# -- balanced metrics ---------------------------------------------------------


def test_balanced_round_is_fixed_point():
    model = ToyModel(p=1.0)
    res = balanced_iterate(round_potential(), 8, model)
    assert res.converged and res.n_iter <= 2
    assert balanced_defects(res.phi, 8, model).residual < 1e-12


def test_balanced_attracts_random_starts():
    model = ToyModel(p=1.0)
    k = 8
    phi0 = random_potential(np.random.default_rng(7), scale=0.6)
    res = balanced_iterate(phi0, k, model)
    assert res.converged and res.n_iter <= 500
    assert balanced_defects(res.phi, k, model).residual < 1e-8
    # Gauge check: the limit agrees with the round norms up to the exact
    # h -> exp(k a + j b) h covariance of the iteration.
    ref = hilb(round_potential(), k, model)
    diff = res.H.log_h - ref.log_h
    j = np.arange(k + 1)
    A = np.stack([np.ones_like(j, dtype=float), j.astype(float)], axis=1)
    coef, *_ = np.linalg.lstsq(A, diff, rcond=None)
    np.testing.assert_allclose(diff, A @ coef, atol=1e-7)


def test_balanced_no_fixed_point_in_weighted_mode():
    model = ToyModel(b0=1.0, p=4.0)
    with pytest.raises(NoConvergence):
        balanced_iterate(round_potential(), 4, model)


class _PassRan(Exception):
    pass


def _no_pass(*args):
    raise _PassRan


@pytest.mark.parametrize("k, tol", [(256, 1e-15), (8, 1e-16), (2048, 1e-12), (8, float("nan"))])
def test_balanced_rejects_a_tol_below_the_rounding_floor(k, tol, monkeypatch):
    # g = T(x) - x rounds at about eps max|log h_0|: below a multiple of that the
    # raw step cannot reach tol, and no balanced pass runs before the error
    monkeypatch.setattr("kahlerlab.quantization._balanced_pass", _no_pass)
    with pytest.raises(ConfigError, match=re.escape(f"tol={tol:g} at k={k} is not above the balanced step's rounding floor")):
        balanced_iterate(round_potential(), k, ToyModel(p=1.0), tol=tol)


@pytest.mark.parametrize(
    "k, tol, model",
    [(4096, 1e-10, ToyModel(p=1.0)), (4096, 1e-10, ToyModel(b0=1.0, p=4.0)), (256, 1e-12, ToyModel(p=1.0))],
    ids=["default-tol-at-the-k-cap", "weighted", "1e-12-at-256"],
)
def test_balanced_floor_admits_the_default_tol_and_1e12(k, tol, model, monkeypatch):
    # the check lets these tols through to the first balanced pass, for round and random starts
    monkeypatch.setattr("kahlerlab.quantization._balanced_pass", _no_pass)
    for phi0 in (round_potential(), random_potential(np.random.default_rng(0), scale=0.6)):
        with pytest.raises(_PassRan):
            balanced_iterate(phi0, k, model, tol=tol)


def _affine_defect_from_beta_norms(log_h, k):
    # the unweighted balanced metric is the round one, whose norms are Beta
    # integrals; the iteration fixes them only up to log h -> log h + a + b j
    j = np.arange(k + 1, dtype=float)
    d = log_h - betaln(j + 1.0, k - j + 1.0)
    A = np.stack([np.ones_like(j), j], axis=1)
    coef, *_ = np.linalg.lstsq(A, d, rcond=None)
    return float(np.max(np.abs(d - A @ coef)))


@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize("k", [8, 12, 16])
def test_balanced_random_starts_converge_in_few_steps(k, seed):
    phi0 = random_potential(np.random.default_rng(seed), scale=0.6)
    res = balanced_iterate(phi0, k, ToyModel(p=1.0))
    assert res.converged and res.n_iter <= 40
    assert _affine_defect_from_beta_norms(res.H.log_h, k) < 1e-8


def test_balanced_k16_converges_under_default_max_iter():
    # the plain map needs about 520 steps here, beyond the 500-step budget
    k = 16
    res = balanced_iterate(random_potential(np.random.default_rng(9), scale=0.6), k, ToyModel(p=1.0))
    assert res.converged
    assert _affine_defect_from_beta_norms(res.H.log_h, k) < 1e-8


def test_balanced_weighted_failure_is_gauge_drift():
    # The weighted mode has only a relative fixed point: the iteration gives
    # up on the raw step, which stays at a pure gauge drift, while the step
    # modulo span{1, j} reaches rounding level.
    with pytest.raises(NoConvergence, match="balanced iteration did not reach") as err:
        balanced_iterate(round_potential(), 4, ToyModel(b0=1.0, p=4.0))
    found = re.search(r"last raw step (\S+), last step modulo span\{1, j\} (\S+)", str(err.value))
    raw, quotient = float(found.group(1)), float(found.group(2))
    assert raw > 1e-2
    assert quotient < 1e-10


def test_sup_grid_window():
    g = sup_grid()
    assert g[0] == pytest.approx(0.02) and g[-1] == pytest.approx(0.98)
    assert len(g) == 193


# -- Newton on the balanced map ------------------------------------------------


def _central_jacobian(x, k, model, h):
    J = np.empty((k + 1, k + 1))
    for l in range(k + 1):
        e = np.zeros(k + 1)
        e[l] = h
        hi = balanced_step(HermitianNorms(k=k, log_h=x + e), k, model)
        J[:, l] = (hi - balanced_step(HermitianNorms(k=k, log_h=x - e), k, model)) / (2.0 * h)
    return J


_NEWTON_MODES = [ToyModel(p=1.0), ToyModel(b0=1.0, p=4.0), ToyModel(b0=1.0, p=2.0)]


@pytest.mark.parametrize("model", _NEWTON_MODES, ids=["xi=0", "b0=1,p=4", "b0=1,p=2"])
@pytest.mark.parametrize("k", [8, 32, 128, 256])
def test_balanced_jacobian_matches_central_differences(model, k):
    # the closed-form Jacobian of g = balanced_step against central
    # differences (h = 1e-5), off a gauge-shifted start and off one with the
    # middle row 800 nats below the others. The differences round g, which
    # carries ~eps max|x|, so they err by up to ~eps max|x|/h (worst seen:
    # 0.4 of it); J annihilates 1 exactly and j up to the rule's error (the
    # move of the nodes with beta, left out of J; worst seen 2e-13)
    h = 1e-5
    j = np.arange(k + 1, dtype=float)
    x0 = hilb(random_potential(np.random.default_rng(3), scale=0.8), k, model).log_h
    for x in (x0 + 0.3 * k - 2.0 * j, x0 + 800.0 * (j == k // 2)):
        J = _balanced_pass(x, k, model)[1]()
        atol = 2.0 * np.finfo(float).eps * float(np.max(np.abs(x))) / h
        np.testing.assert_allclose(J, _central_jacobian(x, k, model, h), rtol=0.0, atol=atol)
        assert np.max(np.abs(J @ np.ones(k + 1))) <= 1e-14
        assert np.max(np.abs(J @ j)) <= 1e-12


@pytest.mark.parametrize("k", [8, 32, 64, 128, 256])
def test_balanced_newton_converges_in_few_evaluations_at_every_k(k):
    # Newton's quadratic rate makes the count independent of k. tol is
    # 1e-12 here: H = x + g lies within sup|g| / (1 - r) of the fixed-point
    # set, and 1 - r (the smallest nonzero |eigenvalue| of J) falls to 1.8e-4
    # at k = 256, so the default 1e-10 bounds that distance by ~5e-7 only
    for seed in range(3):
        res = balanced_iterate(random_potential(np.random.default_rng(seed), scale=0.6), k, ToyModel(p=1.0), tol=1e-12)
        assert res.converged and res.n_iter <= 8 and len(res.history) == res.n_iter
        assert _affine_defect_from_beta_norms(res.H.log_h, k) < 1e-8


def test_balanced_newton_converges_where_t_contracts_slowly():
    # the 10th draw of default_rng(5) at k = 128, where 1 - r is ~7e-4: a
    # fixed-point mixing of T stalled there at a raw step of 1.84e-10
    rng = np.random.default_rng(5)
    phi0 = [random_potential(rng, scale=0.6) for _ in range(10)][-1]
    res = balanced_iterate(phi0, 128, ToyModel(p=1.0))
    assert res.converged and res.n_iter <= 8
    assert _affine_defect_from_beta_norms(res.H.log_h, 128) < 1e-8


@pytest.mark.parametrize("k", [8, 16, 32])
def test_balanced_newton_converges_from_rough_starts(k, monkeypatch):
    # FS of hilb(random_potential(scale 1.5)) + 3 N(0, 1) noise: far from
    # balanced, so some full Newton steps fail the Armijo test and the
    # backtracking runs (worst seen: 12 evaluations over 30 such starts)
    model = ToyModel(p=1.0)
    rng = np.random.default_rng(2)
    solve = np.linalg.solve
    steps = []
    monkeypatch.setattr(np.linalg, "solve", lambda *a: steps.append(1) or solve(*a))
    rejected = 0
    for _ in range(5):
        x = hilb(random_potential(rng, scale=1.5), k, model).log_h + 3.0 * rng.normal(size=k + 1)
        steps.clear()
        res = balanced_iterate(fs(HermitianNorms(k=k, log_h=x), k, model), k, model)
        assert res.converged and res.n_iter <= 20
        assert _affine_defect_from_beta_norms(res.H.log_h, k) < 1e-8
        rejected += res.n_iter - 1 - len(steps)  # evaluations that were not followed by a Newton step
    assert rejected > 0


@pytest.mark.parametrize("k", [4, 32])
def test_balanced_weighted_failure_is_named_early(k):
    # at the relative fixed point the step modulo span{1, j} is below tol
    # while the raw step, a pure gauge drift, is not: the iteration stops
    # there and does not spend the rest of its 500-evaluation budget
    with pytest.raises(NoConvergence, match=r"balanced iteration did not reach tol=1e-10 in (\d+) steps") as err:
        balanced_iterate(round_potential(), k, ToyModel(b0=1.0, p=4.0))
    found = re.search(r"in (\d+) steps: last raw step (\S+), last step modulo span\{1, j\} (\S+)", str(err.value))
    n, raw, quotient = int(found.group(1)), float(found.group(2)), float(found.group(3))
    assert n <= 40 and raw > 1e-2 and quotient < 1e-10
