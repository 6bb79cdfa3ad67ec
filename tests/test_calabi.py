"""Profiles, curvature formulas, and admissibility on the ruled surface."""

import mpmath as mp
import numpy as np
import pytest
from numpy.polynomial import Polynomial

from kahlerlab.calabi import (
    KillingData,
    Profile,
    RuledSurfaceData,
    ansatz_scalar_curvature,
    check_boundary,
    random_admissible_profile,
    scal_p_on,
    to_symplectic,
    weighted_average_c,
    weighted_scalar_curvature,
)
from kahlerlab.ckem import b_kappa, solve_P
from kahlerlab.errors import NotAdmissible, OutOfDomain
from kahlerlab.mabuchi import SymplecticPotential
from kahlerlab.numerics import gauss_legendre

ZGRID = np.linspace(-0.97, 0.97, 389)


def test_standard_surface_base_scal():
    X = RuledSurfaceData.standard(1.5)
    assert X.genus == 2 and X.degree == 1
    assert X.base_scal == -4.0


def test_standard_surface_of_degree_zero_is_out_of_domain():
    # s_C = 4(1-genus)/degree would divide by zero before the degree rule ran
    with pytest.raises(OutOfDomain, match="degree must be >= 1"):
        RuledSurfaceData.standard(1.5, genus=2, degree=0)


def test_round_profile_scalar_curvature_closed_form():
    # Theta = 1 - z^2: ((z+kappa) Theta)'' = -6z - 2 kappa, so
    # Scal = (s_C + 6z + 2 kappa) / (z + kappa).
    kappa = 1.4
    X = RuledSurfaceData.standard(kappa)
    prof = Profile.from_callable(lambda z: 1.0 - z * z, kappa)
    expected = (X.base_scal + 6.0 * ZGRID + 2.0 * kappa) / (ZGRID + kappa)
    np.testing.assert_allclose(ansatz_scalar_curvature(prof, X, ZGRID), expected, atol=1e-9)


def test_boundary_conditions_random_profiles():
    rng = np.random.default_rng(1)
    for _ in range(5):
        prof = random_admissible_profile(rng, 1.3)
        rep = check_boundary(prof)
        assert rep.passes, rep.defects


def _quadrature_c(profile, X, kd):
    """The defining ratio int Scal_p f^{-(p+1)} (z+kappa) dz / int f^{-(p+1)}
    (z+kappa) dz by Gauss quadrature of the profile's Scal_p."""
    rule = gauss_legendre(128)
    z = rule.nodes
    w = rule.weights * (z + kd.b) ** (-(kd.p + 1.0)) * (z + profile.kappa)
    return float(np.dot(scal_p_on(z, profile.jet(z), X, kd, profile.kappa), w)) / float(w.sum())


def test_weighted_average_c_profile_independent():
    X = RuledSurfaceData.standard(1.25)
    kd = KillingData(b=2.0, p=4.0)
    rng = np.random.default_rng(2)
    cs = [_quadrature_c(random_admissible_profile(rng, 1.25), X, kd) for _ in range(4)]
    c = weighted_average_c(X, kd, 1.25)
    assert max(abs(x - c) for x in cs) < 1e-10


@pytest.mark.parametrize("genus, degree", [(2, 1), (5, 3), (100, 1)])
def test_weighted_average_c_matches_the_solver_constant(genus, degree):
    # On the Futaki curve Scal_p = c exactly, and ckem's c is sympy-derived.
    for kappa in (1.01, 1.25, 1.6, 3.0, 100.0, 1e4):
        sol = solve_P(kappa, b_kappa(kappa), RuledSurfaceData.standard(kappa, genus, degree))
        c = weighted_average_c(sol.surface, KillingData(b=sol.b, p=4.0), sol.kappa)
        np.testing.assert_allclose(c, sol.c, rtol=1e-14, atol=0.0, err_msg=f"kappa={kappa}")


def _mpmath_c(kappa, s_c, b, p, g):
    """The defining ratio of c by mpmath quadrature for the profile
    Theta = (1-z^2) exp((1-z^2) g), g a polynomial, with the jet of
    A = (z+kappa) Theta by hand: Scal_p (z+kappa) = f^2 (s_C - A'')
    + 2(p-1) f A' - p(p-1) A, f = z+b."""
    kappa, s_c, b, p = (mp.mpf(x) for x in (kappa, s_c, b, p))
    series = [[mp.mpf(x) for x in g.deriv(m).coef[::-1]] for m in range(3)]

    def terms(z):
        s = 1 - z * z
        g0, g1, g2 = (mp.polyval(c, z) for c in series)
        h1 = -2 * z * g0 + s * g1  # derivatives of h = s g
        h2 = -2 * g0 - 4 * z * g1 + s * g2
        e = mp.exp(s * g0)
        th, dth, d2th = s * e, e * (-2 * z + s * h1), e * (-2 - 4 * z * h1 + s * h1 * h1 + s * h2)
        A, dA, d2A = (z + kappa) * th, th + (z + kappa) * dth, 2 * dth + (z + kappa) * d2th
        f = z + b
        weight = f ** (-(p + 1))
        return (f * f * (s_c - d2A) + 2 * (p - 1) * f * dA - p * (p - 1) * A) * weight, (z + kappa) * weight

    with mp.workdps(30):
        num = mp.quad(lambda z: terms(z)[0], [-1, 0, 1])
        den = mp.quad(lambda z: terms(z)[1], [-1, 0, 1])
        return float(num / den)


@pytest.mark.parametrize("b, p", [(1.3, 0.0), (2.0, 1.0), (2.2, 2.0), (2.0, 4.0), (7.0, 4.5)])
def test_weighted_average_c_matches_mpmath_quadrature(b, p):
    rng = np.random.default_rng(17)
    for kappa, genus, degree in ((1.25, 2, 1), (3.0, 5, 3)):
        X = RuledSurfaceData.standard(kappa, genus, degree)
        g = Polynomial(rng.normal(size=4) * 0.4 / (1.0 + np.arange(4)))
        want = _mpmath_c(kappa, X.base_scal, b, p, g)
        got = weighted_average_c(X, KillingData(b=b, p=p), kappa)
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=0.0, err_msg=f"kappa={kappa}")


@pytest.mark.parametrize("p", [2000.0, -2000.0])
def test_weighted_average_c_names_a_weight_whose_powers_overflow(p):
    # (b - 1)^{1-p} at p = 2000, (b + 1)^{1-p} at p = -2000
    with pytest.raises(OutOfDomain, match=r"\(b, p\) = \(1\.5, "):
        weighted_average_c(RuledSurfaceData.standard(1.5), KillingData(b=1.5, p=p), 1.5)


def test_p_equals_one_reduces_to_conformal_rescaling():
    rng = np.random.default_rng(3)
    X = RuledSurfaceData.standard(1.3)
    prof = random_admissible_profile(rng, 1.3)
    kd = KillingData(b=2.2, p=1.0)
    f = ZGRID + kd.b
    lhs = weighted_scalar_curvature(prof, X, kd, ZGRID)
    rhs = f * f * ansatz_scalar_curvature(prof, X, ZGRID)
    np.testing.assert_allclose(lhs, rhs, atol=1e-12)


def test_weighted_scal_constant_on_solver_profile():
    kappa = 1.25
    sol = solve_P(kappa, b_kappa(kappa))
    kd = KillingData(b=sol.b, p=4.0)
    vals = weighted_scalar_curvature(sol.profile(), sol.surface, kd, ZGRID)
    np.testing.assert_allclose(vals, sol.c, atol=1e-9)


def test_sampled_profile_matches_the_exact_one():
    sol = solve_P(1.6, b_kappa(1.6))
    exact = sol.profile()
    sampled = Profile.from_callable(exact.theta, 1.6)
    # jet = (Theta, Theta', ((z+kappa) Theta)'')
    for got, want, atol in zip(sampled.jet(ZGRID), exact.jet(ZGRID), (1e-13, 1e-10, 1e-7)):
        np.testing.assert_allclose(got, want, rtol=0, atol=atol)


@pytest.mark.parametrize("kappa", [1.03, 1.6, 3.0])
def test_sampled_profile_numerator_d2_matches_mpmath(kappa):
    # ((z+kappa) Theta)'' of random_admissible_profile's chopped fit against
    # a 40-digit derivative of (z+kappa)(1-z^2) exp((1-z^2) g), g as drawn there
    z = np.linspace(-0.95, 0.95, 21)
    for seed in range(100, 106):
        for scale in (0.4, 0.8):
            prof = random_admissible_profile(np.random.default_rng(seed), kappa, scale=scale)
            co = np.random.default_rng(seed).normal(size=5) * scale / (1.0 + np.arange(5))
            g, k = [mp.mpf(c) for c in co[::-1]], mp.mpf(kappa)
            with mp.workdps(40):
                want = np.array([float(mp.diff(lambda x: (x + k) * (1 - x * x) * mp.exp((1 - x * x) * mp.polyval(g, x)), mp.mpf(t), 2)) for t in z])
            err = np.abs(prof.jet(z)[2] - want) / np.maximum(1.0, np.abs(want))
            assert np.max(err) < 1e-11, (seed, scale, np.max(err))


def test_reference_profile_is_z_plus_kappa():
    # Theta = 1 - z^2 gives G = 1: the chopped fit is exactly that constant,
    # so N is z + kappa, two coefficients, bit for bit; the matrix's columns
    # are N, N' = 1 and N'' = 0, and it is read-only
    for kappa in (1.03, 1.6, 3.0):
        coef = SymplecticPotential.reference(kappa).profile().coef
        assert coef.tolist() == [[kappa, 1.0, 0.0], [1.0, 0.0, 0.0]]
        assert not coef.flags.writeable


@pytest.mark.parametrize("kappa", [1.03, 1.6, 3.0])
def test_check_boundary_defects_in_closed_form(kappa):
    # Theta = 2(1-z^2): N = 2(z+kappa), so Theta'(-1) = 4 and Theta'(1) = -4;
    # the defects (Theta(-1), Theta(1), Theta'(-1)-2, Theta'(1)+2) are exact
    rep = check_boundary(Profile.from_callable(lambda z: 2.0 * (1.0 - z * z), kappa))
    assert rep.defects == (0.0, 0.0, 2.0, -2.0)
    assert not rep.passes


def test_to_symplectic_roundtrip():
    rng = np.random.default_rng(4)
    prof = random_admissible_profile(rng, 1.5)
    u = to_symplectic(prof)
    np.testing.assert_allclose(u.theta(ZGRID), prof.theta(ZGRID), atol=1e-10)


def test_to_symplectic_rejects_sign_changing_profile():
    prof = Profile.from_callable(lambda z: (1.0 - z * z) * (z - 0.2), 1.5)
    with pytest.raises(NotAdmissible):
        to_symplectic(prof)


def test_random_profiles_positive_inside():
    rng = np.random.default_rng(5)
    for _ in range(5):
        prof = random_admissible_profile(rng, 1.2)
        assert np.all(prof.theta(ZGRID) > 0.0)
