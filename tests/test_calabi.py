"""Profiles, curvature formulas, and admissibility on the ruled surface."""

import numpy as np
import pytest

from kahlerlab.calabi import (
    KillingData,
    Profile,
    RuledSurfaceData,
    ansatz_scalar_curvature,
    check_boundary,
    random_admissible_profile,
    to_symplectic,
    weighted_average_c,
    weighted_scalar_curvature,
)
from kahlerlab.ckem import b_kappa, solve_P
from kahlerlab.errors import NotAdmissible

ZGRID = np.linspace(-0.97, 0.97, 389)


def test_standard_surface_base_scal():
    X = RuledSurfaceData.standard(1.5)
    assert X.genus == 2 and X.degree == 1
    assert X.base_scal == -4.0


def test_round_profile_scalar_curvature_closed_form():
    # Theta = 1 - z^2: ((z+kappa) Theta)'' = -6z - 2 kappa, so
    # Scal = (s_C + 6z + 2 kappa) / (z + kappa).
    kappa = 1.4
    X = RuledSurfaceData.standard(kappa)
    prof = Profile.from_callable(lambda z: 1.0 - z * z, kappa)
    scal = ansatz_scalar_curvature(prof, X)
    expected = (X.base_scal + 6.0 * ZGRID + 2.0 * kappa) / (ZGRID + kappa)
    np.testing.assert_allclose(scal(ZGRID), expected, atol=1e-9)


def test_boundary_conditions_random_profiles():
    rng = np.random.default_rng(1)
    for _ in range(5):
        prof = random_admissible_profile(rng, 1.3)
        rep = check_boundary(prof)
        assert rep.passes, rep.defects


def test_weighted_average_c_profile_independent():
    X = RuledSurfaceData.standard(1.25)
    kd = KillingData(b=2.0, p=4.0)
    rng = np.random.default_rng(2)
    cs = [weighted_average_c(random_admissible_profile(rng, 1.25), X, kd) for _ in range(4)]
    assert max(cs) - min(cs) < 1e-10


def test_p_equals_one_reduces_to_conformal_rescaling():
    rng = np.random.default_rng(3)
    X = RuledSurfaceData.standard(1.3)
    prof = random_admissible_profile(rng, 1.3)
    kd = KillingData(b=2.2, p=1.0)
    f = ZGRID + kd.b
    lhs = weighted_scalar_curvature(prof, X, kd)(ZGRID)
    rhs = f * f * ansatz_scalar_curvature(prof, X)(ZGRID)
    np.testing.assert_allclose(lhs, rhs, atol=1e-12)


def test_weighted_scal_constant_on_solver_profile():
    kappa = 1.25
    sol = solve_P(kappa, b_kappa(kappa))
    kd = KillingData(b=sol.b, p=4.0)
    vals = weighted_scalar_curvature(sol.profile(), sol.surface, kd)(ZGRID)
    np.testing.assert_allclose(vals, sol.c, atol=1e-9)


def test_sampled_profile_matches_the_exact_one():
    sol = solve_P(1.6, b_kappa(1.6))
    exact = sol.profile()
    sampled = Profile.from_callable(exact.theta, 1.6)
    # jet = (Theta, Theta', ((z+kappa) Theta)'')
    for got, want, atol in zip(sampled.jet(ZGRID), exact.jet(ZGRID), (1e-13, 1e-10, 1e-7)):
        np.testing.assert_allclose(got, want, rtol=0, atol=atol)


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
