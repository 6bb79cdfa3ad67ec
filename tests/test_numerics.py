import numpy as np
import pytest

from numpy.polynomial import chebyshev as cheb

from kahlerlab.numerics import (
    QuadratureRule,
    chebyshev_coefficients,
    composite_gauss,
    gauss_legendre,
    graded_rule,
    integrate,
    solve_least_squares,
)
from kahlerlab.errors import RankDeficient


def test_gauss_exactness_to_degree_2n_minus_1():
    rule = gauss_legendre(8)
    for deg in range(0, 16):
        exact = (1.0 - (-1.0) ** (deg + 1)) / (deg + 1)
        got = float(np.dot(rule.weights, rule.nodes**deg))
        np.testing.assert_allclose(got, exact, atol=1e-13)


def test_gauss_weights_sum_to_length():
    for lo, hi in [(-1.0, 1.0), (0.0, 1.0), (2.5, 7.0)]:
        rule = gauss_legendre(32, lo, hi)
        np.testing.assert_allclose(np.sum(rule.weights), hi - lo, rtol=1e-14)
        assert np.all(np.diff(rule.nodes) > 0)
        assert rule.nodes[0] > lo and rule.nodes[-1] < hi


def test_gauss_bad_order():
    with pytest.raises(ValueError):
        gauss_legendre(0)


def test_gauss_legendre_is_memoized_and_read_only():
    rule = gauss_legendre(24, 0.0, 1.0)
    assert gauss_legendre(24, 0.0, 1.0) is rule
    for arr in (rule.nodes, rule.weights):
        assert not arr.flags.writeable
        with pytest.raises(ValueError):
            arr[0] = 0.0


def test_composite_gauss_panels_are_the_mapped_rules():
    breaks = [-2.0, 0.5, 1.0, 4.0]
    rule = composite_gauss(breaks, 8)
    for i, (a, b) in enumerate(zip(breaks[:-1], breaks[1:])):
        panel = gauss_legendre(8, a, b)
        np.testing.assert_array_equal(rule.nodes[8 * i : 8 * i + 8], panel.nodes)
        np.testing.assert_array_equal(rule.weights[8 * i : 8 * i + 8], panel.weights)
    assert not rule.nodes.flags.writeable and not rule.weights.flags.writeable


def test_graded_rule_log_singularity():
    # int_{-1}^{1} log(1 - z^2) dz = 4 log 2 - 4; plain Gauss of the same cost
    # misses this by orders of magnitude.
    rule = graded_rule(order=16, levels=40)
    val = float(np.dot(rule.weights, np.log1p(-rule.nodes**2)))
    np.testing.assert_allclose(val, 4.0 * np.log(2.0) - 4.0, atol=1e-12)


def test_graded_rule_is_memoized_and_read_only():
    rule = graded_rule()
    again = graded_rule()
    assert again is rule
    for arr in (rule.nodes, rule.weights):
        assert not arr.flags.writeable
        with pytest.raises(ValueError):
            arr[0] = 0.0


def test_integrate_scalar_callable():
    rule = gauss_legendre(16, 0.0, np.pi)
    got = integrate(rule, lambda z: float(np.sin(z)) if np.isscalar(z) else np.sin(z))
    np.testing.assert_allclose(got, 2.0, rtol=1e-12)


def test_least_squares_recovers_exact_solution():
    rng = np.random.default_rng(0)
    A = rng.normal(size=(40, 5))
    x = rng.normal(size=5)
    sol, resid = solve_least_squares(A, A @ x)
    np.testing.assert_allclose(sol, x, atol=1e-11)
    assert resid < 1e-11


def test_least_squares_rank_deficient():
    A = np.ones((10, 2))
    with pytest.raises(RankDeficient):
        solve_least_squares(A, np.ones(10))


def test_least_squares_solves_a_stack():
    rng = np.random.default_rng(1)
    A = rng.normal(size=(3, 40, 5))
    x = rng.normal(size=(3, 5))
    sol, resid = solve_least_squares(A, np.einsum("sij,sj->si", A, x))
    np.testing.assert_allclose(sol, x, atol=1e-11)
    assert resid.shape == (3,) and np.all(resid < 1e-11)
    A[1, :, 3] = A[1, :, 0] - 2.0 * A[1, :, 4]  # slice 1 loses a column
    with pytest.raises(RankDeficient) as err:
        solve_least_squares(A, np.ones((3, 40)))
    assert err.value.slices == (1,)


CHEB_SIZES = [(96, 95), (128, 120), (160, 150), (192, 170)]


@pytest.mark.parametrize("n, deg", CHEB_SIZES)
def test_chebyshev_coefficients_match_least_squares(n, deg):
    x = cheb.chebpts1(n)
    for f in (np.exp(np.sin(3.0 * x)), 1.0 / (1.0 + 4.0 * x * x), np.abs(x) ** 3):
        np.testing.assert_allclose(chebyshev_coefficients(f, deg), cheb.chebfit(x, f, deg), rtol=0, atol=1e-13)


@pytest.mark.parametrize("n, deg", CHEB_SIZES)
def test_chebyshev_coefficients_reproduce_polynomials(n, deg):
    rng = np.random.default_rng(n)
    x = cheb.chebpts1(n)
    for d in (0, deg // 2, deg):
        c = rng.normal(size=d + 1) / (1.0 + np.arange(d + 1))
        got = chebyshev_coefficients(cheb.chebval(x, c), deg)
        np.testing.assert_allclose(got, np.pad(c, (0, deg - d)), rtol=0, atol=1e-13)


def test_chebyshev_coefficients_validate_degree():
    for deg in (-1, 8):
        with pytest.raises(ValueError):
            chebyshev_coefficients(np.ones(8), deg)
