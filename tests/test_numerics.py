import mpmath
import numpy as np
import pytest

from numpy.polynomial import chebyshev as cheb

from kahlerlab.numerics import (
    QuadratureRule,
    _cheb_cosines,
    _cheb_projector,
    _legendre_rule,
    chebyshev_coefficients,
    composite_gauss,
    gauss_legendre,
    power_integral,
)


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


@pytest.mark.parametrize("lo, hi", [(1.0, 1.0), (1.0, -1.0), (0.0, float("nan"))])
def test_gauss_legendre_needs_hi_above_lo(lo, hi):
    with pytest.raises(ValueError, match="need hi > lo"):
        gauss_legendre(4, lo, hi)


def test_gauss_legendre_is_memoized_and_read_only():
    rule = gauss_legendre(24, 0.0, 1.0)
    assert gauss_legendre(24, 0.0, 1.0) is rule
    for arr in (rule.nodes, rule.weights):
        assert not arr.flags.writeable
        with pytest.raises(ValueError):
            arr[0] = 0.0


def _mp_legendre_pair(n, x):
    """P_n(x), P_{n-1}(x) by the three-term recurrence in mpmath."""
    p0, p1 = mpmath.mpf(1), x
    for k in range(1, n):
        p0, p1 = p1, ((2 * k + 1) * x * p1 - k * p0) / (k + 1)
    return p1, p0


@pytest.mark.parametrize("n", [1, 2, 12, 16, 24, 64, 128, 256])
def test_gauss_legendre_matches_mpmath(n):
    # each node polished by Newton at 40 digits from numpy's leggauss, which
    # shares no code with the rule; weight 2(1-x^2)/(n P_{n-1}(x))^2
    rule = gauss_legendre(n)
    with mpmath.workdps(40):
        for i, x0 in enumerate(np.polynomial.legendre.leggauss(n)[0]):
            x = mpmath.mpf(float(x0))
            for _ in range(3):  # quadratic from within 1e-16
                p, pm = _mp_legendre_pair(n, x)
                step = p * (x * x - 1) / (n * (x * p - pm))
                x -= step
            assert abs(step) < mpmath.mpf(10) ** -35
            w = 2 * (1 - x * x) / (n * pm) ** 2
            assert abs(rule.nodes[i] - x) <= 2e-16
            assert abs(rule.weights[i] - w) <= 1e-13 * w


def test_each_order_builds_its_reference_rule_once():
    _legendre_rule.cache_clear()
    gauss_legendre.cache_clear()
    gauss_legendre(256)
    gauss_legendre(256, 0.0, 1.0)
    composite_gauss(np.linspace(-30.0, 30.0, 11), 24)
    gauss_legendre(24)
    info = _legendre_rule.cache_info()
    assert (info.misses, info.hits) == (2, 2)


def test_composite_gauss_panels_are_the_mapped_rules():
    breaks = [-2.0, 0.5, 1.0, 4.0]
    rule = composite_gauss(breaks, 8)
    for i, (a, b) in enumerate(zip(breaks[:-1], breaks[1:])):
        panel = gauss_legendre(8, a, b)
        np.testing.assert_array_equal(rule.nodes[8 * i : 8 * i + 8], panel.nodes)
        np.testing.assert_array_equal(rule.weights[8 * i : 8 * i + 8], panel.weights)
    assert not rule.nodes.flags.writeable and not rule.weights.flags.writeable


def test_power_integral_closed_forms():
    np.testing.assert_allclose(power_integral(1.0, 2.0, 2.0), 7.0 / 3.0, rtol=1e-15)
    np.testing.assert_allclose(power_integral(0.5, 1.5, -1.0), np.log(3.0), rtol=1e-15)
    np.testing.assert_allclose(power_integral(2.0, 3.0, -2.0), 1.0 / 6.0, rtol=1e-15)
    # near hi/lo = 1 the difference hi^{m+1} - lo^{m+1} loses digits; the
    # integral is 1/(lo hi) for m = -2
    lo = 1e6
    np.testing.assert_allclose(power_integral(lo, lo + 1.0, -2.0), 1.0 / (lo * (lo + 1.0)), rtol=1e-15)


def test_power_integral_is_continuous_through_m_minus_one():
    for eps in (1e-6, 1e-9, 1e-12):
        for m in (-1.0 - eps, -1.0 + eps):
            np.testing.assert_allclose(power_integral(1.0, 2.0, m), np.log(2.0), rtol=2.0 * eps)


CHEB_NODES = [96, 128, 160, 192]


@pytest.mark.parametrize("n", CHEB_NODES)
def test_cheb_projector_is_the_interpolant(n):
    x = cheb.chebpts1(n)
    for f in (np.exp(np.sin(3.0 * x)), 1.0 / (1.0 + 4.0 * x * x), np.abs(x) ** 3):
        want = cheb.chebfit(x, f, n - 1)
        np.testing.assert_allclose(_cheb_projector(n) @ f, want, rtol=0, atol=1e-13)
        c = chebyshev_coefficients(f)  # the same map, by sums then scaling, chopped
        np.testing.assert_allclose(c, want[: len(c)], rtol=0, atol=1e-13)


@pytest.mark.parametrize("n", [1, 2, 3, 17, 96, 128, 160, 256])
def test_cheb_cosines_equal_the_direct_cosines_bit_for_bit(n):
    # the table of 4n cosines gives the bits of cos(m pi/(2n)) at each
    # reduced angle m = j (2k+1) mod 4n, node k from the right as in chebpts1
    j, k = np.meshgrid(np.arange(n), np.arange(n - 1, -1, -1), indexing="ij")
    direct = np.cos(((j * (2 * k + 1)) % (4 * n)) * (0.5 * np.pi / n))
    assert np.array_equal(_cheb_cosines(n), direct)


@pytest.mark.parametrize("n", [17, 96, 100, 128, 160, 192])
def test_chebyshev_coefficients_return_a_constant_exactly(n):
    # row 0 sums n copies of the value exactly when each partial sum is a
    # float (integers, dyadics), and the division by n is then exact
    for value in (1.0, -3.0, 0.375):
        assert chebyshev_coefficients(np.full(n, value)).tolist() == [value]


@pytest.mark.parametrize("n", CHEB_NODES)
def test_chebyshev_coefficients_chop_polynomials_to_their_length(n):
    rng = np.random.default_rng(n)
    x = cheb.chebpts1(n)
    for d in (0, n // 4, n // 2):
        c = rng.normal(size=d + 1) / (1.0 + np.arange(d + 1))
        got = chebyshev_coefficients(cheb.chebval(x, c))
        assert len(got) == d + 1
        np.testing.assert_allclose(got, c, rtol=0, atol=1e-14)


@pytest.mark.parametrize("n", CHEB_NODES)
def test_chebyshev_coefficients_chop_smooth_functions_at_the_plateau(n):
    # Chebfun represents exp on [-1, 1] with 15 coefficients; |x|^3 and Runge's
    # function have no plateau by degree n-1, so nothing is cut
    x = cheb.chebpts1(n)
    got = chebyshev_coefficients(np.exp(x))
    assert len(got) == 15
    np.testing.assert_allclose(cheb.chebval(x, got), np.exp(x), rtol=4e-15, atol=0)
    for f in (np.abs(x) ** 3, 1.0 / (1.0 + 25.0 * x * x)):
        assert len(chebyshev_coefficients(f)) == n
