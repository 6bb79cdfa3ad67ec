"""The Calabi ansatz as a 4-D metric: an oracle for `calabi` that shares no code with it.

On one chart (x, y, z, t) of the ruled surface take the base metric
g_S = (dx^2 + dy^2)/(c y^2), a scaled hyperbolic plane (c > 0 is the base's
constant, not the weighted curvature c of `solve_P`), the connection
theta = dt + dx/(c y), whose curvature d theta = omega_S = dx ^ dy/(c y^2) is the
base's area form, and

    g = (z + kappa) g_S + dz^2/Theta + Theta theta^2,   omega = (z + kappa) omega_S + dz ^ theta,

with Theta an undefined function of z. The curvature is formed here from
Christoffel sums in sympy's field of rational functions of (y, z, c, kappa, b)
and the jet T0, T1, T2, T3 = Theta, Theta', Theta'', Theta''': every product is
reduced on the spot, so nothing calls `simplify`, and d/dz acts on the jet as
the total derivative. The metric reads neither x nor t.

Normalization. Scal(g_S) = -2c. Gauss-Bonnet on the base curve of genus g,
whose constant-curvature metric has area 2 pi d (d the degree of the circle
bundle), reads (Scal/2) 2 pi d = 2 pi (2 - 2g), so

    s_C = Scal(g_S) = -2c = 4 (1 - g)/d,

the s_C of `RuledSurfaceData.standard`, with c = 2 (g - 1)/d > 0 at g >= 2.

What is checked: Scal(g) = (s_C - ((z + kappa) Theta)'')/(z + kappa)
(`calabi.ansatz_scalar_curvature`); for f = z + b,
Scal(f^-2 g) = f^2 Scal(g) - 6 f Delta_g f - 12 Theta with
Delta_g f = -Theta' - Theta/(z + kappa) (`calabi.scal_p_on` at p = 4); g is Kahler
(J = g^-1 omega, J^2 = -1, g(J., J.) = g, nabla omega = 0) and Ric(f^-2 g) is
J-invariant for every Theta and b. So at Theta = P/(z + kappa) from `solve_P`,
where the weighted curvature is the constant c, f^-2 g is a conformally Kahler,
Einstein-Maxwell metric.
"""

from functools import lru_cache

import numpy as np
import pytest
import sympy as sp

from kahlerlab.calabi import (
    KillingData,
    RuledSurfaceData,
    ansatz_scalar_curvature,
    random_admissible_profile,
    weighted_scalar_curvature,
)
from kahlerlab.ckem import b_kappa, solve_P

K, Y, Z, C, KAPPA, B, T0, T1, T2, T3 = sp.field("y z c kappa b T0 T1 T2 T3", sp.QQ)
ZERO = K(0)
JET = ("z", "c", "kappa", "b", "T0", "T1", "T2")  # the arguments of every lambdified curvature


def _d(e, k):
    """d/dx^k on the chart (x, y, z, t): y directly, z through Theta's jet; x and t do not enter."""
    if k == 1:
        return e.diff(Y)
    if k == 2:
        return e.diff(Z) + T1 * e.diff(T0) + T2 * e.diff(T1) + T3 * e.diff(T2)
    return ZERO


def _metric(scale):
    """scale g and its inverse: the (x, t) block is 2 x 2, y and z are diagonal."""
    a = (Z + KAPPA) / (C * Y**2)
    g = [[ZERO] * 4 for _ in range(4)]
    g[0][0], g[0][3], g[3][0] = a + T0 / (C * Y) ** 2, T0 / (C * Y), T0 / (C * Y)
    g[1][1], g[2][2], g[3][3] = a, 1 / T0, T0
    g = [[scale * e for e in row] for row in g]
    det = g[0][0] * g[3][3] - g[0][3] * g[3][0]
    gi = [[ZERO] * 4 for _ in range(4)]
    gi[0][0], gi[0][3], gi[3][0], gi[3][3] = g[3][3] / det, -g[0][3] / det, -g[3][0] / det, g[0][0] / det
    gi[1][1], gi[2][2] = 1 / g[1][1], 1 / g[2][2]
    return g, gi


def _christoffel(g, gi):
    n = len(g)
    d = [[[_d(g[i][j], k) for k in range(n)] for j in range(n)] for i in range(n)]
    return [[[sum((gi[k][l] * (d[l][i][j] + d[l][j][i] - d[i][j][l]) for l in range(n)), ZERO) / 2
              for j in range(n)] for i in range(n)] for k in range(n)]


def _ricci(g, gi):
    """R_ij = d_k G^k_ij - d_j G^k_ik + G^k_kl G^l_ij - G^k_jl G^l_ik."""
    n, G = len(g), _christoffel(g, gi)
    ric = [[ZERO] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            r = sum((_d(G[k][i][j], k) - _d(G[k][i][k], j) for k in range(n)), ZERO)
            r += sum((G[k][k][l] * G[l][i][j] - G[k][j][l] * G[l][i][k] for k in range(n) for l in range(n)), ZERO)
            ric[i][j] = ric[j][i] = r
    return ric


def _scal(g, gi):
    ric = _ricci(g, gi)
    return sum((gi[i][j] * ric[i][j] for i in range(len(g)) for j in range(len(g))), ZERO)


def _calabi_scal(s_c):
    return (s_c - ((Z + KAPPA) * T2 + 2 * T1)) / (Z + KAPPA)  # ((z + kappa) Theta)'' = (z + kappa) T2 + 2 T1


def _calabi_scal_p4():
    f = Z + B
    return f**2 * _calabi_scal(-2 * C) - 6 * f * (-T1 - T0 / (Z + KAPPA)) - 12 * T0


@lru_cache(maxsize=None)
def _curvatures():
    """Scal(g) and Scal(f^-2 g), f = z + b, as field elements."""
    return _scal(*_metric(K(1))), _scal(*_metric((Z + B) ** -2))


@lru_cache(maxsize=None)
def _lambdified():
    return tuple(sp.lambdify(sp.symbols(JET), s.as_expr(), "numpy") for s in _curvatures())


def _jet_of(prof, z):
    """(Theta, Theta', Theta'') of a calabi profile, Theta'' from its ((z + kappa) Theta)''."""
    theta, d1, d2num = prof.jet(z)
    return theta, d1, (d2num - 2.0 * d1) / (z + prof.kappa)


def test_base_normalization_is_gauss_bonnet():
    # Scal of the 2-D base g_S = (dx^2 + dy^2)/(c y^2) on the chart (x, y)
    g = [[1 / (C * Y**2), ZERO], [ZERO, 1 / (C * Y**2)]]
    gi = [[C * Y**2, ZERO], [ZERO, C * Y**2]]
    assert _scal(g, gi) == -2 * C
    # (Scal/2) * area = 2 pi (2 - 2 genus), area 2 pi degree
    s, genus, degree = sp.symbols("s genus degree", positive=True)
    (s_c,) = sp.solve(sp.Eq(s / 2 * 2 * sp.pi * degree, 2 * sp.pi * (2 - 2 * genus)), s)
    assert sp.cancel(s_c - 4 * (1 - genus) / degree) == 0
    for g_, d_ in ((2, 1), (5, 3), (100, 7)):
        assert RuledSurfaceData.standard(1.5, genus=g_, degree=d_).base_scal == float(s_c.subs({genus: g_, degree: d_}))


def test_ansatz_scalar_curvature_is_the_metric_scalar_curvature():
    scal, _ = _curvatures()
    assert scal == _calabi_scal(-2 * C)


def test_conformal_scalar_curvature_is_scal_p_at_p_4():
    _, scal_p = _curvatures()
    assert scal_p == _calabi_scal_p4()


@pytest.mark.parametrize("kappa", [1.01, 1.5, 3.0])
def test_metric_curvatures_match_calabi_at_random_profiles(kappa):
    # the lambdified Scal(g) and Scal(f^-2 g) at the jet of random admissible
    # profiles against calabi's own evaluators, at s_C = -2c of genus 3, degree 2
    scal, scal_p = _lambdified()
    X = RuledSurfaceData.standard(kappa, genus=3, degree=2)
    z = np.linspace(-0.99, 0.99, 101)
    rng = np.random.default_rng(71)
    for _ in range(3):
        prof = random_admissible_profile(rng, kappa)
        jet = _jet_of(prof, z)
        want = ansatz_scalar_curvature(prof, X, z)
        got = scal(z, -X.base_scal / 2, kappa, 0.0, *jet)
        assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))
        want = weighted_scalar_curvature(prof, X, KillingData(b=1.7), z)
        got = scal_p(z, -X.base_scal / 2, kappa, 1.7, *jet)
        assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))


@pytest.mark.parametrize("genus, degree", [(2, 1), (5, 3), (100, 1), (2, 40)])
def test_solve_P_metric_has_constant_conformal_scalar_curvature(genus, degree):
    # Theta = P/(z + kappa) on the Futaki curve: Scal(f^-2 g) = sol.c on a grid of
    # [-1, 1] to rounding. Its scale: Theta'' formed from P by the quotient rule
    # sums |P^(n)|/t^(3-n), t = z + kappa, and the curvature's expanded numerator
    # weighs it by (|z| + b)^2 + 6 (|z| + b) + 12, the s_C term by (|z| + b)^2/t
    _, scal_p = _lambdified()
    X = RuledSurfaceData.standard(1.5, genus=genus, degree=degree)
    z = np.linspace(-1.0, 1.0, 201)
    for kappa in (1.01, 1.02, 1.1, 1.5, 2.0, 3.0):
        b = b_kappa(kappa)
        sol = solve_P(kappa, b, X)
        P = [sol.P.deriv(n)(z) for n in range(3)]
        t, size = z + kappa, np.abs(z) + b
        theta = P[0] / t
        d1 = (P[1] - theta) / t
        got = scal_p(z, -X.base_scal / 2, kappa, b, theta, d1, (P[2] - 2.0 * d1) / t)
        terms = (size**2 + 6.0 * size + 12.0) * sum(np.abs(P[n]) / t ** (3 - n) for n in range(3))
        terms += size**2 * abs(X.base_scal) / t
        assert np.all(np.abs(got - sol.c) <= 32.0 * np.finfo(float).eps * terms), kappa


def test_ricci_of_the_conformal_metric_is_j_invariant():
    # J = g^-1 omega with omega = (z + kappa) dx ^ dy/(c y^2) + dz ^ (dt + dx/(c y))
    g, gi = _metric(K(1))
    omega = [[ZERO] * 4 for _ in range(4)]
    omega[0][1], omega[2][3], omega[2][0] = (Z + KAPPA) / (C * Y**2), K(1), 1 / (C * Y)
    for i, j in ((0, 1), (2, 3), (2, 0)):
        omega[j][i] = -omega[i][j]
    n = range(4)
    J = [[sum((gi[i][k] * omega[k][j] for k in n), ZERO) for j in n] for i in n]
    assert [[sum((J[i][k] * J[k][j] for k in n), ZERO) for j in n] for i in n] == [[-K(1) if i == j else ZERO for j in n] for i in n]

    def pulled_back(h):  # h(J., J.)
        return [[sum((J[k][i] * h[k][l] * J[l][j] for k in n for l in n), ZERO) for j in n] for i in n]

    assert pulled_back(g) == g
    # nabla omega = 0: g is Kahler, so f^-2 g is conformally Kahler
    G = _christoffel(g, gi)
    for k in n:
        for i in n:
            for j in n:
                cov = _d(omega[i][j], k) - sum((G[l][k][i] * omega[l][j] + G[l][k][j] * omega[i][l] for l in n), ZERO)
                assert cov == 0, (k, i, j)
    ric = _ricci(*_metric((Z + B) ** -2))
    assert pulled_back(ric) == ric
