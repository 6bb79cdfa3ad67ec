"""kappa0, the sweep and the solver's profile and critical potential against
a 40-digit mpmath oracle that shares no code with kahlerlab.

The oracle solves the numerator P = (z+kappa) Theta of the constant
weighted-curvature profile from the curvature formula itself. With
f = z+b, w = z+kappa and p = 4, Scal_p = c reads, times w,

    f^2 (s_C - P'') + 2(p-1) f P' - p(p-1) P = c w,

to which the boundary conditions add P(+-1) = 0, P'(-1) = 2(kappa-1) and
P'(1) = -2(kappa+1). On the Futaki curve b = kappa + sqrt(kappa^2-1) this
system in (p_0..p_4, c) is consistent; the oracle solves it by 40-digit QR
(mpmath), where kahlerlab writes P and c in closed form in 1/b. kappa0 is
where P gets an interior double root: a bisection on the interior minimum of
P brackets it, and Newton on (P, P') = 0 in (kappa, z) finishes.

A second oracle reads kappa0 off the quartic q(b) = 6b^4 - 7b^2 + s_C b + 1,
whose root b0 > 1 gives kappa0 = (1+b0^2)/(2b0): a bisection at 50 digits,
to a relative width of 1e-30, at the exact s_C = 4(1-genus)/degree, over a
scan of surfaces up to |s_C| ~ 4e39.

A third oracle integrates the weighted Futaki invariant
F = int (Scal_p - c) z f^{-(p+1)} (z+kappa) dz at 30 digits, Scal_p written
from a profile Theta in the test and c the ratio of its two weighted
integrals, for two profiles on and off the Futaki curve.
"""

import mpmath as mp
import numpy as np
import pytest

from kahlerlab import ckem
from kahlerlab.calabi import RuledSurfaceData, to_symplectic
from kahlerlab.ckem import b_kappa, interior_min, kappa_zero, solve_P, sweep
from kahlerlab.mabuchi import SymplecticPotential, mabuchi_energy_amt

DPS = 40
P_WEIGHT = 4
# the (genus, degree) surfaces of the benchmark grid, s_C = 4(1-g)/d distinct
GRID = ((2, 1), (3, 1), (2, 2), (4, 1), (2, 3), (5, 1), (4, 5), (2, 5))
# the (genus, degree) scan of the q-root oracle: 960 surfaces, s_C from -4e-7 to -4e39
SCAN = [
    (g, d) for g in (*range(2, 60), *(10**e for e in range(2, 40))) for d in (1, 2, 3, 5, 7, 10, 10**2, 10**3, 10**5, 10**7)
]


def _numerator(kappa, s_c):
    """(p_0..p_4 ascending, least-squares residual) on the Futaki curve."""
    b = kappa + mp.sqrt(kappa * kappa - 1)
    p = P_WEIGHT
    rows, rhs = [], []
    # coefficient of z^n in the identity, unknowns p_i and c; at p = 4 the
    # z^3 and z^4 rows vanish identically (f^3, f^4 solve the homogeneous part)
    for n in range(3):
        row = []
        for i in range(5):
            if i == n + 2:
                row.append(-b * b * i * (i - 1))
            elif i == n + 1:
                row.append(-2 * b * i * (i - 1) + 2 * (p - 1) * b * i)
            elif i == n:
                row.append(mp.mpf(-(i - p) * (i - p + 1)))
            else:
                row.append(mp.mpf(0))
        row.append(-kappa if n == 0 else mp.mpf(-1 if n == 1 else 0))
        rows.append(row)
        rhs.append(-s_c * (b * b, 2 * b, 1)[n])
    for z0, slope in ((-1, 2 * (kappa - 1)), (1, -2 * (kappa + 1))):
        rows.append([mp.mpf(z0) ** i for i in range(5)] + [0])
        rhs.append(0)
        rows.append([i * mp.mpf(z0) ** (i - 1) for i in range(5)] + [0])
        rhs.append(slope)
    x, res = mp.qr_solve(mp.matrix(rows), mp.matrix(rhs))
    return [x[i] for i in range(5)], res


def _poly(coef, z):
    return mp.polyval(coef[::-1], z)


def _dpoly(coef, z):
    return mp.polyval([i * coef[i] for i in range(4, 0, -1)], z)


def _interior_min(coef):
    """(min P, argmin) over the real critical points of P in (-1, 1)."""
    dcoef = [i * coef[i] for i in range(1, 5)]
    crits = [
        mp.re(r)
        for r in mp.polyroots(dcoef[::-1], maxsteps=200, extraprec=2 * DPS)
        if abs(mp.im(r)) < mp.mpf(10) ** (-DPS // 2) and -1 < mp.re(r) < 1
    ]
    return min(((_poly(coef, z), z) for z in crits), default=(mp.inf, None))


def _oracle_kappa0(genus, degree):
    with mp.workdps(DPS):
        s_c = mp.mpf(4 * (1 - genus)) / degree

        def m(kappa):
            return _interior_min(_numerator(kappa, s_c)[0])

        lo, hi = 1 + mp.mpf(10) ** -8, mp.mpf(2)
        assert m(lo)[0] < 0 < m(hi)[0]
        for _ in range(24):
            mid = (lo + hi) / 2
            lo, hi = (mid, hi) if m(mid)[0] < 0 else (lo, mid)

        def double_root(kappa, z):
            coef = _numerator(kappa, s_c)[0]
            return _poly(coef, z), _dpoly(coef, z)

        k0, _ = mp.findroot(double_root, ((lo + hi) / 2, m((lo + hi) / 2)[1]))
        assert _numerator(k0, s_c)[1] < mp.mpf(10) ** (-DPS + 8)
        return float(k0)


def _q_root_kappa0(genus, degree):
    """kappa0 = (1+b0^2)/(2b0) to 1e-30, b0 the root in (1, inf) of
    q(b) = 6b^4 - 7b^2 + s_C b + 1 by bisection: with a = (-s_C/6)^(1/3),
    q < 0 at max(1, a) (q(1) = s_C, q(a) = 1 - 7a^2) and q > 0 at a + 2."""
    with mp.workdps(50):
        s_c = mp.mpf(4 * (1 - genus)) / degree
        a = (-s_c / 6) ** (mp.mpf(1) / 3)
        lo, hi = max(mp.mpf(1), a), a + 2
        while hi - lo > hi * mp.mpf(10) ** -30:
            mid = (lo + hi) / 2
            lo, hi = (mid, hi) if ((6 * mid * mid - 7) * mid + s_c) * mid + 1 < 0 else (lo, mid)
        b0 = (lo + hi) / 2
        return (1 + b0 * b0) / (2 * b0)


def test_kappa_zero_matches_the_q_root_over_the_scan():
    # worst and mean relative error of kappa0 against the bisected root, no
    # worse than those of the root the companion eigenvalues of q gave, with
    # the same Newton polish (1.85e-16 and 5.75e-17 over the scan); 74 of the
    # 960 kappa0 move by one ulp between the two, and none raises
    errs = []
    for genus, degree in SCAN:
        oracle = _q_root_kappa0(genus, degree)
        k0 = kappa_zero(RuledSurfaceData.standard(1.5, genus=genus, degree=degree))
        with mp.workdps(50):
            errs.append(float(abs(k0 - oracle) / oracle))
    assert max(errs) <= 1.8454532496732187e-16
    assert np.mean(errs) <= 5.745278497069703e-17


def test_kappa_zero_at_genus_10_to_the_23_meets_its_scaled_bound():
    # P's largest |coefficient| is about kappa0 ~ 2e7 here, and |min P| at
    # kappa0 reads 1.2e-8: a bound of 1e-8 per unit of that coefficient holds,
    # where an absolute one failed with kappa0 within 1e-16 of the root
    X = RuledSurfaceData.standard(1.5, genus=10**23, degree=1)
    k0 = kappa_zero(X)
    with mp.workdps(50):
        assert float(abs(k0 - _q_root_kappa0(10**23, 1)) / k0) <= 2.0**-52
    P = solve_P(k0, b_kappa(k0), X).P
    assert abs(interior_min(P)[0]) <= ckem._KAPPA_ZERO_TOL * np.max(np.abs(P.coef))


@pytest.mark.parametrize("genus,degree", GRID)
def test_kappa_zero_matches_the_mpmath_oracle(genus, degree):
    X = RuledSurfaceData.standard(1.5, genus=genus, degree=degree)
    k0 = kappa_zero(X)
    oracle = _oracle_kappa0(genus, degree)
    np.testing.assert_allclose(k0, oracle, rtol=1e-13, atol=0)
    P = solve_P(k0, b_kappa(k0), X).P
    m, zm = interior_min(P)
    assert abs(m) < 1e-13
    assert abs(P.deriv()(zm)) < 1e-13


@pytest.mark.parametrize("genus,degree", [(2, 1), (4, 5)])
def test_sweep_matches_the_mpmath_oracle(genus, degree):
    X = RuledSurfaceData.standard(1.5, genus=genus, degree=degree)
    kappas = np.concatenate([1.0 + np.geomspace(1e-3, 2.0, 30), np.geomspace(10.0, 1e8, 8)])
    for kappa, row in zip(kappas, sweep(kappas, X), strict=True):
        with mp.workdps(DPS):
            coef, _ = _numerator(mp.mpf(kappa), mp.mpf(4 * (1 - genus)) / degree)
            m, zm = _interior_min(coef)
        oracle = np.array([float(v) for v in coef])
        got = solve_P(kappa, row.b_kappa, X).P.coef
        assert np.max(np.abs(got - oracle)) <= 1e-12 * np.max(np.abs(oracle))
        # past kappa = 3, min_P ~ kappa and argmin_z ~ 1/(2 kappa): the bounds
        # there are relative to them
        m, zm = float(m), float(zm)
        scale_m, scale_z = (1.0, 1.0) if kappa <= 3.0 else (abs(m), abs(zm))
        assert abs(row.min_P - m) <= 1e-12 * scale_m
        assert abs(row.argmin_z - zm) <= 1e-12 * scale_z


# interior nodes down to 1e-12 from each endpoint, where a remainder term of
# rounding size in Theta's numerator would swamp Theta/(1-z^2)
EDGE_Z = np.concatenate([-1.0 + np.geomspace(1e-12, 0.1, 12), np.linspace(-0.9, 0.9, 37), 1.0 - np.geomspace(0.1, 1e-12, 12)])


def _oracle_on(zs, kappa, fn):
    """fn(P, P', z) at 40 digits for z in zs, P the oracle's numerator on
    the Futaki curve of the standard surface (s_C = -4)."""
    with mp.workdps(DPS):
        coef, _ = _numerator(mp.mpf(kappa), mp.mpf(-4))
        return np.array([float(fn(lambda x: _poly(coef, x), lambda x: _dpoly(coef, x), mp.mpf(z))) for z in zs])


@pytest.mark.parametrize("kappa", [1.01, 1.25, 3.0, 1e5])
def test_solver_profile_is_the_oracle_numerator_over_z_plus_kappa(kappa):
    # Theta = (1-z^2) N/(z+kappa) vanishes exactly at z = +-1, and
    # G = Theta/(1-z^2) = N/(z+kappa) matches P/((1-z^2)(z+kappa)) of the
    # oracle up to the endpoints (at 1.01 < kappa0, G changes sign inside)
    prof = solve_P(kappa, b_kappa(kappa)).profile()
    assert prof.jet(-1.0)[0] == 0.0 and prof.jet(1.0)[0] == 0.0
    want = _oracle_on(EDGE_Z, kappa, lambda P, dP, z: P(z) / ((1 - z * z) * (z + kappa)))
    got = prof.jet(EDGE_Z)[0] / (1.0 - EDGE_Z * EDGE_Z)
    assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))


@pytest.mark.parametrize("kappa", [1.25, 3.0, 1e5])
def test_euler_lagrange_potential_matches_the_oracle(kappa):
    # D* = (1-z^2)(z+kappa)/P inside; at z = +-1 the limit -2z(z+kappa)/P'(z)
    def exact(P, dP, z):
        return -2 * z * (z + kappa) / dP(z) if abs(z) == 1 else (1 - z * z) * (z + kappa) / P(z)

    zs = np.array([-1.0, *EDGE_Z, 1.0])
    got = to_symplectic(solve_P(kappa, b_kappa(kappa)).profile()).D(zs)
    np.testing.assert_allclose(got, _oracle_on(zs, kappa, exact), rtol=1e-14, atol=0.0)


@pytest.mark.parametrize("kappa", [1.03, 1.1, 1.6, 3.0])
def test_mabuchi_gap_is_the_bregman_divergence_from_the_oracle(kappa):
    # above kappa0 the energy is a term linear in D = (1-z^2) u'' minus a
    # weighted log D, and the critical D* = (1-z^2)(z+kappa)/P makes the
    # linear coefficient P f^{-3}/(1-z^2) equal (z+kappa) f^{-3}/D*; so
    # M(u) - M(u*) = int (z+kappa) f^{-3} (x - 1 - log x) dz, x = D/D*, which
    # is >= 0 pointwise. D* and b come from the 40-digit oracle, the integral
    # from this module's own 200-node Gauss rule. Worst measured error 2.4e-14
    # of the gap (bound 1e-12, 40x headroom); smallest gaps 1.30, 8.3e-2,
    # 5.9e-4 and 2.1e-4 at kappa = 1.03, 1.1, 1.6 and 3.
    z, w = np.polynomial.legendre.leggauss(200)
    d_star = _oracle_on(z, kappa, lambda P, dP, x: (1 - x * x) * (x + kappa) / P(x))
    with mp.workdps(DPS):
        b = float(kappa + mp.sqrt(mp.mpf(kappa) ** 2 - 1))
    sol = solve_P(kappa, b_kappa(kappa))
    e_star = mabuchi_energy_amt(to_symplectic(sol.profile()), sol)
    rng = np.random.default_rng(8)
    for _ in range(8):
        co = rng.normal(size=5) * 0.8 / (1.0 + np.arange(5))

        def D(x, co=co):
            return np.exp(-(1.0 - x * x) * np.polynomial.polynomial.polyval(x, co))

        gap = mabuchi_energy_amt(SymplecticPotential(D, kappa), sol) - e_star
        x = D(z) / d_star
        want = float(np.dot(w, (z + kappa) * (z + b) ** -3.0 * (x - 1.0 - np.log(x))))
        assert gap >= 0.0 and want > 0.0
        assert abs(gap - want) <= 1e-12 * want


def _futaki_integral(kappa, b, s_c, t):
    """F at the working precision for Theta = (1-z^2)(1 + t z (1-z^2)), from
    Scal_p = f^2 Scal - 2(p-1) f Delta f - p(p-1) Theta with Scal = (s_C -
    ((z+kappa) Theta)'')/(z+kappa) and Delta f = -Theta' - Theta/(z+kappa)."""
    theta = [1, t, -1, -2 * t, 0, t]  # ascending in z
    d1 = [i * theta[i] for i in range(1, 6)]
    d2 = [i * d1[i] for i in range(1, 5)]
    p = P_WEIGHT

    def scal_p(z):
        th, dth, d2th = (mp.polyval(co[::-1], z) for co in (theta, d1, d2))
        w, f = z + kappa, z + b
        return f * f * (s_c - 2 * dth - w * d2th) / w + 2 * (p - 1) * f * (dth + th / w) - p * (p - 1) * th

    def weight(z):
        return (z + kappa) / (z + b) ** (p + 1)

    c = mp.quad(lambda z: scal_p(z) * weight(z), [-1, 1]) / mp.quad(weight, [-1, 1])
    return mp.quad(lambda z: (scal_p(z) - c) * z * weight(z), [-1, 1])


@pytest.mark.parametrize("genus", [2, 11, 10**11])
def test_futaki_residual_is_the_integrated_futaki_invariant_over_its_scale(genus):
    # s_C = -4, -40 and 4(1 - 10^11). F reads no profile; times the positive
    # denominator of ckem's docstring it is n.y; and futaki_residual is
    # F/F_scale, F_scale being F with b^2 - 2 kappa b + 1 read as
    # b^2 + 2 kappa b + 1. Measured: the profiles agree to 3.4e-32 of F_scale,
    # n.y to 8.6e-32; off the curve futaki_residual is within 9.0e-16 of
    # F/F_scale, and on it both read below 4.4e-17
    X = RuledSurfaceData.standard(1.5, genus=genus, degree=1)
    eps = np.finfo(float).eps
    for kappa in (1.2, 2.0):
        for b in (b_kappa(kappa), 0.9 * b_kappa(kappa), 1.1 * b_kappa(kappa)):
            res = solve_P(kappa, b, X).futaki_residual
            with mp.workdps(30):
                k, bb, s_c = mp.mpf(kappa), mp.mpf(b), mp.mpf(X.base_scal)
                F = _futaki_integral(k, bb, s_c, 0)
                rest = 4 * k * bb * bb - s_c * (bb * bb - 1) - 4 * bb
                den = (bb * bb - 1) ** 2 * (3 * k * bb * (bb * bb + 1) - 5 * bb * bb - 1)
                scale = 2 * (bb * bb + 2 * k * bb + 1) * rest / den
                assert abs(F - _futaki_integral(k, bb, s_c, mp.mpf("0.3"))) <= 1e-25 * scale
                assert abs(F * den - 2 * (bb * bb - 2 * k * bb + 1) * rest) <= 1e-25 * scale * den
                ratio = float(F / scale)
            if b == b_kappa(kappa):
                assert abs(res) <= 4.0 * eps and abs(ratio) <= 4.0 * eps
            else:
                assert abs(res - ratio) <= 1e-13 * abs(ratio) and np.sign(res) == np.sign(ratio)
