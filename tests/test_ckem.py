"""Boundary-value solver, Futaki curve, and the existence threshold."""

import math

import numpy as np
import pytest
from numpy.polynomial import Polynomial

from kahlerlab import ckem
from kahlerlab.ckem import (
    ClassLabel,
    b_kappa,
    interior_min,
    kappa_zero,
    solve_P,
    sweep,
)
from kahlerlab.calabi import RuledSurfaceData
from kahlerlab.cli import main
from kahlerlab.errors import OutOfDomain, SearchFailed

# The closed form's kappa0 at genus 2, degree 1 (|min P| = 1.1e-16 there);
# tests/test_kappa0_oracle.py checks it against an independent oracle.
KAPPA0 = 1.0270383116905197


def test_b_kappa_inverts_the_curve():
    for b in (1.1, 1.5, 2.0, 3.0, 10.0):
        kappa = (1.0 + b * b) / (2.0 * b)
        np.testing.assert_allclose(b_kappa(kappa), b, rtol=1e-13)


def test_b_kappa_domain():
    with pytest.raises(OutOfDomain):
        b_kappa(1.0)


def test_futaki_vanishes_exactly_on_the_curve():
    for b in (1.1, 1.5, 2.0, 3.0):
        kappa = (1.0 + b * b) / (2.0 * b)
        assert abs(solve_P(kappa, b).futaki_residual) < 1e-10
        assert abs(solve_P(kappa, b - 0.1).futaki_residual) > 1e-4
        assert abs(solve_P(kappa, b + 0.1).futaki_residual) > 1e-4


@pytest.mark.parametrize("genus", [2, 10**11, 10**200])
def test_futaki_residual_is_rounding_on_the_curve_at_every_genus(genus):
    # F/F_scale is relative and reads no s_C, so no genus scales its rounding
    rows = sweep(np.linspace(1.001, 3.0, 200), RuledSurfaceData.standard(1.5, genus=genus, degree=1))
    assert len(rows) == 200
    assert max(abs(r.futaki_residual) for r in rows) <= 4.0 * np.finfo(float).eps


def test_solve_P_boundary_values():
    # Theta = P/(z+kappa) with Theta(+-1) = 0 and Theta'(+-1) = -+2 forces
    # P(+-1) = 0, P'(-1) = 2(kappa-1), P'(1) = -2(kappa+1).
    kappa = 1.3
    sol = solve_P(kappa, b_kappa(kappa))
    dP = sol.P.deriv()
    np.testing.assert_allclose(sol.P(-1.0), 0.0, atol=1e-11)
    np.testing.assert_allclose(sol.P(1.0), 0.0, atol=1e-11)
    np.testing.assert_allclose(dP(-1.0), 2.0 * (kappa - 1.0), atol=1e-10)
    np.testing.assert_allclose(dP(1.0), -2.0 * (kappa + 1.0), atol=1e-10)


def test_interior_min_of_known_polynomial():
    m, zm = interior_min(Polynomial([-0.25, 0.0, 1.0]))
    np.testing.assert_allclose(m, -0.25, atol=1e-12)
    np.testing.assert_allclose(zm, 0.0, atol=1e-8)
    # (z^2 - 1/4)^2 + z/10 has local minima near -1/2 and +1/2; the tilt
    # makes the left one the lower, and a dense grid is the oracle
    quartic = Polynomial([0.0625, 0.1, -0.5, 0.0, 1.0])
    m, zm = interior_min(quartic)
    zs = np.linspace(-1.0, 1.0, 200001)
    np.testing.assert_allclose(m, quartic(zs).min(), atol=1e-9)
    assert -1.0 < zm < 0.0
    np.testing.assert_allclose(quartic.deriv()(zm), 0.0, atol=1e-12)


def test_interior_min_ignores_vanishing_top_coefficients():
    padded = interior_min(Polynomial([-0.25, 0.0, 1.0, 0.0, 0.0]))
    assert padded == interior_min(Polynomial([-0.25, 0.0, 1.0]))
    np.testing.assert_allclose(padded, (-0.25, 0.0), atol=1e-12)


@pytest.mark.parametrize("coef", [[1.0, 2.0], [1.0, 2.0, 0.0, 0.0]])
def test_interior_min_of_a_P_with_constant_derivative_is_inf(coef):
    # P' has no root, so there is no interior critical point; the trailing
    # zeros of the second P are trimmed before its degree is read
    m, zm = interior_min(Polynomial(coef))
    assert m == math.inf and math.isnan(zm)


@pytest.mark.parametrize("b", [0.0, -1.0, math.nan])
def test_solve_P_needs_b_positive(b):
    with pytest.raises(OutOfDomain, match="need b > 0"):
        solve_P(1.5, b)


def test_sweep_rows_equal_single_solves_bit_for_bit():
    # the stacked solve treats each kappa alone: a row does not depend on
    # the other kappas of its sweep, nor on the path (sweep, or solve_P and
    # interior_min) that reaches it
    rng = np.random.default_rng(17)
    for genus, degree in ((2, 1), (4, 5)):
        X = RuledSurfaceData.standard(1.5, genus=genus, degree=degree)
        ks = np.sort(1.0 + np.exp(rng.uniform(math.log(1e-4), math.log(20.0), 40)))
        for k, row in zip(ks, sweep(ks, X)):
            assert row == sweep([k], X)[0]
            sol = solve_P(k, b_kappa(k), X)
            m, zm = interior_min(sol.P)
            assert (row.b_kappa, row.c, row.futaki_residual) == (b_kappa(k), sol.c, sol.futaki_residual)
            assert (row.min_P, row.argmin_z, row.label) == (m, zm, ckem._label(m))


def test_solve_P_on_scalars_is_the_stacked_closed_form_bit_for_bit():
    # one closed form serves a single kappa and a stack: P's coefficients,
    # c and the Futaki defect of solve_P equal the stacked rows of sweep
    rng = np.random.default_rng(33)
    X = RuledSurfaceData.standard(1.5, genus=3, degree=2)
    ks = 1.0 + np.exp(rng.uniform(math.log(1e-3), math.log(1e8), 50))
    rows = sweep(ks, X)
    coef = ckem._closed_form(ks, np.array([r.b_kappa for r in rows]), X.base_scal)[0]
    for k, row, want in zip(ks, rows, coef, strict=True):
        sol = solve_P(k, row.b_kappa, X)
        assert sol.P.coef.tobytes() == want.tobytes()
        assert (sol.c, sol.futaki_residual) == (row.c, row.futaki_residual)


def test_sweep_names_each_rejected_kappa():
    # the closed form stays finite up to kappa ~ 6.7e153, where c ~ 8 kappa^2
    # overflows; 1e10 is a solved row
    kappas = [1.5, math.inf, 1e200, 1e10, math.nan, 2.0]
    errors = []
    rows = sweep(kappas, errors=errors)
    assert [r.kappa for r in rows] == [1.5, 1e10, 2.0]
    assert rows == sweep([1.5, 1e10, 2.0])
    np.testing.assert_allclose(rows[1].min_P, 1e10, rtol=1e-12)
    assert [name for _, name in errors] == ["OutOfDomain"] * 3
    assert [k for k, _ in errors][:2] == [math.inf, 1e200] and math.isnan(errors[2][0])
    with pytest.raises(OutOfDomain):
        sweep(kappas)
    with pytest.raises(OutOfDomain):
        solve_P(math.inf, 2.0)


def _theta_rows(kappa, b, sC):
    """The boundary system written out afresh: rows (Theta(z0), Theta'(z0) + -2)
    for z0 = -1, 1, Theta = P/(z+kappa), in the unknowns (alpha, beta, c) of
    P = (sC/2) t^2 + alpha t^3 + beta t^4 + c (-t/6 - (kappa-b)/12), t = z+b."""
    vals, ders = [], []
    for z0, slope in ((-1.0, 2.0 * (kappa - 1.0)), (1.0, -2.0 * (kappa + 1.0))):
        t, w = b + z0, kappa + z0
        p_cols, p_rhs = np.array([t**3, t**4, -t / 6.0 - (kappa - b) / 12.0]), -sC / 2.0 * t * t
        dp_cols, dp_rhs = np.array([3.0 * t * t, 4.0 * t**3, -1.0 / 6.0]), slope - sC * t
        vals.append((p_cols / w, p_rhs / w))
        ders.append(((dp_cols - p_cols / w) / w, (dp_rhs - p_rhs / w) / w))
    A, y = zip(*vals, *ders)
    return np.array(A), np.array(y)


@pytest.mark.parametrize("genus,degree", [(2, 1), (4, 5)])
def test_futaki_defect_matches_lstsq_off_the_curve(genus, degree):
    # a different algorithm as the reference for the zero set: lstsq's residual
    # is good to about cond(A) eps |y| (cond up to 7e6 at kappa = 10), so it
    # reads rounding at b_kappa and well above it at b_kappa +- 0.1, where
    # futaki_residual has the sign of b^2 - 2 kappa b + 1
    X = RuledSurfaceData.standard(1.5, genus=genus, degree=degree)
    eps = np.finfo(float).eps
    for kappa in (1.001, 1.25, 2.0, 10.0):
        bk = b_kappa(kappa)
        for b in (bk, bk - 0.1, bk + 0.1):
            if not b > 1.0:
                continue
            A, y = _theta_rows(kappa, b, X.base_scal)
            lstsq = np.linalg.norm(A @ np.linalg.lstsq(A, y, rcond=None)[0] - y)
            floor = 10.0 * np.linalg.cond(A) * eps * np.linalg.norm(y)
            res = solve_P(kappa, b, X).futaki_residual
            if b == bk:
                assert lstsq <= floor and abs(res) <= 4.0 * eps
            else:
                assert lstsq > floor and res != 0.0
                assert np.sign(res) == np.sign(b * b - 2.0 * kappa * b + 1.0)


def test_kappa_zero_matches_frozen_value():
    k0 = kappa_zero()
    np.testing.assert_allclose(k0, KAPPA0, atol=1e-6)
    m, zm = interior_min(solve_P(k0, b_kappa(k0)).P)
    assert abs(m) < 1e-8
    assert -1.0 < zm < 1.0


def test_kappa_zero_tol_bounds_min_P_at_the_threshold(monkeypatch):
    # ckem._KAPPA_ZERO_TOL is the bound on |min P| at the returned kappa0: the
    # closed form is checked once, and a bound below the |min P| it reaches
    # (the next float down, negative if that |min P| is 0) fails that check
    X = RuledSurfaceData.standard(1.5, genus=5, degree=1)
    k0 = kappa_zero(X)
    monkeypatch.setattr(ckem, "_KAPPA_ZERO_TOL", 1e-13)
    assert kappa_zero(X) == k0
    reached = abs(interior_min(solve_P(k0, b_kappa(k0), X).P)[0])
    monkeypatch.setattr(ckem, "_KAPPA_ZERO_TOL", math.nextafter(reached, -math.inf))
    with pytest.raises(SearchFailed):
        kappa_zero(X)


def test_kappa_zero_follows_its_small_s_C_law():
    # kappa0 - 1 ~ s_C^2/200 as s_C -> 0^-; the ratio rises to 1 (0.954 at
    # degree 40, 1 - 4.9e-5 at 40,000)
    surfaces = [RuledSurfaceData.standard(1.5, genus=2, degree=d) for d in (40, 400, 4000, 40000)]
    ratios = [(kappa_zero(X) - 1.0) / (X.base_scal**2 / 200.0) for X in surfaces]
    assert all(a < b < 1.0 for a, b in zip(ratios, ratios[1:])), ratios
    assert 1.0 - ratios[-1] < 1e-4


def test_kappa_zero_names_s_C_when_kappa0_rounds_to_one():
    # kappa0 - 1 ~ s_C^2/200 = 8e-18 at degree 10^8, below float resolution;
    # degree 10^7 (8e-16) still resolves it
    assert kappa_zero(RuledSurfaceData.standard(1.5, genus=2, degree=10**7)) > 1.0
    with pytest.raises(OutOfDomain, match=r"kappa0 rounds to 1: .* s_C = -4e-08 is below float resolution"):
        kappa_zero(RuledSurfaceData.standard(1.5, genus=2, degree=10**8))


def test_kappa_zero_names_the_overflow_of_q_at_huge_s_C():
    # at s_C = -4e300, q(b) = 6b^4 - ... overflows a float near its root
    # b0 ~ 8.7e99: the fault is the overflow, not a kappa0 that rounds to 1
    with pytest.raises(OutOfDomain, match=r"overflows a float .* = 8.74e\+99 at s_C = -4e\+300$") as exc:
        kappa_zero(RuledSurfaceData.standard(1.5, genus=10**300, degree=1))
    assert "rounds to 1" not in str(exc.value)


def test_solve_P_and_sweep_name_the_overflow_of_the_closed_form():
    # at genus 10^235 kappa_zero returns kappa0 ~ 9.4e77, a finite kappa > 1,
    # but c ~ 8 kappa^2 + 4 s_C kappa overflows a float: the error names the
    # overflow and s_C, not the domain of kappa
    X = RuledSurfaceData.standard(1.5, genus=10**235, degree=1)
    k0 = kappa_zero(X)
    for solve in (lambda: solve_P(k0, b_kappa(k0), X), lambda: sweep([k0], X)):
        with pytest.raises(OutOfDomain, match=r"overflows a float at kappa = .*, s_C = -4e\+235$") as exc:
            solve()
        assert "need kappa finite" not in str(exc.value)
    errors = []
    assert [r.kappa for r in sweep([k0, 1.5], X, errors=errors)] == [1.5] and errors == [(k0, "OutOfDomain")]


def test_kappa_zero_follows_its_large_s_C_law():
    # kappa0 ~ (|s_C|/48)^(1/3) as s_C -> -inf; the ratio falls to 1 (1.083 at
    # genus 100), and |min P| stays within ckem._KAPPA_ZERO_TOL at genus 10^5
    # and 10^6, where a least-squares solve of the boundary system did not
    surfaces = [RuledSurfaceData.standard(1.5, genus=g, degree=1) for g in (100, 1000, 10**4, 10**5, 10**6)]
    k0s = [kappa_zero(X) for X in surfaces]
    ratios = [k0 / (abs(X.base_scal) / 48.0) ** (1.0 / 3.0) for k0, X in zip(k0s, surfaces)]
    assert all(a > b > 1.0 for a, b in zip(ratios, ratios[1:])), ratios
    assert ratios[-1] - 1.0 < 1e-3
    for k0, X in zip(k0s[-2:], surfaces[-2:]):
        assert abs(interior_min(solve_P(k0, b_kappa(k0), X).P)[0]) <= ckem._KAPPA_ZERO_TOL


def test_classification_brackets_the_threshold():
    below, at, above = (row.label for row in sweep([1.005, KAPPA0, 1.25]))
    assert below is ClassLabel.NEGATIVE_SOMEWHERE
    assert at is ClassLabel.DOUBLE_ROOT
    assert above is ClassLabel.EXISTS_CKEM


def test_sweep_rows_and_label_transition():
    rows = sweep([1.01, KAPPA0, 1.5])
    labels = [r.label for r in rows]
    assert labels == [
        ClassLabel.NEGATIVE_SOMEWHERE,
        ClassLabel.DOUBLE_ROOT,
        ClassLabel.EXISTS_CKEM,
    ]
    for r in rows:
        assert abs(r.futaki_residual) < 1e-10


def test_sweep_csv_deterministic(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    outs = []
    for _ in range(2):
        assert main(["pkappa", "--kappa-range", "1.1,1.2", "--no-cache"]) == 0
        outs.append(capsys.readouterr().out)
    assert outs[0] == outs[1]
    header, *lines = outs[0].splitlines()
    assert header == "kappa,b_kappa,c,futaki_residual,min_P,argmin_z,label"
    assert len(lines) == 2
