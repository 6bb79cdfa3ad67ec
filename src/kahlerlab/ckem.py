"""Constant weighted-curvature solutions, the Futaki obstruction, and kappa_0.

Substituting P = (z+kappa) Theta turns the constancy requirement
Scal_{(xi,b,4)} = c into a linear ODE,

    (z+b)^2 P'' - 6 (z+b) P' + 12 P = s_C (z+b)^2 - c (z+kappa),

whose homogeneous solutions are (z+b)^3 and (z+b)^4 and which has the
quadratic particular solution (with t = z+b)

    P_part(t) = (s_C/2) t^2 - (c/6) t - c (kappa-b)/12.

The four first-order boundary conditions on Theta = P/(z+kappa),

    Theta(-1) = Theta(1) = 0,   Theta'(-1) = 2,   Theta'(1) = -2,

are linear in the unknowns (alpha, beta, c): an overdetermined 4x3 system
A x = y, its rows the Theta-defects (the four numbers `check_boundary`
reports). Its least-squares residual is the Futaki defect. A has full rank,
so the residual is |n.y|/|n|, n the signed 3x3 cofactors of A (its left null
vector). In closed form (sympy), up to one positive factor,

    n = (-(b+1)^2 Q_0, (b-1)^2 Q_1, -(b+1)^2 (kappa-1) Q_2, -(b-1)^2 (kappa+1) Q_3),
    n.y = 2 (b^2 - 2 kappa b + 1)(4 kappa b^2 - s_C (b^2-1) - 4b),

Q_i polynomials of degree <= 2 in kappa and in b (`_futaki_defect`). For
kappa > 1 and b > 1 the second factor of n.y is positive, so the defect
vanishes exactly on the curve kappa = (1+b^2)/(2b), i.e. at b = b_kappa(kappa).

On the curve the system has the solution (sympy; D = 3b^2 - 1)

    P(z) = p0 + z + p2 z^2 - z^3 + p4 z^4,   c = 6 (b^2-1)(b^2 + s_C b - 1)/D,
    p0 = (6b^4 - b^2 + s_C b - 1)/(4bD),  p2 = -(3b^3 - 3b + s_C)/(2D),
    p4 = (-5b^2 + s_C b + 1)/(4bD),

evaluated in u = 1/b so that no power of b past b^2 is formed
(`_coefficients`). As s_C < 0, p4 < 0 for every b > 1: P is a quartic.

kappa_0 is closed-form too. As p2 = -(p0 + p4) for every b, P = (z^2-1) Q
with Q = p4 z^2 - z - p0 and Q(+-1) = -(kappa+-1) < 0, so P < 0 somewhere
in (-1, 1) iff Q has two real roots there; at kappa_0 they meet. In b,

    disc Q ~ (b^2 + s_C b - 1) q(b),   q(b) = 6 b^4 - 7 b^2 + s_C b + 1
    (positive factor omitted).

The first factor is c = 0, where Q = -(z+b)^2/(2b) has its double root at
z = -b < -1: no threshold. q(1) = s_C < 0 and q'' > 0 on [1, inf), so q has
one root b_0 > 1 (below the c = 0 point, where q > 0): kappa_0 = (1+b_0^2)/(2b_0).
As q is convex there, Newton's method from any b > b_0 decreases monotonically
to b_0; b = a + 2, a = (-s_C/6)^(1/3), is such a start, as q = 6b(b^3 - a^3)
- 7b^2 + 1 >= 12b^3 - 7b^2 + 1 > 0 there. `kappa_zero` then reads min P at
kappa_0 off the closed form and bounds it relative to P's largest coefficient:
1 while |s_C| <= 34.5, and about kappa_0 as |s_C| grows.
"""

from __future__ import annotations

import enum
import math
from typing import Iterable, NamedTuple

import numpy as np
from numpy.polynomial import Polynomial

from .calabi import Profile, RuledSurfaceData
from .errors import OutOfDomain, SearchFailed

__all__ = [
    "PKappaSolution",
    "ClassLabel",
    "b_kappa",
    "solve_P",
    "kappa_zero",
    "interior_min",
    "SweepRow",
    "sweep",
]

_KAPPA_ZERO_TOL = 1e-8  # bound on |min P| at the returned kappa0, per unit of P's largest |coefficient|
_CLASSIFY_TOL = 1e-8  # |min P| band that a sweep labels DoubleRoot


def _surface(X: RuledSurfaceData | None) -> RuledSurfaceData:
    """X, or the genus-2, degree-1 surface. Its s_C alone enters: kappa is every solver's argument."""
    return RuledSurfaceData.standard(1.5) if X is None else X


class PKappaSolution(NamedTuple):
    """The closed-form solution on the Futaki curve through b, with the
    boundary system's Futaki defect at (kappa, b)."""

    P: Polynomial
    c: float
    futaki_residual: float
    kappa: float
    b: float
    surface: RuledSurfaceData

    def profile(self) -> Profile:
        """Momentum profile Theta = P/(z+kappa) = (1-z^2) N/(z+kappa), with
        N = p0 + z - p4 z^2 = (p0 - p4/2) T_0 + T_1 - (p4/2) T_2: P = (1-z^2) N
        exactly, since p2 = -(p0 + p4) for every b (module docstring)."""
        p0, p4 = self.P.coef[0], self.P.coef[4]
        return Profile(self.kappa, [p0 - 0.5 * p4, 1.0, -0.5 * p4])


class ClassLabel(str, enum.Enum):
    EXISTS_CKEM = "ExistsCKEM"
    NEGATIVE_SOMEWHERE = "NegativeSomewhere"
    DOUBLE_ROOT = "DoubleRoot"

    def __str__(self) -> str:  # csv-friendly
        return self.value


def b_kappa(kappa: float) -> float:
    """The unique b > 1 with (1+b^2)/(2b) = kappa."""
    if not kappa > 1.0:
        raise OutOfDomain("b_kappa requires kappa > 1")
    return kappa + math.sqrt(kappa * kappa - 1.0)


def _futaki_defect(kappa: np.ndarray, b: np.ndarray, sC: float) -> np.ndarray:
    """The boundary system's least-squares residual |n.y|/|n| for (kappa, b),
    float64 scalars or stacks, n its signed 3x3 cofactors (module docstring);
    nan where kappa is not finite and > 1 or b is not > 0. n and n.y are
    scaled by b^-6 and written in u = 1/b, r = kappa/b, so that every factor
    is O(1)."""
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        u, r = 1.0 / b, kappa / b
        # Q_0, Q_1 times b^-4 and Q_2, Q_3 times b^-3
        q0 = 3.0 * r * r * (1.0 - u) ** 2 + 2.0 * r * u * u * (u - 2.0) + u * u * (1.0 + u * (4.0 - 3.0 * u))
        q1 = 3.0 * r * r * (1.0 + u) ** 2 - 2.0 * r * u * u * (u + 2.0) + u * u * (1.0 - u * (4.0 + 3.0 * u))
        q2 = r * (3.0 - u * (2.0 - u)) + u * (1.0 - u * (4.0 - u))
        q3 = r * (3.0 + u * (2.0 + u)) - u * (1.0 + u * (4.0 + u))
        up, um = (1.0 + u) ** 2, (1.0 - u) ** 2  # (b+1)^2 and (b-1)^2 times b^-2
        n = np.stack([-up * q0, um * q1, -up * (r - u) * q2, -um * (r + u) * q3], axis=-1)
        ny = 2.0 * u * (1.0 - 2.0 * r + u * u) * (4.0 * r - u * (sC * (1.0 - u * u) + 4.0 * u))
        d = np.abs(ny) / np.sqrt(np.sum(n * n, axis=-1))
    return np.where(np.isfinite(kappa) & (kappa > 1.0) & (b > 0.0), d, math.nan)


def _coefficients(b: np.ndarray, sC: float) -> np.ndarray:
    """P's coefficients in z, ascending, along a last axis of 5, on the Futaki curve
    through b (module docstring), for b a float64 scalar or a stack of shape (n,).
    Written in u = 1/b, so that no power of b above b^2 is formed."""
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        u = 1.0 / b
        e = 3.0 - u * u  # D / b^2
        out = np.empty(np.shape(b) + (5,))
        out[..., 0] = b * (6.0 - u * u * (1.0 - u * (sC - u))) / (4.0 * e)
        out[..., 1] = 1.0
        out[..., 2] = -b * (3.0 - u * u * (3.0 - sC * u)) / (2.0 * e)
        out[..., 3] = -1.0
        out[..., 4] = u * (u * (u + sC) - 5.0) / (4.0 * e)
        return out


def _closed_form(kappa: np.ndarray, b: np.ndarray, sC: float) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """For (kappa, b), float64 scalars or stacks of shape (n,): P's coefficients
    (`_coefficients`) and c on the Futaki curve through b, the Futaki defect at
    (kappa, b), and where all three are finite."""
    coef = _coefficients(b, sC)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        u = 1.0 / b
        c = 6.0 * b * b * (1.0 - u * u) * (1.0 + u * (sC - u)) / (3.0 - u * u)
    defect = _futaki_defect(kappa, b, sC)
    return coef, c, defect, np.isfinite(coef).all(axis=-1) & np.isfinite(c) & np.isfinite(defect)


def solve_P(kappa: float, b: float, X: RuledSurfaceData | None = None) -> PKappaSolution:
    """P and c in closed form on the Futaki curve through b, with the
    boundary system's Futaki defect at (kappa, b). The defect is absolute:
    on the curve kappa = (1+b^2)/(2b), where P solves the system exactly, it
    is the rounding of terms of size |s_C|, about 1.2e-17 |s_C|. OutOfDomain
    unless kappa is finite and > 1, b > 0 and all three are finite; it names an overflow.
    """
    X = _surface(X)
    coef, c, defect, ok = _closed_form(np.float64(kappa), np.float64(b), X.base_scal)
    if not (math.isfinite(kappa) and kappa > 1.0 and b > 0.0):
        raise OutOfDomain(f"no finite solution at kappa = {kappa!r}, b = {b!r}: need kappa finite and > 1, b > 0")
    if not ok:
        raise OutOfDomain(f"the closed form overflows a float at kappa = {kappa!r}, s_C = {X.base_scal!r}")
    return PKappaSolution(P=Polynomial(coef), c=float(c), futaki_residual=float(defect), kappa=kappa, b=b, surface=X)


def interior_min(P: Polynomial) -> tuple[float, float]:
    """P at its lowest interior critical point: (value, location).

    Critical points are the real roots of P' in [-1+1e-9, 1-1e-9]; the
    endpoints (where P vanishes on the Futaki curve by construction) are
    excluded. Returns (+inf, nan) if no interior critical point exists.
    This is the minimum of P on (-1, 1) only where P has an interior local
    minimum: on the Futaki curve with kappa > kappa_0 the one interior
    critical point is the maximum of P (1.4617 at kappa = 1.5). P.coef is
    read in z, as every Polynomial here has the default domain and window.
    """
    coef = np.trim_zeros(P.coef, "b")
    if coef.size < 3:  # P' constant
        return math.inf, math.nan
    m, zm = _interior_min(coef[None, :])
    return float(m[0]), float(zm[0])


def _interior_min(coef: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """interior_min for the rows of coef (n, deg+1), ascending, deg >= 2 and
    the last column nonzero (p4 < 0 for every b > 1, module docstring): the
    critical points are the eigenvalues of the companion matrices of P'
    (polycompanion's layout, rotated as polyroots does), sorted; P is
    evaluated there by Horner."""
    n, d = coef.shape[0], coef.shape[1] - 1
    dc = coef[:, 1:] * np.arange(1.0, d + 1.0)
    comp = np.zeros((n, d - 1, d - 1))
    comp[:, 1:, :-1] = np.eye(d - 2)
    comp[:, :, -1] = -dc[:, :-1] / dc[:, -1:]
    roots = np.sort(np.linalg.eigvals(comp[:, ::-1, ::-1]), axis=1)
    z = roots.real
    crit = (roots.imag == 0.0) & (np.abs(z) <= 1.0 - 1e-9)
    pv = coef[:, -1:] + z * 0.0
    with np.errstate(over="ignore"):  # at a root far outside [-1, 1]
        for j in range(d - 1, -1, -1):
            pv = coef[:, j : j + 1] + pv * z
    pv[~crit], z[~crit] = math.inf, math.nan  # a row with no critical point reads (+inf, nan)
    i = np.arange(n), np.argmin(pv, axis=1)
    return pv[i], z[i]


def kappa_zero(X: RuledSurfaceData | None = None) -> float:
    """Threshold kappa_0 = (1+b_0^2)/(2b_0), b_0 > 1 the root of the convex
    quartic q(b) = 6b^4 - 7b^2 + s_C b + 1 (module docstring): Newton from
    b = 2 + (-s_C/6)^(1/3) until a step no longer decreases b, then two
    polishing steps. Checked once, off the closed-form coefficient row at
    (kappa_0, b_kappa(kappa_0)): SearchFailed unless |min P|, P at its lowest
    interior critical point, is within _KAPPA_ZERO_TOL times P's largest
    |coefficient|. OutOfDomain if q overflows a float near b_0 (|s_C| beyond
    ~1e241), or if kappa0 rounds to 1, where kappa0 - 1 ~ s_C^2/200 is below
    float resolution (|s_C| < ~1e-7).
    """
    sC = _surface(X).base_scal

    def newton(b: float) -> float:  # a Newton step on q, with q' = 24b^3 - 14b + s_C
        return b - (((6.0 * b * b - 7.0) * b + sC) * b + 1.0) / ((24.0 * b * b - 14.0) * b + sC)

    a = (-sC / 6.0) ** (1.0 / 3.0)
    b0 = a + 2.0
    # a step is nan once q overflows, and it may rise from the first b where
    # a + 2 rounds to a: either ends the loop
    while (b1 := newton(b0)) < b0:
        b0 = b1
    b0 = newton(newton(b1))
    kappa0 = 0.5 * (b0 + 1.0 / b0)
    if not math.isfinite(kappa0):
        raise OutOfDomain(f"q(b) = 6b^4 - 7b^2 + s_C b + 1 overflows a float near its root b0 ~ (-s_C/6)^(1/3) = "
                          f"{a:.3g} at s_C = {sC!r}")
    if not kappa0 > 1.0:
        raise OutOfDomain(f"kappa0 rounds to 1: kappa0 - 1 ~ s_C^2/200 = {sC * sC / 200.0:.3g} at s_C = {sC!r} "
                          "is below float resolution")
    coef = _coefficients(np.float64(b_kappa(kappa0)), sC)
    m = abs(float(_interior_min(coef[None, :])[0][0]))
    scale = float(np.abs(coef).max())  # 1 unless |p0|, |p2| or |p4| exceeds 1
    if not m <= _KAPPA_ZERO_TOL * scale:
        raise SearchFailed(f"|min P| = {m:.3e} at kappa0 = {kappa0!r} exceeds {_KAPPA_ZERO_TOL:.3e} times P's "
                           f"largest |coefficient|, {scale:.3g}")
    return kappa0


def _label(m: float) -> ClassLabel:
    """Label from the interior minimum m of P; the |m| <= _CLASSIFY_TOL band wins over
    the sign tests (double-root tie-break)."""
    if abs(m) <= _CLASSIFY_TOL:
        return ClassLabel.DOUBLE_ROOT
    if m < 0.0:
        return ClassLabel.NEGATIVE_SOMEWHERE
    return ClassLabel.EXISTS_CKEM


class SweepRow(NamedTuple):
    """One sweep row. min_P and argmin_z are P at its lowest interior
    critical point and where it lies (`interior_min`); in ExistsCKEM rows
    that point is the interior maximum of P."""

    kappa: float
    b_kappa: float
    c: float
    futaki_residual: float
    min_P: float
    argmin_z: float
    label: ClassLabel


def sweep(kappas: Iterable[float], X: RuledSurfaceData | None = None, errors: list | None = None) -> list[SweepRow]:
    """One row per kappa, at b = b_kappa(kappa), all from one stacked closed
    form; each row's Futaki defect is absolute, about 1.2e-17 |s_C| (`solve_P`).

    A kappa that is not finite and > 1, or else whose row overflows (c ~ 8
    kappa^2 + 4 s_C kappa: near 1e154, or sooner at huge |s_C|), raises an
    OutOfDomain that names the cause; given a list `errors`, it is left out of
    the rows and appended there as (kappa, "OutOfDomain"), in their order."""
    sC = _surface(X).base_scal
    k = np.fromiter(kappas, dtype=float)
    with np.errstate(over="ignore", invalid="ignore"):
        b = k + np.sqrt(k * k - 1.0)
    coef, c, defect, ok = _closed_form(k, b, sC)
    if not ok.all():
        if errors is None:
            if (bad := ~(np.isfinite(k) & (k > 1.0))).any():
                raise OutOfDomain(f"no finite solution at kappa = {k[bad].tolist()}: need kappa finite and > 1")
            raise OutOfDomain(f"the closed form overflows a float at kappa = {k[~ok].tolist()}, s_C = {sC!r}")
        errors.extend((kap, "OutOfDomain") for kap in k[~ok].tolist())
    m, zm = _interior_min(coef[ok])
    cols = (k[ok], b[ok], c[ok], defect[ok], m, zm)
    return [SweepRow(*row, label=_label(row[4])) for row in zip(*(col.tolist() for col in cols))]
