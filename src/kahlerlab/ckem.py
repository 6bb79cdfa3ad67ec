"""Constant weighted-curvature solutions, the Futaki obstruction, and kappa_0.

Substituting P = (z+kappa) Theta turns the constancy requirement
Scal_{(xi,b,4)} = c into a linear ODE,

    (z+b)^2 P'' - 6 (z+b) P' + 12 P = s_C (z+b)^2 - c (z+kappa),

whose homogeneous solutions are (z+b)^3 and (z+b)^4 and which has the
quadratic particular solution (with t = z+b)

    P_part(t) = (s_C/2) t^2 - (c/6) t - c (kappa-b)/12.

The four first-order boundary conditions on Theta = P/(z+kappa),

    Theta(-1) = Theta(1) = 0,   Theta'(-1) = 2,   Theta'(1) = -2,

are linear in the unknowns (alpha, beta, c), giving an overdetermined 4x3
system. Its least-squares defect is the numerical Futaki obstruction: it
vanishes exactly on the curve kappa = (1+b^2)/(2b), i.e. at b = b_kappa(kappa),
and is bounded away from zero off the curve. Rows are expressed directly as
the Theta-defects (the same four numbers `check_boundary` reports), which
keeps the obstruction well-scaled uniformly in (kappa, b).

kappa_0 is closed-form. On the curve P = (z^2-1) Q, Q quadratic with
Q(+-1) = -(kappa+-1) < 0, so P < 0 somewhere in (-1, 1) iff Q has two real
roots there; at kappa_0 they meet. In b (sympy, three rows; the fourth holds)

    c = 6 (b^2-1)(b^2 + s_C b - 1)/(3b^2 - 1),   disc Q ~ (b^2 + s_C b - 1) q(b),
    q(b) = 6 b^4 - 7 b^2 + s_C b + 1   (positive factor omitted).

The first factor is c = 0, where Q = -(z+b)^2/(2b) has its double root at
z = -b < -1: no threshold. q(1) = s_C < 0 and q'' > 0 on [1, inf), so q has
one root b_0 > 1 (below the c = 0 point, where q > 0): kappa_0 = (1+b_0^2)/(2b_0).
"""

from __future__ import annotations

import csv
import enum
import io
import math
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

import numpy as np
from numpy.polynomial import Polynomial

from .calabi import Profile, RuledSurfaceData
from .errors import OutOfDomain, SearchFailed
from .numerics import solve_least_squares
from .tolerances import TOL

__all__ = [
    "PKappaSolution",
    "ClassLabel",
    "b_kappa",
    "solve_P",
    "futaki_residual",
    "kappa_zero",
    "classify",
    "interior_min",
    "SweepRow",
    "sweep",
    "write_sweep_csv",
    "SWEEP_CSV_HEADER",
]


def _surface(kappa: float, X: RuledSurfaceData | None) -> RuledSurfaceData:
    if X is None:
        return RuledSurfaceData.standard(kappa)
    # The kappa argument is authoritative for the polarization; X supplies
    # the base data (genus, degree, base_scal).
    return RuledSurfaceData(genus=X.genus, degree=X.degree, kappa=kappa, base_scal=X.base_scal)


@dataclass(frozen=True)
class PKappaSolution:
    """Least-squares solution of the boundary system at fixed (kappa, b)."""

    P: Polynomial
    c: float
    futaki_residual: float
    kappa: float
    b: float
    surface: RuledSurfaceData

    def profile(self) -> Profile:
        """Momentum profile Theta = P/(z+kappa) (polynomial kind)."""
        return Profile.from_numerator(self.P, self.kappa)


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


def _boundary_system(kappa: float, b: float, sC: float) -> tuple[np.ndarray, np.ndarray]:
    """Theta-form boundary rows, linear in x = (alpha, beta, c).

    P-form residuals r = (P(-1), P(1), P'(-1)-2(kappa-1), P'(1)+2(kappa+1))
    map to Theta-defects d = (Theta(-1), Theta(1), Theta'(-1)-2, Theta'(1)+2)
    by d1 = r1/km, d2 = r2/kp, d3 = r3/km - r1/km^2, d4 = r4/kp - r2/kp^2
    with km = kappa-1, kp = kappa+1.
    """
    tm, tp = b - 1.0, b + 1.0
    km, kp = kappa - 1.0, kappa + 1.0
    # P(z0) = (sC/2) t0^2 + alpha t0^3 + beta t0^4 + c (-t0/6 - (kappa-b)/12)
    # P'(z0) = sC t0 + alpha 3 t0^2 + beta 4 t0^3 + c (-1/6)
    A_p = np.array(
        [
            [tm**3, tm**4, -tm / 6.0 - (kappa - b) / 12.0],
            [tp**3, tp**4, -tp / 6.0 - (kappa - b) / 12.0],
            [3.0 * tm**2, 4.0 * tm**3, -1.0 / 6.0],
            [3.0 * tp**2, 4.0 * tp**3, -1.0 / 6.0],
        ]
    )
    y_p = np.array(
        [
            -sC / 2.0 * tm**2,
            -sC / 2.0 * tp**2,
            2.0 * km - sC * tm,
            -2.0 * kp - sC * tp,
        ]
    )
    T = np.array(
        [
            [1.0 / km, 0.0, 0.0, 0.0],
            [0.0, 1.0 / kp, 0.0, 0.0],
            [-1.0 / km**2, 0.0, 1.0 / km, 0.0],
            [0.0, -1.0 / kp**2, 0.0, 1.0 / kp],
        ]
    )
    return T @ A_p, T @ y_p


def solve_P(kappa: float, b: float, X: RuledSurfaceData | None = None) -> PKappaSolution:
    """Solve the 4x3 boundary system at (kappa, b) by least squares.

    b > 0 is accepted (the system is an algebraic continuation; the Futaki
    scan probes b slightly below 1); geometric admissibility of the resulting
    metric additionally needs b > 1 and a positive profile.
    """
    if not kappa > 1.0:
        raise OutOfDomain("solve_P requires kappa > 1")
    if not b > 0.0:
        raise OutOfDomain("solve_P requires b > 0")
    surf = _surface(kappa, X)
    sC = surf.base_scal
    A, y = _boundary_system(kappa, b, sC)
    # Column equilibration: for large kappa the (alpha, beta, c) columns span
    # many orders of magnitude. Rescaling columns leaves the column space --
    # hence the least-squares residual -- unchanged, but keeps the solve
    # well-conditioned for every kappa > 1.
    scale = np.linalg.norm(A, axis=0)
    x_s, _ = solve_least_squares(A / scale, y)
    x = x_s / scale
    alpha, beta, c = (float(v) for v in x)
    defect = float(np.linalg.norm(A @ x - y))
    # P is a quartic in t = z + b; compose to get its coefficients in z
    P = Polynomial([-c * (kappa - b) / 12.0, -c / 6.0, sC / 2.0, alpha, beta])(
        Polynomial([b, 1.0])
    )
    return PKappaSolution(P=P, c=c, futaki_residual=defect, kappa=kappa, b=b, surface=surf)


def futaki_residual(kappa: float, X: RuledSurfaceData | None = None) -> Callable[[float], float]:
    """The boundary-system defect as a function of b (a norm, hence >= 0)."""
    if not kappa > 1.0:
        raise OutOfDomain("futaki_residual requires kappa > 1")
    surf = _surface(kappa, X)

    def residual(b: float) -> float:
        return solve_P(kappa, b, surf).futaki_residual

    return residual


def interior_min(P: Polynomial) -> tuple[float, float]:
    """Minimum of P over its interior critical points in (-1, 1).

    Critical points are the real roots of P' in [-1+1e-9, 1-1e-9]; the
    endpoints (where P vanishes on the Futaki curve by construction) are
    excluded. Returns (min value, argmin); (+inf, nan) if no interior
    critical point exists.
    """
    roots = P.deriv().roots()
    crits = roots.real[(roots.imag == 0.0) & (np.abs(roots.real) <= 1.0 - 1e-9)]
    if crits.size == 0:
        return math.inf, math.nan
    pv = P(crits)
    i = int(np.argmin(pv))
    return float(pv[i]), float(crits[i])


def _m_of_kappa(kappa: float, X: RuledSurfaceData | None) -> tuple[float, float]:
    sol = solve_P(kappa, b_kappa(kappa), X)
    return interior_min(sol.P)


def kappa_zero(X: RuledSurfaceData | None = None) -> float:
    """Threshold kappa_0 = (1+b_0^2)/(2b_0), b_0 > 1 the root of the quartic
    q(b) = 6b^4 - 7b^2 + s_C b + 1; disc Q's other factor, c = 0, puts the
    double root at z = -b outside [-1, 1] (module docstring). b_0 is the top
    real part of q's roots (the rest are < 1 or complex with Re < 0), Newton-
    polished twice, then checked once: SearchFailed if |min P| exceeds
    TOL.kappa_zero_tol there.
    """
    sC = _surface(2.0, X).base_scal  # s_C alone fixes kappa_0; 2.0 is a placeholder kappa
    b0 = float(np.roots([6.0, 0.0, -7.0, sC, 1.0]).real.max())
    for _ in range(2):  # Newton on q, with q' = 24b^3 - 14b + s_C
        b0 -= (((6.0 * b0 * b0 - 7.0) * b0 + sC) * b0 + 1.0) / ((24.0 * b0 * b0 - 14.0) * b0 + sC)
    kappa0 = 0.5 * (b0 + 1.0 / b0)
    m, _ = _m_of_kappa(kappa0, X)
    if not abs(m) <= TOL.kappa_zero_tol:
        raise SearchFailed(f"|min P| = {abs(m):.3e} at kappa0 = {kappa0!r} exceeds {TOL.kappa_zero_tol:.3e}")
    return kappa0


def classify(kappa: float, X: RuledSurfaceData | None = None) -> ClassLabel:
    """Existence classification by the sign pattern of P_kappa on (-1, 1)."""
    return _label(_m_of_kappa(kappa, X)[0])


def _label(m: float) -> ClassLabel:
    """Label from the interior minimum m of P; the |m| <= tol band wins over
    the sign tests (double-root tie-break)."""
    if abs(m) <= TOL.classify_tol:
        return ClassLabel.DOUBLE_ROOT
    if m < 0.0:
        return ClassLabel.NEGATIVE_SOMEWHERE
    return ClassLabel.EXISTS_CKEM


SWEEP_CSV_HEADER = "kappa,b_kappa,c,futaki_residual,min_P,argmin_z,label"


@dataclass(frozen=True)
class SweepRow:
    kappa: float
    b_kappa: float
    c: float
    futaki_residual: float
    min_P: float
    argmin_z: float
    label: ClassLabel


def sweep(kappas: Iterable[float], X: RuledSurfaceData | None = None) -> list[SweepRow]:
    rows = []
    for kappa in kappas:
        bk = b_kappa(kappa)
        sol = solve_P(kappa, bk, X)
        m, zm = interior_min(sol.P)
        rows.append(
            SweepRow(
                kappa=float(kappa),
                b_kappa=bk,
                c=sol.c,
                futaki_residual=sol.futaki_residual,
                min_P=m,
                argmin_z=zm,
                label=_label(m),
            )
        )
    return rows


def write_sweep_csv(rows: Sequence[SweepRow], stream: io.TextIOBase) -> None:
    """Deterministic CSV: repr() floats round-trip and are bit-stable."""
    writer = csv.writer(stream, lineterminator="\n")
    writer.writerow(SWEEP_CSV_HEADER.split(","))
    for r in rows:
        writer.writerow(
            [
                repr(r.kappa),
                repr(r.b_kappa),
                repr(r.c),
                repr(r.futaki_residual),
                repr(r.min_P),
                repr(r.argmin_z),
                str(r.label),
            ]
        )
