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
from .errors import OutOfDomain, RankDeficient, SearchFailed
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


def _boundary_system(kappa: np.ndarray, b: np.ndarray, sC: float) -> tuple[np.ndarray, np.ndarray]:
    """Theta-form boundary rows (n, 4, 3), linear in x = (alpha, beta, c), and
    right-hand sides (n, 4), for stacks of (kappa, b).

    P-form residuals r = (P(-1), P(1), P'(-1)-2(kappa-1), P'(1)+2(kappa+1))
    map to Theta-defects d = (Theta(-1), Theta(1), Theta'(-1)-2, Theta'(1)+2)
    by d1 = r1/km, d2 = r2/kp, d3 = (r3 - d1)/km, d4 = (r4 - d2)/kp
    with km = kappa-1, kp = kappa+1.
    """
    t = np.stack([b - 1.0, b + 1.0], axis=1)  # t = z + b at z = -1, 1
    k = np.stack([kappa - 1.0, kappa + 1.0], axis=1)
    # P(z0) = (sC/2) t0^2 + alpha t0^3 + beta t0^4 + c (-t0/6 - (kappa-b)/12)
    # P'(z0) = sC t0 + alpha 3 t0^2 + beta 4 t0^3 + c (-1/6)
    val = np.stack([t * t * t, t * t * t * t, -t / 6.0 - (kappa - b)[:, None] / 12.0], axis=2) / k[..., None]
    der = np.stack([3.0 * t * t, 4.0 * t * t * t, np.full_like(t, -1.0 / 6.0)], axis=2)
    y_val = -sC / 2.0 * t * t / k
    y_der = 2.0 * k * np.array([1.0, -1.0]) - sC * t
    A = np.concatenate([val, (der - val) / k[..., None]], axis=1)
    return A, np.concatenate([y_val, (y_der - y_val) / k], axis=1)


def _solve_stack(kappa: np.ndarray, b: np.ndarray, sC: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The boundary solve for stacks of (kappa, b): P's coefficients in z,
    ascending (n, 5), c (n,) and the Futaki defect ||Ax - y|| (n,). Raises
    OutOfDomain where kappa is not finite and > 1, b is not > 0 or a boundary
    row is not finite, and RankDeficient from the solve; both name the slices.
    """
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        A, y = _boundary_system(kappa, b, sC)
        ok = np.isfinite(kappa) & (kappa > 1.0) & (b > 0.0) & np.isfinite(A).all(axis=(1, 2)) & np.isfinite(y).all(axis=1)
        # Column equilibration: for large kappa the (alpha, beta, c) columns span
        # many orders of magnitude. Rescaling columns leaves the column space --
        # hence the least-squares residual -- unchanged, but keeps the solve
        # well-conditioned for every kappa > 1.
        scale = np.sqrt(np.sum(A * A, axis=1))
    if not ok.all():
        raise OutOfDomain("kappa must be finite and > 1, b > 0, with finite boundary rows", slices=np.flatnonzero(~ok))
    x = solve_least_squares(A / scale[:, None, :], y)[0] / scale
    res = np.sum(A * x[:, None, :], axis=2) - y
    alpha, beta, c = x.T
    # P is a quartic in t = z + b; a Taylor shift by b (Horner) gives it in z
    coef = np.stack([-c * (kappa - b) / 12.0, -c / 6.0, np.full_like(c, sC / 2.0), alpha, beta], axis=1)
    for i in range(4):
        for j in range(3, i - 1, -1):
            coef[:, j] += b * coef[:, j + 1]
    return coef, c, np.sqrt(np.sum(res * res, axis=1))


def solve_P(kappa: float, b: float, X: RuledSurfaceData | None = None) -> PKappaSolution:
    """Solve the 4x3 boundary system at (kappa, b) by least squares.

    b > 0 is accepted (the system is an algebraic continuation; the Futaki
    scan probes b slightly below 1); geometric admissibility of the resulting
    metric additionally needs b > 1 and a positive profile.
    """
    surf = _surface(kappa, X)
    coef, c, defect = _solve_stack(np.array([kappa], dtype=float), np.array([b], dtype=float), surf.base_scal)
    return PKappaSolution(P=Polynomial(coef[0]), c=float(c[0]), futaki_residual=float(defect[0]), kappa=kappa, b=b, surface=surf)


def futaki_residual(kappa: float, X: RuledSurfaceData | None = None) -> Callable[[float], float]:
    """The boundary-system defect as a function of b (a norm, hence >= 0)."""
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
    coef = np.trim_zeros(P.convert().coef if P.mapparms() != (0.0, 1.0) else P.coef, "b")
    if coef.size < 3:  # P' constant
        return math.inf, math.nan
    m, zm = _interior_min(coef[None, :])
    return float(m[0]), float(zm[0])


def _interior_min(coef: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """interior_min for the rows of coef (n, deg+1), ascending, deg >= 2 and
    the last column nonzero (the quartic's beta < 0 on kappa in (1, 1e6]): the
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
    for j in range(d - 1, -1, -1):
        pv = coef[:, j : j + 1] + pv * z
    i = np.argmin(np.where(crit, pv, np.inf), axis=1)[:, None]
    found = crit.any(axis=1)
    return (
        np.where(found, np.take_along_axis(pv, i, axis=1)[:, 0], math.inf),
        np.where(found, np.take_along_axis(z, i, axis=1)[:, 0], math.nan),
    )


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


def sweep(kappas: Iterable[float], X: RuledSurfaceData | None = None, errors: list | None = None) -> list[SweepRow]:
    """One row per kappa, at b = b_kappa(kappa), from one stacked solve.

    A kappa the solve rejects raises its error; given a list `errors`, it is
    left out of the rows instead and appended there as (kappa, error name),
    in the order of kappas."""
    sC = _surface(2.0, X).base_scal  # 2.0 is a placeholder kappa, as in kappa_zero
    k = np.fromiter(kappas, dtype=float)
    with np.errstate(over="ignore", invalid="ignore"):
        b = k + np.sqrt(k * k - 1.0)
    keep = np.ones(k.size, dtype=bool)
    failed = []
    while True:  # each failed pass drops the kappas its error names
        try:
            coef, c, defect = _solve_stack(k[keep], b[keep], sC)
            break
        except (OutOfDomain, RankDeficient) as exc:
            if errors is None or not exc.slices:
                raise
            idx = np.flatnonzero(keep)[list(exc.slices)]
            failed += [(int(i), type(exc).__name__) for i in idx]
            keep[idx] = False
    if errors is not None:
        errors.extend((float(k[i]), name) for i, name in sorted(failed))
    m, zm = _interior_min(coef)
    cols = (k[keep], b[keep], c, defect, m, zm)
    return [SweepRow(*row, label=_label(row[4])) for row in zip(*(col.tolist() for col in cols))]


def write_sweep_csv(rows: Sequence[SweepRow], stream: io.TextIOBase) -> None:
    """Deterministic CSV: repr() floats round-trip and are bit-stable."""
    writer = csv.writer(stream, lineterminator="\n")
    writer.writerow(SWEEP_CSV_HEADER.split(","))
    for r in rows:
        floats = (r.kappa, r.b_kappa, r.c, r.futaki_residual, r.min_P, r.argmin_z)
        writer.writerow([*map(repr, floats), str(r.label)])
