"""Momentum profiles on the ruled surface and their weighted curvature.

A Calabi-ansatz metric on the projectivization of O + L over a genus >= 2
curve is encoded by a momentum profile Theta(z) on [-1, 1] with

    Theta(+-1) = 0,   Theta'(-1) = 2,   Theta'(1) = -2,   Theta > 0 inside.

All geometric quantities reduce to one-dimensional expressions in z:

    Scal(z)      = (s_C - ((z+kappa) Theta)'') / (z+kappa)
    Delta_g z    = -Theta'(z) - Theta(z)/(z+kappa)
    |xi|^2_g     = Theta(z)
    vol          ~ (z+kappa) dz          (angular/base factors cancel in ratios)

with s_C = 4(1-genus)/degree the base curvature constant. The weighted scalar
curvature for Killing potential f = z+b and exponent p is

    Scal_{(xi,b,p)} = f^2 Scal - 2(p-1) f Delta_g f - p(p-1) Theta.

Its average c against f^{-(p+1)} (z+kappa) dz is fixed by the class and the
weight: the integrand is s_C f^{1-p} plus an exact derivative, so
`weighted_average_c` is a closed form in power integrals of f.

A profile is stored as Theta = (1-z^2) N(z)/(z+kappa), N by its Chebyshev
coefficients. On the Futaki curve the solver's numerator is P = (1-z^2) N
exactly, N a quadratic (`ckem.PKappaSolution.profile`); a sampled profile
interpolates the bounded ratio G = Theta/(1-z^2) at Chebyshev nodes and
takes N = (z+kappa) G (G(+-1) = 1 encodes the boundary conditions). The
symplectic potential reads D = (1-z^2) u'' = (z+kappa)/N off the same
coefficients (`to_symplectic`), and `check_boundary` reads N(+-1) off them.
"""

from __future__ import annotations

import math
from typing import Callable, NamedTuple

import numpy as np
from numpy.polynomial import chebyshev as cheb
from numpy.polynomial.polynomial import polyval

from .errors import NonFiniteCurvature, OutOfDomain
from .numerics import chebyshev_coefficients, power_integral

__all__ = [
    "RuledSurfaceData",
    "KillingData",
    "Profile",
    "BoundaryReport",
    "check_boundary",
    "ansatz_scalar_curvature",
    "scal_p_on",
    "weighted_scalar_curvature",
    "weighted_average_c",
    "to_symplectic",
    "random_admissible_profile",
]


def _class_kappa(kappa: float) -> float:
    """kappa, if it names a Kähler class of the ruled surface: finite and > 1."""
    if not (math.isfinite(kappa) and kappa > 1.0):
        raise OutOfDomain(f"kappa must be > 1 and finite (got {kappa!r})")
    return kappa


class _RuledSurfaceData(NamedTuple):
    genus: int
    degree: int
    kappa: float
    base_scal: float


class RuledSurfaceData(_RuledSurfaceData):
    """Base data: genus >= 2 curve, line-bundle degree, s_C. No solver reads kappa (each takes
    the class as an argument); it stays while perfbench calls `standard(1.5, genus=..., degree=...)`."""

    __slots__ = ()
    def __new__(cls, genus: int, degree: int, kappa: float, base_scal: float) -> RuledSurfaceData:
        if genus < 2:
            raise OutOfDomain("genus must be >= 2")
        if degree < 1:
            raise OutOfDomain("degree must be >= 1")
        if not base_scal < 0.0:
            raise OutOfDomain("base_scal must be negative")
        return super().__new__(cls, genus, degree, _class_kappa(kappa), base_scal)

    @staticmethod
    def standard(kappa: float, genus: int = 2, degree: int = 1) -> "RuledSurfaceData":
        """Normalized base curvature s_C = 4(1-genus)/degree. At degree 0 no
        s_C is formed, and the record's degree rule names the fault; a genus
        or degree past the float range is OutOfDomain."""
        try:
            base_scal = 4.0 * (1 - genus) / degree if degree else math.nan
        except OverflowError as exc:
            raise OutOfDomain("genus and degree must be within the float range to form s_C = 4(1-genus)/degree") from exc
        return RuledSurfaceData(genus=genus, degree=degree, kappa=kappa, base_scal=base_scal)


class _KillingData(NamedTuple):
    b: float
    p: float = 4.0


class KillingData(_KillingData):
    """Killing potential f(z) = z + b (b > 1 keeps f > 0 on [-1,1]) and weight p."""

    __slots__ = ()
    def __new__(cls, b: float, p: float = 4.0) -> KillingData:
        if not b > 1.0:
            raise OutOfDomain("b must be > 1 so that f = z+b is positive on [-1,1]")
        if not np.isfinite(p):
            raise OutOfDomain("p must be finite")
        return super().__new__(cls, b, p)


class Profile:
    """Momentum profile Theta(z) = (1-z^2) N(z) / (z+kappa) on [-1, 1].

    (z+kappa) Theta = (1-z^2) N is the numerator whose second derivative
    enters the scalar curvature. The (1-z^2) factor stays explicit so that
    Theta keeps its relative accuracy next to the endpoints. `coef` is the
    read-only (n, 3) matrix of the Chebyshev coefficients of N, N', N''.
    """

    def __init__(self, kappa: float, N):
        self.kappa = float(_class_kappa(kappa))
        c = np.append(np.asarray(N, dtype=float), (0.0, 0.0))  # two zeros: every column has len(N) rows
        self.coef = np.stack([cheb.chebder(c, m)[: len(c) - 2] for m in range(3)], axis=1)
        self.coef.flags.writeable = False

    @staticmethod
    def from_callable(theta_fn: Callable, kappa: float) -> "Profile":
        """Interpolate G = Theta/(1-z^2) through 96 interior Chebyshev nodes, the
        series chopped at its rounding plateau; N = (z+kappa) G once kappa passes its gate."""
        z = cheb.chebpts1(96)
        g = np.asarray(theta_fn(z), dtype=float) / (1.0 - z * z)
        return Profile(kappa, cheb.chebmul(chebyshev_coefficients(g), [_class_kappa(kappa), 1.0]))

    def jet(self, z) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Theta, Theta' and ((z+kappa) Theta)'' at z, in one pass."""
        z = np.asarray(z, dtype=float)
        N, dN, d2N = cheb.chebval(z, self.coef)
        w = 1.0 - z * z
        A, dA = w * N, w * dN - 2.0 * z * N
        t = z + self.kappa
        return A / t, (dA * t - A) / t**2, w * d2N - 4.0 * z * dN - 2.0 * N


class BoundaryReport(NamedTuple):
    passes: bool
    defects: tuple[float, float, float, float]


def check_boundary(profile: Profile) -> BoundaryReport:
    """Defects (Theta(-1), Theta(1), Theta'(-1)-2, Theta'(1)+2) in closed form:
    Theta(+-1) = 0, Theta'(+-1) = -+2 N(+-1)/(kappa+-1), N(+-1) = sum c_n (+-1)^n."""
    c, kappa = profile.coef[:, 0], profile.kappa
    n_lo, n_hi = float(c[::2].sum() - c[1::2].sum()), float(c.sum())
    d = (0.0, 0.0, 2.0 * n_lo / (kappa - 1.0) - 2.0, 2.0 - 2.0 * n_hi / (kappa + 1.0))
    return BoundaryReport(passes=bool(max(abs(x) for x in d) < 1e-9), defects=d)


def _scal(z, d2num, X: RuledSurfaceData, kappa: float) -> np.ndarray:
    out = (X.base_scal - d2num) / (z + kappa)
    if not np.isfinite(out).all():
        raise NonFiniteCurvature("scalar curvature is not finite on the grid")
    return out


def ansatz_scalar_curvature(profile: Profile, X: RuledSurfaceData, z):
    """Scal(z) = (s_C - ((z+kappa) Theta)'') / (z+kappa); a float at a scalar z."""
    z = np.asarray(z, dtype=float)
    out = _scal(z, profile.jet(z)[2], X, profile.kappa)
    return out if out.ndim else float(out)


def scal_p_on(z, jet, X: RuledSurfaceData, k: KillingData, kappa: float) -> np.ndarray:
    """Scal_{(xi,b,p)} = f^2 Scal - 2(p-1) f Delta_g f - p(p-1) |xi|^2 at z, from the
    samples jet = (Theta, Theta', ((z+kappa) Theta)'') there, or stacks of them over z;
    f = z+b, Delta_g f = Delta_g z = -Theta' - Theta/(z+kappa) and |xi|^2 = Theta."""
    theta, dtheta, d2num = jet
    f = z + k.b
    lap = -dtheta - theta / (z + kappa)
    return f * f * _scal(z, d2num, X, kappa) - 2.0 * (k.p - 1.0) * f * lap - k.p * (k.p - 1.0) * theta


def weighted_scalar_curvature(profile: Profile, X: RuledSurfaceData, k: KillingData, z):
    """Scal_{(xi,b,p)}(z) of the profile (see scal_p_on); a float at a scalar z."""
    z = np.asarray(z, dtype=float)
    out = scal_p_on(z, profile.jet(z), X, k, profile.kappa)
    return out if out.ndim else float(out)


def weighted_average_c(X: RuledSurfaceData, k: KillingData, kappa: float) -> float:
    """c = ∫ Scal_p f^{-(p+1)} (z+kappa) dz / ∫ f^{-(p+1)} (z+kappa) dz over
    [-1, 1] in the class kappa, in closed form.

    With A = (z+kappa) Theta the numerator's integrand is
    s_C f^{1-p} + d/dz[-f^{1-p} A' + (p-1) f^{-p} A], and A(+-1) = 0,
    A'(+-1) = -+2 (kappa +- 1), so c depends on the class and the weight
    only, not on the profile:

        c = [s_C ∫f^{1-p} + 2(kappa+1)(b+1)^{1-p} + 2(kappa-1)(b-1)^{1-p}]
            / [∫f^{-p} + (kappa-b) ∫f^{-(p+1)}].
    """
    b, p = k.b, k.p
    lo, hi = b - 1.0, b + 1.0
    try:
        ends = 2.0 * (kappa + 1.0) * hi ** (1.0 - p) + 2.0 * (kappa - 1.0) * lo ** (1.0 - p)
        num = X.base_scal * power_integral(lo, hi, 1.0 - p) + ends
        return num / (power_integral(lo, hi, -p) + (kappa - b) * power_integral(lo, hi, -(p + 1.0)))
    except OverflowError as exc:
        raise OutOfDomain(f"a power of f overflows a float at (b, p) = ({b!r}, {p!r})") from exc


def to_symplectic(profile: Profile):
    """Fibre-wise symplectic potential: u''(z) = 1/Theta(z), held as
    D = (1-z^2) u'' = (z+kappa)/N, read off column 0 of the profile's matrix.

    Raises NotAdmissible if N (so Theta) is not strictly positive on the
    potential's check grid (`SymplecticPotential`).
    """
    from .mabuchi import SymplecticPotential  # local import avoids a cycle

    c, kappa = profile.coef[:, 0], profile.kappa
    return SymplecticPotential(lambda z: (np.asarray(z, dtype=float) + kappa) / cheb.chebval(z, c), kappa)


def random_admissible_profile(
    rng: np.random.Generator,
    kappa: float,
    degree: int = 4,
    scale: float = 0.4,
) -> Profile:
    """Random admissible profile Theta = (1-z^2) exp((1-z^2) g(z)).

    The (1-z^2) factors enforce the boundary conditions exactly; positivity
    is automatic. Used by the property tests.
    """
    coefs = rng.normal(size=degree + 1) * scale / (1.0 + np.arange(degree + 1))

    def theta_fn(z):
        return (1.0 - z * z) * np.exp((1.0 - z * z) * polyval(z, coefs))

    return Profile.from_callable(theta_fn, kappa)
