"""Weighted Mabuchi energies on the ruled surface, in reduced coordinates.

Everything is phrased through the fibre-wise symplectic potential u with
u''(z) = 1/Theta(z): the closed-form energy

    M(u) = int P_k(z) (z+b)^{-3} (u'' - u_ref'') dz
         - int (z+kappa) (z+b)^{-3} log(u''/u_ref'') dz,

its gradient, the divergence probe along u_k'' = u_ref'' + k * bump, and the
path integral of the 1-form

    (dM)(u_dot) = int u_dot (Scal_{(xi,b,4)} - c) (z+b)^{-(p+1)} (z+kappa) dz.

Conventions fixed here (and validated by the closedness/proportionality
tests): the reduced volume element is (z+kappa) dz, the reference potential
is u_ref''(z) = 1/(1-z^2) (the profile Theta_0 = 1-z^2), M(u_ref) = 0, and
directions act additively on u'' (a direction v is specified by v'', which is
all the energy ever sees).

Numerically, u'' blows up like 1/(1-z^2) at the endpoints, so potentials are
stored through the bounded ratio D(z) = (1-z^2) u''(z) (D(+-1) = 1 for
admissible u); energy integrands are written in terms of D - 1 and log D,
which are bounded. Along a path, u_dot generically picks up
(1 -+ z) log(1 -+ z) endpoint terms; the path integrand is bounded but has
endpoint derivative blow-up, integrated on a geometrically graded mesh.
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

import numpy as np
from numpy.polynomial import chebyshev as cheb

from .calabi import KillingData, Profile, weighted_average_c, weighted_scalar_curvature
from .ckem import PKappaSolution, interior_min
from .errors import BadDirection, NotAdmissible, OutOfDomain
from .numerics import chebyshev_coefficients, gauss_legendre, graded_rule
from .tolerances import TOL

__all__ = [
    "SymplecticPotential",
    "BumpDirection",
    "mabuchi_energy_amt",
    "mabuchi_gradient_amt",
    "unboundedness_probe",
    "scale_bump_for_slope",
    "probe_bump",
    "probe_slope",
    "mabuchi_path_integral",
    "PathFamily",
    "straight_theta_path",
    "straight_potential_path",
    "fit_probe_slope",
    "write_probe_csv",
    "probe_summary",
]


class SymplecticPotential:
    """Potential u on (-1,1) represented by D(z) = (1-z^2) u''(z).

    D is held as an exact callable: grid data enters only through
    `calabi.to_symplectic` (Chebyshev interpolation of sampled 1/Theta),
    while perturbed and closed-form potentials keep closures, so rough
    directions (mollifier bumps) never suffer fit ringing. Admissibility:
    u'' > 0 on the check grid and D(+-1) = 1 within TOL.u2_boundary (the
    boundary behavior forced by an admissible profile).
    """

    def __init__(self, dfun: Callable, kappa: float):
        if not kappa > 1.0:
            raise OutOfDomain("kappa must be > 1")
        self.kappa = float(kappa)
        self._dfun = dfun
        z = cheb.chebpts1(160)
        if np.any(self.D(z) <= 0.0):
            raise NotAdmissible("u'' must be positive on the interior grid")
        for zb in (-1.0, 1.0):
            dv = float(self.D(zb))
            if abs(dv - 1.0) > TOL.u2_boundary:
                raise NotAdmissible(
                    "(1-z^2) u'' must approach 1 at the endpoints "
                    f"(got {dv!r} at z={zb:+.0f})"
                )

    # -- constructors -------------------------------------------------------

    @staticmethod
    def reference(kappa: float) -> "SymplecticPotential":
        """u_ref'' = 1/(1-z^2), i.e. D = 1 (the profile Theta_0 = 1-z^2)."""
        return SymplecticPotential(lambda z: np.ones_like(np.asarray(z, dtype=float)), kappa)

    @staticmethod
    def euler_lagrange(sol: PKappaSolution) -> "SymplecticPotential":
        """The critical potential u*'' = (z+kappa)/P_kappa (needs P > 0 inside).

        D* = (1-z^2)(z+kappa)/P is 0/0 at the endpoints (P(+-1) = 0 on the
        Futaki curve); the limit is taken with the derivative ratio there.
        """
        zc = cheb.chebpts1(160)
        if np.any(sol.P(zc) <= 0.0):
            raise NotAdmissible("P_kappa must be positive on (-1,1)")
        kappa = sol.kappa
        P, dP = sol.P, sol.P.deriv()

        def dfun(z):
            z = np.asarray(z, dtype=float)
            at_edge = np.abs(z) == 1.0
            zin = np.where(at_edge, 0.0, z)
            inner = (1.0 - zin * zin) * (zin + kappa) / P(zin)
            edge = (-2.0 * z * (z + kappa) + (1.0 - z * z)) / dP(z)
            out = np.where(at_edge, edge, inner)
            return out if out.ndim else float(out)

        return SymplecticPotential(dfun, kappa)

    def perturbed(self, v2: Callable, eps: float) -> "SymplecticPotential":
        """The potential with u'' + eps * v'' (v'' compactly supported)."""

        def dfun(z, base=self._dfun):
            z = np.asarray(z, dtype=float)
            return base(z) + eps * (1.0 - z * z) * np.asarray(v2(z), dtype=float)

        return SymplecticPotential(dfun, self.kappa)

    # -- evaluation ---------------------------------------------------------

    def D(self, z):
        return np.asarray(self._dfun(np.asarray(z, dtype=float)), dtype=float)

    def u2(self, z):
        z = np.asarray(z, dtype=float)
        return self.D(z) / (1.0 - z * z)

    def theta(self, z):
        z = np.asarray(z, dtype=float)
        return (1.0 - z * z) / self.D(z)

    def profile(self) -> Profile:
        return Profile.from_callable(self.theta, self.kappa)


@dataclass(frozen=True)
class BumpDirection:
    """Mollifier direction amplitude * exp(-1/(1 - ((z-center)/radius)^2)),
    zero outside |z - center| < radius. Acts on u'' (it is a v'')."""

    center: float
    radius: float
    amplitude: float = 1.0

    def __post_init__(self) -> None:
        if not self.radius > 0.0:
            raise OutOfDomain("radius must be positive")
        if abs(self.center) + self.radius >= 1.0:
            raise OutOfDomain("support must be strictly inside (-1, 1)")

    def __call__(self, z):
        z = np.asarray(z, dtype=float)
        s = (z - self.center) / self.radius
        inside = np.abs(s) < 1.0
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            vals = np.where(inside, np.exp(-1.0 / np.where(inside, 1.0 - s * s, 1.0)), 0.0)
        out = self.amplitude * vals
        return out if out.ndim else float(out)


def _energy_rule():
    return gauss_legendre(TOL.quad_order_mabuchi)


def mabuchi_energy_amt(u: SymplecticPotential, sol: PKappaSolution) -> float:
    """Closed-form energy; M(reference) = 0. `sol` should sit on the Futaki
    curve (b = b_kappa) for the energy to be the potential of the 1-form."""
    rule = _energy_rule()
    z = rule.nodes
    D = u.D(z)
    if np.any(D <= 0.0):
        raise NotAdmissible("u'' must be positive")
    f3 = (z + sol.b) ** (-3.0)
    # u'' - u_ref'' = (D - 1)/(1-z^2); P/(1-z^2) is bounded since P(+-1)=0.
    first = float(np.dot(rule.weights, sol.P(z) * f3 * (D - 1.0) / (1.0 - z * z)))
    second = float(np.dot(rule.weights, (z + sol.kappa) * f3 * np.log(D)))
    return first - second


def mabuchi_gradient_amt(
    u: SymplecticPotential, sol: PKappaSolution, v2: Callable
) -> float:
    """Directional derivative of the energy in the direction v given by v''.

    d/de M(u'' + e v'') = int P f^{-3} v'' - int (z+kappa) f^{-3} v''/u''.
    Uses the same quadrature rule as the energy so finite differences of
    mabuchi_energy_amt converge to it exactly.
    """
    rule = _energy_rule()
    z = rule.nodes
    D = u.D(z)
    if np.any(D <= 0.0):
        raise NotAdmissible("u'' must be positive")
    v2v = np.asarray(v2(z), dtype=float)
    f3 = (z + sol.b) ** (-3.0)
    integrand = sol.P(z) * f3 * v2v - (z + sol.kappa) * f3 * v2v * (1.0 - z * z) / D
    return float(np.dot(rule.weights, integrand))


def probe_slope(sol: PKappaSolution, bump: BumpDirection) -> float:
    """Leading (affine-in-k) slope of the probe: int P f^{-3} bump dz."""
    rule = gauss_legendre(TOL.quad_order_quant)  # narrow bumps want extra nodes
    z = rule.nodes
    return float(np.dot(rule.weights, sol.P(z) * (z + sol.b) ** (-3.0) * bump(z)))


def scale_bump_for_slope(
    sol: PKappaSolution, bump: BumpDirection, target: float = -2.0
) -> BumpDirection:
    """Rescale the amplitude so the leading probe slope equals `target` < 0."""
    if not target < 0.0:
        raise OutOfDomain("target slope must be negative")
    unit = BumpDirection(bump.center, bump.radius, 1.0)
    s = probe_slope(sol, unit)
    if not s < 0.0:
        raise BadDirection("bump does not see the negativity region of P")
    return BumpDirection(bump.center, bump.radius, target / s)


def probe_bump(sol: PKappaSolution) -> BumpDirection:
    """The probe direction: a bump at the argmin of P of radius 0.08, cut to
    half the distance from there to the nearest real root of P (near kappa0
    the region P < 0 is narrower), scaled to leading slope -2."""
    _, zm = interior_min(sol.P)
    gap = min(abs(r.real - zm) for r in sol.P.roots() if abs(r.imag) < 1e-9)
    return scale_bump_for_slope(sol, BumpDirection(zm, min(0.08, 0.5 * gap)), target=-2.0)


def unboundedness_probe(
    sol: PKappaSolution, bump: BumpDirection, k_list: Iterable[float]
) -> list[float]:
    """Energies M(u_k), u_k'' = u_ref'' + k * bump.

    Requires P_kappa < 0 on the closed support of the bump (the divergence
    mechanism needs the first integral's slope to be negative); BadDirection
    otherwise. k = 0 gives M(reference) = 0.
    """
    zs = np.linspace(bump.center - bump.radius, bump.center + bump.radius, 257)
    if np.max(sol.P(zs)) >= 0.0:
        raise BadDirection("bump support must lie inside the region where P < 0")
    rule = _energy_rule()
    z = rule.nodes
    f3 = (z + sol.b) ** (-3.0)
    bz = bump(z)
    # With D_k = 1 + k (1-z^2) bump: M(u_k) = k int P f^{-3} bump
    #                                  - int (z+kappa) f^{-3} log D_k.
    lead = np.dot(rule.weights, sol.P(z) * f3 * bz)
    out = []
    for k in k_list:
        if k < 0.0:
            raise OutOfDomain("probe parameter k must be >= 0")
        logd = np.log1p(k * (1.0 - z * z) * bz)
        out.append(float(k * lead - np.dot(rule.weights, (z + sol.kappa) * f3 * logd)))
    return out


def fit_probe_slope(k_list: Sequence[float], energies: Sequence[float]) -> float:
    """Fit E(k) ~ a + s k + g log k on the tail (k >= the median) and
    return s, the affine slope."""
    k = np.asarray(k_list, dtype=float)
    E = np.asarray(energies, dtype=float)
    mask = k >= np.median(k[k > 0])
    k, E = k[mask], E[mask]
    A = np.stack([np.ones_like(k), k, np.log(k)], axis=1)
    coef, *_ = np.linalg.lstsq(A, E, rcond=None)
    return float(coef[1])


# -- path integral ----------------------------------------------------------


@dataclass(frozen=True)
class PathFamily:
    """A path t in [0,1] -> Profile, with the exact t-derivative of Theta."""

    at: Callable[[float], Profile]
    theta_dot: Callable[[float, np.ndarray], np.ndarray]


def straight_theta_path(p0: Profile, p1: Profile) -> PathFamily:
    """Theta_t = (1-t) Theta_0 + t Theta_1 (kappa must agree)."""
    if p0.kappa != p1.kappa:
        raise OutOfDomain("profiles must share kappa")

    def at(t: float) -> Profile:
        return Profile.from_callable(
            lambda z: (1.0 - t) * p0.theta(z) + t * p1.theta(z), p0.kappa
        )

    def theta_dot(t: float, z: np.ndarray) -> np.ndarray:
        return p1.theta(z) - p0.theta(z)

    return PathFamily(at=at, theta_dot=theta_dot)


def straight_potential_path(
    u0: SymplecticPotential, u1: SymplecticPotential
) -> PathFamily:
    """u_t'' = (1-t) u_0'' + t u_1'' — i.e. D_t = (1-t) D_0 + t D_1."""
    if u0.kappa != u1.kappa:
        raise OutOfDomain("potentials must share kappa")

    def dt_vals(t: float, z: np.ndarray) -> np.ndarray:
        return (1.0 - t) * u0.D(z) + t * u1.D(z)

    def at(t: float) -> Profile:
        return Profile.from_callable(
            lambda z: (1.0 - z * z) / dt_vals(t, z), u0.kappa
        )

    def theta_dot(t: float, z: np.ndarray) -> np.ndarray:
        # Theta = (1-z^2)/D_t  =>  dTheta/dt = -(1-z^2) (D_1 - D_0)/D_t^2
        return -(1.0 - z * z) * (u1.D(z) - u0.D(z)) / dt_vals(t, z) ** 2

    return PathFamily(at=at, theta_dot=theta_dot)


def _udot_on(zq: np.ndarray, prof: Profile, theta_dot_vals_at) -> np.ndarray:
    """u_dot on the quadrature nodes zq, from Theta_dot via u'' = 1/Theta.

    u_dot'' = -Theta_dot/Theta^2 = W(z)/(1-z^2) with W bounded; split off the
    endpoint values of W (each contributing an exact (1-+z) log(1-+z) term)
    and double-integrate the smooth remainder as a Chebyshev series. The
    affine gauge (fixed by u_dot(0) = u_dot'(0) = 0) is immaterial: the
    1-form kills affine directions on the Futaki curve.
    """
    zc = cheb.chebpts1(192)
    th = prof.theta(zc)
    w = -theta_dot_vals_at(zc) * (1.0 - zc * zc) / th**2
    wc = chebyshev_coefficients(w, 170)
    w_m = float(cheb.chebval(-1.0, wc))
    w_p = float(cheb.chebval(1.0, wc))
    # linear part carrying the endpoint values
    ell = 0.5 * w_m * (1.0 - zc) + 0.5 * w_p * (1.0 + zc)
    r = (w - ell) / (1.0 - zc * zc)
    rc = chebyshev_coefficients(r, 170)
    s2 = cheb.chebint(cheb.chebint(rc))
    s0 = cheb.chebval(0.0, s2)
    s1 = cheb.chebval(0.0, cheb.chebder(s2))
    smooth = cheb.chebval(zq, s2) - s0 - s1 * zq
    # A/(1+z): double integral (anchored at 0) = (1+z)log(1+z) - z
    # B/(1-z): double integral (anchored at 0) = (1-z)log(1-z) + z
    A = 0.5 * w_m
    B = 0.5 * w_p
    with np.errstate(divide="ignore", invalid="ignore"):
        gp = np.where(zq > -1.0, (1.0 + zq) * np.log1p(zq), 0.0) - zq
        gm = np.where(zq < 1.0, (1.0 - zq) * np.log1p(-zq), 0.0) + zq
    return smooth + A * gp + B * gm


def mabuchi_path_integral(
    family: PathFamily,
    k: KillingData,
    sol: PKappaSolution,
) -> float:
    """Integrate the 1-form int u_dot (Scal_p - c) f^{-(p+1)} (z+kappa) dz
    along the path. c is frozen from the class average at the path start.
    """
    X = sol.surface
    kappa = sol.kappa
    prof0 = family.at(0.0)
    c = weighted_average_c(prof0, X, k, order=TOL.quad_order_mabuchi)
    zrule = graded_rule()
    zq = zrule.nodes
    trule = gauss_legendre(TOL.quad_order_path, 0.0, 1.0)

    total = 0.0
    for t, wt in zip(trule.nodes, trule.weights):
        prof = family.at(float(t))
        tdot = lambda z, _t=float(t): np.asarray(family.theta_dot(_t, z), dtype=float)
        th = prof.theta(zq)
        if np.any(th <= 0.0):
            raise NotAdmissible("intermediate profile is not positive")
        udot = _udot_on(zq, prof, tdot)
        scal_p = weighted_scalar_curvature(prof, X, k)(zq)
        wgt = (scal_p - c) * (zq + k.b) ** (-(k.p + 1.0)) * (zq + kappa)
        total += wt * float(np.dot(zrule.weights, udot * wgt))
    return total


# -- emission ---------------------------------------------------------------


def write_probe_csv(
    k_list: Sequence[float],
    energies: Sequence[float],
    slope_fit: float,
    stream: io.TextIOBase,
) -> None:
    writer = csv.writer(stream, lineterminator="\n")
    writer.writerow(["k", "energy", "slope_fit"])
    for k, E in zip(k_list, energies):
        writer.writerow([repr(float(k)), repr(float(E)), repr(float(slope_fit))])


def probe_summary(
    kappa: float, label: str, energies: Sequence[float], slope: float
) -> str:
    rec = {
        "kappa": float(kappa),
        "label": str(label),
        "diverges": bool(energies[-1] < energies[0] - 100.0),
        "slope": float(slope),
    }
    return json.dumps(rec, sort_keys=True)
