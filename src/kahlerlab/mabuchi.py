"""Weighted Mabuchi energies on the ruled surface, in reduced coordinates.

Everything is phrased through the fibre-wise symplectic potential u with
u''(z) = 1/Theta(z): the closed-form energy

    M(u) = int P_k(z) (z+b)^{-3} (u'' - u_ref'') dz
         - int (z+kappa) (z+b)^{-3} log(u''/u_ref'') dz,

its gradient, the divergence probe along u_k'' = u_ref'' + k * bump (every k
on one sample of the bump's support), and the path integral of the 1-form

    (dM)(u_dot) = int u_dot (Scal_{(xi,b,4)} - c) (z+b)^{-(p+1)} (z+kappa) dz,

with c the class constant in closed form (`calabi.weighted_average_c`).

Conventions fixed here (and validated by the closedness/proportionality
tests): the reduced volume element is (z+kappa) dz, the reference potential
is u_ref''(z) = 1/(1-z^2) (the profile Theta_0 = 1-z^2), M(u_ref) = 0, and
directions act additively on u'' (a direction v is specified by v'', which is
all the energy ever sees).

Numerically, u'' blows up like 1/(1-z^2) at the endpoints, so potentials are
stored through the bounded ratio D(z) = (1-z^2) u''(z) (D(+-1) = 1 for
admissible u); energy integrands are written in terms of D - 1 and log D,
which are bounded; every z-integral and check reads the z-rule
`gauss_legendre(_Z_ORDER)`. Paths are straight in Theta between admissible
profiles, whose Theta_dot vanishes to second order at z = +-1, so u_dot'' =
-Theta_dot/Theta_t^2 is bounded and smooth: u_dot is one precomputed linear
map of its samples (built once per process), read on the z-rule. Scal_p is affine
in the jet, so the t-integral folds into one pass over a path's stacked samples.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Callable, Iterable, NamedTuple, Sequence

import numpy as np
from numpy.polynomial import chebyshev as cheb

from .calabi import KillingData, Profile, check_boundary, scal_p_on, weighted_average_c
from .ckem import PKappaSolution, interior_min
from .errors import BadDirection, ConfigError, NotAdmissible, OutOfDomain
from .numerics import _cheb_projector, composite_gauss, gauss_legendre

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
    "fit_probe_slope",
]

_U2_BOUNDARY = 1e-6  # bound on |(1-z^2) u'' - 1| at z = +-1
_Z_ORDER = 256  # Gauss nodes of the z-rule on [-1, 1]: every z-integral and check


class SymplecticPotential:
    """Potential u on (-1,1) represented by D(z) = (1-z^2) u''(z).

    D is held as an exact callable: a profile's potential reads
    D = (z+kappa)/N off its coefficients (`calabi.to_symplectic`), while
    closed-form potentials keep closures, so rough directions (mollifier
    bumps) never suffer fit ringing. Admissibility: u'' > 0 on the z-rule's
    nodes, the one sample of D there that the energy reads, and D(+-1) = 1
    within _U2_BOUNDARY (the boundary behavior of an admissible profile).
    """

    def __init__(self, dfun: Callable, kappa: float):
        if not kappa > 1.0:
            raise OutOfDomain("kappa must be > 1")
        self.kappa = float(kappa)
        self._dfun = dfun
        self._d_rule = self.D(gauss_legendre(_Z_ORDER).nodes)
        if np.any(self._d_rule <= 0.0):
            raise NotAdmissible("u'' must be positive on the interior grid")
        for zb, dv in zip((-1.0, 1.0), self.D(np.array([-1.0, 1.0])).tolist()):
            if abs(dv - 1.0) > _U2_BOUNDARY:
                raise NotAdmissible(f"(1-z^2) u'' must approach 1 at the endpoints (got {dv!r} at z={zb:+.0f})")

    # -- constructors -------------------------------------------------------

    @staticmethod
    def reference(kappa: float) -> "SymplecticPotential":
        """u_ref'' = 1/(1-z^2), i.e. D = 1 (the profile Theta_0 = 1-z^2)."""
        return SymplecticPotential(lambda z: np.ones_like(np.asarray(z, dtype=float)), kappa)

    # -- evaluation ---------------------------------------------------------

    def D(self, z):
        return np.asarray(self._dfun(np.asarray(z, dtype=float)), dtype=float)

    def theta(self, z):
        z = np.asarray(z, dtype=float)
        return (1.0 - z * z) / self.D(z)

    def profile(self) -> Profile:
        return Profile.from_callable(self.theta, self.kappa)


class _BumpDirection(NamedTuple):
    center: float
    radius: float
    amplitude: float = 1.0


class BumpDirection(_BumpDirection):
    """Mollifier direction amplitude * exp(-1/(1 - ((z-center)/radius)^2)),
    zero outside |z - center| < radius. Acts on u'' (it is a v'')."""

    __slots__ = ()
    def __new__(cls, center: float, radius: float, amplitude: float = 1.0) -> BumpDirection:
        if not radius > 0.0:
            raise OutOfDomain("radius must be positive")
        if abs(center) + radius >= 1.0:
            raise OutOfDomain("support must be strictly inside (-1, 1)")
        return super().__new__(cls, center, radius, amplitude)

    def __call__(self, z):
        z = np.asarray(z, dtype=float)
        s = (z - self.center) / self.radius
        inside = np.abs(s) < 1.0
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            vals = np.where(inside, np.exp(-1.0 / np.where(inside, 1.0 - s * s, 1.0)), 0.0)
        out = self.amplitude * vals
        return out if out.ndim else float(out)


def _same_class(kappa: float, sol: PKappaSolution) -> None:
    if kappa != sol.kappa:
        raise OutOfDomain(f"kappa {kappa!r} is not the class of the solution (kappa {sol.kappa!r})")


def _energy_samples(u: SymplecticPotential, sol: PKappaSolution):
    """The z-rule, D on its nodes (sampled when u was built) and f^{-3} there."""
    _same_class(u.kappa, sol)
    rule = gauss_legendre(_Z_ORDER)
    return rule, u._d_rule, (rule.nodes + sol.b) ** (-3.0)


def mabuchi_energy_amt(u: SymplecticPotential, sol: PKappaSolution) -> float:
    """Closed-form energy; M(reference) = 0. `sol` should sit on the Futaki
    curve (b = b_kappa) for the energy to be the potential of the 1-form."""
    (z, w), D, f3 = _energy_samples(u, sol)
    # u'' - u_ref'' = (D - 1)/(1-z^2); P/(1-z^2) is bounded since P(+-1)=0.
    first = float(np.dot(w, sol.P(z) * f3 * (D - 1.0) / (1.0 - z * z)))
    second = float(np.dot(w, (z + sol.kappa) * f3 * np.log(D)))
    return first - second


def mabuchi_gradient_amt(
    u: SymplecticPotential, sol: PKappaSolution, v2: Callable
) -> float:
    """Directional derivative of the energy in the direction v given by v''.

    d/de M(u'' + e v'') = int P f^{-3} v'' - int (z+kappa) f^{-3} v''/u''.
    Uses the same quadrature rule as the energy so finite differences of
    mabuchi_energy_amt converge to it exactly.
    """
    (z, w), D, f3 = _energy_samples(u, sol)
    v2v = np.asarray(v2(z), dtype=float)
    integrand = sol.P(z) * f3 * v2v - (z + sol.kappa) * f3 * v2v * (1.0 - z * z) / D
    return float(np.dot(w, integrand))


def _support_rule(bump: BumpDirection):
    """The probe's quadrature rule, on the bump's support: both probe terms
    vanish outside it, and a rule on [-1, 1] leaves a narrow bump unresolved."""
    return composite_gauss((bump.center - bump.radius, bump.center + bump.radius), 256)


def probe_slope(sol: PKappaSolution, bump: BumpDirection) -> float:
    """Leading (affine-in-k) slope of the probe: int P f^{-3} bump dz."""
    z, w = _support_rule(bump)
    return float(np.dot(w, sol.P(z) * (z + sol.b) ** (-3.0) * bump(z)))


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
    """Energies M(u_k), u_k'' = u_ref'' + k * bump; k = 0 gives M(reference) = 0.

    OutOfDomain if some k < 0, checked first, and if an energy is not finite
    (a k near the float range overflows it). P, the bump and f^{-3} are
    sampled once, on `_support_rule`'s nodes; BadDirection unless P < 0 there
    and at the support's two ends (P = (1-z^2) N, N convex: the ends decide
    the sign).
    """
    k = np.fromiter(k_list, dtype=float)
    if np.any(k < 0.0):
        raise OutOfDomain("probe parameter k must be >= 0")
    z, w = _support_rule(bump)
    P = sol.P(np.concatenate((z, (bump.center - bump.radius, bump.center + bump.radius))))
    if np.max(P) >= 0.0:
        raise BadDirection("bump support must lie inside the region where P < 0")
    f3, bz = (z + sol.b) ** (-3.0), bump(z)
    # With D_k = 1 + k (1-z^2) bump: M(u_k) = k int P f^{-3} bump
    #                                  - int (z+kappa) f^{-3} log D_k.
    lead = float(np.dot(w, P[:-2] * f3 * bz))
    with np.errstate(over="ignore"):
        logd = np.log1p(k[:, None] * (1.0 - z * z) * bz)
        E = k * lead - logd @ (w * (z + sol.kappa) * f3)
    bad = ~np.isfinite(E)
    if bad.any():
        raise OutOfDomain(f"the probe energy is not finite at k = {k[bad][0]:.6g}")
    return E.tolist()


def fit_probe_slope(k_list: Sequence[float], energies: Sequence[float]) -> float:
    """Fit E(k) ~ a + s k + g log k on the tail (k > 0 and >= the median of
    those), rows sorted by k, and return s, the affine slope. ConfigError
    unless the tail has 3 distinct k: fewer leave the fit underdetermined."""
    k = np.asarray(k_list, dtype=float)
    order = np.argsort(k, kind="stable")
    k, E = k[order], np.asarray(energies, dtype=float)[order]
    s = k[k > 0]  # sorted: its median is the mean of the middle two
    tail = k >= (0.5 * (s[(s.size - 1) // 2] + s[s.size // 2]) if s.size else np.inf)
    k, E = k[tail], E[tail]
    if len(set(k.tolist())) < 3:
        raise ConfigError(f"the probe slope fit needs 3 distinct k in its tail, got {k.tolist()}")
    A = np.stack([np.ones_like(k), k, np.log(k)], axis=1)
    coef, *_ = np.linalg.lstsq(A, E, rcond=None)
    return float(coef[1])


# -- path integral ----------------------------------------------------------


# u_dot'' is sampled on _UDOT_Z and u_dot read on the z-rule's nodes by one
# precomputed operator (_udot_operator)
_UDOT_Z = cheb.chebpts1(128)
_PATH_ORDER = 64  # Gauss nodes of the t-rule along a path


class PathFamily(NamedTuple):
    """The straight path Theta_t = (1-t) Theta_0 + t Theta_1, as the 1-form
    reads it: the endpoints' samples, taken once when the path is built.

    `kappa` is the class of every Theta_t; `jets` the read-only (3, 2, 256) stack of
    (Theta, Theta', ((z+kappa) Theta)'') of endpoints 0 and 1 on the z-rule's nodes;
    `thetas` the read-only (2, 128) stack of the endpoints' Theta on _UDOT_Z.
    """

    kappa: float
    jets: np.ndarray
    thetas: np.ndarray


def straight_theta_path(p0: Profile, p1: Profile) -> PathFamily:
    """Theta_t = (1-t) Theta_0 + t Theta_1 (kappa must agree). NotAdmissible
    unless both endpoints pass `check_boundary`: Theta(+-1) = 0 and
    Theta'(+-1) = -+2 on both make u_dot'' smooth up to z = +-1. Theta_t is
    a convex blend, so positive endpoints keep it positive."""
    if p0.kappa != p1.kappa:
        raise OutOfDomain("profiles must share kappa")
    for p in (p0, p1):
        if not (report := check_boundary(p)).passes:
            raise NotAdmissible(f"path endpoint fails the boundary conditions (defects {report.defects!r})")
    zq = gauss_legendre(_Z_ORDER).nodes
    jets = np.array(tuple(zip(p0.jet(zq), p1.jet(zq))))
    thetas = np.array((p0.theta(_UDOT_Z), p1.theta(_UDOT_Z)))
    jets.flags.writeable = thetas.flags.writeable = False
    return PathFamily(kappa=p0.kappa, jets=jets, thetas=thetas)


@lru_cache(maxsize=1)
def _udot_operator() -> np.ndarray:
    """The read-only linear map from u_dot'' on _UDOT_Z to u_dot on the
    z-rule's nodes: interpolate (degree 127, unchopped: the map is linear)
    and integrate twice. `chebint` anchors both integrals at 0, fixing the
    affine gauge u_dot(0) = u_dot'(0) = 0, which the 1-form ignores on the
    Futaki curve."""
    n = len(_UDOT_Z)
    K = cheb.chebvander(gauss_legendre(_Z_ORDER).nodes, n + 1) @ cheb.chebint(_cheb_projector(n), m=2)
    K.flags.writeable = False
    return K


@lru_cache(maxsize=1)
def _t_fold() -> np.ndarray:
    """The read-only (2, 2, _PATH_ORDER) t-fold: blends (1-t, t) at the t-rule's nodes, then times its weights."""
    t, w = gauss_legendre(_PATH_ORDER, 0.0, 1.0)
    fold = np.array(((1.0 - t, t), (w * (1.0 - t), w * t)))
    fold.flags.writeable = False
    return fold


def mabuchi_path_integral(family: PathFamily, k: KillingData, sol: PKappaSolution) -> float:
    """Integrate the 1-form int u_dot (Scal_p - c) f^{-(p+1)} (z+kappa) dz
    along the path. c is the class constant in closed form: it depends on
    the class and the weight only, so it is the same at every point of the
    path.

    The t-rule folds into two terms: along the path
    u_dot'' = -Theta_dot/Theta_t^2, u_dot is linear in u_dot'', Scal_p is
    affine in the jet (which is affine in t) and the t-weights sum to 1, so
    the integral is exactly the 1-form at (jet_0, sum_t w_t (1-t) u_dot_t)
    plus the 1-form at (jet_1, sum_t w_t t u_dot_t): one product of
    `_udot_operator()` with two columns, and one Scal_p pass over both jets.
    """
    kappa, jets, thetas = family
    _same_class(kappa, sol)
    if (jets[0] <= 0.0).any():
        raise NotAdmissible("path endpoint profile is not positive")
    c = weighted_average_c(sol.surface, k, kappa)
    zq, zw = gauss_legendre(_Z_ORDER)
    wgt = zw * (zq + k.b) ** (-(k.p + 1.0)) * (zq + kappa)
    blend, wblend = _t_fold()
    ws = wblend @ ((thetas[0] - thetas[1]) / (blend.T @ thetas) ** 2)
    udot = _udot_operator() @ ws.T
    return float((udot.T * ((scal_p_on(zq, jets, sol.surface, k, kappa) - c) * wgt)).sum())
