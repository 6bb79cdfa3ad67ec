"""Quantized functionals on the toy model: I, the Aubin functional, L = I∘Hilb + 𝕀,
Z = 𝕀∘FS + I, geodesics of Hermitian norms, and the almost-balanced gap.

All potential-level integrals run on a fixed log-radial quadrature grid
(uniform Gauss panels on [-30, 30]; every admissible psi'' decays like
e^{-|t|}, so the truncated tail is below 1e-12 of the integrand scale).
Along a straight psi-blend the grid data of the two endpoints combine
affinely — psi, mu = psi', psi'', psi''', psi'''' are each linear in the
blend weight — so a path integral is one array evaluation on the grid of
path nodes x t-nodes, with the endpoint potentials evaluated once.

Conventions: vol_omega = 2 pi dmu, vol_{k omega} = 2 pi k dmu; the reference
potential is the round one and every path functional is normalized to vanish
there. The Aubin 1-form is d𝕀(phi-dot) = 2 k C_k ∫ phi-dot f^{1-p} vol_{k omega};
the toy Mabuchi 1-form is d𝓜(phi-dot) = -∫ phi-dot (Scal_p - c) f^{-(p+1)} vol_omega.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Iterable, Sequence

import numpy as np

from .errors import NotTraceless, OutOfDomain
from .numerics import QuadratureRule, composite_gauss, gauss_legendre
from .quantization import (
    HermitianNorms,
    RadialPotential,
    SpectrumData,
    TSample,
    ToyModel,
    c_k_constant,
    c_top_exact,
    eigenvalues,
    fs,
    hilb,
    round_potential,
    _hilb,
    _mu_sample,
    _s_jet,
    _scal_p,
)
from .tolerances import TOL

__all__ = [
    "functional_I",
    "aubin_I",
    "aubin_path",
    "functional_L",
    "functional_Z",
    "toy_mabuchi",
    "geodesic",
    "z_prime",
    "AlmostBalancedReport",
    "almost_balanced_check",
]

_T_MAX = 30.0
_T_PANELS = 10
_T_ORDER = 24


@lru_cache(maxsize=1)
def _t_grid() -> QuadratureRule:
    return composite_gauss(np.linspace(-_T_MAX, _T_MAX, _T_PANELS + 1), _T_ORDER)


@lru_cache(maxsize=1)
def _round_t_sample() -> TSample:
    """The round reference on the t-grid, inverted once per process; its
    arrays are read-only."""
    sample = round_potential().at_t(_t_grid().nodes)
    for a in sample:
        a.flags.writeable = False
    return sample


def functional_I(H: HermitianNorms, spectrum: SpectrumData) -> float:
    """I(H) = sum_j lambda_j(p) log h_j (the norms are diagonal, so each
    block's log det is the sum of its log h's)."""
    if len(spectrum.lam_p) != H.k + 1:
        raise OutOfDomain("spectrum and norms disagree about k")
    return float(np.dot(spectrum.lam_p, H.log_h))


def _blend_integral(phi_a: RadialPotential, phi_b: RadialPotential, fields: tuple[str, ...], density: Callable) -> float:
    """Integral over s in [0, 1] and t of density(phi-dot, *fields) along the
    straight psi-blend (1-s) psi_a + s psi_b, with phi-dot = (psi_b - psi_a)/2
    fixed along it. Each endpoint is sampled once (the round reference once
    per process); the named TSample fields are blended on the whole
    (s-node x t-node) grid, and density is evaluated there once."""
    trule = _t_grid()
    da, db = (_round_t_sample() if phi is round_potential() else phi.at_t(trule.nodes) for phi in (phi_a, phi_b))
    srule = gauss_legendre(TOL.quad_order_path, 0.0, 1.0)
    s = srule.nodes[:, None]
    blend = ((1.0 - s) * getattr(da, name) + s * getattr(db, name) for name in fields)
    return float(srule.weights @ (density(0.5 * (db.psi - da.psi), *blend) @ trule.weights))


def aubin_path(
    phi_a: RadialPotential,
    phi_b: RadialPotential,
    k: int,
    model: ToyModel,
) -> float:
    """Integral of the Aubin 1-form along the straight psi-blend a -> b."""
    ck = c_k_constant(k, model)

    def density(dot, mu, p2):
        return dot * model.f(mu) ** (1.0 - model.p) * p2

    return 2.0 * k * ck * 2.0 * math.pi * k * _blend_integral(phi_a, phi_b, ("mu", "psi2"), density)


def aubin_I(phi: RadialPotential, k: int, model: ToyModel) -> float:
    """𝕀(phi): Aubin functional, path integral from the round potential
    (𝕀(round) = 0)."""
    return aubin_path(round_potential(), phi, k, model)


def functional_L(phi: RadialPotential, k: int, model: ToyModel) -> float:
    """L(phi) = I(hilb(phi)) + 𝕀(phi)."""
    return functional_I(hilb(phi, k, model), eigenvalues(k, model)) + aubin_I(phi, k, model)


def functional_Z(H: HermitianNorms, k: int, model: ToyModel) -> float:
    """Z(H) = 𝕀(fs(H)) + I(H)."""
    return aubin_I(fs(H, k, model), k, model) + functional_I(H, eigenvalues(k, model))


def toy_mabuchi(phi: RadialPotential, model: ToyModel) -> float:
    """Weighted Mabuchi energy of the toy, 𝓜(round) = 0, via the path
    integral of -∫ phi-dot (Scal_p - c) f^{-(p+1)} vol_omega along the
    straight psi-blend. Scal_p on the blend comes from the chain rules in
    the blended psi-derivatives, so no inversions are needed."""
    c = c_top_exact(model)

    def density(dot, mu, p2, p3, p4):
        scal_p = _scal_p(model, mu, *_s_jet(p2, p3, p4))
        return dot * (scal_p - c) * model.f(mu) ** (-(model.p + 1.0)) * p2

    fields = ("mu", "psi2", "psi3", "psi4")
    return -2.0 * math.pi * _blend_integral(round_potential(), phi, fields, density)


def geodesic(H0: HermitianNorms, A: Sequence[float], t: float, model: ToyModel) -> HermitianNorms:
    """h_j(t) = h_j(0) e^{t A_j} for A traceless on each block of equal
    eigenvalues (for a finite weight every block is 1-dimensional, so only
    the xi=0 mode has nontrivial geodesics)."""
    A = np.asarray(A, dtype=float)
    if A.shape != (H0.k + 1,):
        raise OutOfDomain("direction has wrong length")
    spec = eigenvalues(H0.k, model, check_weights=False)
    scale = max(1.0, float(np.max(np.abs(A))))
    for block in spec.blocks:
        if abs(float(np.sum(A[list(block)]))) > 1e-12 * scale:
            raise NotTraceless("direction must be traceless on each eigenvalue block")
    return HermitianNorms(k=H0.k, log_h=H0.log_h + t * A)


def z_prime(H: HermitianNorms, A: Sequence[float], k: int, model: ToyModel) -> float:
    """d/dt Z(geodesic(H, A, t)) at t=0, in closed form:
    Z'(0) = sum_j lambda_j(p) A_j (1 - h'_j/h_j) with h' = hilb(fs(H))
    (the Aubin term contributes -sum lambda(p) A h'/h; I contributes
    sum lambda(p) A). Vanishes at a balanced point, where h' = h."""
    A = np.asarray(A, dtype=float)
    spec = eigenvalues(k, model)
    h_ratio = np.exp(hilb(fs(H, k, model), k, model).log_h - H.log_h)
    return float(np.dot(spec.lam_p, A * (1.0 - h_ratio)))


@dataclass(frozen=True)
class AlmostBalancedReport:
    k_list: tuple[int, ...]
    eps_hat: tuple[float, ...]


def almost_balanced_check(
    phi_star: RadialPotential,
    phi: RadialPotential,
    k_range: Iterable[int],
    model: ToyModel,
) -> AlmostBalancedReport:
    """eps-hat(k) = k^{-1} [Z(hilb(phi)) - Z(hilb(phi_star))]_- (the negative
    part): how far phi_star is from minimizing Z through the quantization, at
    each level k. Decays to 0 when phi_star has constant weighted curvature."""
    ks = sorted(int(k) for k in k_range)
    s, s_star = _mu_sample(phi), _mu_sample(phi_star)  # one sample each serves every k
    out = []
    for k in ks:
        diff = functional_Z(_hilb(s, k, model), k, model) - functional_Z(_hilb(s_star, k, model), k, model)
        out.append(max(0.0, -diff) / k)
    return AlmostBalancedReport(k_list=tuple(ks), eps_hat=tuple(out))
