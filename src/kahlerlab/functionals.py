"""Quantized functionals on the toy model: I, the Aubin functional, L = I∘Hilb + 𝕀,
Z = 𝕀∘FS + I, geodesics of Hermitian norms, and the almost-balanced gap.

Conventions: vol_omega = 2 pi dmu, vol_{k omega} = 2 pi k dmu; the reference
potential is the round one and every path functional is normalized to vanish
there. The Aubin 1-form is d𝕀(phi-dot) = 2 k C_k ∫ phi-dot f^{1-p} vol_{k omega};
the toy Mabuchi 1-form is d𝓜(phi-dot) = -∫ phi-dot (Scal_p - c) f^{-(p+1)} vol_omega.

Both 1-forms are exact, and both functionals are evaluated in closed form in
momentum coordinates, on the one Gram sample each potential holds
(RadialPotential.gram_sample: its dmu weights w and dv = v - v_round). Z reads
𝕀(fs(H)) off a sample built by the function that builds fs(H).gram_sample (one
softmax pass over log h at the pulled-back Gram nodes), with no FS potential
built, so Z and aubin_I(fs(H)) + I(H) read one bit pattern. At fixed t and mu a
variation of psi = 2 phi is minus the variation of the symplectic potential v,
so phi-dot = -v-dot/2, and everything is read off dv = v - v_round,
V = f^{1-p} and W = f^{-(p+1)}.
"""

from __future__ import annotations

import math
from typing import Iterable, NamedTuple, Sequence

import numpy as np

from .errors import NotTraceless, OutOfDomain
from .quantization import (
    GramSample,
    HermitianNorms,
    RadialPotential,
    SpectrumData,
    ToyModel,
    balanced_step,
    c_k_constant,
    c_top_exact,
    eigenvalues,
    hilb,
    _check_level,
    _fs_gram_sample,
    _log_ck,
)

__all__ = [
    "functional_I",
    "aubin_I",
    "functional_L",
    "functional_Z",
    "toy_mabuchi",
    "geodesic",
    "z_prime",
    "AlmostBalancedReport",
    "almost_balanced_check",
]

def functional_I(H: HermitianNorms, spectrum: SpectrumData) -> float:
    """I(H) = sum_j lambda_j(p) log h_j (the norms are diagonal, so each
    block's log det is the sum of its log h's)."""
    if len(spectrum.lam_p) != H.k + 1:
        raise OutOfDomain("spectrum and norms disagree about k")
    return float(np.dot(spectrum.lam_p, H.log_h))


def aubin_I(phi: RadialPotential, k: int, model: ToyModel) -> float:
    """𝕀(phi) = -2 pi k^2 C_k ∫ dv f^{1-p} dmu: the Aubin 1-form is linear in
    phi-dot = -v-dot/2, so 𝕀 integrates it in closed form from the round
    potential (𝕀(round) = 0)."""
    return _aubin(phi.gram_sample, k, model)


def _aubin(s: GramSample, k: int, model: ToyModel) -> float:
    """-2 pi k^2 C_k sum_i w_i dv_i f(mu_i)^{1-p}, the Aubin functional on a Gram sample."""
    return -2.0 * math.pi * k * k * c_k_constant(k, model) * float(s.w @ (s.dv * model.f(s.mu) ** (1.0 - model.p)))


def functional_L(phi: RadialPotential, k: int, model: ToyModel) -> float:
    """L(phi) = I(hilb(phi)) + 𝕀(phi)."""
    return functional_I(hilb(phi, k, model), eigenvalues(k, model)) + aubin_I(phi, k, model)


def functional_Z(H: HermitianNorms, k: int, model: ToyModel) -> float:
    """Z(H) = 𝕀(fs(H)) + I(H), with 𝕀(fs(H)) read off fs(H)'s Gram sample, built by the
    function that builds fs(H).gram_sample but with no FS potential; the checks of fs
    (the level, then the sign of C_k), then of the spectrum."""
    _check_level(H, k)
    return _aubin(_fs_gram_sample(H.log_h, _log_ck(k, model)), k, model) + functional_I(H, eigenvalues(k, model))


def toy_mabuchi(phi: RadialPotential, model: ToyModel) -> float:
    """Weighted Mabuchi energy of the toy, 𝓜(round) = 0, in closed form.
    Scal_p W = -(V S)'', so two integrations by parts make its 1-form exact,
    as in Donaldson's toric formula (J. Differential Geom. 2002):

        𝓜 = pi [2 V(0) dv(0) + 2 V(1) dv(1) + 2 ∫ V log(S/S_round) dmu - c ∫ dv W dmu],

    with S_round = 2 mu (1-mu) and the end values phi.dv_ends."""
    g = phi.gram_sample
    f, p = model.f(g.mu), model.p
    V, W = f ** (1.0 - p), f ** (-(p + 1.0))
    ends = 2.0 * float(np.sum(model.f(np.array([0.0, 1.0])) ** (1.0 - p) * np.array(phi.dv_ends)))  # f may be 1.0
    log_q = np.log(g.S / (2.0 * g.mu * (1.0 - g.mu)))
    return math.pi * (ends + float(g.w @ (2.0 * V * log_q - c_top_exact(model) * g.dv * W)))


def geodesic(H0: HermitianNorms, A: Sequence[float], t: float, model: ToyModel) -> HermitianNorms:
    """h_j(t) = h_j(0) e^{t A_j} for A traceless on each block of equal
    eigenvalues: the xi=0 mode has one block of all j, and a finite weight
    one block per j (lambda_j = b0 + j/k are distinct), so only the xi=0
    mode has nontrivial geodesics."""
    A = np.asarray(A, dtype=float)
    if A.shape != (H0.k + 1,):
        raise OutOfDomain("direction has wrong length")
    traces = np.sum(A, keepdims=True) if model.xi_zero else A
    if np.any(np.abs(traces) > 1e-12 * max(1.0, float(np.max(np.abs(A))))):
        raise NotTraceless("direction must be traceless on each eigenvalue block")
    return HermitianNorms(k=H0.k, log_h=H0.log_h + t * A)


def z_prime(H: HermitianNorms, A: Sequence[float], k: int, model: ToyModel) -> float:
    """d/dt Z(geodesic(H, A, t)) at t=0, in closed form:
    Z'(0) = sum_j lambda_j(p) A_j (1 - h'_j/h_j) with h' = hilb(fs(H))
    (the Aubin term contributes -sum lambda(p) A h'/h; I contributes
    sum lambda(p) A). Vanishes at a balanced point, where h' = h. log h'/h is
    balanced_step: log(2 pi k C_k / lambda_j(p)) + log sum_i W_ji c_i. OutOfDomain, as in
    geodesic, unless A has one entry per norm."""
    A = np.asarray(A, dtype=float)
    if A.shape != (H.k + 1,):
        raise OutOfDomain("direction has wrong length")
    spec = eigenvalues(k, model)
    return float(np.dot(spec.lam_p, A * (1.0 - np.exp(balanced_step(H, k, model)))))


class AlmostBalancedReport(NamedTuple):
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
    ks = sorted(k_range)
    out = []
    for k in ks:
        diff = functional_Z(hilb(phi, k, model), k, model) - functional_Z(hilb(phi_star, k, model), k, model)
        out.append(max(0.0, -diff) / k)
    return AlmostBalancedReport(k_list=tuple(ks), eps_hat=tuple(out))
