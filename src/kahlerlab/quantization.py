"""Quantization toy model: S^1-invariant metrics on the projective line.

An invariant Kähler metric in 2*pi*c_1(O(1)) is a radial potential: writing
t for the log-radial coordinate and psi(t) = 2*phi(t), the momentum
mu = psi'(t) ranges over [0,1], the symplectic form is d(mu) ^ d(alpha)
(area 2*pi), and the whole geometry reduces to one profile

    S(mu) = 2 psi''(t(mu)),  S(0)=S(1)=0,  S'(0)=2,  S'(1)=-2,  S>0 inside,

with Scal = -S''. The weight field is scaled so its Killing potential is
f(mu) = mu + b0 (b0 = inf flags the degenerate mode with zero weight field:
f is then the constant 1 and all |xi|^2 / Delta f terms vanish). The weighted
scalar curvature reduces to

    Scal_p = f^2 (-S'') + 2(p-1) f S' - p(p-1) S            (b0 finite)
    Scal_p = -S''                                           (xi = 0 mode).

Sections of O(k) are the monomials s_j, j = 0..k; in the momentum gauge in
which the round potential is psi_0 = log(1+e^t) (so that the round
symplectic potential is v_0 = mu log mu + (1-mu) log(1-mu)),

    |s_j|^2_{k phi}(mu) = exp(E_j),   E_j = k v(mu) + (j - k mu) t(mu),

which for the round metric is exactly mu^j (1-mu)^{k-j}. Eigenvalues of the
quantized weight are lambda_j = b0 + j/k; the twisted weights are
lambda_j(p) = lambda_j^{1-p} - (c/4k) lambda_j^{-(p+1)} with c the weighted
curvature average of the class. All inner products are diagonal in j, so
Hermitian data is a vector of (log) norms and every map below is a
one-dimensional quadrature plus vector algebra; the balanced map, one
softmax pass, also gives its Jacobian, so Newton's method finds balanced metrics.

Nothing inverts mu <-> t. A potential is sampled at points u in (0, 1)
(RadialPotential.jet): a momentum-native one at mu = u, a t-native one at
the pull-back t = logit(u) + beta, where mu = psi'(t). On the one fixed rule,
the momentum rule _mu_rule(), that sample is taken at most once
(RadialPotential.gram_sample) and holds mu, t, v, S, the dmu weights and
dv = v - v_round only, so an FS potential's softmax pass (_fs_pass) stops there
at psi''. One function, _gram_sample, builds every such sample, and a t-native
one comes from one pull-back (_pulled_back_sample); the Gram matrices and the
closed-form functionals of the functionals module all read it (functional_Z
takes fs(H)'s sample from the same builder, _fs_gram_sample, with no FS
potential), and the pointwise evaluators (Scal_p, the Bergman densities) read
a jet their caller takes. The spectrum (eigenvalues) is built once per (k, model).
Each (k+1) x n pass holds the fewest full-size buffers and works in them in
place: from k = 64 each one passes glibc's 128 kB mmap threshold and faults.

Volume convention: vol_{k omega} = k^m vol_omega with m = 1, i.e. 2 pi k dmu.
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from functools import cached_property, lru_cache
from typing import Callable, Iterable, NamedTuple, Sequence

import numpy as np
from numpy.polynomial import chebyshev as cheb
from numpy.polynomial.polynomial import polyval

from .errors import ConfigError, NoConvergence, NotAdmissible, OutOfDomain, WeightSignError
from .numerics import QuadratureRule, chebyshev_coefficients, gauss_legendre, power_integral

__all__ = [
    "ToyModel",
    "RadialPotential",
    "MuSample",
    "TSample",
    "GramSample",
    "ProfilePotential",
    "FSPotential",
    "BlendPotential",
    "round_potential",
    "random_potential",
    "SpectrumData",
    "HermitianNorms",
    "eigenvalues",
    "c_top_exact",
    "hilb",
    "fs",
    "c_k_constant",
    "bergman_density",
    "rho_p",
    "ExpansionReport",
    "expansion_check",
    "BalancedResult",
    "balanced_step",
    "balanced_iterate",
    "BalancedDefects",
    "balanced_defects",
    "sup_grid",
]

_MU_LO, _MU_HI, _MU_N = 0.02, 0.98, 193


def sup_grid() -> np.ndarray:
    """Uniform interior grid of u in (0, 1) at whose jets sup-norms are reported."""
    return np.linspace(_MU_LO, _MU_HI, _MU_N)


def _mu_rule() -> QuadratureRule:
    """256-node Gauss rule on [0, 1], the momentum rule of every Gram matrix."""
    return gauss_legendre(256, 0.0, 1.0)


def _read_only(sample):
    for a in sample:
        a.flags.writeable = False
    return sample


@lru_cache(maxsize=1)
def _pullback_rule() -> tuple[np.ndarray, np.ndarray]:
    """logit(u_i) of the momentum nodes u_i, and the weights w_i/(u_i(1-u_i)) of dt there; read-only."""
    u, w = _mu_rule()
    return _read_only((np.log(u / (1.0 - u)), w / (u * (1.0 - u))))


def _xlogx(x: np.ndarray) -> np.ndarray:
    """x log x, with its limit 0 at x = 0."""
    return x * np.log(np.where(x == 0.0, 1.0, x))


class _ToyModel(NamedTuple):
    b0: float = math.inf
    p: float = 4.0


class ToyModel(_ToyModel):
    """Weight data: Killing potential f = mu + b0 and exponent p.

    b0 > 0 keeps f positive on [0, 1], so the weight f^{-(p+1)} of the class
    constant is integrable for every p. b0 = math.inf selects the degenerate
    (xi = 0) mode: the weight field vanishes, f is normalized to the
    constant 1, and the spectrum collapses to a single (k+1)-dimensional
    block.
    """

    __slots__ = ()
    def __new__(cls, b0: float = math.inf, p: float = 4.0) -> ToyModel:
        if not (b0 == math.inf or 0.0 < b0 < b0 + 1.0):
            raise OutOfDomain(f"b0 must be > 0 with b0 + 1 > b0, or inf for the xi=0 mode (got {b0!r})")
        if not np.isfinite(p):
            raise OutOfDomain("p must be finite")
        return super().__new__(cls, b0, p)

    @property
    def xi_zero(self) -> bool:
        return self.b0 == math.inf

    def f(self, mu):
        """f(mu) = mu + b0; the float 1 in the xi=0 mode, so no power of f builds an array there."""
        if self.xi_zero:
            return 1.0
        out = np.asarray(mu, dtype=float) + self.b0
        return out if out.ndim else float(out)


# ---------------------------------------------------------------------------
# radial potentials
# ---------------------------------------------------------------------------


class MuSample(NamedTuple):
    """A potential's jet on the momentum side: momenta mu, t(mu) = v'(mu), v, S, S', S''."""

    mu: np.ndarray
    t: np.ndarray
    v: np.ndarray
    S: np.ndarray
    dS: np.ndarray
    d2S: np.ndarray


class TSample(NamedTuple):
    """A potential on the log-radial side: mu(t) = psi'(t), psi, psi'', psi''', psi''''."""

    mu: np.ndarray
    psi: np.ndarray
    psi2: np.ndarray
    psi3: np.ndarray
    psi4: np.ndarray


class GramSample(NamedTuple):
    """A potential on the Gram rule: momenta mu, t = v'(mu), v, the profile
    S, the quadrature weights w of dmu there, and dv = v - v_round."""

    mu: np.ndarray
    t: np.ndarray
    v: np.ndarray
    S: np.ndarray
    w: np.ndarray
    dv: np.ndarray


def _gram_sample(mu, t, v, S, w) -> GramSample:
    """The Gram sample of these fields, with dv = v - v_round taken once. v_round is
    subtracted as one sum, so dv of the round potential is exactly 0."""
    return GramSample(mu, t, v, S, w, v - (_xlogx(mu) + _xlogx(1.0 - mu)))


def _interior(u) -> np.ndarray:
    u = np.asarray(u, dtype=float)
    if not np.all((u > 0.0) & (u < 1.0)):
        raise OutOfDomain("a jet takes points u in (0,1)")
    return u


class RadialPotential(ABC):
    """Invariant potential, sampled on its native side of the Legendre transform.

    Every potential has the momentum side, read by jet(u) at points u in
    (0, 1): momenta mu, profile S (with derivatives), symplectic potential v
    and t(mu) = v'(mu). _TNativePotential adds the log-radial side,
    psi(t) = 2 phi(t) with derivatives up to fourth order, and takes its jet
    at the pull-back of u, so mu = u only for a momentum-native potential.

    A potential never changes after construction, so its read-only sample
    on the momentum rule, gram_sample, is taken once: ProfilePotential reads
    its jet at the momentum nodes, _TNativePotential mu, psi and psi'' at
    their pull-back, and a shifted potential its base's sample. Each class
    also states dv_ends, the values of v - v_round at mu = 0 and 1 (v_round
    vanishes at both); the sample's dv holds v - v_round on the nodes.
    """

    dv_ends: tuple[float, float]
    gram_sample: GramSample

    @abstractmethod
    def jet(self, u) -> MuSample: ...


def _fs_pass(t, log_h: np.ndarray, log_ck: float) -> tuple:
    """mu, psi and psi'' of psi(t) = (1/k)(log sum_j e^{j t}/h_j - log C_k) at the points t
    (flattened), then the buffers FSPotential.at_t continues from: w, the softmax weights
    times d^2 with d = j - E[j], d itself, and k2 = Var[j]. The Gram sample stops here."""
    # psi'..psi'''' are the first four cumulants of j under the softmax
    # weights, divided by k; all five come from one exponential
    # one (k+1) x n buffer w, updated in place: at k = 64 on the Gram
    # nodes each temporary of that size is 133 kB, past glibc's 128 kB
    # mmap threshold, and in some heap layouts every one cost page faults
    k = log_h.size - 1
    j = np.arange(k + 1, dtype=float)
    w = np.outer(j, t.ravel())
    w -= log_h[:, None]
    top = np.max(w, axis=0)
    w -= top
    np.exp(w, out=w)
    tot = np.sum(w, axis=0)
    # softmax normalized by its sum: exp(E - logsumexp(E)), E = j t - log h_j,
    # would put the absolute rounding of logsumexp (~|E| eps) into every
    # weight, and the cumulant cancellations of psi'''' amplify it
    w /= tot
    m1 = j @ w
    # central moments from products only: float `pow` costs ~7x the rest
    d = j[:, None] - m1[None, :]
    w *= d
    w *= d
    k2 = np.sum(w, axis=0)
    return m1 / k, (np.log(tot) + top - log_ck) / k, k2 / k, w, d, k2


def _pulled_back_sample(beta: float, head: Callable, *args) -> GramSample:
    """The Gram sample of a t-native potential whose head(t, *args) starts with mu, psi and psi'':
    read at the pull-back t_i = logit(u_i) + beta of the momentum nodes u_i, where the
    weight of dmu is w_i psi''(t_i)/(u_i(1-u_i)) (dmu = psi'' dt)."""
    logit_u, w_t = _pullback_rule()
    t = logit_u + beta
    mu, psi, psi2 = head(t, *args)[:3]
    return _gram_sample(mu, t, mu * t - psi, 2.0 * psi2, w_t * psi2)


def _fs_gram_sample(log_h: np.ndarray, log_ck: float) -> GramSample:
    """fs's Gram sample: one _fs_pass over log h, stopped at psi'', at the pull-back of the
    nodes with beta = (log h_k - log h_0)/k; FSPotential and functional_Z both read it."""
    return _pulled_back_sample(float(log_h[-1] - log_h[0]) / (log_h.size - 1), _fs_pass, log_h, log_ck)


class _TNativePotential(RadialPotential):
    """Base for potentials native on the log-radial side. The jet at u is one
    pass at the pull-back t = log(u/(1-u)) + beta, where mu = psi'(t)
    (dmu/dt = psi''), with the chain rules

        S = 2 psi'',   S' = 2 psi'''/psi'',   S'' = 2 (psi'''' psi'' - psi'''^2)/psi''^3.

    The Gram sample reads mu, psi and psi'' only, at the pull-back of the
    momentum nodes (_pulled_back_sample): the same integral after the
    substitution mu = psi'(logit u + beta). beta is where psi's two
    asymptotes cross, so the points move with the potential under a shift
    of t; FSPotential and BlendPotential set it, and it is 0 here."""

    beta = 0.0

    @abstractmethod
    def at_t(self, t) -> TSample: ...

    @cached_property
    def gram_sample(self) -> GramSample:
        return _read_only(_pulled_back_sample(self.beta, self.at_t))

    def jet(self, u) -> MuSample:
        u = _interior(u)
        t = np.log(u / (1.0 - u)) + self.beta
        s = self.at_t(t)
        p2, p3, p4 = s.psi2, s.psi3, s.psi4
        return MuSample(s.mu, t, s.mu * t - s.psi, 2.0 * p2, 2.0 * p3 / p2, 2.0 * (p4 * p2 - p3 * p3) / p2**3)


class ProfilePotential(RadialPotential):
    """Momentum-native potential S(mu) = 2 mu (1-mu) q(mu), q > 0, q(0)=q(1)=1.

    The symplectic potential is reconstructed from v'' = 2/S:
    v = v_0 + R with v_0 = mu log mu + (1-mu) log(1-mu), R'' = r,
    r = (1-q)/(q mu (1-mu)) (bounded), anchored R(1/2) = R'(1/2) = 0 by
    integrating from x = 2 mu - 1 = 0 (chebint's lower bound). q and
    r are interpolated at _N Chebyshev nodes and chopped at their rounding
    plateau (q of the round potential is 1 term), so no noise tail reaches
    S''.
    """

    _N = 160

    def __init__(self, q_fn: Callable):
        x = cheb.chebpts1(self._N)
        mu = 0.5 * (x + 1.0)
        qv = np.asarray(q_fn(mu), dtype=float)
        if np.any(qv <= 0.0):
            raise NotAdmissible("q = S/S_round must be positive")
        qc = chebyshev_coefficients(qv)
        # S(0) = S(1) = 0 by the form, and S'(0) - 2 = 2 (q(0) - 1), S'(1) + 2 = -2 (q(1) - 1)
        q0, q1 = cheb.chebval(np.array([-1.0, 1.0]), qc)
        d0, d1 = 2.0 * (q0 - 1.0), -2.0 * (q1 - 1.0)
        if not (abs(d0) < 1e-9 and abs(d1) < 1e-9):
            raise NotAdmissible(f"profile boundary defects S'(0) - 2 = {d0:.3g}, S'(1) + 2 = {d1:.3g}")
        r = (1.0 - qv) / (qv * mu * (1.0 - mu))
        Rc = cheb.chebint(cheb.chebint(chebyshev_coefficients(r))) * 0.25  # d/dmu = 2 d/dx
        # columns q, q', q'', R, R' (in mu), zero-padded to the longest so a
        # single Clenshaw pass evaluates all five
        dq = 2.0 * cheb.chebder(qc)
        dR = 2.0 * cheb.chebder(Rc)
        cols = (qc, dq, 2.0 * cheb.chebder(dq), Rc, dR)
        self._series = np.zeros((max(map(len, cols)), len(cols)))
        for i, c in enumerate(cols):
            self._series[: len(c), i] = c
        self._series.flags.writeable = False
        self.dv_ends = tuple(float(e) for e in cheb.chebval(np.array([-1.0, 1.0]), Rc))

    @cached_property
    def gram_sample(self) -> GramSample:
        rule = _mu_rule()
        s = self.jet(rule.nodes)
        return _read_only(_gram_sample(s.mu, s.t, s.v, s.S, rule.weights))

    def jet(self, u) -> MuSample:
        mu = _interior(u)
        q, dq, d2q, R, dR = cheb.chebval(2.0 * mu - 1.0, self._series)
        return MuSample(
            mu=mu,
            t=np.log(mu) - np.log(1.0 - mu) + dR,
            v=_xlogx(mu) + _xlogx(1.0 - mu) + R,
            S=2.0 * mu * (1.0 - mu) * q,
            dS=2.0 * (1.0 - 2.0 * mu) * q + 2.0 * mu * (1.0 - mu) * dq,
            d2S=-4.0 * q + 4.0 * (1.0 - 2.0 * mu) * dq + 2.0 * mu * (1.0 - mu) * d2q,
        )


class FSPotential(_TNativePotential):
    """psi(t) = (1/k)(log sum_j e^{j t}/h_j - log C_k): the projective
    potential induced by Hermitian norms. Always admissible by structure.
    It holds a read-only copy of log_h, so its samples cannot go stale.
    psi's asymptotes, -(log h_0 + log C_k)/k and t - (log h_k + log C_k)/k,
    cross at beta = (log h_k - log h_0)/k, which the gauge
    log h -> log h + k a + j b moves by b; they give v at mu = 0 and 1."""

    def __init__(self, H: HermitianNorms, log_ck: float):
        self.k = H.k  # HermitianNorms checks k >= 1, k+1 finite norms
        self.log_h = np.array(H.log_h)
        self.log_h.flags.writeable = False
        self.log_ck = float(log_ck)
        self.beta = float(self.log_h[-1] - self.log_h[0]) / self.k
        self.dv_ends = ((self.log_h[0] + self.log_ck) / self.k, (self.log_h[-1] + self.log_ck) / self.k)

    @cached_property
    def gram_sample(self) -> GramSample:
        return _read_only(_fs_gram_sample(self.log_h, self.log_ck))

    def at_t(self, t) -> TSample:
        t = np.asarray(t, dtype=float)
        mu, psi, psi2, w, d, k2 = _fs_pass(t, self.log_h, self.log_ck)
        w *= d
        k3 = np.sum(w, axis=0)
        w *= d
        s = TSample(mu, psi, psi2, k3 / self.k, (np.sum(w, axis=0) - 3.0 * k2 * k2) / self.k)
        return TSample(*(f.reshape(t.shape) for f in s))


class BlendPotential(_TNativePotential):
    """Affine combination sum_i w_i psi_i of t-native parts on the log-radial
    side (the straight lines of the psi-affine structure; convex weights keep
    psi'' > 0)."""

    def __init__(self, parts: Sequence[tuple[float, _TNativePotential]]):
        if not parts:
            raise OutOfDomain("need at least one component")
        self.parts = tuple((float(w), p) for w, p in parts)
        self.dv_ends = tuple(sum(w * p.dv_ends[i] for w, p in self.parts) for i in (0, 1))
        self.beta = sum(w * p.beta for w, p in self.parts)  # where the blended asymptotes cross (affine weights sum to 1)

    def at_t(self, t) -> TSample:
        # every field of a t-sample is linear in psi
        samples = [(w, p.at_t(t)) for w, p in self.parts]
        return TSample(*(sum(w * s[i] for w, s in samples) for i in range(len(TSample._fields))))


class _ShiftedPotential(RadialPotential):
    """phi + s: psi shifted by the constant 2s (so v by -2s), metric unchanged."""

    def __init__(self, base: RadialPotential, s: float):
        self.base = base
        self.s = float(s)
        self.dv_ends = tuple(e - 2.0 * self.s for e in base.dv_ends)

    @cached_property
    def gram_sample(self) -> GramSample:
        # the base's own sample: a t-native base is sampled at the pull-back
        # of the nodes, where mu is not u
        g = self.base.gram_sample
        return _read_only(_gram_sample(g.mu, g.t, g.v - 2.0 * self.s, g.S, g.w))

    def jet(self, u) -> MuSample:
        out = self.base.jet(u)
        return out._replace(v=out.v - 2.0 * self.s)


@lru_cache(maxsize=1)
def _round_potential() -> ProfilePotential:
    return ProfilePotential(lambda mu: np.ones_like(np.asarray(mu, dtype=float)))


def round_potential() -> ProfilePotential:
    """The reference metric: S_0 = 2 mu (1-mu), psi_0 = log(1 + e^t).
    Built once; potentials are immutable after construction."""
    return _round_potential()


def random_potential(rng: np.random.Generator, scale: float = 0.8, degree: int = 3) -> ProfilePotential:
    """Random admissible potential: q = exp(mu(1-mu) g(mu)), g a random
    polynomial — q(0) = q(1) = 1 and q > 0 hold exactly."""
    co = rng.normal(size=degree + 1) * scale / (1.0 + np.arange(degree + 1))

    def q(mu):
        mu = np.asarray(mu, dtype=float)
        return np.exp(mu * (1.0 - mu) * polyval(mu, co))

    return ProfilePotential(q)


# ---------------------------------------------------------------------------
# spectrum, norms, quantization maps
# ---------------------------------------------------------------------------


class SpectrumData(NamedTuple):
    lam: np.ndarray      # lambda_j = b0 + j/k  (all 1 in the xi=0 mode)
    lam_p: np.ndarray    # lambda_j^{1-p} - (c/4k) lambda_j^{-(p+1)}, c = c_top_exact(model)


class _HermitianNorms(NamedTuple):
    k: int
    log_h: np.ndarray


class HermitianNorms(_HermitianNorms):
    """Diagonal Hermitian data: log h_j for the monomial eigensections."""

    __slots__ = ()
    def __new__(cls, k: int, log_h) -> HermitianNorms:
        log_h = np.asarray(log_h, dtype=float)
        if k < 1:
            raise OutOfDomain("k must be >= 1")
        if log_h.shape != (k + 1,):
            raise OutOfDomain("need k+1 norms")
        if not np.isfinite(log_h).all():
            raise OutOfDomain("norms must be positive and finite")
        return super().__new__(cls, k, log_h)


@lru_cache(maxsize=None)
def eigenvalues(k: int, model: ToyModel, check_weights: bool = True) -> SpectrumData:
    """lambda_j = b0 + j/k and the twisted weights lambda_j(p), read-only.

    check_weights=False skips the positivity gate on lambda(p) (useful when
    only the raw lambda sequence is wanted; every map that divides by
    lambda(p) re-checks). OutOfDomain, before the gate, if a power of
    lambda overflows a float or underflows to 0. Memoized, as the
    functionals read it per call; an error is not, so every call raises it."""
    if k < 1:
        raise OutOfDomain("k must be >= 1")
    j = np.arange(k + 1, dtype=float)
    if model.xi_zero:
        lam = np.ones(k + 1)
    else:
        lam = model.b0 + j / k
    c = c_top_exact(model)
    with np.errstate(over="ignore", invalid="ignore"):
        V, W = lam ** (1.0 - model.p), lam ** (-(model.p + 1.0))
        lam_p = V - (c / (4.0 * k)) * W
    if not np.all(np.isfinite(lam_p)):
        raise _power_error(model)
    if 0.0 in (V[0], V[-1], W[0], W[-1]):  # a power is monotone in lambda, so it underflows at an end first
        raise _power_error(model, "underflows to 0")
    if check_weights and np.any(lam_p <= 0.0):
        raise WeightSignError(f"lambda(p) has non-positive entries at k={k} (k too small for this (p, b0))")
    return _read_only(SpectrumData(lam=lam, lam_p=lam_p))


def _power_error(model: ToyModel, how: str = "overflows a float") -> OutOfDomain:
    return OutOfDomain(f"a power of f {how} at (b0, p) = ({model.b0!r}, {model.p!r})")


def c_top_exact(model: ToyModel) -> float:
    """Class constant c = int Scal_p f^{-(p+1)} dmu / int f^{-(p+1)} dmu in
    closed form. Scal_p f^{-(p+1)} is the exact derivative of
    -S' f^{1-p} + (p-1) S f^{-p}, so with S(0) = S(1) = 0, S'(0) = 2 and
    S'(1) = -2, c = 2 (b0^{1-p} + (b0+1)^{1-p}) / int_{b0}^{b0+1} x^{-(p+1)} dx;
    4 in the xi=0 mode. OutOfDomain if a power overflows a float, or if the
    divisor underflows to 0 (the powers above it can only underflow with it)."""
    if model.xi_zero:
        return 4.0
    b0, p = model.b0, model.p
    try:
        num, den = b0 ** (1.0 - p) + (b0 + 1.0) ** (1.0 - p), power_integral(b0, b0 + 1.0, -(p + 1.0))
    except OverflowError as exc:
        raise _power_error(model) from exc
    if den == 0.0:
        raise _power_error(model, "underflows to 0")
    return 2.0 * num / den


def weighted_scalar_toy(s: MuSample, model: ToyModel) -> np.ndarray:
    """Scal_p = f^2 (-S'') + 2(p-1) f S' - p(p-1) S (plain -S'' when the
    weight field is zero) at the momenta of the jet s = phi.jet(u)."""
    if model.xi_zero:
        return -s.d2S
    f = model.f(s.mu)
    p = model.p
    return f * f * (-s.d2S) + 2.0 * (p - 1.0) * f * s.dS - p * (p - 1.0) * s.S


def _log_section_densities(s: MuSample | GramSample, k: int, row=0.0) -> np.ndarray:
    """Matrix E with E[j, q] = log |s_j|^2_{k phi}(mu_q) = (j - k mu) t + k v, plus a per-node
    `row`, at the momenta mu_q of a jet or a Gram sample s, in one new buffer; j - k mu is
    formed first, as j t + k (v - mu t) would cancel terms ~|k t| at the ends of the rule."""
    E = np.subtract.outer(np.arange(k + 1, dtype=float), k * s.mu)
    E *= s.t
    E += k * s.v + row
    return E


def _log_gram(phi: RadialPotential, k: int, model: ToyModel) -> np.ndarray:
    """log G_j, G_j = int |s_j|^2 f^{1-p} vol_{k omega} = 2 pi k int e^{E_j} f^{1-p} dmu,
    from phi.gram_sample, in one buffer. The weight stays in log space, (1-p) log f,
    as f^{1-p} can overflow a float where G does not."""
    if k < 1:  # log(2 pi k) below
        raise OutOfDomain("k must be >= 1")
    s = phi.gram_sample
    a = _log_section_densities(s, k, np.log(s.w) if model.xi_zero else np.log(s.w) + (1.0 - model.p) * np.log(model.f(s.mu)))
    m = a.max(axis=1, keepdims=True)  # log-sum-exp shifted by the row maximum: exp cannot overflow
    a -= m
    return np.log(np.exp(a, out=a).sum(axis=1)) + m[:, 0] + math.log(2.0 * math.pi * k)


def hilb(phi: RadialPotential, k: int, model: ToyModel) -> HermitianNorms:
    """h_j = (1/lambda_j(p)) int |s_j|^2_{k phi} f^{1-p} vol_{k omega}."""
    return HermitianNorms(k=k, log_h=_log_gram(phi, k, model) - _log_lam_p(k, model))


@lru_cache(maxsize=None)
def _log_lam_p(k: int, model: ToyModel) -> np.ndarray:
    """log lambda_j(p), read-only, with the checks of eigenvalues."""
    return _read_only((np.log(eigenvalues(k, model).lam_p),))[0]


@lru_cache(maxsize=None)
def c_k_constant(k: int, model: ToyModel) -> float:
    """C_k = sum_j lambda_j(p) / int f^{1-p} vol_{k omega}; the volume
    bookkeeping is pinned by (2 pi) C_k = 1 + O(k^{-2}). int_0^1 f^{1-p} dmu
    is int_{b0}^{b0+1} x^{1-p} dx in closed form, 1 in the xi=0 mode; OutOfDomain
    if it overflows a float. It underflows to 0 only where c's divisor
    int x^{-(p+1)} dx does too, which `eigenvalues` names first. Memoized: `fs`, `aubin_I` and `functional_Z` read it per call."""
    spec = eigenvalues(k, model, check_weights=False)
    try:
        vol = 1.0 if model.xi_zero else power_integral(model.b0, model.b0 + 1.0, 1.0 - model.p)
    except OverflowError as exc:
        raise _power_error(model) from exc
    return float(np.sum(spec.lam_p)) / (2.0 * math.pi * k * vol)


def _check_level(H: HermitianNorms, k: int) -> None:
    if k != H.k:
        raise OutOfDomain(f"k={k} does not match the norms (k={H.k})")


def _log_ck(k: int, model: ToyModel) -> float:
    ck = c_k_constant(k, model)
    if ck <= 0.0:
        raise WeightSignError(f"C_k = {ck:g} is not positive at k={k}; FS is undefined (k too small)")
    return math.log(ck)


def fs(H: HermitianNorms, k: int, model: ToyModel) -> FSPotential:
    """FS(H): phi(t) = (1/2k) log((1/C_k) sum_j e^{j t}/h_j)."""
    _check_level(H, k)
    return FSPotential(H, _log_ck(k, model))


@lru_cache(maxsize=None)
def _log_step_scale(k: int, model: ToyModel) -> np.ndarray:
    """log(2 pi k C_k / lambda_j(p)), read-only, with the checks of fs and hilb."""
    out = math.log(2.0 * math.pi * k) + _log_ck(k, model) - _log_lam_p(k, model)
    out.flags.writeable = False
    return out


def balanced_step(H: HermitianNorms, k: int, model: ToyModel) -> np.ndarray:
    """g = log hilb(fs(H)) - log H in one softmax pass (Donaldson's T-operator,
    arXiv:math/0512625): e^{j t - k psi} = C_k h_j W_j(t), W the softmax of j t - log h_j, so
    g_j = log(2 pi k C_k / lambda_j(p)) + log sum_i W_ji c_i at the Gram nodes t_i, with
    c_i = w_i psi''_i f^{1-p}(mu_i)/(u_i(1-u_i)), mu_i = E_W[j]/k, psi''_i = Var_W[j]/k. The
    exponent is shifted by each column's and then each row's maximum r_j, so no row underflows
    as a whole: the sum is e^{r_j} (E c/tot)_j, tot_i = sum_j e^{r_j} E_ji."""
    _check_level(H, k)
    return _balanced_pass(H.log_h, k, model)[0]


def _balanced_pass(x: np.ndarray, k: int, model: ToyModel) -> tuple[np.ndarray, Callable[[], np.ndarray]]:
    """balanced_step's g at x = log h, and a function that forms J = dg/dx once from E, the one
    (k+1) x n buffer the pass keeps. With d = j - E_W[j], var = Var_W[j], a = (1-p) f'/f(mu)/k:
    dW_ji/dx_l = W_ji (W_li - delta_jl), dc_i/dx_l = -c_i W_li ((d_li^2 - var_i)/var_i + a_i d_li), so
    J = (W c M^T)/(W c) - I with M = W (2 - d^2/var - a d), a ratio over the row-shifted E like g. J annihilates 1;
    the move of the nodes with beta, which would make it annihilate j exactly, is of the rule's error and left out."""
    logit_u, w_t = _pullback_rule()
    j = np.arange(k + 1, dtype=float)
    e = np.outer(j, logit_u + (x[-1] - x[0]) / k)
    e -= x[:, None]
    e -= e.max(axis=0)
    r = e.max(axis=1)
    e -= r[:, None]
    np.exp(e, out=e)
    er = np.exp(r)
    tot = er @ e  # W = e^r E / tot
    m1 = ((j * er) @ e) / tot
    sq = np.subtract(j[:, None], m1)
    sq *= sq
    sq *= e
    var = er @ sq  # tot Var_W[j]
    c = w_t * var * model.f(m1 / k) ** (1.0 - model.p) / (k * tot * tot)  # c_i / tot_i
    s = e @ c
    g = _log_step_scale(k, model) + r + np.log(s)

    def jacobian() -> np.ndarray:
        # m = W tot (2 - d^2/Var - a d) c/tot, Var = var/tot, in the buffer of d = j - E_W[j]
        a = 0.0 if model.xi_zero else (1.0 - model.p) / (m1 + k * model.b0)
        m = np.subtract(j[:, None], m1)
        m *= m / (var / tot) + a  # its temporary is freed before J is taken
        np.subtract(2.0, m, out=m)
        m *= e
        m *= er[:, None]
        m *= c / tot
        J = e @ m.T
        J /= s[:, None]
        J.flat[:: k + 2] -= 1.0  # the diagonal
        return J

    return g, jacobian


def bergman_density(phi: RadialPotential, k: int, model: ToyModel, weights, s: MuSample) -> np.ndarray:
    """B(mu) = f^{1-p} sum_j weights_j |s_j|^2 / G_j at the momenta of the
    jet s = phi.jet(u), with G_j the squared norms of `hilb`'s product
    int |.|^2 f^{1-p} vol_{k omega}; one buffer, once the Gram's is freed."""
    if np.shape(weights) != (k + 1,):
        raise OutOfDomain("need k+1 weights")
    log_g = _log_gram(phi, k, model)
    dens = _log_section_densities(s, k)
    dens -= log_g[:, None]
    return model.f(s.mu) ** (1.0 - model.p) * np.dot(weights, np.exp(dens, out=dens))


def rho_p(phi: RadialPotential, k: int, model: ToyModel, s: MuSample) -> np.ndarray:
    """rho(mu) = f^{1-p} sum_j lambda_j(p) |s_j|^2 / G_j (Hilb-orthonormal
    section density) at the momenta of the jet s = phi.jet(u)."""
    return bergman_density(phi, k, model, eigenvalues(k, model).lam_p, s)


# ---------------------------------------------------------------------------
# expansion and balanced metrics
# ---------------------------------------------------------------------------


class ExpansionReport(NamedTuple):
    k_list: tuple[int, ...]
    residual_sup: tuple[float, ...]
    slope: float
    leading_residual_sup: tuple[float, ...]
    leading_slope: float

    def running_slopes(self) -> list[float]:
        r, k = self.residual_sup, self.k_list
        return [math.log(r[i] / r[i - 1]) / math.log(k[i] / k[i - 1]) for i in range(1, len(k))]


def expansion_check(phi: RadialPotential, model: ToyModel, k_range: Iterable[int]) -> ExpansionReport:
    """Residual r_k = sup |(2 pi) rho - f^{1-p} - (1/4k) f^{-(p+1)} (Scal_p - c)|
    at the momenta of one jet of phi on sup_grid(), which every k reads, with
    its log-log slope (the expansion is O(k^{-2})); also the leading-term-only
    residual (slope ~ -1). One row per distinct k; ConfigError unless there
    are 4 distinct k to fit."""
    ks = sorted({int(k) for k in k_range})
    if len(ks) < 4:
        raise ConfigError(f"the expansion fit needs 4 distinct k, got {ks}")
    eigenvalues(ks[0], model)  # the power gate: OutOfDomain before a power of f below overflows or underflows
    s = phi.jet(sup_grid())
    f = model.f(s.mu)
    scal_p = weighted_scalar_toy(s, model)
    c = c_top_exact(model)
    lead = f ** (1.0 - model.p)
    second = f ** (-(model.p + 1.0)) * (scal_p - c)
    res, res_lead = [], []
    for k in ks:
        dens = 2.0 * math.pi * rho_p(phi, k, model, s)
        res.append(float(np.max(np.abs(dens - lead - second / (4.0 * k)))))
        res_lead.append(float(np.max(np.abs(dens - lead))))
    logk = np.log(ks)
    slope = float(np.polyfit(logk, np.log(res), 1)[0])
    lead_slope = float(np.polyfit(logk, np.log(res_lead), 1)[0])
    return ExpansionReport(
        k_list=tuple(ks),
        residual_sup=tuple(res),
        slope=slope,
        leading_residual_sup=tuple(res_lead),
        leading_slope=lead_slope,
    )


class BalancedResult(NamedTuple):
    H: HermitianNorms
    phi: RadialPotential
    converged: bool
    history: tuple[float, ...]
    n_iter: int


_BALANCED_STEPS = 500  # budget of evaluations of the balanced map
_BALANCED_TOL = 1e-10  # default stopping bound on the raw step sup_j |g_j|
_MIN_DAMPING = 2.0**-10  # shortest fraction of a Newton step the backtracking tries
_TOL_FLOOR = 16.0  # least tol / (eps max|log h_0|): unstopped, the raw step settles at 0.3-6.5 of these at k = 8-2048


@lru_cache(maxsize=None)
def _gauge_projector(k: int) -> np.ndarray:
    """Orthogonal projector onto the gauge span{1, j} of log h, read-only."""
    G = np.stack([np.ones(k + 1), np.arange(k + 1) - 0.5 * k], axis=1)  # orthogonal columns
    G /= np.linalg.norm(G, axis=0)
    return _read_only((G @ G.T,))[0]


def balanced_iterate(
    phi0: RadialPotential,
    k: int,
    model: ToyModel,
    tol: float = _BALANCED_TOL,
) -> BalancedResult:
    """Fixed point of T: log h -> log hilb(fs(h)) from x_0 = log hilb(phi_0), by Newton's method
    on g = T(x) - x, with g and its Jacobian J from balanced_step's one pass. T commutes with the
    gauge log h -> log h + k a + j b, so J annihilates span{1, j} (the weighted mode has only a
    relative fixed point, a steady gauge drift). A step solves (J + P) delta = -g, P the projector
    onto the gauge, and halves (Armijo, 1e-4 of the slope of |g - P g|^2) down to _MIN_DAMPING,
    where it takes the last trial. n_iter and history count every evaluation of g, trials included.

    Converged when the raw step sup_j |g_j| < tol: H = x + g is then within sup|g| / (1 - r)
    of the fixed-point set, r the contraction rate of T. Raises NoConvergence, naming the last
    raw step and the last step modulo span{1, j}, once the latter is below tol and the former
    is not (the relative fixed point), or after _BALANCED_STEPS evaluations. ConfigError, before
    the first evaluation, unless tol is above _TOL_FLOOR eps max|log h_0|, h_0 = hilb(phi_0)."""
    x = hilb(phi0, k, model).log_h  # names k < 1 before the projector divides by 0
    if not tol > (floor := _TOL_FLOOR * math.ulp(1.0) * float(abs(x).max())):
        raise ConfigError(f"tol={tol:g} at k={k} is not above the balanced step's rounding floor "
                          f"{_TOL_FLOOR:g} eps max|log h_0| = {floor:.3g}")
    P = _gauge_projector(k)
    history, damping, base_merit = [], 1.0, math.inf
    for n in range(1, _BALANCED_STEPS + 1):
        g, jacobian = _balanced_pass(x, k, model)
        step = float(abs(g).max())
        history.append(step)
        if step < tol:
            H = HermitianNorms(k=k, log_h=x + g)
            return BalancedResult(H=H, phi=fs(H, k, model), converged=True, history=tuple(history), n_iter=n)
        gq = g - P @ g
        quotient = float(abs(gq).max())
        merit = float(gq @ gq)
        if not merit <= (1.0 - 2e-4 * damping) * base_merit and damping > _MIN_DAMPING:
            damping *= 0.5
            x = base + damping * delta
            continue
        if quotient < tol:
            break
        base, base_merit, damping = x, merit, 1.0
        J = jacobian()
        delta = np.linalg.solve(np.add(J, P, out=J), -g)  # one (k+1)^2 matrix per step
        x = base + delta
    raise NoConvergence(f"balanced iteration did not reach tol={tol:g} in {n} steps: last raw step "
                        f"{step:.3g}, last step modulo span{{1, j}} {quotient:.3g}")


class BalancedDefects(NamedTuple):
    residual: float  # sup |rho_p(k phi) - C_k f^{1-p}|
    scal_dev: float  # sup |Scal_p - c|


def balanced_defects(phi: RadialPotential, k: int, model: ToyModel) -> BalancedDefects:
    """How far phi = FS(H) of a balanced result is from balanced and from
    constant weighted curvature, both read off one jet of phi: the sups run
    over the momenta psi'(logit u + beta) for u on sup_grid() (u itself for
    a momentum-native phi)."""
    s = phi.jet(sup_grid())
    rho = rho_p(phi, k, model, s)
    return BalancedDefects(
        residual=float(np.max(np.abs(rho - c_k_constant(k, model) * model.f(s.mu) ** (1.0 - model.p)))),
        scal_dev=float(np.max(np.abs(weighted_scalar_toy(s, model) - c_top_exact(model)))),
    )
