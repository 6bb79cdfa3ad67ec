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
one-dimensional quadrature plus vector algebra.

Volume convention: vol_{k omega} = k^m vol_omega with m = 1, i.e. 2 pi k dmu.
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Iterable, NamedTuple, Sequence

import numpy as np
from numpy.polynomial import chebyshev as cheb

from .errors import NoConvergence, NotAdmissible, OutOfDomain, WeightSignError
from .numerics import chebyshev_coefficients, gauss_legendre
from .tolerances import TOL

__all__ = [
    "ToyModel",
    "RadialPotential",
    "MuSample",
    "TSample",
    "ProfilePotential",
    "FSPotential",
    "BlendPotential",
    "round_potential",
    "shift_potential",
    "random_potential",
    "boundary_report",
    "SpectrumData",
    "HermitianNorms",
    "eigenvalues",
    "c_top",
    "c_top_exact",
    "hilb",
    "fs",
    "c_k_constant",
    "bergman_density",
    "rho_p",
    "ExpansionReport",
    "expansion_check",
    "BalancedResult",
    "balanced_iterate",
    "balanced_residual",
    "sup_grid",
]

_MU_LO, _MU_HI, _MU_N = 0.02, 0.98, 193


def sup_grid() -> np.ndarray:
    """Uniform interior momentum grid on which sup-norms are reported."""
    return np.linspace(_MU_LO, _MU_HI, _MU_N)


def _mu_rule():
    return gauss_legendre(TOL.quad_order_quant, 0.0, 1.0)


def _xlogx(x: np.ndarray) -> np.ndarray:
    """x log x, with its limit 0 at x = 0."""
    return x * np.log(np.where(x == 0.0, 1.0, x))


@dataclass(frozen=True)
class ToyModel:
    """Weight data: Killing potential f = mu + b0 and exponent p.

    b0 = math.inf selects the degenerate (xi = 0) mode: the weight field
    vanishes, f is normalized to the constant 1, and the spectrum collapses
    to a single (k+1)-dimensional block.
    """

    b0: float = math.inf
    p: float = 4.0

    def __post_init__(self) -> None:
        if not (self.b0 == math.inf or self.b0 >= 0.0):
            raise OutOfDomain("b0 must be >= 0 (or inf for the xi=0 mode)")
        if not np.isfinite(self.p):
            raise OutOfDomain("p must be finite")

    @property
    def xi_zero(self) -> bool:
        return self.b0 == math.inf

    @property
    def a0(self) -> float:
        return 1.0 if self.xi_zero else self.b0

    @property
    def a1(self) -> float:
        return 1.0 if self.xi_zero else self.b0 + 1.0

    def f(self, mu):
        mu = np.asarray(mu, dtype=float)
        if self.xi_zero:
            out = np.ones_like(mu)
        else:
            out = mu + self.b0
        return out if out.ndim else float(out)


# ---------------------------------------------------------------------------
# radial potentials
# ---------------------------------------------------------------------------


class MuSample(NamedTuple):
    """A potential on the momentum side: t(mu) = v'(mu), v, S, S', S''."""

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


# rounding level of a residual or step, relative: the cumulant sums of an
# FS potential carry up to ~7 eps at k = 512
_ROUNDING = 16.0 * np.finfo(float).eps
_MAX_STEP = 1.0  # longest Newton step: a factor e in mu where mu ~ e^t
_MAX_ITER = 100


def _momenta(mu) -> np.ndarray:
    mu = np.asarray(mu, dtype=float)
    if np.any(mu <= 0.0) or np.any(mu >= 1.0):
        raise OutOfDomain("momentum-side evaluation requires mu in (0,1)")
    return mu


def _invert(sample: Callable, slope: Callable, x: np.ndarray, target: np.ndarray, lo: float, hi: float):
    """Safeguarded Newton for g(x) = target, g increasing, with g and g'
    read off the native sample: `slope(s)` returns (g, g') of s = sample(x).

    A step is cut to _MAX_STEP; one that leaves the bracket [a, b] known to
    hold the root (lo, hi to start, infinite ends allowed) bisects it, and
    landing exactly on a bracket end is accepted. Once the residual or the
    step of a point is at rounding level (near |t| = 30 one ulp of mu moves
    t by ~1e-3, so the residual alone cannot get there), the point takes
    one more Newton step, which squares the error left within that band,
    and stops. Returns the root and the native sample at it."""
    a = np.full(x.shape, lo)
    b = np.full(x.shape, hi)
    settled = np.zeros(x.shape, dtype=bool)
    for _ in range(_MAX_ITER):
        s = sample(x)
        g, dg = slope(s)
        r = g - target
        done = settled | (r == 0.0)
        if np.all(done):
            return x, s
        a = np.where(r < 0.0, x, a)
        b = np.where(r > 0.0, x, b)
        with np.errstate(divide="ignore", invalid="ignore"):
            step = np.clip(r / dg, -_MAX_STEP, _MAX_STEP)
            mid = 0.5 * (a + b)
        settled |= (np.abs(r) <= _ROUNDING * np.abs(target)) | (np.abs(step) <= _ROUNDING * np.abs(x))
        nxt = x - step
        x = np.where(done, x, np.where((a <= nxt) & (nxt <= b), nxt, mid))
    raise NoConvergence(f"mu<->t inversion did not converge in {_MAX_ITER} steps")


class RadialPotential(ABC):
    """Invariant potential, exposed on both sides of the Legendre transform.

    Momentum side: profile S (with derivatives), symplectic potential v and
    t(mu) = v'(mu). Log-radial side: psi(t) = 2 phi(t) with derivatives up
    to fourth order. A subclass samples its native side in one pass and the
    other side through one inversion and the chain rules

        psi'' = S/2,   psi''' = S S'/4,   psi'''' = S (S'^2 + S S'')/8,
        S = 2 psi'',   S' = 2 psi'''/psi'',
        S'' = 2 (psi'''' psi'' - psi'''^2)/psi''^3.
    """

    @abstractmethod
    def at_mu(self, mu) -> MuSample: ...

    @abstractmethod
    def at_t(self, t) -> TSample: ...


class _TNativePotential(RadialPotential):
    """Base for potentials native on the log-radial side; the momentum side
    comes from inverting mu(t) = psi'(t) (dmu/dt = psi''), started at the
    round value t = log(mu/(1-mu))."""

    def at_mu(self, mu) -> MuSample:
        mu = _momenta(mu)
        t, s = _invert(self.at_t, lambda s: (s.mu, s.psi2), np.log(mu / (1.0 - mu)), mu, -np.inf, np.inf)
        return MuSample(t, mu * t - s.psi, *_s_jet(s.psi2, s.psi3, s.psi4))


def _s_jet(p2, p3, p4) -> tuple:
    """S, S', S'' from psi'', psi''', psi'''' by the chain rules of RadialPotential."""
    return 2.0 * p2, 2.0 * p3 / p2, 2.0 * (p4 * p2 - p3 * p3) / p2**3


class ProfilePotential(RadialPotential):
    """Momentum-native potential S(mu) = 2 mu (1-mu) q(mu), q > 0, q(0)=q(1)=1.

    The symplectic potential is reconstructed from v'' = 2/S:
    v = v_0 + R with v_0 = mu log mu + (1-mu) log(1-mu), R'' = r,
    r = (1-q)/(q mu (1-mu)) (bounded), anchored R(1/2) = R'(1/2) = 0.
    The log-radial side inverts t(mu) (dt/dmu = 2/S), started at the round
    value mu = 1/(1+e^{-t}); above t ~ 36.7 that value rounds to 1 and the
    inversion raises OutOfDomain.
    """

    _N = 160

    def __init__(self, q_fn: Callable):
        x = cheb.chebpts1(self._N)
        mu = 0.5 * (x + 1.0)
        qv = np.asarray(q_fn(mu), dtype=float)
        if np.any(qv <= 0.0):
            raise NotAdmissible("q = S/S_round must be positive")
        qc = chebyshev_coefficients(qv, self._N - 10)
        r = (1.0 - qv) / (qv * mu * (1.0 - mu))
        rc = chebyshev_coefficients(r, self._N - 10)
        Rc = cheb.chebint(cheb.chebint(rc)) * 0.25  # d/dmu = 2 d/dx
        # columns q, q', q'', R, R' (in mu), zero-padded to one length so a
        # single Clenshaw pass evaluates all five
        dq = 2.0 * cheb.chebder(qc)
        dR = 2.0 * cheb.chebder(Rc)
        cols = (qc, dq, 2.0 * cheb.chebder(dq), Rc, dR)
        self._series = np.zeros((len(Rc), len(cols)))
        for i, c in enumerate(cols):
            self._series[: len(c), i] = c
        self._series.flags.writeable = False
        self._R_aff = (float(cheb.chebval(0.0, Rc)), float(cheb.chebval(0.0, dR)))
        rep = boundary_report(self)
        if not rep.passes:
            raise NotAdmissible(f"profile boundary defects too large: {rep.defects}")

    def at_mu(self, mu) -> MuSample:
        mu = _momenta(mu)
        q, dq, d2q, R, dR = cheb.chebval(2.0 * mu - 1.0, self._series)
        a, b = self._R_aff
        return MuSample(
            t=np.log(mu) - np.log(1.0 - mu) + (dR - b),
            v=_xlogx(mu) + _xlogx(1.0 - mu) + (R - a - b * (mu - 0.5)),
            S=2.0 * mu * (1.0 - mu) * q,
            dS=2.0 * (1.0 - 2.0 * mu) * q + 2.0 * mu * (1.0 - mu) * dq,
            d2S=-4.0 * q + 4.0 * (1.0 - 2.0 * mu) * dq + 2.0 * mu * (1.0 - mu) * d2q,
        )

    def at_t(self, t) -> TSample:
        t = np.asarray(t, dtype=float)
        mu, s = _invert(self.at_mu, lambda s: (s.t, 2.0 / s.S), 1.0 / (1.0 + np.exp(-t)), t, 0.0, 1.0)
        return TSample(
            mu=mu,
            psi=mu * t - s.v,
            psi2=s.S / 2.0,
            psi3=s.S * s.dS / 4.0,
            psi4=s.S * (s.dS * s.dS + s.S * s.d2S) / 8.0,
        )


class FSPotential(_TNativePotential):
    """psi(t) = (1/k)(log sum_j e^{j t}/h_j - log C_k): the projective
    potential induced by Hermitian norms. Always admissible by structure."""

    def __init__(self, k: int, log_h: np.ndarray, log_ck: float):
        self.k = int(k)
        self.log_h = np.asarray(log_h, dtype=float)
        self.log_ck = float(log_ck)
        self._j = np.arange(self.k + 1, dtype=float)

    def at_t(self, t) -> TSample:
        # psi'..psi'''' are the first four cumulants of j under the softmax
        # weights, divided by k; all five come from one exponential
        t = np.asarray(t, dtype=float)
        sc = np.outer(self._j, t.ravel()) - self.log_h[:, None]
        top = np.max(sc, axis=0)
        e = np.exp(sc - top)
        tot = np.sum(e, axis=0)
        # softmax normalized by its sum: exp(sc - logsumexp(sc)) would put the
        # absolute rounding of logsumexp (~|sc| eps) into every weight, and
        # the cumulant cancellations of psi'''' amplify it
        w = e / tot
        m1 = self._j @ w
        # central moments from products only: float `pow` costs ~7x the rest
        d = self._j[:, None] - m1[None, :]
        wd2 = w * d * d
        k2 = np.sum(wd2, axis=0)
        s = TSample(
            mu=m1 / self.k,
            psi=(np.log(tot) + top - self.log_ck) / self.k,
            psi2=k2 / self.k,
            psi3=np.sum(wd2 * d, axis=0) / self.k,
            psi4=(np.sum(wd2 * d * d, axis=0) - 3.0 * k2 * k2) / self.k,
        )
        return TSample(*(f.reshape(t.shape) for f in s))


class BlendPotential(_TNativePotential):
    """Affine combination sum_i w_i psi_i on the log-radial side (the
    straight lines of the psi-affine structure; convex weights keep psi'' > 0)."""

    def __init__(self, parts: Sequence[tuple[float, RadialPotential]]):
        if not parts:
            raise OutOfDomain("need at least one component")
        self.parts = [(float(w), p) for w, p in parts]

    def at_t(self, t) -> TSample:
        # every field of a t-sample is linear in psi
        samples = [(w, p.at_t(t)) for w, p in self.parts]
        return TSample(*(sum(w * s[i] for w, s in samples) for i in range(len(TSample._fields))))


class _ShiftedPotential(RadialPotential):
    """phi + s: psi shifted by the constant 2s (so v by -2s), metric unchanged."""

    def __init__(self, base: RadialPotential, s: float):
        self.base = base
        self.s = float(s)

    def at_mu(self, mu) -> MuSample:
        out = self.base.at_mu(mu)
        return out._replace(v=out.v - 2.0 * self.s)

    def at_t(self, t) -> TSample:
        out = self.base.at_t(t)
        return out._replace(psi=out.psi + 2.0 * self.s)


def shift_potential(phi: RadialPotential, s: float) -> RadialPotential:
    """The potential phi + s (adds the constant 2s to psi = 2 phi)."""
    return _ShiftedPotential(phi, s)


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
        g = np.zeros_like(mu)
        for c in co[::-1]:
            g = g * mu + c
        return np.exp(mu * (1.0 - mu) * g)

    return ProfilePotential(q)


@dataclass(frozen=True)
class ToyBoundaryReport:
    passes: bool
    defects: tuple[float, float, float, float]


def boundary_report(phi: RadialPotential) -> ToyBoundaryReport:
    """Defects (S(0), S(1), S'(0)-2, S'(1)+2), endpoint values obtained by
    Richardson extrapolation from interior samples (t-native potentials
    cannot be evaluated at the closed endpoints)."""
    h = 1e-6
    s = phi.at_mu(np.array([h, 2 * h, 1.0 - h, 1.0 - 2 * h]))
    S0, S1 = 2.0 * s.S[0] - s.S[1], 2.0 * s.S[2] - s.S[3]
    dS0, dS1 = 2.0 * s.dS[0] - s.dS[1], 2.0 * s.dS[2] - s.dS[3]
    d = (float(S0), float(S1), float(dS0) - 2.0, float(dS1) + 2.0)
    return ToyBoundaryReport(passes=bool(max(abs(x) for x in d) < TOL.boundary_defect), defects=d)


# ---------------------------------------------------------------------------
# spectrum, norms, quantization maps
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SpectrumData:
    lam: np.ndarray      # lambda_j = b0 + j/k  (all 1 in the xi=0 mode)
    lam_p: np.ndarray    # lambda_j^{1-p} - (c/4k) lambda_j^{-(p+1)}
    c: float

    @property
    def blocks(self) -> tuple[tuple[int, ...], ...]:
        """Indices grouped by distinct eigenvalue."""
        out: list[list[int]] = []
        last = None
        for i, lam in enumerate(self.lam):
            if last is not None and lam == last:
                out[-1].append(i)
            else:
                out.append([i])
            last = lam
        return tuple(tuple(b) for b in out)


@dataclass(frozen=True)
class HermitianNorms:
    """Diagonal Hermitian data: log h_j for the monomial eigensections."""

    k: int
    log_h: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "log_h", np.asarray(self.log_h, dtype=float))
        if self.k < 1:
            raise OutOfDomain("k must be >= 1")
        if self.log_h.shape != (self.k + 1,):
            raise OutOfDomain("need k+1 norms")
        if not np.all(np.isfinite(self.log_h)):
            raise OutOfDomain("norms must be positive and finite")


def eigenvalues(k: int, model: ToyModel, check_weights: bool = True) -> SpectrumData:
    """lambda_j = b0 + j/k and the twisted weights lambda_j(p).

    check_weights=False skips the positivity gate on lambda(p) (useful when
    only the raw lambda sequence is wanted; every map that divides by
    lambda(p) re-checks)."""
    if k < 1:
        raise OutOfDomain("k must be >= 1")
    j = np.arange(k + 1, dtype=float)
    if model.xi_zero:
        lam = np.ones(k + 1)
    else:
        lam = model.b0 + j / k
    c = c_top_exact(model)
    lam_p = lam ** (1.0 - model.p) - (c / (4.0 * k)) * lam ** (-(model.p + 1.0))
    if check_weights and np.any(lam_p <= 0.0):
        raise WeightSignError(
            f"lambda(p) has non-positive entries at k={k} (k too small for this (p, b0))"
        )
    return SpectrumData(lam=lam, lam_p=lam_p, c=c)


def c_top_exact(model: ToyModel) -> float:
    """Class constant in closed form (from the exact total derivative
    [-S' f^{1-p} + (p-1) S f^{-p}]' of the weighted-curvature integrand):
    c = 2p (a0^{1-p} + a1^{1-p}) / (a0^{-p} - a1^{-p}); 4 in the xi=0 mode."""
    if model.xi_zero:
        return 4.0
    a0, a1, p = model.a0, model.a1, model.p
    if p == 0.0:
        # limit p -> 0 of the closed form
        return 2.0 * (a0 + a1) / (a0 * a1 * math.log(a1 / a0)) * (a1 - a0)
    return 2.0 * p * (a0 ** (1.0 - p) + a1 ** (1.0 - p)) / (a0 ** (-p) - a1 ** (-p))


def c_top(phi: RadialPotential, model: ToyModel) -> float:
    """Class constant by quadrature of its defining ratio
    int Scal_p f^{-(p+1)} vol / int f^{-(p+1)} vol (metric-independence is a
    tested invariant; c_top_exact is the closed form)."""
    rule = _mu_rule()
    mu = rule.nodes
    scal_p = weighted_scalar_toy(phi, model)(mu)
    w = model.f(mu) ** (-(model.p + 1.0))
    num = float(np.dot(rule.weights, scal_p * w))
    den = float(np.dot(rule.weights, w))
    return num / den


def weighted_scalar_toy(phi: RadialPotential, model: ToyModel) -> Callable:
    """Scal_p(mu) = f^2 (-S'') + 2(p-1) f S' - p(p-1) S (plain -S'' when
    the weight field is zero)."""

    def scal_p(mu):
        mu = np.asarray(mu, dtype=float)
        s = phi.at_mu(mu)
        out = _scal_p(model, mu, s.S, s.dS, s.d2S)
        return out if out.ndim else float(out)

    return scal_p


def _scal_p(model: ToyModel, mu, S, dS, d2S):
    """Scal_p at the momenta mu from the profile jet S, S', S''."""
    if model.xi_zero:
        return -d2S
    f = model.f(mu)
    p = model.p
    return f * f * (-d2S) + 2.0 * (p - 1.0) * f * dS - p * (p - 1.0) * S


def _log_section_densities(s: MuSample, k: int, mu: np.ndarray) -> np.ndarray:
    """Matrix E with E[j, q] = log |s_j|^2_{k phi}(mu_q) = k v + (j - k mu) t,
    from the sample s = phi.at_mu(mu)."""
    j = np.arange(k + 1, dtype=float)[:, None]
    return k * s.v[None, :] + (j - k * mu[None, :]) * s.t[None, :]


@lru_cache(maxsize=1)
def _round_mu_sample() -> MuSample:
    """The round reference on the momentum nodes of _mu_rule(), sampled once
    per process; its arrays are read-only."""
    sample = round_potential().at_mu(_mu_rule().nodes)
    for a in sample:
        a.flags.writeable = False
    return sample


def _mu_sample(phi: RadialPotential) -> MuSample:
    """phi on the momentum nodes of _mu_rule(): the one sample its Gram
    matrices need, for every k (the round reference from the memo)."""
    return _round_mu_sample() if phi is round_potential() else phi.at_mu(_mu_rule().nodes)


def _log_gram(s: MuSample, k: int, log_psi: np.ndarray) -> np.ndarray:
    """log G_j, G_j = int |s_j|^2 Psi(f) vol_{k omega} = 2 pi k int e^{E_j} Psi(f) dmu,
    from s = _mu_sample(phi) and log Psi(f) on the nodes of _mu_rule()."""
    rule = _mu_rule()
    a = _log_section_densities(s, k, rule.nodes) + (np.log(rule.weights) + log_psi)[None, :]
    m = np.max(a, axis=1, keepdims=True)  # log-sum-exp shifted by the row maximum: exp cannot overflow
    return np.log(np.sum(np.exp(a - m), axis=1)) + m[:, 0] + math.log(2.0 * math.pi * k)


def hilb(phi: RadialPotential, k: int, model: ToyModel) -> HermitianNorms:
    """h_j = (1/lambda_j(p)) int |s_j|^2_{k phi} f^{1-p} vol_{k omega}."""
    return _hilb(_mu_sample(phi), k, model)


def _hilb(s: MuSample, k: int, model: ToyModel) -> HermitianNorms:
    """hilb of the potential sampled as s = _mu_sample(phi)."""
    spec = eigenvalues(k, model)
    log_g = _log_gram(s, k, (1.0 - model.p) * np.log(model.f(_mu_rule().nodes)))
    return HermitianNorms(k=k, log_h=log_g - np.log(spec.lam_p))


@lru_cache(maxsize=None)
def c_k_constant(k: int, model: ToyModel) -> float:
    """C_k = sum_j lambda_j(p) / int f^{1-p} vol_{k omega}; the volume
    bookkeeping is pinned by (2 pi) C_k = 1 + O(k^{-2}). Memoized: `fs`
    needs it on every balanced step."""
    spec = eigenvalues(k, model, check_weights=False)
    rule = _mu_rule()
    den = 2.0 * math.pi * k * float(np.dot(rule.weights, model.f(rule.nodes) ** (1.0 - model.p)))
    return float(np.sum(spec.lam_p)) / den


def fs(H: HermitianNorms, k: int, model: ToyModel) -> FSPotential:
    """FS(H): phi(t) = (1/2k) log((1/C_k) sum_j e^{j t}/h_j)."""
    if k != H.k:
        raise OutOfDomain(f"k={k} does not match the norms (k={H.k})")
    ck = c_k_constant(k, model)
    if ck <= 0.0:
        raise WeightSignError(
            f"C_k = {ck:g} is not positive at k={k}; FS is undefined (k too small)"
        )
    return FSPotential(k, H.log_h, math.log(ck))


def bergman_density(
    phi: RadialPotential,
    k: int,
    model: ToyModel,
    Psi: Callable[[np.ndarray], np.ndarray],
    Phi: Callable[[np.ndarray], np.ndarray],
) -> Callable:
    """B(mu) = Psi(f) sum_j Phi(lambda_j) |s_j|^2 / G_j with G_j the squared
    norms for the weighted product int |.|^2 Psi(f) vol_{k omega}."""
    spec = eigenvalues(k, model, check_weights=False)
    log_psi = np.log(np.asarray(Psi(model.f(_mu_rule().nodes)), dtype=float))
    log_g = _log_gram(_mu_sample(phi), k, log_psi)
    phi_lam = np.asarray(Phi(spec.lam), dtype=float)

    def B(mu):
        mu = np.atleast_1d(np.asarray(mu, dtype=float))
        E = _log_section_densities(phi.at_mu(mu), k, mu)
        dens = np.exp(E - log_g[:, None])
        return np.asarray(Psi(model.f(mu)), dtype=float) * np.einsum("j,jq->q", phi_lam, dens)

    return B


def rho_p(phi: RadialPotential, k: int, model: ToyModel) -> Callable:
    """rho(mu) = f^{1-p} sum_j lambda_j(p) |s_j|^2 / G_j (Hilb-orthonormal
    section density)."""
    spec = eigenvalues(k, model)
    log_g = _log_gram(_mu_sample(phi), k, (1.0 - model.p) * np.log(model.f(_mu_rule().nodes)))

    def rho(mu):
        mu = np.atleast_1d(np.asarray(mu, dtype=float))
        E = _log_section_densities(phi.at_mu(mu), k, mu)
        dens = np.exp(E - log_g[:, None])
        return model.f(mu) ** (1.0 - model.p) * np.einsum("j,jq->q", spec.lam_p, dens)

    return rho


# ---------------------------------------------------------------------------
# expansion and balanced metrics
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ExpansionReport:
    k_list: tuple[int, ...]
    residual_sup: tuple[float, ...]
    slope: float
    leading_residual_sup: tuple[float, ...]
    leading_slope: float

    def running_slopes(self) -> list[float]:
        out = []
        for i in range(1, len(self.k_list)):
            out.append(
                math.log(self.residual_sup[i] / self.residual_sup[i - 1])
                / math.log(self.k_list[i] / self.k_list[i - 1])
            )
        return out


def expansion_check(phi: RadialPotential, model: ToyModel, k_range: Iterable[int]) -> ExpansionReport:
    """Residual r_k = sup |(2 pi) rho - f^{1-p} - (1/4k) f^{-(p+1)} (Scal_p - c)|
    on the interior grid, with its log-log slope (the expansion is O(k^{-2}));
    also the leading-term-only residual (slope ~ -1)."""
    ks = sorted(int(k) for k in k_range)
    if len(ks) < 4:
        raise OutOfDomain("need at least 4 values of k")
    mu = sup_grid()
    f = model.f(mu)
    scal_p = weighted_scalar_toy(phi, model)(mu)
    c = c_top_exact(model)
    lead = f ** (1.0 - model.p)
    second = f ** (-(model.p + 1.0)) * (scal_p - c)
    res, res_lead = [], []
    for k in ks:
        dens = 2.0 * math.pi * rho_p(phi, k, model)(mu)
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


@dataclass(frozen=True)
class BalancedResult:
    H: HermitianNorms
    phi: RadialPotential
    converged: bool
    history: tuple[float, ...]
    n_iter: int


_ANDERSON_DEPTH = 8  # residual differences the balanced mixing keeps


def balanced_iterate(
    phi0: RadialPotential,
    k: int,
    model: ToyModel,
    max_iter: int = 500,
    tol: float = TOL.balanced_tol,
) -> BalancedResult:
    """Fixed point of T: log h -> log hilb(fs(h)) from x_0 = log hilb(phi_0),
    by Anderson mixing on x = log h (Walker-Ni, SIAM J. Numer. Anal. 2011).

    Each step evaluates g = T(x) - x. T commutes with the gauge
    log h -> log h + k a + j b, so its fixed points form an orbit (and in the
    weighted mode there is only a relative fixed point, a steady gauge
    drift); the mixing coefficients gamma therefore fit g by the last
    _ANDERSON_DEPTH differences of g in least squares modulo span{1, j}.
    The next iterate is x + g - (dX + dG) gamma; with no history that is
    the plain step T(x).

    Converged when the raw step sup_j |g_j| < tol: H = x + g is then
    within sup|g| / (1 - r) of the fixed-point set, r the contraction rate
    of T. Raises NoConvergence after max_iter, naming the last raw step and
    the last step modulo span{1, j}."""
    j = np.arange(k + 1, dtype=float)
    gauge = np.linalg.qr(np.stack([np.ones_like(j), j], axis=1))[0]
    x = hilb(phi0, k, model).log_h
    dX: list[np.ndarray] = []
    dG: list[np.ndarray] = []
    history = []
    step = quotient = math.nan
    for n in range(max_iter):
        g = hilb(fs(HermitianNorms(k=k, log_h=x), k, model), k, model).log_h - x
        step = float(np.max(np.abs(g)))
        history.append(step)
        if step < tol:
            H = HermitianNorms(k=k, log_h=x + g)
            return BalancedResult(
                H=H, phi=fs(H, k, model), converged=True, history=tuple(history), n_iter=n + 1
            )
        gq = g - gauge @ (gauge.T @ g)
        quotient = float(np.max(np.abs(gq)))
        if n:
            dX = [*dX, x - x_prev][-_ANDERSON_DEPTH:]
            dG = [*dG, g - g_prev][-_ANDERSON_DEPTH:]
        x_prev, g_prev = x, g
        x = x + g
        if dG:
            DX, DG = np.stack(dX, axis=1), np.stack(dG, axis=1)
            gamma = np.linalg.lstsq(DG - gauge @ (gauge.T @ DG), gq, rcond=None)[0]
            x = x - (DX + DG) @ gamma
    raise NoConvergence(
        f"balanced iteration did not reach tol={tol:g} in {max_iter} steps: last raw step "
        f"{step:.3g}, last step modulo span{{1, j}} {quotient:.3g}"
    )


def balanced_residual(H: HermitianNorms, k: int, model: ToyModel) -> float:
    """sup over the interior grid of |rho_p(k phi*) - C_k f^{1-p}| at phi* = FS(H)."""
    phi = fs(H, k, model)
    mu = sup_grid()
    ck = c_k_constant(k, model)
    return float(np.max(np.abs(rho_p(phi, k, model)(mu) - ck * model.f(mu) ** (1.0 - model.p))))
