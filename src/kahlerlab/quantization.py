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
from typing import Callable, Iterable, Sequence

import numpy as np
from numpy.polynomial import chebyshev as cheb

from .errors import NoConvergence, NotAdmissible, OutOfDomain, WeightSignError
from .numerics import gauss_legendre
from .tolerances import TOL

__all__ = [
    "ToyModel",
    "RadialPotential",
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


def _logsumexp(a: np.ndarray, axis: int) -> np.ndarray:
    """log sum exp(a) along `axis`, shifted by the maximum so exp cannot overflow."""
    m = np.max(a, axis=axis, keepdims=True)
    return np.log(np.sum(np.exp(a - m), axis=axis)) + np.squeeze(m, axis=axis)


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


def _invert_monotone(g: Callable, targets: np.ndarray, lo: float, hi: float) -> np.ndarray:
    """Solve g(x) = target componentwise for increasing vectorized g,
    expanding the initial bracket as needed; bisection to double precision."""
    targets = np.asarray(targets, dtype=float)
    tmin, tmax = float(targets.min()), float(targets.max())
    width = hi - lo
    for _ in range(60):
        if float(g(np.array([lo]))[0]) < tmin:
            break
        lo -= width
        width *= 2.0
    else:
        raise NoConvergence("could not bracket the inverse from below")
    width = hi - lo
    for _ in range(60):
        if float(g(np.array([hi]))[0]) > tmax:
            break
        hi += width
        width *= 2.0
    else:
        raise NoConvergence("could not bracket the inverse from above")
    a = np.full(targets.shape, lo)
    b = np.full(targets.shape, hi)
    for _ in range(90):
        m = 0.5 * (a + b)
        below = g(m) < targets
        a = np.where(below, m, a)
        b = np.where(below, b, m)
    return 0.5 * (a + b)


class RadialPotential(ABC):
    """Invariant potential, exposed on both sides of the Legendre transform.

    Momentum side: profile S (with derivatives), symplectic potential v and
    t(mu) = v'(mu). Log-radial side: psi(t) = 2 phi(t) with derivatives up
    to fourth order. A subclass implements its native side; the base class
    supplies the other through monotone inversion and the chain rules

        psi'' = S/2,   psi''' = S S'/4,   psi'''' = S (S'^2 + S S'')/8,
        S = 2 psi'',   S' = 2 psi'''/psi'',
        S'' = 2 (psi'''' psi'' - psi'''^2)/psi''^3.
    """

    # -- momentum-native side ------------------------------------------------

    @abstractmethod
    def S(self, mu): ...

    @abstractmethod
    def dS(self, mu): ...

    @abstractmethod
    def d2S(self, mu): ...

    @abstractmethod
    def v(self, mu): ...

    @abstractmethod
    def t_of_mu(self, mu): ...

    # -- log-radial side -------------------------------------------------------

    def mu_of_t(self, t):
        # invert the increasing interior map mu -> t; t outside the sampled
        # range clamps to the window edge (the maps saturate there anyway);
        # the wide window keeps t up to ~|log 1e-15| ~ 34 clamp-free, which
        # the fixed t-quadrature of the functionals relies on
        t = np.atleast_1d(np.asarray(t, dtype=float))
        lo, hi = 1e-15, 1.0 - 1e-15
        a = np.full(t.shape, lo)
        b = np.full(t.shape, hi)
        ta = np.asarray(self.t_of_mu(a), dtype=float)
        tb = np.asarray(self.t_of_mu(b), dtype=float)
        out = np.empty_like(t)
        low_mask = t <= ta
        high_mask = t >= tb
        out[low_mask] = lo
        out[high_mask] = hi
        mid_mask = ~(low_mask | high_mask)
        if np.any(mid_mask):
            a2 = np.full(mid_mask.sum(), lo)
            b2 = np.full(mid_mask.sum(), hi)
            tt = t[mid_mask]
            for _ in range(90):
                m = 0.5 * (a2 + b2)
                below = np.asarray(self.t_of_mu(m), dtype=float) < tt
                a2 = np.where(below, m, a2)
                b2 = np.where(below, b2, m)
            out[mid_mask] = 0.5 * (a2 + b2)
        return out

    def psi(self, t):
        t = np.asarray(t, dtype=float)
        mu = self.mu_of_t(t)
        return mu * t - self.v(mu)

    def psi2(self, t):
        return self.S(self.mu_of_t(t)) / 2.0

    def psi3(self, t):
        mu = self.mu_of_t(t)
        return self.S(mu) * self.dS(mu) / 4.0

    def psi4(self, t):
        mu = self.mu_of_t(t)
        s, s1, s2 = self.S(mu), self.dS(mu), self.d2S(mu)
        return s * (s1 * s1 + s * s2) / 8.0


class _TNativePotential(RadialPotential):
    """Base for potentials native on the log-radial side; the momentum-side
    API is derived via inversion of mu(t) = psi'(t)."""

    @abstractmethod
    def _psi_native(self, t): ...

    @abstractmethod
    def _dpsi(self, t, order: int): ...

    # log-radial side is native
    def psi(self, t):
        return self._psi_native(np.asarray(t, dtype=float))

    def mu_of_t(self, t):
        return self._dpsi(np.asarray(t, dtype=float), 1)

    def psi2(self, t):
        return self._dpsi(np.asarray(t, dtype=float), 2)

    def psi3(self, t):
        return self._dpsi(np.asarray(t, dtype=float), 3)

    def psi4(self, t):
        return self._dpsi(np.asarray(t, dtype=float), 4)

    # momentum side derived
    def t_of_mu(self, mu):
        mu = np.atleast_1d(np.asarray(mu, dtype=float))
        if np.any(mu <= 0.0) or np.any(mu >= 1.0):
            raise OutOfDomain("momentum-side evaluation requires mu in (0,1)")
        return _invert_monotone(lambda t: self._dpsi(t, 1), mu, -60.0, 60.0)

    def v(self, mu):
        mu = np.asarray(mu, dtype=float)
        t = self.t_of_mu(mu)
        return mu * t - self.psi(t)

    def S(self, mu):
        return 2.0 * self.psi2(self.t_of_mu(mu))

    def dS(self, mu):
        t = self.t_of_mu(mu)
        return 2.0 * self.psi3(t) / self.psi2(t)

    def d2S(self, mu):
        t = self.t_of_mu(mu)
        p2, p3, p4 = self.psi2(t), self.psi3(t), self.psi4(t)
        return 2.0 * (p4 * p2 - p3 * p3) / p2**3


class ProfilePotential(RadialPotential):
    """Momentum-native potential S(mu) = 2 mu (1-mu) q(mu), q > 0, q(0)=q(1)=1.

    The symplectic potential is reconstructed from v'' = 2/S:
    v = v_0 + R with v_0 = mu log mu + (1-mu) log(1-mu), R'' = r,
    r = (1-q)/(q mu (1-mu)) (bounded), anchored R(1/2) = R'(1/2) = 0.
    """

    _N = 160

    def __init__(self, q_fn: Callable, validate: bool = True):
        x = cheb.chebpts1(self._N)
        mu = 0.5 * (x + 1.0)
        qv = np.asarray(q_fn(mu), dtype=float)
        if np.any(qv <= 0.0):
            raise NotAdmissible("q = S/S_round must be positive")
        self._qc = cheb.chebfit(x, qv, self._N - 10)
        r = (1.0 - qv) / (qv * mu * (1.0 - mu))
        rc = cheb.chebfit(x, r, self._N - 10)
        Rc = cheb.chebint(cheb.chebint(rc)) * 0.25  # d/dmu = 2 d/dx
        val0 = cheb.chebval(0.0, Rc)
        slope0 = 2.0 * cheb.chebval(0.0, cheb.chebder(Rc))
        self._Rc = Rc
        self._R_aff = (float(val0), float(slope0))
        if validate:
            rep = boundary_report(self)
            if not rep.passes:
                raise NotAdmissible(f"profile boundary defects too large: {rep.defects}")

    def _q(self, mu, order: int = 0):
        x = 2.0 * np.asarray(mu, dtype=float) - 1.0
        c = self._qc
        for _ in range(order):
            c = cheb.chebder(c)
        return cheb.chebval(x, c) * 2.0**order

    def S(self, mu):
        mu = np.asarray(mu, dtype=float)
        return 2.0 * mu * (1.0 - mu) * self._q(mu)

    def dS(self, mu):
        mu = np.asarray(mu, dtype=float)
        return 2.0 * (1.0 - 2.0 * mu) * self._q(mu) + 2.0 * mu * (1.0 - mu) * self._q(mu, 1)

    def d2S(self, mu):
        mu = np.asarray(mu, dtype=float)
        return (
            -4.0 * self._q(mu)
            + 4.0 * (1.0 - 2.0 * mu) * self._q(mu, 1)
            + 2.0 * mu * (1.0 - mu) * self._q(mu, 2)
        )

    def v(self, mu):
        mu = np.asarray(mu, dtype=float)
        x = 2.0 * mu - 1.0
        a, b = self._R_aff
        R = cheb.chebval(x, self._Rc) - a - b * (mu - 0.5)
        v0 = _xlogx(mu) + _xlogx(1.0 - mu)
        return v0 + R

    def t_of_mu(self, mu):
        mu = np.asarray(mu, dtype=float)
        if np.any(mu <= 0.0) or np.any(mu >= 1.0):
            raise OutOfDomain("momentum-side evaluation requires mu in (0,1)")
        x = 2.0 * mu - 1.0
        _, b = self._R_aff
        Rp = 2.0 * cheb.chebval(x, cheb.chebder(self._Rc)) - b
        return np.log(mu) - np.log(1.0 - mu) + Rp


class FSPotential(_TNativePotential):
    """psi(t) = (1/k)(log sum_j e^{j t}/h_j - log C_k): the projective
    potential induced by Hermitian norms. Always admissible by structure."""

    def __init__(self, k: int, log_h: np.ndarray, log_ck: float):
        self.k = int(k)
        self.log_h = np.asarray(log_h, dtype=float)
        self.log_ck = float(log_ck)
        self._j = np.arange(self.k + 1, dtype=float)

    def _scores(self, t):
        t = np.atleast_1d(np.asarray(t, dtype=float))
        return np.outer(self._j, t) - self.log_h[:, None]

    def _psi_native(self, t):
        t_in = np.asarray(t, dtype=float)
        sc = self._scores(t_in)
        out = (_logsumexp(sc, axis=0) - self.log_ck) / self.k
        return out.reshape(t_in.shape) if t_in.ndim else float(out[0])

    def _dpsi(self, t, order: int):
        t_in = np.asarray(t, dtype=float)
        # softmax normalized by its sum: exp(sc - logsumexp(sc)) would put the
        # absolute rounding of logsumexp (~|sc| eps) into every weight, and
        # the cumulant cancellations of psi'''' amplify it
        sc = self._scores(t_in)
        e = np.exp(sc - np.max(sc, axis=0))
        w = e / np.sum(e, axis=0)
        j = self._j[:, None]
        m1 = np.sum(w * j, axis=0)
        if order == 1:
            out = m1 / self.k
        else:
            d = j - m1[None, :]
            k2 = np.sum(w * d * d, axis=0)
            if order == 2:
                out = k2 / self.k
            elif order == 3:
                out = np.sum(w * d**3, axis=0) / self.k
            elif order == 4:
                m4 = np.sum(w * d**4, axis=0)
                out = (m4 - 3.0 * k2 * k2) / self.k
            else:
                raise ValueError("order must be 1..4")
        return out.reshape(t_in.shape) if t_in.ndim else float(out[0])


class BlendPotential(_TNativePotential):
    """Affine combination sum_i w_i psi_i on the log-radial side (the
    straight lines of the psi-affine structure; convex weights keep psi'' > 0)."""

    def __init__(self, parts: Sequence[tuple[float, RadialPotential]]):
        if not parts:
            raise OutOfDomain("need at least one component")
        self.parts = [(float(w), p) for w, p in parts]

    def _psi_native(self, t):
        return sum(w * p.psi(t) for w, p in self.parts)

    def _dpsi(self, t, order: int):
        t = np.asarray(t, dtype=float)
        if order == 1:
            return sum(w * np.asarray(p.mu_of_t(t)) for w, p in self.parts)
        fn = {2: "psi2", 3: "psi3", 4: "psi4"}[order]
        return sum(w * np.asarray(getattr(p, fn)(t)) for w, p in self.parts)


class _ShiftedPotential(_TNativePotential):
    """phi + s: psi shifted by the constant 2s, metric unchanged."""

    def __init__(self, base: RadialPotential, s: float):
        self.base = base
        self.s = float(s)

    def _psi_native(self, t):
        return self.base.psi(t) + 2.0 * self.s

    def _dpsi(self, t, order: int):
        fn = {1: "mu_of_t", 2: "psi2", 3: "psi3", 4: "psi4"}[order]
        return getattr(self.base, fn)(t)


def shift_potential(phi: RadialPotential, s: float) -> RadialPotential:
    """The potential phi + s (adds the constant 2s to psi = 2 phi)."""
    return _ShiftedPotential(phi, s)


def round_potential() -> ProfilePotential:
    """The reference metric: S_0 = 2 mu (1-mu), psi_0 = log(1 + e^t)."""
    return ProfilePotential(lambda mu: np.ones_like(np.asarray(mu, dtype=float)))


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


def boundary_report(phi: RadialPotential, tol: float = TOL.boundary_defect) -> ToyBoundaryReport:
    """Defects (S(0), S(1), S'(0)-2, S'(1)+2), endpoint values obtained by
    Richardson extrapolation from interior samples (t-native potentials
    cannot be evaluated at the closed endpoints)."""
    h = 1e-6

    def extrap(fn, at_zero: bool):
        if at_zero:
            return 2.0 * float(fn(h)) - float(fn(2 * h))
        return 2.0 * float(fn(1.0 - h)) - float(fn(1.0 - 2 * h))

    d = (
        extrap(phi.S, True),
        extrap(phi.S, False),
        extrap(phi.dS, True) - 2.0,
        extrap(phi.dS, False) + 2.0,
    )
    return ToyBoundaryReport(passes=bool(max(abs(x) for x in d) < tol), defects=d)


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
        s2 = phi.d2S(mu)
        if model.xi_zero:
            out = -s2
        else:
            f = model.f(mu)
            out = f * f * (-s2) + 2.0 * (model.p - 1.0) * f * phi.dS(mu) - model.p * (
                model.p - 1.0
            ) * phi.S(mu)
        return out if out.ndim else float(out)

    return scal_p


def _log_section_densities(phi: RadialPotential, k: int, mu: np.ndarray) -> np.ndarray:
    """Matrix E with E[j, q] = log |s_j|^2_{k phi}(mu_q) = k v + (j - k mu) t."""
    v = np.asarray(phi.v(mu), dtype=float)
    t = np.asarray(phi.t_of_mu(mu), dtype=float)
    j = np.arange(k + 1, dtype=float)[:, None]
    return k * v[None, :] + (j - k * mu[None, :]) * t[None, :]


def _log_gram(phi: RadialPotential, k: int, model: ToyModel) -> np.ndarray:
    """log G_j, G_j = int |s_j|^2 f^{1-p} vol_{k omega} = 2 pi k int e^{E_j} f^{1-p} dmu."""
    rule = _mu_rule()
    mu = rule.nodes
    E = _log_section_densities(phi, k, mu)
    logw = np.log(rule.weights) + (1.0 - model.p) * np.log(model.f(mu))
    return _logsumexp(E + logw[None, :], axis=1) + math.log(2.0 * math.pi * k)


def hilb(phi: RadialPotential, k: int, model: ToyModel) -> HermitianNorms:
    """h_j = (1/lambda_j(p)) int |s_j|^2_{k phi} f^{1-p} vol_{k omega}."""
    spec = eigenvalues(k, model)
    log_g = _log_gram(phi, k, model)
    return HermitianNorms(k=k, log_h=log_g - np.log(spec.lam_p))


def c_k_constant(k: int, model: ToyModel) -> float:
    """C_k = sum_j lambda_j(p) / int f^{1-p} vol_{k omega}; the volume
    bookkeeping is pinned by (2 pi) C_k = 1 + O(k^{-2})."""
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
    rule = _mu_rule()
    muq = rule.nodes
    Eq = _log_section_densities(phi, k, muq)
    logw = np.log(rule.weights) + np.log(np.asarray(Psi(model.f(muq)), dtype=float))
    log_g = _logsumexp(Eq + logw[None, :], axis=1) + math.log(2.0 * math.pi * k)
    phi_lam = np.asarray(Phi(spec.lam), dtype=float)

    def B(mu):
        mu = np.atleast_1d(np.asarray(mu, dtype=float))
        E = _log_section_densities(phi, k, mu)
        dens = np.exp(E - log_g[:, None])
        out = np.asarray(Psi(model.f(mu)), dtype=float) * np.einsum("j,jq->q", phi_lam, dens)
        return out

    return B


def rho_p(phi: RadialPotential, k: int, model: ToyModel) -> Callable:
    """rho(mu) = f^{1-p} sum_j lambda_j(p) |s_j|^2 / G_j (Hilb-orthonormal
    section density)."""
    spec = eigenvalues(k, model)
    log_g = _log_gram(phi, k, model)
    p = model.p

    def rho(mu):
        mu = np.atleast_1d(np.asarray(mu, dtype=float))
        E = _log_section_densities(phi, k, mu)
        dens = np.exp(E - log_g[:, None])
        return model.f(mu) ** (1.0 - p) * np.einsum("j,jq->q", spec.lam_p, dens)

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


def balanced_iterate(
    phi0: RadialPotential,
    k: int,
    model: ToyModel,
    max_iter: int = 500,
    tol: float = TOL.balanced_tol,
    damping: float = 0.0,
) -> BalancedResult:
    """Plain fixed-point iteration H -> hilb(fs(H)) from H_0 = hilb(phi_0).

    Converged when sup_j |log h^{n+1}_j - log h^n_j| < tol. `damping` blends
    log h^{n+1} = (1-d) log T(h) + d log h (0 = plain; exposed in case of
    oscillation). Raises NoConvergence after max_iter."""
    if not 0.0 <= damping < 1.0:
        raise OutOfDomain("damping must be in [0, 1)")
    H = hilb(phi0, k, model)
    history = []
    for n in range(max_iter):
        phi = fs(H, k, model)
        H_next = hilb(phi, k, model)
        new_log = (1.0 - damping) * H_next.log_h + damping * H.log_h
        step = float(np.max(np.abs(new_log - H.log_h)))
        history.append(step)
        H = HermitianNorms(k=k, log_h=new_log)
        if step < tol:
            return BalancedResult(
                H=H, phi=fs(H, k, model), converged=True, history=tuple(history), n_iter=n + 1
            )
    raise NoConvergence(f"balanced iteration did not reach tol={tol:g} in {max_iter} steps")


def balanced_residual(H: HermitianNorms, k: int, model: ToyModel) -> float:
    """sup over the interior grid of |rho_p(k phi*) - C_k f^{1-p}| at phi* = FS(H)."""
    phi = fs(H, k, model)
    mu = sup_grid()
    ck = c_k_constant(k, model)
    return float(np.max(np.abs(rho_p(phi, k, model)(mu) - ck * model.f(mu) ** (1.0 - model.p))))
