"""Shared numeric kernels: quadrature, power integrals and Chebyshev
interpolation, each series cut where it reaches rounding level.

Everything here is pure and immutable after construction; callers are free
to use these objects concurrently. Endpoint-singular integrands are the
caller's responsibility (substitute/desingularize first) — the quadrature
kernel stays generic.
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import NamedTuple

import numpy as np

__all__ = [
    "QuadratureRule",
    "gauss_legendre",
    "composite_gauss",
    "graded_rule",
    "power_integral",
    "chebyshev_coefficients",
]


class _QuadratureRule(NamedTuple):
    nodes: np.ndarray
    weights: np.ndarray
    order: int
    lo: float = -1.0
    hi: float = 1.0


class QuadratureRule(_QuadratureRule):
    """Nodes/weights for integration over [lo, hi].

    Invariants (tested): weights sum to hi - lo within 1e-13; nodes strictly
    increasing; Gauss rules integrate polynomials up to degree 2*order - 1
    exactly within 1e-12.
    """

    __slots__ = ()
    def __new__(cls, nodes, weights, order: int, lo: float = -1.0, hi: float = 1.0) -> QuadratureRule:
        nodes, weights = np.asarray(nodes, dtype=float), np.asarray(weights, dtype=float)
        if nodes.shape != weights.shape or nodes.ndim != 1:
            raise ValueError("nodes and weights must be 1-d arrays of equal length")
        if np.any(np.diff(nodes) <= 0):
            raise ValueError("nodes must be strictly increasing")
        return super().__new__(cls, nodes, weights, order, lo, hi)


def _read_only(rule: QuadratureRule) -> QuadratureRule:
    rule.nodes.flags.writeable = False
    rule.weights.flags.writeable = False
    return rule


@lru_cache(maxsize=64)
def gauss_legendre(order: int, lo: float = -1.0, hi: float = 1.0) -> QuadratureRule:
    """Gauss–Legendre rule with `order` nodes mapped affinely onto [lo, hi].
    Memoized: the returned rule is shared, and its arrays are read-only."""
    if order < 1:
        raise ValueError("order must be >= 1")
    if not hi > lo:
        raise ValueError("need hi > lo")
    x, w = np.polynomial.legendre.leggauss(int(order))
    half = 0.5 * (hi - lo)
    mid = 0.5 * (hi + lo)
    return _read_only(QuadratureRule(nodes=mid + half * x, weights=half * w, order=int(order), lo=lo, hi=hi))


def composite_gauss(breaks, order: int) -> QuadratureRule:
    """Gauss–Legendre rule of `order` nodes on each panel [breaks[i], breaks[i+1]]
    of an increasing mesh, each panel the affine image of gauss_legendre(order).
    Its arrays are read-only."""
    ref = gauss_legendre(order)
    b = np.asarray(breaks, dtype=float)
    half = 0.5 * (b[1:] - b[:-1])[:, None]
    mid = 0.5 * (b[1:] + b[:-1])[:, None]
    nodes, weights = (mid + half * ref.nodes).ravel(), (half * ref.weights).ravel()
    return _read_only(QuadratureRule(nodes=nodes, weights=weights, order=int(order), lo=float(b[0]), hi=float(b[-1])))


@lru_cache(maxsize=16)
def graded_rule(
    lo: float = -1.0, hi: float = 1.0, order: int = 16, levels: int = 40
) -> QuadratureRule:
    """Composite Gauss rule on a mesh geometrically refined toward lo and hi.

    Panel widths halve toward each endpoint, so bounded integrands whose
    derivatives blow up only at the endpoints (x log x type) are integrated
    to near machine accuracy. The innermost panels have width (hi-lo)/2^levels;
    anything a bounded integrand does there is below roundoff. Memoized: the
    returned rule is shared, and its arrays are read-only.
    """
    if not hi > lo:
        raise ValueError("need hi > lo")
    mid = 0.5 * (lo + hi)
    cuts = [mid]
    for j in range(1, levels + 1):
        cuts.append(mid + 0.5 * (hi - lo) * (0.5 - 2.0 ** -(j + 1)) * 2.0)
    # cuts now runs mid, ..., approaching hi; mirror for the lo side
    right = np.array(cuts + [hi])
    left = (lo + hi) - right[::-1]
    return composite_gauss(np.concatenate([left[:-1], right]), order)


def power_integral(lo: float, hi: float, m: float) -> float:
    """int_lo^hi x^m dx for 0 < lo < hi, as lo^{m+1} expm1((m+1) L)/(m+1)
    with L = log(hi/lo) = log1p((hi-lo)/lo); L itself at m = -1.

    No difference of powers is formed, so nothing cancels when hi/lo is
    near 1, and the value is continuous in m through m = -1.
    """
    L = math.log1p((hi - lo) / lo)
    n = m + 1.0
    return lo**n * math.expm1(n * L) / n if n else L


@lru_cache(maxsize=16)
def _cheb_cosines(n: int) -> np.ndarray:
    """V^T, V = chebvander(chebpts1(n), n-1), unscaled.

    chebpts1(n) lists x_k = cos(theta_k), theta_k = (2k+1) pi/(2n), for
    k = n-1, ..., 0, so V[k, j] = T_j(x_k) = cos(j theta_k). The angle
    j (2k+1) pi/(2n) is reduced mod 2 pi in integers before the cosine;
    the three-term recurrence of chebvander would round each entry ~j
    times instead.
    """
    k = np.arange(n - 1, -1, -1)
    m = np.outer(np.arange(n), 2 * k + 1) % (4 * n)
    C = np.cos(m * (0.5 * np.pi / n))
    C.flags.writeable = False
    return C


def _cheb_scale(sums: np.ndarray) -> np.ndarray:
    """c_0 = s_0/n, c_j = 2 s_j/n from the n cosine sums s = V^T f. Dividing the
    sums, not fl(2/n)-scaled rows, returns a constant exactly."""
    c = sums / len(sums)
    c[1:] *= 2.0
    return c


def _cheb_projector(n: int) -> np.ndarray:
    """The matrix chebyshev_coefficients applies before chopping, uncached."""
    return _cheb_scale(_cheb_cosines.__wrapped__(n))


def _chop(c: np.ndarray) -> int:
    """How many leading coefficients of c to keep: Chebfun's standardChop at
    tol = eps (Aurentz & Trefethen, Chopping a Chebyshev series, ACM TOMS 43,
    2017). Fewer than 17 coefficients, or no plateau, keep all of them."""
    tol, n = np.finfo(float).eps, len(c)
    env = np.maximum.accumulate(np.abs(c)[::-1])[::-1]  # monotone envelope
    if n < 17 or env[0] == 0.0:
        return n if n < 17 else 1
    env = env / env[0]
    # plateau after j-1 (1-based): env(j2)/env(j) > r, j2 = round(1.25 j + 5),
    # r rising from 0 at env(j) = tol to 1 at env(j) = tol^(2/3)
    for j in range(2, n + 1):
        j2, e1 = int(1.25 * j + 5.5), env[j - 1]
        if j2 > n:
            return n
        if e1 == 0.0 or env[j2 - 1] / e1 > 3.0 * (1.0 - math.log(e1) / math.log(tol)):
            break
    if env[j - 2] == 0.0:
        return j - 1
    j3 = int(np.count_nonzero(env >= tol ** (7 / 6)))
    if j3 < j2:
        j2, env[j3] = j3 + 1, tol ** (7 / 6)
    # cut where log10 env plus a ramp that favours short series is least
    return max(int(np.argmin(np.log10(env[:j2]) + np.linspace(0.0, -math.log10(tol) / 3.0, j2))), 1)


def chebyshev_coefficients(values: np.ndarray) -> np.ndarray:
    """Chebyshev coefficients of the interpolant of samples at chebpts1(n),
    chopped at their rounding plateau (_chop). On these nodes the T_j (j < n)
    are discretely orthogonal: c_j = (2/n) sum_k f(x_k) T_j(x_k), c_0 halved,
    with no linear solve (Trefethen, ATAP, ch. 3)."""
    c = _cheb_scale(_cheb_cosines(len(values)) @ np.asarray(values, dtype=float))
    return c[: _chop(c)]
