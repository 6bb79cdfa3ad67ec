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

from .errors import OutOfDomain

__all__ = [
    "QuadratureRule",
    "gauss_legendre",
    "composite_gauss",
    "power_integral",
    "chebyshev_coefficients",
]


class _QuadratureRule(NamedTuple):
    nodes: np.ndarray
    weights: np.ndarray


class QuadratureRule(_QuadratureRule):
    """Nodes/weights for integration over an interval [lo, hi].

    Invariants (tested): weights sum to hi - lo within 1e-13; nodes strictly
    increasing; Gauss rules of n nodes per panel integrate polynomials up to
    degree 2n - 1 exactly within 1e-12.
    """

    __slots__ = ()
    def __new__(cls, nodes, weights) -> QuadratureRule:
        nodes, weights = np.asarray(nodes, dtype=float), np.asarray(weights, dtype=float)
        if nodes.shape != weights.shape or nodes.ndim != 1:
            raise OutOfDomain("nodes and weights must be 1-d arrays of equal length")
        if np.any(np.diff(nodes) <= 0):
            raise OutOfDomain("nodes must be strictly increasing")
        return super().__new__(cls, nodes, weights)


@lru_cache(maxsize=64)
def _legendre_rule(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss–Legendre nodes and weights on [-1, 1], read-only: Newton in theta =
    arccos x over the nodes in [0, 1) from Tricomi's asymptotic nodes, two steps
    on P_n(cos theta) = sum_k a_k a_{n-k} cos((n-2k) theta), a_k = C(2k, k)/4^k,
    then one on Reinsch's recurrence in z = 1 - x, its P_n' moved to the final
    node by Legendre's equation for w = 2/((1-x^2) P_n'^2). No eigensolve."""
    if n < 1:
        raise OutOfDomain("order must be >= 1")
    t = np.pi * (4 * np.arange(1, (n + 1) // 2 + 1) - 1) / (4 * n + 2)
    theta = np.arccos((1 - (n - 1) / (8.0 * n**3) - (39 - 28 / np.sin(t) ** 2) / (384.0 * n**4)) * np.cos(t))
    a, k = np.cumprod(np.r_[1.0, 1.0 - 0.5 / np.arange(1, n + 1)]), np.arange((n + 1) // 2)
    c, m, mid = 2.0 * a[k] * a[n - k], n - 2 * k, a[n // 2] ** 2 * (1 - n % 2)
    for _ in range(2):
        mt = np.outer(theta, m)
        theta = theta + (np.cos(mt) @ c + mid) / (np.sin(mt) @ (c * m))
    z0 = 2.0 * np.sin(0.5 * theta) ** 2
    p, d = np.ones_like(z0), np.zeros_like(z0)  # P_j(1 - z0) and d = P_j - P_{j-1}
    for j in range(n):
        d = (j / (j + 1)) * d - ((2 * j + 1) / (j + 1)) * (z0 * p)
        p += d
    s2 = z0 * (2.0 - z0)  # 1 - x^2
    g = n * (d - z0 * p) / s2  # dP_n/dz = -P_n'(x)
    dz = p / g
    g += (2.0 * (1.0 - z0) * g + n * (n + 1) * p) / s2 * dz
    z = z0 - dz
    x, w = 1.0 - z, 2.0 / (z * (2.0 - z) * g**2)
    x[n // 2 :] = 0.0  # an odd rule's middle node
    nodes, weights = np.concatenate([-x[: n // 2], x[::-1]]), np.concatenate([w[: n // 2], w[::-1]])
    nodes.flags.writeable = weights.flags.writeable = False
    return nodes, weights


@lru_cache(maxsize=64)
def gauss_legendre(order: int, lo: float = -1.0, hi: float = 1.0) -> QuadratureRule:
    """Gauss–Legendre rule with `order` nodes mapped affinely onto [lo, hi].
    Memoized: the returned rule is shared, and its arrays are read-only."""
    if not hi > lo:
        raise OutOfDomain("need hi > lo")
    return composite_gauss((lo, hi), order)


def composite_gauss(breaks, order: int) -> QuadratureRule:
    """Gauss–Legendre rule of `order` nodes on each panel [breaks[i], breaks[i+1]]
    of an increasing mesh, each panel the affine image of the one reference
    rule of that order on [-1, 1]. Its arrays are read-only."""
    x, w = _legendre_rule(int(order))
    b = np.asarray(breaks, dtype=float)
    half = 0.5 * (b[1:] - b[:-1])[:, None]
    mid = 0.5 * (b[1:] + b[:-1])[:, None]
    nodes, weights = (mid + half * x).ravel(), (half * w).ravel()
    nodes.flags.writeable = weights.flags.writeable = False
    return QuadratureRule(nodes=nodes, weights=weights)


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
    j (2k+1) pi/(2n) is reduced mod 2 pi in integers, and the entry is read
    from one table of the 4n cosines cos(m pi/(2n)); the three-term
    recurrence of chebvander would round each entry ~j times instead.
    """
    k = np.arange(n - 1, -1, -1)
    m = np.outer(np.arange(n), 2 * k + 1) % (4 * n)
    C = np.cos(np.arange(4 * n) * (0.5 * np.pi / n))[m]
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
