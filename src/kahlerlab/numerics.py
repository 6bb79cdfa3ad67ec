"""Shared numeric kernels: quadrature, Chebyshev projection, least squares.

Everything here is pure and immutable after construction; callers are free
to use these objects concurrently. Endpoint-singular integrands are the
caller's responsibility (substitute/desingularize first) — the quadrature
kernel stays generic.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Callable

import numpy as np

from .errors import NonFiniteIntegrand, RankDeficient

__all__ = [
    "QuadratureRule",
    "gauss_legendre",
    "composite_gauss",
    "graded_rule",
    "integrate",
    "chebyshev_coefficients",
    "solve_least_squares",
]


@dataclass(frozen=True)
class QuadratureRule:
    """Nodes/weights for integration over [lo, hi].

    Invariants (tested): weights sum to hi - lo within 1e-13; nodes strictly
    increasing; Gauss rules integrate polynomials up to degree 2*order - 1
    exactly within 1e-12.
    """

    nodes: np.ndarray
    weights: np.ndarray
    order: int
    lo: float = -1.0
    hi: float = 1.0

    def __post_init__(self) -> None:
        object.__setattr__(self, "nodes", np.asarray(self.nodes, dtype=float))
        object.__setattr__(self, "weights", np.asarray(self.weights, dtype=float))
        if self.nodes.shape != self.weights.shape or self.nodes.ndim != 1:
            raise ValueError("nodes and weights must be 1-d arrays of equal length")
        if np.any(np.diff(self.nodes) <= 0):
            raise ValueError("nodes must be strictly increasing")


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


def integrate(rule: QuadratureRule, f: Callable[[np.ndarray], np.ndarray]) -> float:
    """Sum w_i f(z_i) for a vectorized `f`."""
    vals = np.asarray(f(rule.nodes), dtype=float)
    if vals.shape != rule.nodes.shape:
        vals = np.broadcast_to(vals, rule.nodes.shape)
    if not np.all(np.isfinite(vals)):
        raise NonFiniteIntegrand("integrand is not finite at a quadrature node")
    return float(np.dot(rule.weights, vals))


@lru_cache(maxsize=16)
def _cheb_projector(n: int, deg: int) -> np.ndarray:
    """(2/n) V^T with its first row halved, V = chebvander(chebpts1(n), deg).

    chebpts1(n) lists x_k = cos(theta_k), theta_k = (2k+1) pi/(2n), for
    k = n-1, ..., 0, so V[k, j] = T_j(x_k) = cos(j theta_k). The angle
    j (2k+1) pi/(2n) is reduced mod 2 pi in integers before the cosine;
    the three-term recurrence of chebvander would round each entry ~j
    times instead.
    """
    k = np.arange(n - 1, -1, -1)
    m = np.outer(np.arange(deg + 1), 2 * k + 1) % (4 * n)
    P = np.cos(m * (0.5 * np.pi / n)) * (2.0 / n)
    P[0] *= 0.5
    P.flags.writeable = False
    return P


def chebyshev_coefficients(values: np.ndarray, deg: int) -> np.ndarray:
    """Chebyshev coefficients c_0..c_deg of samples taken at chebpts1(n).

    On these n nodes the T_j (j < n) are discretely orthogonal, so
    c_j = (2/n) sum_k f(x_k) T_j(x_k), with c_0 halved: the least-squares
    fit of degree deg with no linear solve, which for deg = n-1
    interpolates (Trefethen, Approximation Theory and Approximation
    Practice, ch. 3).
    """
    f = np.asarray(values, dtype=float)
    if f.ndim != 1 or not 0 <= deg < len(f):
        raise ValueError("need 1-d samples and 0 <= deg < len(values)")
    return _cheb_projector(len(f), int(deg)) @ f


def solve_least_squares(A: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Minimize ||Ax - y||_2 for each full-column-rank A (rows >= cols) of a stack.

    A is (..., m, n) and y (..., m); each matrix gets one Householder QR,
    x = R^{-1} Q^T y (Golub & Van Loan, Matrix Computations, sec. 5.3).
    Returns (x, residual norms). A diagonal entry of R at most
    eps max(m, n) max|R_ii| raises RankDeficient, naming those matrices (flat
    indices into the stack). The residual is orthogonal to the column span:
    ||A^T(Ax-y)|| < 1e-10 ||A|| ||y||.
    """
    A = np.asarray(A, dtype=float)
    y = np.asarray(y, dtype=float)
    if A.ndim < 2 or y.shape != A.shape[:-1]:
        raise ValueError("need A of shape (..., m, n) and y of shape (..., m)")
    r, c = A.shape[-2:]
    if r < c:
        raise ValueError("need at least as many rows as columns")
    Q, R = np.linalg.qr(A)
    d = np.abs(np.diagonal(R, axis1=-2, axis2=-1))
    low = ~np.all(d > np.finfo(float).eps * max(r, c) * d.max(axis=-1, keepdims=True), axis=-1)
    if np.any(low):
        raise RankDeficient(f"column rank < {c}", slices=np.flatnonzero(low))
    x = np.linalg.solve(R, np.sum(Q * y[..., None], axis=-2)[..., None])[..., 0]
    res = np.sum(A * x[..., None, :], axis=-1) - y
    return x, np.sqrt(np.sum(res * res, axis=-1))
