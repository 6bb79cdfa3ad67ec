"""Shared numeric kernels: quadrature and least squares.

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
    "graded_rule",
    "integrate",
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


@lru_cache(maxsize=64)
def _leggauss_cached(order: int) -> tuple[tuple[float, ...], tuple[float, ...]]:
    x, w = np.polynomial.legendre.leggauss(order)
    return tuple(x), tuple(w)


def gauss_legendre(order: int, lo: float = -1.0, hi: float = 1.0) -> QuadratureRule:
    """Gauss–Legendre rule with `order` nodes mapped affinely onto [lo, hi]."""
    if order < 1:
        raise ValueError("order must be >= 1")
    if not hi > lo:
        raise ValueError("need hi > lo")
    x, w = _leggauss_cached(int(order))
    x = np.asarray(x)
    w = np.asarray(w)
    half = 0.5 * (hi - lo)
    mid = 0.5 * (hi + lo)
    return QuadratureRule(nodes=mid + half * x, weights=half * w, order=int(order), lo=lo, hi=hi)


def graded_rule(
    lo: float = -1.0, hi: float = 1.0, order: int = 16, levels: int = 40
) -> QuadratureRule:
    """Composite Gauss rule on a mesh geometrically refined toward lo and hi.

    Panel widths halve toward each endpoint, so bounded integrands whose
    derivatives blow up only at the endpoints (x log x type) are integrated
    to near machine accuracy. The innermost panels have width (hi-lo)/2^levels;
    anything a bounded integrand does there is below roundoff.
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
    breaks = np.concatenate([left[:-1], right])
    nodes = []
    weights = []
    for a, b in zip(breaks[:-1], breaks[1:]):
        panel = gauss_legendre(order, float(a), float(b))
        nodes.append(panel.nodes)
        weights.append(panel.weights)
    return QuadratureRule(
        nodes=np.concatenate(nodes),
        weights=np.concatenate(weights),
        order=int(order),
        lo=float(lo),
        hi=float(hi),
    )


def integrate(rule: QuadratureRule, f: Callable[[np.ndarray], np.ndarray]) -> float:
    """Sum w_i f(z_i) for a vectorized `f`."""
    vals = np.asarray(f(rule.nodes), dtype=float)
    if vals.shape != rule.nodes.shape:
        vals = np.broadcast_to(vals, rule.nodes.shape)
    if not np.all(np.isfinite(vals)):
        raise NonFiniteIntegrand("integrand is not finite at a quadrature node")
    return float(np.dot(rule.weights, vals))


def solve_least_squares(A: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, float]:
    """Minimize ||Ax - y||_2 for a full-column-rank A (rows >= cols).

    Returns (x, residual). Rank deficiency raises RankDeficient. The residual
    is orthogonal to the column span: ||A^T(Ax-y)|| < 1e-10 ||A|| ||y||.
    """
    A = np.asarray(A, dtype=float)
    y = np.asarray(y, dtype=float)
    if A.ndim != 2:
        raise ValueError("A must be a matrix")
    r, c = A.shape
    if r < c:
        raise ValueError("need at least as many rows as columns")
    x, _, rank, _ = np.linalg.lstsq(A, y, rcond=None)
    if rank < c:
        raise RankDeficient(f"column rank {rank} < {c}")
    return x, float(np.linalg.norm(A @ x - y))

