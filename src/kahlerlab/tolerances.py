"""Central tolerance/configuration record.

All numeric thresholds used by the library (and re-used by the test suite)
live in one immutable NamedTuple so that nothing is scattered or duplicated.
"""

from __future__ import annotations

from typing import NamedTuple


class Tolerances(NamedTuple):
    # numerics
    quad_exactness: float = 1e-12      # Gauss rule on polynomials of deg <= 2n-1

    # profiles / curvature
    boundary_defect: float = 1e-9      # momentum-profile boundary conditions
    c_invariance: float = 1e-8         # quadrature of the average c vs its closed form
    p1_reduction: float = 1e-13        # p=1 specialization identity

    # ckem solver
    futaki_on_curve: float = 1e-10
    futaki_off_curve: float = 1e-4
    kappa_zero_tol: float = 1e-8       # |min P| at the returned kappa0
    classify_tol: float = 1e-8         # DoubleRoot tie-break band

    # mabuchi
    el_gradient: float = 1e-7          # gradient at the Euler-Lagrange point
    loop_closure: float = 1e-8         # path-integral loops
    u2_boundary: float = 1e-6          # |(1-z^2) u'' - 1| at the endpoints
    probe_slope_rel: float = 0.02      # measured vs predicted probe slope

    # quantization
    rho_identity: float = 1e-12
    trace_identity: float = 1e-10
    balanced_tol: float = 1e-10
    balanced_residual: float = 1e-8    # sup |rho - C_k f^{1-p}|
    z_convexity: float = 1e-9          # second differences >= -tol
    z_prime: float = 1e-9              # |Z'(0)| at balanced

    # quadrature orders
    quad_order_mabuchi: int = 128
    quad_order_quant: int = 256
    quad_order_path: int = 64          # nodes along a path parameter


TOL = Tolerances()
