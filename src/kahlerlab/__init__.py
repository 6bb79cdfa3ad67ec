"""kahlerlab: a numerical laboratory for weighted Kähler geometry on ruled
surfaces and its S^1-reduced quantization toy model.

Import each name from its module: ``from kahlerlab.ckem import solve_P``.

Module map
----------
numerics       quadrature, power integrals, Chebyshev projection
calabi         momentum profiles, weighted scalar curvature, admissibility
ckem           closed-form CKEM profiles, Futaki defect, existence classification
mabuchi        energy functional, gradients, unboundedness probes, paths
quantization   weighted Bergman densities, Hilb/FS maps, balanced iteration
functionals    I/L/Z functionals, geodesics, quantized energy comparisons
verify         deterministic invariant suite (drives `kahlerlab verify`)
cli            argparse front end (pkappa, kappa0, mabuchi-probe, quant-*, verify)
cache          content-hash result cache used by the CLI
errors         the error hierarchy, one named error per failure
"""

__version__ = "0.1.0"
