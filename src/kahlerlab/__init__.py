"""kahlerlab: a numerical laboratory for weighted Kähler geometry on ruled
surfaces and its S^1-reduced quantization toy model.

Module map
----------
numerics       quadrature, power integrals, Chebyshev projection
calabi         momentum profiles, weighted scalar curvature, admissibility
ckem           closed-form CKEM profiles, Futaki defect, existence classification
mabuchi        energy functional, gradients, unboundedness probes, paths
quantization   weighted Bergman densities, Hilb/FS maps, balanced iteration
functionals    I/L/Z functionals, geodesics, quantized energy comparisons
verify         deterministic invariant suite (drives `kahlerlab verify`)
cli            argparse front end (pkappa, kappa0, mabuchi-probe, quant-*)
"""

from .tolerances import TOL, Tolerances
from .errors import (
    KahlerLabError,
    BadDirection,
    NoConvergence,
    NonFiniteCurvature,
    NotAdmissible,
    NotTraceless,
    OutOfDomain,
    SearchFailed,
    WeightSignError,
)
from .calabi import (
    KillingData,
    Profile,
    RuledSurfaceData,
    ansatz_scalar_curvature,
    check_boundary,
    weighted_average_c,
    weighted_scalar_curvature,
)
from .ckem import ClassLabel, b_kappa, kappa_zero, solve_P, sweep
from .mabuchi import (
    BumpDirection,
    SymplecticPotential,
    mabuchi_energy_amt,
    mabuchi_gradient_amt,
    mabuchi_path_integral,
    unboundedness_probe,
)
from .quantization import (
    HermitianNorms,
    ToyModel,
    balanced_iterate,
    balanced_residual,
    bergman_density,
    eigenvalues,
    expansion_check,
    fs,
    hilb,
    rho_p,
    round_potential,
)
from .functionals import (
    almost_balanced_check,
    aubin_I,
    functional_I,
    functional_L,
    functional_Z,
    geodesic,
    toy_mabuchi,
    z_prime,
)

__version__ = "0.1.0"
