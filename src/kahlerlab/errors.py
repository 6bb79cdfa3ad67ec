"""Exception hierarchy.

Every failure mode raised by this package derives from :class:`KahlerLabError`
so callers can catch the whole family at the CLI boundary.
"""

from __future__ import annotations


class KahlerLabError(Exception):
    """Base class for all errors raised by this package."""


class NoConvergence(KahlerLabError):
    """An iterative method exhausted its iteration budget."""


class OutOfDomain(KahlerLabError):
    """A parameter lies outside the admissible domain of an operation."""


class SearchFailed(KahlerLabError):
    """The threshold kappa0 failed its check: |min P| > ckem._KAPPA_ZERO_TOL there."""


class NotAdmissible(KahlerLabError):
    """A profile or potential violates positivity/boundary admissibility."""


class NonFiniteCurvature(KahlerLabError):
    """Curvature evaluation produced a non-finite value."""


class BadDirection(KahlerLabError):
    """A probe direction is not supported inside the required region."""


class WeightSignError(KahlerLabError):
    """A quantization weight lambda_j(p) (or C_k) is not positive.

    Signals that the tensor power k is too small for the chosen (p, b0).
    """


class NotTraceless(KahlerLabError):
    """A geodesic direction has a nonzero trace on some block."""


class ConfigError(KahlerLabError):
    """Invalid run configuration (CLI exit code 2)."""
