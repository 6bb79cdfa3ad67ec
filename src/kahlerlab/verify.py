"""Invariant suite behind the `verify` subcommand.

Each check is a small named computation tagged by module area that returns
one value; the suite compares it with the check's bound and returns one row
per check, which the CLI turns into CSV and an exit code.  Everything here
is deterministic — fixed seeds, fixed quadrature — so two runs of the same
suite produce byte-identical output.

A "breach" names one check whose tolerance is replaced by an impossible
bound.  That is a plumbing test for the exit-code path, not a numerical
feature: the breached check fails by construction.
"""

from __future__ import annotations

import math
from typing import Callable, NamedTuple, Sequence

import numpy as np

from . import calabi, ckem, functionals, mabuchi, quantization
from .numerics import gauss_legendre
from .errors import BadDirection, ConfigError

__all__ = ["CheckResult", "ALL_TAGS", "run_checks"]

ALL_TAGS = ("numerics", "calabi", "ckem", "mabuchi", "quant", "functionals")


class CheckResult(NamedTuple):
    name: str
    tag: str
    passed: bool
    detail: str


# -- individual checks -------------------------------------------------------
# Each returns the value that `_CHECKS` compares with its bound.  Keep them
# quick: the suite runs twice back to back in the determinism test.


def _chk_quad_exactness() -> float:
    rule = gauss_legendre(12, -1.0, 1.0)
    err = abs(float(np.dot(rule.weights, rule.nodes**23)) - 0.0)
    err += abs(float(np.dot(rule.weights, rule.nodes**22)) - 2.0 / 23.0)
    return err


def _chk_boundary_round() -> float:
    sol = ckem.solve_P(1.25, 2.0)
    rep = calabi.check_boundary(sol.profile())
    return max(abs(d) for d in rep.defects)


def _chk_c_invariance() -> float:
    """The defining ratio of c by 256-node Gauss quadrature, for two random
    profiles, against the closed form: c does not depend on the profile."""
    rng = np.random.default_rng(7)
    kappa = 1.25
    X = calabi.RuledSurfaceData.standard(kappa)
    kd = calabi.KillingData(b=2.0, p=4.0)
    rule = gauss_legendre(256)
    z = rule.nodes
    weight = rule.weights * (z + kd.b) ** (-(kd.p + 1.0)) * (z + kappa)
    c = calabi.weighted_average_c(X, kd, kappa)
    gap = 0.0
    for _ in range(2):
        prof = calabi.random_admissible_profile(rng, kappa)
        quad = float(np.dot(calabi.scal_p_on(z, prof.jet(z), X, kd, kappa), weight)) / float(weight.sum())
        gap = max(gap, abs(quad - c))
    return gap


def _chk_p1_reduction() -> float:
    rng = np.random.default_rng(11)
    X = calabi.RuledSurfaceData.standard(1.3)
    prof = calabi.random_admissible_profile(rng, 1.3)
    kd = calabi.KillingData(b=2.2, p=1.0)
    z = np.linspace(-0.95, 0.95, 301)
    f = z + kd.b
    lhs = calabi.weighted_scalar_curvature(prof, X, kd, z)
    return float(np.max(np.abs(lhs - f * f * calabi.ansatz_scalar_curvature(prof, X, z))))


def _chk_futaki_on_curve() -> float:
    b = 2.0
    kappa = (1.0 + b * b) / (2.0 * b)
    return abs(ckem.solve_P(kappa, b).futaki_residual)


def _chk_futaki_off_curve() -> float:
    b = 2.0
    kappa = (1.0 + b * b) / (2.0 * b)
    return min(abs(ckem.solve_P(kappa, b - 0.1).futaki_residual), abs(ckem.solve_P(kappa, b + 0.1).futaki_residual))


def _chk_kappa0() -> float:
    k0 = ckem.kappa_zero()
    at, below, above = ckem.sweep([k0, 1.0 + 0.5 * (k0 - 1.0), k0 + 0.5])
    ok_labels = below.label is ckem.ClassLabel.NEGATIVE_SOMEWHERE and above.label is ckem.ClassLabel.EXISTS_CKEM
    return abs(at.min_P) if ok_labels else math.inf


def _chk_el_gradient() -> float:
    kappa = 1.6
    sol = ckem.solve_P(kappa, ckem.b_kappa(kappa))
    u = calabi.to_symplectic(sol.profile())
    rng = np.random.default_rng(3)
    worst = 0.0
    for _ in range(3):
        c = rng.uniform(-0.6, 0.6)
        r = rng.uniform(0.1, 0.3)
        bump = mabuchi.BumpDirection(center=c, radius=r, amplitude=rng.uniform(0.5, 2.0))
        worst = max(worst, abs(mabuchi.mabuchi_gradient_amt(u, sol, bump)))
    return worst


def _chk_loop_closure() -> float:
    kappa = 1.25
    sol = ckem.solve_P(kappa, ckem.b_kappa(kappa))
    kd = calabi.KillingData(b=sol.b, p=4.0)
    rng = np.random.default_rng(23)
    profs = [calabi.random_admissible_profile(rng, kappa, degree=3) for _ in range(3)]
    loop = sum(
        mabuchi.mabuchi_path_integral(mabuchi.straight_theta_path(profs[i], profs[(i + 1) % 3]), kd, sol)
        for i in range(3)
    )
    return abs(loop)


def _chk_probe_slope() -> float:
    k0 = ckem.kappa_zero()
    kappa = 0.5 * (1.0 + k0)
    sol = ckem.solve_P(kappa, ckem.b_kappa(kappa))
    try:
        bump = mabuchi.probe_bump(sol)
        ks = [4.0, 8.0, 16.0, 32.0, 64.0]
        fitted = mabuchi.fit_probe_slope(ks, mabuchi.unboundedness_probe(sol, bump, ks))
    except BadDirection:
        return math.inf
    lead = mabuchi.probe_slope(sol, bump)
    return abs(fitted - lead) / abs(lead)


def _chk_rho_identity() -> float:
    model = quantization.ToyModel(b0=1.0, p=4.0)
    k = 8
    phi = quantization.round_potential()
    spec = quantization.eigenvalues(k, model)
    s = phi.jet(quantization.sup_grid())
    lhs = quantization.rho_p(phi, k, model, s)
    b_main = quantization.bergman_density(phi, k, model, spec.lam ** (1.0 - model.p), s)
    b_corr = quantization.bergman_density(phi, k, model, spec.lam ** (-(model.p + 1.0)), s)
    return float(np.max(np.abs(lhs - (b_main - quantization.c_top_exact(model) / (4.0 * k) * b_corr))))


def _chk_trace_identity() -> float:
    model = quantization.ToyModel(b0=1.0, p=4.0)
    k = 8
    phi = quantization.round_potential()
    spec = quantization.eigenvalues(k, model)
    g = phi.gram_sample
    total = 2.0 * math.pi * k * float(np.dot(g.w, quantization.rho_p(phi, k, model, phi.jet(g.mu))))
    return abs(total - float(np.sum(spec.lam_p))) / float(np.sum(spec.lam_p))


def _chk_ck_normalization() -> float:
    model = quantization.ToyModel(p=1.0)
    return max(abs(2.0 * math.pi * quantization.c_k_constant(k, model) - (1.0 - 1.0 / k**2)) for k in (2, 4, 8))


def _chk_fs_hilb_round() -> float:
    model = quantization.ToyModel(p=1.0)
    k = 8
    psi_back = quantization.fs(quantization.hilb(quantization.round_potential(), k, model), k, model)
    t = np.linspace(-8.0, 8.0, 161)
    return float(np.max(np.abs(psi_back.at_t(t).psi - np.logaddexp(0.0, t))))  # round psi = log(1 + e^t)


def _chk_balanced_round() -> float:
    model = quantization.ToyModel(p=1.0)
    k = 8
    res = quantization.balanced_iterate(quantization.round_potential(), k, model)
    return quantization.balanced_defects(res.phi, k, model).residual


def _chk_z_convexity() -> float:
    model = quantization.ToyModel(p=4.0)
    k = 8
    H = quantization.hilb(quantization.round_potential(), k, model)
    rng = np.random.default_rng(17)
    worst = math.inf
    for _ in range(3):
        A = rng.normal(size=k + 1)
        A -= A.mean()
        ts = np.linspace(-0.3, 0.3, 7)
        zs = [functionals.functional_Z(functionals.geodesic(H, A, float(t), model), k, model) for t in ts]
        worst = min(worst, float(np.min(np.diff(zs, 2))))
    return -worst


def _chk_z_prime() -> float:
    model = quantization.ToyModel(p=4.0)
    k = 8
    H = quantization.hilb(quantization.round_potential(), k, model)
    rng = np.random.default_rng(19)
    worst = 0.0
    for _ in range(3):
        A = rng.normal(size=k + 1)
        A -= A.mean()
        worst = max(worst, abs(functionals.z_prime(H, A, k, model)))
    return worst


def _chk_zl_decay() -> float:
    # At the round potential L == Z∘hilb identically (fs∘hilb fixes it), so a
    # genuine decay measurement needs a generic potential.
    model = quantization.ToyModel(p=4.0)
    phi = quantization.random_potential(np.random.default_rng(29), scale=0.5)
    gaps = []
    for k in (8, 16):
        H = quantization.hilb(phi, k, model)
        gaps.append(abs(functionals.functional_L(phi, k, model) - functionals.functional_Z(H, k, model)) / k)
    return gaps[1] / gaps[0]


# (name, tag, check, sense, bound): a check passes when its value lies on
# the `sense` side of `bound`.  Rows stay grouped by tag in ALL_TAGS order.
_CHECKS: Sequence[tuple[str, str, Callable[[], float], str, float]] = (
    ("quad-exactness", "numerics", _chk_quad_exactness, "<", 1e-12),
    ("boundary-defects", "calabi", _chk_boundary_round, "<", 1e-9),
    ("c-invariance", "calabi", _chk_c_invariance, "<", 1e-8),
    ("p1-reduction", "calabi", _chk_p1_reduction, "<", 1e-13),
    ("futaki-on-curve", "ckem", _chk_futaki_on_curve, "<", 1e-10),
    ("futaki-off-curve", "ckem", _chk_futaki_off_curve, ">", 1e-4),
    ("kappa0-double-root", "ckem", _chk_kappa0, "<", 1e-8),
    ("el-gradient", "mabuchi", _chk_el_gradient, "<", 1e-7),
    ("loop-closure", "mabuchi", _chk_loop_closure, "<", 1e-8),
    ("probe-slope", "mabuchi", _chk_probe_slope, "<", 0.02),
    ("rho-identity", "quant", _chk_rho_identity, "<", 1e-12),
    ("trace-identity", "quant", _chk_trace_identity, "<", 1e-10),
    ("ck-normalization", "quant", _chk_ck_normalization, "<", 1e-13),
    ("fs-hilb-round", "quant", _chk_fs_hilb_round, "<", 1e-12),
    ("balanced-round", "quant", _chk_balanced_round, "<", 1e-8),
    ("z-convexity", "functionals", _chk_z_convexity, "<", 1e-9),
    ("z-prime-balanced", "functionals", _chk_z_prime, "<", 1e-9),
    ("zl-decay", "functionals", _chk_zl_decay, "<", 1.0),
)


def run_checks(tags: Sequence[str] | None = None, breach: str | None = None) -> list[CheckResult]:
    """Run the suite (optionally restricted to `tags`), one result per check.

    `breach` names a check whose bound is made impossible (-1 for an upper
    bound, inf for a lower one) — used to test the failure path end to end.
    ConfigError for an unknown tag or breach target, and for a breach of a
    check that `tags` leaves out.
    """
    tag_of = {row[0]: row[1] for row in _CHECKS}
    if breach is not None and breach not in tag_of:
        raise ConfigError(f"unknown breach target {breach!r}")
    if tags is not None:
        bad = set(tags) - set(ALL_TAGS)
        if bad:
            raise ConfigError(f"unknown tags {sorted(bad)!r}")
        if breach is not None and tag_of[breach] not in tags:
            raise ConfigError(f"breach target {breach!r} has tag {tag_of[breach]!r}, not among {list(tags)!r}")
    out = []
    for name, tag, check, sense, bound in _CHECKS:
        if tags is not None and tag not in tags:
            continue
        if breach == name:
            bound = -1.0 if sense == "<" else math.inf
        value = check()
        passed = bool(value < bound if sense == "<" else value > bound)
        out.append(CheckResult(name, tag, passed, f"value={value:.6e} bound{sense}{bound:.1e}"))
    return out
