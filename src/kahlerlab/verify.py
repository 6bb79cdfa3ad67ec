"""Invariant suite behind the `verify` subcommand.

Each check is a small named computation tagged by module area; the suite
returns one row per check and the CLI turns the rows into CSV and an exit
code.  Everything here is deterministic — fixed seeds, fixed quadrature —
so two runs of the same suite produce byte-identical output.

A "breach" names one check whose tolerance is replaced by an impossible
bound.  That is a plumbing test for the exit-code path, not a numerical
feature: the breached check fails by construction.
"""

from __future__ import annotations

import io
import csv
import math
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .numerics import gauss_legendre
from .tolerances import TOL
from .errors import BadDirection, OutOfDomain
from .calabi import (
    KillingData,
    RuledSurfaceData,
    check_boundary,
    random_admissible_profile,
    scal_p_on,
    weighted_average_c,
    weighted_scalar_curvature,
    ansatz_scalar_curvature,
)
from .ckem import (
    ClassLabel,
    b_kappa,
    classify,
    futaki_residual,
    interior_min,
    kappa_zero,
    solve_P,
)
from .mabuchi import (
    BumpDirection,
    SymplecticPotential,
    fit_probe_slope,
    mabuchi_gradient_amt,
    mabuchi_path_integral,
    probe_bump,
    probe_slope,
    straight_theta_path,
    unboundedness_probe,
)
from .quantization import (
    ToyModel,
    balanced_iterate,
    balanced_residual,
    bergman_density,
    c_k_constant,
    eigenvalues,
    fs,
    hilb,
    random_potential,
    rho_p,
    round_potential,
    sup_grid,
)
from .functionals import functional_L, functional_Z, geodesic, z_prime

__all__ = ["CheckResult", "CHECK_CSV_HEADER", "ALL_TAGS", "run_checks", "write_check_csv", "all_passed"]

CHECK_CSV_HEADER = "name,tag,passed,detail"
ALL_TAGS = ("numerics", "calabi", "ckem", "mabuchi", "quant", "functionals")


class CheckResult(NamedTuple):
    name: str
    tag: str
    passed: bool
    detail: str


def _upper(name: str, tag: str, value: float, tol: float, breach: bool) -> CheckResult:
    bound = -1.0 if breach else tol
    return CheckResult(name, tag, bool(value < bound), f"value={value:.6e} bound<{bound:.1e}")


def _lower(name: str, tag: str, value: float, tol: float, breach: bool) -> CheckResult:
    bound = math.inf if breach else tol
    return CheckResult(name, tag, bool(value > bound), f"value={value:.6e} bound>{bound:.1e}")


# -- individual checks -------------------------------------------------------
# Each takes `breach: bool` and returns a CheckResult.  Keep them quick: the
# suite runs twice back to back in the determinism test.


def _chk_quad_exactness(breach: bool) -> CheckResult:
    rule = gauss_legendre(12, -1.0, 1.0)
    err = abs(float(np.dot(rule.weights, rule.nodes**23)) - 0.0)
    err += abs(float(np.dot(rule.weights, rule.nodes**22)) - 2.0 / 23.0)
    return _upper("quad-exactness", "numerics", err, TOL.quad_exactness, breach)


def _chk_boundary_round(breach: bool) -> CheckResult:
    sol = solve_P(1.25, 2.0)
    rep = check_boundary(sol.profile())
    worst = max(abs(d) for d in rep.defects)
    return _upper("boundary-defects", "calabi", worst, TOL.boundary_defect, breach)


def _chk_c_invariance(breach: bool) -> CheckResult:
    """The defining ratio of c by quadrature, for two random profiles,
    against the closed form: c does not depend on the profile."""
    rng = np.random.default_rng(7)
    X = RuledSurfaceData.standard(1.25)
    kd = KillingData(b=2.0, p=4.0)
    rule = gauss_legendre(TOL.quad_order_mabuchi)
    z = rule.nodes
    weight = rule.weights * (z + kd.b) ** (-(kd.p + 1.0)) * (z + X.kappa)
    c = weighted_average_c(X, kd)
    gap = 0.0
    for _ in range(2):
        prof = random_admissible_profile(rng, X.kappa)
        quad = float(np.dot(scal_p_on(z, prof.jet(z), X, kd, X.kappa), weight)) / float(weight.sum())
        gap = max(gap, abs(quad - c))
    return _upper("c-invariance", "calabi", gap, TOL.c_invariance, breach)


def _chk_p1_reduction(breach: bool) -> CheckResult:
    rng = np.random.default_rng(11)
    X = RuledSurfaceData.standard(1.3)
    prof = random_admissible_profile(rng, 1.3)
    kd = KillingData(b=2.2, p=1.0)
    z = np.linspace(-0.95, 0.95, 301)
    f = z + kd.b
    gap = float(np.max(np.abs(weighted_scalar_curvature(prof, X, kd)(z) - f * f * ansatz_scalar_curvature(prof, X)(z))))
    return _upper("p1-reduction", "calabi", gap, TOL.p1_reduction, breach)


def _chk_futaki_on_curve(breach: bool) -> CheckResult:
    b = 2.0
    kappa = (1.0 + b * b) / (2.0 * b)
    val = abs(futaki_residual(kappa)(b))
    return _upper("futaki-on-curve", "ckem", val, TOL.futaki_on_curve, breach)


def _chk_futaki_off_curve(breach: bool) -> CheckResult:
    b = 2.0
    kappa = (1.0 + b * b) / (2.0 * b)
    val = min(abs(futaki_residual(kappa)(b - 0.1)), abs(futaki_residual(kappa)(b + 0.1)))
    return _lower("futaki-off-curve", "ckem", val, TOL.futaki_off_curve, breach)


def _chk_kappa0(breach: bool) -> CheckResult:
    k0 = kappa_zero()
    m, _ = interior_min(solve_P(k0, b_kappa(k0)).P)
    ok_labels = (
        classify(1.0 + 0.5 * (k0 - 1.0)) is ClassLabel.NEGATIVE_SOMEWHERE
        and classify(k0 + 0.5) is ClassLabel.EXISTS_CKEM
    )
    val = abs(m) if ok_labels else math.inf
    return _upper("kappa0-double-root", "ckem", val, TOL.kappa_zero_tol, breach)


def _chk_el_gradient(breach: bool) -> CheckResult:
    kappa = 1.6
    sol = solve_P(kappa, b_kappa(kappa))
    u = SymplecticPotential.euler_lagrange(sol)
    rng = np.random.default_rng(3)
    worst = 0.0
    for _ in range(3):
        c = rng.uniform(-0.6, 0.6)
        r = rng.uniform(0.1, 0.3)
        bump = BumpDirection(center=c, radius=r, amplitude=rng.uniform(0.5, 2.0))
        worst = max(worst, abs(mabuchi_gradient_amt(u, sol, bump)))
    return _upper("el-gradient", "mabuchi", worst, TOL.el_gradient, breach)


def _chk_loop_closure(breach: bool) -> CheckResult:
    kappa = 1.25
    sol = solve_P(kappa, b_kappa(kappa))
    kd = KillingData(b=sol.b, p=4.0)
    rng = np.random.default_rng(23)
    profs = [random_admissible_profile(rng, kappa, degree=3) for _ in range(3)]
    loop = sum(
        mabuchi_path_integral(straight_theta_path(profs[i], profs[(i + 1) % 3]), kd, sol)
        for i in range(3)
    )
    return _upper("loop-closure", "mabuchi", abs(loop), TOL.loop_closure, breach)


def _chk_probe_slope(breach: bool) -> CheckResult:
    k0 = kappa_zero()
    kappa = 0.5 * (1.0 + k0)
    sol = solve_P(kappa, b_kappa(kappa))
    try:
        bump = probe_bump(sol)
        ks = [4.0, 8.0, 16.0, 32.0, 64.0]
        fitted = fit_probe_slope(ks, unboundedness_probe(sol, bump, ks))
    except BadDirection:
        return CheckResult("probe-slope", "mabuchi", False, "no admissible bump found")
    rel = abs(fitted - probe_slope(sol, bump)) / abs(probe_slope(sol, bump))
    return _upper("probe-slope", "mabuchi", rel, TOL.probe_slope_rel, breach)


def _chk_rho_identity(breach: bool) -> CheckResult:
    model = ToyModel(b0=1.0, p=4.0)
    k = 8
    phi = round_potential()
    spec = eigenvalues(k, model)
    mu = sup_grid()
    lhs = rho_p(phi, k, model)(mu)
    b_main = bergman_density(phi, k, model, Psi=lambda f: f ** (1.0 - model.p), Phi=lambda lam: lam ** (1.0 - model.p))(mu)
    b_corr = bergman_density(phi, k, model, Psi=lambda f: f ** (1.0 - model.p), Phi=lambda lam: lam ** (-(model.p + 1.0)))(mu)
    gap = float(np.max(np.abs(lhs - (b_main - spec.c / (4.0 * k) * b_corr))))
    return _upper("rho-identity", "quant", gap, TOL.rho_identity, breach)


def _chk_trace_identity(breach: bool) -> CheckResult:
    model = ToyModel(b0=1.0, p=4.0)
    k = 8
    phi = round_potential()
    spec = eigenvalues(k, model)
    rule = gauss_legendre(TOL.quad_order_quant, 0.0, 1.0)
    total = 2.0 * math.pi * k * float(np.dot(rule.weights, rho_p(phi, k, model)(rule.nodes)))
    rel = abs(total - float(np.sum(spec.lam_p))) / float(np.sum(spec.lam_p))
    return _upper("trace-identity", "quant", rel, TOL.trace_identity, breach)


def _chk_ck_normalization(breach: bool) -> CheckResult:
    model = ToyModel(p=1.0)
    gap = max(
        abs(2.0 * math.pi * c_k_constant(k, model) - (1.0 - 1.0 / k**2)) for k in (2, 4, 8)
    )
    return _upper("ck-normalization", "quant", gap, 1e-13, breach)


def _chk_fs_hilb_round(breach: bool) -> CheckResult:
    model = ToyModel(p=1.0)
    k = 8
    phi = round_potential()
    psi_back = fs(hilb(phi, k, model), k, model)
    t = np.linspace(-8.0, 8.0, 161)
    gap = float(np.max(np.abs(psi_back.at_t(t).psi - phi.at_t(t).psi)))
    return _upper("fs-hilb-round", "quant", gap, 1e-12, breach)


def _chk_balanced_round(breach: bool) -> CheckResult:
    model = ToyModel(p=1.0)
    k = 8
    res = balanced_iterate(round_potential(), k, model)
    val = balanced_residual(res.H, k, model)
    return _upper("balanced-round", "quant", val, TOL.balanced_residual, breach)


def _chk_z_convexity(breach: bool) -> CheckResult:
    model = ToyModel(p=4.0)
    k = 8
    H = hilb(round_potential(), k, model)
    rng = np.random.default_rng(17)
    worst = math.inf
    for _ in range(3):
        A = rng.normal(size=k + 1)
        A -= A.mean()
        ts = np.linspace(-0.3, 0.3, 7)
        zs = [functional_Z(geodesic(H, A, float(t), model), k, model) for t in ts]
        worst = min(worst, float(np.min(np.diff(zs, 2))))
    return _upper("z-convexity", "functionals", -worst, TOL.z_convexity, breach)


def _chk_z_prime(breach: bool) -> CheckResult:
    model = ToyModel(p=4.0)
    k = 8
    H = hilb(round_potential(), k, model)
    rng = np.random.default_rng(19)
    worst = 0.0
    for _ in range(3):
        A = rng.normal(size=k + 1)
        A -= A.mean()
        worst = max(worst, abs(z_prime(H, A, k, model)))
    return _upper("z-prime-balanced", "functionals", worst, TOL.z_prime, breach)


def _chk_zl_decay(breach: bool) -> CheckResult:
    # At the round potential L == Z∘hilb identically (fs∘hilb fixes it), so a
    # genuine decay measurement needs a generic potential.
    model = ToyModel(p=4.0)
    phi = random_potential(np.random.default_rng(29), scale=0.5)
    gaps = []
    for k in (8, 16):
        H = hilb(phi, k, model)
        gaps.append(abs(functional_L(phi, k, model) - functional_Z(H, k, model)) / k)
    return _upper("zl-decay", "functionals", gaps[1] / gaps[0], 1.0, breach)


_CHECKS: Sequence[tuple[str, str, Callable[[bool], CheckResult]]] = (
    ("quad-exactness", "numerics", _chk_quad_exactness),
    ("boundary-defects", "calabi", _chk_boundary_round),
    ("c-invariance", "calabi", _chk_c_invariance),
    ("p1-reduction", "calabi", _chk_p1_reduction),
    ("futaki-on-curve", "ckem", _chk_futaki_on_curve),
    ("futaki-off-curve", "ckem", _chk_futaki_off_curve),
    ("kappa0-double-root", "ckem", _chk_kappa0),
    ("el-gradient", "mabuchi", _chk_el_gradient),
    ("loop-closure", "mabuchi", _chk_loop_closure),
    ("probe-slope", "mabuchi", _chk_probe_slope),
    ("rho-identity", "quant", _chk_rho_identity),
    ("trace-identity", "quant", _chk_trace_identity),
    ("ck-normalization", "quant", _chk_ck_normalization),
    ("fs-hilb-round", "quant", _chk_fs_hilb_round),
    ("balanced-round", "quant", _chk_balanced_round),
    ("z-convexity", "functionals", _chk_z_convexity),
    ("z-prime-balanced", "functionals", _chk_z_prime),
    ("zl-decay", "functionals", _chk_zl_decay),
)


def run_checks(tags: Sequence[str] | None = None, breach: str | None = None) -> list[CheckResult]:
    """Run the suite (optionally restricted to `tags`), one result per check.

    `breach` names a check whose tolerance is made impossible — used to test
    the failure path end to end.
    """
    names = {name for name, _, _ in _CHECKS}
    if breach is not None and breach not in names:
        raise OutOfDomain(f"unknown breach target {breach!r}")
    if tags is not None:
        bad = set(tags) - set(ALL_TAGS)
        if bad:
            raise OutOfDomain(f"unknown tags {sorted(bad)!r}")
    out = []
    for name, tag, fn in _CHECKS:
        if tags is not None and tag not in tags:
            continue
        out.append(fn(breach == name))
    return out


def write_check_csv(results: Sequence[CheckResult], stream: io.TextIOBase) -> None:
    writer = csv.writer(stream, lineterminator="\n")
    writer.writerow(CHECK_CSV_HEADER.split(","))
    for r in results:
        writer.writerow([r.name, r.tag, str(r.passed), r.detail])


def all_passed(results: Sequence[CheckResult]) -> bool:
    return all(r.passed for r in results)
