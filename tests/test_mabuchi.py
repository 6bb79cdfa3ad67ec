"""Energy functional, gradients, probes, and path integrals."""

import os
import re
import subprocess
import sys
from pathlib import Path

import mpmath as mp
import numpy as np
import pytest

import kahlerlab
from kahlerlab.calabi import (
    KillingData,
    Profile,
    RuledSurfaceData,
    random_admissible_profile,
    scal_p_on,
    to_symplectic,
    weighted_average_c,
)
from kahlerlab.ckem import b_kappa, kappa_zero, solve_P, sweep
from kahlerlab.errors import BadDirection, ConfigError, NonFiniteCurvature, NotAdmissible, OutOfDomain
from kahlerlab import mabuchi
from kahlerlab.mabuchi import (
    BumpDirection,
    SymplecticPotential,
    fit_probe_slope,
    mabuchi_energy_amt,
    mabuchi_gradient_amt,
    mabuchi_path_integral,
    probe_bump,
    probe_slope,
    scale_bump_for_slope,
    straight_theta_path,
    unboundedness_probe,
)
from kahlerlab.numerics import gauss_legendre


def _sol(kappa):
    return solve_P(kappa, b_kappa(kappa))


def test_reference_energy_is_zero():
    sol = _sol(1.3)
    u = SymplecticPotential.reference(1.3)
    np.testing.assert_allclose(mabuchi_energy_amt(u, sol), 0.0, atol=1e-14)


def test_gradient_vanishes_at_euler_lagrange():
    sol = _sol(1.6)
    u = to_symplectic(sol.profile())
    rng = np.random.default_rng(7)
    for _ in range(5):
        bump = BumpDirection(rng.uniform(-0.6, 0.6), rng.uniform(0.1, 0.3), rng.uniform(0.5, 2.0))
        assert abs(mabuchi_gradient_amt(u, sol, bump)) < 1e-7


def test_gradient_matches_finite_differences():
    sol = _sol(1.3)
    u = SymplecticPotential.reference(1.3)
    bump = BumpDirection(0.2, 0.25, 0.8)
    grad = mabuchi_gradient_amt(u, sol, bump)
    eps = 1e-5

    def perturbed(e):
        # u'' + e v'', i.e. D + e (1-z^2) v''
        return SymplecticPotential(lambda z: u.D(z) + e * (1.0 - z * z) * bump(z), u.kappa)

    fd = (mabuchi_energy_amt(perturbed(eps), sol) - mabuchi_energy_amt(perturbed(-eps), sol)) / (2.0 * eps)
    np.testing.assert_allclose(grad, fd, atol=1e-8)


def test_bump_support_validation():
    with pytest.raises(OutOfDomain):
        BumpDirection(0.9, 0.2)
    with pytest.raises(OutOfDomain):
        BumpDirection(0.0, -0.1)


def test_probe_requires_negative_region():
    # kappa in the existence region: P > 0 everywhere, no admissible direction.
    sol = _sol(1.5)
    with pytest.raises(BadDirection):
        unboundedness_probe(sol, BumpDirection(0.0, 0.2), [1.0])


@pytest.mark.parametrize("target", [0.0, 2.0, float("nan")])
def test_scale_bump_for_slope_takes_a_negative_target(target):
    sol = _sol(0.5 * (1.0 + kappa_zero()))
    with pytest.raises(OutOfDomain, match="target slope must be negative"):
        scale_bump_for_slope(sol, probe_bump(sol), target)


def test_scale_bump_for_slope_needs_the_region_where_p_is_negative():
    # kappa in the existence region: P > 0, so every bump's slope is positive
    with pytest.raises(BadDirection, match="does not see the negativity region of P"):
        scale_bump_for_slope(_sol(1.5), BumpDirection(0.0, 0.2))


@pytest.mark.parametrize("kappa", [1.0, 0.5, float("nan"), float("inf")])
@pytest.mark.parametrize(
    "build",
    [
        lambda kappa: Profile(kappa, [1.0]),
        SymplecticPotential.reference,
        lambda kappa: Profile.from_callable(lambda z: 1.0 - z * z, kappa),
        b_kappa,
        lambda kappa: solve_P(kappa, 2.0),
        RuledSurfaceData.standard,
    ],
    ids=["Profile", "SymplecticPotential", "Profile.from_callable", "b_kappa", "solve_P", "RuledSurfaceData"],
)
def test_a_kappa_at_most_one_is_out_of_domain(build, kappa):
    # one gate for the class: an infinite kappa built a profile and a
    # potential, fitted an infinite coefficient and gave b_kappa = inf
    with pytest.raises(OutOfDomain, match="kappa must be > 1"):
        build(kappa)


@pytest.mark.parametrize(
    "dfun, end", [(lambda z: 2.0 + 0.0 * z, "2.0 at z=-1"), (lambda z: 1.0 + 0.25 * (1.0 + z) ** 2, "2.0 at z=+1")]
)
def test_symplectic_potential_must_meet_one_at_each_end(dfun, end):
    # (1-z^2) u'' is positive inside but misses 1 at an end
    with pytest.raises(NotAdmissible, match=re.escape(f"must approach 1 at the endpoints (got {end})")):
        SymplecticPotential(dfun, 1.5)


def test_probe_samples_its_support_once(monkeypatch):
    # one call builds the support rule once and calls the bump once: the P < 0
    # gate, the leading term and every k read that one sample
    sol = _sol(0.5 * (1.0 + kappa_zero()))
    bump = probe_bump(sol)
    calls = {"rule": 0, "bump": 0}
    rule, call = mabuchi._support_rule, BumpDirection.__call__

    def counted(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)
        return wrapper

    monkeypatch.setattr(mabuchi, "_support_rule", counted("rule", rule))
    monkeypatch.setattr(BumpDirection, "__call__", counted("bump", call))
    energies = unboundedness_probe(sol, bump, [float(k) for k in range(65)])
    assert calls == {"rule": 1, "bump": 1} and len(energies) == 65


def test_probe_rejects_a_negative_k_before_sampling(monkeypatch):
    # a negative k anywhere in the list is named before any rule is built,
    # and before a bad support (here P > 0 on it) is
    def no_rule(bump):
        raise AssertionError("support rule built before the k were checked")

    sol = _sol(0.5 * (1.0 + kappa_zero()))
    bump = probe_bump(sol)
    monkeypatch.setattr(mabuchi, "_support_rule", no_rule)
    with pytest.raises(OutOfDomain, match="k must be >= 0"):
        unboundedness_probe(sol, bump, [1.0, -1.0])
    with pytest.raises(OutOfDomain, match="k must be >= 0"):
        unboundedness_probe(_sol(1.5), BumpDirection(0.0, 0.2), [1.0, -1.0])


@pytest.mark.parametrize("k_big", [2.0**1023, 1e308], ids=["2**1023", "1e308"])
def test_probe_names_an_energy_past_the_float_range(k_big):
    # k * lead and k (1-z^2) bump overflow a float: an OutOfDomain naming the
    # first such k, with no numpy warning (which the test settings make errors)
    sol = _sol(0.5 * (1.0 + kappa_zero()))
    bump = probe_bump(sol)
    with pytest.raises(OutOfDomain, match=re.escape(f"probe energy is not finite at k = {k_big:.6g}") + "$"):
        unboundedness_probe(sol, bump, [0.0, 2.0, k_big, 4.0, k_big])
    assert np.isfinite(unboundedness_probe(sol, bump, [0.0, 1e300])).all()


def test_probe_diverges_below_threshold():
    k0 = kappa_zero()
    sol = _sol(0.5 * (1.0 + k0))
    from kahlerlab.ckem import interior_min

    _, zm = interior_min(sol.P)
    bump = scale_bump_for_slope(sol, BumpDirection(zm, 0.08), target=-2.0)
    ks = [float(k) for k in range(0, 33)]
    energies = unboundedness_probe(sol, bump, ks)
    assert energies[0] == 0.0
    assert all(b < a for a, b in zip(energies[1:], energies[2:]))
    fitted = fit_probe_slope(ks, energies)
    np.testing.assert_allclose(fitted, probe_slope(sol, bump), rtol=2e-2)


def test_probe_slope_fit_needs_three_tail_points():
    # the tail of 0,1,2,4,8 is k = 4, 8: two points for three unknowns
    ks = [0.0, 1.0, 2.0, 4.0, 8.0]
    with pytest.raises(ConfigError):
        fit_probe_slope(ks, [-k for k in ks])
    with pytest.raises(ConfigError):
        fit_probe_slope([0.0, 0.0], [0.0, 0.0])
    ks = [0.0, 1.0, 2.0, 4.0, 8.0, 16.0]
    np.testing.assert_allclose(fit_probe_slope(ks, [1.0 - 3.0 * k for k in ks]), -3.0, rtol=1e-12)


def test_probe_slope_fit_does_not_depend_on_the_order_of_k():
    # the probe's own energies: forward, reversed and shuffled rows of the
    # same (k, E) pairs give the same bits (lstsq on rows in another order
    # can differ in the last digits, so the fit sorts them)
    sol = _sol(0.5 * (1.0 + kappa_zero()))
    ks = [0.0, 1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0]
    pairs = list(zip(ks, unboundedness_probe(sol, probe_bump(sol), ks)))
    shuffled = [pairs[i] for i in np.random.default_rng(7).permutation(len(pairs))]
    slopes = {fit_probe_slope(*zip(*rows)) for rows in (pairs, pairs[::-1], shuffled)}
    assert len(slopes) == 1


def test_probe_slope_fit_loads_no_module():
    # np.median and np.unique load numpy.ma on their first call (numpy 2.x);
    # the fit takes its median off the sorted k and counts distinct k in a set
    code = (
        "import sys\n"
        "from kahlerlab.mabuchi import fit_probe_slope\n"
        "before = set(sys.modules)\n"
        "fit_probe_slope([0, 1, 2, 4, 8, 16], [1.0 - 3.0 * k for k in (0, 1, 2, 4, 8, 16)])\n"
        "sys.exit(sorted(set(sys.modules) - before) or 0)\n"
    )
    src = str(Path(kahlerlab.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr


def test_probe_bump_stays_inside_the_negative_region():
    # midway to kappa0 of the standard surface half the root gap of P is
    # 0.0985, so the radius stays 0.08; at that of (2, 5) P < 0 only on
    # (-0.988, -0.820) around the argmin -0.879, so the bump shrinks
    X5 = RuledSurfaceData.standard(1.5, genus=2, degree=5)
    kappa = 0.5 * (1.0 + kappa_zero(X5))
    sols = [_sol(0.5 * (1.0 + kappa_zero())), solve_P(kappa, b_kappa(kappa), X5)]
    bumps = [probe_bump(sol) for sol in sols]
    assert bumps[0].radius == 0.08 and bumps[1].radius < 0.08
    for sol, bump in zip(sols, bumps):
        z = np.linspace(bump.center - bump.radius, bump.center + bump.radius, 1001)
        assert np.max(sol.P(z)) < 0.0
        np.testing.assert_allclose(probe_slope(sol, bump), -2.0, rtol=1e-12)


@pytest.mark.parametrize("genus, degree", [(2, 1), (2, 5), (5, 1)])
def test_probe_terms_match_mpmath_on_the_bump_support(genus, degree):
    # the leading term int P f^{-3} bump and E(k) at k = 0, 0.5, 8 and 64, all
    # from one probe call, against 40-digit tanh-sinh quadrature on the
    # support; at (2, 5) the bump's radius is 0.0295
    X = RuledSurfaceData.standard(1.5, genus=genus, degree=degree)
    kappa = 0.5 * (1.0 + kappa_zero(X))
    sol = solve_P(kappa, b_kappa(kappa), X)
    bump = probe_bump(sol)
    with mp.workdps(40):
        c, r, a, b = (mp.mpf(v) for v in (*bump, sol.b))
        P = [mp.mpf(v) for v in sol.P.coef[::-1]]

        def bz(z):
            s = (z - c) / r
            return a * mp.exp(-1 / (1 - s * s)) if abs(s) < 1 else mp.mpf(0)

        lead = mp.quad(lambda z: mp.polyval(P, z) * (z + b) ** -3 * bz(z), [c - r, c, c + r])

        def energy(k):
            k = mp.mpf(k)
            logs = mp.quad(lambda z: (z + kappa) * (z + b) ** -3 * mp.log1p(k * (1 - z * z) * bz(z)), [c - r, c, c + r])
            return float(k * lead - logs)

        ks = [0.0, 0.5, 8.0, 64.0]
        want = [energy(k) for k in ks]
    assert abs(probe_slope(sol, bump) - float(lead)) <= 1e-14
    got = unboundedness_probe(sol, bump, ks)
    assert max(abs(g - w) for g, w in zip(got, want)) <= 1e-12, (got, want)


def test_path_integral_closes_on_loops():
    # kappa = 1.001: the profiles' relative accuracy next to z = +-1 matters
    # at the outermost u_dot'' samples
    for kappa in (1.25, 1.001):
        sol = _sol(kappa)
        kd = KillingData(b=sol.b, p=4.0)
        rng = np.random.default_rng(11)
        profs = [random_admissible_profile(rng, kappa, degree=3) for _ in range(3)]
        loop = sum(
            mabuchi_path_integral(straight_theta_path(profs[i], profs[(i + 1) % 3]), kd, sol)
            for i in range(3)
        )
        assert abs(loop) < 1e-8, kappa


def test_path_integral_equals_amt_energy():
    # The closed-form energy and the 1-form integrated from the reference
    # profile agree with constant exactly 1 in this normalization. At
    # kappa = 1.001 and 1.0001 the energy's (z+kappa) weight nearly vanishes
    # at z = -1.
    for kappa in (1.25, 1.001, 1.0001):
        sol = _sol(kappa)
        kd = KillingData(b=sol.b, p=4.0)
        ref_prof = SymplecticPotential.reference(kappa).profile()
        rng = np.random.default_rng(17)
        for _ in range(3):
            prof = random_admissible_profile(rng, kappa, degree=3, scale=0.35)
            amt = mabuchi_energy_amt(to_symplectic(prof), sol)
            path = mabuchi_path_integral(straight_theta_path(ref_prof, prof), kd, sol)
            np.testing.assert_allclose(path, amt, rtol=1e-10, err_msg=str(kappa))


def test_theta_path_requires_matching_kappa():
    rng = np.random.default_rng(19)
    p0 = random_admissible_profile(rng, 1.25)
    p1 = random_admissible_profile(rng, 1.5)
    with pytest.raises(OutOfDomain):
        straight_theta_path(p0, p1)


@pytest.mark.parametrize("below", ["midpoint", 1e-3, 1e-6])
def test_potential_below_kappa0_is_not_admissible(below):
    # P < 0 somewhere inside; at kappa0 - 1e-6 only one node of the check grid sees it
    k0 = kappa_zero()
    sol = _sol(0.5 * (1.0 + k0) if below == "midpoint" else k0 - below)
    with pytest.raises(NotAdmissible):
        to_symplectic(sol.profile())


def test_symplectic_admissibility():
    with pytest.raises(NotAdmissible):
        SymplecticPotential(lambda z: np.asarray(z) * 0.0 - 1.0, 1.5)


def test_path_integral_fits_at_most_one_profile(monkeypatch):
    # a straight path samples its endpoints once: no refit per path node
    kappa = 1.25
    sol = _sol(kappa)
    kd = KillingData(b=sol.b, p=4.0)
    rng = np.random.default_rng(29)
    p0, p1 = (random_admissible_profile(rng, kappa, degree=3) for _ in range(2))
    fit = Profile.from_callable
    calls = []

    def counted(theta_fn, kap):
        calls.append(kap)
        return fit(theta_fn, kap)

    monkeypatch.setattr(Profile, "from_callable", staticmethod(counted))
    mabuchi_path_integral(straight_theta_path(p0, p1), kd, sol)
    assert len(calls) <= 1, len(calls)


class _UnreadKappa(RuledSurfaceData):
    """A surface record whose kappa field fails the test when read."""

    __slots__ = ()

    @property
    def kappa(self):
        pytest.fail("a solver read the surface record's kappa")


def test_kappa_is_an_argument_and_the_surface_record_is_kept():
    # the class is every solver's argument: solved at kappa = 3.0, a record
    # built with kappa 1.5 comes back as it was given, its kappa unread, and
    # gives the bits of a record built with kappa 3.0
    kappa = 3.0
    X15, X30 = _UnreadKappa(3, 2, 1.5, -4.0), RuledSurfaceData(3, 2, kappa, -4.0)
    sol, want = solve_P(kappa, b_kappa(kappa), X15), solve_P(kappa, b_kappa(kappa), X30)
    assert sol.surface is X15 and want.surface is X30
    assert sol.P.coef.tobytes() == want.P.coef.tobytes()
    assert (sol.c, sol.futaki_residual) == (want.c, want.futaki_residual)
    kd = KillingData(b=sol.b, p=4.0)
    assert weighted_average_c(X15, kd, kappa) == weighted_average_c(X30, kd, kappa)
    rng = np.random.default_rng(47)
    path = straight_theta_path(*(random_admissible_profile(rng, kappa, degree=3) for _ in range(2)))
    assert mabuchi_path_integral(path, kd, sol) == mabuchi_path_integral(path, kd, want)
    assert kappa_zero(X15) == kappa_zero(X30)
    assert sweep([1.01, 1.5, kappa], X15) == sweep([1.01, 1.5, kappa], X30)


def test_path_integral_rejects_a_mixed_class():
    # profiles and potentials at kappa = 1.5 against the solution at 1.25
    sol = _sol(1.25)
    kd = KillingData(b=sol.b, p=4.0)
    rng = np.random.default_rng(31)
    p0, p1 = (random_admissible_profile(rng, 1.5, degree=3) for _ in range(2))
    with pytest.raises(OutOfDomain):
        mabuchi_path_integral(straight_theta_path(p0, p1), kd, sol)


def test_energy_rejects_a_mixed_class():
    sol = _sol(1.25)
    u = to_symplectic(random_admissible_profile(np.random.default_rng(37), 1.5, degree=3))
    with pytest.raises(OutOfDomain):
        mabuchi_energy_amt(u, sol)


def test_gradient_rejects_a_mixed_class():
    sol = _sol(1.25)
    u = to_symplectic(random_admissible_profile(np.random.default_rng(41), 1.5, degree=3))
    with pytest.raises(OutOfDomain):
        mabuchi_gradient_amt(u, sol, BumpDirection(0.2, 0.25, 0.8))


def test_udot_operator_matches_closed_forms():
    # u_dot'' with u_dot(0) = u_dot'(0) = 0, integrated by hand: polynomial
    # and exponential
    cases = [
        (lambda z: np.ones_like(z), lambda z: 0.5 * z * z),
        (lambda z: z, lambda z: z**3 / 6.0),
        (np.exp, lambda z: np.exp(z) - 1.0 - z),
    ]
    zq = gauss_legendre(256).nodes
    assert mabuchi._udot_operator().shape == (256, 128)
    for u2, u in cases:
        got = mabuchi._udot_operator() @ u2(mabuchi._UDOT_Z)
        assert np.max(np.abs(got - u(zq))) < 1e-12


def test_reversed_w_mirrors_udot():
    rng = np.random.default_rng(43)
    z = mabuchi._UDOT_Z
    w = 1.0 + 0.3 * z + 0.2 * np.sin(3.0 * z) + 0.1 * rng.normal() * z * z
    K = mabuchi._udot_operator()
    np.testing.assert_allclose(K @ w[::-1], (K @ w)[::-1], rtol=0, atol=1e-13)


def test_udot_operator_is_built_once():
    kappa = 1.25
    sol = _sol(kappa)
    kd = KillingData(b=sol.b, p=4.0)
    rng = np.random.default_rng(47)
    p0, p1 = (random_admissible_profile(rng, kappa, degree=3) for _ in range(2))
    mabuchi._udot_operator.cache_clear()
    for a, b in ((p0, p1), (p1, p0)):
        mabuchi_path_integral(straight_theta_path(a, b), kd, sol)
    assert mabuchi._udot_operator.cache_info().misses == 1
    assert not mabuchi._udot_operator().flags.writeable


def _per_node_path_integral(ends, kd, sol):
    """The 1-form summed node by node over the t-rule, written apart from
    mabuchi_path_integral's fold: blend the endpoint samples at each t, form
    u_dot_t'', then one u_dot product and one Scal_p evaluation per node."""
    zrule, zu = gauss_legendre(256), mabuchi._UDOT_Z
    zq, kappa = zrule.nodes, sol.kappa
    wgt = zrule.weights * (zq + kd.b) ** (-(kd.p + 1.0)) * (zq + kappa)
    # c by quadrature of its defining ratio on the start profile
    c = float(np.dot(scal_p_on(zq, ends[0].jet(zq), sol.surface, kd, kappa), wgt)) / float(wgt.sum())
    j0, j1 = (p.jet(zq) for p in ends)
    th0, th1 = (p.jet(zu)[0] for p in ends)
    trule = gauss_legendre(mabuchi._PATH_ORDER, 0.0, 1.0)
    total = 0.0
    for t, wt in zip(trule.nodes, trule.weights):
        jet = tuple((1.0 - t) * a + t * b for a, b in zip(j0, j1))
        u2 = (th0 - th1) / ((1.0 - t) * th0 + t * th1) ** 2
        scal = scal_p_on(zq, jet, sol.surface, kd, kappa)
        total += wt * float(np.dot(mabuchi._udot_operator() @ u2, (scal - c) * wgt))
    return total


def test_path_reduction_matches_the_per_node_sum():
    # legs from the reference profile, and one between two random profiles
    for kappa in (1.25, 1.001):
        sol = _sol(kappa)
        kd = KillingData(b=sol.b, p=4.0)
        rng = np.random.default_rng(53)
        ref = SymplecticPotential.reference(kappa).profile()
        profs = [random_admissible_profile(rng, kappa, degree=3, scale=0.35) for _ in range(3)]
        for ends in ((ref, profs[0]), (ref, profs[1]), (profs[1], profs[2])):
            got = mabuchi_path_integral(straight_theta_path(*ends), kd, sol)
            want = _per_node_path_integral(ends, kd, sol)
            np.testing.assert_allclose(got, want, rtol=1e-13, atol=0.0, err_msg=str(kappa))


def test_theta_path_stores_read_only_stacks():
    # jets[i, e] is field i of endpoint e's jet on the z-rule, thetas[e] its Theta on _UDOT_Z
    rng = np.random.default_rng(67)
    ends = [random_admissible_profile(rng, 1.25, degree=3) for _ in range(2)]
    path = straight_theta_path(*ends)
    zq = gauss_legendre(256).nodes
    assert path.jets.shape == (3, 2, 256) and path.thetas.shape == (2, len(mabuchi._UDOT_Z))
    assert not path.jets.flags.writeable and not path.thetas.flags.writeable
    for e, p in enumerate(ends):
        for i, field in enumerate(p.jet(zq)):
            assert np.array_equal(path.jets[i, e], field)
        assert np.array_equal(path.thetas[e], p.jet(mabuchi._UDOT_Z)[0])


def test_reversed_path_negates_the_1_form():
    # the t-rule is symmetric about t = 1/2, so reversing a leg only negates it
    for kappa in (1.25, 1.001):
        sol = _sol(kappa)
        kd = KillingData(b=sol.b, p=4.0)
        rng = np.random.default_rng(71)
        for _ in range(3):
            p0, p1 = (random_admissible_profile(rng, kappa, degree=3) for _ in range(2))
            fwd = mabuchi_path_integral(straight_theta_path(p0, p1), kd, sol)
            back = mabuchi_path_integral(straight_theta_path(p1, p0), kd, sol)
            np.testing.assert_allclose(back, -fwd, rtol=1e-13, atol=0.0, err_msg=str(kappa))


def test_t_fold_is_built_once():
    kappa = 1.25
    sol = _sol(kappa)
    kd = KillingData(b=sol.b, p=4.0)
    rng = np.random.default_rng(73)
    p0, p1 = (random_admissible_profile(rng, kappa, degree=3) for _ in range(2))
    mabuchi._t_fold.cache_clear()
    for a, b in ((p0, p1), (p1, p0)):
        mabuchi_path_integral(straight_theta_path(a, b), kd, sol)
    assert mabuchi._t_fold.cache_info().misses == 1
    fold = mabuchi._t_fold()
    assert fold.shape == (2, 2, mabuchi._PATH_ORDER) and not fold.flags.writeable
    t, w = gauss_legendre(mabuchi._PATH_ORDER, 0.0, 1.0)
    assert np.array_equal(fold[0], [1.0 - t, t]) and np.array_equal(fold[1], [w * (1.0 - t), w * t])


@pytest.mark.parametrize("end", [0, 1])
def test_path_integral_checks_each_endpoints_samples(end):
    # the 1-form itself checks the stored samples: Theta > 0 and a finite Scal_p
    kappa = 1.25
    sol = _sol(kappa)
    kd = KillingData(b=sol.b, p=4.0)
    rng = np.random.default_rng(79)
    path = straight_theta_path(*(random_admissible_profile(rng, kappa, degree=3) for _ in range(2)))
    for field, value, error in ((0, 0.0, NotAdmissible), (2, np.nan, NonFiniteCurvature)):
        jets = path.jets.copy()
        jets[field, end, 100] = value
        with pytest.raises(error):
            mabuchi_path_integral(path._replace(jets=jets), kd, sol)


def test_udot_runs_twice_per_theta_path(monkeypatch):
    # two u_dot columns per path, in one operator product: not one per t-node
    kappa = 1.25
    sol = _sol(kappa)
    kd = KillingData(b=sol.b, p=4.0)
    rng = np.random.default_rng(59)
    p0, p1 = (random_admissible_profile(rng, kappa, degree=3) for _ in range(2))
    K = mabuchi._udot_operator()
    calls = []

    class Counted:
        def __matmul__(self, w):
            calls.append(np.shape(w))
            return K @ w

    monkeypatch.setattr(mabuchi, "_udot_operator", Counted)
    mabuchi_path_integral(straight_theta_path(p0, p1), kd, sol)
    assert calls == [(len(mabuchi._UDOT_Z), 2)]


@pytest.mark.parametrize("end", [0, 1])
def test_theta_path_rejects_an_endpoint_off_the_boundary_conditions(end):
    # Theta = 2(1-z^2) has Theta'(+-1) = -+4, so u_dot'' is unbounded at z = +-1
    rng = np.random.default_rng(61)
    good = random_admissible_profile(rng, 1.25, degree=3)
    bad = Profile.from_callable(lambda z: 2 * (1 - z * z), 1.25)
    ends = (bad, good) if end == 0 else (good, bad)
    with pytest.raises(NotAdmissible):
        straight_theta_path(*ends)


def test_theta_path_through_a_negative_profile_is_not_admissible():
    # midway to kappa0, Theta = P_kappa/(z+kappa) is negative where P is
    kappa = 1.0 + 0.5 * (kappa_zero() - 1.0)
    sol = _sol(kappa)
    kd = KillingData(b=sol.b, p=4.0)
    bad = sol.profile()
    assert np.min(bad.jet(gauss_legendre(256).nodes)[0]) < 0.0
    ref = SymplecticPotential.reference(kappa).profile()
    for ends in ((ref, bad), (bad, ref)):
        with pytest.raises(NotAdmissible):
            mabuchi_path_integral(straight_theta_path(*ends), kd, sol)
