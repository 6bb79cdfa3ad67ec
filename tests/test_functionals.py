"""Energy functionals over norms and potentials, geodesics, and the
quantized/continuum comparisons."""

import math

import numpy as np
import pytest

from kahlerlab import functionals
from kahlerlab import quantization as quant
from kahlerlab.errors import NotTraceless, OutOfDomain
from kahlerlab.numerics import gauss_legendre
from kahlerlab.functionals import (
    almost_balanced_check,
    aubin_I,
    aubin_path,
    functional_I,
    functional_L,
    functional_Z,
    geodesic,
    toy_mabuchi,
    z_prime,
)
from kahlerlab.quantization import (
    FSPotential,
    HermitianNorms,
    ToyModel,
    c_k_constant,
    eigenvalues,
    fs,
    hilb,
    random_potential,
    round_potential,
    shift_potential,
)

M0 = ToyModel(p=1.0)
M4 = ToyModel(p=4.0)
MW = ToyModel(b0=1.0, p=4.0)


def test_functional_I_is_weighted_log_norm_sum():
    k = 6
    spec = eigenvalues(k, MW)
    H = HermitianNorms(k=k, log_h=np.zeros(k + 1))
    assert functional_I(H, spec) == 0.0
    shifted = HermitianNorms(k=k, log_h=np.full(k + 1, 0.3))
    np.testing.assert_allclose(
        functional_I(shifted, spec), 0.3 * float(np.sum(spec.lam_p)), rtol=1e-13
    )


def test_functional_I_validates_length():
    spec = eigenvalues(4, MW)
    H = HermitianNorms(k=5, log_h=np.zeros(6))
    with pytest.raises(OutOfDomain):
        functional_I(H, spec)


def test_aubin_reference_to_itself_vanishes():
    assert aubin_I(round_potential(), 8, MW) == 0.0


def test_aubin_path_additive_around_triangles():
    rng = np.random.default_rng(0)
    k = 6
    phis = [random_potential(rng, scale=0.5) for _ in range(3)]
    loop = sum(aubin_path(phis[i], phis[(i + 1) % 3], k, MW) for i in range(3))
    assert abs(loop) < 1e-10


def test_constant_shift_identities():
    # 'I'(phi + s) - 'I'(phi) = 2 k s sum lambda_j(p), and L is invariant.
    k, s = 8, 0.41
    phi = random_potential(np.random.default_rng(1), scale=0.5)
    spec = eigenvalues(k, MW)
    d_aubin = aubin_I(shift_potential(phi, s), k, MW) - aubin_I(phi, k, MW)
    np.testing.assert_allclose(d_aubin, 2.0 * k * s * float(np.sum(spec.lam_p)), rtol=1e-9)
    dL = functional_L(shift_potential(phi, s), k, MW) - functional_L(phi, k, MW)
    assert abs(dL) < 1e-8


def test_L_equals_Z_of_hilb_at_round_in_unweighted_mode():
    k = 8
    phi = round_potential()
    np.testing.assert_allclose(
        functional_L(phi, k, M0), functional_Z(hilb(phi, k, M0), k, M0), atol=1e-10
    )


def test_zl_gap_shrinks_with_k():
    phi = random_potential(np.random.default_rng(2), scale=0.5)
    gaps = []
    for k in (8, 16):
        gaps.append(abs(functional_L(phi, k, M4) - functional_Z(hilb(phi, k, M4), k, M4)) / k)
    assert gaps[1] < 0.7 * gaps[0]


def test_toy_mabuchi_round_is_zero_and_shift_invariant():
    assert toy_mabuchi(round_potential(), M0) == 0.0
    phi = random_potential(np.random.default_rng(3), scale=0.5)
    a = toy_mabuchi(phi, M0)
    b = toy_mabuchi(shift_potential(phi, 0.3), M0)
    np.testing.assert_allclose(a, b, atol=1e-9)
    assert a > 0.0


def test_geodesic_moves_log_norms_affinely():
    k = 5
    H = hilb(round_potential(), k, M0)
    A = np.linspace(-1.0, 1.0, k + 1)
    A -= A.mean()
    G = geodesic(H, A, 0.7, M0)
    np.testing.assert_allclose(G.log_h, H.log_h + 0.7 * A, atol=1e-14)


def test_geodesic_requires_traceless_blocks():
    k = 5
    H = hilb(round_potential(), k, M0)
    with pytest.raises(NotTraceless):
        geodesic(H, np.ones(k + 1), 0.5, M0)
    # weighted mode: all blocks are one-dimensional, nothing nonzero passes
    HW = hilb(round_potential(), k, MW)
    A = np.zeros(k + 1)
    A[2], A[3] = 0.1, -0.1
    with pytest.raises(NotTraceless):
        geodesic(HW, A, 0.5, MW)


def test_geodesic_blocks_follow_the_weight_mode():
    # a finite weight has k+1 distinct eigenvalues b0 + j/k, even where
    # adjacent ones round to one float (b0 = 1e15, k = 16), so every block
    # is one index; the xi=0 mode has one block of all k+1
    k = 16
    H = HermitianNorms(k=k, log_h=np.zeros(k + 1))
    e = np.eye(k + 1)
    with pytest.raises(NotTraceless):
        geodesic(H, e[0] - e[1], 0.5, ToyModel(b0=1e15, p=4.0))
    rng = np.random.default_rng(41)
    traceless = rng.normal(size=k + 1)
    traceless -= traceless.mean()
    for A in (e[3], e[0] - e[1], traceless, 1e-6 * traceless):
        with pytest.raises(NotTraceless):
            geodesic(H, A, 0.5, ToyModel(b0=1.0, p=4.0))
    for A in (e[0] - e[1], traceless):
        np.testing.assert_array_equal(geodesic(H, A, 0.5, M4).log_h, 0.5 * A)
    for A in (e[3], traceless + 1e-6):
        with pytest.raises(NotTraceless):
            geodesic(H, A, 0.5, M4)


def test_z_convex_and_critical_at_balanced():
    k = 8
    H = hilb(round_potential(), k, M4)
    rng = np.random.default_rng(4)
    for _ in range(5):
        A = rng.normal(size=k + 1)
        A -= A.mean()
        ts = np.linspace(-0.4, 0.4, 9)
        zs = [functional_Z(geodesic(H, A, float(t), M4), k, M4) for t in ts]
        assert np.min(np.diff(zs, 2)) > -1e-9
        assert abs(z_prime(H, A, k, M4)) < 1e-9


def test_z_prime_matches_finite_differences_off_balance():
    k = 8
    rng = np.random.default_rng(5)
    H = HermitianNorms(k=k, log_h=hilb(round_potential(), k, M4).log_h + 0.2 * rng.normal(size=k + 1))
    A = rng.normal(size=k + 1)
    A -= A.mean()
    eps = 1e-5
    fd = (
        functional_Z(geodesic(H, A, eps, M4), k, M4)
        - functional_Z(geodesic(H, A, -eps, M4), k, M4)
    ) / (2.0 * eps)
    np.testing.assert_allclose(z_prime(H, A, k, M4), fd, atol=1e-7)


def test_almost_balanced_defect_vanishes_at_round_reference():
    # Z is minimized over norms at hilb(round) here, so the negative part is
    # identically zero for every test potential.
    phi = random_potential(np.random.default_rng(6), scale=0.5)
    rep = almost_balanced_check(round_potential(), phi, [8, 16, 32], M0)
    assert rep.k_list == (8, 16, 32)
    assert all(e == 0.0 for e in rep.eps_hat)


def test_quantized_energy_gap_decreases():
    # 2 k^{-1}(L(phi) - L(round)) -> (2 pi)^{-1} M(phi): the window gap halves
    # (or better) per doubling in the weighted mode.
    phi = random_potential(np.random.default_rng(7), scale=0.6)
    mab = toy_mabuchi(phi, MW)
    lam = 1.0 / (2.0 * math.pi)
    gaps = []
    for k in (8, 16):
        gap = 2.0 / k * (functional_L(phi, k, MW) - functional_L(round_potential(), k, MW))
        gaps.append(abs(gap - lam * mab))
    assert gaps[1] < 0.6 * gaps[0]


def test_ck_constant_positive_in_weighted_mode():
    for k in (4, 8, 16):
        assert c_k_constant(k, MW) > 0.0


def _rule_of(x, phi):
    """Which fixed toy-strand rule the points x, passed to phi, are, if any.
    A t-native potential reads the momentum rule at the pull-back
    log(u/(1-u)) + beta of its nodes u."""
    x = np.asarray(x)
    u = quant._mu_rule().nodes
    mu_rule = [u]
    if isinstance(phi, quant._TNativePotential):
        mu_rule.append(np.log(u / (1.0 - u)) + phi.beta)
    for name, points in (*(("mu", m) for m in mu_rule), ("t", quant._t_grid().nodes)):
        if x.shape == points.shape and np.array_equal(x, points):
            return name
    return None


def _fresh_potentials():
    """One potential of each class, none of them sampled yet."""
    k = 8
    rng = np.random.default_rng(31)
    prof = random_potential(rng, scale=0.5)
    fsp = fs(hilb(random_potential(rng, scale=0.5), k, M0), k, M0)
    part = fs(hilb(random_potential(rng, scale=0.5), k, M0), k, M0)
    blend = quant.BlendPotential([(0.3, random_potential(rng, scale=0.5)), (0.7, part)])
    round_copy = quant.ProfilePotential(lambda mu: np.ones_like(mu))
    shifted = shift_potential(random_potential(rng, scale=0.5), 0.2)
    return [prof, fsp, blend, round_copy, shifted]


def _consumers():
    """Every consumer of the two toy-strand rules, each reading all the
    potentials it is given."""
    mu = np.linspace(0.05, 0.95, 19)
    return {
        "hilb": lambda ps: [hilb(p, k, MW) for p in ps for k in (8, 16)],
        "rho_p": lambda ps: [quant.rho_p(p, 8, MW, mu) for p in ps],
        "bergman": lambda ps: [quant.bergman_density(p, 8, MW, np.ones(9), mu) for p in ps],
        "scal": lambda ps: [quant.weighted_scalar_toy(p, MW, mu) for p in ps],
        "L": lambda ps: [functional_L(p, 8, MW) for p in ps],
        "mabuchi": lambda ps: [toy_mabuchi(p, MW) for p in ps],
        "aubin": lambda ps: [aubin_path(a, b, 8, MW) for a, b in zip(ps, ps[1:])],
        "almost_balanced": lambda ps: [almost_balanced_check(a, b, [8, 16], M0) for a, b in zip(ps, ps[1:])],
    }


def _orders():
    names = list(_consumers())
    shuffled = [names[i] for i in np.random.default_rng(35).permutation(len(names))]
    return [names, names[::-1], shuffled]


def _assert_read_only(pots):
    for p in pots:
        for a in (*p.gram_sample, *p.t_sample):
            assert not a.flags.writeable


# inversions of each t-native potential at points off the two rules, per
# consumer call: the density at mu of rho_p and of bergman_density, and
# Scal_p at mu; the Grams read the cached Gram sample, which a t-native
# potential takes at the pull-back of the momentum nodes with no inversion
_OFF_RULE = {"rho_p": 1, "bergman": 1, "scal": 1}


def test_each_consumer_inverts_each_potential_once(monkeypatch):
    # a fresh potential is inverted at most once per rule, whatever sequence
    # of consumers reads it: a profile once on the t-grid, a t-native
    # potential never on either rule, and a second consumer inverts nothing
    # on them; off the rules a t-native potential is inverted once per
    # evaluation at mu
    calls = []
    invert = quant._invert

    def counting(sample, slope, x, target, lo, hi):
        calls.append((sample.__self__, _rule_of(target, sample.__self__)))
        return invert(sample, slope, x, target, lo, hi)

    monkeypatch.setattr(quant, "_invert", counting)
    consumers = _consumers()
    for order in _orders():
        pots = _fresh_potentials()[:4]  # the shifted one inverts through its base
        natives = ("mu", "t", "t", "mu")
        calls.clear()
        for name in order:
            start = len(calls)
            consumers[name](pots)
            for p, native in zip(pots, natives):
                for rule in ("mu", "t"):
                    assert calls.count((p, rule)) <= 1, (order, name, type(p).__name__, rule)
                off = _OFF_RULE.get(name, 0) if native == "t" else 0
                assert calls[start:].count((p, None)) == off, (order, name, type(p).__name__)
        assert [sum(calls.count((p, rule)) for p in pots) for rule in ("mu", "t")] == [0, 2]
        assert [[calls.count((p, rule)) for rule in ("mu", "t")] for p in pots] == [[0, 1], [0, 0], [0, 0], [0, 1]]
        for p, native in zip(pots, natives):
            assert calls.count((p, native)) == 0
        calls.clear()
        for name in order:
            start = len(calls)
            consumers[name](pots)
            for p, native in zip(pots, natives):
                off = _OFF_RULE.get(name, 0) if native == "t" else 0
                assert calls[start:].count((p, None)) == off, (order, name, type(p).__name__)
        assert not any((p, rule) in calls for p in pots for rule in ("mu", "t"))
        _assert_read_only(pots)


def test_each_potential_is_sampled_once_on_the_momentum_nodes(monkeypatch):
    # each fresh potential of every class is evaluated once on the momentum
    # rule, on its native side (a t-native one at the pull-back of the nodes),
    # and once on the t-grid, whatever sequence of consumers reads it, and a
    # second consumer samples nothing
    sampled = []
    on_rule = []

    def counting(fn):
        def wrapped(self, x):
            rule = _rule_of(x, self)
            sampled.append((self, rule))
            if rule is not None:
                on_rule.append((self, fn.__name__, rule))
            return fn(self, x)

        return wrapped

    for cls in (quant.ProfilePotential, quant._TNativePotential, FSPotential, quant.BlendPotential, quant._ShiftedPotential):
        for meth in ("at_mu", "at_t"):
            if meth in vars(cls):
                monkeypatch.setattr(cls, meth, counting(vars(cls)[meth]))
    consumers = _consumers()
    for order in _orders():
        pots = _fresh_potentials()
        sampled.clear()
        on_rule.clear()
        for name in order:
            consumers[name](pots)
            for p in pots:
                for rule in ("mu", "t"):
                    assert sampled.count((p, rule)) <= 1, (order, name, type(p).__name__, rule)
        assert [[sampled.count((p, rule)) for rule in ("mu", "t")] for p in pots] == [[1, 1]] * len(pots)
        mu_side = ("at_mu", "at_t", "at_t", "at_mu", "at_mu")  # the shifted potential's base is a profile
        for p, meth in zip(pots, mu_side):
            assert [m for q, m, rule in on_rule if q is p and rule == "mu"] == [meth], type(p).__name__
        sampled.clear()
        for name in order:
            consumers[name](pots)
        assert not any((p, rule) in sampled for p in pots for rule in ("mu", "t"))
        _assert_read_only(pots)


def test_fs_potential_samples_do_not_follow_its_norms():
    # FS holds its own read-only copy of log h: mutating the array it was
    # built from changes neither side of the potential
    k = 8
    H = hilb(random_potential(np.random.default_rng(36), scale=0.5), k, M0)
    log_h = H.log_h.copy()
    phi = fs(H, k, M0)
    before = hilb(phi, k, M0).log_h.copy()
    H.log_h[0] += 1.0
    assert not phi.log_h.flags.writeable
    np.testing.assert_array_equal(hilb(phi, k, M0).log_h, before)
    fresh = fs(HermitianNorms(k=k, log_h=log_h), k, M0)
    assert toy_mabuchi(phi, MW) == toy_mabuchi(fresh, MW)
    np.testing.assert_array_equal(phi.t_sample.psi, fresh.t_sample.psi)


def _loop_blend_integral(phi_a, phi_b, fields, density):
    # the straight-blend integral one path node at a time, as it was before
    # the (s, t) grid: the reference the array evaluation must reproduce
    trule = quant._t_grid()
    da, db = phi_a.at_t(trule.nodes), phi_b.at_t(trule.nodes)
    dot = 0.5 * (db.psi - da.psi)
    ends = [(getattr(da, name), getattr(db, name)) for name in fields]
    srule = gauss_legendre(functionals._BLEND_ORDER, 0.0, 1.0)
    total = 0.0
    for s, ws in zip(srule.nodes, srule.weights):
        total += ws * float(np.dot(trule.weights, density(dot, *((1.0 - s) * a + s * b for a, b in ends))))
    return total


@pytest.mark.parametrize(
    "model",
    [ToyModel(p=4.0), ToyModel(b0=1.0, p=4.0), ToyModel(b0=0.5, p=2.0), ToyModel(p=1.0)],
    ids=["xi=0,p=4", "b0=1,p=4", "b0=0.5,p=2", "xi=0,p=1"],
)
def test_blend_grid_matches_the_per_node_loop(model, monkeypatch):
    k = 8
    prof = random_potential(np.random.default_rng(33), scale=0.5)
    fsp = fs(hilb(random_potential(np.random.default_rng(34), scale=0.5), k, model), k, model)
    runs = [
        lambda: aubin_path(prof, fsp, k, model),
        lambda: aubin_path(fsp, prof, k, model),
        lambda: toy_mabuchi(prof, model),
        lambda: toy_mabuchi(fsp, model),
    ]
    got = [run() for run in runs]
    monkeypatch.setattr(functionals, "_blend_integral", _loop_blend_integral)
    want = [run() for run in runs]
    np.testing.assert_allclose(got, want, rtol=1e-13, atol=0.0)


@pytest.mark.parametrize(
    "b0, p, F",
    [
        (1.0, 4.0, 3.0 * math.pi / 10.0),
        (1.0, 3.0, 3.0 * math.pi / 14.0),
        (3.0, 4.0, 49.0 * math.pi / 5400.0),
        (1.0, 2.0, 0.0),
        (math.inf, 4.0, 0.0),
    ],
    ids=["b0=1,p=4", "b0=1,p=3", "b0=3,p=4", "b0=1,p=2", "xi=0,p=4"],
)
def test_toy_mabuchi_is_linear_along_the_xi_flow(b0, p, F):
    # psi_0(t + s) = (1/k) log sum_j C(k, j) e^{j (t + s)} is the round metric
    # moved by the flow of xi; there phi-dot = mu/2 and the profile stays
    # S = 2 mu (1 - mu), so the Mabuchi energy is s F, F the closed form of
    # -pi int_0^1 mu (Scal_p - c) f^{-(p+1)} dmu (zero at p = 2 and xi = 0)
    k = 8
    j = np.arange(k + 1, dtype=float)
    log_binom = np.array([math.log(math.comb(k, i)) for i in range(k + 1)])
    model = ToyModel(b0=b0, p=p)
    for s in (-0.5, 0.3, 1.0):
        moved = FSPotential(k, -log_binom - j * s, 0.0)
        np.testing.assert_allclose(toy_mabuchi(moved, model), s * F, rtol=0, atol=1e-11)


@pytest.mark.parametrize("b0", [0.5, 1.0, 3.0, math.inf], ids=["b0=0.5", "b0=1", "b0=3", "xi=0"])
def test_toy_mabuchi_is_the_bregman_divergence_from_round_at_p2(b0):
    # at p = 2 the round profile is critical and the toy energy of
    # S = 2 mu (1-mu) q is 2 pi int f^{-1} (x - 1 - log x) dmu with
    # x = S_round/S = 1/q, which is >= 0 pointwise; f^{-1} = 1 in the xi = 0
    # mode. q is this test's own closure and the integral its own 200-node
    # Gauss rule. Worst measured error 6.5e-12 relative (bound 1e-10, 15x
    # headroom).
    model = ToyModel(b0=b0, p=2.0)
    x, w = np.polynomial.legendre.leggauss(200)
    mu, w = 0.5 * (x + 1.0), 0.5 * w
    rng = np.random.default_rng(7)
    for _ in range(8):
        co = rng.normal(size=4) * 0.8 / (1.0 + np.arange(4))

        def q(m, co=co):
            return np.exp(m * (1.0 - m) * np.polynomial.polynomial.polyval(m, co))

        got = toy_mabuchi(quant.ProfilePotential(q), model)
        want = 2.0 * math.pi * float(np.dot(w, (1.0 / q(mu) - 1.0 + np.log(q(mu))) / model.f(mu)))
        assert got >= 0.0 and want > 0.0
        assert abs(got - want) <= 1e-10 * want
