"""Energy functionals over norms and potentials, geodesics, and the
quantized/continuum comparisons."""

import math
from functools import lru_cache

import mpmath as mp
import numpy as np
import pytest
import sympy as sp

from kahlerlab import functionals
from kahlerlab import quantization as quant
from kahlerlab.errors import NotTraceless, OutOfDomain, WeightSignError
from kahlerlab.functionals import (
    almost_balanced_check,
    aubin_I,
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
    _ShiftedPotential,
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


def test_constant_shift_identities():
    # 'I'(phi + s) - 'I'(phi) = 2 k s sum lambda_j(p), and L is invariant.
    k, s = 8, 0.41
    phi = random_potential(np.random.default_rng(1), scale=0.5)
    spec = eigenvalues(k, MW)
    d_aubin = aubin_I(_ShiftedPotential(phi, s), k, MW) - aubin_I(phi, k, MW)
    np.testing.assert_allclose(d_aubin, 2.0 * k * s * float(np.sum(spec.lam_p)), rtol=1e-9)
    dL = functional_L(_ShiftedPotential(phi, s), k, MW) - functional_L(phi, k, MW)
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
    b = toy_mabuchi(_ShiftedPotential(phi, 0.3), M0)
    np.testing.assert_allclose(a, b, atol=1e-9)
    assert a > 0.0


@pytest.mark.parametrize("kind", ["profile", "fs"])
def test_a_constant_shift_moves_log_h_only_on_either_base(kind):
    # phi + s leaves the metric: log h moves by -2 k s, and the Mabuchi
    # energy and L do not move. The shifted potential's Gram sample is its
    # base's, which an FS base takes at the pull-back of the nodes, where
    # mu is not u; read as a jet at the nodes, log h was off by 0.26 and the
    # energy moved by 0.64
    k, s = 8, 0.37
    phi = random_potential(np.random.default_rng(3))
    if kind == "fs":
        phi = fs(hilb(phi, k, MW), k, MW)
    shifted = _ShiftedPotential(phi, s)
    np.testing.assert_allclose(hilb(shifted, k, MW).log_h, hilb(phi, k, MW).log_h - 2.0 * k * s, atol=1e-10)
    np.testing.assert_allclose(toy_mabuchi(shifted, MW), toy_mabuchi(phi, MW), atol=1e-9)
    np.testing.assert_allclose(functional_L(shifted, k, MW), functional_L(phi, k, MW), atol=1e-9)


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


def test_z_prime_rejects_a_direction_of_the_wrong_shape():
    # as geodesic does: a length-1 or scalar direction broadcast and returned
    # a number, and a length-3 one raised numpy's ValueError
    k = 8
    H = hilb(round_potential(), k, M4)
    for A in ([0.1], 0.3, [0.1, -0.2, 0.1]):
        with pytest.raises(OutOfDomain, match="direction has wrong length"):
            z_prime(H, A, k, M4)


@pytest.mark.parametrize("A", [[0.1], 0.3, [0.1, -0.2, 0.1]], ids=["length-1", "scalar", "length-3"])
def test_geodesic_rejects_a_direction_of_the_wrong_shape(A):
    H = hilb(round_potential(), 8, M4)
    with pytest.raises(OutOfDomain, match="direction has wrong length"):
        geodesic(H, A, 1.0, M4)


def _z_by_fs(H, k, model):
    """Z(H) = 𝕀(fs(H)) + I(H) through an FS potential and its Gram sample."""
    return aubin_I(fs(H, k, model), k, model) + functional_I(H, eigenvalues(k, model))


def _z_test_norms(k, model):
    """log h of three seeds: smooth (the Gram norms of random_potential(rng, 0.6), which
    every k has), rough (of random_potential(rng, 1.5), plus 3 N(0, 1)), and both moved
    by the gauge j b, b = +-60."""
    j = np.arange(k + 1)
    for seed in range(3):
        rng = np.random.default_rng(seed)
        smooth = quant._log_gram(random_potential(rng, 0.6), k, model)
        rough = quant._log_gram(random_potential(rng, 1.5), k, model) + 3.0 * rng.normal(size=k + 1)
        for x in (smooth, rough):
            yield from (x, x + 60.0 * j, x - 60.0 * j)


@pytest.mark.parametrize("model", [M0, MW], ids=["xi=0,p=1", "b0=1,p=4"])
@pytest.mark.parametrize("k", [1, 2, 8, 64, 256, 1024])
def test_Z_is_the_aubin_functional_of_fs_plus_I(k, model, monkeypatch):
    # functional_Z builds fs(H)'s Gram sample with the builder of
    # fs(H).gram_sample, one softmax pass over log h, with no FS potential:
    # every field of the sample its Aubin term reads is bit for bit that of
    # fs(H)'s, and the dmu weights are w psi''. So Z is exactly
    # 𝕀(fs(H)) + I(H). Where fs or the spectrum is undefined (k = 1, and
    # k = 2 with a weight) both name the same error
    w_t = quant._pullback_rule()[1]
    read = []
    aubin_of_sample = functionals._aubin
    monkeypatch.setattr(functionals, "_aubin", lambda s, *rest: read.append(s) or aubin_of_sample(s, *rest))
    for x in _z_test_norms(k, model):
        H = HermitianNorms(k=k, log_h=x)
        try:
            want = _z_by_fs(H, k, model)
        except Exception as exc:
            with pytest.raises(type(exc)) as got:
                functional_Z(H, k, model)
            assert str(got.value) == str(exc)
            assert (k, type(exc)) in ((1, WeightSignError), (2, WeightSignError))
            continue
        phi = fs(H, k, model)
        assert functional_Z(H, k, model) == want
        for got, ref in zip(read[-1], phi.gram_sample, strict=True):
            np.testing.assert_array_equal(got, ref)
        np.testing.assert_array_equal(phi.gram_sample.w, w_t * (0.5 * phi.gram_sample.S))


@pytest.mark.parametrize(
    "level, k, model, error, message",
    [
        (8, 9, M0, OutOfDomain, "k=9 does not match the norms"),
        (1, 1, M0, WeightSignError, "C_k = 0 is not positive"),
        (2, 2, MW, WeightSignError, "lambda(p) has non-positive entries at k=2"),
        (8, 8, ToyModel(b0=1e-80, p=4.0), OutOfDomain, "a power of f overflows a float"),
    ],
    ids=["level", "C_k", "spectrum", "power"],
)
def test_Z_names_the_errors_of_fs_and_the_spectrum(level, k, model, error, message):
    # the level check and C_k's sign of fs, and the gate of eigenvalues
    H = HermitianNorms(k=level, log_h=np.zeros(level + 1))
    for route in (functional_Z, _z_by_fs):
        with pytest.raises(error) as got:
            route(H, k, model)
        assert str(got.value).startswith(message)


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


def _rule_of(x, beta=None):
    """"mu" if the points x are the toy strand's one fixed rule, the momentum
    rule, else None. A t-native potential, whose asymptotes cross at beta,
    reads it at the pull-back log(u/(1-u)) + beta of its nodes u."""
    x = np.asarray(x)
    u = quant._mu_rule().nodes
    mu_rule = [u]
    if beta is not None:
        mu_rule.append(np.log(u / (1.0 - u)) + beta)
    if any(x.shape == m.shape and np.array_equal(x, m) for m in mu_rule):
        return "mu"
    return None


def _fresh_potentials():
    """One potential of each class, none of them sampled yet."""
    k = 8
    rng = np.random.default_rng(31)
    prof = random_potential(rng, scale=0.5)
    fsp = fs(hilb(random_potential(rng, scale=0.5), k, M0), k, M0)
    part = fs(hilb(random_potential(rng, scale=0.5), k, M0), k, M0)
    blend = quant.BlendPotential([(0.3, fs(hilb(random_potential(rng, scale=0.5), k, M0), k, M0)), (0.7, part)])
    round_copy = quant.ProfilePotential(lambda mu: np.ones_like(mu))
    shifted = _ShiftedPotential(random_potential(rng, scale=0.5), 0.2)
    return [prof, fsp, blend, round_copy, shifted]


def _consumers():
    """Every consumer of the momentum rule, each reading all the potentials
    it is given."""
    mu = np.linspace(0.05, 0.95, 19)
    return {
        "hilb": lambda ps: [hilb(p, k, MW) for p in ps for k in (8, 16)],
        "rho_p": lambda ps: [quant.rho_p(p, 8, MW, p.jet(mu)) for p in ps],
        "bergman": lambda ps: [quant.bergman_density(p, 8, MW, np.ones(9), p.jet(mu)) for p in ps],
        "scal": lambda ps: [quant.weighted_scalar_toy(p.jet(mu), MW) for p in ps],
        "L": lambda ps: [functional_L(p, 8, MW) for p in ps],
        "mabuchi": lambda ps: [toy_mabuchi(p, MW) for p in ps],
        "aubin": lambda ps: [aubin_I(p, 8, MW) for p in ps],
        "almost_balanced": lambda ps: [almost_balanced_check(a, b, [8, 16], M0) for a, b in zip(ps, ps[1:])],
    }


def _orders():
    names = list(_consumers())
    shuffled = [names[i] for i in np.random.default_rng(35).permutation(len(names))]
    return [names, names[::-1], shuffled]


def _assert_read_only(pots):
    for p in pots:
        for a in p.gram_sample:
            assert not a.flags.writeable


# jets of each potential that a consumer call takes off the momentum rule:
# rho_p, bergman_density and Scal_p read the one jet their caller takes at
# mu, and every other consumer reads the cached Gram sample only
_OFF_RULE = {"rho_p": 1, "bergman": 1, "scal": 1}


def test_each_potential_is_sampled_once_on_the_momentum_nodes(monkeypatch):
    # each fresh potential of every class is evaluated exactly once on the
    # momentum rule, on its native side (a t-native one at the pull-back of
    # the nodes, a shifted one through its base's sample), whatever sequence
    # of consumers reads it, and a second consumer samples nothing on it; off
    # the rule, each consumer call takes only the jets _OFF_RULE counts
    sampled = []

    def counting(fn):
        def wrapped(self, x):
            sampled.append((self, fn.__name__, _rule_of(x, getattr(self, "beta", None))))
            return fn(self, x)

        return wrapped

    # every method that samples a potential: the jet of each class, and the
    # native side of the t-native ones
    sampling = (
        (quant.ProfilePotential, "jet"),
        (quant._TNativePotential, "jet"),
        (quant.BlendPotential, "at_t"),
        (quant._ShiftedPotential, "jet"),
    )
    for cls, meth in sampling:
        monkeypatch.setattr(cls, meth, counting(vars(cls)[meth]))
    # and an FS potential's softmax pass over its own log h, which its Gram
    # sample stops after psi'' and its at_t continues; the pass is logged
    # under that log h, which the potential holds
    fs_pass = quant._fs_pass

    def counting_pass(t, log_h, log_ck):
        sampled.append((log_h, "_fs_pass", _rule_of(t, float(log_h[-1] - log_h[0]) / (log_h.size - 1))))
        return fs_pass(t, log_h, log_ck)

    monkeypatch.setattr(quant, "_fs_pass", counting_pass)

    def on_rule(p):
        # a shifted potential's Gram sample is its base's
        owners = (p, getattr(p, "base", None), getattr(p, "log_h", None))
        return [m for q, m, rule in sampled if any(q is o for o in owners) and rule == "mu"]

    consumers = _consumers()
    mu_side = ("jet", "_fs_pass", "at_t", "jet", "jet")  # the shifted potential's base is a profile
    for order in _orders():
        pots = _fresh_potentials()
        for first in (True, False):
            sampled.clear()
            for name in order:
                start = len(sampled)
                consumers[name](pots)
                for p in pots:
                    assert len(on_rule(p)) <= 1, (order, name, type(p).__name__)
                    off = [m for q, m, rule in sampled[start:] if q is p and m == "jet" and rule is None]
                    assert len(off) == _OFF_RULE.get(name, 0), (order, name, type(p).__name__)
            assert [on_rule(p) for p in pots] == ([[m] for m in mu_side] if first else [[]] * len(pots))
        _assert_read_only(pots)


def test_fs_potential_samples_do_not_follow_its_norms():
    # FS holds its own read-only copy of log h: mutating the array it was
    # built from changes neither its Gram sample nor its end values
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
    for a, b in zip(phi.gram_sample, fresh.gram_sample):
        np.testing.assert_array_equal(a, b)
    assert phi.dv_ends == fresh.dv_ends


# -- closed forms of 𝕀 and 𝓜 against a 30-digit oracle ------------------------

_ORACLE_MODES = [ToyModel(p=1.0), ToyModel(b0=1.0, p=4.0), ToyModel(b0=0.5, p=2.0)]


def _oracle_coefficients():
    """log q = mu (1-mu) g(mu), g cubic, of the three random potentials (seed
    11, scale 0.7)."""
    rng = np.random.default_rng(11)
    return [rng.normal(size=4) * 0.7 / (1.0 + np.arange(4)) for _ in range(3)]


def _log_q(co, mu):
    return mu * (1 - mu) * (co[0] + mu * (co[1] + mu * (co[2] + mu * co[3])))


@lru_cache(maxsize=1)
def _mp_rule():
    """40-node Gauss-Legendre rule on [0, 1] at 30 digits (mpmath's)."""
    with mp.workdps(30):
        x, w = mp.mp.gauss_quadrature(40, "legendre")
        return [(xi + 1) / 2 for xi in x], [wi / 2 for wi in w]


@lru_cache(maxsize=None)
def _mp_profile_dv(i):
    """dv = v - v_round of the i-th oracle profile at the nodes of _mp_rule and
    at mu = 0, 1, from q alone: dv(mu) = int_{1/2}^mu (mu - s) r(s) ds with
    r = (1 - q)/(q mu (1-mu)) = expm1(-log q)/(mu (1-mu)), anchored like the
    profile's R at dv(1/2) = dv'(1/2) = 0."""
    with mp.workdps(30):
        co = [mp.mpf(float(c)) for c in _oracle_coefficients()[i]]

        def dv(mu):
            return mp.quad(lambda s: (mu - s) * mp.expm1(-_log_q(co, s)) / (s * (1 - s)), [mp.mpf(1) / 2, mu])

        return co, [dv(m) for m in _mp_rule()[0]], (dv(mp.mpf(0)), dv(mp.mpf(1)))


def _mp_weights(model):
    """V = f^{1-p}, W = f^{-(p+1)} and c, the latter as the defining ratio
    int Scal_p W / int W on the round profile, at the working precision."""
    p = mp.mpf(model.p)
    if model.xi_zero:
        return (lambda mu: mp.mpf(1)), (lambda mu: mp.mpf(1)), mp.mpf(4)
    b0 = mp.mpf(model.b0)
    V, W = (lambda mu: (mu + b0) ** (1 - p)), (lambda mu: (mu + b0) ** (-(p + 1)))
    scal = lambda mu: 4 * (mu + b0) ** 2 + 2 * (p - 1) * (mu + b0) * (2 - 4 * mu) - 2 * p * (p - 1) * mu * (1 - mu)
    return V, W, mp.quad(lambda mu: scal(mu) * W(mu), [0, 1]) / mp.quad(W, [0, 1])


def _mp_aubin_prefactor(k, model, V, c):
    """-2 pi k^2 C_k, C_k = sum_j lambda_j(p) / (2 pi k int V dmu)."""
    p = mp.mpf(model.p)
    lam = [mp.mpf(1) if model.xi_zero else mp.mpf(model.b0) + mp.mpf(j) / k for j in range(k + 1)]
    lam_p = mp.fsum(x ** (1 - p) - c / (4 * k) * x ** (-(p + 1)) for x in lam)
    return -k * lam_p / mp.quad(V, [0, 1])


def _mp_mabuchi(ends, V, W, c, int_V_log_q, int_dv_W):
    """pi [2 V(0) dv(0) + 2 V(1) dv(1) + 2 int V log(S/S_round) - c int dv W]."""
    return mp.pi * (2 * V(mp.mpf(0)) * ends[0] + 2 * V(mp.mpf(1)) * ends[1] + 2 * int_V_log_q - c * int_dv_W)


def _mp_fs_functionals(phi, k, model):
    """(𝕀, 𝓜) of an FS potential from its norms alone, in t: psi =
    (log sum_j e^{jt}/h_j - log C_k)/k, mu = psi', psi'' as cumulants of j
    (about the nearer end, so psi'' does not cancel in the tails), v =
    mu t - psi, and the end values v(-+300) beyond the integrands' window;
    the dmu-integrals are taken over the real line with dmu = psi'' dt."""
    with mp.workdps(30):
        w = [mp.exp(-mp.mpf(float(x))) for x in phi.log_h]
        log_ck, n = mp.mpf(phi.log_ck), phi.k
        mid = mp.mpf(float(phi.log_h[-1]) - float(phi.log_h[0])) / n
        V, W, c = _mp_weights(model)
        memo = {}

        def at(t):
            if t not in memo:
                y, e = mp.exp(t), 0 if t < mid else n
                s0 = s1 = s2 = mp.mpf(0)
                for i in range(n, -1, -1):
                    s0, s1, s2 = s0 * y + w[i], s1 * y + (i - e) * w[i], s2 * y + (i - e) ** 2 * w[i]
                d = s1 / s0
                mu, one_mu, p2 = (e + d) / n, (n - e - d) / n, (s2 / s0 - d * d) / n
                dv = mu * t - (mp.log(s0) - log_ck) / n - mu * mp.log(mu) - one_mu * mp.log(one_mu)
                memo[t] = (mu, p2, dv, mp.log(p2 / (mu * one_mu)))
            return memo[t]

        def integral(fn):
            return mp.quad(lambda t: fn(*at(t)), [-mp.inf, mid, mp.inf])

        aubin = _mp_aubin_prefactor(k, model, V, c) * integral(lambda mu, p2, dv, lq: dv * V(mu) * p2)
        ends = (at(mid - 300)[2], at(mid + 300)[2])
        mab = _mp_mabuchi(
            ends, V, W, c, integral(lambda mu, p2, dv, lq: V(mu) * lq * p2), integral(lambda mu, p2, dv, lq: dv * W(mu) * p2)
        )
        return float(aubin), float(mab)


@pytest.mark.parametrize("model", _ORACLE_MODES, ids=["xi=0,p=1", "b0=1,p=4", "b0=0.5,p=2"])
def test_aubin_and_mabuchi_match_an_mpmath_oracle(model):
    # 𝕀 and 𝓜 of three random profiles, and of an FS potential at k = 8 and
    # 32, against 30-digit references that share no code with the
    # potentials: a profile's from q alone (_mp_profile_dv), an FS
    # potential's from its norms alone, in t (_mp_fs_functionals). Worst
    # measured errors: 𝕀 1.1e-14 relative (profiles; 1.6e-15 for FS), 𝓜
    # 2.7e-15 absolute (FS; 9.4e-16 for profiles), so the bounds 2e-13 and
    # 3e-14 leave 18x and 11x headroom.
    nodes, weights = _mp_rule()
    for i, co in enumerate(_oracle_coefficients()):
        phi = quant.ProfilePotential(lambda mu, co=co: np.exp(_log_q(co, mu)))
        with mp.workdps(30):
            V, W, c = _mp_weights(model)
            mco, dvs, ends = _mp_profile_dv(i)
            int_dv_V = mp.fsum(wt * d * V(m) for m, wt, d in zip(nodes, weights, dvs))
            int_dv_W = mp.fsum(wt * d * W(m) for m, wt, d in zip(nodes, weights, dvs))
            int_V_log_q = mp.fsum(wt * V(m) * _log_q(mco, m) for m, wt in zip(nodes, weights))
            want_mab = float(_mp_mabuchi(ends, V, W, c, int_V_log_q, int_dv_W))
            want_aubin = {k: float(_mp_aubin_prefactor(k, model, V, c) * int_dv_V) for k in (8, 32)}
        assert abs(toy_mabuchi(phi, model) - want_mab) <= 3e-14
        for k in (8, 32):
            np.testing.assert_allclose(aubin_I(phi, k, model), want_aubin[k], rtol=2e-13, atol=0.0)
        if i == 0:
            for k in (8, 32):
                H, (want_aubin_fs, want_mab_fs) = _fs_oracle(k, model)
                fsp = fs(H, k, model)
                np.testing.assert_allclose(aubin_I(fsp, k, model), want_aubin_fs, rtol=2e-13, atol=0.0)
                assert abs(toy_mabuchi(fsp, model) - want_mab_fs) <= 3e-14


@lru_cache(maxsize=None)
def _fs_oracle(k, model):
    """The norms hilb(phi) of the first oracle profile, and (𝕀, 𝓜) of their FS
    potential from _mp_fs_functionals."""
    co = _oracle_coefficients()[0]
    H = hilb(quant.ProfilePotential(lambda mu: np.exp(_log_q(co, mu))), k, model)
    return H, _mp_fs_functionals(fs(H, k, model), k, model)


@pytest.mark.parametrize("model", _ORACLE_MODES, ids=["xi=0,p=1", "b0=1,p=4", "b0=0.5,p=2"])
@pytest.mark.parametrize("k", [8, 32])
def test_Z_matches_the_mpmath_oracle(k, model):
    # Z's one pass over log h against 𝕀 of the FS potential from its norms
    # alone, in t, plus I(H). Worst measured error 5.6e-16 relative (b0=1,
    # p=4, k = 8), so the bound of 𝕀's oracle check leaves 350x headroom
    H, (want_aubin, _) = _fs_oracle(k, model)
    want = want_aubin + functional_I(H, eigenvalues(k, model))
    np.testing.assert_allclose(functional_Z(H, k, model), want, rtol=2e-13, atol=0.0)


def _sympy_xi_flow_slope(b0, p):
    """F(b0, p) = pi [c int_0^1 mu f^{-(p+1)} dmu - 2 f(1)^{1-p}], exact, with c
    the defining ratio int Scal_p f^{-(p+1)} / int f^{-(p+1)} on the round
    profile."""
    mu, p = sp.symbols("mu"), sp.Rational(p)
    S = 2 * mu * (1 - mu)
    if b0 == math.inf:
        f, scal = sp.Integer(1), -sp.diff(S, mu, 2)
    else:
        f = mu + sp.Rational(b0)
        scal = f**2 * -sp.diff(S, mu, 2) + 2 * (p - 1) * f * sp.diff(S, mu) - p * (p - 1) * S
    W = f ** (-(p + 1))
    c = sp.integrate(scal * W, (mu, 0, 1)) / sp.integrate(W, (mu, 0, 1))
    return float(sp.pi * (c * sp.integrate(mu * W, (mu, 0, 1)) - 2 * f.subs(mu, 1) ** (1 - p)))


@pytest.mark.parametrize(
    "b0, p",
    [
        (1.0, 4.0),
        (1.0, 3.0),
        (3.0, 4.0),
        (1.0, 2.0),
        (math.inf, 4.0),
        (0.25, 2.0),
        (10.0, 2.0),
        (0.5, 3.0),
        (2.0, 6.0),
        (1.0, 1.0),
        (math.inf, 1.0),
    ],
    ids=[
        "b0=1,p=4", "b0=1,p=3", "b0=3,p=4", "b0=1,p=2", "xi=0,p=4",
        "b0=0.25,p=2", "b0=10,p=2", "b0=0.5,p=3", "b0=2,p=6", "b0=1,p=1", "xi=0,p=1",
    ],
)
def test_toy_mabuchi_is_linear_along_the_xi_flow(b0, p):
    # psi_0(t + s) = (1/k) log sum_j C(k, j) e^{j (t + s)} is the round metric
    # moved by the flow of xi; there phi-dot = mu/2 and the profile stays
    # S = 2 mu (1 - mu), so the Mabuchi energy is s F, F the closed form of
    # -pi int_0^1 mu (Scal_p - c) f^{-(p+1)} dmu, taken exactly in sympy
    # (3 pi/10, 3 pi/14 and 49 pi/5400 at the first three cases; zero at
    # p = 2 for every b0 and in the xi = 0 mode)
    F = _sympy_xi_flow_slope(b0, p)
    k = 8
    j = np.arange(k + 1, dtype=float)
    log_binom = np.array([math.log(math.comb(k, i)) for i in range(k + 1)])
    model = ToyModel(b0=b0, p=p)
    for s in (-0.5, 0.3, 1.0):
        moved = FSPotential(HermitianNorms(k, -log_binom - j * s), 0.0)
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
