"""Energy functionals over norms and potentials, geodesics, and the
quantized/continuum comparisons."""

import math

import numpy as np
import pytest

from kahlerlab import functionals
from kahlerlab.errors import NotTraceless, OutOfDomain
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


def test_each_consumer_inverts_each_potential_once(monkeypatch):
    import kahlerlab.quantization as quant

    calls = []
    invert = quant._invert

    def counting(sample, *args):
        calls.append(type(sample.__self__).__name__)
        return invert(sample, *args)

    monkeypatch.setattr(quant, "_invert", counting)
    k = 8
    prof = random_potential(np.random.default_rng(31), scale=0.5)
    phi = fs(hilb(prof, k, M0), k, M0)  # a profile's own side needs no inversion
    mu = np.linspace(0.05, 0.95, 19)
    runs = [
        (lambda: hilb(phi, k, MW), ["FSPotential"]),
        (lambda: quant.rho_p(phi, k, MW)(mu), ["FSPotential"] * 2),  # the Gram, then the density at mu
        (lambda: quant.bergman_density(phi, k, MW, Psi=np.sqrt, Phi=np.sqrt), ["FSPotential"]),
        (lambda: quant.weighted_scalar_toy(phi, MW)(mu), ["FSPotential"]),
        (lambda: aubin_path(prof, phi, k, MW), ["ProfilePotential"]),
        # the round reference: inverted on the t-grid once per process, then read from the memo
        (lambda: (functionals._round_t_sample.cache_clear(), toy_mabuchi(phi, MW)), ["ProfilePotential"]),
        (lambda: toy_mabuchi(phi, MW), []),
    ]
    for run, expected in runs:
        calls.clear()
        run()
        assert calls == expected
    assert not any(a.flags.writeable for a in functionals._round_t_sample())


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
