"""The in-process workloads: continuous, quant-functionals and balanced.

Each workload has a `build_*(seed)` that makes every input before timing
starts (a pool of POOL input sets, cycled round by round) and a `round_*`
that runs one round of timed operations through `Run.op` and checks the
results against the oracles in `oracles.py` or against properties the method
must have. Every round runs the same operations, so the share of failed
operations does not depend on the seed or on the run length.
"""

from __future__ import annotations

import math
import statistics
import sys
from collections import defaultdict

import numpy as np

from kahlerlab.calabi import KillingData, RuledSurfaceData, random_admissible_profile, to_symplectic
from kahlerlab.ckem import ClassLabel, b_kappa, interior_min, kappa_zero, solve_P, sweep
from kahlerlab.errors import KahlerLabError
from kahlerlab.functionals import almost_balanced_check, functional_L, functional_Z, geodesic, toy_mabuchi, z_prime
from kahlerlab.mabuchi import (
    BumpDirection,
    SymplecticPotential,
    mabuchi_energy_amt,
    mabuchi_path_integral,
    scale_bump_for_slope,
    straight_theta_path,
    unboundedness_probe,
)
from kahlerlab.quantization import HermitianNorms, ToyModel, balanced_iterate, hilb, random_potential, round_potential
from calibrate import timed
from oracles import GRID, b_kappa as b_kappa_closed

POOL = 4  # input sets per run, cycled round by round

# continuous strand
PATH_KAPPA = 1.25  # as in acceptance criterion 6
SWEEP_POINTS = 200
PROBE_KS = [float(k) for k in range(65)]
LOOP_BOUND = 1e-8
RATIO_SPREAD_BOUND = 1e-5
FUTAKI_BOUND = 1e-10

# quantized strand (unweighted mode: f = 1, so lambda_j(p) = 1 - c/(4k), c = 4)
Z_K = 8
Z_TS = np.linspace(-0.4, 0.4, 5)
L_KS = (8, 16, 32, 64)
HILB_KS = (8, 16, 32, 64)
EPS_KS = (8, 16, 32, 64)
BALANCED_KS = (8, 8, 8, 8, 8, 8, 12)  # six starts at k = 8 and one at k = 12 per round
HILB_BOUND = 1e-10  # |log h - Beta oracle|: a 256-node Gauss rule is exact here
CONVEXITY_BOUND = 1e-9
ZPRIME_BOUND = 1e-9
EPS_HAT_BOUND = 1e-3
# Stopping at a raw step below 1e-10 leaves log h within step * r/(1-r) of
# the fixed-point set; r < 0.95 at these k, so 2e-9; 5x margin.
AFFINE_BOUND = 1e-8


class Run:
    """Operation counts, timing samples and correctness of one run.

    samples[key] holds seconds at reference speed (see calibrate.py),
    raw[key] the wall seconds; round_s and round_raw sum the current round's
    operations, failed ones included."""

    def __init__(self, tracer=None) -> None:
        self.attempted = 0
        self.failed = 0
        self.correct = True
        self.samples: dict[str, list[float]] = defaultdict(list)
        self.raw: dict[str, list[float]] = defaultdict(list)
        self.round_s = 0.0
        self.round_raw = 0.0
        self.last = (0.0, 0.0)  # (raw, reference-speed) seconds of the last op
        self.tracer = tracer
        self._said: set[str] = set()

    def op(self, key, fn, *args, **kwargs):
        """One timed operation. Returns None when the program raises one of
        its errors (a failed operation)."""
        self.attempted += 1
        if self.tracer is not None:
            self.tracer.op = self.attempted
        try:
            out, raw, norm = timed(fn, *args, ticks=self.tracer is None, **kwargs)
        except KahlerLabError as exc:
            self.failed += 1
            self.note(f"{key}: {type(exc).__name__}: {exc}")
            return None
        self.add(key, raw, norm)
        self.last = (raw, norm)
        return out

    def add(self, key, raw: float, norm: float) -> None:
        """Count one operation's time; key None keeps it out of the samples."""
        self.round_s += norm
        self.round_raw += raw
        if key is not None:
            self.sample(key, raw, norm)

    def sample(self, key, raw: float, norm: float) -> None:
        self.samples[key].append(norm)
        self.raw[key].append(raw)

    def check(self, ok: bool, what: str) -> None:
        if not ok:
            self.correct = False
            self.note("CHECK FAILED: " + what)

    def note(self, msg: str) -> None:
        if msg not in self._said:
            self._said.add(msg)
            print(msg, file=sys.stderr)


# -- continuous --------------------------------------------------------------


def build_continuous(seed: int) -> dict:
    rng = np.random.default_rng(seed)
    sol = solve_P(PATH_KAPPA, b_kappa(PATH_KAPPA))
    pool = []
    for _ in range(POOL):
        g, d = GRID[int(rng.integers(len(GRID)))]
        pool.append(
            {
                "sweep_X": RuledSurfaceData.standard(1.5, genus=g, degree=d),
                "sweep_kappas": np.sort(1.0 + np.exp(rng.uniform(math.log(1e-3), math.log(2.0), SWEEP_POINTS))),
                "probe_pair": GRID[int(rng.integers(len(GRID)))],
                "probe_frac": float(rng.uniform(0.4, 0.6)),
                "loop": [random_admissible_profile(rng, PATH_KAPPA, degree=3) for _ in range(3)],
                "ratio": [random_admissible_profile(rng, PATH_KAPPA, degree=3, scale=0.35) for _ in range(5)],
            }
        )
    return {
        "surfaces": {gd: RuledSurfaceData.standard(1.5, genus=gd[0], degree=gd[1]) for gd in GRID},
        "sol": sol,
        "kd": KillingData(b=sol.b, p=4.0),
        "ref": SymplecticPotential.reference(PATH_KAPPA).profile(),
        "pool": pool,
        "ratios": [],
    }


def _probe(X, kappa):
    """The probe as `kahlerlab mabuchi-probe` runs it, with the bump radius
    (0.08 there) cut to half the distance from the argmin of P to the nearest
    root of P: near kappa0 the region P < 0 is narrower than the bump."""
    sol = solve_P(kappa, b_kappa(kappa), X)
    _, zm = interior_min(sol.P)
    roots = np.polynomial.polynomial.polyroots(sol.P.coef)
    gap = min(abs(r.real - zm) for r in roots if abs(r.imag) < 1e-9)
    bump = scale_bump_for_slope(sol, BumpDirection(zm, min(0.08, 0.5 * gap)), target=-2.0)
    return unboundedness_probe(sol, bump, PROBE_KS)


def round_continuous(inp: dict, r: int, run: Run, oracle: dict) -> None:
    p = inp["pool"][r % POOL]
    for gd, X in inp["surfaces"].items():
        k0 = run.op("kappa0", kappa_zero, X)
        o = oracle[gd]
        if k0 is not None:
            run.check(abs(k0 - o["kappa0"]) <= o["kappa_window"], f"kappa0{gd} = {k0!r}, oracle {o['kappa0']!r}")

    X = p["sweep_X"]
    o = oracle[(X.genus, X.degree)]
    rows = run.op("sweep", sweep, p["sweep_kappas"], X)
    if rows is not None:
        check_sweep_rows(run, [(r_.kappa, r_.b_kappa, r_.futaki_residual, str(r_.label)) for r_ in rows], o)

    gd = p["probe_pair"]
    kappa = 1.0 + p["probe_frac"] * (oracle[gd]["kappa0"] - 1.0)
    energies = run.op("probe", _probe, inp["surfaces"][gd], kappa)
    if energies is not None:
        run.check(all(b < a for a, b in zip(energies, energies[1:])), f"probe energies at kappa={kappa!r} {gd} not decreasing")

    sol, kd = inp["sol"], inp["kd"]
    profs = p["loop"]
    legs = [run.op("path", mabuchi_path_integral, straight_theta_path(profs[i], profs[(i + 1) % 3]), kd, sol) for i in range(3)]
    if None not in legs:
        run.check(abs(sum(legs)) < LOOP_BOUND, f"loop integral {sum(legs):.3e}")
    for prof in p["ratio"]:
        path = run.op("path", mabuchi_path_integral, straight_theta_path(inp["ref"], prof), kd, sol)
        amt = run.op("energy", mabuchi_energy_amt, to_symplectic(prof), sol)
        if path is not None and amt is not None:
            inp["ratios"].append(path / amt)


def finish_continuous(inp: dict, run: Run) -> None:
    ratios = inp["ratios"]
    if len(ratios) >= 2:
        spread = (max(ratios) - min(ratios)) / abs(statistics.fmean(ratios))
        run.check(spread < RATIO_SPREAD_BOUND, f"path/energy ratio spread {spread:.3e}")


def check_sweep_rows(run: Run, rows, o: dict) -> None:
    """Rows of (kappa, b_kappa, futaki residual, label): labels switch once,
    at the oracle kappa0 (any label within its stopping window)."""
    k0, win = o["kappa0"], o["kappa_window"]
    for kappa, bk, fut, label in rows:
        closed = b_kappa_closed(kappa)
        run.check(abs(bk - closed) <= 1e-12 * closed, f"b_kappa({kappa!r}) = {bk!r}, closed form {closed!r}")
        run.check(abs(fut) < FUTAKI_BOUND, f"futaki residual {fut:.3e} at kappa={kappa!r}")
        if kappa < k0 - win:
            run.check(label == str(ClassLabel.NEGATIVE_SOMEWHERE), f"label {label} below kappa0 at {kappa!r}")
        elif kappa > k0 + win:
            run.check(label == str(ClassLabel.EXISTS_CKEM), f"label {label} above kappa0 at {kappa!r}")
    labels = [label for _, _, _, label in rows]
    switches = sum(a != b for a, b in zip(labels, labels[1:]))
    run.check(switches <= 2 and (switches < 2 or str(ClassLabel.DOUBLE_ROOT) in labels), f"labels switch {switches} times")


# -- quant-functionals -------------------------------------------------------


def build_quant_functionals(seed: int) -> dict:
    rng = np.random.default_rng(seed)
    model = ToyModel(p=4.0)
    H_bal = hilb(round_potential(), Z_K, model)
    pool = []
    for _ in range(POOL):
        geodesics = []
        for scale in (0.0, 0.4):  # through the balanced point, and off it
            A = rng.normal(size=Z_K + 1)
            base = HermitianNorms(k=Z_K, log_h=H_bal.log_h + scale * rng.normal(size=Z_K + 1))
            geodesics.append((base, A - A.mean()))
        pool.append(
            {
                "geodesics": geodesics,
                "phi_L": random_potential(rng, scale=0.5),
                "phi_M": random_potential(rng, scale=0.7),
                "phi_eps": random_potential(rng, scale=0.5),
            }
        )
    return {"model": model, "model1": ToyModel(p=1.0), "H_bal": H_bal, "pool": pool}


def _hilb_round(ks, model):
    phi = round_potential()
    return [hilb(phi, k, model) for k in ks]


def _z_of_hilb(phi, k, model):
    return functional_Z(hilb(phi, k, model), k, model)


def round_quant_functionals(inp: dict, r: int, run: Run, oracle: dict) -> None:
    p = inp["pool"][r % POOL]
    model, model1 = inp["model"], inp["model1"]

    hs = run.op("hilb", _hilb_round, HILB_KS, model)
    for k, H in zip(HILB_KS, hs or ()):
        ref = np.asarray(oracle["beta"][k]) - math.log(1.0 - 1.0 / k)
        err = float(np.max(np.abs(H.log_h - ref)))
        run.check(err < HILB_BOUND, f"hilb(round) at k={k} off the Beta oracle by {err:.3e}")

    for base, A in p["geodesics"]:
        zs = [run.op("Z", functional_Z, geodesic(base, A, float(t), model), Z_K, model) for t in Z_TS]
        if None not in zs:
            worst = float(np.min(np.diff(zs, 2)))
            run.check(worst >= -CONVEXITY_BOUND, f"Z second difference {worst:.3e} along a geodesic")
        zp = run.op("z_prime", z_prime, inp["H_bal"], A, Z_K, model)
        if zp is not None:
            run.check(abs(zp) < ZPRIME_BOUND, f"|Z'| at the balanced point = {abs(zp):.3e}")

    gaps = []
    for k in L_KS:
        L = run.op("L", functional_L, p["phi_L"], k, model)
        Z = run.op("Z", _z_of_hilb, p["phi_L"], k, model)
        if L is not None and Z is not None:
            gaps.append(abs(L - Z) / k)
    if len(gaps) == len(L_KS):
        run.check(all(b < a for a, b in zip(gaps, gaps[1:])), f"L-Z gaps not decreasing: {gaps}")

    M = run.op("toy_mabuchi", toy_mabuchi, p["phi_M"], model1)
    if M is not None:
        run.check(M >= 0.0, f"toy Mabuchi energy {M!r} < 0 at p=1")
    rep = run.op("almost_balanced", almost_balanced_check, round_potential(), p["phi_eps"], EPS_KS, model1)
    if rep is not None:
        eps = rep.eps_hat
        run.check(all(b <= a for a, b in zip(eps, eps[1:])), f"eps-hat increases: {eps}")
        run.check(eps[-1] < EPS_HAT_BOUND, f"eps-hat(64) = {eps[-1]:.3e}")


# -- balanced ----------------------------------------------------------------


def build_balanced(seed: int) -> dict:
    rng = np.random.default_rng(seed)
    pool = [[random_potential(rng, scale=0.6) for _ in BALANCED_KS] for _ in range(POOL)]
    return {"model": ToyModel(p=1.0), "pool": pool}


def affine_defect(log_h, beta) -> float:
    """Max residual of the least-squares fit of log h - log G by a + b j."""
    d = np.asarray(log_h) - np.asarray(beta)
    j = np.arange(len(d), dtype=float)
    A = np.stack([np.ones_like(j), j], axis=1)
    coef, *_ = np.linalg.lstsq(A, d, rcond=None)
    return float(np.max(np.abs(A @ coef - d)))


def round_balanced(inp: dict, r: int, run: Run, oracle: dict) -> None:
    for k, phi0 in zip(BALANCED_KS, inp["pool"][r % POOL]):
        res = run.op(f"solve-{k}", balanced_iterate, phi0, k, inp["model"])
        if res is not None:
            raw, norm = run.last
            run.sample("step", raw / res.n_iter, norm / res.n_iter)
            run.check(res.converged, f"balanced iteration at k={k} not converged")
            err = affine_defect(res.H.log_h, oracle["beta"][k])
            run.check(err < AFFINE_BOUND, f"converged log h at k={k} is {err:.3e} from Beta norms + gauge")


WORKLOADS = {
    "continuous": (build_continuous, round_continuous, finish_continuous),
    "quant-functionals": (build_quant_functionals, round_quant_functionals, None),
    "balanced": (build_balanced, round_balanced, None),
}
