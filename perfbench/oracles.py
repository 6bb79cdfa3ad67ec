"""Oracles that share no code with kahlerlab.

* kappa0(genus, degree): the threshold where the constant weighted-curvature
  numerator P develops an interior double root (P = P' = 0). P is solved from
  the weighted scalar curvature formula itself, at 40 digits with mpmath.
* Beta-function norms of the round metric:
  log G_j = log(2 pi k) + log B(j+1, k-j+1), from math.lgamma.
* The Futaki curve b_kappa = kappa + sqrt(kappa^2 - 1).

Run ``python3 perfbench/oracles.py`` to print the oracle table.
"""

from __future__ import annotations

import math

import mpmath as mp

DPS = 40
P_WEIGHT = 4  # the Killing weight exponent of the continuous strand
STOP_TOL = 1e-8  # |min P| at which kahlerlab's threshold search stops


def b_kappa(kappa: float) -> float:
    return kappa + math.sqrt(kappa * kappa - 1.0)


def log_beta_norms(k: int) -> list[float]:
    """log G_j, G_j = int |s_j|^2 vol_{k omega} for the round metric."""
    base = math.log(2.0 * math.pi * k)
    return [
        base + math.lgamma(j + 1) + math.lgamma(k - j + 1) - math.lgamma(k + 2)
        for j in range(k + 1)
    ]


def _numerator(kappa, s_c):
    """Coefficients p0..p4 (ascending in z) of P = (z + kappa) Theta.

    With w = z + kappa and f = z + b, Theta = P/w gives Scal = (s_C - P'')/w
    and Delta z = -P'/w, so Scal_p = c reads, as a polynomial identity,

        f^2 (s_C - P'') + 2(p-1) f P' - p(p-1) P - c w = 0,

    to which the boundary conditions Theta(+-1) = 0, Theta'(-1) = 2,
    Theta'(1) = -2 add P(+-1) = 0, P'(-1) = 2(kappa-1), P'(1) = -2(kappa+1).
    On the Futaki curve the 9 x 6 system is consistent; it is solved by least
    squares (normal equations at DPS digits) and its residual returned.
    """
    b = kappa + mp.sqrt(kappa * kappa - 1)
    p = P_WEIGHT
    f = [b, mp.mpf(1)]  # f = b + z
    f2 = [b * b, 2 * b, mp.mpf(1)]
    rows, rhs = [], []
    # identity coefficients of z^0..z^4; unknowns (p0..p4, c)
    for deg in range(5):
        row = [mp.mpf(0)] * 6
        for i in range(5):  # contribution of p_i z^i
            # -f^2 P'': p_i i (i-1) z^(i-2) times f2
            if i >= 2:
                for a, fa in enumerate(f2):
                    if a + i - 2 == deg:
                        row[i] -= fa * i * (i - 1)
            # 2(p-1) f P'
            if i >= 1:
                for a, fa in enumerate(f):
                    if a + i - 1 == deg:
                        row[i] += 2 * (p - 1) * fa * i
            if i == deg:
                row[i] -= p * (p - 1)
        # -c w
        row[5] = -(kappa if deg == 0 else (1 if deg == 1 else 0))
        rows.append(row)
        rhs.append(-s_c * (f2[deg] if deg < 3 else 0))
    for z0, slope in ((-1, 2 * (kappa - 1)), (1, -2 * (kappa + 1))):
        rows.append([mp.mpf(z0) ** i for i in range(5)] + [0])
        rhs.append(mp.mpf(0))
        rows.append([i * mp.mpf(z0) ** (i - 1) if i else mp.mpf(0) for i in range(5)] + [0])
        rhs.append(slope)
    A, y = mp.matrix(rows), mp.matrix(rhs)
    sol = mp.lu_solve(A.T * A, A.T * y)
    return [sol[i] for i in range(5)], mp.norm(A * sol - y)


def _interior_min(coef):
    """(min P, argmin) over the real critical points of P in (-1, 1)."""
    dcoef = [i * coef[i] for i in range(1, 5)]
    best = (mp.inf, None)
    for r in mp.polyroots(dcoef[::-1], maxsteps=200, extraprec=2 * DPS):
        if abs(mp.im(r)) < mp.mpf(10) ** (-DPS // 2) and -1 < mp.re(r) < 1:
            z = mp.re(r)
            val = mp.polyval(coef[::-1], z)
            if val < best[0]:
                best = (val, z)
    return best


def kappa0(genus: int, degree: int) -> dict:
    """Threshold kappa0 with its double root, and the kappa window in which
    kahlerlab's |min P| < STOP_TOL rule may stop (from dm/dkappa at kappa0)."""
    with mp.workdps(DPS):
        s_c = mp.mpf(4 * (1 - genus)) / degree

        def m(kappa):
            return _interior_min(_numerator(kappa, s_c)[0])[0]

        lo, hi = mp.mpf("1.0001"), mp.mpf(2)
        while m(hi) < 0:
            lo, hi = hi, 2 * hi
        for _ in range(12):  # coarse bisection, then a bracketed secant
            mid = (lo + hi) / 2
            if m(mid) < 0:
                lo = mid
            else:
                hi = mid
        k0 = mp.findroot(m, (lo, hi), solver="anderson")
        coef, res = _numerator(k0, s_c)
        val, z0 = _interior_min(coef)
        h = mp.mpf(10) ** (-DPS // 3)
        slope = (m(k0 + h) - m(k0 - h)) / (2 * h)
        return {
            "genus": genus,
            "degree": degree,
            "s_C": float(s_c),
            "kappa0": float(k0),
            "argmin_z": float(z0),
            "P_at_root": float(val),
            "futaki_defect": float(res),
            "dm_dkappa": float(slope),
            "kappa_window": float(2 * STOP_TOL / abs(slope)),
        }


# (genus, degree) pairs with pairwise distinct s_C = 4(1-g)/d
GRID = ((2, 1), (3, 1), (2, 2), (4, 1), (2, 3), (5, 1), (4, 5), (2, 5))


def main() -> None:
    print("genus,degree,s_C,kappa0,argmin_z,P_at_root,futaki_defect,dm_dkappa,kappa_window,b_kappa0")
    for g, d in GRID:
        o = kappa0(g, d)
        print(
            f"{g},{d},{o['s_C']!r},{o['kappa0']!r},{o['argmin_z']!r},{o['P_at_root']:.3e},"
            f"{o['futaki_defect']:.3e},{o['dm_dkappa']!r},{o['kappa_window']:.3e},{b_kappa(o['kappa0'])!r}"
        )
    for k in (8, 12, 16):
        print(f"log_beta_norms(k={k}) = " + " ".join(f"{x:.15g}" for x in log_beta_norms(k)))


if __name__ == "__main__":
    main()
