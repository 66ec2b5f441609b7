"""Reference values computed apart from gmwalk.

Nothing here imports the package under test.  Closed forms come from integer
multinomials; Markov and Heisenberg laws come from a small integer dynamic
programme written for the benchmark; spectral values come from one stacked
``numpy.linalg.eigvals`` call per grid.  Results are cached, because every
round of a workload repeats the same inputs.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache

import numpy as np

SQRT2 = 2 ** 0.5


# ------------------------------------------------------------------ groups

def lattice_mul(v, g):
    return tuple(a + b for a, b in zip(v, g))


def heis_mul(v, g):
    """(x, y, z)(x', y', z') = (x + x', y + y', z + z' + x y'); v on the left."""
    return (v[0] + g[0], v[1] + g[1], v[2] + g[2] + v[0] * g[1])


# ------------------------------------------------- exact laws by integer DP

@lru_cache(maxsize=None)
def exact_laws(trans, start, incs, group, n):
    """Exact joint laws {(state, g): Fraction} of the walk for steps 0..n.

    ``trans`` is a tuple of Fraction rows, ``start`` a tuple of
    ((state, g), weight) pairs, ``incs`` one group element per symbol and
    ``group`` "lattice" or "heisenberg".  A step from state s emits s2 with
    weight trans[s][s2] and multiplies incs[s2] on the left.
    """
    mul = heis_mul if group == "heisenberg" else lattice_mul
    den_t = math.lcm(*(f.denominator for row in trans for f in row))
    tnum = [[int(f * den_t) for f in row] for row in trans]
    den_s = math.lcm(*(w.denominator for _, w in start))
    cur = {key: int(w * den_s) for key, w in start}
    out = [(cur, den_s)]
    den = den_s
    for _ in range(n):
        nxt = {}
        for (s, g), w in cur.items():
            for s2, t in enumerate(tnum[s]):
                key = (s2, mul(incs[s2], g))
                nxt[key] = nxt.get(key, 0) + w * t
        cur = nxt
        den *= den_t
        out.append((cur, den))
    return tuple(out)


def stationary_start(trans, pi, dim):
    return tuple(((s, (0,) * dim), p) for s, p in enumerate(pi))


def exact_table(trans, pi, incs, group, n):
    """Joint law at step n as {(state, g): Fraction}."""
    dim = len(incs[0])
    tab, den = exact_laws(trans, stationary_start(trans, pi, dim), incs, group, n)[n]
    return {k: Fraction(v, den) for k, v in tab.items()}


def exact_point_masses(trans, pi, incs, group, n, g):
    """mu^k(g) for k = 0..n as Fractions."""
    dim = len(incs[0])
    g = tuple(g)
    out = []
    for tab, den in exact_laws(trans, stationary_start(trans, pi, dim), incs, group, n):
        out.append(Fraction(sum(v for (_, h), v in tab.items() if h == g), den))
    return out


def exact_grouped_periodic(trans, incs, a, n):
    """Z_{a,g}^n: period-n words through symbol a, weighted around the cycle."""
    laws = exact_laws(trans, (((a, tuple(incs[a])), Fraction(1)),), incs, "lattice", n - 1)
    tab, den = laws[n - 1]
    out = {}
    for (s, g), w in tab.items():
        out[g] = out.get(g, 0) + Fraction(w, den) * trans[s][a]
    return out


# ------------------------------------------------------------ closed forms

@lru_cache(maxsize=None)
def z_bernoulli_mass(weights, n, k):
    """mu^n(k) for a Bernoulli walk on Z with increments -1, 0, +1.

    ``weights`` = (p_minus, p_zero, p_plus) as Fractions.  The mass is a sum
    of integer multinomials over the step counts with (#plus - #minus) = k.
    """
    den = math.lcm(*(p.denominator for p in weights))
    am, a0, ap = (int(p * den) for p in weights)
    if a0 == 0:                          # only the term with no zero steps
        if (n + k) % 2 or abs(k) > n:
            return Fraction(0)
        up = (n + k) // 2
        return Fraction(math.comb(n, up) * ap ** up * am ** (n - up), den ** n)
    total = 0
    for c in range(max(0, -k), n + 1):   # c minus steps, c + k plus steps
        up = c + k
        zero = n - up - c
        if zero < 0:
            break
        total += math.comb(n, up) * math.comb(n - up, c) * ap ** up * a0 ** zero * am ** c
    return Fraction(total, den ** n)


def z2_uniform_mass(n, x, y):
    """mu^n(x, y) for the uniform walk with increments (1,0), (0,1), (0,0)."""
    z = n - x - y
    if min(x, y, z) < 0:
        return Fraction(0)
    f = math.factorial
    return Fraction(f(n) // (f(x) * f(y) * f(z)), 3 ** n)


def heis_bernoulli_minimum(p):
    """min of phi(x, y) = p_a e^x + p_A e^-x + p_b e^y + p_B e^-y."""
    pa, pA, pb, pB = (float(w) for w in p)
    return 2 * math.sqrt(pa * pA) + 2 * math.sqrt(pb * pB)


def embedded4_grid(n):
    """Masses and real embeddings of the uniform walk on Z + sqrt(2) Z at step n.

    Coordinates u = x + y and v = x - y are independent simple walks, so
    mu^n(x, y) = C(n, (n+u)/2) C(n, (n+v)/2) / 4^n.
    """
    b = np.array([math.comb(n, k) / 2 ** n for k in range(n + 1)])
    k1, k2 = np.meshgrid(np.arange(n + 1), np.arange(n + 1), indexing="ij")
    x = k1 + k2 - n
    y = k1 - k2
    emb = x * 1.0 + y * SQRT2
    return np.outer(b, b).ravel(), emb.ravel()


def embed4(shift):
    return 0.0 + shift[0] * 1.0 + shift[1] * SQRT2


@lru_cache(maxsize=None)
def embedded4_window(n, lo, hi, shift=(0, 0)):
    """(mass, boundary atoms) of the open window (lo, hi) + shift at step n."""
    mass, emb = embedded4_grid(n)
    s = embed4(shift)
    inside = (emb > lo + s) & (emb < hi + s)
    near = (np.abs(emb - (lo + s)) < 1e-9) | (np.abs(emb - (hi + s)) < 1e-9)
    return float(mass[inside].sum()), int(np.count_nonzero(near & (mass > 0)))


# ------------------------------------------------------ float dense walks

@lru_cache(maxsize=None)
def float_laws(trans, pi, incs, n, targets=()):
    """Masses at fixed lattice points for steps 0..n, and the step-n marginal.

    Float stepping by numpy rolls on a box of radius n * max|increment| per
    axis, so no mass wraps.  The marginal maps each occupied point to its mass.
    """
    P = np.array([[float(x) for x in row] for row in trans])
    V = np.array(incs, dtype=np.int64)
    d = V.shape[1]
    radius = n * int(np.abs(V).max())
    W = np.zeros((len(pi),) + (2 * radius + 1,) * d)
    W[(slice(None),) + (radius,) * d] = [float(p) for p in pi]
    buf = np.empty_like(W)
    idx = [tuple(radius + c for c in t) for t in targets]
    rows = [[float(W[(slice(None),) + i].sum()) for i in idx]]
    axes = tuple(range(d))
    for _ in range(n):
        # one state row at a time keeps this below the program's own box
        # memory, so peak_rss_mb follows the program
        for s in range(len(pi)):
            buf[s] = np.roll(np.tensordot(P[:, s], W, axes=(0, 0)), tuple(V[s]), axis=axes)
        W, buf = buf, W
        rows.append([float(W[(slice(None),) + i].sum()) for i in idx])
    marg = W.sum(axis=0)
    nz = np.nonzero(marg)
    final = {tuple(int(c) - radius for c in cell): float(marg[cell]) for cell in zip(*nz)}
    return rows, final


@lru_cache(maxsize=None)
def float_cyclic_laws(trans, pi, incs, k, n):
    """Laws on Z/k (rows of k masses) for steps 0..n, and the return-time tail."""
    trans = np.array([[float(x) for x in row] for row in trans])
    m = len(pi)
    W = np.zeros((m, k))
    W[:, 0] = [float(p) for p in pi]
    A = W.copy()                       # absorbed at the identity after each step
    laws, tails = [W.sum(axis=0)], [1.0]
    for _ in range(n):
        M = trans.T @ W
        W = np.stack([np.roll(M[s2], incs[s2][0]) for s2 in range(m)])
        laws.append(W.sum(axis=0))
        MA = trans.T @ A
        A = np.stack([np.roll(MA[s2], incs[s2][0]) for s2 in range(m)])
        A[:, 0] = 0.0
        tails.append(A.sum())
    return laws, tails


# --------------------------------------------------------------- spectra

def twisted_stack(trans, incs, thetas):
    """B[s', s] = p(s -> s') e^{i <theta, v(s')>}, one matrix per row of thetas."""
    P = np.array([[float(x) for x in row] for row in trans])
    V = np.array(incs, dtype=float)
    phases = np.exp(1j * (np.asarray(thetas, dtype=float) @ V.T))   # (N, m)
    return np.transpose(P[None, :, :] * phases[:, None, :], (0, 2, 1))


def leading_stack(trans, incs, thetas):
    """(all eigenvalues, leading eigenvalue, runner-up modulus ratio) per theta."""
    eig = np.linalg.eigvals(twisted_stack(trans, incs, thetas))
    mods = np.abs(eig)
    order = np.argsort(-mods, axis=1)
    lead = np.take_along_axis(eig, order[:, :1], axis=1)[:, 0]
    second = np.take_along_axis(mods, order[:, 1:2], axis=1)[:, 0]
    return eig, lead, second / np.abs(lead)


def torus_grid(resolution, d):
    axes = [2 * math.pi * np.arange(resolution) / resolution] * d
    return np.stack([a.ravel() for a in np.meshgrid(*axes, indexing="ij")], axis=1)


def scan_points(resolution, d, eps):
    """The aperiodicity scan's point set: grid points off the eps-ball plus its sphere."""
    pts = torus_grid(resolution, d)
    wrapped = np.where(pts > math.pi, pts - 2 * math.pi, pts)
    pts = pts[np.linalg.norm(wrapped, axis=1) >= eps]
    if d == 1:
        extra = np.array([[eps], [2 * math.pi - eps]])
    else:
        t = np.linspace(0, 2 * math.pi, 4 * resolution, endpoint=False)
        extra = np.stack([eps * np.cos(t), eps * np.sin(t)], axis=1) % (2 * math.pi)
    return np.concatenate([pts, extra])


def disc_integral(trans, incs, eta, n, n_radial=32, n_angular=64):
    """Integral of Re(lambda)^n over the eta-disc around 0 in the 2-torus.

    Gauss-Legendre in the radius and the trapezoid rule in the angle, which
    is spectrally accurate for the periodic angular integrand.
    """
    x, w = np.polynomial.legendre.leggauss(n_radial)
    r, wr = 0.5 * eta * (x + 1), 0.5 * eta * w
    t = 2 * math.pi * np.arange(n_angular) / n_angular
    R, T = np.meshgrid(r, t, indexing="ij")
    thetas = np.stack([(R * np.cos(T)).ravel(), (R * np.sin(T)).ravel()], axis=1) % (2 * math.pi)
    _, lead, _ = leading_stack(trans, incs, thetas)
    f = (lead.real ** n).reshape(n_radial, n_angular)
    return float((wr[:, None] * R * f).sum() * 2 * math.pi / n_angular)


def gibbs_constant(trans, pi):
    """Extreme of P[s][t] / pi[t] and its inverse (the cylinder distortion)."""
    c = Fraction(1)
    for row in trans:
        for t, p in enumerate(row):
            c = max(c, p / pi[t], pi[t] / p)
    return c


def stationary(trans):
    """Exact stationary vector by solving pi P = pi with Fractions."""
    m = len(trans)
    A = [[trans[s][t] - (1 if s == t else 0) for s in range(m)] for t in range(m - 1)]
    A.append([Fraction(1)] * m)
    b = [Fraction(0)] * (m - 1) + [Fraction(1)]
    for col in range(m):
        piv = next(r for r in range(col, m) if A[r][col] != 0)
        A[col], A[piv] = A[piv], A[col]
        b[col], b[piv] = b[piv], b[col]
        for r in range(m):
            if r != col and A[r][col] != 0:
                f = A[r][col] / A[col][col]
                A[r] = [x - f * y for x, y in zip(A[r], A[col])]
                b[r] -= f * b[col]
    return tuple(b[i] / A[i][i] for i in range(m))
