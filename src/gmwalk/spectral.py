"""Twisted transition matrices over character grids, and what they imply.

A character theta of the (internal) lattice Z^d twists the transition matrix
entrywise by the phase of the destination symbol's increment:

    B_theta[s', s] = p(s -> s') * exp(i <theta, v(s')>),

consistent with increments multiplying on the left.  Its leading eigenvalue
at theta = 0 is 1 (stochasticity); strict contraction away from 0 is exactly
aperiodicity of the twisted family.

Normalization conventions used throughout:

* lattice targets integrate over the torus with plain d(theta), so the
  full-ball value at d = 1 is the inversion identity 2*pi*mu^n(0);
* embedded targets integrate along the pulled-back real dual line with
  dt/(2*pi), so window masses compare as mu^n(E) ~ u_n * vol(E).
"""

from __future__ import annotations

import cmath
import functools
import itertools
import math
import operator
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import ConsistencyError, ValidationError
from .gm_system import check_aperiodicity_algebraic, check_symmetry
from .groups import EmbeddedRealLattice, IntegerLattice, hermite_basis
from .walkdist import (_adjugate, _as_box, _element, _int_det, _point_masses, box_volume,
                       distribution, marginal_recursion, window_mass)

NEAR_DEGENERATE_GAP = 1e-6
# largest disagreement of the matrix and table characteristic functions
CHARFN_TOL = 1e-10
# relative tolerance of the u_n quadrature (d = 1 and embedded lattices)
U_N_REL_TOL = 1e-12
# largest imaginary part of a leading eigenvalue that counts as real
REALITY_TOL = 1e-10
# complex matrix entries per stacked block (2 MiB): grids of any resolution
# are evaluated block by block, so memory stays bounded
_BLOCK_ENTRIES = 1 << 17
# largest root-inclusion radius, relative to the 1-norm of the matrix (1 for a
# twisted stochastic matrix), of a closed-form 3x3 spectrum that is kept
# (``_cubic_eigvals``); other rows are solved by LAPACK
CUBIC_RADIUS_TOL = 1e-13
# complex entries of the block budget charged to each row the cubic solver
# holds (``_eigvals``): its temporaries peak at 35 per row, so a chunk of
# _BLOCK_ENTRIES // _CUBIC_ENTRIES = 1024 rows takes about a quarter of a
# block beside the stack (one 8,320-row solve raised a grid run's peak RSS by
# 3 MB, 1,024-row chunks left it as LAPACK did)
_CUBIC_ENTRIES = 128
# unit roundoff
_U = np.finfo(float).eps / 2
# cube roots of unity
_OMEGA = complex(-0.5, math.sqrt(3) / 2)


def _lattice_dim(cocycle):
    spec = cocycle.spec
    if isinstance(spec, (IntegerLattice, EmbeddedRealLattice)):
        return spec.key_size
    raise ValidationError(f"character methods need a lattice target, got {spec!r}")


def _torus_grid(resolution, d):
    """The resolution^d torus grid as an (N, d) array, last coordinate fastest."""
    axis = 2 * math.pi * np.arange(resolution) / resolution
    return np.stack([a.ravel() for a in np.meshgrid(*[axis] * d, indexing="ij")], axis=1)


def _blocks(n_rows, m):
    step = max(1, _BLOCK_ENTRIES // (m * m))
    return (slice(i, i + step) for i in range(0, n_rows, step))


def _modulus(z):
    # hypot, as Python's abs(complex); np.abs rounds differently
    return np.hypot(z.real, z.imag)


def _phases(cocycle, thetas):
    """e^{i<theta, v(s)>} for every row theta and symbol s, shape (N, m)."""
    d = _lattice_dim(cocycle)
    if thetas.ndim != 2 or thetas.shape[1] != d:
        raise ValidationError(f"theta must have {d} components")
    # summed elementwise: a BLAS product fuses multiply-adds depending on the
    # number of rows, and a phase must not depend on the block it is in
    x = (thetas[:, None, :] * np.array(cocycle.values, dtype=float)).sum(axis=2)
    return np.cos(x) + 1j * np.sin(x)


def _twisted_stack(system, cocycle, thetas):
    """Twisted matrices B[k, s', s] = p(s -> s') e^{i<theta_k, v(s')>}."""
    return (system.trans_float * _phases(cocycle, thetas)[:, None, :]).transpose(0, 2, 1)


def _one_row(theta):
    return np.atleast_1d(np.asarray(theta, dtype=float))[None]


def perturbed_matrix(system, cocycle, theta) -> np.ndarray:
    """Twisted transition matrix B[s', s] = p(s -> s') e^{i<theta, v(s')>}."""
    return _twisted_stack(system, cocycle, _one_row(theta))[0]


def _cubic_eigvals(B):
    """Eigenvalues of each 3x3 matrix of the stack ``B`` from its characteristic
    polynomial p(z) = z^3 - a z^2 + b z - c, and which rows are certified.

    a is the trace, b the sum of the principal 2x2 minors and c the
    determinant.  Cardano's formula gives the roots, in the order u + v,
    omega u + conj(omega) v, conj(omega) u + omega v, and two Newton steps
    polish them.  A row is certified if its roots are finite, pairwise more
    than ``NEAR_DEGENERATE_GAP`` |lambda_1| apart, and each within
    ``CUBIC_RADIUS_TOL`` ||B||_1 of an eigenvalue by the root-inclusion
    bound: the union of the discs about z_k of radius 3 (|p(z_k)| + e_k) /
    prod_{j != k} |z_k - z_j| holds every root of the exact polynomial, and
    disjoint discs (checked: twice the largest radius below the least gap)
    hold one each.  e_k bounds the rounding of the coefficients (2u, 6u and 9u
    times the same sums over |B|: a complex product errs by at most 2.83u)
    and of Horner's rule (9u), so e_k = 18u (|z|^3 + |a||z|^2 + |b||z| + |c|)
    with each |.| over |B| (Higham, *Accuracy and Stability of Numerical
    Algorithms*, ch. 3 and 5).  Every operation is elementwise, so a row's
    result does not depend on the rows beside it.
    """
    B = np.asarray(B, dtype=complex)
    A = np.abs(B)
    (b00, b01, b02), (b10, b11, b12), (b20, b21, b22) = B.transpose(1, 2, 0)
    (a00, a01, a02), (a10, a11, a12), (a20, a21, a22) = A.transpose(1, 2, 0)
    m0 = b11 * b22 - b12 * b21
    tr = b00 + b11 + b22
    minors = m0 + (b00 * b22 - b02 * b20) + (b00 * b11 - b01 * b10)
    det = b00 * m0 - b01 * (b10 * b22 - b12 * b20) + b02 * (b10 * b21 - b11 * b20)
    n0 = a11 * a22 + a12 * a21
    abs_minors = n0 + (a00 * a22 + a02 * a20) + (a00 * a11 + a01 * a10)
    abs_det = a00 * n0 + a01 * (a10 * a22 + a12 * a20) + a02 * (a10 * a21 + a11 * a20)
    abs_tr = a00 + a11 + a22
    # z = t + s turns p into the depressed cubic t^3 + P t + Q
    s = tr / 3
    p3 = (minors - 3 * s * s) / 3
    h = 0.5 * (det - s * (minors - 2 * s * s))          # -Q / 2
    root = np.sqrt(h * h + p3 * p3 * p3)
    w = np.where(_modulus(h + root) >= _modulus(h - root), h + root, h - root)
    phi = np.arctan2(w.imag, w.real) / 3
    u = np.cbrt(_modulus(w)) * (np.cos(phi) + 1j * np.sin(phi))
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        v = np.where(u != 0, -p3 / u, 0)        # u = 0 only if P = Q = 0
        z = np.stack([u + v, _OMEGA * u + _OMEGA.conjugate() * v,
                      _OMEGA.conjugate() * u + _OMEGA * v], axis=1) + s[:, None]
        tr, minors, det = tr[:, None], minors[:, None], det[:, None]
        for _ in range(2):
            z = z - (((z - tr) * z + minors) * z - det) / ((3 * z - 2 * tr) * z + minors)
        res = _modulus(((z - tr) * z + minors) * z - det)
        mod = _modulus(z)
        err = 18 * _U * (((mod + abs_tr[:, None]) * mod + abs_minors[:, None]) * mod
                         + abs_det[:, None])
        d01, d02, d12 = (_modulus(z[:, i] - z[:, j]) for i, j in ((0, 1), (0, 2), (1, 2)))
        apart = np.stack([d01 * d02, d01 * d12, d02 * d12], axis=1)
        radius = (3 * (res + err) / apart).max(axis=1)
        gap = np.minimum(np.minimum(d01, d02), d12)
        ok = (np.isfinite(z).all(axis=1) & (gap > NEAR_DEGENERATE_GAP * mod.max(axis=1))
              & (2 * radius < gap) & (radius <= CUBIC_RADIUS_TOL * A.sum(axis=1).max(axis=1)))
    return z, ok


def _eigvals(stack):
    """Eigenvalues of each matrix of ``stack``, and which rows LAPACK solved.

    3x3 stacks are solved in closed form (``_cubic_eigvals``),
    ``_BLOCK_ENTRIES // _CUBIC_ENTRIES`` rows at a time; the rows it does not
    certify, and stacks of any other size, go to ``np.linalg.eigvals``
    unchanged.  A 2x2 spectrum costs LAPACK little, and a quartic's roots are
    certified too rarely to pay (on the symmetric 4-state chain the same
    tests rejected 17 % of a 64^2 grid and 75 % of the 0.5-disc).
    """
    if stack.shape[1:] != (3, 3):
        return np.linalg.eigvals(stack), np.ones(len(stack), dtype=bool)
    eig = np.empty((len(stack), 3), dtype=complex)
    ok = np.empty(len(stack), dtype=bool)
    step = max(1, _BLOCK_ENTRIES // _CUBIC_ENTRIES)
    for i in range(0, len(stack), step):
        eig[i:i + step], ok[i:i + step] = _cubic_eigvals(stack[i:i + step])
    lapack = ~ok
    if lapack.any():
        eig[lapack] = np.linalg.eigvals(stack[lapack])
    return eig, lapack


def _leading(eig):
    """Leading eigenvalue and runner-up modulus ratio of each row of ``eig``, and
    whether the row is ill-separated: its leading pair ties (1 - ratio below
    ``NEAR_DEGENERATE_GAP``) or its runner-up lies within ``NEAR_DEGENERATE_GAP``
    |lambda_1| of the next eigenvalue.  There an eigensolve of the conjugate
    matrix need not return the conjugate values to rounding (``_grid_leading``).
    """
    ranked = np.take_along_axis(eig, np.argsort(-np.abs(eig), axis=-1)[:, :3], axis=-1)
    second = _modulus(ranked[:, 1]) if eig.shape[1] > 1 else 0.0
    mod = _modulus(ranked[:, 0])
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.where(mod > 0, second / mod, math.inf)
    loose = 1 - ratio < NEAR_DEGENERATE_GAP
    if eig.shape[1] > 2:
        loose |= _modulus(ranked[:, 1] - ranked[:, 2]) <= NEAR_DEGENERATE_GAP * mod
    return ranked[:, 0], ratio, loose


def _warn_near_degenerate(ratio):
    if np.any(1 - ratio < NEAR_DEGENERATE_GAP):
        warnings.warn("near-degenerate leading eigenvalues", RuntimeWarning, stacklevel=3)


def leading_eigenvalue(matrix) -> tuple[complex, float]:
    """Maximal-modulus eigenvalue and runner-up modulus ratio (near 1: warns)."""
    lam, ratio, _ = _leading(_eigvals(np.asarray(matrix)[None])[0])
    _warn_near_degenerate(ratio)
    return complex(lam[0]), float(ratio[0])


def leading_stack(system, cocycle, thetas):
    """Leading twisted eigenvalues and runner-up ratios at the rows of ``thetas``.

    Markov systems solve one block of stacked matrices at a time
    (``_eigvals``: 3x3 spectra in closed form, others by LAPACK).  Bernoulli
    twisted matrices have identical columns, so their only nonzero eigenvalue
    is the trace (ratio 0): exact, and free of the sqrt(eps) noise a generic
    eigensolve puts on the defective zero eigenvalue.
    """
    return _stack(system, cocycle, thetas)[:2]


def _stack(system, cocycle, thetas):
    """``leading_stack``, each row's ill-separation flag (``_leading``; never on
    a Bernoulli row, which is exact) and whether LAPACK solved the row."""
    thetas = np.asarray(thetas, dtype=float)
    lam = np.zeros(len(thetas), dtype=complex)
    ratio = np.zeros(len(thetas))
    loose = np.zeros(len(thetas), dtype=bool)
    lapack = np.zeros(len(thetas), dtype=bool)
    for blk in _blocks(len(thetas), system.m):
        if system.is_bernoulli:
            phases = _phases(cocycle, thetas[blk])
            for s in range(system.m):
                lam[blk] += system.pi_float[s] * phases[:, s]
        else:
            eig, lapack[blk] = _eigvals(_twisted_stack(system, cocycle, thetas[blk]))
            lam[blk], ratio[blk], loose[blk] = _leading(eig)
    return lam, ratio, loose, lapack


def eigenvalue_at(system, cocycle, theta):
    """Leading twisted eigenvalue and runner-up ratio at one character."""
    lam, ratio = leading_stack(system, cocycle, _one_row(theta))
    _warn_near_degenerate(ratio)
    return complex(lam[0]), float(ratio[0])


@dataclass
class ScanReport:
    resolution: int
    epsilon: float
    max_modulus: float
    argmax_theta: tuple
    passed: bool
    algebraic_full: bool | None = None
    # grid rows whose spectrum LAPACK solved (``_eigvals``)
    fallback_rows: int = 0


def _grid(cocycle, resolution):
    d = _lattice_dim(cocycle)
    if d > 2:
        raise ValidationError("grid scans are implemented for d <= 2")
    return _torus_grid(resolution, d)


def _grid_leading(system, cocycle, resolution):
    """Torus grid, its leading eigenvalues and runner-up ratios, half evaluated,
    and the number of its rows that LAPACK solved.

    The cocycle is integer and P real, so B(-theta) = conj B(theta) and
    lambda(-theta) = conj lambda(theta).  Only the rows whose mirror index
    (-k mod N per axis) is at least their own are evaluated, the
    self-conjugate ones (every coordinate 0 or pi) among them.  Every other
    row takes its partner's ratio and conjugate eigenvalue, with imaginary
    part 0.0 - Im so that a real eigenvalue keeps +0.0, unless the partner
    is ill-separated (``_leading``): at a tie the mirror may report the other
    member of the pair, and beside a nearly defective runner-up it is
    determined only to about sqrt(u) |B|, so that row is solved directly.
    """
    thetas = _grid(cocycle, resolution)
    d = thetas.shape[1]
    idx = np.arange(len(thetas))
    digits = np.unravel_index(idx, (resolution,) * d)
    mirror = np.ravel_multi_index([(-k) % resolution for k in digits], (resolution,) * d)
    own = mirror >= idx
    lam = np.empty(len(thetas), dtype=complex)
    ratio = np.empty(len(thetas))
    loose = np.zeros(len(thetas), dtype=bool)
    lapack = np.zeros(len(thetas), dtype=bool)
    lam[own], ratio[own], loose[own], lapack[own] = _stack(system, cocycle, thetas[own])
    direct = ~own & loose[mirror]
    lam[direct], ratio[direct], _, lapack[direct] = _stack(system, cocycle, thetas[direct])
    mirrored = ~own & ~direct
    partner = mirror[mirrored]
    lam.real[mirrored] = lam.real[partner]
    lam.imag[mirrored] = 0.0 - lam.imag[partner]
    ratio[mirrored] = ratio[partner]
    return thetas, lam, ratio, int(lapack.sum())


def _forced_characters(cocycle):
    """The nonzero characters at which the difference lattice forces |lambda| = 1.

    They annihilate Lambda0, the lattice the differences v(s) - v(0)
    generate: theta = 2 pi H^-1 k mod 2 pi for H an upper-triangular basis
    of Lambda0 (``hermite_basis``, one basis vector per row) and k over the
    representatives 0 <= k_i < |H_ii| of Z^d / H Z^d, index - 1 of them
    without k = 0.  There, every twisted phase is the same, so B(theta) is a
    unimodular multiple of P^T.  Empty when Lambda0 has rank below d.
    """
    d = _lattice_dim(cocycle)
    v0 = cocycle.values[0]
    H = hermite_basis([tuple(map(operator.sub, v, v0)) for v in cocycle.values[1:]])
    if H is None or len(H) != d:
        return np.empty((0, d))
    det = _int_det(H)
    ks = np.indices([abs(H[i][i]) for i in range(d)]).reshape(d, -1).T[1:]
    num = (ks @ np.array(_adjugate(H), dtype=np.int64).T) * (1 if det > 0 else -1) % abs(det)
    return 2 * math.pi * num / abs(det)


def _scan(system, cocycle, resolution, eps):
    """Scan report, grid and leading eigenvalues from one evaluation of the grid."""
    if resolution < 16:
        raise ValidationError("resolution must be >= 16 per dimension")
    thetas, lam, ratio, fallback = _grid_leading(system, cocycle, resolution)
    off = np.linalg.norm(np.where(thetas > math.pi, thetas - 2 * math.pi, thetas), axis=1) >= eps
    if thetas.shape[1] == 1:
        sphere = np.array([[eps], [2 * math.pi - eps]])
    else:
        t = np.linspace(0, 2 * math.pi, 4 * resolution, endpoint=False)
        sphere = np.stack([eps * np.cos(t), eps * np.sin(t)], axis=1) % (2 * math.pi)
    forced = _forced_characters(cocycle)
    pts = np.concatenate([thetas[off], sphere, forced])
    # B(theta) is a unimodular multiple of P^T at a forced character: modulus exactly 1
    mods = np.concatenate([_modulus(lam[off]), _modulus(leading_stack(system, cocycle, sphere)[0]),
                           np.ones(len(forced))])
    imax = int(np.argmax(mods))
    alg = None
    try:
        alg = check_aperiodicity_algebraic(system, cocycle).full
    except ValidationError:
        pass
    rep = ScanReport(resolution, eps, float(mods[imax]), tuple(pts[imax].tolist()),
                     bool(mods[imax] < 1 - 1e-9), alg, fallback)
    return rep, thetas, lam, ratio


def _grid_rows(thetas, lam, ratio):
    return list(zip(*thetas.T.tolist(), lam.real.tolist(), lam.imag.tolist(), ratio.tolist()))


def aperiodicity_scan(system, cocycle, resolution=64, eps=0.1) -> ScanReport:
    """Max twisted leading-eigenvalue modulus outside the eps-ball around 0.

    The torus grid is augmented with exact points on the eps-sphere (d <= 2),
    so the reported maximum includes the boundary of the excluded ball, and
    with the nonzero characters that annihilate the difference lattice
    (``_forced_characters``), so a lattice-periodic walk never passes.
    Passes iff the maximum stays below 1 - 1e-9.
    """
    return _scan(system, cocycle, resolution, eps)[0]


def eigenvalue_grid(system, cocycle, resolution=64):
    """Rows (theta..., Re lambda, Im lambda, runner-up ratio) over the torus grid."""
    return _grid_rows(*_grid_leading(system, cocycle, resolution)[:3])


def spectral_scan(system, cocycle, resolution=64, eps=0.1):
    """``aperiodicity_scan`` and ``eigenvalue_grid`` from one evaluation of the grid."""
    rep, thetas, lam, ratio = _scan(system, cocycle, resolution, eps)
    return rep, _grid_rows(thetas, lam, ratio)


def _charfn_matrix(system, cocycle, thetas, n):
    """E[character(n-step product)] at the rows of ``thetas``, by stacked powers."""
    out = np.empty(len(thetas), dtype=complex)
    for blk in _blocks(len(thetas), system.m):
        stack = _twisted_stack(system, cocycle, thetas[blk])
        v = np.broadcast_to(system.pi_float.astype(complex), stack.shape[:2])
        for _ in range(n):
            v = np.einsum("kij,kj->ki", stack, v)
        out[blk] = v.sum(axis=1)
    return out


def _charfn_table(table, cocycle, theta):
    theta = np.atleast_1d(np.asarray(theta, dtype=float))
    out = 0j
    for g, w in table.group_masses().items():
        out += float(w) * cmath.exp(1j * float(np.dot(theta, g)))
    return out


def characteristic_function(system, cocycle, theta, n, check=True, table=None) -> complex:
    """E[character(n-step product)] via twisted matrix powers.

    With ``check`` the value is recomputed as a direct sum over the n-step
    law; disagreement beyond ``CHARFN_TOL`` raises, as the two paths are
    independent.
    """
    val = complex(_charfn_matrix(system, cocycle, _one_row(theta), n)[0])
    if check:
        if table is None:
            table = distribution(system, cocycle, n, mode="float")
        ref = _charfn_table(table, cocycle, theta)
        if abs(val - ref) > CHARFN_TOL:
            raise ConsistencyError(
                f"characteristic function paths disagree at theta={theta}: "
                f"{val} vs {ref}"
            )
    return val


@dataclass
class FourierInversion:
    g: tuple
    n: int
    grid_size: int
    value: float
    aliasing_risk: bool
    reference: float | None = None
    deviation: float | None = None

    def rows(self):
        return [(self.n, "fourier_inverted_mass", self.value,
                 self.reference if self.reference is not None else "",
                 self.deviation if self.deviation is not None else "")]


def fourier_invert(system, cocycle, g, n, grid_size, compare=False) -> FourierInversion:
    """Point mass by trapezoid quadrature of the inversion integral.

    The integrand is a trigonometric polynomial of degree <= n*R, so the
    uniform M-point rule is exact up to floating error once M > 2nR + 1;
    smaller grids are flagged as aliasing risks.
    """
    if grid_size < 1:
        raise ValidationError("Fourier inversion needs grid_size >= 1")
    d = _lattice_dim(cocycle)
    g = tuple(g)
    R = max(max(abs(c) for c in v) if v else 0 for v in cocycle.values)
    aliasing = grid_size <= 2 * n * R + 1
    thetas = _torus_grid(grid_size, d)
    phase = np.exp(-1j * (thetas @ np.array(g, dtype=float)))
    value = (phase @ _charfn_matrix(system, cocycle, thetas, n)).real / grid_size ** d
    ref = dev = None
    if compare:                 # the walk's mass at depth n only (``_point_masses``)
        ref = _point_masses(marginal_recursion(system, cocycle, "float"),
                            [_element(cocycle.spec, g)], [n])[n][0]
        dev = abs(value - ref)
    return FourierInversion(g, n, grid_size, float(value), aliasing, ref, dev)


# ------------------------------------------------------------- u_n integrals

# open panels one quadrature level may hold: a level holds all of them at
# once, so an integrand that never settles raises here instead of doubling
# its memory up to max_depth
_MAX_OPEN_PANELS = 1 << 16


@functools.cache
def _gauss_legendre():
    """15-point Gauss-Legendre nodes and weights on [-1, 1], read-only.

    Computed on first use, not at import: numpy.polynomial costs a process
    about 1.7 MB, which callers that never integrate should not pay.
    """
    rule = np.polynomial.legendre.leggauss(15)
    for a in rule:
        a.flags.writeable = False
    return rule


def _batched_gl(f, a, b, rel_tol, max_depth=48):
    """Adaptive 15-point Gauss-Legendre bisection of many integrals at once.

    Integral j runs over [a[j], b[j]]; ``f(x, owner)`` maps node arrays to
    integrand values, ``owner`` naming each node's integral.  The top panels
    are evaluated once, then every level evaluates the halves of all open
    panels in one ``f`` call.  A panel is accepted when its halves change it
    by at most ``rel_tol`` times its integral's top-panel modulus, or at
    ``max_depth``; else both halves stay open.  Accepted values are summed
    back up the bisection tree, left before right, as a recursive bisection
    adds them.
    """
    nodes, weights = _gauss_legendre()

    def panels(lo, hi, owner):
        mid = 0.5 * (lo + hi)
        half = 0.5 * (hi - lo)
        x = mid[:, None] + half[:, None] * nodes
        vals = f(x.ravel(), np.repeat(owner, len(nodes))).reshape(x.shape)
        # one dot product per panel, as the recursive rule takes it
        return half * np.array([weights @ v for v in vals])

    lo, hi = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    owner = np.arange(len(lo))
    whole = panels(lo, hi, owner)
    scale = np.abs(whole) + 1e-300
    levels = []                 # (left + right, accepted) of each level's open panels
    for depth in itertools.count():
        mid = 0.5 * (lo + hi)
        halves = panels(np.concatenate([lo, mid]), np.concatenate([mid, hi]),
                        np.concatenate([owner, owner]))
        left, right = np.split(halves, 2)
        both = left + right
        done = np.abs(both - whole) <= rel_tol * scale[owner]
        if depth >= max_depth:
            done[:] = True
        levels.append((both, done))
        if done.all():
            break
        keep = ~done
        if 2 * keep.sum() > _MAX_OPEN_PANELS:
            raise ConsistencyError(
                f"quadrature does not settle: {2 * keep.sum()} open panels at depth {depth + 1}")
        lo, hi = np.concatenate([lo[keep], mid[keep]]), np.concatenate([mid[keep], hi[keep]])
        owner = np.concatenate([owner[keep], owner[keep]])
        whole = np.concatenate([left[keep], right[keep]])
    value = levels[-1][0]
    for both, done in reversed(levels[:-1]):
        value, sub = both.copy(), value
        value[~done] = np.add(*np.split(sub, 2))
    return value


def u_n_integral(system, cocycle, eta, n) -> float:
    """Integral of the n-th power of the leading eigenvalue over the eta-ball.

    Lattice targets (d = 1) use plain d(theta); embedded targets integrate
    along the real dual line with dt/(2*pi).  Non-real eigenvalues beyond
    1e-10 raise, since reality is what the symmetry hypothesis buys.
    """
    if eta <= 0:
        raise ValidationError("eta must be positive")
    spec = cocycle.spec

    def lead(thetas):
        thetas = thetas % (2 * math.pi)
        lam, ratio = leading_stack(system, cocycle, thetas)
        _warn_near_degenerate(ratio)
        bad = np.abs(lam.imag) > 1e-10 * np.maximum(1.0, _modulus(lam))
        if bad.any():
            i = int(np.argmax(bad))
            raise ConsistencyError(
                f"leading eigenvalue {complex(lam[i])} is not real at "
                f"theta={tuple(thetas[i].tolist())}: the symmetry hypothesis fails"
            )
        return lam.real ** n

    if isinstance(spec, EmbeddedRealLattice):
        if spec.ambient_dim != 1:
            raise ValidationError("embedded u_n integrals support ambient dimension 1")
        beta = np.array([row[0] for row in spec.basis])
        return float(_batched_gl(lambda t, _: lead(np.outer(t, beta)), [-eta], [eta],
                                 U_N_REL_TOL)[0] / (2 * math.pi))
    d = _lattice_dim(cocycle)
    if d == 1:
        if eta > math.pi + 1e-12:
            raise ValidationError("eta must be <= pi on the torus")
        return float(_batched_gl(lambda t, _: lead(t[:, None]), [-eta], [eta], U_N_REL_TOL)[0])
    if d == 2:
        tol = 1e-10     # both nested rules of the 2-d integral stop coarser

        def radial(r, _):
            # one batched angular integral for every open radial node
            def angular(t, owner):
                return lead(r[owner][:, None] * np.stack([np.cos(t), np.sin(t)], axis=1))

            return r * _batched_gl(angular, np.zeros_like(r), np.full_like(r, 2 * math.pi), tol)

        return float(_batched_gl(radial, [0.0], [eta], tol)[0])
    raise ValidationError("u_n integrals are implemented for d <= 2")


@dataclass
class LocalLimitReport:
    ns: list
    ratios: list
    deviations: list
    kind: str
    eta: float
    u_values: list

    def rows(self):
        out = [(n, f"local_limit_{self.kind}", r, 1.0, d)
               for n, r, d in zip(self.ns, self.ratios, self.deviations)]
        out += [(n, "u_n", u, self.eta, "") for n, u in zip(self.ns, self.u_values)]
        return out


def local_limit_check(system, cocycle, n_grid, g=None, E=None, eta=0.5) -> LocalLimitReport:
    """Normalized point or window masses against the eigenvalue integral.

    Discrete d=1 targets: mu^n(g) * 2*pi / u_n(pi) -> 1.
    Embedded windows:     mu^n(E + g) / (u_n(eta) * vol(E)) -> 1.
    """
    ns = sorted(int(n) for n in n_grid)
    spec = cocycle.spec
    ratios = []
    u_values = []
    if E is None:
        if g is None:
            raise ValidationError("need a point g or a window E")
        if not isinstance(spec, IntegerLattice) or spec.key_size != 1:
            raise ValidationError("point local limits are implemented for Z targets")
        eta = math.pi
        masses = _point_masses(marginal_recursion(system, cocycle, "float"),
                               [_element(spec, g)], ns)
        for n in ns:
            un = u_n_integral(system, cocycle, eta, n)
            u_values.append(un)
            ratios.append(masses[n][0] * 2 * math.pi / un)
        kind = "point"
    else:
        box = _as_box(E, spec)
        vol = box_volume(box)
        for n in ns:
            wm = window_mass(system, cocycle, box, n, g_shift=g, mode="float")
            un = u_n_integral(system, cocycle, eta, n)
            u_values.append(un)
            ratios.append(wm.value / (un * vol))
        kind = "window"
    devs = [abs(r - 1.0) for r in ratios]
    return LocalLimitReport(ns, ratios, devs, kind, eta, u_values)


@dataclass
class RealityReport:
    max_imag: float
    argmax_theta: tuple
    passed: bool
    symmetry_ok: bool | None


def symmetry_reality_check(system, cocycle, involution=None, grid_size=128) -> RealityReport:
    """Largest imaginary part of the leading eigenvalue over a torus grid.

    The grid is evaluated as ``_grid_leading`` does, half of it mirrored:
    |Im lambda(-theta)| = |Im lambda(theta)|, so the worst point is theta or
    its mirror.
    """
    sym_ok = None
    if involution is not None:
        sym_ok = bool(check_symmetry(system, cocycle, involution))
    thetas, lam, _, _ = _grid_leading(system, cocycle, grid_size)
    imag = np.abs(lam.imag)
    i = int(np.argmax(imag))
    worst, argmax = 0.0, (0.0,) * thetas.shape[1]
    if imag[i] > 0:
        worst, argmax = float(imag[i]), tuple(thetas[i].tolist())
    return RealityReport(worst, argmax, worst <= REALITY_TOL, sym_ok)
