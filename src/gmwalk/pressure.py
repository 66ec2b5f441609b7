"""Periodic-orbit sums, base-cylinder walk measures, convolution spectral
radii, and the convex minimization that identifies them on the abelianization.

The reference point of a base cylinder a is its periodic point, so the weight
of an n-word v starting at a collapses to the cycle weight

    prod_{j<n-1} p(v_j -> v_{j+1}) * p(v_{n-1} -> a),

which makes the normalization P_n(1) equal to the diagonal return weight
Z_a^n and the walk measure m_n equal to the normalized per-element table
Z_{a,g}^n / Z_a^n, all exactly computable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .errors import ValidationError
from .groups import IntegerLattice
from .walkdist import (DEFAULT_MAX_CELLS, SUPERADDITIVITY_REL_SLACK, _identity_returns,
                       _SparseEngine, _stepped, _trajectory, measure_recursion,
                       one_step_recursion, return_sequence, walk_recursion)

# steps scanned for identity returns when a generating period is reported
RETURN_HORIZON = 16
# gradient-norm target and iteration cap of the damped Newton minimization
NEWTON_TOL = 1e-13
NEWTON_MAX_ITER = 200
# slack of the pair scan of an almost-superadditive log sequence
FEKETE_SLACK = 1e-9


@dataclass
class WalkMeasure:
    """Finitely supported probability on a group, with provenance."""

    spec: object
    masses: dict
    n: int | None = None
    base: int | None = None

    def total(self):
        return sum(self.masses.values())

    def support(self):
        return set(self.masses)

    def mass(self, g):
        return self.masses.get(tuple(g), 0)

    def abelianized(self) -> "WalkMeasure":
        out = {}
        for g, w in self.masses.items():
            key = self.spec.abelianize(g)
            out[key] = out.get(key, 0) + w
        return WalkMeasure(IntegerLattice(self.spec.ab_rank), out, self.n, self.base)

    def as_float(self) -> "WalkMeasure":
        return WalkMeasure(self.spec, {g: float(w) for g, w in self.masses.items()},
                           self.n, self.base)


def one_step_law(system, cocycle, mode="rational") -> WalkMeasure:
    """Law of a single increment under the stationary measure."""
    rec = one_step_recursion(system, cocycle, mode)
    return WalkMeasure(cocycle.spec, {g: w for _, g, w in rec.shifts}, n=1)


# ------------------------------------------------------------ periodic sums

def periodic_sum(system, a, n, mode="float"):
    """Diagonal return weight Z_a^n of the weight matrix (cycle weights)."""
    if n < 1:
        raise ValidationError("periodic sums need n >= 1")
    if mode == "rational":
        return _periodic_sums(system, a, n)[-1]
    return float(np.linalg.matrix_power(system.trans_float, n)[a, a])


def _periodic_sums(system, a, n_max):
    """Exact Z_a^1, ..., Z_a^{n_max}: entry a of the row e_a P^n, in one pass."""
    P = system.trans
    m = system.m
    row = [Fraction(1) if j == a else Fraction(0) for j in range(m)]
    out = []
    for _ in range(n_max):
        row = [sum(row[k] * P[k][j] for k in range(m)) for j in range(m)]
        out.append(row[a])
    return out


def grouped_periodic_sum(system, cocycle, a, n, mode="rational",
                         max_cells=DEFAULT_MAX_CELLS):
    """Per-element table Z_{a, g}^n of weighted period-n returns through a."""
    if n < 1:
        raise ValidationError("periodic sums need n >= 1")
    # words of length n that start with the symbol a: n - 1 steps after the entry (a, v(a))
    eng = _stepped(walk_recursion(system, cocycle, mode), n - 1, max_cells=max_cells,
                   seed_entry=(a, cocycle.value(a)))
    trans = system.trans if mode == "rational" else system.trans_float
    table = eng.to_table()
    out = {}
    for (s, g), w in table.data.items():
        out[g] = out.get(g, 0) + w * trans[s][a]
    return out


def grouped_return_sequence(system, cocycle, a, n_max, mode="float",
                            max_cells=DEFAULT_MAX_CELLS):
    """Z_{a,e}^n for n = 1..n_max in one forward pass."""
    if n_max < 1:
        return []
    trans = system.trans if mode == "rational" else system.trans_float
    # Z_{a,e}^n reads the walk n - 1 steps after the entry (a, v(a)), weighted by P(s, a)
    return _identity_returns(walk_recursion(system, cocycle, mode), n_max - 1,
                             [trans[s][a] for s in range(system.m)],
                             seed_entry=(a, cocycle.value(a)), max_cells=max_cells)


def walk_measure(system, cocycle, a, n, mode="rational",
                 max_cells=DEFAULT_MAX_CELLS) -> WalkMeasure:
    """Base-cylinder walk measure m_n = Z_{a, .}^n / Z_a^n."""
    table = grouped_periodic_sum(system, cocycle, a, n, mode, max_cells)
    total = sum(table.values())
    if total == 0:
        raise ValidationError(f"no period-{n} return words through symbol {a}")
    return WalkMeasure(cocycle.spec, {g: w / total for g, w in table.items()}, n, a)


# ------------------------------------------------------- generating period

@dataclass
class PeriodReport:
    s: int | None
    missing_by_s: dict
    return_period: int | None
    note: str = ""


def generating_period(measures, gen_set, s_max) -> PeriodReport:
    """Smallest s with supp(measure_s) covering a chosen semigroup generating set.

    ``measures`` maps s >= 1 to a WalkMeasure (callable or sequence).  The
    report also carries the return period (gcd of identity-return times) of
    the found measure, since walks may hit the identity only along a stride
    (identity returns are scanned up to ``RETURN_HORIZON`` steps).
    """
    gen_set = [tuple(g) for g in gen_set]
    get = measures if callable(measures) else (lambda i: measures[i - 1])
    missing_by_s = {}
    found = None
    for s in range(1, s_max + 1):
        m = get(s)
        supp = m.support()
        missing = [g for g in gen_set if g not in supp]
        missing_by_s[s] = missing
        if not missing:
            found = s
            break
    if found is None:
        return PeriodReport(None, missing_by_s, None,
                            note=f"no s <= {s_max} covers the generating set")
    m = get(found)
    e = m.spec.identity()
    rows = _trajectory(_SparseEngine(measure_recursion(m.spec, m.masses, "float")), [e],
                       RETURN_HORIZON)
    returns = [k for k, (r,) in enumerate(rows) if k >= 1 and r > 0]
    period = math.gcd(*returns) if returns else None
    return PeriodReport(found, missing_by_s, period)


# ------------------------------------------------- convolution spectral radius


@dataclass
class ConvolutionReport:
    ks: list                     # k with positive return mass
    returns: list                # the masses themselves
    kth_roots: list
    stride_ratios: list          # ((r_{k+s}/r_k))^{1/s} indexed like ks[:-1]
    stride: int | None           # None: no return up to the last step stepped
    fekete_lower: float
    estimate: float              # headline: last stride ratio
    note: str = ""

    def rows(self):
        out = []
        for i, k in enumerate(self.ks):
            sr = self.stride_ratios[i] if i < len(self.stride_ratios) else ""
            out.append((k, self.returns[i], self.kth_roots[i], sr))
        return out


def spectral_radius_convolution(measure, k_max, stride=None, mode="float",
                                max_cells=DEFAULT_MAX_CELLS) -> ConvolutionReport:
    """Convolution-power identity returns with root, ratio, and bracket views.

    Returns r_k = measure^{*k}(e) are superadditive (r_{j+k} >= r_j r_k), so
    max_p log(r_p)/p is a rigorous lower bound for log of the spectral radius;
    the stride ratio (r_{k+s}/r_k)^{1/s} is the headline estimate since its
    bias decays like 1/k instead of log(k)/k.  Without a return at k <= k_max
    the estimate is nan, the lower bound 0 and the note says so; without a
    return at any step stepped and no stride given, the stride is None.
    """
    if k_max < 1:
        raise ValidationError("convolution spectral radii need k_max >= 1")
    if stride is not None and stride < 1:
        raise ValidationError("the stride must be >= 1")
    top = k_max + (stride or 2)
    returns_all = [float(r) for r in _identity_returns(
        measure_recursion(measure.spec, measure.masses, mode), top, max_cells=max_cells)[1:]]
    positive = [k for k, r in enumerate(returns_all, 1) if r > 0]
    s = stride if stride is not None else math.gcd(*positive) if positive else None
    ks, _, bracket, _ = _fekete_rates(returns_all[:k_max], 0.0)
    rs = [returns_all[k - 1] for k in ks]
    roots = [r ** (1.0 / k) for k, r in zip(ks, rs)]
    ratios = []
    for k, r in zip(ks, rs):
        nxt = returns_all[k + s - 1] if k + s <= top else None
        if nxt:
            ratios.append((nxt / r) ** (1.0 / s))
    estimate = ratios[-1] if ratios else roots[-1] if roots else math.nan
    note = bracket.note
    if s is None:
        note += f"; no return up to k = {top}: the stride is undetermined"
    return ConvolutionReport(ks, rs, roots, ratios, s, math.exp(bracket.lower), estimate, note)


# ------------------------------------------------- moment generating function

def _atoms_arrays(mbar: WalkMeasure):
    atoms = sorted(mbar.masses)
    V = np.array(atoms, dtype=float).reshape(len(atoms), -1)
    w = np.array([float(mbar.masses[a]) for a in atoms])
    return V, w


def phi_value(mbar: WalkMeasure, x):
    """Moment generating function sum_v m(v) e^{<v, x>} with gradient and Hessian."""
    V, w = _atoms_arrays(mbar)
    x = np.asarray(x, dtype=float).reshape(-1)
    t = w * np.exp(V @ x)
    val = float(t.sum())
    grad = V.T @ t
    hess = (V.T * t) @ V
    return val, grad, hess


@dataclass
class MinimizerResult:
    x: np.ndarray
    phi: float
    grad_norm: float
    iterations: int
    attained: bool
    degenerate_directions: list = field(default_factory=list)
    note: str = ""


def minimize_phi(mbar: WalkMeasure) -> MinimizerResult:
    """Damped Newton minimization of the moment generating function.

    The minimum is attained iff 0 lies in the relative interior of the convex
    hull of the support; that is certified by a small LP before iterating.
    Flat directions (support inside a hyperplane through 0) are projected out
    and reported; a support strictly inside a half-space yields a diagnostic
    instead of a result.
    """
    V, w = _atoms_arrays(mbar)
    k = V.shape[1]
    if k == 0 or V.shape[0] == 0:
        return MinimizerResult(np.zeros(k), float(w.sum()), 0.0, 0, True)
    # flat directions: phi only varies along span of the support vectors
    u_svd, sing, vt = np.linalg.svd(V, full_matrices=True)
    rank = int(np.sum(sing > 1e-12 * (sing[0] if sing.size else 1.0)))
    basis = vt[:rank].T            # k x r, orthonormal columns
    degenerate = [tuple(row) for row in vt[rank:]]
    Vr = V @ basis
    if rank > 0:
        # imported here: scipy costs most of the package's start-up time
        from scipy.optimize import linprog

        nat = Vr.shape[0]
        # LP certificate: max delta s.t. sum lam_i v_i = 0, sum lam = 1, lam_i >= delta
        c = np.zeros(nat + 1)
        c[-1] = -1.0
        a_eq = np.zeros((rank + 1, nat + 1))
        a_eq[:rank, :nat] = Vr.T
        a_eq[rank, :nat] = 1.0
        b_eq = np.zeros(rank + 1)
        b_eq[rank] = 1.0
        a_ub = np.zeros((nat, nat + 1))
        a_ub[:, :nat] = -np.eye(nat)
        a_ub[:, -1] = 1.0
        res = linprog(c, A_ub=a_ub, b_ub=np.zeros(nat), A_eq=a_eq, b_eq=b_eq,
                      bounds=[(0, 1)] * nat + [(0, 1)], method="highs")
        if not res.success or -res.fun <= 1e-12:
            return MinimizerResult(
                np.zeros(k), math.nan, math.nan, 0, False, degenerate,
                note="support lies in a closed half-space: infimum not attained",
            )
    xr = np.zeros(rank)
    it = 0
    for it in range(1, NEWTON_MAX_ITER + 1):
        t = w * np.exp(Vr @ xr)
        val = t.sum()
        grad = Vr.T @ t
        gn = float(np.linalg.norm(grad))
        if gn <= NEWTON_TOL:
            break
        hess = (Vr.T * t) @ Vr
        try:
            d = np.linalg.solve(hess, -grad)
        except np.linalg.LinAlgError:
            d = np.linalg.solve(hess + 1e-12 * np.eye(rank), -grad)
        step = 1.0
        while step > 1e-14:
            cand = float(np.sum(w * np.exp(Vr @ (xr + step * d))))
            if cand <= val + 0.3 * step * float(grad @ d):
                break
            step *= 0.5
        xr = xr + step * d
    x = basis @ xr
    val, grad, _ = phi_value(mbar, x)
    return MinimizerResult(x, val, float(np.linalg.norm(grad)), it, True, degenerate)


# ------------------------------------------------------------- Fekete bracket

@dataclass
class FeketeBracket:
    lower: float
    estimate: float
    holds: bool
    violations: list
    upper: float = math.inf
    note: str = ""

    def contains(self, x):
        return self.lower - 1e-12 <= x <= self.upper + 1e-12

    def overlaps(self, other):
        return max(self.lower, other.lower) <= min(self.upper, other.upper) + 1e-12


def fekete_limit(a_seq, log_c, ns=None, upper=math.inf) -> FeketeBracket:
    """Limit bracket for an almost-superadditive sequence.

    Requires a_{n+m} >= a_n + a_m + log_c on the index range (violations are
    collected and reported); each index then gives the rigorous lower bound
    (a_p + log_c)/p for the limit of a_n/n, and the largest index gives the
    running estimate.  An a-priori upper bound (e.g. 0 for log-masses) closes
    the bracket from above.  The pair scan compares
    (a_n + a_m) + log_c - FEKETE_SLACK in that order, in float64, and lists
    violations in (n, m) row-major order.
    """
    if ns is None:
        ns = list(range(1, len(a_seq) + 1))
    if min(ns) < 1:
        raise ValidationError("Fekete indices must be >= 1")
    vals = dict(zip(ns, a_seq))
    top = max(ns)
    n_arr = np.array(ns)
    v = np.array([vals[n] for n in ns], dtype=float)
    at = np.full(2 * top + 1, math.nan)         # a_k at every index k, NaN off ``ns``
    at[list(vals)] = list(vals.values())
    violations = []
    block = max(1, 65536 // max(1, len(ns)))    # pair rows per pass: bounded temporaries
    for i0 in range(0, len(ns), block):
        n_rows = n_arr[i0:i0 + block, None]
        # only the columns m with n + m <= top for some row n of the pass, in order
        cols = np.flatnonzero(n_arr <= top - n_rows.min())
        lhs = at[n_rows + n_arr[cols]]
        rhs = (v[i0:i0 + block, None] + v[cols]) + log_c
        # NaN compares false: a pair whose sum is off ``ns`` is never a violation
        rows, js = np.nonzero(lhs < rhs - FEKETE_SLACK)
        violations += [(ns[i0 + i], ns[cols[j]], float(lhs[i, j]), float(rhs[i, j]))
                       for i, j in zip(rows.tolist(), js.tolist())]
    lower = max((vals[p] + log_c) / p for p in ns)
    return FeketeBracket(lower, vals[top] / top, not violations, violations, upper)


def _fekete_rates(masses, log_c):
    """Rates and Fekete bracket of a mass sequence a_1, a_2, ...

    Keeps the n whose term is > 0 in float and returns (kept n, their rates
    log(a_n)/n, the ``fekete_limit`` bracket with the log superadditivity
    constant ``log_c`` and upper bound 0, the rate at the largest kept n).
    Masses never exceed 1, hence the upper bound.  With no term kept the
    bracket is empty: lower -inf, estimate nan, not holding, with a note.
    """
    kept = [(n, v) for n, a in enumerate(masses, 1) if (v := float(a)) > 0]
    if not kept:
        note = f"no mass > 0 in float up to n = {len(masses)}"
        return [], [], FeketeBracket(-math.inf, math.nan, False, [], note=note), math.nan
    ns = [n for n, _ in kept]
    logs = [math.log(v) for _, v in kept]
    rates = [l / n for n, l in zip(ns, logs)]
    return ns, rates, fekete_limit(logs, log_c, ns, upper=0.0), rates[-1]


# --------------------------------------------------------- pressure estimates

@dataclass
class PressureReport:
    kind: str
    ns: dict                      # estimator -> list of n with positive mass
    values: dict                  # estimator -> list of (1/n) log(value)
    brackets: dict                # estimator -> FeketeBracket
    estimates: dict               # estimator -> value at largest valid n
    transitive: bool
    note: str = ""

    def rows(self):
        out = []
        for name in self.ns:
            br = self.brackets[name]
            for n, v in zip(self.ns[name], self.values[name]):
                out.append((n, name, v, br.lower))
        return out


def pressure_estimate(kind, system, cocycle, a, n_max, mode="float",
                      max_cells=DEFAULT_MAX_CELLS) -> PressureReport:
    """Growth-rate report for the chosen periodic/return sequence family.

    kind 'base' uses the plain diagonal weights (identically pressure 0 for
    stochastic weights); 'extension' pairs the identity-filtered periodic
    sums with the identity return masses, two estimators that must bracket
    the same limit; 'abelianized' filters through the abelianized cocycle.
    """
    if kind not in ("base", "extension", "abelianized"):
        raise ValidationError(f"unknown pressure kind {kind!r}")
    # estimator -> (sequence for n = 1..n_max, log superadditivity constant)
    seqs = {}
    if kind == "base":
        zs = (_periodic_sums(system, a, n_max) if mode == "rational"
              else [periodic_sum(system, a, n, mode) for n in range(1, n_max + 1)])
        seqs["periodic"] = (zs, 0.0)
    else:
        coc = cocycle if kind == "extension" else cocycle.abelianized()
        # cycles through the same base concatenate with no loss
        seqs["grouped_periodic"] = (
            grouped_return_sequence(system, coc, a, n_max, mode, max_cells), 0.0)
        if kind == "extension":
            mu = return_sequence(system, coc, n_max, mode, max_cells=max_cells)[1:]
            seqs["return_mass"] = (mu, system.log_superadditivity_constant)
    ns, values, brackets, estimates = {}, {}, {}, {}
    for name, (zs, log_c) in seqs.items():
        ns[name], values[name], brackets[name], estimates[name] = _fekete_rates(zs, log_c)
    transitive = bool(next(iter(ns.values())))
    note = "" if transitive else "no identity returns found: extension may not be transitive"
    return PressureReport(kind, ns, values, brackets, estimates, transitive, note)


# ------------------------------------------------------------ Kesten identity

@dataclass
class KestenReport:
    convolution: ConvolutionReport
    minimizer: MinimizerResult
    difference: float
    bracket_width: float
    consistent: bool


def kesten_identity_check(measure: WalkMeasure, k_max=30, stride=None,
                          mode="float", max_cells=DEFAULT_MAX_CELLS) -> KestenReport:
    """Convolution spectral radius against the abelianized minimum.

    For amenable finitely generated targets the two agree in the limit; the
    report compares the stride-ratio estimate at k_max with the minimized
    abelianized moment generating function, using the convolution bracket
    width as the self-declared accuracy.
    """
    conv = spectral_radius_convolution(measure, k_max, stride, mode, max_cells)
    mini = minimize_phi(measure.abelianized().as_float())
    diff = abs(conv.estimate - mini.phi)
    width = abs(conv.estimate - conv.fekete_lower)
    return KestenReport(conv, mini, diff, width, diff <= width + 1e-9)


# ------------------------------------------------- normalized superadditivity

@dataclass
class PhiTildeReport:
    indices: list
    n_list: list
    phi_values: list              # phi_i(x_i)
    pn_values: list               # P_{n_i}(1)
    rate_sequence: list           # (1/n_i) log phi_i(x_i)
    constant: float
    violations: list
    holds: bool


def phi_tilde_check(system, cocycle, a, i_range, s=1, mode="float",
                    max_cells=DEFAULT_MAX_CELLS) -> PhiTildeReport:
    """Superadditivity of the normalized minimized walk-measure transforms.

    For indices i in range, phi_i is the abelianized moment generating
    function of the walk measure at n_i = i*s and x_i its minimizer; the
    products P_{n_i}(1) * phi_i(x_i) must be superadditive up to the system's
    superadditivity constant C^-2 (exactly, with constant 1, for Bernoulli
    weights).
    """
    indices = sorted(int(i) for i in i_range)
    phis, pns = {}, {}
    for i in indices:
        n = i * s
        m = walk_measure(system, cocycle, a, n, mode, max_cells).as_float()
        res = minimize_phi(m.abelianized())
        if not res.attained:
            raise ValidationError(f"minimizer not attained at i={i}")
        phis[i] = res.phi
        pns[i] = float(periodic_sum(system, a, n, mode="float"))
    const = float(system.superadditivity_constant)
    tilde = {i: pns[i] * phis[i] for i in indices}
    violations = []
    for i in indices:
        for j in indices:
            if i + j in tilde:
                lhs = tilde[i + j]
                rhs = const * tilde[i] * tilde[j]
                if lhs < rhs * (1 - SUPERADDITIVITY_REL_SLACK):
                    violations.append((i, j, lhs, rhs))
    rates = [math.log(phis[i]) / (i * s) for i in indices]
    return PhiTildeReport(indices, [i * s for i in indices],
                          [phis[i] for i in indices], [pns[i] for i in indices],
                          rates, const, violations, not violations)
