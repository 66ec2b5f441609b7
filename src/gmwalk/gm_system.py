"""Finite-alphabet, finite-memory Gibbs-Markov systems.

A system is a fully supported stochastic chain over the alphabet: Bernoulli
(memory 0, all rows of the transition table equal) or one-step Markov
(memory 1).  Every transition weight is strictly positive, the surrogate of
full branches with big images, so every cylinder has positive mass and all
cylinder masses are exactly computable.

Weights are stored as exact rationals; float views are derived.  Numeric
inputs given as Python floats are read through their shortest decimal
representation (0.3 means 3/10), strings and Fractions are taken verbatim.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import ValidationError
from .groups import GroupSpec, IntegerLattice, hermite_index, left_product


def _to_fraction(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, float):
        return Fraction(str(x))
    if isinstance(x, str):
        return Fraction(x)
    raise ValidationError(f"cannot interpret weight {x!r}")


def _solve_stationary(trans):
    """Exact left fixed vector of a positive stochastic matrix, summing to 1."""
    m = len(trans)
    # equations: sum_s pi[s] (P[s][t] - delta_st) = 0 for t < m-1, sum pi = 1
    aug = []
    for t in range(m - 1):
        row = [trans[s][t] - (1 if s == t else 0) for s in range(m)]
        row.append(Fraction(0))
        aug.append(row)
    aug.append([Fraction(1)] * m + [Fraction(1)])
    # Gauss-Jordan over Fractions
    n = len(aug)
    col = 0
    piv_rows = []
    for r in range(n):
        piv = None
        while col < m:
            for rr in range(r, n):
                if aug[rr][col] != 0:
                    piv = rr
                    break
            if piv is not None:
                break
            col += 1
        if piv is None:
            break
        aug[r], aug[piv] = aug[piv], aug[r]
        inv = 1 / aug[r][col]
        aug[r] = [x * inv for x in aug[r]]
        for rr in range(n):
            if rr != r and aug[rr][col] != 0:
                f = aug[rr][col]
                aug[rr] = [a - f * b for a, b in zip(aug[rr], aug[r])]
        piv_rows.append((r, col))
        col += 1
    pi = [Fraction(0)] * m
    for r, c in piv_rows:
        pi[c] = aug[r][m]
    if sum(pi) != 1 or any(p <= 0 for p in pi):
        raise ValidationError("stationary vector is not a positive probability vector")
    return tuple(pi)


class GibbsMarkovSystem:
    """Validated chain with exact stationary vector and Gibbs constant."""

    def __init__(self, trans, order: int):
        if order not in (0, 1):
            raise ValidationError(
                "memory order must be 0 (Bernoulli) or 1; expand longer blocks "
                "into an order-1 chain over block symbols first"
            )
        rows = tuple(tuple(_to_fraction(x) for x in row) for row in trans)
        m = len(rows)
        errs = []
        if m < 2:
            errs.append("alphabet size must be >= 2")
        for i, row in enumerate(rows):
            if len(row) != m:
                errs.append(f"row {i} has length {len(row)}, expected {m}")
                continue
            if any(x <= 0 for x in row):
                errs.append(f"row {i} has a non-positive weight (full branches require > 0)")
            if sum(row) != 1:
                errs.append(f"row {i} sums to {sum(row)}, expected 1")
        if errs:
            raise ValidationError(errs)
        self.m = m
        self.order = order
        self.trans = rows
        self.is_bernoulli = all(rows[i] == rows[0] for i in range(m))
        if order == 0 and not self.is_bernoulli:
            raise ValidationError("order-0 systems must have identical rows")
        self.pi = rows[0] if self.is_bernoulli else _solve_stationary(rows)
        # Gibbs constant: one-sided distortion of cylinder masses.  For any
        # n-cylinder a and any point x in it, e^{phi_n(x)} / mu(a) equals
        # P[s,t]/pi(t) for the pair (s,t) straddling the cylinder's right end,
        # so the sharp sandwich constant is the extreme of that ratio.
        c = Fraction(1)
        for s in range(m):
            for t in range(m):
                r = rows[s][t] / self.pi[t]
                c = max(c, r, 1 / r)
        self.gibbs_constant = c
        # superadditivity constant D = C^-2: identity-return masses satisfy
        # a_{n+m} >= D a_n a_m, so (log a_p + log D)/p bounds their rate from
        # below (Fekete); C = D = 1 for every Bernoulli system
        self.superadditivity_constant = 1 / c ** 2
        self.log_superadditivity_constant = -2.0 * math.log(float(c))
        self.trans_float = np.array([[float(x) for x in row] for row in rows])
        self.pi_float = np.array([float(x) for x in self.pi])

    @classmethod
    def bernoulli(cls, weights):
        weights = [_to_fraction(x) for x in weights]
        return cls([list(weights)] * len(weights), order=0)

    @classmethod
    def markov(cls, rows):
        return cls(rows, order=1)

    def __repr__(self):
        kind = "Bernoulli" if self.is_bernoulli else "Markov"
        return f"GibbsMarkovSystem({kind}, m={self.m})"


@dataclass(frozen=True)
class Cocycle:
    """One group value per alphabet symbol (constant on 1-cylinders)."""

    spec: GroupSpec
    values: tuple

    def __post_init__(self):
        vals = tuple(tuple(int(c) for c in v) for v in self.values)
        object.__setattr__(self, "values", vals)
        for v in vals:
            self.spec.validate_element(v)

    def value(self, symbol: int):
        return self.values[symbol]

    def check_total(self, m: int):
        if len(self.values) != m:
            raise ValidationError(
                f"cocycle has {len(self.values)} values for a {m}-symbol alphabet"
            )

    def abelianized(self) -> "Cocycle":
        """Push the cocycle to the free abelianization Z^k."""
        k = self.spec.ab_rank
        return Cocycle(IntegerLattice(k), tuple(self.spec.abelianize(v) for v in self.values))

    def word_value(self, word):
        """Value on the cylinder [word]: later symbols multiply on the left."""
        return left_product((self.values[s] for s in word), self.spec)


@dataclass(frozen=True)
class SymmetryInvolution:
    """Alphabet permutation realizing increment inversion."""

    perm: tuple

    def __post_init__(self):
        p = tuple(int(x) for x in self.perm)
        object.__setattr__(self, "perm", p)
        if sorted(p) != list(range(len(p))):
            raise ValidationError("involution is not a permutation of the alphabet")


def cylinder_mass(system: GibbsMarkovSystem, word, mode="rational"):
    """mu([word]) = pi(word[0]) * product of transition weights along the word."""
    if len(word) < 1:
        raise ValidationError("cylinder words must have length >= 1")
    if any(not 0 <= s < system.m for s in word):
        raise ValidationError(f"word {word!r} has symbols outside the alphabet")
    if mode == "rational":
        mass = system.pi[word[0]]
        for s, t in zip(word, word[1:]):
            mass *= system.trans[s][t]
        return mass
    mass = system.pi_float[word[0]]
    for s, t in zip(word, word[1:]):
        mass *= system.trans_float[s, t]
    return mass


@dataclass
class SymmetryReport:
    holds: bool
    witnesses: list

    def __bool__(self):
        return self.holds


def check_symmetry(system, cocycle, involution) -> SymmetryReport:
    """Verify that the involution inverts increments and preserves the measure."""
    perm = involution.perm
    witnesses = []
    if len(perm) != system.m:
        raise ValidationError("involution alphabet size does not match the system")
    cocycle.check_total(system.m)
    for a in range(system.m):
        if perm[perm[a]] != a:
            witnesses.append(("not an involution", a))
    spec = cocycle.spec
    for a in range(system.m):
        if cocycle.value(perm[a]) != spec.inverse(cocycle.value(a)):
            witnesses.append(("increment not inverted", a))
    if system.is_bernoulli:
        for a in range(system.m):
            if system.pi[perm[a]] != system.pi[a]:
                witnesses.append(("weight not preserved", a))
    else:
        for a in range(system.m):
            for b in range(system.m):
                if system.trans[perm[a]][perm[b]] != system.trans[a][b]:
                    witnesses.append(("transition weight not preserved", (a, b)))
    return SymmetryReport(holds=not witnesses, witnesses=witnesses)


@dataclass
class AperiodicityReport:
    full: bool
    index: int | None   # order of the quotient by the difference subgroup
    free_rank: int
    note: str = ""

    def __bool__(self):
        return self.full


def check_aperiodicity_algebraic(system, cocycle) -> AperiodicityReport:
    """Subgroup generated by increment differences, via integer row reduction.

    Fullness of the difference subgroup is the necessary lattice-side condition
    for aperiodicity of the twisted transfer operators; degenerate sublattices
    are reported with their index.  Non-abelian targets are checked through
    their abelianization (noted in the report).
    """
    cocycle.check_total(system.m)
    spec = cocycle.spec
    pres = spec.presentation()
    note = ""
    if pres is None:
        if spec.is_finite():
            return _finite_closure_report(spec, cocycle)
        raise ValidationError(f"no abelian presentation available for {spec!r}")
    if spec.ab_rank < spec.key_size and not spec.is_finite():
        note = "checked on the abelianization"
    k, torsion = pres
    base = spec.presentation_coords(cocycle.value(0))
    diffs = []
    for s in range(1, system.m):
        c = spec.presentation_coords(cocycle.value(s))
        diffs.append(tuple(a - b for a, b in zip(c, base)))
    full, index = hermite_index(diffs, torsion)
    return AperiodicityReport(full=full, index=index, free_rank=k, note=note)


def _finite_closure_report(spec, cocycle):
    # subgroup closure of pairwise difference elements in a small finite group
    vals = cocycle.values
    gens = set()
    for v in vals:
        for w in vals:
            gens.add(spec.multiply(v, spec.inverse(w)))
    closure = {spec.identity()}
    frontier = list(closure)
    while frontier:
        nxt = []
        for g in frontier:
            for h in gens:
                gh = spec.multiply(g, h)
                if gh not in closure:
                    closure.add(gh)
                    nxt.append(gh)
        frontier = nxt
    order = spec.order
    index = order // len(closure)
    return AperiodicityReport(
        full=len(closure) == order,
        index=index,
        free_rank=0,
        note="finite-group closure",
    )
