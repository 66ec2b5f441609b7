"""Brute-force ground truth by exhaustive word enumeration, always exact.

One enumerator, ``_words``, checks the inputs of every public function and
walks the words depth-first, so prefixes share group products.  Weights are
carried as integer numerators over fixed common denominators and become
Fractions only at export; one walk can record the laws of every depth 1..n.
"""

import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import ResourceLimitError, ValidationError
from .walkdist import MassTable

WORD_GUARD = 100_000_000


@dataclass
class OracleResult:
    quantity: str
    n: int
    value: object          # Fraction or dict -> Fraction
    word_count: int


def _words(system, cocycle, n, first=None, right=False, every=False):
    """Integer numerators of the words of length n, keyed by (last symbol, product).

    A word starts at any symbol s with pi(s) * dpi, or at symbol ``first``
    alone with 1; each further symbol multiplies the product on the left (on
    the right with ``right``) and the weight by p(last -> s) * dtr.  Returns
    the tables of depths 1..n (``every``) or of depth n alone, and the
    denominator of each: (dpi, or 1 from ``first``) * dtr^(depth - 1).
    """
    m = system.m
    if n < 1:
        raise ValidationError("word enumeration needs n >= 1")
    cocycle.check_total(m)
    if first is not None and first not in range(m):
        raise ValidationError(f"base symbol {first!r} is not in the alphabet 0..{m - 1}")
    k = n if first is None else n - 1
    if m ** k > WORD_GUARD:
        raise ResourceLimitError(f"{m}**{k} words exceed the enumeration guard")
    mul = cocycle.spec.multiply
    if right:
        mul = lambda v, g, left=mul: left(g, v)
    dpi = math.lcm(*(f.denominator for f in system.pi))
    dtr = math.lcm(*(f.denominator for row in system.trans for f in row))
    pi_num = [int(f * dpi) for f in system.pi]
    tr_num = [[int(f * dtr) for f in row] for row in system.trans]
    vals = cocycle.values
    steps = [list(zip(range(m), vals, row)) for row in tr_num]
    # a root "symbol" m whose step to s carries the word's first weight
    steps.append(list(zip(range(m), vals, pi_num)) if first is None else [(first, vals[first], 1)])
    tabs = [{} for _ in range(n + 1)]
    lo = 1 if every else n

    def visit(depth, last, g, w):
        depth += 1
        tab = tabs[depth] if depth >= lo else None
        for s, v, p in steps[last]:
            h = mul(v, g)
            x = w * p
            if tab is not None:
                key = (s, h)
                tab[key] = tab.get(key, 0) + x
            if depth < n:
                visit(depth, s, h, x)

    visit(0, m, cocycle.spec.identity(), 1)
    den = dpi if first is None else 1
    return tabs[lo:], [den * dtr ** (j - 1) for j in range(lo, n + 1)]


def oracle_distributions_upto(system, cocycle, n):
    """Joint (state, element) laws for every step 1..n, by full enumeration."""
    tabs, dens = _words(system, cocycle, n, every=True)
    return [MassTable(j, "rational", cocycle.spec, {k: Fraction(v, d) for k, v in tab.items()})
            for j, (tab, d) in enumerate(zip(tabs, dens), 1)]


def oracle_distribution(system, cocycle, n) -> MassTable:
    """Exact law of the n-step product (increments multiplied on the left)."""
    return oracle_distributions_upto(system, cocycle, n)[-1]


def oracle_distribution_reversed(system, cocycle, n) -> MassTable:
    """Same enumeration with right-multiplied increments (order witness)."""
    (tab,), (den,) = _words(system, cocycle, n, right=True)
    return MassTable(n, "rational", cocycle.spec, {k: Fraction(v, den) for k, v in tab.items()})


def _periodic_table(system, cocycle, a, n):
    """Z_{a,g}^n by g: the depth-n words from a, each closed by p(last -> a)."""
    (tab,), (den,) = _words(system, cocycle, n, first=a)
    closed = {}
    for (last, g), v in tab.items():
        closed[g] = closed.get(g, 0) + v * system.trans[last][a]
    return {g: w / den for g, w in closed.items()}


def oracle_periodic_sums(system, cocycle, a, n):
    """Exact Z_a^n and the per-element table Z_{a,g}^n over periodic words.

    Periodic words of length n starting at symbol a are weighted by the
    product of transition weights around the cycle (the exact cylinder weight
    of the periodic point for these locally constant potentials).
    """
    tab = _periodic_table(system, cocycle, a, n)
    z_a = sum(tab.values(), Fraction(0))
    return OracleResult("periodic_sums", n, {"Z_a": z_a, "table": tab}, system.m ** (n - 1))


def oracle_walk_measure(system, cocycle, a, n):
    """Exact base-cylinder walk measure and its normalization.

    The reference point is the periodic point of the base cylinder, so the
    weight of an n-word v starting at a is mu([v]) * p(last(v) -> a) / pi(a),
    its periodic weight; the normalization P_n(1) is their total, Z_a^n.
    """
    weights = _periodic_table(system, cocycle, a, n)
    pn_one = sum(weights.values(), Fraction(0))
    measure = {g: w / pn_one for g, w in weights.items()}
    return OracleResult("walk_measure", n, {"pn_one": pn_one, "measure": measure},
                        system.m ** (n - 1))
