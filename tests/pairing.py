"""Shared references of the tests of identity returns paired at half depth."""

from fractions import Fraction

from gmwalk.gm_system import Cocycle, GibbsMarkovSystem
from gmwalk.groups import HeisenbergZ

# a 4-state Markov chain over the symbols of the Heisenberg presets (a, a^-1, b, b^-1)
HEIS_MARKOV = GibbsMarkovSystem.markov(
    [[Fraction(1, 10), Fraction(2, 10), Fraction(3, 10), Fraction(4, 10)],
     [Fraction(4, 10), Fraction(1, 10), Fraction(2, 10), Fraction(3, 10)],
     [Fraction(1, 4)] * 4,
     [Fraction(1, 2), Fraction(1, 6), Fraction(1, 6), Fraction(1, 6)]])

# Heisenberg atoms with a*b != 0: their inverses have z = ab - c != 0, so the
# dual's box is taller than the forward one (|z| <= 20 against 15 at 5 steps)
HEIS_SHEARED = Cocycle(HeisenbergZ(), ((1, 1, 0), (-1, 0, 0), (0, -1, 0), (1, -1, 0)))


def paired_agrees(got, want):
    """1e-13 relative, with exact zeros in the same places."""
    return len(got) == len(want) and all(
        (a == 0) == (b == 0) and abs(a - b) <= 1e-13 * b for a, b in zip(got, want))
