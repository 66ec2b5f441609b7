import itertools
from fractions import Fraction

import pytest

from gmwalk import presets
from gmwalk.errors import ValidationError
from gmwalk.gm_system import (
    Cocycle,
    GibbsMarkovSystem,
    SymmetryInvolution,
    check_aperiodicity_algebraic,
    check_symmetry,
    cylinder_mass,
)
from gmwalk.groups import EmbeddedRealLattice, IntegerLattice


def test_stationary_uniform_bernoulli():
    sys_ = GibbsMarkovSystem.bernoulli([Fraction(1, 3)] * 3)
    assert sys_.pi == (Fraction(1, 3),) * 3


def test_stationary_two_state_markov():
    sys_ = GibbsMarkovSystem.markov(
        [[Fraction(1, 2), Fraction(1, 2)], [Fraction(1, 4), Fraction(3, 4)]]
    )
    assert sys_.pi == (Fraction(1, 3), Fraction(2, 3))


def test_stationary_doubly_stochastic_is_uniform():
    rows = [
        [Fraction(1, 2), Fraction(1, 3), Fraction(1, 6)],
        [Fraction(1, 6), Fraction(1, 2), Fraction(1, 3)],
        [Fraction(1, 3), Fraction(1, 6), Fraction(1, 2)],
    ]
    sys_ = GibbsMarkovSystem.markov(rows)
    assert sys_.pi == (Fraction(1, 3),) * 3


def test_validation_collects_problems():
    with pytest.raises(ValidationError):
        GibbsMarkovSystem.bernoulli([Fraction(1, 2), Fraction(1, 3)])  # sums to 5/6
    with pytest.raises(ValidationError):
        GibbsMarkovSystem.markov([[1, 0], [Fraction(1, 2), Fraction(1, 2)]])  # zero entry
    with pytest.raises(ValidationError):
        GibbsMarkovSystem.bernoulli([Fraction(1, 1)])  # alphabet too small
    with pytest.raises(ValidationError):
        GibbsMarkovSystem([[Fraction(1, 2), Fraction(1, 2)],
                           [Fraction(1, 4), Fraction(3, 4)]], order=0)


def test_cylinder_mass_examples():
    sys_ = GibbsMarkovSystem.bernoulli([Fraction(1, 3)] * 3)
    assert cylinder_mass(sys_, (0, 1)) == Fraction(1, 9)
    assert cylinder_mass(sys_, (2,)) == sys_.pi[2]
    total = sum(cylinder_mass(sys_, w) for w in itertools.product(range(3), repeat=4))
    assert total == 1
    with pytest.raises(ValidationError):
        cylinder_mass(sys_, (0, 5))
    with pytest.raises(ValidationError):
        cylinder_mass(sys_, ())


def test_cylinder_mass_markov_property():
    sys_, _, _ = presets.two_state_markov()
    # concatenation conditioned on the connecting symbol, words up to length 6
    for w in itertools.product(range(2), repeat=6):
        for cut in range(1, 5):
            head, tail = w[:cut], w[cut:]
            lhs = cylinder_mass(sys_, w)
            rhs = (cylinder_mass(sys_, head)
                   * cylinder_mass(sys_, (head[-1],) + tail)
                   / cylinder_mass(sys_, (head[-1],)))
            assert lhs == rhs


def test_gibbs_sandwich_exhaustive():
    sys_, _, _ = presets.two_state_markov()
    C = sys_.gibbs_constant
    pi = sys_.pi
    P = sys_.trans
    for n in range(1, 9):
        for w in itertools.product(range(2), repeat=n):
            mu = cylinder_mass(sys_, w)
            # the weight of a point in the cylinder depends on the first
            # symbol past the cylinder; both extremes must satisfy the sandwich
            for nxt in range(2):
                ergodic_weight = mu * P[w[-1]][nxt] / pi[nxt]
                assert mu / C <= ergodic_weight <= C * mu


def test_gibbs_constant_is_one_for_bernoulli():
    sys_, _, _ = presets.trinomial()
    assert sys_.gibbs_constant == 1


def test_check_symmetry_trinomial():
    sys_, coc, inv = presets.trinomial()
    assert check_symmetry(sys_, coc, inv).holds


def test_check_symmetry_counterexample():
    sys_, _, _ = presets.trinomial()
    coc = Cocycle(IntegerLattice(1), ((1,), (1,), (0,)))
    rep = check_symmetry(sys_, coc, SymmetryInvolution((1, 0, 2)))
    assert not rep.holds
    assert any(kind == "increment not inverted" for kind, _ in rep.witnesses)


def test_check_symmetry_embedded4():
    sys_, coc, inv = presets.embedded4()
    assert check_symmetry(sys_, coc, inv).holds


def test_check_symmetry_weight_preservation():
    sys_ = GibbsMarkovSystem.bernoulli([Fraction(1, 2), Fraction(1, 4), Fraction(1, 4)])
    coc = Cocycle(IntegerLattice(1), ((-1,), (0,), (1,)))
    rep = check_symmetry(sys_, coc, SymmetryInvolution((2, 1, 0)))
    assert not rep.holds
    assert any(kind == "weight not preserved" for kind, _ in rep.witnesses)


def test_aperiodicity_trinomial_full():
    rep = check_aperiodicity_algebraic(*presets.trinomial()[:2])
    assert rep.full and rep.index == 1


def test_aperiodicity_simple_walk_period_two():
    rep = check_aperiodicity_algebraic(*presets.simple_walk()[:2])
    assert not rep.full and rep.index == 2


def test_aperiodicity_z2_full():
    rep = check_aperiodicity_algebraic(*presets.z2_lattice()[:2])
    assert rep.full


def test_aperiodicity_finite_targets():
    assert check_aperiodicity_algebraic(*presets.cyclic3()[:2]).full
    assert check_aperiodicity_algebraic(*presets.cyclic2()[:2]).full
    sys_ = GibbsMarkovSystem.bernoulli([Fraction(1, 2), Fraction(1, 2)])
    from gmwalk.groups import cyclic_group

    constant = Cocycle(cyclic_group(2), ((1,), (1,)))
    rep = check_aperiodicity_algebraic(sys_, constant)
    assert not rep.full and rep.index == 2


def test_aperiodicity_heisenberg_via_abelianization():
    # the +-e1, +-e2 abelianized walk only spans the checkerboard sublattice
    rep = check_aperiodicity_algebraic(*presets.heisenberg_symmetric()[:2])
    assert not rep.full and rep.index == 2
    assert "abelianization" in rep.note


def test_cocycle_abelianized_and_totality():
    _, coc, _ = presets.heisenberg_symmetric()
    ab = coc.abelianized()
    assert ab.values == ((1, 0), (-1, 0), (0, 1), (0, -1))
    with pytest.raises(ValidationError):
        coc.check_total(5)


def test_embedded_cocycle_word_value():
    _, coc, _ = presets.embedded4()
    # later symbols multiply on the left; abelian here, so order-free
    assert coc.word_value((0, 2)) == (1, 1)
    assert isinstance(coc.spec, EmbeddedRealLattice)
