from fractions import Fraction

import pytest

from gmwalk import oracle, presets
from gmwalk.errors import ResourceLimitError, ValidationError
from gmwalk.gm_system import Cocycle


def test_trinomial_two_step_table():
    sys_, coc, _ = presets.trinomial()
    t = oracle.oracle_distribution(sys_, coc, 2)
    gm = t.group_masses()
    assert gm == {
        (0,): Fraction(1, 3),
        (1,): Fraction(2, 9),
        (-1,): Fraction(2, 9),
        (2,): Fraction(1, 9),
        (-2,): Fraction(1, 9),
    }
    assert t.total() == 1


def test_one_step_is_one_step_law():
    sys_, coc, _ = presets.asymmetric_z()
    t = oracle.oracle_distribution(sys_, coc, 1)
    assert t.group_masses() == {(1,): Fraction(3, 10), (-1,): Fraction(7, 10)}


def test_all_depths_from_one_traversal():
    sys_, coc, _ = presets.two_state_markov()
    tables = oracle.oracle_distributions_upto(sys_, coc, 6)
    assert [t.n for t in tables] == list(range(1, 7))
    for t in tables:
        assert t.total() == 1


def test_reversed_order_differs_on_heisenberg():
    sys_, coc, _ = presets.heisenberg_asymmetric()
    fwd = oracle.oracle_distribution(sys_, coc, 3)
    rev = oracle.oracle_distribution_reversed(sys_, coc, 3)
    assert fwd.data != rev.data
    assert fwd.total() == rev.total() == 1


def test_periodic_sums_uniform():
    sys_, coc, _ = presets.trinomial()
    res = oracle.oracle_periodic_sums(sys_, coc, 0, 5)
    assert res.value["Z_a"] == Fraction(1, 3)
    assert res.word_count == 3 ** 4
    assert sum(res.value["table"].values()) == res.value["Z_a"]


def test_walk_measure_normalization():
    # the walk weight mu([v]) p(last -> a) / pi(a) is the periodic weight, so
    # the measure is the periodic table over its total Z_a
    for make in (presets.two_state_markov, presets.heisenberg_asymmetric):
        sys_, coc, _ = make()
        for a in range(sys_.m):
            for n in range(1, 6):
                res = oracle.oracle_walk_measure(sys_, coc, a, n)
                per = oracle.oracle_periodic_sums(sys_, coc, a, n)
                z_a = per.value["Z_a"]
                assert sum(res.value["measure"].values()) == 1
                assert res.value["pn_one"] > 0
                assert res.value["pn_one"] == z_a
                assert {g: w * z_a for g, w in res.value["measure"].items()} == per.value["table"]
                assert res.word_count == per.word_count == sys_.m ** (n - 1)


def test_guard_and_validation():
    sys_, coc, _ = presets.trinomial()
    with pytest.raises(ResourceLimitError):
        oracle.oracle_distribution(sys_, coc, 30)
    with pytest.raises(ValidationError):
        oracle.oracle_distribution(sys_, coc, 0)


@pytest.mark.parametrize("name, periodic", [
    ("oracle_distributions_upto", False),
    ("oracle_distribution_reversed", False),
    ("oracle_periodic_sums", True),
    ("oracle_walk_measure", True),
])
def test_every_entry_point_validates_its_input(name, periodic, monkeypatch):
    sys_, coc, _ = presets.trinomial()
    fn = getattr(oracle, name)

    def call(n=3, cocycle=coc, a=0):
        return fn(sys_, cocycle, a, n) if periodic else fn(sys_, cocycle, n)

    with pytest.raises(ValidationError):
        call(n=0)
    with pytest.raises(ValidationError):
        call(cocycle=Cocycle(coc.spec, coc.values[:2]))
    if periodic:
        for a in (-1, 3):
            with pytest.raises(ValidationError):
                call(a=a)
    # the guard counts 3^n words, or 3^(n-1) from a fixed base symbol
    with pytest.raises(ResourceLimitError):
        call(n=18 if periodic else 17)
    monkeypatch.setattr(oracle, "WORD_GUARD", 3 ** 4)
    call(n=5 if periodic else 4)
    with pytest.raises(ResourceLimitError):
        call(n=6 if periodic else 5)
