import math
import random

import pytest
from hypothesis import given, strategies as st

from gmwalk.errors import EncodingError, ValidationError
from gmwalk.groups import (
    DirectProduct,
    EmbeddedRealLattice,
    FiniteGroup,
    HeisenbergZ,
    IntegerLattice,
    abelianize,
    cyclic_group,
    embed_real,
    hermite_basis,
    hermite_index,
    inverse,
    left_product,
    multiply,
)

SQRT2 = math.sqrt(2)


def all_specs():
    return [
        IntegerLattice(2),
        cyclic_group(6),
        HeisenbergZ(),
        DirectProduct(cyclic_group(3), IntegerLattice(1)),
        EmbeddedRealLattice(((1.0,), (SQRT2,))),
    ]


def random_element(spec, rng):
    if isinstance(spec, FiniteGroup):
        return (rng.randrange(spec.order),)
    if isinstance(spec, DirectProduct):
        return random_element(spec.left, rng) + random_element(spec.right, rng)
    return tuple(rng.randrange(-8, 9) for _ in range(spec.key_size))


def test_lattice_multiply():
    spec = IntegerLattice(2)
    assert multiply((1, 2), (3, -1), spec) == (4, 1)


def test_heisenberg_multiply_and_noncommutativity():
    spec = HeisenbergZ()
    assert multiply((1, 0, 0), (0, 1, 0), spec) == (1, 1, 1)
    assert multiply((0, 1, 0), (1, 0, 0), spec) == (1, 1, 0)


def test_inverse_examples():
    assert inverse((5,), IntegerLattice(1)) == (-5,)
    spec = HeisenbergZ()
    # solving (1,1,1)*(x,y,z) = e with the triangular law gives (-1,-1,0)
    assert inverse((1, 1, 1), spec) == (-1, -1, 0)
    assert multiply((1, 1, 1), (-1, -1, 0), spec) == (0, 0, 0)
    assert inverse((2,), cyclic_group(3)) == (1,)


def test_abelianize_examples():
    heis = HeisenbergZ()
    assert abelianize((1, 0, 5), heis) == (1, 0)
    comm = left_product([(0, -1, 0), (-1, 0, 0), (0, 1, 0), (1, 0, 0)], heis)
    assert comm != (0, 0, 0)          # the commutator itself is central, not trivial
    assert abelianize(comm, heis) == (0, 0)
    prod = DirectProduct(cyclic_group(3), IntegerLattice(1))
    assert abelianize((2, 7), prod) == (7,)


def test_embed_real_examples():
    spec = EmbeddedRealLattice(((1.0,), (SQRT2,)))
    assert embed_real((2, -1), spec)[0] == pytest.approx(2 - SQRT2, abs=1e-12)
    assert embed_real((0, 0), spec) == (0.0,)
    a = embed_real((1, 1), spec)[0]
    b = embed_real((3, -1), spec)[0]
    assert a == pytest.approx(1 + SQRT2, abs=1e-12)
    assert b == pytest.approx(3 - SQRT2, abs=1e-12)
    assert abs(a - b) > 0.5


@pytest.mark.parametrize("spec", all_specs(), ids=lambda s: repr(s))
def test_group_axioms_randomized(spec):
    rng = random.Random(20240811)
    e = spec.identity()
    for _ in range(10_000):
        g = random_element(spec, rng)
        h = random_element(spec, rng)
        k = random_element(spec, rng)
        assert spec.multiply(spec.multiply(g, h), k) == spec.multiply(g, spec.multiply(h, k))
        assert spec.multiply(g, e) == g
        assert spec.multiply(e, g) == g
        assert spec.multiply(g, spec.inverse(g)) == e


@pytest.mark.parametrize("spec", all_specs(), ids=lambda s: repr(s))
def test_abelianize_is_homomorphism(spec):
    rng = random.Random(7)
    for _ in range(2_000):
        g = random_element(spec, rng)
        h = random_element(spec, rng)
        gh = spec.abelianize(spec.multiply(g, h))
        s = tuple(a + b for a, b in zip(spec.abelianize(g), spec.abelianize(h)))
        assert gh == s


@pytest.mark.parametrize("spec", all_specs(), ids=lambda s: repr(s))
def test_canonical_keys_round_trip(spec):
    rng = random.Random(99)
    for _ in range(10_000):
        g = random_element(spec, rng)
        spec.validate_element(g)
        # products stay in canonical form, and equal keys mean equal elements
        h = spec.multiply(g, spec.identity())
        assert h == g and hash(h) == hash(g)


def test_embed_real_additive():
    spec = EmbeddedRealLattice(((1.0, 0.5), (SQRT2, -1.0), (0.25, math.pi)))
    rng = random.Random(3)
    for _ in range(2_000):
        g = tuple(rng.randrange(-9, 10) for _ in range(3))
        h = tuple(rng.randrange(-9, 10) for _ in range(3))
        gh = spec.embed(spec.multiply(g, h))
        s = tuple(a + b for a, b in zip(spec.embed(g), spec.embed(h)))
        assert all(abs(a - b) <= 1e-12 for a, b in zip(gh, s))


@given(
    st.tuples(*[st.integers(-50, 50)] * 3),
    st.tuples(*[st.integers(-50, 50)] * 3),
    st.tuples(*[st.integers(-50, 50)] * 3),
)
def test_heisenberg_axioms_property(g, h, k):
    spec = HeisenbergZ()
    assert spec.multiply(spec.multiply(g, h), k) == spec.multiply(g, spec.multiply(h, k))
    assert spec.multiply(g, spec.inverse(g)) == (0, 0, 0)
    assert spec.abelianize(spec.multiply(g, h)) == (g[0] + h[0], g[1] + h[1])


def test_finite_group_rejects_broken_tables():
    with pytest.raises(ValidationError):
        FiniteGroup([[0, 1], [1, 1]])          # 1 has no inverse
    # a latin square that is not associative
    table = [
        [0, 1, 2, 3, 4],
        [1, 0, 3, 4, 2],
        [2, 3, 4, 0, 1],
        [3, 4, 1, 2, 0],
        [4, 2, 0, 1, 3],
    ]
    with pytest.raises(ValidationError):
        FiniteGroup(table)


def test_element_encoding_errors():
    spec = IntegerLattice(2)
    with pytest.raises(EncodingError):
        multiply((1,), (0, 0), spec)
    with pytest.raises(EncodingError):
        cyclic_group(3).validate_element((4,))


def test_hermite_index_examples():
    full, idx = hermite_index([(1,), (2,)])
    assert full and idx == 1
    full, idx = hermite_index([(2,)])
    assert not full and idx == 2
    # differences of {(1,0), (0,1), (0,0)} span all of Z^2
    full, idx = hermite_index([(1, -1), (1, 0), (0, 1)])
    assert full and idx == 1
    # diagonal embedding into Z x Z/2 misses half the group
    full, idx = hermite_index([(1, 1)], torsion=(2,))
    assert not full and idx == 2
    full, idx = hermite_index([], torsion=(3,))
    assert not full and idx == 3
    full, idx = hermite_index([(0, 0)], torsion=())
    assert not full and idx is None


def test_hermite_basis_is_triangular_and_spans_the_rows():
    rows = [(-1, 1), (-2, -1), (3, 6)]
    basis = hermite_basis(rows)
    assert len(basis) == 2 and basis[1][0] == 0
    assert abs(basis[0][0] * basis[1][1]) == hermite_index(rows)[1] == 3
    # every row is an integer combination of the basis (triangular solve)
    for r in rows:
        c0, rem0 = divmod(r[0], basis[0][0])
        assert rem0 == 0
        assert (r[1] - c0 * basis[0][1]) % basis[1][1] == 0
    assert hermite_basis([(1, 1), (2, 2)]) is None
    assert hermite_basis([]) == []
