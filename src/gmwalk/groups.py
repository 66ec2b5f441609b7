"""Group arithmetic on canonical integer encodings.

Every element is a plain tuple of ints (hashable, immutable).  Each group
variant fixes how such a tuple is interpreted:

* ``IntegerLattice(d)``      -- d lattice coordinates, componentwise addition.
* ``FiniteGroup(table, e)``  -- a single index into a multiplication table.
* ``HeisenbergZ()``          -- a triple (x, y, z) with the upper-triangular law
                                (x,y,z)*(x',y',z') = (x+x', y+y', z+z'+x*y').
* ``DirectProduct(l, r)``    -- concatenated factor keys.
* ``EmbeddedRealLattice(b)`` -- integer coordinates over a declared real basis;
                                the real value is a derived view only, so distinct
                                atoms never collide in floating point.
"""

from __future__ import annotations

import operator

from .errors import EncodingError, ValidationError

Element = tuple


class GroupSpec:
    """Common interface of all group variants."""

    key_size: int   # length of the element tuple
    ab_rank: int    # rank of the free part of the abelianization

    def identity(self) -> Element:
        raise NotImplementedError

    def multiply(self, g: Element, h: Element) -> Element:
        raise NotImplementedError

    def inverse(self, g: Element) -> Element:
        raise NotImplementedError

    def abelianize(self, g: Element) -> Element:
        """Project to the free part of the abelianization (a Z^k vector)."""
        raise NotImplementedError

    def validate_element(self, g) -> None:
        if not isinstance(g, tuple) or len(g) != self.key_size:
            raise EncodingError(f"element {g!r} does not fit {self!r}")
        if not all(isinstance(c, int) for c in g):
            raise EncodingError(f"element {g!r} has non-integer coordinates")

    def presentation(self):
        """(free rank, torsion orders) of the abelianization, or None.

        Available when the torsion part is an explicit product of cyclic
        groups; used by the algebraic aperiodicity check.
        """
        return None

    def presentation_coords(self, g: Element):
        """Coordinates of g in the presentation returned by presentation()."""
        raise NotImplementedError

    def is_finite(self) -> bool:
        return False


class IntegerLattice(GroupSpec):
    def __init__(self, d: int):
        if d < 0:
            raise ValidationError("lattice dimension must be >= 0")
        self.d = d
        self.key_size = d
        self.ab_rank = d

    def identity(self):
        return (0,) * self.d

    def multiply(self, g, h):
        return tuple(map(operator.add, g, h))

    def inverse(self, g):
        return tuple(-a for a in g)

    def abelianize(self, g):
        return g

    def presentation(self):
        return (self.d, ())

    def presentation_coords(self, g):
        return g

    def __repr__(self):
        return f"IntegerLattice({self.d})"


class FiniteGroup(GroupSpec):
    """Finite group given by its full multiplication table.

    ``table[i][j]`` is the index of element i * element j.  Group axioms are
    verified exhaustively at construction (intended for order <= 64).
    """

    def __init__(self, table, identity_index=0, cyclic_order=None):
        table = tuple(tuple(int(x) for x in row) for row in table)
        n = len(table)
        errs = []
        if n == 0:
            raise ValidationError("empty multiplication table")
        for row in table:
            if len(row) != n or any(not 0 <= x < n for x in row):
                errs.append("table is not a square array of indices")
                break
        if not 0 <= identity_index < n:
            errs.append("identity index out of range")
        if errs:
            raise ValidationError(errs)
        e = identity_index
        for i in range(n):
            if table[e][i] != i or table[i][e] != i:
                errs.append(f"index {e} is not an identity")
                break
        inv = [None] * n
        for i in range(n):
            for j in range(n):
                if table[i][j] == e and table[j][i] == e:
                    inv[i] = j
            if inv[i] is None:
                errs.append(f"element {i} has no inverse")
        if not errs:
            for a in range(n):
                for b in range(n):
                    for c in range(n):
                        if table[table[a][b]][c] != table[a][table[b][c]]:
                            errs.append(f"associativity fails at ({a},{b},{c})")
                            break
                    if errs:
                        break
                if errs:
                    break
        if errs:
            raise ValidationError(errs)
        self.table = table
        self.order = n
        self.identity_index = e
        self._inverse = tuple(inv)
        self.cyclic_order = cyclic_order
        self.key_size = 1
        self.ab_rank = 0

    def identity(self):
        return (self.identity_index,)

    def multiply(self, g, h):
        return (self.table[g[0]][h[0]],)

    def inverse(self, g):
        return (self._inverse[g[0]],)

    def abelianize(self, g):
        return ()

    def validate_element(self, g):
        super().validate_element(g)
        if not 0 <= g[0] < self.order:
            raise EncodingError(f"index {g[0]} out of range for order {self.order}")

    def presentation(self):
        if self.cyclic_order is not None:
            return (0, (self.cyclic_order,))
        return None

    def presentation_coords(self, g):
        if self.cyclic_order is None:
            raise EncodingError("no cyclic presentation available")
        return (g[0],)

    def elements(self):
        return [(i,) for i in range(self.order)]

    def is_finite(self):
        return True

    def __repr__(self):
        if self.cyclic_order is not None:
            return f"CyclicGroup({self.cyclic_order})"
        return f"FiniteGroup(order={self.order})"


def cyclic_group(k: int) -> FiniteGroup:
    """Z/k with elements 0..k-1 and addition mod k."""
    if k < 1:
        raise ValidationError("cyclic order must be >= 1")
    table = [[(i + j) % k for j in range(k)] for i in range(k)]
    return FiniteGroup(table, identity_index=0, cyclic_order=k)


class HeisenbergZ(GroupSpec):
    """Discrete Heisenberg group on triples (x, y, z)."""

    key_size = 3
    ab_rank = 2

    def identity(self):
        return (0, 0, 0)

    def multiply(self, g, h):
        x, y, z = g
        x2, y2, z2 = h
        return (x + x2, y + y2, z + z2 + x * y2)

    def inverse(self, g):
        x, y, z = g
        return (-x, -y, -z + x * y)

    def abelianize(self, g):
        return (g[0], g[1])

    def presentation(self):
        # abelianization only; the center is dropped
        return (2, ())

    def presentation_coords(self, g):
        return (g[0], g[1])

    def __repr__(self):
        return "HeisenbergZ()"


class DirectProduct(GroupSpec):
    def __init__(self, left: GroupSpec, right: GroupSpec):
        self.left = left
        self.right = right
        self.key_size = left.key_size + right.key_size
        self.ab_rank = left.ab_rank + right.ab_rank

    def _split(self, g):
        k = self.left.key_size
        return g[:k], g[k:]

    def identity(self):
        return self.left.identity() + self.right.identity()

    def multiply(self, g, h):
        gl, gr = self._split(g)
        hl, hr = self._split(h)
        return self.left.multiply(gl, hl) + self.right.multiply(gr, hr)

    def inverse(self, g):
        gl, gr = self._split(g)
        return self.left.inverse(gl) + self.right.inverse(gr)

    def abelianize(self, g):
        gl, gr = self._split(g)
        return self.left.abelianize(gl) + self.right.abelianize(gr)

    def validate_element(self, g):
        super().validate_element(g)
        gl, gr = self._split(g)
        self.left.validate_element(gl)
        self.right.validate_element(gr)

    def presentation(self):
        pl = self.left.presentation()
        pr = self.right.presentation()
        if pl is None or pr is None:
            return None
        return (pl[0] + pr[0], pl[1] + pr[1])

    def presentation_coords(self, g):
        gl, gr = self._split(g)
        cl = self.left.presentation_coords(gl)
        cr = self.right.presentation_coords(gr)
        kl, _ = self.left.presentation()
        kr, _ = self.right.presentation()
        # free parts first, then torsion parts, matching presentation()
        return cl[:kl] + cr[:kr] + cl[kl:] + cr[kr:]

    def is_finite(self):
        return self.left.is_finite() and self.right.is_finite()

    def __repr__(self):
        return f"DirectProduct({self.left!r}, {self.right!r})"


class EmbeddedRealLattice(GroupSpec):
    """Z^m carried into R^d by a declared real basis.

    ``basis[i]`` is the image of the i-th unit vector (a d-tuple of floats).
    Rational independence of the basis cannot be decided from floating input;
    the declaration is trusted and recorded as metadata.
    """

    independence_declared = True

    def __init__(self, basis):
        basis = tuple(tuple(float(x) for x in row) for row in basis)
        if not basis:
            raise ValidationError("embedded lattice needs at least one basis vector")
        d = len(basis[0])
        if any(len(row) != d for row in basis):
            raise ValidationError("basis vectors have inconsistent ambient dimension")
        self.basis = basis
        self.rank = len(basis)
        self.ambient_dim = d
        self.key_size = self.rank
        self.ab_rank = self.rank

    def identity(self):
        return (0,) * self.rank

    def multiply(self, g, h):
        return tuple(map(operator.add, g, h))

    def inverse(self, g):
        return tuple(-a for a in g)

    def abelianize(self, g):
        return g

    def presentation(self):
        return (self.rank, ())

    def presentation_coords(self, g):
        return g

    def embed(self, g) -> tuple:
        """Real image sum_i g[i] * basis[i] (an additive homomorphism)."""
        out = [0.0] * self.ambient_dim
        for c, row in zip(g, self.basis):
            if c:
                for j in range(self.ambient_dim):
                    out[j] += c * row[j]
        return tuple(out)

    def __repr__(self):
        return f"EmbeddedRealLattice(rank={self.rank}, ambient={self.ambient_dim})"


# Module-level operation surface ------------------------------------------

def multiply(g: Element, h: Element, spec: GroupSpec) -> Element:
    spec.validate_element(g)
    spec.validate_element(h)
    return spec.multiply(g, h)


def inverse(g: Element, spec: GroupSpec) -> Element:
    spec.validate_element(g)
    return spec.inverse(g)


def abelianize(g: Element, spec: GroupSpec) -> Element:
    spec.validate_element(g)
    return spec.abelianize(g)


def embed_real(g: Element, spec: EmbeddedRealLattice) -> tuple:
    if not isinstance(spec, EmbeddedRealLattice):
        raise EncodingError("embed_real requires an EmbeddedRealLattice")
    spec.validate_element(g)
    return spec.embed(g)


def left_product(values, spec: GroupSpec) -> Element:
    """Product v[n-1] * ... * v[1] * v[0]: each later value multiplies on the left."""
    acc = spec.identity()
    for v in values:
        acc = spec.multiply(v, acc)
    return acc


def hermite_basis(rows, torsion=()):
    """Upper-triangular basis of the lattice in Z^k generated by ``rows``.

    Each row is a coordinate tuple (free coords first, then one coordinate per
    torsion factor); q_i times the i-th torsion unit vector joins the rows.
    Returns k rows, the i-th with zeros before its pivot at column i, or None
    when the rows span less than rank k.

    Works by integer row reduction (Hermite form); all operations are
    unimodular, so the returned rows generate the same lattice.
    """
    k = None
    mats = [list(r) for r in rows]
    for r in mats:
        if k is None:
            k = len(r)
        elif len(r) != k:
            raise ValidationError("inconsistent coordinate lengths")
    if k is None:
        k = len(torsion)
    free = k - len(torsion)
    if free < 0:
        raise ValidationError("more torsion factors than coordinates")
    for i, q in enumerate(torsion):
        row = [0] * k
        row[free + i] = int(q)
        mats.append(row)
    # column-by-column Euclidean elimination to an upper-triangular form
    basis = []
    rows_active = [r for r in mats if any(r)]
    for col in range(k):
        live = [r for r in rows_active if r[col] != 0]
        rest = [r for r in rows_active if r[col] == 0]
        while len(live) > 1:
            live.sort(key=lambda r: abs(r[col]))
            a = live[0]
            new_live = [a]
            for r in live[1:]:
                qq = r[col] // a[col]
                for j in range(col, k):
                    r[j] -= qq * a[j]
                if r[col] != 0:
                    new_live.append(r)
                elif any(r):
                    rest.append(r)
            live = new_live
        if not live:
            return None
        basis.append(live[0])
        rows_active = rest
    return basis


def hermite_index(rows, torsion=()):
    """Index data of the subgroup of Z^k x prod(Z/q) generated by ``rows``.

    Each row is a coordinate tuple (free coords first, then one coordinate per
    torsion factor).  Returns (full, index) where ``index`` is the order of the
    quotient by the generated subgroup (None when the quotient is infinite):
    the product of the pivots of ``hermite_basis``.
    """
    basis = hermite_basis(rows, torsion)
    if basis is None:
        return False, None
    index = 1
    for i, r in enumerate(basis):
        index *= abs(r[i])
    return index == 1, index
