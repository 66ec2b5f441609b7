"""Forward law of the accumulated cocycle product, jointly with the chain state.

The step recursion multiplies the new increment on the LEFT of the running
product: after emitting symbol s' from state s,

    W_{n+1}(s', v(s') * g) += W_n(s, g) * p(s -> s').

The same recursion with one state and one shift per atom is the convolution
power of a measure; ``Recursion`` holds either form.  Statistics of the
group marginal alone step ``marginal_recursion``, which for a Bernoulli
system is the one-step law with one state instead of m.  Dense float engines
(flat stride-indexed boxes, one kernel) are selected automatically for
integer-lattice and embedded-lattice targets and for the Heisenberg group,
whose box is stored y-slab by y-slab so that its shear is one flat offset per
slab.  A lattice box is planned in the coordinates of the lattice that the
differences of the atoms generate, shifted by one atom per step, where that
box is smaller: the support after n steps lies on one coset of that lattice,
so a walk with a period or a drift steps only the cells it can reach.
Exact work steps Python int numerators over one common denominator and
builds a ``Fraction`` only where a mass leaves the engine.  On a lattice it
packs each state's numerators over the same box into one int, b bits a
cell (``_PackedLatticeEngine``; the width and guard are stated in
``_make_engine``).  Everything else (exact Heisenberg work, finite groups,
direct products) runs on sparse tables keyed by group element, each holding
its S state masses.
Identity returns (``_identity_returns``) and the masses that ratios and
cross ratios read at a few depths (``_point_masses``) pair a half-depth
table with the time-reversed (dual) recursion (``_masses``), two engines for
any S, where that shrinks the planar and Heisenberg boxes; one-coordinate
float lattices jump to each depth by binary powering, and read sequences of
every depth in blocks (``_blocked_masses``).
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from . import _kernels
from .errors import EncodingError, ResourceLimitError, ValidationError
from .gm_system import check_aperiodicity_algebraic, cylinder_mass
from .groups import EmbeddedRealLattice, FiniteGroup, HeisenbergZ, IntegerLattice, hermite_index

DEFAULT_MAX_CELLS = 80_000_000
DEFAULT_MAX_ATOMS = 3_000_000
EXPORT_MAX_ATOMS = 5_000_000
# candidate frames a lattice box planner enumerates at most (atoms x d-subsets of
# their differences); recursions with more atoms keep the identity frame
FRAME_MAX_CANDIDATES = 20_000
# the fixed cost of one engine step in stepped cells x shifts (about 12.6 us
# against 0.5 ns a cell, fitted as ``_powering_pays`` states)
STEP_OVERHEAD_CELLS = 25_000
# the fixed cost of pairing a lattice recursion in box cells of S rows (``_pairing``)
PAIR_OVERHEAD_CELLS = 4_000
BOUNDARY_ATOL = 1e-9
# relative slack of a float superadditivity comparison (rational ones are exact)
SUPERADDITIVITY_REL_SLACK = 1e-9


def _as_box(E, spec):
    """Normalize a window on an embedded real lattice to per-dimension open intervals."""
    if not isinstance(spec, EmbeddedRealLattice):
        raise ValidationError("window experiments require an embedded real lattice")
    ambient_dim = spec.ambient_dim
    if ambient_dim == 1 and len(E) == 2 and not hasattr(E[0], "__len__"):
        E = (E,)
    box = tuple((float(lo), float(hi)) for lo, hi in E)
    if len(box) != ambient_dim:
        raise ValidationError(f"window has {len(box)} dimensions, ambient space has {ambient_dim}")
    for lo, hi in box:
        if not lo < hi:
            raise ValidationError(f"degenerate window interval ({lo}, {hi})")
    return box


def _element(spec, g):
    """g as an element of ``spec``, or a ValidationError when it does not fit the group."""
    g = tuple(g)
    try:
        spec.validate_element(g)
    except EncodingError as exc:
        raise ValidationError(str(exc)) from None
    return g


def box_volume(box):
    v = 1.0
    for lo, hi in box:
        v *= hi - lo
    return v


def _embed(spec, coords):
    """Real embeddings, ambient axis first, of integer key coordinates (key axis first)."""
    emb = np.zeros((spec.ambient_dim, len(coords[0])))
    for i, ci in enumerate(coords):
        ci = np.asarray(ci, dtype=np.float64)
        for j in range(spec.ambient_dim):
            b = spec.basis[i][j]
            if b:
                emb[j] += b * ci
    return emb


def _window(view, spec, box, shift=None):
    """Mass of a group-marginal view inside the open box E + shift, and its flags.

    ``view`` is an engine's ``group_view()``: the real embeddings of its
    group cells and their masses (exact Fractions in rational mode).  A flag
    is an occupied group cell within ``BOUNDARY_ATOL`` of a face, counted once
    whatever states hold its mass and however many faces it is near.
    """
    emb, mass = view
    sh = spec.embed(shift) if shift is not None else (0.0,) * spec.ambient_dim
    inside = np.ones(mass.shape[0], dtype=bool)
    near = np.zeros(mass.shape[0], dtype=bool)
    for j, (lo, hi) in enumerate(box):
        x = emb[j]
        inside &= (x > lo + sh[j]) & (x < hi + sh[j])
        near |= (np.abs(x - (lo + sh[j])) < BOUNDARY_ATOL) | (
            np.abs(x - (hi + sh[j])) < BOUNDARY_ATOL
        )
    return mass[inside].sum(), int(np.count_nonzero(near & (mass > 0)))


class MassTable:
    """Finitely supported mass on (state, group element) at step n."""

    def __init__(self, n, mode, spec, data):
        self.n = n
        self.mode = mode
        self.spec = spec
        self.data = data                # dict[(state, gkey)] -> mass

    def total(self):
        return sum(self.data.values())

    def group_masses(self):
        return _group_masses(self.data)

    def mass_at(self, g):
        zero = Fraction(0) if self.mode == "rational" else 0.0
        return sum((w for (_, gg), w in self.data.items() if gg == g), zero)

    def state_marginal(self, m):
        zero = Fraction(0) if self.mode == "rational" else 0.0
        out = [zero] * m
        for (s, _), w in self.data.items():
            out[s] += w
        return out

    def support(self):
        return set(g for (_, g) in self.data)

    def rows(self):
        """(n, key..., mass) rows of the group marginal, sorted by key."""
        return [(self.n,) + g + (w,) for g, w in sorted(self.group_masses().items())]


def _group_masses(data):
    out = {}
    for (_, g), w in data.items():
        out[g] = out.get(g, 0) + w
    return out


def write_distribution_csv(table: MassTable, path):
    """Write a table's group marginal as CSV with columns (n, key..., mass)."""
    key_size = table.spec.key_size
    header = ["n"] + [f"key_{i}" for i in range(key_size)] + ["mass"]
    _write_csv(path, header, table.rows())


def _write_csv(path, header, rows):
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(_csv_cell(c) for c in row) + "\n")


def _csv_cell(x):
    """One CSV or manifest cell: exact fractions as p/q, floats by shortest repr."""
    if type(x) is float:        # most cells; isinstance(x, Fraction) is an ABC check
        return repr(x)
    if isinstance(x, Fraction):
        return f"{x.numerator}/{x.denominator}"
    if isinstance(x, (float, np.floating)):
        return repr(float(x))
    if isinstance(x, tuple):
        return " ".join(_csv_cell(c) for c in x)
    return str(x)


# ------------------------------------------------------------------ recursion

def heis_z_bound(atoms, span):
    """Safe |z| bound after ``span`` left multiplications by the given atoms.

    When every atom moves x or y but not both, shearing steps see |y| built
    up only by the other steps, so the products peak at the n^2/4 split;
    mixed atoms shear while advancing y, which needs the triangular budget.
    """
    amax = max(abs(a) for a, _, _ in atoms)
    bmax = max(abs(b) for _, b, _ in atoms)
    cmax = max(abs(c) for _, _, c in atoms)
    if all(a * b == 0 for a, b, _ in atoms):
        return (span * span // 4 + span) * amax * bmax + span * cmax
    return span * cmax + amax * bmax * span * (span - 1) // 2 + span


@dataclass(frozen=True)
class Recursion:
    """A forward recursion on (state, group element) masses.

    S states, an S x S mixing matrix P (None when S = 1) and shifts
    (s', atom, weight).  One step maps W to out with

        out(s', atom * g) += weight * sum_s P(s, s') W(s, g)

    for every shift; without P the inner sum is W(0, g).  ``init`` holds the
    default step-0 masses, which are the law of ``depth0`` atom products (1
    for a dual, ``_dual``).  Numbers are Fractions in rational mode.
    """

    spec: object
    mode: str
    S: int
    P: object
    shifts: tuple
    init: tuple
    depth0: int = 0

    def seed(self, state=None, entry=None):
        """Step-0 masses: ``init``, or unit mass at (state, e) or at entry = (s, g)."""
        one = Fraction(1) if self.mode == "rational" else 1.0
        if entry is not None:
            return {(int(entry[0]), tuple(entry[1])): one}
        if state is not None:   # one state: a Bernoulli group marginal ignores the state
            return {(int(state) if self.S > 1 else 0, self.spec.identity()): one}
        return dict(self.init)


def walk_recursion(system, cocycle, mode) -> Recursion:
    """The walk: S = m, P = the transition matrix, shifts (s', v(s'), 1)."""
    cocycle.check_total(system.m)
    spec = cocycle.spec
    rational = mode == "rational"
    P = system.trans if rational else system.trans_float
    pi = system.pi if rational else system.pi_float
    one = Fraction(1) if rational else 1.0
    shifts = tuple((s, cocycle.value(s), one) for s in range(system.m))
    init = tuple(((s, spec.identity()), pi[s]) for s in range(system.m))
    return Recursion(spec, mode, system.m, P, shifts, init)


def measure_recursion(spec, masses, mode) -> Recursion:
    """Convolution powers of a finitely supported measure: S = 1, shifts (0, atom, w)."""
    if mode != "rational":
        masses = {g: float(w) for g, w in masses.items()}
    one = Fraction(1) if mode == "rational" else 1.0
    shifts = tuple((0, tuple(g), w) for g, w in masses.items())
    return Recursion(spec, mode, 1, None, shifts, (((0, spec.identity()), one),))


def one_step_recursion(system, cocycle, mode) -> Recursion:
    """The stationary one-step law as a measure recursion.

    For a Bernoulli system its convolution powers are the group marginals of
    the walk, with one state instead of m.
    """
    cocycle.check_total(system.m)
    pi = system.pi if mode == "rational" else system.pi_float
    masses = {}
    for s in range(system.m):
        g = cocycle.value(s)
        masses[g] = masses.get(g, 0) + pi[s]
    return measure_recursion(cocycle.spec, masses, mode)


def marginal_recursion(system, cocycle, mode) -> Recursion:
    """A recursion whose group marginal is the walk's: one state when Bernoulli."""
    if system.is_bernoulli:
        return one_step_recursion(system, cocycle, mode)
    return walk_recursion(system, cocycle, mode)


# ------------------------------------------------------------------ engines

def _numerators(values):
    """The lcm d of the denominators of some Fractions, and their numerators over d."""
    d = math.lcm(*(v.denominator for v in values))
    return d, [v.numerator * (d // v.denominator) for v in values]


class _SparseEngine:
    """Dictionary-backed stepping of ``data[g]``, the list of the S state masses at g.

    A step mixes M = P^T data[g] (data[g] itself without P) and adds w * M[t]
    into slot t of data[atom * g] for each shift (t, atom, w), as
    ``_kernels.lattice_step`` does: one group product per shift.  Keys (s, g)
    enter through ``Recursion.seed`` or a table and leave through ``to_table``,
    which exports the nonzero slots.  Exact work steps Python int numerators
    over den = d0 * D^n, where D = dp * dw and d0, dp, dw are the lcms of the
    denominators of the step-0 masses, of P and of the shift weights; a mass
    leaves as ``Fraction(num, den)``.  Float work steps the masses (den = 1).
    """

    def __init__(self, rec, seed_state=None, seed_entry=None, max_atoms=DEFAULT_MAX_ATOMS,
                 data=None, n=0):
        self.rec = rec
        self.spec = rec.spec
        self.mode = rec.mode
        self.max_atoms = max_atoms
        self._blank = [0 if rec.mode == "rational" else 0.0] * rec.S   # stepped zeros
        self.n = n
        table = data if data is not None else rec.seed(seed_state, seed_entry)
        flat = [] if rec.P is None else list(itertools.chain(*rec.P))     # P, row by row
        wts = [w for _, _, w in rec.shifts]
        self._D = self.den = 1
        if rec.mode == "rational":      # numerators: P over dp, weights over dw, masses over den
            dp, flat = _numerators(flat)
            dw, wts = _numerators(wts)
            self.den, nums = _numerators(table.values())
            self._D, table = dp * dw, dict(zip(table, nums))
        else:                           # Python floats, not numpy scalars
            flat, table = list(map(float, flat)), {k: float(w) for k, w in table.items()}
        self._cols = [flat[t::rec.S] for t in range(rec.S)] if flat else None   # rows of P^T
        self._shifts = [(t, a, w) for (t, a, _), w in zip(rec.shifts, wts)]
        self.data = {}
        for (s, g), w in table.items():
            self.data.setdefault(g, self._blank.copy())[s] += w

    def _out(self, num):
        # a stepped number as it leaves the engine
        return Fraction(num, self.den) if self.mode == "rational" else num

    def step_once(self):
        mul = self.spec.multiply
        cols, shifts, blank = self._cols, self._shifts, self._blank
        new = {}
        get = new.get
        for g, v in self.data.items():
            mixed = v if cols is None else [sum(map(operator.mul, col, v)) for col in cols]
            for t, a, c in shifts:
                h = mul(a, g)
                row = get(h)
                if row is None:
                    row = new[h] = blank.copy()
                row[t] += mixed[t] * c
        if self.rec.S * len(new) > self.max_atoms:
            raise ResourceLimitError(f"sparse support exceeded {self.max_atoms} atoms",
                                     completed=self.n)
        self.data = new
        self.n += 1
        self.den *= self._D

    def drop(self, g):
        """Remove the mass at group element g, in every state."""
        self.data.pop(g, None)

    def total(self):
        return self._out(sum(map(sum, self.data.values())))

    def mass_at(self, g):
        return self._out(sum(self.data.get(g, self._blank)))

    def joint_mass_at(self, s, g):
        return self._out(self.data.get(g, self._blank)[s])

    def to_table(self):
        data = {(s, g): self._out(w) for g, row in self.data.items()
                for s, w in enumerate(row) if w}
        return MassTable(self.n, self.mode, self.spec, data)


def _int_det(M):
    """Determinant of a small square integer matrix (a list of rows), by Laplace expansion."""
    if not M:
        return 1
    return sum((-1) ** j * M[0][j] * _int_det([r[:j] + r[j + 1:] for r in M[1:]])
               for j in range(len(M)) if M[0][j])


def _adjugate(M):
    """Integer adjugate of a small square integer matrix: adj(M) M = det(M) I."""
    d = len(M)
    return [[(-1) ** (i + j) * _int_det([r[:i] + r[i + 1:] for k, r in enumerate(M) if k != j])
             for j in range(d)] for i in range(d)]


class _Frame:
    """Coordinates lam = B^-1 (g - n v0) of the depth-n coset n v0 + Lambda0.

    v0 is an atom and the columns of the integer matrix B a basis of the
    lattice Lambda0 that the atoms' differences generate, so after n steps
    every atom product lies on the coset and has integer coordinates.
    """

    def __init__(self, v0, B):
        self.v0 = v0
        self.B = np.array(B, dtype=np.int64)
        self.adj = _adjugate(B)
        self.det = _int_det(B)
        self._adj_v0 = [sum(map(operator.mul, row, v0)) for row in self.adj]

    def coords(self, g, n):
        """lam of the group element g at depth n, or None off the coset."""
        lam = []
        for row, a in zip(self.adj, self._adj_v0):
            q, r = divmod(sum(map(operator.mul, row, g)) - n * a, self.det)
            if r:
                return None
            lam.append(q)
        return tuple(lam)

    def keys(self, lam, n):
        """Group elements n v0 + B lam of the rows of an integer array lam."""
        return lam @ self.B.T + n * np.array(self.v0, dtype=np.int64)


@functools.lru_cache(maxsize=256)
def _frames(pts):
    """(lam widths, frame) of every candidate frame of distinct lattice atoms ``pts``.

    A candidate takes v0 = one atom and d differences p - v0 as the columns
    of B, with |det B| the index of the difference lattice Lambda0, so B is
    a basis of it.  Its widths are the per-axis spans of the atoms' lam
    coordinates, whose box at span n has prod(n w + 1) cells.  Empty when
    Lambda0 has rank below d or the atoms are too many to enumerate.
    """
    d = len(pts[0])
    if len(pts) <= d or len(pts) * math.comb(len(pts) - 1, d) > FRAME_MAX_CANDIDATES:
        return ()
    _, index = hermite_index([tuple(map(operator.sub, p, pts[0])) for p in pts[1:]])
    if index is None:
        return ()
    out = []
    for v0 in pts:
        diffs = [tuple(map(operator.sub, p, v0)) for p in pts if p != v0]
        for cols in itertools.combinations(diffs, d):
            B = [list(row) for row in zip(*cols)]
            if abs(_int_det(B)) != index:
                continue
            frame = _Frame(v0, B)
            lam = [frame.coords(p, 1) for p in pts]
            out.append((tuple(max(c) - min(c) for c in zip(*lam)), frame))
    return tuple(out)


class _DenseLatticeEngine:
    """Float stepping of a recursion on a flat stride-indexed dense box.

    Integer and embedded lattices use it as it is: every atom is one flat
    offset and a step passes the kernel one flat source range.  The box is
    planned here, and the ``max_cells`` guard (see ``_make_engine``) is
    checked before anything is allocated.

    The box is planned in a frame (v0, B) (``_frame``): at depth n the masses
    sit at lam = B^-1 (g - n v0), so a walk whose atoms' differences span a
    sublattice Lambda0 of index k, or that drifts, steps a box up to k times
    smaller.  The shifts keep their order in group coordinates, so every cell
    receives its terms in the same order as in the identity frame (v0 = 0,
    B = I; ``frame`` is None).  Reads map g to lam, and an element off the
    coset n v0 + Lambda0 reads 0.0; ``to_table`` and ``group_view`` map the
    cells back to group elements.  With ``seed_entry`` the step-0 masses
    count as one step, as ``rec.depth0`` says of its ``init``; a seed off
    the box raises.  A given ``frame`` is planned in instead of ``_frame``'s.
    """

    layout = "lattice"
    order = None            # memory order of the key axes, slowest first (None: key order)

    def __init__(self, rec, n_max, seed_state=None, max_cells=DEFAULT_MAX_CELLS,
                 seed_entry=None, frame=None):
        shifts = self._plan(rec, n_max, seed_entry, frame)
        self.mode = "float"
        if 2 * rec.S * self.L > max_cells:
            raise ResourceLimitError(
                f"dense {self.layout} box needs 2 buffers of {rec.S * self.L} cells, "
                f"over the {max_cells}-cell guard",
                completed=0,
            )
        self.tgt = [t for t, _, _ in shifts]
        self.wts = [float(w) for _, _, w in shifts]
        self.W = np.zeros((rec.S, self.L))
        for (s, g), w in rec.seed(seed_state, seed_entry).items():
            self.W[s, self._seed_cell(g)] = float(w)
        self._buf = np.zeros_like(self.W)
        self._cell_keys = self._embed_cache = None

    def _plan(self, rec, n_max, seed_entry, frame=None):
        """Plan the frame and box of ``n_max`` steps and the atoms' flat offsets; allocates
        nothing and returns the shifts in the order they are stepped."""
        self.rec = rec
        self.spec = rec.spec
        self.n = 0
        shifts = sorted(rec.shifts)     # a measure's atom order fixes its float sums
        self._span0 = 1 if seed_entry is not None else rec.depth0
        self.frame, self.atoms, (self.lo, self.dims, self.strides) = self._layout(
            [a for _, a, _ in shifts], n_max + self._span0, frame)
        self._reach = self._reach_of(self.atoms)
        self.L = math.prod(self.dims)
        self.offs = [self._flat(atom) for atom in self.atoms]
        return shifts

    @classmethod
    def _layout(cls, atoms, span, frame=None):
        """(frame, the atoms' box coordinates, box) of ``span`` steps, planned in ``frame``
        or else in the one ``_frame`` picks; allocates nothing."""
        frame = frame or cls._frame(atoms, span)
        if frame is not None:
            atoms = [frame.coords(a, 1) for a in atoms]
        return frame, atoms, cls.box(atoms, span)

    @classmethod
    def _frame(cls, atoms, span):
        """The frame of a box for ``span`` steps of these atoms; None keeps the identity frame.

        The rule, stated once: of the candidate frames of ``_frames`` (an atom
        v0 and a basis B of Lambda0 made of differences from it), take the
        first whose box holds the fewest cells, and only when it holds
        strictly fewer than the identity frame's box.
        """
        best = math.prod(cls.box(atoms, span)[1])
        frame = None
        for widths, cand in _frames(tuple(sorted(set(atoms)))):
            cells = math.prod(span * w + 1 for w in widths)
            if cells < best:
                best, frame = cells, cand
        return frame

    @staticmethod
    def _reach_of(atoms):
        # per axis, the lowest and highest coordinate of an atom or the identity
        return [(min(0, *c), max(0, *c)) for c in zip(*atoms)]

    @classmethod
    def _span_box(cls, atoms, reach, span):
        # corners of the box holding every product of ``span`` atoms
        return [l * span for l, _ in reach], [h * span for _, h in reach]

    @classmethod
    def box(cls, atoms, span):
        """(lowest corner, dims, flat strides) of the box for ``span`` atoms; allocates nothing."""
        lo, hi = cls._span_box(atoms, cls._reach_of(atoms), span)
        dims = tuple(h - l + 1 for l, h in zip(lo, hi))
        strides = [0] * len(dims)
        acc = 1
        for i in reversed(cls.order or range(len(dims))):
            strides[i] = acc
            acc *= dims[i]
        return tuple(lo), dims, tuple(strides)

    def _active(self):
        # index corners (inclusive) of the box holding the current support
        lo, hi = self._span_box(self.atoms, self._reach, self.n + self._span0)
        return ([l - o for l, o in zip(lo, self.lo)], [h - o for h, o in zip(hi, self.lo)])

    def _hull(self):
        # the flat cells [a, b) that may hold the current support
        lo, hi = self._active()
        return self._flat(lo), self._flat(hi) + 1

    def _flat(self, idx):
        return sum(c * st for c, st in zip(idx, self.strides))

    def _lam(self, flat):
        # box coordinates (frame coordinates, or keys in the identity frame) of flat cells
        return np.stack([flat // st % dim + l
                         for st, dim, l in zip(self.strides, self.dims, self.lo)], axis=1)

    def _ranges(self, lo, hi):
        # the kernel's flat source ranges with their per-shift offsets
        return [(self._flat(lo), self._flat(hi) + 1, self.offs)]

    def _seed_cell(self, g):
        if (i := self._cell(g)) is None:
            raise ValidationError(f"seed element {g} lies off the box of {self.L} cells")
        return i

    def _cell(self, g):
        if self.frame is not None:
            g = self.frame.coords(g, self.n + self._span0)
            if g is None:
                return None
        i = 0
        for c, l, dim, st in zip(g, self.lo, self.dims, self.strides):
            if not 0 <= c - l < dim:
                return None
            i += (c - l) * st
        return i

    def step_once(self):
        self.W, self._buf = _kernels.lattice_step(self.W, self._buf, self.rec.P, self.tgt,
                                                  self.wts, self._ranges(*self._active()))
        self.n += 1

    def mass_at(self, g):
        i = self._cell(g)
        return 0.0 if i is None else float(self.W[:, i].sum())

    def joint_mass_at(self, s, g):
        i = self._cell(g)
        return 0.0 if i is None else float(self.W[s, i])

    def group_view(self):
        """Real embeddings and masses of every cell of the box, in memory order.

        The integer keys B lam of the cells are cached; the identity frame
        also caches their embedding, a folded one embeds n v0 + B lam.
        """
        if self._cell_keys is None:
            lam = self._lam(np.arange(self.L))
            self._cell_keys = lam if self.frame is None else self.frame.keys(lam, 0)
        if self.frame is not None:
            keys = self._cell_keys + (self.n + self._span0) * np.array(self.frame.v0)
            return _embed(self.spec, keys.T), self.W.sum(axis=0)
        if self._embed_cache is None:
            self._embed_cache = _embed(self.spec, self._cell_keys.T)
        return self._embed_cache, self.W.sum(axis=0)

    def to_table(self):
        grid = _grid(self.W, self.dims, self.strides)
        nz = np.nonzero(grid)
        if nz[0].size > EXPORT_MAX_ATOMS:
            raise ResourceLimitError(
                f"table export would produce {nz[0].size} atoms", completed=self.n
            )
        states, vals = nz[0], grid[nz]
        keys = np.stack(nz[1:], axis=1) + np.array(self.lo, dtype=np.int64)
        if self.frame is not None:  # group elements, in the identity frame's (s, g) order
            keys = self.frame.keys(keys, self.n + self._span0)
            order = np.lexsort(np.vstack([keys.T[::-1], states]))
            states, keys, vals = states[order], keys[order], vals[order]
        data = {(s, tuple(g)): w
                for s, g, w in zip(states.tolist(), keys.tolist(), vals.tolist())}
        return MassTable(self.n, "float", self.spec, data)


class _DenseHeisEngine(_DenseLatticeEngine):
    """Flat (y, x, z)-ordered Heisenberg box: one kernel range per y-slab.

    On the slab at coordinate y the increment (a, b, c) is the flat offset of
    the lattice step (a, b, c) plus the shear a*y (z has stride 1).
    """

    layout = "Heisenberg"
    order = (1, 0, 2)

    @staticmethod
    def _frame(atoms, span):
        return None             # the shear acts on group coordinates: no fold

    @classmethod
    def _span_box(cls, atoms, reach, span):
        lo, hi = super()._span_box(atoms, reach, span)
        zb = heis_z_bound(atoms, span)
        lo[2], hi[2] = -zb, zb
        return lo, hi

    def _ranges(self, lo, hi):
        # the active box cut into y-slabs; the slab at coordinate y adds the shear a*y
        sy = self.strides[1]
        first, last = self._flat(lo) - lo[1] * sy, self._flat(hi) - hi[1] * sy
        return [(first + iy * sy, last + iy * sy + 1,
                 [off + atom[0] * (iy + self.lo[1]) for off, atom in zip(self.offs, self.atoms)])
                for iy in range(lo[1], hi[1] + 1)]


class _PackedLatticeEngine(_DenseLatticeEngine):
    """Exact stepping of a lattice recursion on the dense box: one Python int per state.

    The numerators over den = d0 * D^n (as in ``_SparseEngine``) of state s
    are packed by Kronecker substitution into num[s] = sum_cell num(cell) *
    2^(b * cell), over the frame, box and flat strides that
    ``_DenseLatticeEngine`` plans.  A step mixes mixed[t] = sum_s Pnum(s, t)
    num[s] (mixed = num without P), skipping zero terms, and adds
    (mixed[t] << off * b) * wnum into new[t] for each shift, a right shift for
    a negative flat offset: one big-int operation per shift.  The width b
    holds every cell without a carry (see ``_make_engine``), so a mass reads
    (num[s] >> i * b) & mask and the total of a state is num[s] mod 2^b - 1.
    Masses leave as ``Fraction(num, den)``; ``to_table`` and ``group_view``
    read each int's bytes once and keep the nonzero cells.
    """

    layout = "packed lattice"

    def __init__(self, rec, n_max, seed_state=None, max_cells=DEFAULT_MAX_CELLS,
                 seed_entry=None):
        shifts = self._plan(rec, n_max, seed_entry)
        self.mode = "rational"
        S = rec.S
        dp, flat = (1, [1]) if rec.P is None else _numerators(list(itertools.chain(*rec.P)))
        dw, wts = _numerators([w for _, _, w in shifts])
        seed = rec.seed(seed_state, seed_entry)
        self.den, nums = _numerators(seed.values())
        if min(flat + wts + nums, default=0) < 0:   # a borrow would cross into the next cell
            raise ValidationError("exact lattice stepping needs nonnegative masses and weights")
        self._D = dp * dw
        self._P = None if rec.P is None else [flat[s * S:(s + 1) * S] for s in range(S)]
        into = [0] * S                  # the weight numerators into each state
        for (t, _, _), c in zip(shifts, wts):
            into[t] += c
        growth = max(sum(p * max(1, c) for p, c in zip(row, into)) for row in self._P or [[1]])
        self._b = b = -(-((sum(nums) * growth ** n_max).bit_length() + 1) // 8) * 8
        words = (2 if rec.P is None else 3) * S * -(-self.L * b // 64)
        if words > max_cells:
            raise ResourceLimitError(f"packed lattice box needs {words} 64-bit words of ints "
                                     f"at once, over the {max_cells}-cell guard", completed=0)
        self._mask = (1 << b) - 1
        self._shifts = [(t, off * b, c) for (t, _, _), off, c in zip(shifts, self.offs, wts) if c]
        self.num = [0] * S
        for ((s, g), _), v in zip(seed.items(), nums):
            self.num[s] += v << self._seed_cell(g) * b

    def step_once(self):
        num = self.num
        mixed = num if self._P is None else [
            sum(row[t] * w for row, w in zip(self._P, num) if row[t] and w)
            for t in range(len(num))]
        new = [0] * len(num)
        for t, sh, c in self._shifts:
            m = mixed[t]
            if m:
                m = m << sh if sh >= 0 else m >> -sh
                new[t] += m if c == 1 else m * c
        self.num = new
        self.n += 1
        self.den *= self._D

    def _out(self, num):
        return Fraction(num, self.den)

    def total(self):
        return self._out(sum(w % self._mask for w in self.num))

    def mass_at(self, g):
        i = self._cell(g)
        return self._out(0 if i is None else sum(w >> i * self._b & self._mask for w in self.num))

    def joint_mass_at(self, s, g):
        i = self._cell(g)
        return self._out(0 if i is None else self.num[s] >> i * self._b & self._mask)

    def _cells(self):
        # the group elements (rows, in key order) of the cells where some state is
        # nonzero, and their numerators, one list per state
        nb = self._b // 8
        raw = [w.to_bytes(self.L * nb, "little") for w in self.num]
        nz = np.zeros(self.L, dtype=bool)
        for r in raw:
            nz |= np.frombuffer(r, np.uint8).reshape(self.L, nb).any(axis=1)
        flat = np.flatnonzero(nz)
        keys = self._lam(flat)
        if self.frame is not None:
            keys = self.frame.keys(keys, self.n + self._span0)
            order = np.lexsort(keys.T[::-1])
            flat, keys = flat[order], keys[order]
        return keys, [[int.from_bytes(r[i * nb:i * nb + nb], "little") for i in flat.tolist()]
                      for r in raw]

    def group_view(self):
        """Real embeddings and Fraction masses of the nonzero cells, in key order."""
        keys, vals = self._cells()
        mass = np.array([self._out(sum(col)) for col in zip(*vals)], dtype=object)
        return _embed(self.spec, keys.T), mass

    def to_table(self):
        keys, vals = self._cells()
        keys = [tuple(g) for g in keys.tolist()]
        data = {(s, g): self._out(v) for s, row in enumerate(vals)
                for g, v in zip(keys, row) if v}
        return MassTable(self.n, self.mode, self.spec, data)


def _dense_layout(rec):
    """The dense engine class of a recursion, or None where the sparse engine steps it.

    A lattice target (integer or embedded, with a key) is laid out on the
    dense box: float on ``_DenseLatticeEngine``, rational packed on
    ``_PackedLatticeEngine``.  The Heisenberg group is laid out in float only.
    """
    spec = rec.spec
    if isinstance(spec, (IntegerLattice, EmbeddedRealLattice)) and spec.key_size > 0:
        return _DenseLatticeEngine if rec.mode == "float" else _PackedLatticeEngine
    if rec.mode == "float" and isinstance(spec, HeisenbergZ):
        return _DenseHeisEngine
    return None


def _make_engine(rec, n_max, seed_state=None, max_cells=DEFAULT_MAX_CELLS,
                 max_atoms=DEFAULT_MAX_ATOMS, seed_entry=None):
    """Engine for ``n_max`` steps of a recursion, on the layout ``_dense_layout`` picks.

    Float lattice and Heisenberg recursions step dense float64 boxes.
    Rational lattice recursions step packed ints over the same box
    (``_PackedLatticeEngine``).  Rational Heisenberg work, finite groups and
    direct products step the sparse engine.

    ``max_cells`` bounds the float64 cells of every buffer a dense engine
    allocates: the table and the step buffer, which also receives the mixed
    table P^T W when states mix, so 2 S L cells for a box of S x L.  A
    packed engine's cells are b bits wide, b the bit length of T0 * G^n_max
    plus one, rounded up to whole bytes: T0 sums the step-0 numerators (d0
    for a seed of mass 1) and G, the largest row sum of Pnum(s, t) * max(1,
    the weight numerators into t), bounds a step's growth (G = D for a
    stochastic P and weights summing to 1).  No cell, state total or
    intermediate sum reaches 2^(b-1), so nothing carries.  Its table, the
    step's new table and, when states mix, the mixed table hold S ints of
    ceil(L b / 64) 64-bit words each, counted against ``max_cells``.  Both
    guards are checked before anything is allocated.  ``max_atoms`` bounds
    the masses a sparse table holds after every step: S per group element.
    """
    dense = _dense_layout(rec)
    if dense is not None:
        return dense(rec, n_max, seed_state, max_cells, seed_entry)
    return _SparseEngine(rec, seed_state, seed_entry, max_atoms)


def _grid(W, dims, strides):
    """A flat (S, L) table viewed as (S, key coordinates...), whatever the memory order."""
    return np.lib.stride_tricks.as_strided(
        W, (W.shape[0],) + tuple(dims), (W.strides[0],) + tuple(W.itemsize * st for st in strides))


def _dual(rec, weights=None):
    """The time-reversed recursion of ``_masses``: mixing P^T (a step mixes by P), a
    shift (t, atom^-1, w) per shift (t, atom, w), and step-0 masses c_t * w at
    (t, atom^-1) for the ``weights`` c (1 without).  Those masses are one atom
    from e, so they sit at depth 1 (``depth0``).
    """
    c = [1.0] * rec.S if weights is None else weights
    shifts = tuple((t, rec.spec.inverse(a), w) for t, a, w in rec.shifts)
    return Recursion(rec.spec, rec.mode, rec.S, None if rec.P is None else rec.P.T, shifts,
                     tuple(((t, a), c[t] * w) for t, a, w in shifts), depth0=1)


def _pairing(rec, n_max, seed_entry=None, targets=()):
    """(K, forward layout, dual layout) when ``_masses`` pairs at half depth, else None.

    The rule, stated once: a float recursion on a dense layout pairs when the
    boxes of K = ceil(n_max / 2) steps and of the dual's n_max - K, S rows
    each, plus a fixed cost (``PAIR_OVERHEAD_CELLS`` on a lattice, see the
    README; 0 on the Heisenberg layout, whose rule stays as first stated)
    hold fewer cells than the box of n_max steps: never one coordinate, nor
    Heisenberg targets g != e (a right translation shears).  The dual is
    planned in (-v0, B) for the forward frame (v0, B): its atoms sit at -lam.
    """
    cls = _dense_layout(rec)
    e = rec.spec.identity()
    if cls not in (_DenseLatticeEngine, _DenseHeisEngine) or (
            cls is _DenseHeisEngine and any(tuple(g) != e for g in targets)):
        return None
    atoms = [a for _, a, _ in rec.shifts]
    span0 = 1 if seed_entry is not None else 0
    K = (n_max + 1) // 2
    fwd = cls._layout(atoms, K + span0)
    tied = None
    if cls is _DenseLatticeEngine:
        v0, B = (fwd[0].v0, fwd[0].B) if fwd[0] else ((0,) * len(e), np.eye(len(e), dtype=int))
        tied = _Frame(tuple(-v for v in v0), B.tolist())
    dual = cls._layout([rec.spec.inverse(a) for a in atoms], n_max - K, tied)
    half, L, full = (math.prod(lay[2][1]) for lay in
                     (fwd, dual, cls._layout(atoms, n_max + span0)))
    cost = 0 if cls is _DenseHeisEngine else PAIR_OVERHEAD_CELLS
    return None if rec.S * (half + L) + cost >= rec.S * full else (K, fwd, dual)


def _masses(rec, targets, depths, weights=None, seed_state=None, seed_entry=None,
            max_cells=DEFAULT_MAX_CELLS, max_atoms=DEFAULT_MAX_ATOMS):
    """{n: [sum_t c_t W_n(t, g) for each target g]} at ``depths``, for the state ``weights``
    c (without them, the group marginal).

    Where ``_pairing`` admits the recursion, write the (K + k)-step product
    as Y * X_K; X_K = Y^-1 g is a walk of the dual recursion (``_dual``,
    seeded with c), and with H_k the dual after k - 1 steps, on a lattice

        sum_t c_t W_{K+k}(t, g) = sum_{s, h} (P^T W_K)(s, h) * H_k(s, h - g),

    and on the Heisenberg group the same at g = e.  A dual cell lam at depth
    k holds -k v0 + B lam, so g at depth K + k reads T_c: P^T W_K at lam + c,
    c the coordinates of g at that depth (g in the identity frame), laid out
    over the overlap of the boxes and dotted with H_k on its active cells;
    0.0 off the coset.  The terms are nonnegative: zeros stay exact.
    ``max_cells`` counts the float64 buffers held at once, checked before
    anything is allocated: the K-step table, its step buffer and T_c; then
    T_c, the dual's two buffers and, when several c are read, P^T W_K.
    A one-coordinate float lattice recursion is read b depths a block
    (``_blocked_masses``) where ``_block_length`` finds that blocks pay.
    Otherwise one engine steps to the deepest depth (K is that depth).
    """
    want = set(depths)
    n_max = max(want)
    b = _on_line(rec) and _block_length(rec, n_max, len(want), len(targets),
                                        1 if seed_entry is not None else 0, max_cells)
    if b:
        return _blocked_masses(rec, targets, sorted(want), b, weights, seed_state, seed_entry,
                               max_cells)
    plan = _pairing(rec, n_max, seed_entry, targets)
    if plan is None:
        K, eng = n_max, _make_engine(rec, n_max, seed_state, max_cells, max_atoms, seed_entry)
    else:
        K, (frame, _, (flo, fdims, fstrides)), (tied, datoms, (lo, dims, strides)) = plan
        cls, S, L, half = _dense_layout(rec), rec.S, math.prod(dims), math.prod(fdims)
        span0 = 1 if seed_entry is not None else 0
        shift, deepest = {}, {}     # n past K -> each target's c (None off the coset); c -> k
        for n in sorted(d for d in want if d > K):
            shift[n] = [tuple(g) if frame is None else frame.coords(g, n + span0)
                        for g in targets]
            deepest.update((c, n - K) for c in shift[n] if c is not None)
        kept = len(deepest) > 1
        peak = S * max(2 * half + L, half * kept + 3 * L)
        if peak > max_cells:
            raise ResourceLimitError(f"paired dense {cls.layout} boxes need {peak} cells at "
                                     f"once, over the {max_cells}-cell guard", completed=0)
        eng = cls(rec, K, seed_state, max_cells, seed_entry, frame)
    out = {}
    for n in range(K + 1):
        if n:
            eng.step_once()
        if n in want:
            out[n] = [eng.mass_at(g) if weights is None else
                      sum(eng.joint_mass_at(s, g) * c for s, c in enumerate(weights))
                      for g in targets]
    if plan is None:
        return out
    T = eng.W if rec.P is None else np.matmul(rec.P.T, eng.W, out=eng._buf)
    Tc = np.zeros((S, L))
    reach = cls._reach_of(datoms)

    def at(ranges, corner):     # lam ranges as index slices of a box with this lowest corner
        return (slice(None),) + tuple(slice(a - q, b - q) for (a, b), q in zip(ranges, corner))

    def lay(c):                 # T_c on the dual's active box at the last depth c is read
        region = [(a, h + 1) for a, h in zip(*cls._span_box(datoms, reach, deepest[c]))]
        ov = [(max(a, p - x), min(b, p + d - x)) for (a, b), p, d, x in zip(region, flo, fdims, c)]
        grid = _grid(Tc, dims, strides)
        grid[at(region, lo)] = 0.0
        if all(a < b for a, b in ov):
            grid[at(ov, lo)] = _grid(T, fdims, fstrides)[at(ov, map(operator.sub, flo, c))]
        return c

    laid = lay(next(iter(deepest))) if deepest else None
    del eng                     # the K-step buffers are not held with the dual engine
    T = T if kept else None     # P^T W_K stays only to lay out another shift
    dual = cls(_dual(rec, weights), n_max - K - 1, max_cells=max_cells, frame=tied)
    for k in range(1, n_max - K + 1):
        if k > 1:
            dual.step_once()
        a, b = dual._hull()
        for c in shift.get(K + k, ()):
            if c is not None and c != laid:
                laid = lay(c)
            dot = 0.0 if c is None else sum(h @ t for h, t in zip(dual.W[:, a:b], Tc[:, a:b]))
            out.setdefault(K + k, []).append(float(dot))
    return out


def _identity_returns(rec, n_max, weights=None, seed_state=None, seed_entry=None,
                      max_cells=DEFAULT_MAX_CELLS, max_atoms=DEFAULT_MAX_ATOMS):
    """sum_t c_t W_n(t, e) for n = 0..n_max, for the state ``weights`` c (``_masses``)."""
    got = _masses(rec, [rec.spec.identity()], range(n_max + 1), weights, seed_state, seed_entry,
                  max_cells, max_atoms)
    return [got[n][0] for n in range(n_max + 1)]


def _stepped(rec, n, *args, **kw):
    """An engine for ``rec`` (``_make_engine`` arguments) after n steps."""
    eng = _make_engine(rec, n, *args, **kw)
    for _ in range(n):
        eng.step_once()
    return eng


def _first_positive(rec, g, n_max, seed_state=None, max_cells=DEFAULT_MAX_CELLS,
                    max_atoms=DEFAULT_MAX_ATOMS):
    """The first n in 1..n_max with a positive mass at g, or None.

    Engines planned for 8, 16, 32, ... steps each step from the seed until
    the first positive mass, so the steps and the box stay within a few
    times what that mass needs, not what n_max would.
    """
    done = 0
    while done < n_max:
        span = min(max(8, 2 * done), n_max)
        eng = _make_engine(rec, span, seed_state, max_cells, max_atoms)
        for n in range(1, span + 1):
            eng.step_once()
            if n > done and eng.mass_at(g) > 0:
                return n
        done = span
    return None


def _point_masses(rec, targets, depths, seed_state=None, max_cells=DEFAULT_MAX_CELLS,
                  max_atoms=DEFAULT_MAX_ATOMS):
    """{n: [group-marginal mass at each target]} for the requested depths n only.

    The rule, stated once: float mode on a dense lattice layout with one key
    coordinate is raised to each depth by binary powering
    (``_powered_masses``) when its convolution cells are at most twice its
    stepped cells x shifts (``_powering_pays``); every other recursion is
    read at the requested depths by ``_masses``, paired at half depth where
    ``_pairing`` admits it and else stepped to the deepest depth.
    """
    depths = sorted(set(depths))
    if _on_line(rec) and _powering_pays(rec, depths[-1]):
        return _powered_masses(rec, targets, depths, seed_state, max_cells)
    return _masses(rec, targets, depths, seed_state=seed_state, max_cells=max_cells,
                   max_atoms=max_atoms)


def _on_line(rec):
    """Whether a recursion is a float one on a dense lattice layout with one key coordinate."""
    return _dense_layout(rec) is _DenseLatticeEngine and rec.spec.key_size == 1


def _line_frame(rec):
    """(v0, B, w) of a one-coordinate recursion: its smallest atom, the gcd of its
    atoms' differences and its span (largest atom - v0) / B."""
    atoms = [a for _, (a,), _ in rec.shifts]
    v0 = min(atoms)
    B = math.gcd(*(a - v0 for a in atoms)) or 1     # one atom: every lam is 0
    return v0, B, (max(atoms) - v0) // B


def _line_kernel(rec):
    """The one-step kernel of a one-coordinate recursion in its ``_line_frame``: the
    S x S matrix K of lam-arrays K[t, s] = P(s, t) k_t, k_t the weights of the shifts
    into state t (without P, the one state's weights), so that W_{n+1} = K W_n."""
    v0, B, w = _line_frame(rec)
    P = np.ones((1, 1)) if rec.P is None else np.asarray(rec.P, dtype=np.float64)
    K = np.zeros((rec.S, rec.S, w + 1))
    for t, (a,), wt in rec.shifts:
        K[t, :, (a - v0) // B] += P[:, t] * float(wt)
    return K


def _stepped_cost(rec, n, w):
    # stepping n steps: S (shifts) (k w + 1) cells at step k plus STEP_OVERHEAD_CELLS a step
    return rec.S * len(rec.shifts) * (w * n * (n - 1) // 2 + n) + STEP_OVERHEAD_CELLS * n


def _powering_pays(rec, n):
    """Whether powering a one-coordinate float recursion to depth n beats stepping it.

    Powering costs about the convolution cells of its squarings, S^3 sum_i
    (2^i w + 1)^2; stepping costs S (shifts) (k w + 1) cells at step k plus
    ``STEP_OVERHEAD_CELLS`` per step, and a stepped cell about twice a
    convolution cell.  So powering pays when the convolution cells are at
    most twice the stepped ones.  Fitted on 88 walks and depths (S = 1 to 4,
    w = 1 to 100, n = 100 to 2000; see README), the rule is within 30 % of
    the faster path on all but two.
    """
    S, w = rec.S, _line_frame(rec)[2]
    conv = S ** 3 * sum(((w << i) + 1) ** 2 for i in range(n.bit_length() - 1))
    return conv <= 2 * _stepped_cost(rec, n, w)


def _block_cells(S, w, b, span):
    """float64 cells that ``_blocked_masses`` holds at once with blocks of b to ``span``
    steps (the deepest depth plus span0): the R_j (S b L_R cells, L_R = (b - 1) w + 1),
    K and K^b with, while K^b is built, K^(b/2) and one convolution output (S^2 (2 b w +
    w + 3)), plus the larger of W_m, W_{m+b} and one convolution output ((2S + 1) L_N,
    L_N = span w + 1) and a read's W_m, its padded copy, gathered windows and selected
    R_j (2S (L_N + L_R - 1 + b L_R))."""
    lr, top = (b - 1) * w + 1, span * w + 1
    return (S * b * lr + S * S * (2 * b * w + w + 3)
            + max((2 * S + 1) * top, 2 * S * (top + lr - 1 + b * lr)))


def _block_length(rec, n, reads, targets, span0=0, max_cells=DEFAULT_MAX_CELLS):
    """The block length b of ``_blocked_masses`` to depth n, or None where stepping pays.

    The rule of ``_powering_pays``, extended.  For b a power of two, 2 <= b
    <= n + 1, a blocked pass costs the convolution cells of building R_j
    (S^2 (w + 1) (j w + 1) for j < b - 1) and K^b (S^3 sum_{2^i < b}
    (2^i w + 1)^2), of each advance from a depth m that another block
    follows (S^2 (b w + 1) ((m + span0) w + 1)) and of ``reads`` depths of
    ``targets`` gathered reads (S ((b - 1) w + 1) cells each), plus
    ``STEP_OVERHEAD_CELLS`` for each of its convolutions (S^2 a product of
    an S x S matrix with S rows, S^3 a squaring) and of its per-block reads
    of each target: half the fixed cost of a step, in stepped cells, for a
    call that makes a few numpy calls.  The b of least cost among those whose
    buffers fit ``max_cells`` (``_block_cells``) blocks when that cost is at
    most twice the stepped cells.
    """
    S, w = rec.S, _line_frame(rec)[2]
    best = None
    for i in range(1, (n + 1).bit_length()):
        b = 1 << i
        m = -(-(n + 1) // b) - 1          # blocks that another block follows
        cells = (S * S * (w + 1) * (w * (b - 1) * (b - 2) // 2 + b - 1)
                 + S ** 3 * sum(((w << k) + 1) ** 2 for k in range(i))
                 + S * S * (b * w + 1) * (w * b * m * (m - 1) // 2 + m * (span0 * w + 1))
                 + reads * targets * S * ((b - 1) * w + 1))
        calls = S * S * (b - 1 + m) + S ** 3 * i + (m + 1) * targets
        if _block_cells(S, w, b, n + span0) > max_cells:
            continue
        if best is None or cells + STEP_OVERHEAD_CELLS * calls < best[0]:
            best = (cells + STEP_OVERHEAD_CELLS * calls, b)
    return best[1] if best and best[0] <= 2 * _stepped_cost(rec, n, w) else None


def _conv_product(A, X):
    """Product of an S x S matrix of lam-arrays with a stack X of S (or S x S) of them.

    Entry by entry, out[t, ...] = sum_j A[t, j] * X[j, ...], each product one
    direct ``np.convolve`` (a sum of nonnegative terms, no FFT) added in
    order of j.  Holds A, X, out and one convolution output at a time.
    """
    out = np.zeros(X.shape[:-1] + (A.shape[-1] + X.shape[-1] - 1,))
    for t in range(A.shape[0]):
        for idx in np.ndindex(X.shape[1:-1]):
            for j in range(A.shape[1]):
                out[(t,) + idx] += np.convolve(A[t, j], X[(j,) + idx])
    return out


def _read_product(A, u, lam):
    """sum_t (A u)[t, lam], the top product read at one cell: one dot product per (t, s)."""
    lo, hi = max(0, lam - u.shape[-1] + 1), min(A.shape[-1] - 1, lam)
    total = 0.0
    if lo <= hi:
        for t in range(A.shape[0]):
            for s in range(A.shape[1]):
                total += float(np.dot(A[t, s, lo:hi + 1], u[s, lam - hi:lam - lo + 1][::-1]))
    return total


def _powered_masses(rec, targets, depths, seed_state, max_cells):
    """``_point_masses`` of a one-coordinate float lattice recursion, by binary powering.

    The dense lattice frame in one dimension: v0 is the smallest atom and B
    the gcd of the atoms' differences, so the mass of g at depth n sits at
    lam = (g - n v0) / B, in [0, n w] for w = (largest atom - v0) / B, and
    g off the coset reads 0.0.  The one-step kernel is the S x S matrix K of
    lam-arrays K[t, s] = P(s, t) k_t, k_t the weights of the shifts into
    state t (without P, the one state's weights), so W_n = K^n c for the
    seed c (the stationary or seeded state masses at lam = 0).  The
    squarings K^(2^i) are built once, up to the deepest depth.  Depth
    n = T + r, T its top power of two, reads sum_t (K^T u_r)[t, lam] as dot
    products at the target cells, where u_r = K^r c is advanced by the
    squarings of the bits of r - r' from the previous depth's u_r' (from c
    when r < r'), so n + stride costs the products of the bits of stride
    when n and n + stride share their top power.

    ``max_cells`` counts every float64 buffer held at once, checked before
    anything is allocated: the squarings (S^2 arrays of 2^i w + 1 cells for
    every 2^i <= the deepest depth) and the S seed masses, plus the larger
    of one convolution output of the last squaring and, while u is
    advanced, the u read and the u written (S rows of at most r w + 1
    cells, r the largest depth less its top power) and one convolution
    output of one row.
    """
    S = rec.S
    v0, B, w = _line_frame(rec)
    # cells of one entry of K^(2^i) for every 2^i <= the deepest depth
    sizes = [(w << i) + 1 for i in range(depths[-1].bit_length())]
    r_max = max(n - (1 << n.bit_length() >> 1) for n in depths)
    cells = S * S * sum(sizes) + S + max(sizes[-1:] + [(2 * S + 1) * (r_max * w + 1)])
    if cells > max_cells:
        raise ResourceLimitError(f"powered one-dimensional path needs {cells} cells at once, "
                                 f"over the {max_cells}-cell guard", completed=0)
    powers = [_line_kernel(rec)]
    while len(powers) < len(sizes):
        powers.append(_conv_product(powers[-1], powers[-1]))
    c = np.zeros((S, 1))
    for (s, _), m in rec.seed(seed_state).items():
        c[s, 0] = float(m)
    r_u, u = 0, c
    out = {}
    for n in depths:
        r = n - (1 << n.bit_length() >> 1)
        if r < r_u:
            r_u, u = 0, c
        for i in range((r - r_u).bit_length()):
            if (r - r_u) >> i & 1:
                u = _conv_product(powers[i], u)
        r_u = r
        row = []
        for (g,) in targets:
            lam, off = divmod(g - n * v0, B)
            if off:
                row.append(0.0)
            elif n:
                row.append(_read_product(powers[n.bit_length() - 1], u, lam))
            else:
                row.append(float(c.sum()) if lam == 0 else 0.0)
        out[n] = row
    return out


def _blocked_masses(rec, targets, depths, b, weights=None, seed_state=None, seed_entry=None,
                    max_cells=DEFAULT_MAX_CELLS):
    """``_masses`` of a one-coordinate float lattice recursion, b depths a block.

    In the frame of ``_powered_masses`` the table after n steps is
    W_n = K^n W_0, W_0 the step-0 masses at lam = (g - span0 v0) / B (span0
    = 1 with ``seed_entry``, as in the dense engine; a seed off that box
    raises).  With R_j = c^T K^j, the S lam-arrays sum_t c_t K^j[t, s] for
    the state weights c (1 without), the block at depth m reads its depths
    m + j, j < b, as

        sum_t c_t W_{m+j}(t, g) = sum_s sum_h W_m[s, h] R_j[s, lam - h],

    lam the coordinate of g at depth m + j, in one gathered product per
    target; then W_{m+b} = K^b W_m is one ``_conv_product``.  The R_j
    (R_{j+1} = K^T R_j) and K^b (by squaring) are built once.  Every sum
    adds nonnegative terms, so zeros stay exact, and g off the coset or the
    box reads 0.0.  ``max_cells`` counts every float64 buffer held at once,
    checked before anything is allocated (``_block_cells``).
    """
    S = rec.S
    v0, B, w = _line_frame(rec)
    span0 = 1 if seed_entry is not None else rec.depth0
    n_max, lr = depths[-1], (b - 1) * w + 1
    cells = _block_cells(S, w, b, n_max + span0)
    if cells > max_cells:
        raise ResourceLimitError(f"blocked one-dimensional path needs {cells} cells at once, "
                                 f"over the {max_cells}-cell guard", completed=0)
    W = np.zeros((S, span0 * w + 1))
    for (s, (g,)), mass in rec.seed(seed_state, seed_entry).items():
        lam, off = divmod(g - span0 * v0, B)
        if off or not 0 <= lam <= span0 * w:
            raise ValidationError(f"seed element {(g,)} lies off the box of {W.shape[1]} cells")
        W[s, lam] = float(mass)
    K = _line_kernel(rec)
    R = np.zeros((S, b, lr))        # R[s, j] = R_j[s] reversed, zero-padded on the left
    r = np.ones((S, 1)) if weights is None else np.array(weights, dtype=np.float64)[:, None]
    for j in range(b):
        R[:, j, lr - 1 - j * w:] = r[:, ::-1]
        if j < b - 1:
            r = _conv_product(K.transpose(1, 0, 2), r)
    Kb = K
    for _ in range(b.bit_length() - 1):
        Kb = _conv_product(Kb, Kb)
    want, out = set(depths), {}
    for m in range(0, n_max + 1, b):
        js = [j for j in range(b) if m + j in want]
        if js:
            # Wp[s, lam + q] is W_m[s, lam - (L_R - 1 - q)], zero off the box
            Wp = np.zeros((S, W.shape[1] + 2 * lr - 2))
            Wp[:, lr - 1:lr - 1 + W.shape[1]] = W
            win = np.lib.stride_tricks.as_strided(Wp, (S, W.shape[1] + lr - 1, lr),
                                                  Wp.strides + Wp.strides[1:])
            rows = []
            for (g,) in targets:
                row = [0.0] * len(js)
                on = [(x, j, q) for x, j in enumerate(js)
                      for q, o in [divmod(g - (m + j + span0) * v0, B)]
                      if not o and 0 <= q <= (m + j + span0) * w]
                if on:
                    xs, jr, qs = map(list, zip(*on))
                    for x, v in zip(xs, np.einsum("sjq,sjq->j", R[:, jr], win[:, qs]).tolist()):
                        row[x] = v
                rows.append(row)
            out.update((m + j, [row[x] for row in rows]) for x, j in enumerate(js))
        if m + b <= n_max:
            W = _conv_product(Kb, W)
    return out


# ------------------------------------------------------------- public ops

def zero_table(system, cocycle, mode="rational", seed_state=None) -> MassTable:
    """Step-0 table: all mass at the identity, stationary state marginal."""
    return _SparseEngine(walk_recursion(system, cocycle, mode), seed_state).to_table()


def step(table: MassTable, system, cocycle, max_atoms=DEFAULT_MAX_ATOMS) -> MassTable:
    """One left-increment step of a sparse table."""
    eng = _SparseEngine(walk_recursion(system, cocycle, table.mode), data=table.data,
                        n=table.n, max_atoms=max_atoms)
    eng.step_once()
    return eng.to_table()


def distribution(system, cocycle, n, mode="rational", seed_state=None,
                 max_cells=DEFAULT_MAX_CELLS, max_atoms=DEFAULT_MAX_ATOMS) -> MassTable:
    """Law of the n-step product (joint with the state), from the step-1 seed."""
    if n < 0:
        raise ValidationError("n must be >= 0")
    return _stepped(walk_recursion(system, cocycle, mode), n, seed_state, max_cells,
                    max_atoms).to_table()


def _trajectory(eng, targets, n_max):
    rows = [[eng.mass_at(t) for t in targets]]
    for _ in range(n_max):
        eng.step_once()
        rows.append([eng.mass_at(t) for t in targets])
    return rows


def mass_trajectory(system, cocycle, targets, n_max, mode="float", seed_state=None,
                    max_cells=DEFAULT_MAX_CELLS, max_atoms=DEFAULT_MAX_ATOMS):
    """Masses at fixed group elements for every n <= n_max (one forward pass).

    Returns a list of rows, row n holding the mass of each target at step n.
    Bernoulli systems step one state row (``marginal_recursion``).
    """
    targets = [_element(cocycle.spec, t) for t in targets]
    eng = _make_engine(marginal_recursion(system, cocycle, mode), n_max, seed_state, max_cells,
                       max_atoms)
    return _trajectory(eng, targets, n_max)


def return_sequence(system, cocycle, n_max, mode="float", max_cells=DEFAULT_MAX_CELLS,
                    seed_state=None, max_atoms=DEFAULT_MAX_ATOMS):
    """Identity-return masses for n = 0..n_max (``_identity_returns`` of the marginal walk)."""
    return _identity_returns(marginal_recursion(system, cocycle, mode), n_max,
                             seed_state=seed_state, max_cells=max_cells, max_atoms=max_atoms)


@dataclass
class RatioReport:
    g: tuple
    ns: list
    ratios: list
    deviations: list
    stride: int
    first_valid_n: int | None
    periodic: bool
    note: str = ""
    zero_ns: list = field(default_factory=list)

    def worst(self):
        return max(self.deviations) if self.deviations else math.inf

    def rows(self):
        return [
            (n, "step_ratio", r, 1.0, d)
            for n, r, d in zip(self.ns, self.ratios, self.deviations)
        ]


def ratio_sequence(system, cocycle, g, ns, mode="float", stride=1, **kw) -> RatioReport:
    """Successive-step mass ratios mu^{n+stride}(g) / mu^n(g).

    The masses are read at the requested depths only (``_point_masses``).  A
    requested n whose mass at n is zero (a structural zero, or in float mode
    an underflow) has no ratio: it is left out of ``ns`` and listed in
    ``zero_ns``.  Walks with a degenerate increment lattice never return at
    odd steps; they are accepted with stride 2 and flagged as periodic
    rather than rejected.
    """
    g = _element(cocycle.spec, g)
    ns = sorted(set(int(n) for n in ns))
    if stride < 1:
        raise ValidationError("the stride must be >= 1")
    if not ns or ns[0] < 0:
        raise ValidationError("ratios need at least one n, each n >= 0")
    rec = marginal_recursion(system, cocycle, mode)
    masses = _point_masses(rec, [g], ns + [n + stride for n in ns], **kw)
    first_valid = _first_positive(rec, g, ns[-1] + stride, **kw)
    ap = check_aperiodicity_algebraic(system, cocycle)
    periodic = not ap.full
    ratios, devs, kept, zeros = [], [], [], []
    for n in ns:
        (den,), (num,) = masses[n], masses[n + stride]
        if den == 0:
            zeros.append(n)
            continue
        r = float(num / den)
        kept.append(n)
        ratios.append(r)
        devs.append(abs(r - 1.0))
    note = ""
    if periodic:
        note = (
            f"increment lattice has index {ap.index}: aperiodicity fails, "
            f"compare strides that are multiples of the period"
        )
    return RatioReport(g, kept, ratios, devs, stride, first_valid, periodic, note=note,
                       zero_ns=zeros)


@dataclass
class CrossRatioReport:
    g: tuple
    n: int
    value: float
    clt_reference: float | None
    deviation: float

    def rows(self):
        return [(self.n, "cross_ratio", self.value, 1.0, self.deviation)]


def _clt_reference(system, cocycle, g, n):
    # reference curve exp(-<g, Sigma^{-1} g>/2n) from per-step stationary moments
    ab = cocycle.abelianized()
    k = ab.spec.key_size
    if k == 0:
        return None
    vals = np.array(ab.values, dtype=float)
    pi = system.pi_float
    mean = pi @ vals
    cov = (vals - mean).T * pi @ (vals - mean)
    gab = np.array(cocycle.spec.abelianize(tuple(g)), dtype=float)
    try:
        q = float(gab @ np.linalg.solve(cov, gab))
    except np.linalg.LinAlgError:
        return None
    return math.exp(-q / (2 * n))


def cross_ratio(system, cocycle, g, n, mode="float", **kw) -> CrossRatioReport:
    """mu^n(g) / mu^n(e), read at depth n only, with a local-CLT reference for lattice targets."""
    if n < 1:
        raise ValidationError("cross ratios need n >= 1")
    g = _element(cocycle.spec, g)
    e = cocycle.spec.identity()
    rec = marginal_recursion(system, cocycle, mode)
    num, den = _point_masses(rec, [g, e], [n], **kw)[n]
    if den == 0:
        first = _first_positive(rec, e, n, **kw)
        raise ValidationError(
            f"mu^{n}(e) = 0: no valid cross ratio at n={n} (first positive n: {first})"
        )
    value = float(num / den)
    return CrossRatioReport(g, n, value, _clt_reference(system, cocycle, g, n),
                            abs(value - 1.0))


@dataclass
class WindowMassReport:
    box: tuple
    g_shift: tuple | None
    n: int
    value: float
    boundary_atoms: int

    def rows(self):
        return [(self.n, "window_mass", self.value, "", self.boundary_atoms)]


def window_mass(system, cocycle, E, n, g_shift=None, mode="float", strict=False,
                **kw) -> WindowMassReport:
    """Mass of the group elements whose real embedding lands in the open box E (+ shift).

    Group elements within 1e-9 of a face are counted by strict inequality but
    flagged, each once; in strict mode a flag raises instead.
    """
    spec = cocycle.spec
    box = _as_box(E, spec)
    if g_shift is not None:
        g_shift = _element(spec, g_shift)
    eng = _stepped(marginal_recursion(system, cocycle, mode), n, **kw)
    val, flagged = _window(eng.group_view(), spec, box, g_shift)
    if strict and flagged:
        raise ValidationError(f"{flagged} atoms within {BOUNDARY_ATOL} of the window boundary")
    return WindowMassReport(box, g_shift, n, float(val), flagged)


@dataclass
class WindowPairReport:
    n: int
    pairs: list                  # (g, g1, ratio)
    max_deviation: float


def window_pair_ratios(system, cocycle, E, shifts, n, mode="float", **kw) -> WindowPairReport:
    """Sampled uniformity of window-mass ratios across translate pairs.

    For every ordered pair (g, g1) of the given shifts, reports
    mu^n(E + g) / mu^n(E + g - g1); uniform convergence to 1 over all
    translates cannot be tested exhaustively, so a finite sample is reported
    with its worst deviation.
    """
    spec = cocycle.spec
    box = _as_box(E, spec)
    shifts = [_element(spec, s) for s in shifts]
    view = _stepped(marginal_recursion(system, cocycle, mode), n, **kw).group_view()
    needed = set(shifts)
    for g in shifts:
        for g1 in shifts:
            needed.add(spec.multiply(g, spec.inverse(g1)))
    masses = {t: float(_window(view, spec, box, t)[0]) for t in needed}
    pairs = []
    worst = 0.0
    for g in shifts:
        for g1 in shifts:
            t = spec.multiply(g, spec.inverse(g1))
            if masses[t] == 0:
                continue
            r = masses[g] / masses[t]
            pairs.append((g, g1, r))
            worst = max(worst, abs(r - 1.0))
    return WindowPairReport(n, pairs, worst)


@dataclass
class StoneReport:
    n: int
    ratio: float
    target: float
    deviation: float
    boundary_atoms: int

    def rows(self):
        return [(self.n, "stone_ratio", self.ratio, self.target, self.deviation)]


def stone_ratio(system, cocycle, E, A, n, mode="float", **kw) -> StoneReport:
    """Window-mass ratio against the Lebesgue volume ratio |E|/|A|."""
    spec = cocycle.spec
    boxE = _as_box(E, spec)
    boxA = _as_box(A, spec)
    view = _stepped(marginal_recursion(system, cocycle, mode), n, **kw).group_view()
    vE, fE = _window(view, spec, boxE)
    vA, fA = _window(view, spec, boxA)
    if vA == 0:
        raise ValidationError(f"window A has zero mass at n={n}")
    target = box_volume(boxE) / box_volume(boxA)
    ratio = float(vE / vA)
    return StoneReport(n, ratio, target, abs(ratio - target), fE + fA)


# ----------------------------------------------------- condition instance checks

@dataclass
class ConditionReport:
    condition_id: str
    params: dict
    table: list                  # (n', word, value, target, deviation)
    worst_by_nprime: dict        # n' -> worst multiplicative deviation
    best_nprime: int | None
    worst_deviation: float       # at the best n'
    note: str = ""

    def rows(self):
        out = [(np_, "worst_deviation", dev, 0.0, dev) for np_, dev in
               sorted(self.worst_by_nprime.items())]
        return out


def _mult_deviation(value, target):
    if target == 0 and value == 0:
        return 0.0
    if target == 0 or value == 0:
        return math.inf
    r = value / target
    return float(max(r, 1 / r) - 1)


def _cylinder_check(condition_id, params, system, cocycle, mode, max_cylinders, observe,
                    kw) -> ConditionReport:
    """Cylinder-conditioned observables against the unconditioned one, per depth n'.

    ``params`` holds g, n0, n1 and n (and is reported as given);
    ``observe(eng, shifts)`` reads an engine's group marginal at each shift.
    The target is observe(walk at step n, [g]).  For every depth n' in
    [n0, n1] and every n'-cylinder b, the conditioned value is observe at
    g * psi_b^{-1} of the walk seeded at b's last symbol after n - n' steps:
    the product over the first n' symbols factors out.  One seeded engine per
    state evaluates only the steps n - n1 .. n - n0; a one-state recursion
    ignores the seed's state, so one engine serves every cylinder.
    """
    g, n0, n1, n = (params[k] for k in ("g", "n0", "n1", "n"))
    _element(cocycle.spec, g)
    if not (1 <= n0 <= n1 < n):
        raise ValidationError("need 1 <= n0 <= n1 < n")
    total_cyls = sum(system.m ** k for k in range(n0, n1 + 1))
    if total_cyls > max_cylinders:
        raise ResourceLimitError(f"{total_cyls} cylinders exceed the cap {max_cylinders}")
    spec = cocycle.spec
    rec = marginal_recursion(system, cocycle, mode)
    target = float(observe(_stepped(rec, n, **kw), [g])[0])
    cylinders = [(nprime, word) for nprime in range(n0, n1 + 1)
                 for word in itertools.product(range(system.m), repeat=nprime)]
    # seed state (the last symbol, or 0 for one state) -> depth -> (word, shift)
    by_state = {}
    for nprime, word in cylinders:
        shift = spec.multiply(g, spec.inverse(cocycle.word_value(word)))
        by_state.setdefault(word[-1] if rec.S > 1 else 0, {}).setdefault(
            nprime, []).append((word, shift))
    values = {}
    for s, by_depth in by_state.items():
        eng = _make_engine(rec, n - n0, seed_state=s, **kw)
        for j in range(1, n - n0 + 1):
            eng.step_once()
            items = by_depth.get(n - j, ())
            if items:
                vals = observe(eng, [shift for _, shift in items])
                values.update(((n - j, word), float(v)) for (word, _), v in zip(items, vals))
    table = []
    worst = {}
    for nprime, word in cylinders:
        val = values[nprime, word]
        dev = _mult_deviation(val, target)
        table.append((nprime, word, val, target, dev))
        worst[nprime] = max(worst.get(nprime, 0.0), dev)
    best = min(worst, key=worst.get)
    return ConditionReport(condition_id, params, table, worst, best, worst[best])


def check_condition_D(system, cocycle, g, n0, n1, n, mode="float",
                      max_cylinders=200_000, **kw) -> ConditionReport:
    """Cylinder-conditioned point masses against mu^n(g), per intermediate depth.

    For every depth n' in [n0, n1] and every n'-cylinder b, the conditioned
    mass mu(b and {product_n = g}) / mu(b) is computed exactly through the
    factorization of the product over the first n' symbols, then compared
    multiplicatively with mu^n(g).  The quantifier chain over (n0, n1, n) is
    sampled on this finite grid; the best depth is reported.
    """
    return _cylinder_check("D", {"g": tuple(g), "n0": n0, "n1": n1, "n": n}, system, cocycle,
                           mode, max_cylinders,
                           lambda eng, shifts: [eng.mass_at(t) for t in shifts], kw)


def check_condition_C(system, cocycle, E, g, n0, n1, n, mode="float",
                      max_cylinders=200_000, **kw) -> ConditionReport:
    """Window version of the cylinder-conditioned check: mu(b and E + g) / mu(b)."""
    spec = cocycle.spec
    box = _as_box(E, spec)

    def window_masses(eng, shifts):
        # product_n in E+g  <=>  tail product in E + g - psi_b (abelian)
        view = eng.group_view()
        return [_window(view, spec, box, t)[0] for t in shifts]

    return _cylinder_check("C", {"E": box, "g": tuple(g), "n0": n0, "n1": n1, "n": n}, system,
                           cocycle, mode, max_cylinders, window_masses, kw)


def check_condition_CM(system, cocycle, a_word, F, A, E, g, n, mode="float",
                       **kw) -> ConditionReport:
    """Skew-product correlation bound: the LHS overlap sum against the product RHS.

    LHS sums the overlap of the translated fibre window over the group
    elements h of the conditioned marginal:
    sum_h mu(a and {product_n = h}) * vol(F intersect (A - embed(h))).
    RHS = mu(a) * vol(F) * (vol(A)/vol(E)) * mu^n(E + g).

    The report is float-valued in every mode: mu(a) is taken in float and
    the overlap volumes are real, so rational mode only steps the tables
    exactly and its LHS and RHS are not ground truth.
    """
    spec = cocycle.spec
    g = _element(spec, g)
    boxF = _as_box(F, spec)
    boxA = _as_box(A, spec)
    boxE = _as_box(E, spec)
    k = len(a_word)
    if not 1 <= k < n:
        raise ValidationError("cylinder length must be in [1, n)")
    mu_a = cylinder_mass(system, a_word, mode="float")
    psi_a = cocycle.word_value(a_word)
    emb_a = spec.embed(psi_a)
    rec = marginal_recursion(system, cocycle, mode)
    # overlap volumes over the seeded engine's group marginal, shifted by psi_a
    emb, mass = _stepped(rec, n - k, seed_state=a_word[-1], **kw).group_view()
    vol = np.ones(mass.shape[0])
    for j, ((flo, fhi), (alo, ahi)) in enumerate(zip(boxF, boxA)):
        x = emb[j] + emb_a[j]
        vol *= np.clip(np.minimum(fhi, ahi - x) - np.maximum(flo, alo - x), 0.0, None)
    lhs = mu_a * float(mass @ vol)
    muE, _fl = _window(_stepped(rec, n, **kw).group_view(), spec, boxE, g)
    rhs = mu_a * box_volume(boxF) * (box_volume(boxA) / box_volume(boxE)) * float(muE)
    ratio = lhs / rhs if rhs > 0 else math.inf
    holds = lhs <= rhs * (1 + 1e-12)
    return ConditionReport(
        "CM",
        {"a": tuple(a_word), "F": boxF, "A": boxA, "E": boxE, "g": g, "n": n},
        [(n, tuple(a_word), lhs, rhs, ratio)],
        {n: ratio},
        n,
        ratio,
        note="holds" if holds else "LHS exceeds RHS",
    )


# ----------------------------------------------------- finite-group statistics

@dataclass
class MixingReport:
    ns: list
    deviations: list
    rate: float | None
    periodic: bool
    note: str = ""

    def rows(self):
        return [(n, "sup_deviation", d, 0.0, d) for n, d in zip(self.ns, self.deviations)]


def finite_group_mixing(system, cocycle, n_max, mode="float") -> MixingReport:
    """Sup-distance of the n-step law from uniform, with a fitted decay rate."""
    spec = cocycle.spec
    if not isinstance(spec, FiniteGroup):
        raise ValidationError("finite-group mixing requires a finite target")
    ap = check_aperiodicity_algebraic(system, cocycle)
    elements = spec.elements()
    uniform = 1.0 / spec.order
    # the m-state walk: the deviations subtract 1/|G| from masses near it,
    # so the rounding of the group marginal shows
    traj = _trajectory(_make_engine(walk_recursion(system, cocycle, mode), n_max), elements,
                       n_max)
    ns = list(range(1, n_max + 1))
    devs = []
    for n in ns:
        row = traj[n]
        devs.append(max(abs(float(x) - uniform) for x in row))
    if not ap.full:
        return MixingReport(ns, devs, None, True, note="periodic cocycle: no decay fit")
    # least-squares exponential rate on a dyadic grid
    grid = sorted({min(2 ** j, n_max) for j in range(0, 30) if 2 ** j <= n_max})
    pts = [(n, devs[n - 1]) for n in grid if devs[n - 1] > 1e-300]
    rate = None
    if len(pts) >= 2:
        xs = np.array([p[0] for p in pts], dtype=float)
        ys = np.log([p[1] for p in pts])
        rate = float(np.polyfit(xs, ys, 1)[0])
    return MixingReport(ns, devs, rate, False)


@dataclass
class TailReport:
    ns: list
    tail: list          # mu(tau > n) for n = 0..n_max
    rate: float | None
    r_squared: float | None

    def rows(self):
        return [(n, "tail", t, 0.0, 0.0) for n, t in zip(self.ns, self.tail)]


def return_time_tail(system, cocycle, n_max, mode="float") -> TailReport:
    """Survival function of the first identity-return time, by absorption.

    tau(x) = min{j >= 1 : j-step product = e}; mass reaching the identity is
    removed after each step, so the remaining total is mu(tau > n).
    """
    spec = cocycle.spec
    if not isinstance(spec, FiniteGroup):
        raise ValidationError("return-time tails require a finite target")
    eng = _SparseEngine(walk_recursion(system, cocycle, mode))
    e = spec.identity()
    one = Fraction(1) if mode == "rational" else 1.0
    tails = [one]
    for _ in range(n_max):
        eng.step_once()
        eng.drop(e)
        tails.append(eng.total())
    ns = list(range(0, n_max + 1))
    pts = [(n, float(t)) for n, t in zip(ns, tails) if n >= 1 and t > 0]
    rate = r2 = None
    if len(pts) >= 3:
        xs = np.array([p[0] for p in pts], dtype=float)
        ys = np.log([p[1] for p in pts])
        slope, intercept = np.polyfit(xs, ys, 1)
        pred = slope * xs + intercept
        ss_res = float(np.sum((ys - pred) ** 2))
        ss_tot = float(np.sum((ys - ys.mean()) ** 2))
        rate = float(slope)
        r2 = 1.0 - ss_res / ss_tot if ss_tot > 0 else 1.0
    return TailReport(ns, tails, rate, r2)


@dataclass
class SuperadditivityReport:
    n_max: int
    constant: float
    violations: list
    holds: bool


def superadditivity_check(system, cocycle, n_max, mode="float",
                          constant=None, **kw) -> SuperadditivityReport:
    """Check mu^{n+m}(e) >= D * mu^n(e) * mu^m(e) for all n, m <= n_max.

    D defaults to the system's superadditivity constant C^-2 (1 for Bernoulli
    systems), exactly in rational mode.
    """
    if constant is None:
        constant = system.superadditivity_constant
    seq = return_sequence(system, cocycle, 2 * n_max, mode, **kw)
    violations = []
    for nn in range(1, n_max + 1):
        for mm in range(nn, n_max + 1):
            lhs = seq[nn + mm]
            rhs = constant * seq[nn] * seq[mm]
            if mode == "rational":
                ok = lhs >= rhs
            else:
                ok = float(lhs) >= float(rhs) * (1 - SUPERADDITIVITY_REL_SLACK)
            if not ok:
                violations.append((nn, mm, float(lhs), float(rhs)))
    return SuperadditivityReport(n_max, float(constant), violations, not violations)
