"""Stepping kernel: one numpy kernel for every dense table layout.

Every engine steps the same recursion.  It has S states, an S x S mixing
matrix P (None when S = 1) and a list of shifts (target state s', atom,
weight).  One step computes M = P^T W (M is W itself when P is None) and then,
for every shift k, adds ``wts[k] * (atom_k . M[tgt[k]])`` into the new table's
row ``tgt[k]``.  A walk has P = the transition matrix and one shift
(s', v(s'), 1) per state; the convolution power of a measure has S = 1 and
one shift (0, atom, weight) per atom.

The kernel takes the table and a spare buffer of the same shape and returns
(new table, spare buffer), so a step allocates nothing table-sized.  With P,
M goes into the spare buffer and the new table overwrites W; without P the
new table is written into the spare buffer.  A shift of weight 1.0 adds M
without multiplying, which gives the same floats.

Tables are flat ``(S, L)`` float64 arrays; a group coordinate maps to a flat
index through strides.  A step passes a list of flat source ranges, each
with the flat offset that every shift has on it:

* On a lattice a left multiplication by an atom is one constant flat offset,
  so a step passes one range.
* The Heisenberg box is stored in (y, x, z) memory order.  The left
  increment (a, b, c) sends (x, y, z) to (x+a, y+b, z+c+a*y); on the slab at
  coordinate y that is the lattice offset of (a, b, c) plus the shear a*y,
  which is constant across the slab, so a step passes one range per y-slab.

Engines size boxes so that populated cells never sit close enough to an
edge for an offset to cross a row or slab boundary; edge cells hold exact
zeros, so crossing writes only ever add zeros.  The shifts are the outer
loop and the ranges the inner one, so every cell receives its shifts in
shift order.

A step reads, mixes and clears only the flat hull of its ranges; W and the
spare buffer must be zero outside it.  Engines pass the ranges covering
every product of as many atoms as steps taken so far, which only grow, so
both hold; the cells skipped would only have added zeros.  P^T W is taken on
the hull's columns, bitwise as over the whole box; a one-column product
would go to gemv, which rounds differently from gemm, so it is widened to two.
"""

import numpy as np

BACKEND = "numpy"


def _start(W, spare, P, a, b):
    # (M, table the shifts add into, zeroed on columns a:b); M = P^T W on a:b
    if P is None:
        spare[:, a:b] = 0.0
        return W, spare
    c, d = a, b
    if d - c < 2:
        c = max(0, min(c, W.shape[1] - 2))
        d = min(c + 2, W.shape[1])
    np.matmul(P.T, W[:, c:d], out=spare[:, c:d])
    W[:, a:b] = 0.0
    return spare, W


def lattice_step(W, spare, P, tgt, wts, ranges):
    """new[tgt[k], i + offs[k]] += wts[k] * M[tgt[k], i] for every k; returns (new, spare).

    ``ranges`` lists (a, b, offs) in ascending order: the flat source cells
    a <= i < b that may be nonzero, and the offset of every shift on them.
    """
    M, out = _start(W, spare, P, ranges[0][0], ranges[-1][1])
    L = W.shape[1]
    for k, (s2, w) in enumerate(zip(tgt, wts)):
        for a, b, offs in ranges:
            off = offs[k]
            lo = max(-off, a) if off < 0 else a
            hi = min(L - off, b) if off > 0 else b
            if lo < hi:
                src = M[s2, lo:hi]
                out[s2, lo + off : hi + off] += src if w == 1.0 else w * src
    return out, M
