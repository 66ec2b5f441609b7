"""Stepping kernels: one numpy kernel per dense table layout.

Every engine steps the same recursion.  It has S states, an S x S mixing
matrix P (None when S = 1) and a list of shifts (target state s', atom,
weight).  One step computes M = P^T W (M is W itself when P is None) and then,
for every shift k, adds ``wts[k] * (atom_k . M[tgt[k]])`` into the new table's
row ``tgt[k]``.  A walk has P = the transition matrix and one shift
(s', v(s'), 1) per state; the convolution power of a measure has S = 1 and
one shift (0, atom, weight) per atom.

A kernel takes the table and a spare buffer of the same shape and returns
(new table, spare buffer), so a step allocates nothing table-sized.  With P,
M goes into the spare buffer and the new table overwrites W; without P the
new table is written into the spare buffer.  A shift of weight 1.0 adds M
without multiplying, which gives the same floats.

A step reads, mixes and clears only the region ``act`` of the box; W and
the spare buffer must be zero outside it.  Engines pass the box that holds
every product of as many atoms as steps taken so far, which only grows, so
both hold; the cells skipped would only have added zeros.  P^T W is taken
on a strided view of the flat columns covering ``act`` (its x-slab in the
Heisenberg layout), bitwise as over the whole box; a one-column view would
go to gemv, which rounds differently from gemm, so it is widened to two.

Layout conventions:

* Lattice tables are flat ``(S, L)`` float64 arrays; a group coordinate maps
  to a flat index through C-order strides.  A left multiplication by an atom
  is then a single constant flat offset.  Engines size boxes so that
  populated cells never sit close enough to the edge for an offset to cross
  a row boundary; edge cells hold exact zeros, so row-crossing writes only
  ever add zeros.
* Heisenberg tables are ``(S, Nx, Ny, Nz)``; the left increment (a, b, c)
  sends index (x, y, z) to (x+a, y+b, z+c+a*(y-oy)) where oy is the index of
  the y origin.  The shear depends on y, so this cannot be a flat offset.
"""

import numpy as np

BACKEND = "numpy"


def _start(W, spare, P, region, cols):
    # (M, table the shifts add into, zeroed over the region); M = P^T W on cols
    if P is None:
        spare[region] = 0.0
        return W, spare
    S = W.shape[0]
    L = W.size // S
    a, b = cols
    if b - a < 2:
        a = max(0, min(a, L - 2))
        b = min(a + 2, L)
    np.matmul(P.T, W.reshape(S, L)[:, a:b], out=spare.reshape(S, L)[:, a:b])
    W[region] = 0.0
    return spare, W


def lattice_step(W, spare, P, offs, tgt, wts, act):
    """new[tgt[k], i + offs[k]] += wts[k] * M[tgt[k], i] for every k; returns (new, spare).

    ``act`` = (a, b) is the flat range of source cells i that may be nonzero.
    """
    a, b = act
    M, out = _start(W, spare, P, np.s_[:, a:b], act)
    L = W.shape[1]
    for off, s2, w in zip(offs.tolist(), tgt.tolist(), wts.tolist()):
        lo = max(-off if off < 0 else 0, a)
        hi = min(L - off if off > 0 else L, b)
        if lo < hi:
            src = M[s2, lo:hi]
            out[s2, lo + off : hi + off] += src if w == 1.0 else w * src
    return out, M


def heis_step(W, spare, P, incs, tgt, wts, oy, act):
    """new[tgt[k]] += wts[k] * (incs[k] . M[tgt[k]]) for every k; returns (new, spare).

    ``act`` = ((x0, x1), (y0, y1), (z0, z1)) bounds the source cells that may
    be nonzero.
    """
    (x0, x1), (y0, y1), (z0, z1) = act
    _, Nx, Ny, Nz = W.shape
    M, out = _start(W, spare, P, np.s_[:, x0:x1, y0:y1, z0:z1], (x0 * Ny * Nz, x1 * Ny * Nz))
    for (a, b, c), s2, w in zip(incs.tolist(), tgt.tolist(), wts.tolist()):
        src, dst = M[s2], out[s2]
        xlo = max(-a if a < 0 else 0, x0)
        xhi = min(Nx - a if a > 0 else Nx, x1)
        if xlo >= xhi:
            continue
        for y in range(max(0, -b, y0), min(Ny, Ny - b, y1)):
            dz = c + a * (y - oy)
            zlo = max(-dz if dz < 0 else 0, z0)
            zhi = min(Nz - dz if dz > 0 else Nz, z1)
            if zlo >= zhi:
                continue
            part = src[xlo:xhi, y, zlo:zhi]
            dst[xlo + a : xhi + a, y + b, zlo + dz : zhi + dz] += (
                part if w == 1.0 else w * part
            )
    return out, M
