"""The stepping kernel, on both layouts, against naive per-cell loops.

The lattice loop steps a flat table; the Heisenberg loop steps an
(S, Nx, Ny, Nz) table with the shear written out, and the kernel steps the
same table flattened in (y, x, z) memory order with one range per y-slab.
Most inputs are dyadic (small multiples of powers of two), so every product
and partial sum is exact in float64 and the kernel must match the loop with
``==`` whatever order it adds in.  The active-range tests use random inputs
against one BLAS product over the whole box, which the kernel's product over
the active range must match bit for bit, so they see any change of rounding.
"""

import numpy as np
import pytest

from gmwalk import _kernels

rng = np.random.default_rng(2024)


def _dyadic(shape, scale=64):
    return rng.integers(0, 9, size=shape) / scale


def _mixed_reference(W, P):
    S = W.shape[0]
    if P is None:
        return W
    M = np.zeros_like(W)
    for t in range(S):
        for s in range(S):
            M[t] += P[s, t] * W[s]
    return M


def _whole_box_mixed(W, P):
    S = W.shape[0]
    return np.matmul(P.T, W.reshape(S, -1)).reshape(W.shape)


def _lattice_reference(W, P, offs, tgt, wts, mix=_mixed_reference):
    M = mix(W, P)
    out = np.zeros_like(W)
    L = W.shape[1]
    for off, t, w in zip(offs, tgt, wts):
        for i in range(L):
            if 0 <= i + off < L:
                out[t, i + off] += w * M[t, i]
    return out


def _heis_reference(W, P, incs, tgt, wts, oy, mix=_mixed_reference):
    M = mix(W, P)
    out = np.zeros_like(W)
    _, Nx, Ny, Nz = W.shape
    for (a, b, c), t, w in zip(incs, tgt, wts):
        for x in range(Nx):
            for y in range(Ny):
                for z in range(Nz):
                    x2, y2, z2 = x + a, y + b, z + c + a * (y - oy)
                    if 0 <= x2 < Nx and 0 <= y2 < Ny and 0 <= z2 < Nz:
                        out[t, x2, y2, z2] += w * M[t, x, y, z]
    return out


def _lattice_ranges(offs, act):
    return [(act[0], act[1], [int(o) for o in offs])]


def _to_flat(W):
    # (S, Nx, Ny, Nz) -> flat (S, L) in (y, x, z) memory order
    return np.ascontiguousarray(W.transpose(0, 2, 1, 3)).reshape(W.shape[0], -1)


def _from_flat(F, shape):
    S, Nx, Ny, Nz = shape
    return F.reshape(S, Ny, Nx, Nz).transpose(0, 2, 1, 3)


def _heis_ranges(incs, shape, oy, act):
    # one flat range per active y-slab, each shift's offset plus its shear a * y
    _, Nx, Ny, Nz = shape
    (x0, x1), (y0, y1), (z0, z1) = act
    return [(iy * Nx * Nz + x0 * Nz + z0, iy * Nx * Nz + (x1 - 1) * Nz + z1,
             [int(b * Nx * Nz + a * Nz + c + a * (iy - oy)) for a, b, c in incs])
            for iy in range(y0, y1)]


def _heis_step(W, spare, P, incs, tgt, wts, oy, act):
    new, _ = _kernels.lattice_step(_to_flat(W), _to_flat(spare), P, tgt, wts,
                                   _heis_ranges(incs, W.shape, oy, act))
    return _from_flat(new, W.shape)


WALK = dict(S=3, P=np.array([[0.5, 0.25, 0.25], [0.125, 0.75, 0.125], [0.0, 0.5, 0.5]]),
            tgt=np.array([0, 1, 2]), wts=np.array([1.0, 1.0, 1.0]))
MEASURE = dict(S=1, P=None, tgt=np.zeros(4, dtype=np.int64),
               wts=np.array([0.375, 0.125, 0.25, 0.25]))


@pytest.mark.parametrize("rec", [WALK, MEASURE], ids=["walk_S3", "measure_S1"])
def test_lattice_step_matches_reference(rec):
    S, L = rec["S"], 64
    offs = np.array([-2, 0, 3, 5][: len(rec["tgt"])], dtype=np.int64)
    W = np.zeros((S, L))
    W[:, 20:44] = _dyadic((S, 24))
    want = _lattice_reference(W, rec["P"], offs, rec["tgt"], rec["wts"])
    # the spare buffer may hold anything inside the active region
    spare = np.zeros_like(W)
    spare[:, 20:44] = 7.0
    new, _ = _kernels.lattice_step(W, spare, rec["P"], rec["tgt"], rec["wts"],
                                   _lattice_ranges(offs, (20, 44)))
    assert np.array_equal(new, want)


@pytest.mark.parametrize("rec", [WALK, MEASURE], ids=["walk_S3", "measure_S1"])
def test_heis_step_matches_reference(rec):
    S = rec["S"]
    Nx, Ny, Nz, oy = 9, 9, 25, 4
    # nonzero a shears z by a * (y - oy); c shifts z outright
    incs = np.array([[1, 0, 0], [0, -1, 1], [-1, 1, -2], [2, 0, 1]][: len(rec["tgt"])],
                    dtype=np.int64)
    W = np.zeros((S, Nx, Ny, Nz))
    W[:, 2:7, 2:7, 9:16] = _dyadic((S, 5, 5, 7))
    want = _heis_reference(W, rec["P"], incs, rec["tgt"], rec["wts"], oy)
    spare = np.zeros_like(W)
    spare[:, 2:7, 2:7, 9:16] = 7.0
    new = _heis_step(W, spare, rec["P"], incs, rec["tgt"], rec["wts"], oy,
                     ((2, 7), (2, 7), (9, 16)))
    assert np.array_equal(new, want)


def _random_walk(S, gen):
    P = gen.random((S, S))
    return P / P.sum(axis=1, keepdims=True)


@pytest.mark.parametrize("S", [2, 4])
@pytest.mark.parametrize("act", [(30, 31), (4095, 4096), (30, 32), (7, 3907)],
                         ids=["one_col", "one_col_at_edge", "two_cols", "many_cols"])
def test_lattice_mixing_over_active_range_is_bitwise_whole_box(S, act):
    L = 4096
    gen = np.random.default_rng(S)
    P = _random_walk(S, gen)
    offs = np.array([-3, 1, 0, 2][:S], dtype=np.int64)
    tgt = np.arange(S)
    wts = np.ones(S)
    W = np.zeros((S, L))
    W[:, act[0]:act[1]] = gen.random((S, act[1] - act[0]))
    want = _lattice_reference(W, P, offs, tgt, wts, mix=_whole_box_mixed)
    new, _ = _kernels.lattice_step(W, np.zeros_like(W), P, tgt, wts, _lattice_ranges(offs, act))
    assert np.array_equal(new, want)


@pytest.mark.parametrize("S", [2, 4])
@pytest.mark.parametrize("act", [((4, 5), (3, 4), (10, 11)), ((1, 8), (3, 4), (5, 16)),
                                 ((1, 8), (3, 5), (5, 16)), ((1, 8), (1, 6), (5, 16))],
                         ids=["one_cell", "one_slab", "two_slabs", "many_slabs"])
def test_heis_mixing_over_active_slab_is_bitwise_whole_box(S, act):
    Nx, Ny, Nz, oy = 9, 7, 21, 3
    gen = np.random.default_rng(S)
    P = _random_walk(S, gen)
    incs = np.array([[1, 0, 0], [0, -1, 1], [-1, 1, -2], [0, 1, 0]][:S], dtype=np.int64)
    tgt = np.arange(S)
    wts = np.ones(S)
    (x0, x1), (y0, y1), (z0, z1) = act
    W = np.zeros((S, Nx, Ny, Nz))
    W[:, x0:x1, y0:y1, z0:z1] = gen.random((S, x1 - x0, y1 - y0, z1 - z0))
    want = _heis_reference(W, P, incs, tgt, wts, oy, mix=_whole_box_mixed)
    new = _heis_step(W, np.zeros_like(W), P, incs, tgt, wts, oy, act)
    assert np.array_equal(new, want)


def test_shear_moves_mass_where_expected():
    # left increment (1,0,0) sends (x,y,z) to (x+1, y, z+y)
    Nx, Ny, Nz = 5, 5, 9
    w = np.zeros((1, Nx, Ny, Nz))
    oy = 2
    w[0, 2, 3, 4] = 1.0       # coordinates (0, 1, 0)
    out = _heis_step(w, np.zeros_like(w), None, np.array([[1, 0, 0]]), np.array([0]),
                     np.array([1.0]), oy, ((0, Nx), (0, Ny), (0, Nz)))
    assert out[0, 3, 3, 5] == 1.0
    assert out.sum() == 1.0


def test_mass_conservation_under_stepping():
    S, L = 2, 40
    W = np.zeros((S, L))
    W[:, 20] = 0.5
    trans = np.array([[0.25, 0.75], [0.6, 0.4]])
    offs = np.array([1, -1], dtype=np.int64)
    spare = np.zeros_like(W)
    for _ in range(10):
        W, spare = _kernels.lattice_step(W, spare, trans, np.array([0, 1]),
                                         np.array([1.0, 1.0]), _lattice_ranges(offs, (0, L)))
    assert W.sum() == pytest.approx(1.0, abs=1e-14)
