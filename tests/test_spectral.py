import cmath
import functools
import math
import time
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gmwalk import presets, spectral, walkdist
from gmwalk.errors import ConsistencyError, ValidationError
from gmwalk.gm_system import Cocycle, GibbsMarkovSystem, SymmetryInvolution, check_symmetry
from gmwalk.groups import EmbeddedRealLattice, IntegerLattice
from pairing import paired_agrees


def test_perturbed_matrix_reduces_to_transition_matrix():
    sys_, coc, _ = presets.two_state_markov()
    B = spectral.perturbed_matrix(sys_, coc, (0.0,))
    assert np.allclose(B, sys_.trans_float.T)
    lam, _ = spectral.leading_eigenvalue(B)
    assert abs(lam - 1) <= 1e-12


def test_leading_eigenvalue_near_degenerate_warning():
    swap = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)   # eigenvalues +-1
    with pytest.warns(RuntimeWarning):
        lam, ratio = spectral.leading_eigenvalue(swap)
    assert abs(abs(lam) - 1.0) <= 1e-14
    assert ratio == pytest.approx(1.0)


def test_trinomial_eigenvalue_formula():
    sys_, coc, _ = presets.trinomial()
    for theta in (0.3, 1.0, math.pi):
        lam, _ = spectral.eigenvalue_at(sys_, coc, (theta,))
        assert lam == pytest.approx((1 + 2 * math.cos(theta)) / 3, abs=1e-14)
    lam_pi, _ = spectral.eigenvalue_at(sys_, coc, (math.pi,))
    assert lam_pi == pytest.approx(-1 / 3, abs=1e-14)


def test_leading_eigenvalue_unit_at_zero_all_examples():
    for name, mk in presets.ALL_EXAMPLES.items():
        sys_, coc, _ = mk()
        if coc.spec.ab_rank == 0 or coc.spec.key_size != coc.spec.ab_rank:
            coc = coc.abelianized()
        lam, _ = spectral.eigenvalue_at(sys_, coc, (0.0,) * coc.spec.key_size)
        assert abs(lam - 1) <= 1e-12, name


def test_modulus_never_exceeds_one():
    for mk in (presets.trinomial, presets.two_state_markov, presets.asymmetric_z):
        sys_, coc, _ = mk()
        for j in range(64):
            theta = 2 * math.pi * j / 64
            lam, _ = spectral.eigenvalue_at(sys_, coc, (theta,))
            assert abs(lam) <= 1 + 1e-12


def test_simple_walk_unit_modulus_at_pi():
    sys_, coc, _ = presets.simple_walk()
    lam, _ = spectral.eigenvalue_at(sys_, coc, (math.pi,))
    assert abs(abs(lam) - 1.0) <= 1e-14


def test_aperiodicity_scan_matches_closed_form():
    sys_, coc, _ = presets.trinomial()
    rep = spectral.aperiodicity_scan(sys_, coc, 512, 0.1)
    assert rep.passed
    assert rep.max_modulus == pytest.approx((1 + 2 * math.cos(0.1)) / 3, abs=1e-12)


def test_aperiodicity_scan_agrees_with_algebraic_check():
    from gmwalk.gm_system import check_aperiodicity_algebraic

    for name, mk in presets.ALL_EXAMPLES.items():
        sys_, coc, _ = mk()
        alg = check_aperiodicity_algebraic(sys_, coc)
        if coc.spec.is_finite():
            # finite dual: characters live at multiples of 2*pi/order
            order = coc.spec.order
            lat = Cocycle(IntegerLattice(1), coc.values)
            mods = [
                abs(spectral.eigenvalue_at(sys_, lat, (2 * math.pi * j / order,))[0])
                for j in range(1, order)
            ]
            spectrally_aperiodic = max(mods) < 1 - 1e-9
        else:
            lat = coc if coc.spec.key_size == coc.spec.ab_rank else coc.abelianized()
            rep = spectral.aperiodicity_scan(sys_, lat, 64, 0.1)
            spectrally_aperiodic = rep.passed
        assert spectrally_aperiodic == alg.full, name


def _markov3_z2():
    sys_ = GibbsMarkovSystem.markov([
        [Fraction(3, 10), Fraction(5, 10), Fraction(2, 10)],
        [Fraction(1, 7), Fraction(4, 7), Fraction(2, 7)],
        [Fraction(5, 12), Fraction(4, 12), Fraction(3, 12)],
    ])
    return sys_, Cocycle(IntegerLattice(2), ((1, 0), (0, 1), (0, 0)))


def _sticky_z():
    sys_ = GibbsMarkovSystem.markov([
        [Fraction(9, 10), Fraction(1, 10)],
        [Fraction(1, 5), Fraction(4, 5)],
    ])
    return sys_, Cocycle(IntegerLattice(1), ((1,), (-1,)))


def _sym4_z2():
    """gmbench's symmetric 4-state chain over +-e1, +-e2 at fixed rows."""
    r0 = [Fraction(2, 10), Fraction(3, 10), Fraction(1, 10), Fraction(4, 10)]
    r2 = [Fraction(1, 10), Fraction(1, 10), Fraction(6, 10), Fraction(2, 10)]
    rows = [r0, [r0[1], r0[0], r0[3], r0[2]], r2, [r2[1], r2[0], r2[3], r2[2]]]
    sys_ = GibbsMarkovSystem.markov([[(Fraction(1, 4) + w) / 2 for w in r] for r in rows])
    return sys_, Cocycle(IntegerLattice(2), ((1, 0), (-1, 0), (0, 1), (0, -1)))


def _lattice_systems():
    out = {}
    for name, mk in presets.ALL_EXAMPLES.items():
        sys_, coc, _ = mk()
        if isinstance(coc.spec, (IntegerLattice, EmbeddedRealLattice)):
            out[name] = (sys_, coc)
    out["markov3_z2"] = _markov3_z2()
    out["sticky_z"] = _sticky_z()
    return out


def _per_theta_leading(system, cocycle, theta):
    """One character at a time, as the grids were evaluated before stacking."""
    phases = [cmath.exp(1j * float(np.dot(theta, v))) for v in cocycle.values]
    if system.is_bernoulli:
        return sum(float(system.pi_float[s]) * phases[s] for s in range(system.m)), 0.0
    B = (system.trans_float * np.array(phases)[None, :]).T.astype(complex)
    eig = np.linalg.eigvals(B)
    order = np.argsort(-np.abs(eig))
    lam = complex(eig[order[0]])
    second = abs(eig[order[1]]) if system.m > 1 else 0.0
    return lam, (second / abs(lam) if lam else math.inf)


def _solver_leading(system, cocycle, theta):
    """One character at a time through the module's own solver: a one-row stack."""
    lam, ratio = spectral.leading_stack(system, cocycle, np.asarray(theta, dtype=float)[None])
    return complex(lam[0]), float(ratio[0])


def _closed_form_rows(system, cocycle, thetas):
    """Rows whose spectrum the closed-form cubic solved (3-state Markov only)."""
    if system.is_bernoulli:
        return np.zeros(len(thetas), dtype=bool)
    return ~spectral._stack(system, cocycle, thetas)[-1]


def _per_theta_scan(system, cocycle, resolution, eps, leading=_per_theta_leading):
    d = cocycle.spec.key_size
    pts = []
    for idx in np.ndindex(*(resolution,) * d):
        theta = np.array([2 * math.pi * i / resolution for i in idx])
        wrapped = np.where(theta > math.pi, theta - 2 * math.pi, theta)
        if np.linalg.norm(wrapped) >= eps:
            pts.append(theta)
    if d == 1:
        pts += [np.array([eps]), np.array([2 * math.pi - eps])]
    else:
        for t in np.linspace(0, 2 * math.pi, 4 * resolution, endpoint=False):
            pts.append(np.array([eps * math.cos(t), eps * math.sin(t)]) % (2 * math.pi))
    mods = [abs(leading(system, cocycle, t)[0]) for t in pts]
    # the characters that annihilate Lambda0 have modulus exactly 1 (B(theta)
    # is a unimodular multiple of P^T there); they come last
    forced = spectral._forced_characters(cocycle)
    pts += list(forced)
    mods += [1.0] * len(forced)
    imax = int(np.argmax(mods))
    return mods[imax], tuple(float(x) for x in pts[imax]), mods[imax] < 1 - 1e-9


def _grid(resolution, d):
    return [tuple(2 * math.pi * i / resolution for i in idx)
            for idx in np.ndindex(*(resolution,) * d)]


@pytest.mark.parametrize("name", sorted(_lattice_systems()))
def test_stacked_evaluator_matches_per_theta_loop(name):
    # bitwise against one-row stacks and a lone matrix (a row's result does
    # not depend on its block), and against a per-theta LAPACK loop wherever
    # the closed-form cubic did not solve the row: every cocycle value here is
    # 0 or +-1, so the phase arguments are exact whatever order the inner
    # products are summed in.  A closed-form row is within CUBIC_RADIUS_TOL.
    sys_, coc = _lattice_systems()[name]
    d = coc.spec.key_size
    rng = np.random.default_rng(3)
    thetas = _grid(64 if d == 1 else 32, d) + [tuple(t) for t in rng.uniform(0, 7, (50, d))]
    lam, ratio = spectral.leading_stack(sys_, coc, np.array(thetas))
    closed = _closed_form_rows(sys_, coc, np.array(thetas))
    assert closed.any() == (not sys_.is_bernoulli and sys_.m == 3)
    for theta, got_lam, got_ratio, cubic in zip(thetas, lam.tolist(), ratio.tolist(), closed):
        assert repr(_solver_leading(sys_, coc, theta)) == repr((got_lam, got_ratio)), theta
        if not sys_.is_bernoulli:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", RuntimeWarning)     # ties warn
                alone = spectral.leading_eigenvalue(spectral.perturbed_matrix(sys_, coc, theta))
            assert repr(alone) == repr((got_lam, got_ratio)), theta
        want_lam, want_ratio = _per_theta_leading(sys_, coc, np.array(theta))
        if cubic:
            assert abs(got_lam - want_lam) <= spectral.CUBIC_RADIUS_TOL, theta
            assert abs(got_ratio - want_ratio) <= spectral.CUBIC_RADIUS_TOL, theta
        else:
            assert repr(got_lam) == repr(complex(want_lam)), theta
            assert repr(got_ratio) == repr(float(want_ratio)), theta
    one = spectral.eigenvalue_at(sys_, coc, thetas[-1])
    assert one == (lam.tolist()[-1], ratio.tolist()[-1])


@pytest.mark.parametrize("name", sorted(_lattice_systems()))
def test_aperiodicity_scan_matches_per_theta_loop(name):
    # bitwise a per-theta loop through the same solver; bitwise a per-theta
    # LAPACK loop where no row is solved in closed form, else within
    # CUBIC_RADIUS_TOL of its maximum, with the same verdict
    sys_, coc = _lattice_systems()[name]
    d = coc.spec.key_size
    resolution = 64 if d == 1 else 24
    rep = spectral.aperiodicity_scan(sys_, coc, resolution, 0.1)
    got = (rep.max_modulus, rep.argmax_theta, rep.passed)
    assert got == _per_theta_scan(sys_, coc, resolution, 0.1, _solver_leading)
    want = _per_theta_scan(sys_, coc, resolution, 0.1)
    if sys_.is_bernoulli or sys_.m != 3:
        assert got == want
    else:
        assert abs(rep.max_modulus - want[0]) <= spectral.CUBIC_RADIUS_TOL
        at = abs(_per_theta_leading(sys_, coc, np.array(rep.argmax_theta))[0])
        assert abs(at - want[0]) <= spectral.CUBIC_RADIUS_TOL
        assert rep.passed == want[2]


def test_scan_unchanged_across_blocks(monkeypatch):
    def outputs():
        return (spectral.aperiodicity_scan(sys_, coc, 32, 0.1),
                spectral.eigenvalue_grid(sys_, coc, 32),
                spectral.symmetry_reality_check(sys_, coc, None, 32),
                spectral.fourier_invert(sys_, coc, (1,) * coc.spec.key_size, 5, 32))

    # the defective chain's half grid has runs of rows that LAPACK solves
    mirror = _mirror_rows(32, 2)
    own = mirror >= np.arange(len(mirror))
    lapack = spectral._stack(*_defective_chain(), spectral._torus_grid(32, 2)[own])[-1]
    for entries in (50, 3 * spectral._CUBIC_ENTRIES):
        # a chunk boundary (1 or 3 rows a chunk) falls inside such a run
        step = max(1, entries // spectral._CUBIC_ENTRIES)
        cut = np.arange(step, len(lapack), step)
        assert (lapack[cut - 1] & lapack[cut]).any()
        for sys_, coc in (_markov3_z2(), presets.z2_lattice()[:2], _sticky_z(),
                          _defective_chain(), _sym4_z2(), _sym4_seed189()):
            one = outputs()
            # a few rows per block and per cubic chunk: the 32^d grid spans many
            monkeypatch.setattr(spectral, "_BLOCK_ENTRIES", entries)
            many = outputs()
            monkeypatch.undo()
            assert repr(one) == repr(many)


def test_scan_counts_the_grid_rows_lapack_solved():
    # Bernoulli rows are exact, 3x3 rows mostly closed-form and a symmetric
    # system's rows mostly real; every other spectrum is the general complex
    # solve's, on the half grid and the rows solved beside it
    bern, bern_coc = presets.z2_lattice()[:2]
    assert spectral.aperiodicity_scan(bern, bern_coc, 32, 0.1).fallback_rows == 0
    assert spectral.aperiodicity_scan(*_sym4_z2(), 32, 0.1).fallback_rows == 0
    for (sys_, coc), resolution in ((_sticky_z(), 64), (_markov3_z2(), 32),
                                    (_defective_chain(), 32), (_sym4_seed189(), 64)):
        d = coc.spec.key_size
        thetas = spectral._torus_grid(resolution, d)
        mirror = _mirror_rows(resolution, d)
        own = mirror >= np.arange(len(thetas))
        _, _, loose, _, lapack = spectral._stack(sys_, coc, thetas[own])
        ill = np.zeros(len(thetas), dtype=bool)
        ill[own] = loose
        direct = spectral._stack(sys_, coc, thetas[~own & ill[mirror]])[-1]
        rep = spectral.aperiodicity_scan(sys_, coc, resolution, 0.1)
        assert rep.fallback_rows == lapack.sum() + direct.sum()
        assert rep == spectral.aperiodicity_scan(sys_, coc, resolution, 0.1)
        if sys_.m == 2:
            assert rep.fallback_rows >= own.sum()
        if sys_.m == 4:             # the near-defective rows at theta_2 = +-pi/2
            assert 0 < rep.fallback_rows <= 2 * resolution


def test_spectral_scan_is_scan_plus_grid():
    sys_, coc = _markov3_z2()
    rep, rows = spectral.spectral_scan(sys_, coc, 32, 0.1)
    assert rep == spectral.aperiodicity_scan(sys_, coc, 32, 0.1)
    assert rows == spectral.eigenvalue_grid(sys_, coc, 32)


def test_characteristic_function_trivial_and_power():
    sys_, coc, _ = presets.trinomial()
    assert spectral.characteristic_function(sys_, coc, (0.0,), 13) == pytest.approx(1.0)
    val = spectral.characteristic_function(sys_, coc, (math.pi,), 4)
    assert val == pytest.approx(((1 + 2 * math.cos(math.pi)) / 3) ** 4, abs=1e-12)


def test_characteristic_function_two_paths_agree_markov():
    sys_, coc, _ = presets.two_state_markov()
    table = walkdist.distribution(sys_, coc, 200, mode="float")
    for theta in (0.1, 0.7, 2.0):
        spectral.characteristic_function(sys_, coc, (theta,), 200, table=table)


def test_characteristic_function_markov_against_enumeration():
    from gmwalk import oracle

    sys_, coc, _ = presets.two_state_markov()
    ref_table = oracle.oracle_distribution(sys_, coc, 3)
    for theta in (0.2, 1.3, 2.9):
        ref = sum(
            float(w) * cmath.exp(1j * theta * g[0])
            for g, w in ref_table.group_masses().items()
        )
        got = spectral.characteristic_function(sys_, coc, (theta,), 3, check=False)
        assert got == pytest.approx(ref, abs=1e-13)


def test_characteristic_function_mismatch_raises():
    sys_, coc, _ = presets.trinomial()
    other = walkdist.distribution(sys_, coc, 5, mode="float")
    with pytest.raises(ConsistencyError):
        spectral.characteristic_function(sys_, coc, (0.5,), 6, table=other)


def test_fourier_invert_exact_band_limited():
    sys_, coc, _ = presets.trinomial()
    rep = spectral.fourier_invert(sys_, coc, (0,), 4, 16, compare=True)
    assert rep.deviation <= 1e-12
    assert rep.value == pytest.approx(19 / 81, abs=1e-12)
    outside = spectral.fourier_invert(sys_, coc, (9,), 8, 32)
    assert abs(outside.value) <= 1e-12
    one = spectral.fourier_invert(sys_, coc, (-1,), 1, 8, compare=True)
    assert one.value == pytest.approx(1 / 3, abs=1e-12)


@pytest.mark.parametrize("grid_size", [0, -4])
def test_fourier_invert_needs_a_grid_point(grid_size):
    sys_, coc, _ = presets.trinomial()
    with pytest.raises(ValidationError, match="grid_size >= 1"):
        spectral.fourier_invert(sys_, coc, (0,), 4, grid_size)


def test_fourier_invert_aliasing_detected():
    sys_, coc, _ = presets.trinomial()
    rep = spectral.fourier_invert(sys_, coc, (0,), 10, 8, compare=True)
    assert rep.aliasing_risk
    assert rep.deviation > 1e-10


def test_u_n_volume_and_inversion_identity():
    sys_, coc, _ = presets.trinomial()
    assert spectral.u_n_integral(sys_, coc, 0.7, 0) == pytest.approx(1.4, abs=1e-12)
    u = spectral.u_n_integral(sys_, coc, math.pi, 6)
    t = walkdist.distribution(sys_, coc, 6, mode="float")
    assert u == pytest.approx(2 * math.pi * t.mass_at((0,)), rel=1e-10)
    assert u > 0


def test_u_n_rejects_asymmetric_input():
    # lambda(-theta) = conj lambda(theta): a non-real lambda shows on the
    # evaluated half of the ball, in d = 1 and d = 2
    sys_, coc, _ = presets.asymmetric_z()
    with pytest.raises(ConsistencyError):
        spectral.u_n_integral(sys_, coc, 2.0, 5)
    with pytest.raises(ConsistencyError, match="symmetry hypothesis fails"):
        spectral.u_n_integral(*_markov3_z2(), 0.5, 5)


def test_u_n_embedded_line():
    sys_, coc, _ = presets.embedded4()
    u0 = spectral.u_n_integral(sys_, coc, 0.5, 0)
    assert u0 == pytest.approx(1.0 / (2 * math.pi), rel=1e-10)
    u = spectral.u_n_integral(sys_, coc, 0.5, 100)
    assert 0 < u < u0


def test_local_limit_point_identity_at_origin():
    sys_, coc, _ = presets.trinomial()
    rep = spectral.local_limit_check(sys_, coc, [5, 9], g=(0,))
    # at the origin the normalization is the inversion identity itself
    assert all(abs(r - 1) <= 1e-10 for r in rep.ratios)


def test_local_limit_window_embedded():
    sys_, coc, _ = presets.embedded4()
    rep = spectral.local_limit_check(sys_, coc, [200], E=(-1.0, 1.0))
    assert rep.deviations[0] <= 0.05


def test_reality_check_symmetric_and_asymmetric():
    sys_, coc, inv = presets.trinomial()
    rep = spectral.symmetry_reality_check(sys_, coc, inv, 64)
    assert rep.passed and rep.symmetry_ok
    az, ac, _ = presets.asymmetric_z()
    rep2 = spectral.symmetry_reality_check(az, ac, None, 64)
    assert not rep2.passed
    lam, _ = spectral.eigenvalue_at(az, ac, (math.pi / 2,))
    assert lam == pytest.approx(-0.4j, abs=1e-14)


def test_lattice_dim_guard():
    sys_, coc, _ = presets.cyclic3()
    with pytest.raises(ValidationError):
        spectral.perturbed_matrix(sys_, coc, (0.1,))


def test_eigenvalue_grid_rows():
    sys_, coc, _ = presets.trinomial()
    rows = spectral.eigenvalue_grid(sys_, coc, 16)
    assert len(rows) == 16
    theta0 = rows[0]
    assert theta0[0] == 0.0 and theta0[1] == pytest.approx(1.0)
    for row in rows:
        theta, re, im, gap = row
        assert re == pytest.approx((1 + 2 * math.cos(theta)) / 3, abs=1e-14)
        assert abs(im) == 0.0


@pytest.mark.parametrize("name", ["trinomial", "two_state_markov", "z2_lattice", "markov3_z2",
                                  "sticky_z"])
def test_fourier_invert_matches_mass_trajectory(name):
    sys_, coc = _lattice_systems()[name]
    d = coc.spec.key_size
    n = 12 if d == 1 else 6
    targets = [(g,) for g in range(-n, n + 1, 3)] if d == 1 else \
        [(0, 0), (2, 1), (3, 3), (6, 0), (1, 4)]
    traj = walkdist.mass_trajectory(sys_, coc, targets, n, mode="float")
    for g, want in zip(targets, traj[n]):
        rep = spectral.fourier_invert(sys_, coc, g, n, 2 * n + 2)
        assert not rep.aliasing_risk
        assert abs(rep.value - want) <= 1e-12, g


def test_local_limit_and_fourier_reference_read_point_masses(monkeypatch):
    # both read the walk's masses at the requested depths only, within 1e-13
    # relative of the trajectory stepped through every n
    steps = []
    step = walkdist._DenseLatticeEngine.step_once
    monkeypatch.setattr(walkdist._DenseLatticeEngine, "step_once",
                        lambda self: (steps.append(1), step(self)))
    sys_, coc, _ = presets.trinomial()
    spread = GibbsMarkovSystem.bernoulli([Fraction(1, 5), Fraction(3, 5), Fraction(1, 5)])
    for system, g, ns in ((sys_, (3,), [500, 1000, 2000]), (spread, (0,), [5, 9, 80])):
        rep = spectral.local_limit_check(system, coc, ns, g=g)
        assert steps == []          # one-dimensional: powered, not stepped
        traj = walkdist.mass_trajectory(system, coc, [g], ns[-1])
        want = [traj[n][0] * 2 * math.pi / u for n, u in zip(ns, rep.u_values)]
        assert paired_agrees(rep.ratios, want)
        steps.clear()
    for name, g, n in (("trinomial", (2,), 300), ("two_state_markov", (0,), 40),
                       ("z2_lattice", (2, 3), 12)):
        system, cocycle = _lattice_systems()[name]
        rep = spectral.fourier_invert(system, cocycle, g, n, 4 * n + 4, compare=True)
        want = walkdist.mass_trajectory(system, cocycle, [g], n)[n][0]
        assert paired_agrees([rep.reference], [want])


def test_u_n_integral_inversion_identity_bernoulli():
    sys_ = GibbsMarkovSystem.bernoulli([Fraction(1, 5), Fraction(3, 5), Fraction(1, 5)])
    coc = Cocycle(IntegerLattice(1), ((-1,), (0,), (1,)))
    for n in (1, 7, 30, 80):
        mass = walkdist.distribution(sys_, coc, n, mode="rational").mass_at((0,))
        want = 2 * math.pi * float(mass)
        assert spectral.u_n_integral(sys_, coc, math.pi, n) == pytest.approx(want, rel=1e-12)


# ------------------------------------------------------ the half-evaluated grid

def _mirror_rows(resolution, d):
    """Flat index of -theta (index -k mod N per axis) for every row of the grid."""
    shape = (resolution,) * d
    return np.array([np.ravel_multi_index(tuple((-k) % resolution for k in idx), shape)
                     for idx in np.ndindex(*shape)])


def _tie_chain():
    # runner-up ratio 1 at (0, pi/2) and (0, 3pi/2): two eigenvalues of one modulus
    return _markov3_z2()[0], Cocycle(IntegerLattice(2), ((3, -5), (0, 7), (-1, 1)))


def _grid_systems():
    out = dict(_lattice_systems())
    out["tie_chain"] = _tie_chain()
    out["sym4_z2"] = _sym4_z2()
    return out


@pytest.mark.parametrize("name", sorted(_grid_systems()))
def test_half_grid_evaluates_one_row_per_conjugate_pair(name):
    sys_, coc = _grid_systems()[name]
    d = coc.spec.key_size
    resolution = 64 if d == 1 else 32
    thetas, lam, ratio, _ = spectral._grid_leading(sys_, coc, resolution)
    assert np.array_equal(thetas, spectral._torus_grid(resolution, d))
    mirror = _mirror_rows(resolution, d)
    rows = np.arange(len(thetas))
    own = mirror >= rows
    # self-conjugate rows (every coordinate 0 or pi) are among the evaluated ones
    assert own[mirror == rows].all()
    assert own.sum() == (len(thetas) + (mirror == rows).sum()) // 2
    # evaluated rows: bitwise what leading_stack gives on the same characters
    want_lam, want_ratio, loose, pair, _ = spectral._stack(sys_, coc, thetas[own])
    assert repr(lam[own].tolist()) == repr(want_lam.tolist())
    assert repr(ratio[own].tolist()) == repr(want_ratio.tolist())
    # rows whose partner is ill-separated: bitwise a direct solve (the tie
    # chain's ties; no other system here has one)
    ill = np.zeros(len(thetas), dtype=bool)
    ill[own] = loose
    conjugate_pair = np.zeros(len(thetas), dtype=bool)
    conjugate_pair[own] = pair
    # elsewhere only a real B(theta) (markov3_z2 at (pi, pi)) has one, and
    # that row is its own mirror
    assert conjugate_pair[mirror != rows].any() == (name == "sym4_z2")
    direct = ~own & ill[mirror]
    assert direct.any() == (name == "tie_chain")
    direct_lam, direct_ratio = spectral.leading_stack(sys_, coc, thetas[direct])
    assert repr((lam[direct].tolist(), ratio[direct].tolist())) == \
        repr((direct_lam.tolist(), direct_ratio.tolist()))
    # mirrored rows: bitwise the partner's conjugate, +0.0 where lambda is
    # real, or the partner's own eigenvalue where it is one of a conjugate pair
    for i in rows[~own & ~direct]:
        p = mirror[i]
        assert repr((lam[i].real, ratio[i])) == repr((lam[p].real, ratio[p]))
        imag = float(lam[p].imag) if conjugate_pair[p] else 0.0 - float(lam[p].imag)
        assert repr(float(lam[i].imag)) == repr(imag)
        if lam[i].imag == 0.0:
            assert repr(float(lam[i].imag)) == "0.0"
    # and a maximal-modulus eigenvalue of the twisted matrix at -theta (a
    # Bernoulli lambda is the trace, which conjugates exactly)
    for i in rows[~own] if not sys_.is_bernoulli else ():
        eig = np.linalg.eigvals(spectral.perturbed_matrix(sys_, coc, thetas[i]))
        assert np.abs(eig - lam[i]).min() <= 1e-12, thetas[i]
        assert abs(abs(lam[i]) - np.abs(eig).max()) <= 1e-12, thetas[i]


@pytest.mark.parametrize("name", sorted(_lattice_systems()))
def test_mirrored_rows_agree_with_direct_evaluation(name):
    sys_, coc = _lattice_systems()[name]
    d = coc.spec.key_size
    resolution = 512 if d == 1 else 128
    thetas, lam, ratio, _ = spectral._grid_leading(sys_, coc, resolution)
    direct_lam, direct_ratio = spectral.leading_stack(sys_, coc, thetas)
    assert np.abs(lam - direct_lam).max() <= 1e-13       # |lambda| <= 1
    assert np.abs(ratio - direct_ratio).max() <= 1e-13
    if not sys_.is_bernoulli:
        assert (np.abs(lam - direct_lam) / np.abs(direct_lam)).max() <= 1e-13


def _defective_chain():
    # two equal rows of P make 0 an eigenvalue of B(theta); where the runner-up
    # nears 0 the pair is nearly defective, and a solve of conj B(theta) returns
    # the conjugate spectrum only to about sqrt(u) |B| (the chain of the
    # character_grids benchmark workload at seed 2501)
    sys_ = GibbsMarkovSystem.markov([[Fraction(1, 3), Fraction(5, 12), Fraction(1, 4)],
                                     [Fraction(1, 3)] * 3, [Fraction(1, 3)] * 3])
    return sys_, Cocycle(IntegerLattice(2), ((1, 0), (0, 1), (0, 0)))


@pytest.mark.parametrize("resolution", [32, 128])
def test_mirror_solves_rows_whose_partner_is_ill_separated(resolution, monkeypatch):
    sys_, coc = _defective_chain()
    thetas, lam, ratio, _ = spectral._grid_leading(sys_, coc, resolution)
    want_lam, want_ratio = spectral.leading_stack(sys_, coc, thetas)
    # mirrored, the runner-up ratio was 8.2e-9 off at resolution 128
    assert np.abs(lam - want_lam).max() <= 1e-13
    assert np.abs(ratio - want_ratio).max() <= 1e-13
    assert spectral.eigenvalue_grid(sys_, coc, resolution) == \
        spectral._grid_rows(thetas, lam, ratio)
    # the half grid and the rows whose partner is ill-separated, nothing else
    mirror = _mirror_rows(resolution, 2)
    own = mirror >= np.arange(len(thetas))
    ill = np.zeros(len(thetas), dtype=bool)
    ill[own] = spectral._stack(sys_, coc, thetas[own])[2]
    direct = int((~own & ill[mirror]).sum())
    assert 0 < direct <= len(thetas) // 50      # 15 at resolution 32, 63 at 128
    rows, stack = [], spectral._stack
    monkeypatch.setattr(spectral, "_stack",
                        lambda s, c, t: (rows.append(len(t)), stack(s, c, t))[1])
    spectral.symmetry_reality_check(sys_, coc, None, resolution)
    assert rows == [own.sum(), direct]


def _sym4_seed2633():
    # the leading pair is a conjugate pair at 2,642 of the 64^2 grid's rows
    return _gmbench_sym4([["7/24", "13/72", "25/72", "13/72"], ["13/72", "7/24", "13/72", "25/72"],
                          ["53/136", "33/136", "25/136", "25/136"],
                          ["33/136", "53/136", "25/136", "25/136"]])


@pytest.mark.parametrize("name, most_direct", [("tie_chain", 64), ("sym4_z2", 0),
                                                ("sym4_seed2633", 1)])
def test_mirror_copies_conjugate_pair_ties(name, most_direct, monkeypatch):
    # a conjugate pair is the spectrum at -theta too, and both rows report its
    # member with Im >= 0: the mirror copies it.  The tie chain's ties are
    # lambda and -conj lambda, no conjugate pair: they are solved directly.
    sys_, coc = {"tie_chain": _tie_chain, "sym4_z2": _sym4_z2,
                 "sym4_seed2633": _sym4_seed2633}[name]()
    resolution = 32 if name == "tie_chain" else 64
    rows, stack = [], spectral._stack
    monkeypatch.setattr(spectral, "_stack",
                        lambda s, c, t: (rows.append(len(t)), stack(s, c, t))[1])
    thetas, lam, ratio, _ = spectral._grid_leading(sys_, coc, resolution)
    monkeypatch.undo()
    own = _mirror_rows(resolution, 2) >= np.arange(len(thetas))
    assert rows[0] == own.sum() and sum(rows[1:]) <= most_direct   # 1,322 at seed 2633 before
    tie = ~own & (1 - ratio < spectral.NEAR_DEGENERATE_GAP)
    assert tie.any()
    direct_lam, direct_ratio = spectral.leading_stack(sys_, coc, thetas[tie])
    assert np.abs(lam[tie] - direct_lam).max() <= 1e-13
    assert np.abs(ratio[tie] - direct_ratio).max() <= 1e-13
    for i in np.flatnonzero(tie):
        eig = np.linalg.eigvals(spectral.perturbed_matrix(sys_, coc, thetas[i]))
        assert np.abs(eig - lam[i]).min() <= 1e-13, thetas[i]
        assert name == "tie_chain" or lam[i].imag >= 0


def test_a_near_defective_pair_below_the_runner_up_is_solved_directly():
    # B(3.240, pi/2) of the seed-189 chain has a near-defective pair +-1.5e-7
    # below its runner-up 1.77e-4: the partner row is ill-separated, so the
    # row is solved directly and its runner-up ratio matches complex LAPACK
    sys_, coc = _sym4_seed189()
    thetas, lam, ratio, _ = spectral._grid_leading(sys_, coc, 64)
    i = 33 * 64 + 16
    p = _mirror_rows(64, 2)[i]
    assert p < i and spectral._stack(sys_, coc, thetas[[p]])[2][0]
    want_lam, want_ratio = _per_theta_leading(sys_, coc, thetas[i])
    assert abs(lam[i] - want_lam) <= 1e-13
    assert abs(ratio[i] - want_ratio) <= 1e-13      # 4.7e-10 off when mirrored
    direct_lam, direct_ratio = spectral.leading_stack(sys_, coc, thetas)
    assert np.abs(lam - direct_lam).max() <= 1e-13
    assert np.abs(ratio - direct_ratio).max() <= 1e-13


def test_reality_check_matches_the_full_grid():
    for sys_, coc in (_markov3_z2(), _tie_chain(), _sticky_z(), _defective_chain()):
        thetas = spectral._torus_grid(32, coc.spec.key_size)
        imag = np.abs(spectral.leading_stack(sys_, coc, thetas)[0].imag)
        i = int(np.argmax(imag))
        rep = spectral.symmetry_reality_check(sys_, coc, None, 32)
        assert repr((rep.max_imag, rep.argmax_theta)) == \
            repr((float(imag[i]), tuple(thetas[i].tolist())))


# ------------------------------------------------ closed-form 3x3 spectra

def _chain(rows):
    return GibbsMarkovSystem.markov([[Fraction(w, sum(r)) for w in r] for r in rows])


_weights = st.lists(st.integers(1, 30), min_size=3, max_size=3)
_cocycles = st.lists(st.tuples(st.integers(-3, 3), st.integers(-3, 3)), min_size=3,
                     max_size=3).map(lambda v: Cocycle(IntegerLattice(2), tuple(v)))
_chains = st.one_of(
    st.tuples(st.lists(_weights, min_size=3, max_size=3).map(_chain), _cocycles),
    # two equal rows of P: 0 is an eigenvalue, and the runner-up crosses it
    st.tuples(st.tuples(_weights, _weights, st.integers(0, 2)).map(
        lambda t: _chain([t[0] if i == t[2] else t[1] for i in range(3)])), _cocycles),
    st.sampled_from(["tie", "defective"]).map(
        lambda n: _tie_chain() if n == "tie" else _defective_chain()),
)


# read once: the mutants below patch the module's constant
_CUBIC_TOL = spectral.CUBIC_RADIUS_TOL


def _ratios(eig):
    """Runner-up modulus ratios of the rows of ``eig``."""
    return spectral._leading(eig, np.ones(len(eig), dtype=bool))[1]


def _assert_matches_lapack(B):
    """Rows LAPACK solved are bitwise its own; closed-form rows are within
    CUBIC_RADIUS_TOL of it, eigenvalue by nearest eigenvalue both ways, and so
    are their runner-up ratios."""
    eig, lapack = spectral._eigvals(B)
    ref = np.linalg.eigvals(B)
    assert eig[lapack].tobytes() == ref[lapack].tobytes()
    got, want = eig[~lapack], ref[~lapack]
    dist = np.abs(got[:, :, None] - want[:, None, :])
    tol = _CUBIC_TOL
    assert dist.min(axis=2).max(initial=0.0) <= tol
    assert dist.min(axis=1).max(initial=0.0) <= tol
    gap = np.abs(_ratios(got) - _ratios(want))
    assert gap.max(initial=0.0) <= tol
    return lapack


@settings(derandomize=True, max_examples=150, deadline=None)
@given(chain=_chains, resolution=st.integers(8, 24),
       extra=st.lists(st.tuples(st.floats(0, 7), st.floats(0, 7)), max_size=6))
def test_closed_form_spectra_match_lapack(chain, resolution, extra):
    # characters: 0, those that annihilate Lambda0, a torus grid and a few more
    sys_, coc = chain
    thetas = np.concatenate([np.zeros((1, 2)), spectral._forced_characters(coc)[:64],
                             spectral._torus_grid(resolution, 2),
                             np.array(extra, dtype=float).reshape(-1, 2)])
    _assert_matches_lapack(spectral._twisted_stack(sys_, coc, thetas))


def _clustered_matrix():
    # eigenvalues 1e-6, 1e-6 + 1e-12 and 2e-6 under a unit off-diagonal entry:
    # the roots are certified to 1e-13 ||B||_1, far from 1e-13 |lambda_1|
    return np.array([[1e-6, 1, 0], [0, 1e-6 + 1e-12, 0], [0, 0, 2e-6]], dtype=complex)


def _defective_grid():
    sys_, coc = _defective_chain()
    return spectral._twisted_stack(sys_, coc, spectral._torus_grid(128, 2))


def _close_pair():
    # B(pi, 0) is real with eigenvalues 0.2 and 0.2015 (the gmbench character_grids
    # chain at seed 66): the pair is well apart, yet its closed-form roots and
    # LAPACK's differ by 2.3e-13, which only the radius test sees
    sys_ = _chain([[3, 5, 6], [4, 6, 5], [5, 7, 3]])
    return spectral._twisted_stack(sys_, _markov3_z2()[1], np.array([[math.pi, 0.0]]))


def test_clustered_and_defective_spectra_go_to_lapack():
    B = _clustered_matrix()
    assert _assert_matches_lapack(B[None]).all()
    eig = np.linalg.eigvals(B)[None]
    lam, ratio, _, _ = spectral._leading(eig, np.ones(1, dtype=bool))
    assert repr(spectral.leading_eigenvalue(B)) == repr((complex(lam[0]), float(ratio[0])))
    assert _assert_matches_lapack(_close_pair()).all()
    lapack = _assert_matches_lapack(_defective_grid())
    assert 0 < lapack.sum() < len(lapack) // 4     # 2,840 of 16,384 rows


@pytest.mark.parametrize("name, value, stack", [
    ("NEAR_DEGENERATE_GAP", -1.0, lambda: _clustered_matrix()[None]),
    ("CUBIC_RADIUS_TOL", math.inf, _close_pair)])
def test_each_acceptance_test_is_needed(name, value, stack, monkeypatch):
    # without the separation test the clustered matrix is served in closed
    # form, without the radius test the close pair
    B = stack()
    monkeypatch.setattr(spectral, name, value)
    with pytest.raises(AssertionError):
        _assert_matches_lapack(B)


# ------------------------------------------------ symmetric systems in a real basis

def _gmbench_sym4(rows):
    """A symmetric 4-state chain of gmbench character_grids, over +-e1, +-e2."""
    return (GibbsMarkovSystem.markov([[Fraction(w) for w in r] for r in rows]),
            Cocycle(IntegerLattice(2), ((1, 0), (-1, 0), (0, 1), (0, -1))))


def _sym4_seed189():
    # B(3.240, pi/2) has eigenvalues -0.4246, 1.77e-4 and a near-defective
    # pair +-1.5e-7: mirrored, the runner-up ratio was 4.7e-10 off a direct solve
    return _gmbench_sym4([["29/136", "33/136", "37/136", "37/136"],
                          ["33/136", "29/136", "37/136", "37/136"],
                          ["1/6", "5/12", "5/24", "5/24"], ["5/12", "1/6", "5/24", "5/24"]])


def _sym4_seed279():
    # solved as real matrices without the close-pair fallback, the runner-up
    # ratios of B(0) and B(pi, pi) were 4.1e-10 and 8.2e-10 off complex LAPACK
    return _gmbench_sym4([["33/136", "49/136", "25/136", "29/136"],
                          ["49/136", "33/136", "29/136", "25/136"],
                          ["45/136", "41/136", "21/136", "29/136"],
                          ["41/136", "45/136", "29/136", "21/136"]])


def _symmetric_chain(perm, incs, weights, equal_rows):
    """A chain that the involution ``perm`` makes symmetric: the pair of a
    symbol carries its negated increment (a fixed symbol 0), and
    P[perm a][perm b] = P[a][b].  With ``equal_rows`` the first symbol and its
    partner take one perm-invariant row, so 0 is an eigenvalue of every B."""
    m = len(perm)
    w = [[weights[min((a, b), (perm[a], perm[b]))] for b in range(m)] for a in range(m)]
    if equal_rows:
        a = 0
        w[a] = w[perm[a]] = [w[a][min(b, perm[b])] for b in range(m)]
    values = [tuple(-c for c in incs[perm[a]]) if perm[a] < a else
              (incs[a] if perm[a] > a else (0, 0)) for a in range(m)]
    return _chain(w), Cocycle(IntegerLattice(2), tuple(values))


@st.composite
def _symmetric_chains(draw):
    m = draw(st.sampled_from([2, 3, 4, 5, 6]))
    pairs = draw(st.integers(1, m // 2))
    order = draw(st.permutations(range(m)))
    perm = list(range(m))
    for k in range(pairs):
        a, b = order[2 * k], order[2 * k + 1]
        perm[a], perm[b] = b, a
    incs = draw(st.lists(st.tuples(st.integers(-3, 3), st.integers(-3, 3)),
                         min_size=m, max_size=m))
    weights = {(a, b): draw(st.integers(1, 30)) for a in range(m) for b in range(m)}
    return _symmetric_chain(perm, incs, weights, draw(st.booleans()))


# bound on the runner-up ratio error of a kept real-basis row against complex
# LAPACK.  Measured over the draws below: 3.2e-13 (|lambda_1| near 0.3, so an
# eigenvalue error of about 5e-14 is six times that in the ratio); every kept
# eigenvalue was within 4.9e-14, and 1.3 % of the rows fell back.
_REAL_RATIO_TOL = 1e-12


def _unitary_basis(perm):
    """T of ``spectral._real_basis``, column by column: e_a for each fixed
    symbol, then (e_a + e_b) / sqrt 2 and i (e_a - e_b) / sqrt 2 for each
    pair a < b = perm[a]."""
    m = len(perm)
    cols = [np.eye(m)[a] for a in range(m) if perm[a] == a]
    for a in range(m):
        if a < perm[a]:
            plus, minus = np.eye(m)[a] + np.eye(m)[perm[a]], np.eye(m)[a] - np.eye(m)[perm[a]]
            cols += [plus / math.sqrt(2), 1j * minus / math.sqrt(2)]
    return np.array(cols, dtype=complex).T


def _assert_real_basis_matches_lapack(system, cocycle, thetas):
    """T^H B T is real and the real stack is its real part; rows the general
    solve took are bitwise complex LAPACK, and every other row (real basis,
    or closed form at S = 3) is within 1e-13 of it, eigenvalue by nearest
    eigenvalue both ways, with its runner-up ratio within
    ``_REAL_RATIO_TOL``."""
    phases = spectral._phases(cocycle, thetas)
    B = spectral._twisted(system, phases)
    T = _unitary_basis(spectral._involution(system, cocycle))
    assert np.abs(T.conj().T @ T - np.eye(system.m)).max() <= 1e-15
    TBT = T.conj().T @ B @ T
    assert np.abs(TBT.imag).max() <= 1e-15
    real = functools.partial(spectral._real_stack, spectral._real_basis(system, cocycle), phases)
    assert np.abs(real(np.arange(len(B))) - TBT.real).max() <= 1e-15
    eig, general = spectral._eigvals(B, real)
    ref = np.linalg.eigvals(B)
    assert eig[general].tobytes() == ref[general].tobytes()
    got, want = eig[~general], ref[~general]
    dist = np.abs(got[:, :, None] - want[:, None, :])
    assert dist.min(axis=2).max(initial=0.0) <= 1e-13
    assert dist.min(axis=1).max(initial=0.0) <= 1e-13
    gap = np.abs(_ratios(got) - _ratios(want))
    assert gap.max(initial=0.0) <= _REAL_RATIO_TOL
    return general


@settings(derandomize=True, max_examples=120, deadline=None)
@given(chain=st.one_of(_symmetric_chains(), st.sampled_from(
           [_sym4_z2(), _sym4_seed189(), _sym4_seed279()])),
       resolution=st.integers(8, 24),
       extra=st.lists(st.tuples(st.floats(0, 7), st.floats(0, 7)), max_size=6))
def test_real_basis_spectra_match_lapack(chain, resolution, extra):
    sys_, coc = chain
    perm = spectral._involution(sys_, coc)
    assert perm is not None
    assert check_symmetry(sys_, coc, SymmetryInvolution(perm))
    if sys_.is_bernoulli:           # every row equal: the exact trace, no eigensolve
        assert spectral._real_basis(sys_, coc) is None
        return
    thetas = np.concatenate([np.zeros((1, 2)), spectral._torus_grid(resolution, 2),
                             np.array(extra, dtype=float).reshape(-1, 2)])
    _assert_real_basis_matches_lapack(sys_, coc, thetas)


def _check_real_basis_cases():
    """The near-defective gmbench chains' 64^2 grids (128 and 2 of 4,096
    rows fall back); returns the rows that did."""
    return [_assert_real_basis_matches_lapack(sys_, coc, spectral._torus_grid(64, 2))
            for sys_, coc in (_sym4_seed189(), _sym4_seed279())]


def test_near_defective_rows_fall_back_to_complex_lapack():
    for general in _check_real_basis_cases():
        assert 0 < general.sum() <= len(general) // 25


def _not_symmetric_4():
    # the increments of the symmetric 4-state chains, but P[1][1] != P[0][0]
    return _chain([[1, 2, 3, 4], [2, 3, 4, 1], [3, 4, 1, 2], [4, 1, 2, 3]]), _sym4_z2()[1]


def _two_zero_symbols():
    # two symbols of increment 0 that the involution swaps: the first candidate
    # fixes them, and check_symmetry rejects it
    return _symmetric_chain([1, 0, 3, 2], [(1, 2), (0, 0), (0, 0), (0, 0)],
                            {(a, b): 1 + (3 * a + 5 * b) % 7 for a in range(4) for b in range(4)},
                            False)


def _check_involutions():
    assert spectral._involution(*_sym4_z2()) == (1, 0, 3, 2)
    assert spectral._involution(*_two_zero_symbols()) == (1, 0, 3, 2)
    for sys_, coc in (presets.two_state_markov()[:2], _markov3_z2(), _not_symmetric_4()):
        assert spectral._involution(sys_, coc) is None
        assert spectral._real_basis(sys_, coc) is None
    # a Bernoulli system takes no eigensolve, so it gets no basis
    assert spectral._real_basis(*presets.trinomial()[:2]) is None


def test_involution_is_the_one_check_symmetry_accepts():
    _check_involutions()


def _increments_only(system, cocycle, involution):
    # check_symmetry on a uniform chain: only the increments are compared
    uniform = GibbsMarkovSystem.bernoulli([Fraction(1, system.m)] * system.m)
    return check_symmetry(uniform, cocycle, involution)


@pytest.mark.parametrize("name, value, check", [
    ("_real_basis", lambda s, c: _scaled(*_REAL_BASIS(s, c)), _check_real_basis_cases),
    ("_near_pair", lambda eig: np.zeros(len(eig), dtype=bool), _check_real_basis_cases),
    ("check_symmetry", _increments_only, _check_involutions)])
def test_each_real_basis_safeguard_is_needed(name, value, check, monkeypatch):
    # a basis that is not unitary, no close-pair fallback, or an involution not
    # checked against P: each breaks a test above
    monkeypatch.setattr(spectral, name, value)
    with pytest.raises(AssertionError):
        check()


# read once: the mutant above patches the module's function
_REAL_BASIS = spectral._real_basis


def _scaled(M, pairs):
    # M = T^H P^T T of the basis (1 + 5e-8) T, which is not unitary
    return M * (1 + 1e-7), pairs


# ------------------------------------------------ characters forced by Lambda0

def _index3_chain():
    sys_ = GibbsMarkovSystem.markov([
        [Fraction(1, 2), Fraction(1, 4), Fraction(1, 4)],
        [Fraction(1, 3), Fraction(1, 3), Fraction(1, 3)],
        [Fraction(1, 5), Fraction(2, 5), Fraction(2, 5)],
    ])
    return sys_, Cocycle(IntegerLattice(2), ((1, 0), (0, 1), (-1, -1)))


@pytest.mark.parametrize("resolution", [32, 64, 96, 128])
def test_scan_never_passes_a_lattice_periodic_walk(resolution):
    # Lambda0 has index 3: lambda(2pi/3, 2pi/3) has modulus 1, on the grid
    # only when 3 divides the resolution
    sys_, coc = _index3_chain()
    rep = spectral.aperiodicity_scan(sys_, coc, resolution, 0.1)
    assert not rep.passed and rep.algebraic_full is False
    assert rep.max_modulus == pytest.approx(1.0, abs=1e-12)


def test_forced_characters_annihilate_the_difference_lattice():
    from gmwalk.gm_system import check_aperiodicity_algebraic

    cases = dict(_grid_systems())
    cases["index3"] = _index3_chain()
    cases["spread"] = (presets.z2_lattice()[0],
                       Cocycle(IntegerLattice(2), ((0, 0), (4, 2), (0, 6))))
    for name, (sys_, coc) in cases.items():
        alg = check_aperiodicity_algebraic(sys_, coc)
        chars = spectral._forced_characters(coc)
        assert len(chars) == (alg.index - 1 if alg.index else 0), name
        assert len({tuple(t) for t in chars.tolist()}) == len(chars), name
        assert ((chars >= 0) & (chars < 2 * math.pi)).all() and (chars.any(axis=1)).all(), name
        for theta in chars:
            phases = [cmath.exp(1j * float(np.dot(theta, v))) for v in coc.values]
            assert max(abs(z - phases[0]) for z in phases) <= 1e-12, (name, theta)
            lam, _ = spectral.leading_stack(sys_, coc, theta[None])
            assert abs(lam[0]) == pytest.approx(1.0, abs=1e-12), (name, theta)


def test_forced_characters_take_modulus_one_without_a_solve(monkeypatch):
    # values (0,0), (300,0), (0,300): Lambda0 has index 9 x 10^4, and every one
    # of its 89,999 forced characters has B(theta) a unimodular multiple of P^T
    sys_, _ = _index3_chain()
    coc = Cocycle(IntegerLattice(2), ((0, 0), (300, 0), (0, 300)))
    assert len(spectral._forced_characters(coc)) == 9 * 10 ** 4 - 1
    rows = []
    stack = spectral._stack         # every eigensolve of the module runs here
    monkeypatch.setattr(spectral, "_stack",
                        lambda s, c, t: (rows.append(len(t)), stack(s, c, t))[1])
    t0 = time.perf_counter()
    rep = spectral.aperiodicity_scan(sys_, coc, 64, 0.1)
    elapsed = time.perf_counter() - t0
    assert not rep.passed and rep.algebraic_full is False
    assert rep.max_modulus == pytest.approx(1.0, abs=1e-12)
    # solved: the 2050 rows of the half grid and the 256 points of the eps-circle
    assert sum(rows) == (64 * 64 + 4) // 2 + 4 * 64
    assert elapsed < 0.1                # 0.23 s when every forced character was solved


# ------------------------------------------------------ the stacked quadrature

def _adaptive_gl(f, a, b, rel_tol=1e-12, max_depth=48):
    """The recursive rule the stacked quadrature replaced, kept as its reference."""
    nodes, weights = np.polynomial.legendre.leggauss(15)

    def panel(lo, hi):
        mid = 0.5 * (lo + hi)
        half = 0.5 * (hi - lo)
        return half * float(weights @ f(mid + half * nodes))

    scale = abs(panel(a, b)) + 1e-300

    def recurse(lo, hi, whole, depth):
        mid = 0.5 * (lo + hi)
        left = panel(lo, mid)
        right = panel(mid, hi)
        if depth >= max_depth or abs(left + right - whole) <= rel_tol * scale:
            return left + right
        return recurse(lo, mid, left, depth + 1) + recurse(mid, hi, right, depth + 1)

    return recurse(a, b, panel(a, b), 0)


def _reference_u_n(system, cocycle, eta, n):
    """u_n by the recursive rule, nested per radial node in d = 2."""
    def lead(thetas):
        return spectral.leading_stack(system, cocycle, thetas % (2 * math.pi))[0].real ** n

    spec = cocycle.spec
    if isinstance(spec, EmbeddedRealLattice):
        beta = np.array([row[0] for row in spec.basis])
        return _adaptive_gl(lambda t: lead(np.outer(t, beta)), -eta, eta, 1e-12) / (2 * math.pi)
    if spec.key_size == 1:
        return _adaptive_gl(lambda t: lead(t[:, None]), -eta, eta, 1e-12)

    def radial(r):
        return r * _adaptive_gl(lambda t: lead(r * np.stack([np.cos(t), np.sin(t)], axis=1)),
                                0.0, 2 * math.pi, 1e-10)

    return _adaptive_gl(np.vectorize(radial, otypes=[float]), 0.0, eta, 1e-10)


def test_batched_rule_matches_the_recursive_rule():
    def f(x):
        return np.exp(x) * np.cos(5 * x) / (1.1 + np.sin(3 * x))

    # a tiny integral first: each integral is judged by its own scale
    los, his = [0.3, -1.0, 0.0, 2.0], [0.3 + 1e-9, 1.0, 2 * math.pi, 3.5]
    got = spectral._batched_gl(lambda x, _: f(x), los, his, 1e-12)
    # summed in the recursion's order: equal, not only close
    assert got.tolist() == [_adaptive_gl(f, a, b, 1e-12) for a, b in zip(los, his)]
    # each integral keeps its own bounds
    owned = spectral._batched_gl(lambda x, owner: (owner + 1) * f(x), los, his, 1e-12)
    for j, (a, b) in enumerate(zip(los, his)):
        assert owned[j] == pytest.approx((j + 1) * got[j], rel=1e-12)


@pytest.mark.parametrize("name", ["trinomial", "embedded4", "sym4_z2"])
def test_u_n_integral_matches_the_recursive_rule(name):
    sys_, coc = {"trinomial": presets.trinomial()[:2], "embedded4": presets.embedded4()[:2],
                 "sym4_z2": _sym4_z2()}[name]
    eta = math.pi if name == "trinomial" else 0.5
    for n in (0, 10, 20):
        want = _reference_u_n(sys_, coc, eta, n)
        assert spectral.u_n_integral(sys_, coc, eta, n) == pytest.approx(want, rel=1e-13), n


def test_two_dimensional_u_n_stacks_each_level(monkeypatch):
    calls = []
    inner = spectral.leading_stack

    def counted(system, cocycle, thetas):
        calls.append(len(thetas))
        return inner(system, cocycle, thetas)

    monkeypatch.setattr(spectral, "leading_stack", counted)
    sys_, coc = _sym4_z2()
    spectral.u_n_integral(sys_, coc, 0.5, 20)
    stacked, calls[:] = list(calls), []
    _reference_u_n(sys_, coc, 0.5, 20)
    # tens of stacked calls where the nested rule makes hundreds of 15-row ones
    assert len(stacked) <= 30 and len(calls) >= 300
    assert set(calls) == {15}
    # the angle over [0, pi]: 2,025 rows where the full circle took 6,360
    assert sum(stacked) <= 0.6 * sum(calls)


def test_a_quadrature_that_never_settles_raises():
    rng = np.random.default_rng(7)
    with pytest.raises(ConsistencyError, match="does not settle"):
        spectral._batched_gl(lambda x, _: rng.standard_normal(len(x)), [0.0], [1.0], 1e-12)
