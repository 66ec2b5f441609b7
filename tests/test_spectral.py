import cmath
import math
import time
from fractions import Fraction

import numpy as np
import pytest

from gmwalk import presets, spectral, walkdist
from gmwalk.errors import ConsistencyError, ValidationError
from gmwalk.gm_system import Cocycle, GibbsMarkovSystem
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


def _per_theta_scan(system, cocycle, resolution, eps):
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
    mods = [abs(_per_theta_leading(system, cocycle, t)[0]) for t in pts]
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
    # bitwise: every cocycle value here is 0 or +-1, so the phase arguments
    # are exact whatever order the inner products are summed in
    sys_, coc = _lattice_systems()[name]
    d = coc.spec.key_size
    rng = np.random.default_rng(3)
    thetas = _grid(64 if d == 1 else 32, d) + [tuple(t) for t in rng.uniform(0, 7, (50, d))]
    lam, ratio = spectral.leading_stack(sys_, coc, np.array(thetas))
    for theta, got_lam, got_ratio in zip(thetas, lam.tolist(), ratio.tolist()):
        want_lam, want_ratio = _per_theta_leading(sys_, coc, np.array(theta))
        assert repr(got_lam) == repr(complex(want_lam)), theta
        assert repr(got_ratio) == repr(float(want_ratio)), theta
    one = spectral.eigenvalue_at(sys_, coc, thetas[-1])
    assert one == (lam.tolist()[-1], ratio.tolist()[-1])


@pytest.mark.parametrize("name", sorted(_lattice_systems()))
def test_aperiodicity_scan_matches_per_theta_loop(name):
    sys_, coc = _lattice_systems()[name]
    d = coc.spec.key_size
    resolution = 64 if d == 1 else 24
    rep = spectral.aperiodicity_scan(sys_, coc, resolution, 0.1)
    assert (rep.max_modulus, rep.argmax_theta, rep.passed) == \
        _per_theta_scan(sys_, coc, resolution, 0.1)


def test_scan_unchanged_across_blocks(monkeypatch):
    for sys_, coc in (_markov3_z2(), presets.z2_lattice()[:2], _sticky_z()):
        one = (spectral.aperiodicity_scan(sys_, coc, 32, 0.1),
               spectral.eigenvalue_grid(sys_, coc, 32),
               spectral.symmetry_reality_check(sys_, coc, None, 32),
               spectral.fourier_invert(sys_, coc, (1,) * coc.spec.key_size, 5, 32))
        # a few rows per block: the 32^d grid spans many blocks
        monkeypatch.setattr(spectral, "_BLOCK_ENTRIES", 50)
        many = (spectral.aperiodicity_scan(sys_, coc, 32, 0.1),
                spectral.eigenvalue_grid(sys_, coc, 32),
                spectral.symmetry_reality_check(sys_, coc, None, 32),
                spectral.fourier_invert(sys_, coc, (1,) * coc.spec.key_size, 5, 32))
        monkeypatch.undo()
        assert repr(one) == repr(many)


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
    sys_, coc, _ = presets.asymmetric_z()
    with pytest.raises(ConsistencyError):
        spectral.u_n_integral(sys_, coc, 2.0, 5)


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
    return out


@pytest.mark.parametrize("name", sorted(_grid_systems()))
def test_half_grid_evaluates_one_row_per_conjugate_pair(name):
    sys_, coc = _grid_systems()[name]
    d = coc.spec.key_size
    resolution = 64 if d == 1 else 32
    thetas, lam, ratio = spectral._grid_leading(sys_, coc, resolution)
    assert np.array_equal(thetas, spectral._torus_grid(resolution, d))
    mirror = _mirror_rows(resolution, d)
    rows = np.arange(len(thetas))
    own = mirror >= rows
    # self-conjugate rows (every coordinate 0 or pi) are among the evaluated ones
    assert own[mirror == rows].all()
    assert own.sum() == (len(thetas) + (mirror == rows).sum()) // 2
    # evaluated rows: bitwise what leading_stack gives on the same characters
    want_lam, want_ratio, loose = spectral._stack(sys_, coc, thetas[own])
    assert repr(lam[own].tolist()) == repr(want_lam.tolist())
    assert repr(ratio[own].tolist()) == repr(want_ratio.tolist())
    # rows whose partner is ill-separated: bitwise a direct solve (the tie
    # chain's ties; no other system here has one)
    ill = np.zeros(len(thetas), dtype=bool)
    ill[own] = loose
    direct = ~own & ill[mirror]
    assert direct.any() == (name == "tie_chain")
    direct_lam, direct_ratio = spectral.leading_stack(sys_, coc, thetas[direct])
    assert repr((lam[direct].tolist(), ratio[direct].tolist())) == \
        repr((direct_lam.tolist(), direct_ratio.tolist()))
    # mirrored rows: bitwise the partner's conjugate, +0.0 where lambda is real
    for i in rows[~own & ~direct]:
        p = mirror[i]
        assert repr((lam[i].real, ratio[i])) == repr((lam[p].real, ratio[p]))
        assert repr(float(lam[i].imag)) == repr(0.0 - float(lam[p].imag))
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
    thetas, lam, ratio = spectral._grid_leading(sys_, coc, resolution)
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
    thetas, lam, ratio = spectral._grid_leading(sys_, coc, resolution)
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


def test_reality_check_matches_the_full_grid():
    for sys_, coc in (_markov3_z2(), _tie_chain(), _sticky_z(), _defective_chain()):
        thetas = spectral._torus_grid(32, coc.spec.key_size)
        imag = np.abs(spectral.leading_stack(sys_, coc, thetas)[0].imag)
        i = int(np.argmax(imag))
        rep = spectral.symmetry_reality_check(sys_, coc, None, 32)
        assert repr((rep.max_imag, rep.argmax_theta)) == \
            repr((float(imag[i]), tuple(thetas[i].tolist())))


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


def _sym4_z2():
    """gmbench's symmetric 4-state chain over +-e1, +-e2 at fixed rows."""
    r0 = [Fraction(2, 10), Fraction(3, 10), Fraction(1, 10), Fraction(4, 10)]
    r2 = [Fraction(1, 10), Fraction(1, 10), Fraction(6, 10), Fraction(2, 10)]
    rows = [r0, [r0[1], r0[0], r0[3], r0[2]], r2, [r2[1], r2[0], r2[3], r2[2]]]
    sys_ = GibbsMarkovSystem.markov([[(Fraction(1, 4) + w) / 2 for w in r] for r in rows])
    return sys_, Cocycle(IntegerLattice(2), ((1, 0), (-1, 0), (0, 1), (0, -1)))


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


def test_a_quadrature_that_never_settles_raises():
    rng = np.random.default_rng(7)
    with pytest.raises(ConsistencyError, match="does not settle"):
        spectral._batched_gl(lambda x, _: rng.standard_normal(len(x)), [0.0], [1.0], 1e-12)
