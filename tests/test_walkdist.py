import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, strategies as st

from gmwalk import oracle, presets, pressure, walkdist
from gmwalk.errors import ResourceLimitError, ValidationError
from gmwalk.gm_system import Cocycle, GibbsMarkovSystem, check_aperiodicity_algebraic
from gmwalk.groups import (DirectProduct, EmbeddedRealLattice, FiniteGroup, HeisenbergZ,
                           IntegerLattice, cyclic_group, left_product)
from gmwalk.walkdist import heis_z_bound
from pairing import HEIS_MARKOV, paired_agrees


def test_step_zero_seed_and_mass():
    sys_, coc, _ = presets.trinomial()
    t0 = walkdist.distribution(sys_, coc, 0)
    assert t0.n == 0
    assert t0.mass_at((0,)) == 1
    assert t0.state_marginal(3) == list(sys_.pi)
    t1 = walkdist.distribution(sys_, coc, 1)
    assert t1.n == 1
    assert t1.group_masses() == {(-1,): Fraction(1, 3), (0,): Fraction(1, 3),
                                 (1,): Fraction(1, 3)}
    assert t1.state_marginal(3) == list(sys_.pi)


def test_two_step_trinomial_masses():
    sys_, coc, _ = presets.trinomial()
    t = walkdist.distribution(sys_, coc, 2)
    gm = t.group_masses()
    assert gm[(0,)] == Fraction(1, 3)
    assert gm[(2,)] == gm[(-2,)] == Fraction(1, 9)
    assert gm[(1,)] == gm[(-1,)] == Fraction(2, 9)


def test_heisenberg_two_step_return():
    sys_, coc, _ = presets.heisenberg_symmetric()
    t = walkdist.distribution(sys_, coc, 2)
    assert t.mass_at((0, 0, 0)) == Fraction(1, 4)


def test_trinomial_four_step_central_mass():
    sys_, coc, _ = presets.trinomial()
    t = walkdist.distribution(sys_, coc, 4)
    assert t.mass_at((0,)) == Fraction(19, 81)


def test_asymmetric_odd_step_has_no_return():
    sys_, coc, _ = presets.asymmetric_z()
    t = walkdist.distribution(sys_, coc, 7)
    assert t.mass_at((0,)) == 0


def test_cyclic3_one_step_uniform():
    sys_, coc, _ = presets.cyclic3()
    t = walkdist.distribution(sys_, coc, 1)
    assert t.group_masses() == {(0,): Fraction(1, 3), (1,): Fraction(1, 3),
                                (2,): Fraction(1, 3)}


@pytest.mark.parametrize("name", sorted(presets.ALL_EXAMPLES))
def test_mass_conservation_and_stationary_marginal(name):
    sys_, coc, _ = presets.ALL_EXAMPLES[name]()
    t = walkdist.distribution(sys_, coc, 7)
    assert t.total() == 1
    assert t.state_marginal(sys_.m) == list(sys_.pi)
    tf = walkdist.distribution(sys_, coc, 7, mode="float")
    assert abs(tf.total() - 1.0) <= 1e-12
    for a, b in zip(tf.state_marginal(sys_.m), sys_.pi_float):
        assert abs(a - b) <= 1e-12


def test_support_stays_in_word_ball():
    sys_, coc, _ = presets.heisenberg_symmetric()
    n = 8
    t = walkdist.distribution(sys_, coc, n)
    for g in t.support():
        assert abs(g[0]) + abs(g[1]) <= n
        assert abs(g[2]) <= n * n // 4 + n


@given(
    st.lists(st.tuples(st.integers(-2, 2), st.integers(-2, 2), st.integers(-2, 2)),
             min_size=1, max_size=4),
    st.lists(st.integers(0, 3), min_size=1, max_size=12),
)
def test_heis_z_bound_dominates_every_word(atoms, word):
    word = [i % len(atoms) for i in word]
    g = left_product((atoms[i] for i in word), HeisenbergZ())
    assert abs(g[2]) <= heis_z_bound(atoms, len(word))


def test_mixed_heisenberg_increments_conserve_mass():
    # atoms that advance y while shearing outgrow the quarter-square budget,
    # so the box must switch to the triangular one (regression: mass leaked)
    sys_ = GibbsMarkovSystem.bernoulli([Fraction(1, 2), Fraction(1, 2)])
    coc = Cocycle(HeisenbergZ(), ((1, 1, 0), (-1, -1, 0)))
    exact = walkdist.distribution(sys_, coc, 20, mode="rational")
    dense = walkdist.distribution(sys_, coc, 20, mode="float")
    assert dense.total() == pytest.approx(1.0, abs=1e-12)
    ref = {k: float(v) for k, v in exact.group_masses().items()}
    got = dense.group_masses()
    assert set(ref) == set(got)
    assert all(abs(ref[k] - got[k]) <= 1e-15 for k in ref)


def test_left_order_matches_oracle_and_reversed_differs():
    sys_, coc, _ = presets.heisenberg_asymmetric()
    disagreed = False
    for n in range(1, 5):
        fast = walkdist.distribution(sys_, coc, n)
        fwd = oracle.oracle_distribution(sys_, coc, n)
        rev = oracle.oracle_distribution_reversed(sys_, coc, n)
        assert fast.data == fwd.data
        if fast.data != rev.data:
            disagreed = True
    assert disagreed


def test_ratio_sequence_basics():
    sys_, coc, _ = presets.trinomial()
    rep = walkdist.ratio_sequence(sys_, coc, (0,), [1], mode="rational")
    # one-step and two-step central masses are both exactly 1/3
    assert rep.ratios == [1.0]
    rep2 = walkdist.ratio_sequence(sys_, coc, (0,), [100, 200])
    assert rep2.deviations[0] > rep2.deviations[1]
    assert not rep2.periodic


def test_ratio_sequence_periodic_diagnostic():
    sys_, coc, _ = presets.simple_walk()
    rep = walkdist.ratio_sequence(sys_, coc, (0,), [10, 20], stride=2)
    assert rep.periodic
    assert "period" in rep.note
    assert rep.first_valid_n == 2          # first even return
    assert all(abs(r - 1) < 0.2 for r in rep.ratios)
    # stride 1 hits the parity zeros: the ratios collapse to 0
    rep1 = walkdist.ratio_sequence(sys_, coc, (0,), [10, 20], stride=1)
    assert rep1.periodic and all(r == 0.0 for r in rep1.ratios)


def test_cyclic3_ratio_converges_exponentially():
    sys_, coc, _ = presets.cyclic3()
    rep = walkdist.ratio_sequence(sys_, coc, (1,), [5, 30])
    assert rep.deviations[-1] <= 1e-12


def test_cross_ratio_identity_and_oracle():
    sys_, coc, _ = presets.trinomial()
    rep = walkdist.cross_ratio(sys_, coc, (0,), 17, mode="rational")
    assert rep.value == 1.0
    t10 = oracle.oracle_distribution(sys_, coc, 10)
    expected = t10.mass_at((1,)) / t10.mass_at((0,))
    rep2 = walkdist.cross_ratio(sys_, coc, (1,), 10, mode="rational")
    assert rep2.value == pytest.approx(float(expected), rel=1e-15)


@pytest.mark.parametrize("ns, stride, error", [
    ([4, 8], 0, "stride must be >= 1"),
    ([4, 8], -2, "stride must be >= 1"),
    ([-3, 2], 1, "each n >= 0"),
    ([], 1, "at least one n"),
])
def test_ratio_sequence_validates_ns_and_stride(ns, stride, error):
    sys_, coc, _ = presets.trinomial()
    with pytest.raises(ValidationError, match=error):
        walkdist.ratio_sequence(sys_, coc, (0,), ns, stride=stride)


@pytest.mark.parametrize("n", [0, -1])
def test_cross_ratio_needs_n_at_least_one(n):
    sys_, coc, _ = presets.trinomial()
    with pytest.raises(ValidationError, match="cross ratios need n >= 1"):
        walkdist.cross_ratio(sys_, coc, (0,), n)


def test_clt_reference_curve():
    sys_, coc, _ = presets.trinomial()
    rep = walkdist.cross_ratio(sys_, coc, (5,), 100)
    # per-step variance 2/3 gives the reference exp(-18.75/n)
    assert rep.clt_reference == pytest.approx(math.exp(-18.75 / 100), rel=1e-12)


def test_window_mass_examples():
    sys_, coc, _ = presets.embedded4()
    assert walkdist.window_mass(sys_, coc, (-0.5, 0.5), 1).value == 0.0
    assert walkdist.window_mass(sys_, coc, (-1.1, 1.1), 1).value == pytest.approx(0.5)
    # two-step masses against the exact sparse enumeration
    t2 = walkdist.distribution(sys_, coc, 2)
    spec = coc.spec
    expected = sum(
        w for g, w in t2.group_masses().items() if -3 < spec.embed(g)[0] < 3
    )
    got = walkdist.window_mass(sys_, coc, (-3.0, 3.0), 2).value
    assert got == pytest.approx(float(expected), abs=1e-14)
    exact = walkdist.window_mass(sys_, coc, (-3.0, 3.0), 2, mode="rational").value
    assert exact == float(expected)


_WINDOW_OPS = {
    "window_mass": lambda s, c, E, g, mode: walkdist.window_mass(s, c, E, 3, mode=mode),
    "window_pair_ratios": lambda s, c, E, g, mode: walkdist.window_pair_ratios(
        s, c, E, [g], 3, mode=mode),
    "stone_ratio": lambda s, c, E, g, mode: walkdist.stone_ratio(s, c, E, E, 3, mode=mode),
    "check_condition_C": lambda s, c, E, g, mode: walkdist.check_condition_C(
        s, c, E, g, 1, 1, 3, mode=mode),
    "check_condition_CM": lambda s, c, E, g, mode: walkdist.check_condition_CM(
        s, c, (0,), E, E, E, g, 3, mode=mode),
}


@pytest.mark.parametrize("mode", ["float", "rational"])
@pytest.mark.parametrize("preset", ["trinomial", "heisenberg_symmetric"])
@pytest.mark.parametrize("op", sorted(_WINDOW_OPS))
def test_window_requires_embedded_lattice(op, preset, mode):
    sys_, coc, _ = presets.ALL_EXAMPLES[preset]()
    E = ((-1.0, 1.0),) * coc.spec.key_size
    with pytest.raises(ValidationError, match="embedded real lattice"):
        _WINDOW_OPS[op](sys_, coc, E, coc.spec.identity(), mode)


# every statistic that reads the walk at group elements, at the element g
_ELEMENT_OPS = {
    "mass_trajectory": lambda s, c, E, g, mode: walkdist.mass_trajectory(s, c, [g], 4, mode),
    "ratio_sequence": lambda s, c, E, g, mode: walkdist.ratio_sequence(s, c, g, [2], mode),
    "cross_ratio": lambda s, c, E, g, mode: walkdist.cross_ratio(s, c, g, 4, mode),
    "check_condition_D": lambda s, c, E, g, mode: walkdist.check_condition_D(
        s, c, g, 1, 1, 3, mode=mode),
    **_WINDOW_OPS,
    "window_mass": lambda s, c, E, g, mode: walkdist.window_mass(s, c, E, 3, g, mode=mode),
}
del _ELEMENT_OPS["stone_ratio"]         # reads no group element


@pytest.mark.parametrize("mode", ["float", "rational"])
@pytest.mark.parametrize("g", [(1,), (1, 0, 0), (1.0, 0)])
@pytest.mark.parametrize("op", sorted(_ELEMENT_OPS))
def test_elements_that_do_not_fit_the_group_are_rejected(op, g, mode):
    sys_, coc, _ = presets.embedded4()
    with pytest.raises(ValidationError, match="does not fit|non-integer"):
        _ELEMENT_OPS[op](sys_, coc, (-1.0, 1.0), g, mode)


@pytest.mark.parametrize("mode", ["float", "rational"])
def test_a_target_of_the_wrong_length_is_not_read_from_another_cell(mode):
    # a short key must not be read from the cell its leading coordinates name
    sys_, coc, _ = presets.z2_lattice()
    with pytest.raises(ValidationError, match=r"\(1,\) does not fit IntegerLattice\(2\)"):
        walkdist.ratio_sequence(sys_, coc, (1,), [10], mode)
    with pytest.raises(ValidationError):
        walkdist.cross_ratio(sys_, coc, (1,), 10, mode)


def test_window_boundary_atom_flagged_and_strict():
    sys_, coc, _ = presets.embedded4()
    # the atom embedded exactly at 1.0 sits on the face of (-1, 1)
    rep = walkdist.window_mass(sys_, coc, (-1.0, 1.0), 1)
    assert rep.boundary_atoms >= 2
    assert rep.value == 0.0          # open window: boundary atoms excluded
    with pytest.raises(ValidationError):
        walkdist.window_mass(sys_, coc, (-1.0, 1.0), 1, strict=True)
    # a flag counts a group element once, whichever states hold its mass:
    # -1 and 1 sit on the faces, each reached in both states at n = 3
    markov = GibbsMarkovSystem.markov([[Fraction(1, 3), Fraction(2, 3)],
                                       [Fraction(3, 5), Fraction(2, 5)]])
    line = Cocycle(EmbeddedRealLattice([(1.0,), (math.sqrt(2),)]), ((1, 0), (-1, 0)))
    # ... and however many faces it is near: the corners (+-1, +-1) of the
    # plane walk's two-step support lie on two faces of (-1, 1)^2 each
    plane = Cocycle(EmbeddedRealLattice([(1.0, 0.0), (0.0, 1.0)]),
                    ((1, 0), (-1, 0), (0, 1), (0, -1)))
    four = GibbsMarkovSystem.bernoulli([Fraction(1, 4)] * 4)
    for mode in ("float", "rational"):
        assert walkdist.window_mass(markov, line, (-1, 1), 3, mode=mode).boundary_atoms == 2
        corners = walkdist.window_mass(four, plane, ((-1, 1), (-1, 1)), 2, mode=mode)
        assert corners.boundary_atoms == 4


def test_window_pair_ratios_sampled_uniformity():
    sys_, coc, _ = presets.embedded4()
    shifts = [(0, 0), (1, 0), (0, 1), (-1, 1)]
    rep = walkdist.window_pair_ratios(sys_, coc, (-1.0, 1.0), shifts, 200)
    assert rep.max_deviation <= 0.1
    assert len(rep.pairs) == 16
    # a trivial second shift leaves the window in place: ratio exactly 1
    trivial = [r for g, g1, r in rep.pairs if g1 == (0, 0)]
    assert trivial and all(r == 1.0 for r in trivial)


def test_stone_ratio_trivial_and_reciprocal():
    sys_, coc, _ = presets.embedded4()
    same = walkdist.stone_ratio(sys_, coc, (-1.5, 1.5), (-1.5, 1.5), 40)
    assert same.ratio == 1.0 and same.target == 1.0
    fwd = walkdist.stone_ratio(sys_, coc, (-1.0, 1.0), (-2.0, 2.0), 60)
    rev = walkdist.stone_ratio(sys_, coc, (-2.0, 2.0), (-1.0, 1.0), 60)
    assert fwd.ratio == pytest.approx(1.0 / rev.ratio, rel=1e-12)
    assert fwd.target == pytest.approx(0.5)


def test_condition_d_iid_identity():
    # for Bernoulli weights the conditioned mass only shifts the target:
    # the depth-1 deviation must equal max_b |mu^{n-1}(g - v(b)) / mu^n(g) - 1|
    sys_, coc, _ = presets.trinomial()
    n, g = 40, (0,)
    rep = walkdist.check_condition_D(sys_, coc, g, 1, 1, n)
    traj = walkdist.mass_trajectory(sys_, coc, [(-1,), (0,), (1,)], n)
    target = traj[n][1]
    expected = max(
        max(v / target, target / v) - 1
        for v in (traj[n - 1][0], traj[n - 1][1], traj[n - 1][2])
    )
    assert rep.worst_by_nprime[1] == pytest.approx(expected, rel=1e-12)


def test_condition_d_input_validation():
    sys_, coc, _ = presets.trinomial()
    with pytest.raises(ValidationError):
        walkdist.check_condition_D(sys_, coc, (0,), 3, 2, 10)
    with pytest.raises(ResourceLimitError):
        walkdist.check_condition_D(sys_, coc, (0,), 1, 9, 12, max_cylinders=100)


def test_one_state_cylinder_check_steps_one_seeded_engine(engines_built):
    # a one-state recursion ignores the seed's state: one engine for the
    # target and one for every cylinder, not one per last symbol
    sys_, coc, _ = presets.trinomial()
    walkdist.check_condition_D(sys_, coc, (0,), 1, 2, 6)
    assert engines_built == ["_DenseLatticeEngine"] * 2
    # m states seed one engine per last symbol
    msys, mcoc, _ = presets.two_state_markov()
    engines_built.clear()
    walkdist.check_condition_D(msys, mcoc, (0,), 1, 2, 6)
    assert engines_built == ["_DenseLatticeEngine"] * (1 + msys.m)


def test_condition_c_saturation_and_independence():
    sys_, coc, _ = presets.embedded4()
    # a window containing the whole support makes both sides 1
    rep = walkdist.check_condition_C(sys_, coc, (-100.0, 100.0), (0, 0), 1, 1, 20)
    assert rep.worst_deviation <= 1e-12
    rep2 = walkdist.check_condition_C(sys_, coc, (-1.0, 1.0), (0, 0), 1, 1, 60)
    assert rep2.worst_deviation < 0.2


def test_condition_c_deviation_decreases_in_n():
    sys_, coc, _ = presets.embedded4()
    devs = [
        walkdist.check_condition_C(sys_, coc, (-1.0, 1.0), (0, 0), 1, 1, n).worst_deviation
        for n in (100, 150, 200)
    ]
    assert devs[0] > devs[1] > devs[2]


def test_condition_cm_saturation_and_far_window():
    sys_, coc, _ = presets.embedded4()
    rep = walkdist.check_condition_CM(
        sys_, coc, (0,), (-60.0, 60.0), (-60.0, 60.0), (-60.0, 60.0), (0, 0), 30
    )
    assert rep.note == "holds"
    far = walkdist.check_condition_CM(
        sys_, coc, (0,), (-0.5, 0.5), (500.0, 501.0), (-1.0, 1.0), (0, 0), 30
    )
    assert far.table[0][2] == 0.0            # LHS vanishes when A is unreachable
    assert far.note == "holds"


def test_condition_cm_acceptance_shape():
    sys_, coc, _ = presets.embedded4()
    for n in (50, 100):
        rep = walkdist.check_condition_CM(
            sys_, coc, (0,), (-0.5, 0.5), (-1.0, 1.0), (-1.0, 1.0), (0, 0), n
        )
        assert rep.note == "holds"


def test_condition_cm_dense_and_sparse_paths_agree():
    sys_, coc, _ = presets.embedded4()
    args = (sys_, coc, (0, 2), (-0.5, 0.5), (-1.0, 1.0), (-1.0, 1.0), (0, 0), 12)
    dense = walkdist.check_condition_CM(*args, mode="float")
    sparse = walkdist.check_condition_CM(*args, mode="rational")
    _, _, lhs_d, rhs_d, _ = dense.table[0]
    _, _, lhs_s, rhs_s, _ = sparse.table[0]
    assert lhs_d == pytest.approx(lhs_s, rel=1e-11)
    assert rhs_d == pytest.approx(rhs_s, rel=1e-11)


def test_finite_group_mixing_uniform_immediately():
    sys_, coc, _ = presets.cyclic3()
    rep = walkdist.finite_group_mixing(sys_, coc, 10)
    assert rep.deviations[0] <= 1e-15


def test_finite_group_mixing_weighted_rate():
    sys_, coc, _ = presets.cyclic2()
    rep = walkdist.finite_group_mixing(sys_, coc, 30)
    for n, d in zip(rep.ns, rep.deviations):
        assert d == pytest.approx(0.5 * 0.8 ** n, abs=1e-13)
    assert rep.rate == pytest.approx(math.log(0.8), rel=1e-6)


def test_finite_group_mixing_periodic_diagnostic():
    sys_ = GibbsMarkovSystem.bernoulli([Fraction(1, 2), Fraction(1, 2)])
    from gmwalk.groups import cyclic_group

    coc = Cocycle(cyclic_group(2), ((1,), (1,)))
    rep = walkdist.finite_group_mixing(sys_, coc, 10)
    assert rep.periodic and rep.rate is None


def test_return_time_tail_fair_coin():
    sys_, coc, _ = presets.cyclic2((Fraction(1, 2), Fraction(1, 2)))
    rep = walkdist.return_time_tail(sys_, coc, 12, mode="rational")
    assert rep.tail[0] == 1
    assert rep.tail[1] == Fraction(1, 2)
    for n in range(1, 13):
        assert rep.tail[n] == Fraction(1, 2 ** n)
    assert rep.r_squared > 0.999


def test_superadditivity_small_exact():
    sys_, coc, _ = presets.trinomial()
    rep = walkdist.superadditivity_check(sys_, coc, 12, mode="rational")
    assert rep.holds and rep.constant == 1.0
    ms, mc, _ = presets.two_state_markov()
    rep2 = walkdist.superadditivity_check(ms, mc, 12, mode="rational")
    assert rep2.holds and rep2.constant < 1.0


def test_sparse_guard_trips():
    # rational Heisenberg work stays on the sparse engine
    sys_, coc, _ = presets.heisenberg_symmetric()
    with pytest.raises(ResourceLimitError) as exc:
        walkdist.distribution(sys_, coc, 40, mode="rational", max_atoms=50)
    done = exc.value.completed
    assert isinstance(done, int) and 0 < done < 40
    # the steps reported as completed fit the guard; one more does not
    walkdist.distribution(sys_, coc, done, mode="rational", max_atoms=50)
    # a Markov table holds S masses per group element, and the guard counts them all
    msys, mcoc, _ = presets.two_state_markov()
    eng = walkdist._SparseEngine(walkdist.walk_recursion(msys, mcoc, "rational"), max_atoms=20)
    with pytest.raises(ResourceLimitError) as exc:
        for _ in range(40):
            eng.step_once()
    done = exc.value.completed
    assert eng.n == done            # the step that trips the guard leaves the table as it was
    # the +-1 walk's support grows by one element per step
    assert msys.m * len(eng.data) <= 20 < msys.m * (len(eng.data) + 1)
    # what the benchmark's tracer reads as sparse.atoms_max: the group elements held
    assert len(eng.data) == len(eng.to_table().group_masses()) == done + 1


def test_dense_guard_trips():
    sys_, coc, _ = presets.heisenberg_symmetric()
    with pytest.raises(ResourceLimitError):
        walkdist.distribution(sys_, coc, 60, mode="float", max_cells=10_000)


# a 3-state chain on Z^2: the differences of its steps (1,0), (0,1), (-1,-1)
# span the index-3 lattice x + y = 0 mod 3
MARKOV3 = GibbsMarkovSystem.markov([[Fraction(1, 2), Fraction(1, 4), Fraction(1, 4)],
                                    [Fraction(1, 3)] * 3,
                                    [Fraction(1, 5), Fraction(2, 5), Fraction(2, 5)]])
Z2_CHAIN = Cocycle(IntegerLattice(2), ((1, 0), (0, 1), (-1, -1)))


def test_dense_guard_counts_every_buffer():
    # +-1 steps fold to n + 1 = 101 cells per state.  2 states: the table and
    # the step buffer (which also takes the mixed table) are 2 x 2 x 101 cells
    sys_, coc, _ = presets.two_state_markov()
    with pytest.raises(ResourceLimitError) as exc:
        walkdist.distribution(sys_, coc, 100, mode="float", max_cells=2 * 2 * 101 - 1)
    assert exc.value.completed == 0
    walkdist.distribution(sys_, coc, 100, mode="float", max_cells=2 * 2 * 101)
    # one state: the table and the step buffer, 2 x 101 cells
    bern, bcoc, _ = presets.asymmetric_z()
    with pytest.raises(ResourceLimitError):
        walkdist.return_sequence(bern, bcoc, 100, max_cells=2 * 101 - 1)
    walkdist.return_sequence(bern, bcoc, 100, max_cells=2 * 101)
    # the 3-state chain on Z^2 with steps (1,0), (0,1), (-1,-1): (n + 1)^2 cells per state
    with pytest.raises(ResourceLimitError):
        walkdist.distribution(MARKOV3, Z2_CHAIN, 100, mode="float",
                              max_cells=2 * 3 * 101 ** 2 - 1)
    walkdist.distribution(MARKOV3, Z2_CHAIN, 100, mode="float", max_cells=2 * 3 * 101 ** 2)


@pytest.fixture
def engines_built(monkeypatch):
    """Class names of the engines built while the test runs, in order."""
    built = []
    for cls in (walkdist._DenseLatticeEngine, walkdist._PackedLatticeEngine,
                walkdist._SparseEngine):
        def counted(self, *args, _init=cls.__init__, **kw):
            _init(self, *args, **kw)
            built.append(type(self).__name__)
        monkeypatch.setattr(cls, "__init__", counted)
    return built


def test_paired_guard_counts_every_buffer(engines_built):
    # heisenberg_asymmetric to n = 5 pairs at K = 3.  Per state, the 3-step box
    # is 7 x 7 x 11 = 539 cells (x, y in [-3, 3], |z| <= 5) and the dual's
    # 2-step box 5 x 5 x 7 = 175 cells.  Held at once: the K-step table, its
    # step buffer and T (P^T W_K in the dual's box), 2 x 539 + 175 = 1253
    # cells; then T and the dual's table and step buffer, 3 x 175.  One
    # full-depth engine would need 2 x 2783 (11 x 11 x 23).  The 4-state
    # chain holds 4 rows of every box, with the same two engines.
    bern, coc, _ = presets.heisenberg_asymmetric()
    for sys_, S in ((bern, 1), (HEIS_MARKOV, 4)):
        engines_built.clear()
        with pytest.raises(ResourceLimitError) as exc:
            walkdist.return_sequence(sys_, coc, 5, max_cells=S * 1253 - 1)
        assert exc.value.completed == 0
        assert engines_built == []          # raised before allocating anything
        got = walkdist.return_sequence(sys_, coc, 5, max_cells=S * 1253)
        assert engines_built == ["_DenseHeisEngine"] * 2
        assert paired_agrees(got, _full_depth_returns(sys_, coc, 5))


def _full_depth_returns(sys_, coc, n, mode="float"):
    # the stepped reference: one engine stepped to n, read through _trajectory
    eng = walkdist._make_engine(walkdist.marginal_recursion(sys_, coc, mode), n)
    return [r for (r,) in walkdist._trajectory(eng, [coc.spec.identity()], n)]


DENSE_BERNOULLI = ["asymmetric_z", "embedded4", "heisenberg_asymmetric",
                   "heisenberg_symmetric", "trinomial", "z2_lattice"]
ONE_DIMENSIONAL = ("asymmetric_z", "trinomial")


@pytest.mark.parametrize("name", DENSE_BERNOULLI)
def test_paired_return_sequence_matches_full_depth(name):
    sys_, coc, _ = presets.ALL_EXAMPLES[name]()
    rec = walkdist.marginal_recursion(sys_, coc, "float")
    deep = 24 if isinstance(coc.spec, HeisenbergZ) else 100
    for n in (1, 2, 3, 9, deep - 1, deep):
        assert paired_agrees(walkdist.return_sequence(sys_, coc, n),
                             _full_depth_returns(sys_, coc, n)), n
    # the rule pairs the two-dimensional lattices and the Heisenberg presets, no line walk
    assert (walkdist._pairing(rec, deep) is not None) == (name not in ONE_DIMENSIONAL)


def test_paired_heisenberg_returns_match_full_depth(engines_built):
    sys_, coc, _ = presets.heisenberg_asymmetric()
    assert paired_agrees(walkdist.return_sequence(sys_, coc, 40),
                         _full_depth_returns(sys_, coc, 40))
    # a 4-state Markov chain pairs with two engines, the forward one and the dual
    heis = presets.heisenberg_symmetric()[1]
    rec = walkdist.marginal_recursion(HEIS_MARKOV, heis, "float")
    assert rec.S == 4 and walkdist._pairing(rec, 20) is not None
    engines_built.clear()
    got = walkdist.return_sequence(HEIS_MARKOV, heis, 20)
    assert engines_built == ["_DenseHeisEngine"] * 2
    assert paired_agrees(got, _full_depth_returns(HEIS_MARKOV, heis, 20))
    # per state (weights picking one state), and seeded at a state
    for n in (7, 20):
        eng = walkdist._make_engine(rec, n, seed_state=2)
        want = [[eng.joint_mass_at(t, (0, 0, 0)) for t in range(4)]]
        for _ in range(n):
            eng.step_once()
            want.append([eng.joint_mass_at(t, (0, 0, 0)) for t in range(4)])
        for t in range(4):
            got = walkdist._identity_returns(rec, n, [float(s == t) for s in range(4)],
                                             seed_state=2)
            assert paired_agrees(got, [row[t] for row in want]), (n, t)


def test_pairing_rule_keeps_line_lattices_and_rational_work_stepped(engines_built):
    # line walks never pair: they step one engine, or none where they block (at
    # n = 100, not at n = 1); planar ones pair only past the rule's fixed cost
    for name in ("trinomial", "asymmetric_z", "two_state_markov", "z2_lattice", "embedded4"):
        sys_, coc, _ = presets.ALL_EXAMPLES[name]()
        rec = walkdist.marginal_recursion(sys_, coc, "float")
        for n in (1, 2, 9, 100):
            engines_built.clear()
            walkdist.return_sequence(sys_, coc, n)
            paired = n == 100 and name in ("z2_lattice", "embedded4")
            blocked = walkdist._on_line(rec) and walkdist._block_length(rec, n, n + 1, 1)
            assert bool(blocked) == (walkdist._on_line(rec) and n == 100) or n == 9, (name, n)
            assert engines_built == ["_DenseLatticeEngine"] * (0 if blocked else 1 + paired), (
                name, n)
    for name, make in presets.ALL_EXAMPLES.items():
        sys_, coc, _ = make()
        calls = [lambda: walkdist.return_sequence(sys_, coc, 8, mode="rational"),
                 lambda: pressure.grouped_return_sequence(sys_, coc, 0, 8, mode="rational"),
                 lambda: pressure.spectral_radius_convolution(
                     pressure.one_step_law(sys_, coc), 6, mode="rational")]
        # rational lattice work is packed; the Heisenberg group and finite groups stay sparse
        want = "_PackedLatticeEngine" if isinstance(
            coc.spec, (IntegerLattice, EmbeddedRealLattice)) else "_SparseEngine"
        for call in calls:
            engines_built.clear()
            call()
            assert engines_built == [want], name
        # exact work is never paired, however deep
        assert walkdist._pairing(walkdist.marginal_recursion(sys_, coc, "rational"), 400) is None


PLANAR_WALKS = {
    "z2_lattice": presets.z2_lattice()[:2],
    "embedded4": presets.embedded4()[:2],
    "markov3_z2": (MARKOV3, Z2_CHAIN),           # index 3: (0, 0) only at depths 3k
    "markov4_z2": (HEIS_MARKOV, Cocycle(IntegerLattice(2), ((1, 0), (-1, 0), (0, 1), (0, -1)))),
}


@pytest.mark.parametrize("name", sorted(PLANAR_WALKS))
def test_paired_point_masses_match_stepped(name):
    sys_, coc = PLANAR_WALKS[name]
    spec = coc.spec
    rec = walkdist.marginal_recursion(sys_, coc, "float")
    a, b = coc.value(0), coc.value(1)
    # e; a difference of atoms (on Lambda0); an atom (on the coset of other depths
    # than e); a far element, on some cosets but off every box
    targets = [spec.identity(), spec.multiply(a, spec.inverse(b)), a, (500,) * spec.key_size]
    seeds = (None, 1) if rec.S > 1 else (None,)
    for depths, paired in (([6, 7], False), ([9, 10, 40, 41, 110, 113], True)):
        assert (walkdist._pairing(rec, max(depths), targets=targets) is not None) == paired
        for seed in seeds:
            got = walkdist._point_masses(rec, targets, depths, seed_state=seed)
            want = sum(_stepped_masses(rec, targets, depths, seed), [])
            assert sorted(got) == depths
            assert paired_agrees(sum((got[n] for n in depths), []), want), (depths, seed)
            assert 0 in want and max(want) > 0
    assert paired_agrees(walkdist.return_sequence(sys_, coc, 110),
                         _full_depth_returns(sys_, coc, 110))
    for g in targets[:3]:
        for stride in (1, 2, 3):
            rep = walkdist.ratio_sequence(sys_, coc, g, [20, 99, 100], stride=stride)
            kept, ratios, first = _stepped_ratio_report(sys_, coc, g, [20, 99, 100], stride,
                                                        "float")
            assert (rep.ns, rep.first_valid_n) == (kept, first)
            assert paired_agrees(rep.ratios, ratios), (g, stride)
        num, den = walkdist.mass_trajectory(sys_, coc, [g, targets[0]], 120)[120]
        assert paired_agrees([walkdist.cross_ratio(sys_, coc, g, 120).value], [num / den])


def test_paired_lattice_guard_counts_every_buffer(engines_built):
    # the Z^2 chain at n = 120 pairs at K = 60: per state, the 60-step box and
    # the dual's are 61^2 = 3721 cells.  One target: the K-step table, its step
    # buffer and T_c, then T_c and the dual's two buffers, 3 x 3 x 3721 = 33489.
    # Two targets read two shifts c, so P^T W_K is kept beside the dual:
    # 3 x 4 x 3721 = 44652.  One engine to n = 120 would hold 2 x 3 x 121^2.
    for targets, cells in (([(0, 0)], 33489), ([(1, -1), (0, 0)], 44652)):
        rec = walkdist.marginal_recursion(MARKOV3, Z2_CHAIN, "float")
        engines_built.clear()
        with pytest.raises(ResourceLimitError) as exc:
            walkdist._point_masses(rec, targets, [120], max_cells=cells - 1)
        assert exc.value.completed == 0
        assert engines_built == []          # raised before allocating anything
        got = walkdist._point_masses(rec, targets, [120], max_cells=cells)
        assert engines_built == ["_DenseLatticeEngine"] * 2
        assert paired_agrees(got[120], _stepped_masses(rec, targets, [120])[0])


@pytest.mark.parametrize("mode", ["float", "rational"])
def test_seed_off_the_box_raises(mode):
    # a seed entry counts as one step, so its element must be an atom
    sys_, coc, _ = presets.trinomial()
    rec = walkdist.marginal_recursion(sys_, coc, mode)
    engine = walkdist._dense_layout(rec)
    with pytest.raises(ValidationError):
        engine(rec, 4, seed_entry=(0, (100,)))
    assert engine(rec, 4, seed_entry=(0, (1,))).mass_at((1,)) == 1
    if mode == "float":         # and so must the blocked path's
        with pytest.raises(ValidationError):
            walkdist._blocked_masses(rec, [(0,)], [0, 4], 2, seed_entry=(0, (100,)))
        assert walkdist._blocked_masses(rec, [(1,)], [0], 2, seed_entry=(0, (1,))) == {0: [1.0]}


def test_return_sequence_takes_no_seed_entry():
    sys_, coc, _ = presets.heisenberg_asymmetric()
    with pytest.raises(TypeError):
        walkdist.return_sequence(sys_, coc, 5, seed_entry=(0, coc.value(0)))


def test_rational_markov_mass_at_sums_the_states():
    # the per-state read equals the group marginal of the table
    sys_, coc, _ = presets.two_state_markov()
    eng = walkdist._stepped(walkdist.marginal_recursion(sys_, coc, "rational"), 9)
    marg = eng.to_table().group_masses()
    for g in list(marg) + [(99,)]:
        assert eng.mass_at(g) == marg.get(g, 0)
        assert isinstance(eng.mass_at(g), Fraction)


def _close(a, b, rel=1e-13):
    return abs(a - b) <= rel * max(abs(a), abs(b))


def _agree(got, want, mode):
    # exact in rational mode, 1e-13 relative in float mode
    if mode == "rational":
        return got == want
    return len(got) == len(want) and all(_close(a, b) for a, b in zip(got, want))


def _walk_trajectory(sys_, coc, targets, n, mode, seed_state=None):
    # the m-state walk, stepped here
    eng = walkdist._make_engine(walkdist.walk_recursion(sys_, coc, mode), n, seed_state)
    return walkdist._trajectory(eng, targets, n)


@pytest.mark.parametrize("name", sorted(n for n, mk in presets.ALL_EXAMPLES.items()
                                        if mk()[0].is_bernoulli))
def test_one_state_and_m_state_recursions_agree(name):
    # return_sequence steps the one-step law (S = 1); the walk has m states
    sys_, coc, _ = presets.ALL_EXAMPLES[name]()
    e = coc.spec.identity()
    n = 12 if isinstance(coc.spec, HeisenbergZ) else 30
    for mode in ("rational", "float"):
        fast = walkdist.return_sequence(sys_, coc, n, mode=mode)
        walk = [row[0] for row in _walk_trajectory(sys_, coc, [e], n, mode)]
        assert len(fast) == n + 1
        assert _agree(fast, walk, mode)


BERNOULLI_LATTICES = ["asymmetric_z", "embedded4", "trinomial", "z2_lattice"]


@pytest.mark.parametrize("mode", ["float", "rational"])
@pytest.mark.parametrize("name", BERNOULLI_LATTICES)
def test_one_state_mass_trajectory_matches_walk(name, mode):
    sys_, coc, _ = presets.ALL_EXAMPLES[name]()
    spec = coc.spec
    steps = [coc.value(s) for s in range(sys_.m)]
    targets = [spec.identity()] + steps + [spec.multiply(steps[0], steps[-1])]
    n = 40 if mode == "float" else 16
    for seed in [None] + list(range(sys_.m)):
        got = walkdist.mass_trajectory(sys_, coc, targets, n, mode, seed_state=seed)
        want = _walk_trajectory(sys_, coc, targets, n, mode, seed)
        assert _agree(sum(got, []), sum(want, []), mode), seed


def _pair_ratios(s, c, mode):
    rep = walkdist.window_pair_ratios(s, c, (-1.0, 1.0), [(0, 0), (1, 0), (1, -1)], 16,
                                      mode=mode)
    return [r for _, _, r in rep.pairs]


def _condition_values(rep):
    return [x for row in rep.table for x in row[2:4]]


# statistic -> (preset, the masses and ratios it reports); windows need embedded4
_ONE_STATE_STATS = {
    "stone_ratio": ("embedded4", lambda s, c, mode: [
        walkdist.stone_ratio(s, c, (-1.0, 1.0), (-2.0, 2.0), 16, mode=mode).ratio]),
    "window_pair_ratios": ("embedded4", _pair_ratios),
    "check_condition_C": ("embedded4", lambda s, c, mode: _condition_values(
        walkdist.check_condition_C(s, c, (-1.5, 1.5), (1, 0), 1, 2, 14, mode=mode))),
    "check_condition_CM": ("embedded4", lambda s, c, mode: _condition_values(
        walkdist.check_condition_CM(s, c, (0, 2), (-0.5, 0.5), (-1.0, 1.0), (-1.0, 1.0),
                                    (0, 0), 14, mode=mode))),
    **{f"check_condition_D-{name}": (name, lambda s, c, mode: _condition_values(
        walkdist.check_condition_D(s, c, c.value(0), 1, 2, 14, mode=mode)))
       for name in BERNOULLI_LATTICES},
}


@pytest.mark.parametrize("mode", ["float", "rational"])
@pytest.mark.parametrize("stat", sorted(_ONE_STATE_STATS))
def test_one_state_statistics_match_walk(stat, mode, monkeypatch):
    name, run = _ONE_STATE_STATS[stat]
    sys_, coc, _ = presets.ALL_EXAMPLES[name]()
    got = run(sys_, coc, mode)
    with monkeypatch.context() as m:
        # the same statistic on the walk with its m state rows
        m.setattr(walkdist, "marginal_recursion", walkdist.walk_recursion)
        want = run(sys_, coc, mode)
    assert got and len(got) == len(want)
    assert _agree(got, want, mode)


@pytest.mark.parametrize("name", sorted(n for n, mk in presets.ALL_EXAMPLES.items()
                                        if not isinstance(mk()[1].spec, FiniteGroup)))
def test_dense_and_sparse_float_engines_agree(name):
    sys_, coc, _ = presets.ALL_EXAMPLES[name]()
    n = 8 if isinstance(coc.spec, HeisenbergZ) else 30
    recs = [walkdist.walk_recursion(sys_, coc, "float")]
    if sys_.is_bernoulli:
        recs.append(walkdist.one_step_recursion(sys_, coc, "float"))
    # unseeded, seeded at a state, and seeded at an entry (a box one step wider)
    seeds = [{}, {"seed_state": sys_.m - 1}, {"seed_entry": (sys_.m - 1, coc.value(0))}]
    for rec, kw in itertools.product(recs, seeds):
        if "seed_entry" in kw and rec.S == 1:
            kw = {"seed_entry": (0, kw["seed_entry"][1])}
        dense = walkdist._make_engine(rec, n, **kw)
        sparse = walkdist._SparseEngine(rec, **kw)
        assert not isinstance(dense, walkdist._SparseEngine)
        for _ in range(n):
            dense.step_once()
            sparse.step_once()
        a = dense.to_table()
        b = sparse.to_table()
        assert set(a.data) <= set(b.data)
        assert all(_close(a.data.get(k, 0.0), w) for k, w in b.data.items())
        assert all(_close(dense.joint_mass_at(s, g), w) for (s, g), w in b.data.items())
        assert all(_close(dense.mass_at(g), w) for g, w in b.group_masses().items())


LATTICE_PRESETS = ["asymmetric_z", "embedded4", "simple_walk", "trinomial", "two_state_markov",
                   "z2_lattice"]


@pytest.mark.parametrize("name", LATTICE_PRESETS)
def test_packed_and_sparse_rational_engines_agree(name):
    sys_, coc, _ = getattr(presets, name)()
    spec = coc.spec
    recs = [walkdist.walk_recursion(sys_, coc, "rational")]
    if sys_.is_bernoulli:
        recs.append(walkdist.one_step_recursion(sys_, coc, "rational"))
    seeds = [{}, {"seed_state": sys_.m - 1}, {"seed_entry": (sys_.m - 1, coc.value(0))}]
    steps = [spec.multiply(coc.value(s), coc.value(0)) for s in range(sys_.m)]
    # off the coset at some depths, and far outside every box
    far = [spec.identity(), tuple([1] + [0] * (spec.key_size - 1)),
           tuple([10 ** 6] * spec.key_size)]
    for rec, kw, n in itertools.product(recs, seeds, (0, 1, 7, 30)):
        if "seed_entry" in kw and rec.S == 1:
            kw = {"seed_entry": (0, kw["seed_entry"][1])}
        packed = walkdist._make_engine(rec, n, **kw)
        sparse = walkdist._SparseEngine(rec, **kw)
        assert type(packed) is walkdist._PackedLatticeEngine
        assert packed.total() == 1
        for _ in range(n):
            packed.step_once()
            sparse.step_once()
            assert packed.total() == 1 and type(packed.total()) is Fraction
        a, b = packed.to_table(), sparse.to_table()
        assert (a.n, a.mode) == (b.n, b.mode) and a.data == b.data, (kw, n)
        assert all(type(w) is Fraction for w in a.data.values())
        for g in list(b.group_masses()) + steps + far:
            assert packed.mass_at(g) == sparse.mass_at(g) and type(packed.mass_at(g)) is Fraction
            for s in range(rec.S):
                assert packed.joint_mass_at(s, g) == sparse.joint_mass_at(s, g)
        if isinstance(spec, EmbeddedRealLattice):
            # the view: the nonzero group-marginal masses in key order, and their embeddings
            emb, mass = packed.group_view()
            want = b.group_masses()
            keys = sorted(want)
            assert np.array_equal(emb, walkdist._embed(spec, np.array(keys, dtype=np.int64).T))
            assert mass.tolist() == [want[g] for g in keys]
            assert all(type(w) is Fraction for w in mass)


def test_packed_guard_counts_every_word():
    # the trinomial's one-step law to n = 100: 201 cells in the identity frame,
    # numerators below 3^100 (159 bits), so b = 160 and each int holds
    # ceil(201 * 160 / 64) = 503 words; the table and the step's new table, 1006.
    # The 2-state chain's walk to n = 100: 101 cells in its frame, numerators
    # below 3 * 4^100 (202 bits), b = 208, ceil(101 * 208 / 64) = 329 words per
    # int; 2 states of the table, the mixed table and the new table, 1974.
    cases = [("trinomial", walkdist.marginal_recursion, 1006),
             ("two_state_markov", walkdist.walk_recursion, 1974)]
    for name, recursion, words in cases:
        sys_, coc, _ = getattr(presets, name)()
        rec = recursion(sys_, coc, "rational")
        with pytest.raises(ResourceLimitError) as exc:
            walkdist._make_engine(rec, 100, max_cells=words - 1)
        assert exc.value.completed == 0
        eng = walkdist._stepped(rec, 100, max_cells=words)
        assert eng.total() == 1 and eng.n == 100
    # max_atoms no longer bounds rational lattice work
    sys_, coc, _ = presets.trinomial()
    assert walkdist.return_sequence(sys_, coc, 100, "rational", max_cells=1006, max_atoms=1)
    # packed cells hold nonnegative numerators only: a signed measure is refused, not wrapped
    signed = pressure.WalkMeasure(IntegerLattice(1),
                                  {(1,): Fraction(3, 2), (-1,): Fraction(-1, 2)})
    with pytest.raises(ValidationError, match="nonnegative"):
        pressure.spectral_radius_convolution(signed, 4, mode="rational")


@pytest.mark.parametrize("name, n_max", [("trinomial", 1000), ("asymmetric_z", 1000),
                                         ("two_state_markov", 1000), ("z2_lattice", 150)])
def test_deep_float_returns_within_gamma_of_rational(name, n_max):
    """Float identity returns against exact ones at every n <= n_max.

    As in ``test_folded_outputs_within_gamma_of_rational``, an n-step mass is
    within gamma_K, K = n (m + 1) + 1 + m, of the exact one.
    """
    sys_, coc, _ = getattr(presets, name)()
    fl = walkdist.return_sequence(sys_, coc, n_max)
    ex = walkdist.return_sequence(sys_, coc, n_max, mode="rational")
    assert len(fl) == len(ex) == n_max + 1
    for n, (a, b) in enumerate(zip(fl, ex)):
        assert (a == 0) == (b == 0), n
        assert abs(a - float(b)) <= _gamma(n * (sys_.m + 1) + 1 + sys_.m) * float(b), n


def test_distribution_seeded_state():
    sys_, coc, _ = presets.two_state_markov()
    t = walkdist.distribution(sys_, coc, 1, seed_state=1)
    assert t.group_masses() == {(1,): Fraction(1, 4), (-1,): Fraction(3, 4)}


# ------------------------------------------- exact mode against plain Fractions

def _coprime_markov():
    # row denominators 7, 9 and 11: the step denominator is their product
    sys_ = GibbsMarkovSystem.markov([[Fraction(1, 7), Fraction(2, 7), Fraction(4, 7)],
                                     [Fraction(4, 9), Fraction(4, 9), Fraction(1, 9)],
                                     [Fraction(3, 11), Fraction(5, 11), Fraction(3, 11)]])
    return sys_, Cocycle(IntegerLattice(1), ((-1,), (0,), (1,)))


def _fraction_steps(sys_, coc, data, n, absorb=None):
    """Reference walk: n steps on a dict of Fractions, reduced at every operation.

    With ``absorb`` set, the mass at that group element is removed after every
    step and the totals after each step are returned instead of the table.
    """
    mul = coc.spec.multiply
    totals = []
    for _ in range(n):
        new = {}
        for (s, g), w in data.items():
            for t in range(sys_.m):
                key = (t, mul(coc.value(t), g))
                new[key] = new.get(key, Fraction(0)) + w * sys_.trans[s][t]
        data = new
        if absorb is not None:
            data = {k: w for k, w in data.items() if k[1] != absorb}
            totals.append(sum(data.values(), Fraction(0)))
    return totals if absorb is not None else data


def _all_fractions(values):
    return all(type(v) is Fraction for v in values)


EXACT_CASES = [(presets.trinomial, 60), (presets.two_state_markov, 40), (_coprime_markov, 30),
               (presets.z2_lattice, 20), (presets.heisenberg_symmetric, 8), (presets.cyclic3, 30)]


@pytest.mark.parametrize("make,n", EXACT_CASES, ids=lambda x: getattr(x, "__name__", str(x)))
def test_exact_tables_equal_fraction_reference(make, n):
    sys_, coc = make()[:2]
    init = {(s, coc.spec.identity()): sys_.pi[s] for s in range(sys_.m)}
    want = _fraction_steps(sys_, coc, init, n)
    table = walkdist.distribution(sys_, coc, n, mode="rational")
    assert table.data == want
    assert _all_fractions(table.data.values())
    assert table.total() == 1
    for s in range(sys_.m):
        seed = {(s, coc.spec.identity()): Fraction(1)}
        got = walkdist.distribution(sys_, coc, n // 2, mode="rational", seed_state=s)
        assert got.data == _fraction_steps(sys_, coc, seed, n // 2)


@pytest.mark.parametrize("make,n", EXACT_CASES, ids=lambda x: getattr(x, "__name__", str(x)))
def test_exact_engine_outputs_are_fractions(make, n):
    sys_, coc = make()[:2]
    e = coc.spec.identity()
    eng = walkdist._make_engine(walkdist.walk_recursion(sys_, coc, "rational"), n)
    for _ in range(n // 3):
        eng.step_once()
    absent = (10 ** 6,) * coc.spec.key_size
    outs = [eng.mass_at(e), eng.mass_at(absent), eng.joint_mass_at(0, absent),
            eng.joint_mass_at(0, e), eng.total()]
    assert _all_fractions(outs)
    assert outs[1] == outs[2] == 0 and outs[4] == 1
    assert _all_fractions(eng.to_table().data.values())
    assert _all_fractions(walkdist.return_sequence(sys_, coc, n // 3, mode="rational"))


def test_exact_group_view_equals_fraction_reference():
    sys_, coc, _ = presets.embedded4()
    init = {(s, coc.spec.identity()): sys_.pi[s] for s in range(sys_.m)}
    want = walkdist._group_masses(_fraction_steps(sys_, coc, init, 10))
    rec = walkdist.walk_recursion(sys_, coc, "rational")
    _, mass = walkdist._stepped(rec, 10).group_view()
    assert list(mass) == [want[g] for g in sorted(want)] and _all_fractions(mass)


@pytest.mark.parametrize("make", [presets.two_state_markov, _coprime_markov])
def test_exact_grouped_returns_equal_fraction_reference(make):
    # seeded at one (state, element) entry
    sys_, coc = make()[:2]
    e = coc.spec.identity()
    for a in range(sys_.m):
        data = {(a, coc.value(a)): Fraction(1)}
        want = []
        for n in range(1, 13):
            want.append(sum((data.get((s, e), Fraction(0)) * sys_.trans[s][a]
                             for s in range(sys_.m)), Fraction(0)))
            data = _fraction_steps(sys_, coc, data, 1)
        got = pressure.grouped_return_sequence(sys_, coc, a, 12, mode="rational")
        assert got == want and _all_fractions(got)


@pytest.mark.parametrize("make", [presets.cyclic2, presets.cyclic3,
                                  lambda: (_coprime_markov()[0],
                                           Cocycle(cyclic_group(3), ((0,), (1,), (2,))))])
def test_exact_return_time_tail_equals_fraction_reference(make):
    sys_, coc = make()[:2]
    init = {(s, coc.spec.identity()): sys_.pi[s] for s in range(sys_.m)}
    want = _fraction_steps(sys_, coc, init, 40, absorb=coc.spec.identity())
    rep = walkdist.return_time_tail(sys_, coc, 40, mode="rational")
    assert rep.tail == [1] + want and _all_fractions(rep.tail)


def _product_counts(rec, n, monkeypatch):
    # per sparse step from step 0 to n: (group elements before it, group products it takes)
    calls = []
    mul = rec.spec.multiply
    monkeypatch.setattr(rec.spec, "multiply", lambda g, h: calls.append(1) or mul(g, h))
    eng = walkdist._SparseEngine(rec)
    out = []
    for _ in range(n):
        k = len(eng.to_table().group_masses())
        calls.clear()
        eng.step_once()
        out.append((k, len(calls)))
    return out


@pytest.mark.parametrize("make", [presets.two_state_markov, _coprime_markov])
def test_sparse_markov_step_takes_one_product_per_shift(make, monkeypatch):
    # the S state masses at g are mixed first, so each of the m shifts moves them all at once
    sys_, coc = make()[:2]
    counts = _product_counts(walkdist.walk_recursion(sys_, coc, "rational"), 12, monkeypatch)
    assert counts[-1][0] > 1
    assert all(calls == sys_.m * k for k, calls in counts)


@pytest.mark.parametrize("name", ["trinomial", "heisenberg_symmetric"])
def test_sparse_one_state_step_takes_one_product_per_atom(name, monkeypatch):
    sys_, coc, _ = presets.ALL_EXAMPLES[name]()
    rec = walkdist.one_step_recursion(sys_, coc, "rational")
    counts = _product_counts(rec, 6, monkeypatch)
    assert all(calls == len(rec.shifts) * k for k, calls in counts)


def _gamma(k):
    # Higham's gamma_k = k u / (1 - k u) for the unit roundoff u of float64
    u = 2.0 ** -53
    return k * u / (1 - k * u)


# 3-state chains whose float tables only the sparse engine steps
_Z3 = Cocycle(cyclic_group(3), ((0,), (1,), (2,)))
_Z3_Z = Cocycle(DirectProduct(cyclic_group(3), IntegerLattice(1)), ((1, -1), (0, 0), (2, 1)))


def test_sparse_float_masses_are_python_floats():
    # P and the step-0 masses enter as Python floats, not numpy scalars
    rows = walkdist.mass_trajectory(_coprime_markov()[0], _Z3, [(0,), (1,)], 5)
    assert all(type(x) is float for row in rows for x in row)


def test_sparse_markov_float_tables_within_gamma_of_rational():
    """m-state float sparse outputs against rational ones, within the gamma bound.

    A step forms each mass from S nonnegative products P(s, t) * W(s, g), so
    every term of an n-step mass carries at most n * S roundings from the
    products and sums (the n S u bound of float mode), n from rounding P and
    one from the step-0 mass: relative error gamma_K with K = n (S + 1) + 1.
    """
    sys_ = _coprime_markov()[0]
    S, n = sys_.m, 40
    K = n * (S + 1) + 1
    # finite_group_mixing: |mass - 1/3| moves by at most the mass error plus two roundings
    fl, ex = (walkdist.finite_group_mixing(sys_, _Z3, n, mode=m) for m in ("float", "rational"))
    assert all(abs(a - b) <= _gamma(K + 3) for a, b in zip(fl.deviations, ex.deviations))
    # return_time_tail: a total sums at most S * |G| masses
    fl, ex = (walkdist.return_time_tail(sys_, _Z3, n, mode=m) for m in ("float", "rational"))
    assert all(abs(a - float(b)) <= _gamma(K + S * 3) * float(b) for a, b in zip(fl.tail, ex.tail))
    # mass_trajectory on Z/3 x Z: a group-marginal mass sums S state masses
    targets = [(0, 0), (1, -1), (2, 1), (0, 3), (2, -2)]
    fl, ex = (walkdist.mass_trajectory(sys_, _Z3_Z, targets, n, mode=m)
              for m in ("float", "rational"))
    pairs = [(a, float(b)) for rf, rx in zip(fl, ex) for a, b in zip(rf, rx)]
    assert sum(b > 0 for _, b in pairs) > len(pairs) // 2
    assert all(abs(a - b) <= _gamma(K + S) * b for a, b in pairs)


# ------------------------------------------------------------------ folded boxes

# walks whose dense box is planned in a folded frame, as (system, cocycle)
FOLDED = {
    "embedded4": presets.embedded4()[:2],
    "asymmetric_z": presets.asymmetric_z()[:2],
    "two_state_markov": presets.two_state_markov()[:2],
    "fault_1_100": (GibbsMarkovSystem.bernoulli([Fraction(1, 100), Fraction(99, 100)]),
                    Cocycle(IntegerLattice(1), ((1,), (-1,)))),
    "z2_chain": (MARKOV3, Z2_CHAIN),
    "drift_z": (GibbsMarkovSystem.bernoulli([Fraction(1, 3), Fraction(2, 3)]),
                Cocycle(IntegerLattice(1), ((1,), (2,)))),
}


@pytest.mark.parametrize("name", sorted(FOLDED))
def test_folded_outputs_within_gamma_of_rational(name):
    """Folded float tables, trajectories and point masses against rational ones.

    A step forms a mass from at most m nonnegative products, one rounding
    each, plus one rounding of P (or of the weights), so after n steps a
    state mass is within gamma_K, K = n (m + 1) + 1, and a group-marginal
    mass, a sum of at most m of them, within gamma_{K + m}.
    """
    sys_, coc = FOLDED[name]
    m, n = sys_.m, 30 if coc.spec.key_size == 1 else 16
    K = n * (m + 1) + 1
    fl, ex = (walkdist.distribution(sys_, coc, n, mode) for mode in ("float", "rational"))
    assert set(fl.data) == set(ex.data)
    assert all(abs(fl.data[k] - w) <= _gamma(K) * w for k, w in ex.data.items())
    eng = walkdist._stepped(walkdist.walk_recursion(sys_, coc, "float"), n)
    assert eng.frame is not None
    assert all(abs(eng.joint_mass_at(s, g) - w) <= _gamma(K) * w for (s, g), w in ex.data.items())
    assert all(abs(eng.mass_at(g) - w) <= _gamma(K + m) * w
               for g, w in ex.group_masses().items())
    spec = coc.spec
    steps = [coc.value(s) for s in range(m)]
    targets = [spec.identity()] + steps + [spec.multiply(steps[0], steps[-1])]
    fl, ex = (walkdist.mass_trajectory(sys_, coc, targets, n, mode)
              for mode in ("float", "rational"))
    pairs = [(a, b) for rf, rx in zip(fl, ex) for a, b in zip(rf, rx)]
    assert any(b == 0 for _, b in pairs) and any(b > 0 for _, b in pairs)
    assert all((a == 0) == (b == 0) and abs(a - b) <= _gamma(K + m) * b for a, b in pairs)


def test_folded_reads_off_the_coset_are_exact_zeros():
    # after n steps of Z2_CHAIN, x + y = n mod 3 on the support
    eng = walkdist._make_engine(walkdist.walk_recursion(MARKOV3, Z2_CHAIN, "float"), 12)
    for n in range(1, 13):
        eng.step_once()
        on = [g for g in itertools.product(range(-n - 1, n + 2), repeat=2)
              if (g[0] + g[1] - n) % 3 == 0]
        off = [g for g in itertools.product(range(-n - 1, n + 2), repeat=2)
               if (g[0] + g[1] - n) % 3]
        assert all(type(eng.mass_at(g)) is float and eng.mass_at(g) == 0.0 for g in off)
        assert all(eng.joint_mass_at(s, g) == 0.0 for g in off for s in range(3))
        assert sum(eng.mass_at(g) for g in on) == pytest.approx(1.0, rel=1e-13)
        assert all((g[0] + g[1] - n) % 3 == 0 for g in eng.to_table().support())
    # +-1 steps never reach 0 at odd n
    sys_, coc = FOLDED["asymmetric_z"]
    traj = walkdist.mass_trajectory(sys_, coc, [(0,), (1,)], 9)
    assert all(row[1 - n % 2] == 0.0 and row[n % 2] > 0 for n, row in enumerate(traj))


@pytest.mark.parametrize("name", sorted(FOLDED))
def test_frame_determinant_is_the_aperiodicity_index(name):
    sys_, coc = FOLDED[name]
    index = check_aperiodicity_algebraic(sys_, coc).index
    for make in (walkdist.walk_recursion, walkdist.marginal_recursion):
        assert abs(walkdist._make_engine(make(sys_, coc, "float"), 10).frame.det) == index


@pytest.mark.parametrize("name", ["trinomial", "z2_lattice", "heisenberg_symmetric",
                                  "heisenberg_asymmetric", "one_atom"])
def test_identity_frame_is_kept(name):
    if name == "one_atom":
        sys_, coc = (GibbsMarkovSystem.bernoulli([Fraction(1, 2)] * 2),
                     Cocycle(IntegerLattice(2), ((1, 2), (1, 2))))
    else:
        sys_, coc, _ = presets.ALL_EXAMPLES[name]()
    for make in (walkdist.walk_recursion, walkdist.marginal_recursion):
        assert walkdist._make_engine(make(sys_, coc, "float"), 6).frame is None


def test_folded_boxes_hold_n_plus_one_cells_per_axis():
    n = 50
    for name in ("embedded4", "z2_chain", "asymmetric_z", "two_state_markov", "drift_z"):
        sys_, coc = FOLDED[name]
        for make in (walkdist.walk_recursion, walkdist.marginal_recursion):
            eng = walkdist._make_engine(make(sys_, coc, "float"), n)
            assert eng.dims == (n + 1,) * coc.spec.key_size, name


# ------------------------------------------------------- powered point masses

# one-coordinate float walks that _point_masses raises to each depth by powering
_B13 = GibbsMarkovSystem.bernoulli([Fraction(1, 3), Fraction(2, 3)])
POWERED = {
    **{name: getattr(presets, name)()[:2]
       for name in ("trinomial", "asymmetric_z", "simple_walk", "two_state_markov")},
    "markov3_z": (MARKOV3, Cocycle(IntegerLattice(1), ((-1,), (0,), (1,)))),
    "steps_1_2": (_B13, Cocycle(IntegerLattice(1), ((1,), (2,)))),
    "steps_3_5": (_B13, Cocycle(IntegerLattice(1), ((3,), (5,)))),
    "fault_1_100": FOLDED["fault_1_100"],
}
# depths on both sides of powers of two, with their strides 1, 2 and 3
_POWERED_DEPTHS = [0, 1, 2, 3, 4, 7, 8, 9, 63, 64, 65, 66, 100, 101, 102, 255, 256, 257, 258, 400,
                   402]


def _stepped_masses(rec, targets, depths, seed_state=None):
    # the stepped reference: one engine stepped through every n, read through _trajectory
    rows = walkdist._trajectory(walkdist._make_engine(rec, max(depths), seed_state), targets,
                                max(depths))
    return [rows[n] for n in depths]


def _powered_targets(coc):
    # the identity, every step, sums of two steps (on and off the coset at a given depth)
    # and elements far outside every box
    steps = sorted({coc.value(s)[0] for s in range(len(coc.values))})
    pts = {0, -1, 1, 7, -7, 10 ** 6, -10 ** 6} | set(steps) | {a + b for a in steps for b in steps}
    return [(g,) for g in sorted(pts)]


@pytest.mark.parametrize("name", sorted(POWERED))
def test_powered_masses_match_stepped(name, engines_built):
    sys_, coc = POWERED[name]
    rec = walkdist.marginal_recursion(sys_, coc, "float")
    targets = _powered_targets(coc)
    for seed in [None] + list(range(rec.S)):
        engines_built.clear()
        got = walkdist._point_masses(rec, targets, _POWERED_DEPTHS, seed)
        assert engines_built == []          # powered: no engine is built
        assert sorted(got) == _POWERED_DEPTHS
        want = _stepped_masses(rec, targets, _POWERED_DEPTHS, seed)
        flat_got = [x for n in _POWERED_DEPTHS for x in got[n]]
        assert all(type(x) is float for x in flat_got)
        assert paired_agrees(flat_got, sum(want, []))
        # the first and last targets lie outside every box: exact zeros
        assert all(x == 0.0 for n in _POWERED_DEPTHS for x in got[n][:1] + got[n][-1:])


def test_wide_span_walk_steps_and_agrees_with_powering(engines_built):
    # atoms 0, 1, 100 to n = 500: the squarings convolve about 2.2e8 cells, more
    # than twice the 3.7e7 stepped cells x shifts plus 25,000 per step, so the
    # masses are stepped, bitwise the trajectory's
    coc = Cocycle(IntegerLattice(1), ((0,), (1,), (100,)))
    rec = walkdist.marginal_recursion(GibbsMarkovSystem.bernoulli([Fraction(1, 3)] * 3), coc,
                                      "float")
    assert not walkdist._powering_pays(rec, 500)
    assert all(walkdist._powering_pays(walkdist.marginal_recursion(*POWERED[name], "float"), n)
               for name in POWERED for n in (1, 100, 500, 2000))
    targets = [(0,), (1,), (500,), (25_000,), (49_999,), (10 ** 6,)]
    got = walkdist._point_masses(rec, targets, [500, 498])
    assert engines_built == ["_DenseLatticeEngine"]
    want = _stepped_masses(rec, targets, [498, 500])
    assert [got[498], got[500]] == want
    powered = walkdist._powered_masses(rec, targets, [498, 500], None, walkdist.DEFAULT_MAX_CELLS)
    assert paired_agrees(powered[498] + powered[500], want[0] + want[1])


def test_powered_one_percent_walk_underflows_where_stepping_does():
    sys_, coc = FOLDED["fault_1_100"]
    rec = walkdist.marginal_recursion(sys_, coc, "float")
    depths = [100, 102, 400, 402, 800, 802]
    got = walkdist._point_masses(rec, [(0,)], depths)
    want = _stepped_masses(rec, [(0,)], depths)
    assert paired_agrees([got[n][0] for n in depths], [w for (w,) in want])
    assert got[400][0] > 0 and got[800][0] == got[802][0] == 0.0


def _stepped_ratio_report(sys_, coc, g, ns, stride, mode, **kw):
    # how ratios were computed before point masses: one trajectory through every n
    seq = [row[0] for row in walkdist.mass_trajectory(sys_, coc, [g], max(ns) + stride, mode,
                                                      **kw)]
    first = next((i for i, v in enumerate(seq) if i >= 1 and v > 0), None)
    kept = [n for n in sorted(set(ns)) if seq[n] != 0]
    return kept, [float(seq[n + stride] / seq[n]) for n in kept], first


@pytest.mark.parametrize("name", sorted(POWERED))
def test_powered_ratios_match_stepped(name):
    sys_, coc = POWERED[name]
    ns = [10, 64, 100, 255, 400]
    for g in [(0,), coc.value(0), coc.value(len(coc.values) - 1), (10 ** 6,)]:
        for stride in (1, 2, 3):
            for seed in (None, 0):
                rep = walkdist.ratio_sequence(sys_, coc, g, ns, stride=stride, seed_state=seed)
                kept, ratios, first = _stepped_ratio_report(sys_, coc, g, ns, stride, "float",
                                                            seed_state=seed)
                assert rep.ns == kept and rep.first_valid_n == first
                assert rep.zero_ns == [n for n in ns if n not in kept]
                assert paired_agrees(rep.ratios, ratios)
    for g in [coc.value(0), (3,)]:
        num, den = walkdist.mass_trajectory(sys_, coc, [g, (0,)], 300)[300]
        if den:
            assert paired_agrees([walkdist.cross_ratio(sys_, coc, g, 300).value], [num / den])


def test_stride_one_on_a_period_two_walk():
    sys_, coc, _ = presets.simple_walk()
    rep = walkdist.ratio_sequence(sys_, coc, (0,), [9, 10, 20], stride=1)
    # mu^9(0) = 0 (no ratio), mu^11(0) = mu^21(0) = 0 (ratio 0.0)
    assert rep.ns == [10, 20] and rep.zero_ns == [9] and rep.ratios == [0.0, 0.0]
    assert rep.first_valid_n == 2


def test_ratio_sequence_lists_the_zero_masses_it_skips():
    # the 1/100 walk: mu^800(0) underflows to 0.0 and has no ratio
    sys_, coc = FOLDED["fault_1_100"]
    rep = walkdist.ratio_sequence(sys_, coc, (0,), [100, 400, 800], stride=2)
    assert rep.ns == [100, 400] and rep.zero_ns == [800] and len(rep.ratios) == 2
    rep = walkdist.ratio_sequence(sys_, coc, (0,), [100, 400], stride=2)
    assert rep.zero_ns == []


@pytest.mark.parametrize("name", ["trinomial", "two_state_markov", "asymmetric_z"])
def test_rational_ratios_equal_the_stepped_ones(name):
    sys_, coc, _ = getattr(presets, name)()
    for g, stride in (((0,), 1), ((0,), 2), ((1,), 2)):
        rep = walkdist.ratio_sequence(sys_, coc, g, [5, 12, 20], mode="rational", stride=stride)
        kept, ratios, first = _stepped_ratio_report(sys_, coc, g, [5, 12, 20], stride, "rational")
        assert (rep.ns, rep.ratios, rep.first_valid_n) == (kept, ratios, first)
    num, den = walkdist.mass_trajectory(sys_, coc, [(2,), (0,)], 20, "rational")[20]
    assert walkdist.cross_ratio(sys_, coc, (2,), 20, mode="rational").value == float(num / den)


def test_two_dimensional_ratios_pair_and_agree(engines_built):
    # no powering in d = 2: a half-depth engine and the dual, then the first return
    rep = walkdist.ratio_sequence(MARKOV3, Z2_CHAIN, (0, 0), [30, 60], stride=3)
    assert engines_built == ["_DenseLatticeEngine"] * 3
    kept, ratios, first = _stepped_ratio_report(MARKOV3, Z2_CHAIN, (0, 0), [30, 60], 3, "float")
    assert (rep.ns, rep.first_valid_n) == (kept, first) and paired_agrees(rep.ratios, ratios)


def test_first_valid_n_steps_only_to_the_first_positive_mass(monkeypatch):
    steps = []
    step = walkdist._DenseLatticeEngine.step_once
    monkeypatch.setattr(walkdist._DenseLatticeEngine, "step_once",
                        lambda self: (steps.append(1), step(self)))
    sys_, coc, _ = presets.trinomial()
    rep = walkdist.ratio_sequence(sys_, coc, (5,), [1000])
    assert rep.first_valid_n == 5 and len(steps) == 5
    # past the first engine's 8 steps: engines for 8, 16 and 32 steps, each from the seed
    steps.clear()
    assert walkdist.ratio_sequence(sys_, coc, (20,), [1000]).first_valid_n == 20
    assert len(steps) == 8 + 16 + 20
    # a walk that never returns: every n up to the deepest depth is stepped
    drift = Cocycle(IntegerLattice(1), ((2,), (4,)))
    rep = walkdist.ratio_sequence(_B13, drift, (0,), [10, 30], stride=2)
    assert rep.first_valid_n is None and rep.zero_ns == [10, 30] and rep.ns == []


def test_cross_ratio_names_the_first_positive_n_only_when_it_fails(engines_built):
    sys_, coc, _ = presets.simple_walk()
    walkdist.cross_ratio(sys_, coc, (2,), 100)
    assert engines_built == []
    with pytest.raises(ValidationError, match=r"n=101 \(first positive n: 2\)"):
        walkdist.cross_ratio(sys_, coc, (1,), 101)


def test_powered_guard_counts_every_buffer(engines_built, monkeypatch):
    # trinomial to n = 100 in its frame v0 = -1, B = 1, w = 2: the squarings
    # K^(2^i) for 2^i <= 64 hold sum_i (2^(i+1) + 1) = 2 * 127 + 7 = 261 cells,
    # and the seed 1.  100 = 64 + 36: advancing u to r = 36 holds the u read,
    # the u written and one convolution output, at most 3 x (2 * 36 + 1) = 219
    # cells, more than the last squaring's output (129).  481 in all.  The
    # 2-state chain (v0 = -1, B = 2, w = 1) holds 4 x (127 + 7) = 536 cells
    # of squarings, 2 of seed and 5 x 37 = 185: 723.
    allocated = []
    for fn in ("zeros", "ones", "empty"):
        monkeypatch.setattr(np, fn, lambda *a, _f=getattr(np, fn), **k: (
            allocated.append(a), _f(*a, **k))[1])
    for name, cells in (("trinomial", 481), ("two_state_markov", 723)):
        sys_, coc, _ = getattr(presets, name)()
        allocated.clear()
        with pytest.raises(ResourceLimitError) as exc:
            walkdist.cross_ratio(sys_, coc, (1,), 100, max_cells=cells - 1)
        assert exc.value.completed == 0
        assert allocated == [] and engines_built == []     # raised before allocating anything
        rep = walkdist.cross_ratio(sys_, coc, (0,), 100, max_cells=cells)
        assert rep.value == 1.0 and engines_built == []


def test_powered_path_calls_no_fft(monkeypatch):
    def refused(*a, **k):
        raise AssertionError("an FFT was called")
    for fn in dir(np.fft):
        if not fn.startswith("_") and callable(getattr(np.fft, fn)):
            monkeypatch.setattr(np.fft, fn, refused)
    sys_, coc, _ = presets.trinomial()
    assert walkdist.cross_ratio(sys_, coc, (3,), 2000).value > 0
    msys, mcoc, _ = presets.two_state_markov()
    assert walkdist.ratio_sequence(msys, mcoc, (0,), [500, 1000], stride=2).ratios


@pytest.mark.parametrize("name", ["trinomial", "two_state_markov", "markov3_z", "steps_3_5"])
def test_powered_masses_within_gamma_of_rational(name):
    """Powered float masses against rational ones, within the bound of their products.

    A convolution sums at most K nonnegative products of two factors, so it
    adds gamma_K to the relative errors of its factors: the squaring of a
    power doubles that power's error.  K^1 carries the roundings of P and of
    the weights (gamma_2), the seed one rounding, and the read at the target
    sums S^2 dot products of the top power and u.
    """
    sys_, coc = POWERED[name]
    rec = walkdist.marginal_recursion(sys_, coc, "float")
    S = rec.S
    atoms = [a for _, (a,), _ in rec.shifts]
    w = (max(atoms) - min(atoms)) // math.gcd(*(a - min(atoms) for a in atoms))
    power_err = [_gamma(2)]
    for i in range(7):
        power_err.append(2 * power_err[-1] + _gamma(S * ((w << i) + 1)))
    depths = [60, 61, 100, 127]
    targets = [(0,), (1,), (3,)]
    got = walkdist._point_masses(rec, targets, depths)
    exact = walkdist._point_masses(walkdist.marginal_recursion(sys_, coc, "rational"), targets,
                                   depths)
    for n in depths:
        top, r = n.bit_length() - 1, n - (1 << (n.bit_length() - 1))
        err, length = _gamma(1), 1                      # u = c, then the bits of r
        for i in range(r.bit_length()):
            if r >> i & 1:
                err += power_err[i] + _gamma(S * min(length, (w << i) + 1))
                length += w << i
        bound = power_err[top] + err + _gamma(S * S * ((w << top) + 1))
        for a, b in zip(got[n], exact[n]):
            assert (a == 0) == (b == 0) and abs(a - float(b)) <= bound * float(b)


# ------------------------------------------------------- blocked sequences

# one-coordinate float walks whose sequences of every n ``_masses`` steps in blocks
BLOCKED = {name: POWERED[name]
           for name in ("trinomial", "asymmetric_z", "two_state_markov", "markov3_z")}
_BLOCKED_DEPTHS = [0, 1, 2, 7, 8, 31, 32, 33, 64, 100, 200, 299, 300]


def _blocked_cases(sys_, coc, mode="float"):
    # (recursion, _masses keywords): the group marginal, seeded or not, and the
    # walk from each entry (a, v(a)) weighted by P(s, a), as grouped returns read it
    marg = walkdist.marginal_recursion(sys_, coc, mode)
    walk = walkdist.walk_recursion(sys_, coc, mode)
    trans = sys_.trans if mode == "rational" else sys_.trans_float.tolist()
    cases = [(marg, {"seed_state": s}) for s in [None] + list(range(marg.S))]
    cases += [(walk, {"weights": [trans[s][a] for s in range(sys_.m)],
                      "seed_entry": (a, coc.value(a))}) for a in range(sys_.m)]
    return cases


def _stepped_sequence(rec, targets, depths, weights=None, seed_state=None, seed_entry=None):
    # the stepped reference: one engine stepped through every n
    eng = walkdist._make_engine(rec, max(depths), seed_state, seed_entry=seed_entry)
    out = {}
    for n in range(max(depths) + 1):
        if n:
            eng.step_once()
        if n in depths:
            out[n] = [eng.mass_at(g) if weights is None else
                      sum(eng.joint_mass_at(s, g) * c for s, c in enumerate(weights))
                      for g in targets]
    return out


@pytest.mark.parametrize("name", sorted(BLOCKED))
def test_blocked_masses_match_stepped(name, engines_built):
    sys_, coc = BLOCKED[name]
    targets = _powered_targets(coc)
    for rec, kw in _blocked_cases(sys_, coc):
        for depths in (list(range(301)), _BLOCKED_DEPTHS):
            want = _stepped_sequence(rec, targets, depths, **kw)
            engines_built.clear()
            got = walkdist._masses(rec, targets, depths, **kw)
            assert engines_built == []              # blocked: no engine is built
            assert sorted(got) == sorted(want)
            flat = [x for n in sorted(got) for x in got[n]]
            assert all(type(x) is float for x in flat)
            assert paired_agrees(flat, [x for n in sorted(want) for x in want[n]])
            for b in (2, 8, 64):                    # any block length, forced
                forced = walkdist._blocked_masses(rec, targets, depths, b, **kw)
                assert paired_agrees([x for n in sorted(forced) for x in forced[n]],
                                     [x for n in sorted(want) for x in want[n]]), b


def _blocked_bound(S, w, b, n):
    """Relative error bound of a blocked mass at depth n, by item 9's rule.

    K carries the roundings of P and of a weight and their product (gamma_3),
    and every product adds gamma of its term count to the errors of its
    factors: R_{j+1} = K^T R_j sums S (w + 1) terms, a squaring of K^(2^i)
    S (2^i w + 1), an advance by K^b S (b w + 1) and a read S ((b - 1) w + 1).
    The step-0 masses and the weights carry one rounding each.
    """
    r_err = [_gamma(1)]
    for _ in range(1, b):
        r_err.append(r_err[-1] + _gamma(3) + _gamma(S * (w + 1)))
    kb, size = _gamma(3), w + 1
    for _ in range(b.bit_length() - 1):
        kb, size = 2 * kb + _gamma(S * size), 2 * size - 1
    m, j = divmod(n, b)
    return _gamma(1) + m * (kb + _gamma(S * size)) + r_err[j] + _gamma(S * ((b - 1) * w + 1))


@pytest.mark.parametrize("name", sorted(BLOCKED))
def test_blocked_masses_within_gamma_of_rational(name):
    sys_, coc = BLOCKED[name]
    targets = [(0,), (1,), (3,)]
    exact_cases = _blocked_cases(sys_, coc, "rational")
    for (rec, kw), (exact_rec, exact_kw) in zip(_blocked_cases(sys_, coc), exact_cases):
        exact = walkdist._masses(exact_rec, targets, range(201), **exact_kw)
        w = walkdist._line_frame(rec)[2]
        for b in (4, 32):
            got = walkdist._blocked_masses(rec, targets, list(range(201)), b, **kw)
            for n in range(201):
                bound = _blocked_bound(rec.S, w, b, n)
                for a, x in zip(got[n], exact[n]):
                    assert (a == 0) == (x == 0) and abs(a - float(x)) <= bound * float(x), (n, b)


def test_blocked_guard_counts_every_buffer(monkeypatch):
    # asymmetric_z to n = 300 in blocks of 32 (v0 = -1, B = 2, w = 1): the R_j
    # hold 32 x 32 cells; K, K^32 and, while K^32 is built, K^16 and one output
    # 2 x 32 + 1 + 3 = 68; a read holds W_300 (301 cells), its padded copy (363),
    # the windows and R_j (2 x 1024): 2 x (301 + 31 + 1024) = 2712 > 3 x 301.
    # 1024 + 68 + 2712 = 3804 cells
    sys_, coc, _ = presets.asymmetric_z()
    rec = walkdist.marginal_recursion(sys_, coc, "float")
    assert walkdist._block_cells(1, 1, 32, 300) == 3804
    allocated = []
    for fn in ("zeros", "ones", "empty"):
        monkeypatch.setattr(np, fn, lambda *a, _f=getattr(np, fn), **k: (
            allocated.append(a), _f(*a, **k))[1])
    with pytest.raises(ResourceLimitError) as exc:
        walkdist._blocked_masses(rec, [(0,)], list(range(301)), 32, max_cells=3803)
    assert exc.value.completed == 0 and allocated == []
    got = walkdist._blocked_masses(rec, [(0,)], list(range(301)), 32, max_cells=3804)
    monkeypatch.undo()
    want = walkdist.return_sequence(sys_, coc, 300)
    assert paired_agrees([got[n][0] for n in range(301)], want)
    # the rule blocks only with buffers that fit the guard, and else steps
    cells = min(walkdist._block_cells(1, 1, 1 << i, 300) for i in range(1, 9))
    assert walkdist._block_length(rec, 300, 301, 1, 0, cells)
    assert walkdist._block_length(rec, 300, 301, 1, 0, cells - 1) is None
    assert walkdist.return_sequence(sys_, coc, 300, max_cells=cells - 1) == \
        [row[0] for row in walkdist.mass_trajectory(sys_, coc, [(0,)], 300)]
    with pytest.raises(ResourceLimitError):
        walkdist.return_sequence(sys_, coc, 300, max_cells=2 * 301 - 1)


def test_wide_span_walk_steps_its_sequences(engines_built):
    # atoms 0, 1, 100: a block's convolution costs about w / 3 = 33 times the
    # stepped cells, so past the first few depths (where the fixed costs of a
    # call decide, within 25 % either way) every block length loses
    coc = Cocycle(IntegerLattice(1), ((0,), (1,), (100,)))
    sys_ = GibbsMarkovSystem.bernoulli([Fraction(1, 3)] * 3)
    rec = walkdist.marginal_recursion(sys_, coc, "float")
    assert all(walkdist._block_length(rec, n, n + 1, 1) is None for n in (20, 100, 500, 2000))
    got = walkdist.return_sequence(sys_, coc, 300)
    assert engines_built == ["_DenseLatticeEngine"]
    assert got == [row[0] for row in walkdist.mass_trajectory(sys_, coc, [(0,)], 300)]


def test_blocked_one_percent_walk_underflows_where_stepping_does():
    # mu^n(0) of the 1/100 walk leaves the normal range near n = 450; the blocked
    # sequence agrees with the stepped one while it is normal and is 0.0 past it
    sys_, coc = FOLDED["fault_1_100"]
    got = walkdist.return_sequence(sys_, coc, 1000)
    want = [row[0] for row in walkdist.mass_trajectory(sys_, coc, [(0,)], 1000)]
    normal = [n for n, x in enumerate(want) if x >= 2.0 ** -1022]
    assert paired_agrees([got[n] for n in normal], [want[n] for n in normal])
    first_zero = next(n for n in range(2, 1001, 2) if want[n] == 0.0)
    assert all(got[n] == want[n] == 0.0 for n in range(first_zero + 4, 1001))
    assert walkdist.ratio_sequence(sys_, coc, (0,), [100, 400, 800], stride=2).zero_ns == [800]
