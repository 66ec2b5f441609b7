import math
from fractions import Fraction

import numpy as np
import pytest

from gmwalk import oracle, presets, pressure, walkdist
from gmwalk.errors import ValidationError
from gmwalk.gm_system import Cocycle, GibbsMarkovSystem
from gmwalk.groups import HeisenbergZ, IntegerLattice
from pairing import HEIS_MARKOV, HEIS_SHEARED, paired_agrees


def test_periodic_sum_uniform_bernoulli():
    sys_, _, _ = presets.trinomial()
    for n in (1, 3, 7):
        assert pressure.periodic_sum(sys_, 0, n, mode="rational") == Fraction(1, 3)
    assert pressure.periodic_sum(sys_, 1, 1, mode="rational") == Fraction(1, 3)


def test_periodic_sum_rate_vanishes_for_stochastic_weights():
    sys_, _, _ = presets.two_state_markov()
    z = pressure.periodic_sum(sys_, 0, 400, mode="float")
    assert abs(math.log(z) / 400) < 0.01


def test_grouped_periodic_partition_identity():
    for name in ("trinomial", "cyclic3", "heisenberg_symmetric"):
        sys_, coc, _ = presets.ALL_EXAMPLES[name]()
        for n in range(1, 8):
            table = pressure.grouped_periodic_sum(sys_, coc, 0, n, mode="rational")
            assert sum(table.values()) == pressure.periodic_sum(sys_, 0, n, mode="rational")
    # exact partition up to n = 12 on the two-symbol Markov example
    sys_, coc, _ = presets.two_state_markov()
    for n in range(1, 13):
        table = pressure.grouped_periodic_sum(sys_, coc, 0, n, mode="rational")
        assert sum(table.values()) == pressure.periodic_sum(sys_, 0, n, mode="rational")


def test_grouped_periodic_trinomial_identity_return():
    sys_, coc, _ = presets.trinomial()
    table = pressure.grouped_periodic_sum(sys_, coc, 0, 2, mode="rational")
    assert table[(0,)] == Fraction(1, 9)


def test_abelianized_sums_dominate():
    sys_, coc, _ = presets.heisenberg_symmetric()
    ab = coc.abelianized()
    for n in range(2, 9, 2):
        ze = pressure.grouped_periodic_sum(sys_, coc, 0, n, mode="rational")
        za = pressure.grouped_periodic_sum(sys_, ab, 0, n, mode="rational")
        e3 = coc.spec.identity()
        e2 = ab.spec.identity()
        assert za.get(e2, 0) >= ze.get(e3, 0)


def test_pn_one_equals_periodic_sum():
    # the periodic base point collapses the normalization onto the cycle weights
    for name in ("trinomial", "two_state_markov", "cyclic2"):
        sys_, coc, _ = presets.ALL_EXAMPLES[name]()
        for n in (1, 2, 5):
            ref = oracle.oracle_walk_measure(sys_, coc, 0, n)
            assert pressure.periodic_sum(sys_, 0, n, mode="rational") == ref.value["pn_one"]


def test_walk_measure_against_oracle():
    for name in ("trinomial", "two_state_markov", "heisenberg_asymmetric"):
        sys_, coc, _ = presets.ALL_EXAMPLES[name]()
        for n in (1, 2, 4, 6):
            ref = oracle.oracle_walk_measure(sys_, coc, 0, n)
            got = pressure.walk_measure(sys_, coc, 0, n, mode="rational")
            assert got.masses == ref.value["measure"]
            assert pressure.periodic_sum(sys_, 0, n, mode="rational") == ref.value["pn_one"]


def test_walk_measure_point_mass_at_step_one():
    sys_, coc, _ = presets.trinomial()
    m = pressure.walk_measure(sys_, coc, 0, 1)
    assert m.masses == {coc.value(0): Fraction(1)}


def test_walk_measure_uniform_is_conditioned_counting():
    sys_, coc, _ = presets.trinomial()
    m = pressure.walk_measure(sys_, coc, 0, 4, mode="rational")
    t = sum(m.masses.values())
    assert t == 1
    # uniform weights make the measure proportional to word counts
    counts = {}
    import itertools

    for w in itertools.product(range(3), repeat=4):
        if w[0] != 0:
            continue
        g = coc.word_value(w)
        counts[g] = counts.get(g, 0) + 1
    total = sum(counts.values())
    assert m.masses == {g: Fraction(c, total) for g, c in counts.items()}


def test_one_step_law():
    sys_, coc, _ = presets.asymmetric_z()
    law = pressure.one_step_law(sys_, coc)
    assert law.masses == {(1,): Fraction(3, 10), (-1,): Fraction(7, 10)}


def test_generating_period_with_step_laws():
    # searched over unconditioned step-n laws
    sys_, coc, _ = presets.trinomial()
    laws = lambda n: pressure.WalkMeasure(
        coc.spec,
        __import__("gmwalk.walkdist", fromlist=["distribution"])
        .distribution(sys_, coc, n, mode="rational").group_masses(), n)
    rep = pressure.generating_period(laws, [(-1,), (0,), (1,)], 5)
    assert rep.s == 1 and rep.return_period == 1
    sw, swc, _ = presets.simple_walk()
    laws2 = lambda n: pressure.WalkMeasure(
        swc.spec,
        __import__("gmwalk.walkdist", fromlist=["distribution"])
        .distribution(sw, swc, n, mode="rational").group_masses(), n)
    rep2 = pressure.generating_period(laws2, [(1,), (-1,)], 5)
    assert rep2.s == 1 and rep2.return_period == 2
    c3, c3c, _ = presets.cyclic3()
    laws3 = lambda n: pressure.WalkMeasure(
        c3c.spec,
        __import__("gmwalk.walkdist", fromlist=["distribution"])
        .distribution(c3, c3c, n, mode="rational").group_masses(), n)
    rep3 = pressure.generating_period(laws3, [(0,), (1,), (2,)], 5)
    assert rep3.s == 1


def test_generating_period_with_base_cylinder_measures():
    sys_, coc, _ = presets.heisenberg_symmetric()
    ms = lambda n: pressure.walk_measure(sys_, coc, 0, n, mode="rational")
    rep = pressure.generating_period(ms, coc.values, 6)
    # depth 1 and 2 measures miss generators; depth 3 covers all four
    assert rep.s == 3
    assert rep.missing_by_s[1] and rep.missing_by_s[2]


def test_spectral_radius_symmetric_walk_roots_increase_to_one():
    sys_, coc, _ = presets.simple_walk()
    law = pressure.one_step_law(sys_, coc, mode="float")
    rep = pressure.spectral_radius_convolution(law, 60)
    assert rep.stride == 2
    assert all(b >= a - 1e-12 for a, b in zip(rep.kth_roots, rep.kth_roots[1:]))
    assert rep.kth_roots[-1] < 1.0 <= rep.estimate + 0.05
    assert rep.fekete_lower <= 1.0


def test_spectral_radius_asymmetric_closed_form():
    sys_, coc, _ = presets.asymmetric_z()
    law = pressure.one_step_law(sys_, coc, mode="float")
    rep = pressure.spectral_radius_convolution(law, 400)
    target = 2 * math.sqrt(0.21)
    assert rep.estimate == pytest.approx(target, abs=2e-3)
    assert rep.fekete_lower <= target + 1e-12
    # superadditive returns: every k-th root sits at or below the Fekete bound
    assert all(r <= rep.fekete_lower + 1e-12 for r in rep.kth_roots)


def test_spectral_radius_rational_matches_float():
    sys_, coc, _ = presets.trinomial()
    law_r = pressure.one_step_law(sys_, coc, mode="rational")
    law_f = pressure.one_step_law(sys_, coc, mode="float")
    rr = pressure.spectral_radius_convolution(law_r, 12, mode="rational")
    rf = pressure.spectral_radius_convolution(law_f, 12, mode="float")
    for a, b in zip(rr.returns, rf.returns):
        assert float(a) == pytest.approx(b, rel=1e-12)


def test_phi_value_examples():
    m = pressure.WalkMeasure(IntegerLattice(1), {(1,): 0.3, (-1,): 0.7})
    val, grad, hess = pressure.phi_value(m, (0.0,))
    assert val == pytest.approx(1.0)
    x_star = 0.5 * math.log(7 / 3)
    val2, grad2, _ = pressure.phi_value(m, (x_star,))
    assert val2 == pytest.approx(2 * math.sqrt(0.21), rel=1e-12)
    assert abs(grad2[0]) <= 1e-12
    sym = pressure.WalkMeasure(IntegerLattice(1), {(1,): 0.5, (-1,): 0.5})
    for x in (0.3, 1.1):
        assert pressure.phi_value(sym, (x,))[0] == pytest.approx(
            pressure.phi_value(sym, (-x,))[0], rel=1e-14
        )


def test_minimize_phi_symmetric_at_origin():
    sys_, coc, _ = presets.embedded4()
    law = pressure.one_step_law(sys_, coc, mode="float").abelianized()
    res = pressure.minimize_phi(law)
    assert res.attained
    assert np.linalg.norm(res.x) <= 1e-10
    assert res.phi == pytest.approx(1.0, abs=1e-12)


def test_minimize_phi_asymmetric_closed_form():
    m = pressure.WalkMeasure(IntegerLattice(1), {(1,): 0.3, (-1,): 0.7})
    res = pressure.minimize_phi(m)
    assert res.x[0] == pytest.approx(0.5 * math.log(7 / 3), abs=1e-12)
    assert res.phi == pytest.approx(2 * math.sqrt(0.21), abs=1e-12)
    assert res.grad_norm <= 1e-12


def test_minimize_phi_heisenberg_separable():
    sys_, coc, _ = presets.heisenberg_asymmetric()
    law = pressure.one_step_law(sys_, coc, mode="float").abelianized()
    res = pressure.minimize_phi(law)
    target = 2 * math.sqrt(0.04) + 2 * math.sqrt(0.06)
    assert res.phi == pytest.approx(target, abs=1e-12)
    assert res.grad_norm <= 1e-12


def test_minimize_phi_half_space_diagnostic():
    m = pressure.WalkMeasure(IntegerLattice(1), {(1,): 0.5, (2,): 0.5})
    res = pressure.minimize_phi(m)
    assert not res.attained
    assert "half-space" in res.note


def test_minimize_phi_degenerate_direction():
    m = pressure.WalkMeasure(IntegerLattice(2), {(1, 0): 0.5, (-1, 0): 0.5})
    res = pressure.minimize_phi(m)
    assert res.attained
    assert len(res.degenerate_directions) == 1
    assert res.grad_norm <= 1e-12


def test_gradient_matches_finite_differences_random():
    rng = np.random.default_rng(11)
    for _ in range(100):
        k = int(rng.integers(1, 4))
        nat = int(rng.integers(2, 7))
        atoms = set()
        while len(atoms) < nat:
            atoms.add(tuple(int(x) for x in rng.integers(-4, 5, size=k)))
        weights = rng.dirichlet(np.ones(nat))
        m = pressure.WalkMeasure(IntegerLattice(k), dict(zip(sorted(atoms), weights)))
        x = rng.normal(scale=0.5, size=k)
        _, grad, hess = pressure.phi_value(m, x)
        h = 1e-6
        for i in range(k):
            xp, xm = x.copy(), x.copy()
            xp[i] += h
            xm[i] -= h
            fd = (pressure.phi_value(m, xp)[0] - pressure.phi_value(m, xm)[0]) / (2 * h)
            assert abs(fd - grad[i]) <= 1e-6 * max(1.0, abs(grad[i]))
        assert np.linalg.eigvalsh(hess).min() >= -1e-12


def test_fekete_limit_examples():
    seq = [2 * n + (-1) ** n for n in range(1, 41)]
    br = pressure.fekete_limit(seq, -3.0)
    assert br.holds
    assert br.lower <= 2.0 <= br.estimate + 0.1
    bad = [-float(n) ** 2 for n in range(1, 15)]
    br2 = pressure.fekete_limit(bad, 0.0)
    assert not br2.holds and br2.violations


def _fekete_pairs_loop(a_seq, log_c, ns, slack=1e-9):
    # the scalar pair scan the vectorised one must reproduce bit for bit
    vals = dict(zip(ns, a_seq))
    return [(n, m, vals[n + m], vals[n] + vals[m] + log_c)
            for n in ns for m in ns
            if n + m in vals and vals[n + m] < vals[n] + vals[m] + log_c - slack]


@pytest.mark.parametrize("seed", range(6))
def test_fekete_limit_matches_pair_loop(seed):
    rng = np.random.default_rng(seed)
    size = int(rng.integers(1, 400))
    ns = list(range(1, size + 1))
    if seed % 2:          # gaps, and an order that is not sorted
        ns = rng.permutation(np.arange(1, 2 * size + 1))[:size].tolist()
    seq = [float(-0.3 * n + rng.normal(0.0, 0.5)) for n in ns]
    log_c = [0.0, -0.7, -2.0 * math.log(1.37)][seed % 3]
    br = pressure.fekete_limit(seq, log_c, ns)
    want = _fekete_pairs_loop(seq, log_c, ns)
    assert want and repr(br.violations) == repr(want)
    assert br.lower == max((a + log_c) / n for n, a in zip(ns, seq))
    assert br.estimate == seq[ns.index(max(ns))] / max(ns)


def test_fekete_limit_trinomial_returns():
    from gmwalk import walkdist

    sys_, coc, _ = presets.trinomial()
    seq = walkdist.return_sequence(sys_, coc, 40, mode="rational")[1:]
    logs = [math.log(float(v)) for v in seq]
    br = pressure.fekete_limit(logs, 0.0, upper=0.0)
    assert br.holds
    assert br.lower <= 0.0
    assert br.estimate == pytest.approx(math.log(float(seq[-1])) / 40)


def test_pressure_estimate_trinomial_limit_zero():
    sys_, coc, _ = presets.trinomial()
    rep = pressure.pressure_estimate("extension", sys_, coc, 0, 400)
    assert rep.transitive
    for name, est in rep.estimates.items():
        assert abs(est) < 0.02, name
        assert rep.brackets[name].contains(0.0)


def test_pressure_estimate_finite_target():
    sys_, coc, _ = presets.cyclic3()
    rep = pressure.pressure_estimate("extension", sys_, coc, 0, 150)
    assert abs(rep.estimates["return_mass"]) < 0.01


def test_pressure_estimate_base_kind():
    sys_, coc, _ = presets.two_state_markov()
    rep = pressure.pressure_estimate("base", sys_, coc, 0, 200)
    assert abs(rep.estimates["periodic"]) < 0.02


def test_kesten_symmetric_heisenberg_consistent():
    sys_, coc, _ = presets.heisenberg_symmetric()
    law = pressure.one_step_law(sys_, coc, mode="float")
    rep = pressure.kesten_identity_check(law, k_max=30)
    assert rep.minimizer.phi == pytest.approx(1.0, abs=1e-12)
    assert rep.consistent
    assert rep.convolution.fekete_lower <= 1.0


def test_kesten_classical_integer_walk():
    sys_, coc, _ = presets.asymmetric_z()
    law = pressure.one_step_law(sys_, coc, mode="float")
    rep = pressure.kesten_identity_check(law, k_max=200)
    assert rep.consistent
    assert rep.minimizer.phi == pytest.approx(2 * math.sqrt(0.21), abs=1e-12)
    assert rep.difference <= 5e-3


def test_pressure_estimate_non_transitive_diagnostic():
    from gmwalk.gm_system import Cocycle

    sys_, _, _ = presets.simple_walk()
    drift = Cocycle(IntegerLattice(1), ((1,), (2,)))   # never returns
    rep = pressure.pressure_estimate("extension", sys_, drift, 0, 20)
    assert not rep.transitive
    assert "transitive" in rep.note
    for name in ("grouped_periodic", "return_mass"):
        br = rep.brackets[name]
        assert rep.ns[name] == [] and rep.values[name] == []
        assert br.lower == -math.inf and math.isnan(br.estimate) and not br.holds
        assert br.note == "no mass > 0 in float up to n = 20"
        assert math.isnan(rep.estimates[name])


def test_fekete_rates_without_a_positive_term_is_an_empty_bracket():
    ns, rates, br, est = pressure._fekete_rates([0.0, Fraction(0), 1e-400], -0.5)
    assert (ns, rates) == ([], [])
    assert br.lower == -math.inf and math.isnan(br.estimate)
    assert not br.holds and br.violations == [] and br.upper == math.inf
    assert br.note == "no mass > 0 in float up to n = 3"
    assert math.isnan(est)
    assert pressure._fekete_rates([], 0.0)[2].note == "no mass > 0 in float up to n = 0"


def test_fekete_rates_match_fekete_limit():
    seq = [Fraction(1, 2), Fraction(0), Fraction(1, 5), Fraction(1, 9)]
    ns, rates, br, est = pressure._fekete_rates(seq, -0.25)
    assert ns == [1, 3, 4]
    logs = [math.log(0.5), math.log(0.2), math.log(1 / 9)]
    assert rates == [l / n for n, l in zip(ns, logs)]
    want = pressure.fekete_limit(logs, -0.25, ns, upper=0.0)
    assert (br.lower, br.estimate, br.holds, br.violations, br.upper, br.note) == \
        (want.lower, want.estimate, want.holds, want.violations, 0.0, "")
    assert est == rates[-1]


def test_kesten_check_with_no_return_up_to_k_max():
    from gmwalk.gm_system import Cocycle

    sys_, coc, _ = presets.simple_walk()
    drift = Cocycle(IntegerLattice(1), ((1,), (2,)))
    # the simple walk first returns at k = 2, beyond k_max = 1; the drift never
    # returns, so its stride is undetermined: None, and the note says so
    for cocycle, k_max, stride, note in (
            (coc, 1, 2, "no mass > 0 in float up to n = 1"),
            (drift, 5, None, "no mass > 0 in float up to n = 5; no return up to k = 7: "
                             "the stride is undetermined")):
        rep = pressure.kesten_identity_check(pressure.one_step_law(sys_, cocycle), k_max)
        conv = rep.convolution
        assert conv.ks == [] and conv.returns == [] and conv.kth_roots == []
        assert conv.stride == stride and conv.fekete_lower == 0.0
        assert math.isnan(conv.estimate)
        assert conv.note == note
        assert not rep.consistent


def _stepped_grouped(sys_, coc, a, n_max):
    # the stepped reference: one engine from the entry (a, v(a)), contracted with P(., a)
    rec = walkdist.walk_recursion(sys_, coc, "float")
    eng = walkdist._make_engine(rec, n_max, seed_entry=(a, coc.value(a)))
    e = coc.spec.identity()
    out = []
    for n in range(1, n_max + 1):
        out.append(sum(eng.joint_mass_at(s, e) * sys_.trans_float[s][a] for s in range(sys_.m)))
        eng.step_once()
    return out


def test_paired_grouped_return_sequence_matches_stepped():
    sym, sym_c, _ = presets.heisenberg_symmetric()
    for sys_, coc in ((sym, sym_c), (HEIS_MARKOV, sym_c), presets.two_state_markov()[:2]):
        rec = walkdist.walk_recursion(sys_, coc, "float")
        paired = walkdist._pairing(rec, 19, seed_entry=(0, coc.value(0))) is not None
        assert paired == isinstance(coc.spec, HeisenbergZ)
        for a in range(sys_.m):
            for n_max in (1, 2, 7, 20):
                assert paired_agrees(pressure.grouped_return_sequence(sys_, coc, a, n_max),
                                      _stepped_grouped(sys_, coc, a, n_max)), (a, n_max)
    assert pressure.grouped_return_sequence(sym, sym_c, 0, 0) == []


def test_paired_planar_grouped_returns_match_stepped():
    # a seed entry counts as one step, so the forward frame is read at depth K + 1
    z4 = Cocycle(IntegerLattice(2), ((1, 0), (-1, 0), (0, 1), (0, -1)))
    for sys_, coc in (presets.z2_lattice()[:2], (HEIS_MARKOV, z4)):
        rec = walkdist.walk_recursion(sys_, coc, "float")
        assert walkdist._pairing(rec, 109, seed_entry=(0, coc.value(0))) is not None
        for a in range(sys_.m):
            assert paired_agrees(pressure.grouped_return_sequence(sys_, coc, a, 110),
                                 _stepped_grouped(sys_, coc, a, 110)), a


def test_paired_sheared_returns_match_stepped():
    # a*b != 0 atoms, where the dual's box differs from the forward one
    inverse = HEIS_SHEARED.spec.inverse
    for sys_ in (presets.heisenberg_asymmetric()[0], HEIS_MARKOV):
        rec = walkdist.marginal_recursion(sys_, HEIS_SHEARED, "float")
        atoms = [a for _, a, _ in rec.shifts]
        assert (walkdist._DenseHeisEngine.box(atoms, 5)[1]
                != walkdist._DenseHeisEngine.box([inverse(a) for a in atoms], 5)[1])
        for n in (7, 20):
            assert walkdist._pairing(rec, n) is not None
            eng = walkdist._make_engine(rec, n)
            want = [r for (r,) in walkdist._trajectory(eng, [(0, 0, 0)], n)]
            assert sum(w > 0 for w in want) > n // 2
            assert paired_agrees(walkdist.return_sequence(sys_, HEIS_SHEARED, n), want), n
        for a in range(sys_.m):
            for n_max in (2, 7, 20):
                assert paired_agrees(
                    pressure.grouped_return_sequence(sys_, HEIS_SHEARED, a, n_max),
                    _stepped_grouped(sys_, HEIS_SHEARED, a, n_max)), (a, n_max)


def test_paired_convolution_returns_match_stepped():
    sys_, coc, _ = presets.heisenberg_asymmetric()
    law = pressure.one_step_law(sys_, coc, mode="float")
    rep = pressure.spectral_radius_convolution(law, 30)
    eng = walkdist._make_engine(walkdist.measure_recursion(law.spec, law.masses, "float"), 32)
    want = [r for (r,) in walkdist._trajectory(eng, [(0, 0, 0)], 32)]
    assert rep.ks == list(range(2, 31, 2)) and rep.stride == 2
    assert paired_agrees(rep.returns, [want[k] for k in rep.ks])
    assert all(want[k] == 0.0 for k in range(1, 33, 2))
    # the stride ratios read r_{k+2} up to k = 32, past k_max
    ref = [(want[k + 2] / want[k]) ** 0.5 for k in rep.ks]
    assert paired_agrees(rep.stride_ratios, ref)


def test_spectral_radius_convolution_validates_k_max_and_stride():
    sys_, coc, _ = presets.trinomial()
    law = pressure.one_step_law(sys_, coc, mode="float")
    for k_max in (0, -3):
        with pytest.raises(ValidationError, match="k_max >= 1"):
            pressure.spectral_radius_convolution(law, k_max)
    with pytest.raises(ValidationError, match="stride must be >= 1"):
        pressure.spectral_radius_convolution(law, 5, stride=0)


def test_convolution_fekete_lower_is_the_largest_root():
    sys_, coc, _ = presets.asymmetric_z()
    rep = pressure.spectral_radius_convolution(pressure.one_step_law(sys_, coc, "float"), 20)
    assert rep.ks == list(range(2, 21, 2))
    assert rep.fekete_lower == math.exp(max(math.log(r) / k for k, r in zip(rep.ks, rep.returns)))


def test_superadditivity_constant_on_the_system():
    from gmwalk.gm_system import GibbsMarkovSystem

    for mk in presets.ALL_EXAMPLES.values():
        sys_, _, _ = mk()
        if sys_.is_bernoulli:
            assert sys_.superadditivity_constant == 1
            assert sys_.log_superadditivity_constant == 0.0
    markov = GibbsMarkovSystem.markov([["1/7", "2/7", "4/7"], ["1/3", "1/3", "1/3"],
                                       ["5/11", "3/11", "3/11"]])
    C = markov.gibbs_constant
    assert C > 1
    assert markov.superadditivity_constant == 1 / C ** 2
    assert isinstance(markov.superadditivity_constant, Fraction)
    assert markov.log_superadditivity_constant == -2.0 * math.log(float(C))


def test_generating_period_exhaustion_diagnostic():
    sys_, coc, _ = presets.asymmetric_z()
    ms = lambda n: pressure.walk_measure(sys_, coc, 0, n, mode="rational")
    rep = pressure.generating_period(ms, [(7,)], 4)
    assert rep.s is None
    assert rep.missing_by_s[4] == [(7,)]
    assert "no s <=" in rep.note


def test_phi_tilde_bernoulli_exact():
    # base symbol 1 carries increment 0, so every walk measure is symmetric
    sys_, coc, _ = presets.trinomial()
    rep = pressure.phi_tilde_check(sys_, coc, 1, range(1, 7))
    assert rep.holds and rep.constant == 1.0
    # symmetric measures: every minimized value is 1, the rate sequence is 0
    for p, r in zip(rep.phi_values, rep.rate_sequence):
        assert p == pytest.approx(1.0, abs=1e-12)
        assert abs(r) <= 1e-12


def test_phi_tilde_requires_attained_minimizers():
    # base symbol 0 carries increment -1: the depth-1 measure is a point mass,
    # whose transform has no minimum
    sys_, coc, _ = presets.trinomial()
    with pytest.raises(ValidationError):
        pressure.phi_tilde_check(sys_, coc, 0, range(1, 3))


def test_phi_tilde_base_case_matches_oracle():
    # stride 3 is the first depth whose measures straddle the origin
    sys_, coc, _ = presets.asymmetric_z()
    rep = pressure.phi_tilde_check(sys_, coc, 0, range(1, 5), s=3)
    ref = oracle.oracle_walk_measure(sys_, coc, 0, 3)
    m1 = pressure.WalkMeasure(coc.spec,
                              {g: float(w) for g, w in ref.value["measure"].items()})
    res = pressure.minimize_phi(m1.abelianized())
    assert rep.phi_values[0] == pytest.approx(res.phi, rel=1e-12)
    assert rep.pn_values[0] == pytest.approx(float(ref.value["pn_one"]), rel=1e-12)
    assert rep.holds


def test_walk_measure_validation():
    sys_, coc, _ = presets.trinomial()
    with pytest.raises(ValidationError):
        pressure.walk_measure(sys_, coc, 0, 0)


@pytest.mark.parametrize("name", ["asymmetric_z", "two_state_markov", "trinomial"])
def test_blocked_sequences_match_stepped(name, monkeypatch):
    # grouped returns, return masses and convolution returns to n = 400 read
    # blocks; forced to step, every value agrees to 1e-13 with the same zeros
    sys_, coc, _ = getattr(presets, name)()
    law = pressure.one_step_law(sys_, coc)

    def run():
        rep = pressure.pressure_estimate("extension", sys_, coc, 0, 400)
        conv = pressure.spectral_radius_convolution(law, 398)
        return ([x for a in range(sys_.m)
                 for x in pressure.grouped_return_sequence(sys_, coc, a, 400)],
                rep, conv.returns)
    seq, rep, conv = run()
    monkeypatch.setattr(walkdist, "_block_length", lambda *a, **k: None)
    want_seq, want_rep, want_conv = run()
    assert paired_agrees(seq, want_seq) and paired_agrees(conv, want_conv)
    assert rep.ns == want_rep.ns
    for est in rep.values:
        assert all(abs(a - b) <= 1e-13 * abs(b)
                   for a, b in zip(rep.values[est], want_rep.values[est]))
