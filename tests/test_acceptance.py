"""Acceptance suite: every shipped criterion at its stated tolerance.

Each test prints one `[PASS]`/`[FAIL]` line (run with `pytest -s` to see them
all) and enforces both the numerical tolerance and the runtime budget.
"""

import math
import time

import numpy as np
import pytest

from gmwalk import oracle, presets, pressure, spectral, walkdist
from gmwalk.groups import IntegerLattice


def _report(tag, ok, elapsed, budget, detail):
    status = "PASS" if ok else "FAIL"
    print(f"[{status}] {tag} ({elapsed:.2f}s / budget {budget:.0f}s) {detail}")
    assert ok, f"{tag}: {detail}"
    assert elapsed < budget, f"{tag}: runtime {elapsed:.2f}s over budget {budget}s"


def test_c01_oracle_equivalence():
    t0 = time.perf_counter()
    mismatches = []
    for name, mk in presets.ALL_EXAMPLES.items():
        sys_, coc, _ = mk()
        tables = oracle.oracle_distributions_upto(sys_, coc, 10)
        for n, ref in zip(range(1, 11), tables):
            fast = walkdist.distribution(sys_, coc, n, mode="rational")
            if fast.data != ref.data:
                mismatches.append((name, "distribution", n))
        for n in range(1, 11):
            ref_z = oracle.oracle_periodic_sums(sys_, coc, 0, n)
            if pressure.grouped_periodic_sum(sys_, coc, 0, n, mode="rational") \
                    != ref_z.value["table"]:
                mismatches.append((name, "grouped_periodic", n))
            ref_m = oracle.oracle_walk_measure(sys_, coc, 0, n)
            got = pressure.walk_measure(sys_, coc, 0, n, mode="rational")
            if got.masses != ref_m.value["measure"]:
                mismatches.append((name, "walk_measure", n))
    elapsed = time.perf_counter() - t0
    _report("C01 oracle equivalence (9 systems, n<=10, exact)",
            not mismatches, elapsed, 60, f"mismatches={mismatches}")


def test_c02_ratio_limit():
    t0 = time.perf_counter()
    sys_, coc, _ = presets.trinomial()
    rep = walkdist.ratio_sequence(sys_, coc, (0,), [250, 500, 1000])
    elapsed = time.perf_counter() - t0
    d = dict(zip(rep.ns, rep.deviations))
    ok = d[1000] <= 2e-3 and d[250] > d[500] > d[1000]
    _report("C02 ratio limit trinomial g=0", ok, elapsed, 5,
            f"devs={[f'{d[n]:.2e}' for n in (250, 500, 1000)]}")


def test_c03_cross_ratio():
    t0 = time.perf_counter()
    sys_, coc, _ = presets.trinomial()
    rep = walkdist.cross_ratio(sys_, coc, (5,), 2000)
    elapsed = time.perf_counter() - t0
    _report("C03 cross ratio trinomial g=5 n=2000", rep.deviation <= 0.02,
            elapsed, 10, f"ratio={rep.value:.5f} dev={rep.deviation:.4f}")


def test_c04_stone_ratio():
    t0 = time.perf_counter()
    sys_, coc, _ = presets.embedded4()
    rep = walkdist.stone_ratio(sys_, coc, (-1.0, 1.0), (-2.0, 2.0), 200)
    elapsed = time.perf_counter() - t0
    _report("C04 window-mass ratio embedded4 n=200", rep.deviation <= 0.05,
            elapsed, 120, f"ratio={rep.ratio:.4f} target=0.5 dev={rep.deviation:.4f}")


def test_c05_fourier_inversion_exact():
    t0 = time.perf_counter()
    sys_, coc, _ = presets.trinomial()
    devs = []
    for g in (0, 7):
        rep = spectral.fourier_invert(sys_, coc, (g,), 50, 128, compare=True)
        devs.append(rep.deviation)
    elapsed = time.perf_counter() - t0
    _report("C05 inversion quadrature n=50 M=128", max(devs) <= 1e-10,
            elapsed, 1, f"devs={[f'{d:.1e}' for d in devs]}")


def test_c06_spectral_conditions():
    t0 = time.perf_counter()
    problems = []
    for name, mk in presets.ALL_EXAMPLES.items():
        sys_, coc, _ = mk()
        lat = coc if (coc.spec.ab_rank == coc.spec.key_size and coc.spec.ab_rank > 0) \
            else (coc.abelianized() if coc.spec.ab_rank > 0
                  else __import__("gmwalk.gm_system", fromlist=["Cocycle"])
                  .Cocycle(IntegerLattice(1), coc.values))
        lam, _ = spectral.eigenvalue_at(sys_, lat, (0.0,) * lat.spec.key_size)
        if abs(lam - 1) > 1e-12:
            problems.append((name, "lambda0", lam))
    tri = presets.trinomial()
    z2 = presets.z2_lattice()
    sw = presets.simple_walk()
    if not spectral.aperiodicity_scan(tri[0], tri[1], 512, 0.1).passed:
        problems.append(("trinomial", "scan should pass"))
    if not spectral.aperiodicity_scan(z2[0], z2[1], 64, 0.1).passed:
        problems.append(("z2", "scan should pass"))
    sw_scan = spectral.aperiodicity_scan(sw[0], sw[1], 64, 0.1)
    if sw_scan.passed or abs(sw_scan.max_modulus - 1.0) > 1e-12:
        problems.append(("simple walk", "scan should fail at modulus 1"))
    r1 = spectral.symmetry_reality_check(tri[0], tri[1], tri[2], 128)
    e4 = presets.embedded4()
    r2 = spectral.symmetry_reality_check(e4[0], e4[1], e4[2], 96)
    az = presets.asymmetric_z()
    r3 = spectral.symmetry_reality_check(az[0], az[1], None, 128)
    if not (r1.passed and r1.max_imag <= 1e-10):
        problems.append(("trinomial", "reality", r1.max_imag))
    if not (r2.passed and r2.max_imag <= 1e-10):
        problems.append(("embedded4", "reality", r2.max_imag))
    if r3.passed:
        problems.append(("asymmetric", "reality check should fail"))
    elapsed = time.perf_counter() - t0
    _report("C06 spectral conditions (unit eigenvalue, scans, reality)",
            not problems, elapsed, 10, f"problems={problems}")


def test_c07_un_stability_and_local_limit():
    t0 = time.perf_counter()
    sys_, coc, _ = presets.trinomial()
    u05 = spectral.u_n_integral(sys_, coc, 0.5, 500)
    u10 = spectral.u_n_integral(sys_, coc, 1.0, 500)
    stab = abs(u05 / u10 - 1.0)
    rep = spectral.local_limit_check(sys_, coc, [1000], g=(3,))
    elapsed = time.perf_counter() - t0
    ok = stab <= 0.01 and rep.deviations[0] <= 0.02
    _report("C07 u_n stability and point local limit", ok, elapsed, 30,
            f"u-ratio dev={stab:.2e} local dev={rep.deviations[0]:.4f}")


def test_c08_pressure_asymmetric():
    t0 = time.perf_counter()
    sys_, coc, _ = presets.asymmetric_z()
    rep = pressure.pressure_estimate("extension", sys_, coc, 0, 1000)
    target = math.log(2 * math.sqrt(0.21))
    devs = {k: abs(v - target) for k, v in rep.estimates.items()}
    brackets_ok = all(br.holds and br.contains(target)
                      for br in rep.brackets.values())
    elapsed = time.perf_counter() - t0
    ok = max(devs.values()) <= 5e-3 and brackets_ok
    _report("C08 pressure estimators asymmetric walk n=1000", ok, elapsed, 30,
            f"devs={{{', '.join(f'{k}:{v:.4f}' for k, v in devs.items())}}} "
            f"brackets_ok={brackets_ok}")


def test_c09a_kesten_stride_ratio_tolerance():
    """Faithful check of the stated k=30 tolerance.

    The identity-return sequence obeys r_k ~ rho^k k^{-2} here, so the
    stride-ratio estimator carries an irreducible bias of about
    rho * s/(k+s) = 0.056 at k=30: the 0.05 tolerance is not attainable for
    this estimator at this depth (it first fits at k=34).  Kept as stated;
    expected to fail.
    """
    t0 = time.perf_counter()
    sys_, coc, _ = presets.heisenberg_asymmetric()
    law = pressure.one_step_law(sys_, coc, mode="float")
    rep = pressure.kesten_identity_check(law, k_max=30)
    target = 2 * math.sqrt(0.04) + 2 * math.sqrt(0.06)
    diff = abs(rep.convolution.estimate - target)
    elapsed = time.perf_counter() - t0
    _report("C09a convolution stride-ratio at k=30 within 0.05", diff <= 0.05,
            elapsed, 300,
            f"estimate={rep.convolution.estimate:.5f} target={target:.5f} "
            f"diff={diff:.4f} (bracket width={rep.bracket_width:.3f}, "
            f"bias ~ rho*2/32={target * 2 / 32:.4f})")


def test_c09b_kesten_minimizer():
    t0 = time.perf_counter()
    sys_, coc, _ = presets.heisenberg_asymmetric()
    law = pressure.one_step_law(sys_, coc, mode="float")
    res = pressure.minimize_phi(law.abelianized().as_float())
    target = 2 * math.sqrt(0.04) + 2 * math.sqrt(0.06)
    elapsed = time.perf_counter() - t0
    ok = res.grad_norm <= 1e-12 and abs(res.phi - target) <= 1e-9
    _report("C09b abelianized minimizer", ok, elapsed, 300,
            f"phi={res.phi:.12f} grad_norm={res.grad_norm:.1e}")


def test_c10_abelianization_pressure_equality():
    t0 = time.perf_counter()
    sys_, coc, _ = presets.heisenberg_symmetric()
    ext = pressure.pressure_estimate("extension", sys_, coc, 0, 20)
    ab = pressure.pressure_estimate("abelianized", sys_, coc, 0, 20)
    e1 = ext.estimates["grouped_periodic"]
    e2 = ab.estimates["grouped_periodic"]
    b1 = ext.brackets["grouped_periodic"]
    b2 = ab.brackets["grouped_periodic"]
    elapsed = time.perf_counter() - t0
    ok = abs(e1 - e2) <= 0.1 and b1.overlaps(b2) and b1.holds and b2.holds
    _report("C10 extension vs abelianized rates at n=20", ok, elapsed, 120,
            f"|diff|={abs(e1 - e2):.4f} brackets=[{b1.lower:.3f},{b1.upper:.0f}] "
            f"[{b2.lower:.3f},{b2.upper:.0f}] overlap={b1.overlaps(b2)}")


def test_c11_superadditivity():
    t0 = time.perf_counter()
    problems = []
    for name, mk in presets.ALL_EXAMPLES.items():
        sys_, coc, _ = mk()
        rep = walkdist.superadditivity_check(sys_, coc, 30, mode="float",
                                             max_cells=200_000_000)
        if not rep.holds:
            problems.append((name, "float", rep.violations[:3]))
    # exact rational with constant 1 for Bernoulli examples (reduced range on
    # the Heisenberg pair, where exact tables grow quartically)
    for name, n_cap in (("trinomial", 30), ("asymmetric_z", 30), ("z2_lattice", 30),
                        ("cyclic3", 30), ("cyclic2", 30), ("embedded4", 30),
                        ("heisenberg_symmetric", 10), ("heisenberg_asymmetric", 10)):
        sys_, coc, _ = presets.ALL_EXAMPLES[name]()
        rep = walkdist.superadditivity_check(sys_, coc, n_cap, mode="rational",
                                             constant=1)
        if not rep.holds:
            problems.append((name, "rational", rep.violations[:3]))
    elapsed = time.perf_counter() - t0
    _report("C11 return-mass superadditivity n,m<=30", not problems, elapsed, 60,
            f"problems={problems}")


def test_c12_condition_d_instances():
    t0 = time.perf_counter()
    sys_, coc, _ = presets.trinomial()
    rep = walkdist.check_condition_D(sys_, coc, (0,), 1, 3, 500)
    c3s, c3c, _ = presets.cyclic3()
    rep3 = walkdist.check_condition_D(c3s, c3c, (0,), 1, 3, 60)
    elapsed = time.perf_counter() - t0
    ok = rep.worst_deviation <= 0.01 and rep3.worst_deviation <= 1e-8
    _report("C12 cylinder-conditioned deviations", ok, elapsed, 60,
            f"trinomial={rep.worst_deviation:.2e} (best n'={rep.best_nprime}) "
            f"cyclic3={rep3.worst_deviation:.2e}")


def test_c13_finite_group_mixing():
    t0 = time.perf_counter()
    sys_, coc, _ = presets.cyclic2()
    rep = walkdist.finite_group_mixing(sys_, coc, 50)
    worst = max(abs(d - 0.5 * 0.8 ** n) for n, d in zip(rep.ns, rep.deviations))
    tail = walkdist.return_time_tail(sys_, coc, 50)
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-12 and tail.r_squared > 0.999
    _report("C13 weighted two-group mixing and return tail", ok, elapsed, 1,
            f"|dev - 0.5*0.8^n|={worst:.1e} tail R^2={tail.r_squared:.6f}")


def test_c14_gradient_and_convexity():
    t0 = time.perf_counter()
    rng = np.random.default_rng(2025)
    worst_rel = 0.0
    psd = True
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
            worst_rel = max(worst_rel, abs(fd - grad[i]) / max(1.0, abs(grad[i])))
        psd &= bool(np.linalg.eigvalsh(hess).min() >= -1e-12)
    elapsed = time.perf_counter() - t0
    ok = worst_rel <= 1e-6 and psd
    _report("C14 analytic gradients and convexity (100 random measures)", ok,
            elapsed, 10, f"worst rel err={worst_rel:.1e} hessians PSD={psd}")
