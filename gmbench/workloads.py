"""The four benchmark workloads: operations on gmwalk and their output checks.

A workload is built from a seed into a fixed list of operations.  Building
it (systems, cocycles, parsed configs) is the set-up that ``setup_s``
measures.  Each operation is one public API call or one ``cli.run``; its
check compares the output with a value computed apart from the program
(``refs``), with an independent path of the program (the oracle, or float
against rational), or with a property the method must have, and raises
``Mismatch`` otherwise.  Checks run outside the timed region.

Operations call the package through module attributes at call time, so the
traced run sees every call it wraps.
"""

from __future__ import annotations

import math
import random
import re
from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from pathlib import Path
from typing import Any, Callable

import numpy as np

import refs
from gmwalk import cli, oracle, presets, pressure, spectral, walkdist
from gmwalk.gm_system import Cocycle, GibbsMarkovSystem
from gmwalk.groups import HeisenbergZ, IntegerLattice, cyclic_group

ROOT = Path(__file__).resolve().parent.parent
CONFIGS = ROOT / "configs"
HEIS_GENS = ((1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0))
EXACT_DEPTH = 10          # Heisenberg depths checked against the exact integer DP
ORACLE_DEPTH = 9          # rational tables checked against the brute-force oracle


class Mismatch(Exception):
    """An operation's output disagrees with its reference."""


@dataclass
class Op:
    name: str
    call: Callable[[], Any]                      # timed
    check: Callable[[Any], None]                 # untimed; raises Mismatch
    collect: Callable[[Any], Any] | None = None  # untimed: raw output -> checked data
    known_fault: bool = False                    # fails on every run until the program is fixed


def expect(cond, msg):
    if not cond:
        raise Mismatch(msg)


def expect_close(got, want, rtol, atol=0.0, what="value"):
    if not abs(got - want) <= atol + rtol * abs(want):
        raise Mismatch(f"{what}: got {got!r}, want {want!r}")


def expect_seq(got, want, rtol, atol=0.0, what="sequence"):
    expect(len(got) == len(want), f"{what}: length {len(got)}, want {len(want)}")
    for i, (a, b) in enumerate(zip(got, want)):
        expect_close(a, b, rtol, atol, f"{what}[{i}]")


# ------------------------------------------------------------ seeded inputs

def _row(rng, m, lo=1, hi=9):
    w = [rng.randint(lo, hi) for _ in range(m)]
    return [Fraction(x, sum(w)) for x in w]


def seeded_markov(rng, m, lo=1, hi=9):
    return GibbsMarkovSystem.markov([_row(rng, m, lo, hi) for _ in range(m)])


def seeded_symmetric_markov(rng):
    """4 states over +-e1, +-e2 with P[i(a)][i(b)] = P[a][b] for i = (1 0 3 2).

    Half of each row is uniform, which keeps the runner-up eigenvalue of the
    twisted matrices on the 0.5-disc well below the leading one (modulus
    ratio under 0.43 over 400 sampled seeds).  The involution makes the
    spectrum closed under conjugation, so a simple leading eigenvalue is
    real, as ``u_n_integral`` requires.
    """
    r0, r2 = _row(rng, 4), _row(rng, 4)
    rows = [r0, [r0[1], r0[0], r0[3], r0[2]], r2, [r2[1], r2[0], r2[3], r2[2]]]
    return GibbsMarkovSystem.markov([[(Fraction(1, 4) + w) / 2 for w in r] for r in rows])


def sticky_two_state(rng):
    """Two states with p00 in {6,7,8}/10 and p11 in {11,13,15,17}/20.

    p00 != p11 and p00 + p11 > 1, so no twisted 2x2 matrix has a double
    eigenvalue, where an eigensolver's answer would be defined only to
    sqrt(machine epsilon).
    """
    p00 = Fraction(rng.randint(6, 8), 10)
    p11 = Fraction(rng.choice((11, 13, 15, 17)), 20)
    return GibbsMarkovSystem.markov([[p00, 1 - p00], [1 - p11, p11]])


def key(system, cocycle):
    """Hashable (trans, pi, incs) for the reference functions."""
    return tuple(system.trans), tuple(system.pi), tuple(cocycle.values)


def config_text(system, group, values, experiment):
    rows = "; ".join(" ".join(str(w) for w in row) for row in system.trans)
    vals = "; ".join(",".join(str(c) for c in v) for v in values)
    exp = "\n".join(f"{k} = {v}" for k, v in experiment.items())
    return (f"[system]\nalphabet = {system.m}\norder = 1\nweights = {rows}\n"
            f"mode = rational\n\n[cocycle]\ngroup = {group}\nvalues = {vals}\n\n"
            f"[experiment]\n{exp}\n\n[output]\ndir = out\n")


def _cell(text):
    t = text.strip()
    # gmwalk writes numpy scalars in spectral-scan output with their numpy 2
    # repr, "np.float64(x)"; the number inside is what is checked
    wrapped = re.fullmatch(r"np\.float64\((.*)\)", t)
    t = wrapped.group(1) if wrapped else t
    try:
        return int(t)
    except ValueError:
        pass
    try:
        return Fraction(t) if "/" in t else float(t)
    except (ValueError, ZeroDivisionError):
        return t


def cli_op(name, config, out_dir, check, csv_stable=False):
    """One ``cli.run``; the check reads back its CSV and manifest."""
    out = Path(out_dir) / name
    first = {}

    def collect(result):
        code, artifacts = result
        raw = next(p for p in artifacts if p.suffix == ".csv").read_bytes()
        rows = [[_cell(c) for c in line.split(",")] for line in raw.decode().splitlines()[1:]]
        manifest = {}
        for line in (out / "manifest.txt").read_text().splitlines():
            k, _, v = line.partition(" = ")
            manifest[k] = _cell(v)
        return {"code": code, "rows": rows, "manifest": manifest, "bytes": raw}

    def checked(data):
        if csv_stable:
            first.setdefault("bytes", data["bytes"])
            expect(data["bytes"] == first["bytes"], "CSV bytes changed on repeat")
        check(data)

    return Op(f"cli.{name}", lambda: cli.run(config, out_dir=out), checked, collect)


# ================================================================ heis_returns

def heis_returns(seed, out_dir):
    rng = random.Random(seed)
    asym_s, asym_c, _ = presets.heisenberg_asymmetric()
    sym_s, sym_c, _ = presets.heisenberg_symmetric()
    heis = Cocycle(HeisenbergZ(), HEIS_GENS)
    bern_s = GibbsMarkovSystem.bernoulli(_row(rng, 4))
    markov_s = seeded_markov(rng, 4)
    bern_law = pressure.one_step_law(bern_s, heis, mode="float")
    kesten_cfg = cli.parse_config((CONFIGS / "heisenberg_kesten.cfg").read_text())

    def exact_returns(system, g=(0, 0, 0)):
        return refs.exact_point_masses(*key(system, heis), "heisenberg", EXACT_DEPTH, g)

    def returns_check(system, n):
        chernoff = refs.heis_bernoulli_minimum(system.pi) if system.is_bernoulli else None

        def check(out):
            expect(len(out) == n + 1, f"{len(out)} returns for n={n}")
            for k, r in enumerate(out):
                expect(r == 0.0 if k % 2 else r > 0.0, f"r_{k} = {r!r} breaks the parity rule")
                if chernoff is not None:
                    expect(r <= chernoff ** k * (1 + 1e-12), f"r_{k} above the Chernoff bound")
            exact = exact_returns(system)[:n + 1]
            expect_seq(out[:len(exact)], [float(x) for x in exact], 1e-12, what="returns")
        return check

    def kesten_returns_check(system, k_max, ks, returns, roots):
        phi_min = refs.heis_bernoulli_minimum(system.pi)
        expect(ks == list(range(2, k_max + 1, 2)), f"kesten ks {ks}")
        for k, r, root in zip(ks, returns, roots):
            expect(r <= phi_min ** k * (1 + 1e-12), f"r_{k} above (min phi)^k")
            expect_close(root, r ** (1.0 / k), 1e-13, what=f"root_{k}")
        small = [k for k in ks if k <= EXACT_DEPTH]
        exact = exact_returns(system)
        expect_seq(returns[:len(small)], [float(exact[k]) for k in small], 1e-12,
                   what="convolution returns")
        return phi_min

    def kesten_check(k_max):
        pa, pA, pb, pB = bern_s.pi
        x_star = (0.5 * math.log(pA / pa), 0.5 * math.log(pB / pb))

        def check(rep):
            conv = rep.convolution
            phi_min = kesten_returns_check(bern_s, k_max, conv.ks, conv.returns, conv.kth_roots)
            expect(conv.stride == 2, f"stride {conv.stride}")
            expect_close(rep.minimizer.phi, phi_min, 1e-12, what="min phi")
            # phi is flat at its minimum, so float64 locates x* only to about
            # sqrt(machine epsilon): values of phi cannot tell closer points apart
            expect_seq(list(rep.minimizer.x), x_star, 0.0, 1e-6, what="minimizer x")
            expect(conv.fekete_lower <= phi_min * (1 + 1e-12), "Fekete bound above min phi")
            expect_close(rep.difference, abs(conv.estimate - rep.minimizer.phi), 1e-12,
                         what="difference")
        return check

    def superadd_check(n_max):
        def check(rep):
            expect(rep.holds and not rep.violations, f"violations {rep.violations[:3]}")
            expect(rep.constant == 1.0 and rep.n_max == n_max, f"constant {rep.constant!r}")
        return check

    def pressure_check(n):
        def check(rep):
            evens = list(range(2, n + 1, 2))
            expect(rep.transitive, "not transitive")
            for name in ("return_mass", "grouped_periodic"):
                expect(rep.ns[name] == evens, f"{name} indices {rep.ns[name]}")
                expect(all(v <= 0.0 for v in rep.values[name]), f"{name} above 0")
            # Z_{0,e}^k = p_0 mu^{k-1}(v_0^{-1}) for Bernoulli weights
            r, r_inv = exact_returns(sym_s), exact_returns(sym_s, (-1, 0, 0))
            small = [k for k in evens if k <= EXACT_DEPTH]
            want_r = [math.log(r[k]) / k for k in small]
            want_z = [math.log(sym_s.pi[0] * r_inv[k - 1]) / k for k in small]
            expect_seq(rep.values["return_mass"][:len(small)], want_r, 1e-12, what="log r_k / k")
            expect_seq(rep.values["grouped_periodic"][:len(small)], want_z, 1e-12,
                       what="log Z_k / k")
        return check

    def cli_kesten_check(data):
        expect(data["code"] == 0, f"exit code {data['code']}")
        rows = data["rows"]
        phi_min = kesten_returns_check(asym_s, 30, [r[0] for r in rows], [r[1] for r in rows],
                                       [r[2] for r in rows])
        expect_close(data["manifest"]["result.abelianized_minimum"], phi_min, 1e-12,
                     what="abelianized minimum")

    ops = []
    for label, system, cocycle, depths in (
            ("heis_asym", asym_s, asym_c, (8, 12, 16, 20, 24, 28)),
            ("heis_sym", sym_s, sym_c, (8, 12, 16, 20, 24)),
            ("heis_seeded", bern_s, heis, (10, 14, 18)),
            ("heis_markov", markov_s, heis, (6, 10, 14))):
        for n in depths:
            ops.append(Op(f"return_sequence.{label}.n{n}",
                          lambda s=system, c=cocycle, n=n: walkdist.return_sequence(s, c, n),
                          returns_check(system, n)))
    for k in (10, 16, 22):
        ops.append(Op(f"kesten_identity_check.heis_seeded.k{k}",
                      lambda k=k: pressure.kesten_identity_check(bern_law, k_max=k),
                      kesten_check(k)))
    ops += [
        Op("superadditivity_check.heis_sym.n10",
           lambda: walkdist.superadditivity_check(sym_s, sym_c, 10), superadd_check(10)),
        Op("superadditivity_check.heis_seeded.n8",
           lambda: walkdist.superadditivity_check(bern_s, heis, 8), superadd_check(8)),
    ]
    for n in (12, 20):
        ops.append(Op(f"pressure_estimate.extension.heis_sym.n{n}",
                      lambda n=n: pressure.pressure_estimate("extension", sym_s, sym_c, 0, n),
                      pressure_check(n)))
    ops.append(cli_op("heisenberg_kesten", kesten_cfg, out_dir, cli_kesten_check))
    return ops


# ================================================================ lattice_walks

def lattice_walks(seed, out_dir):
    rng = random.Random(seed)
    tri_s, tri_c, _ = presets.trinomial()
    tsm_s, tsm_c, _ = presets.two_state_markov()
    asz_s, asz_c, _ = presets.asymmetric_z()
    emb_s, emb_c, _ = presets.embedded4()
    z2_3 = Cocycle(IntegerLattice(2), ((1, 0), (0, 1), (-1, -1)))   # period 3
    m3_s = seeded_markov(rng, 3)
    z1_3 = Cocycle(IntegerLattice(1), ((-1,), (0,), (1,)))
    mz_s = seeded_markov(rng, 3)
    fault_s = GibbsMarkovSystem.bernoulli([Fraction(1, 100), Fraction(99, 100)])
    pm1 = Cocycle(IntegerLattice(1), ((1,), (-1,)))
    g = rng.randint(1, 6)
    shifts = [(0, 0), (rng.randint(1, 3), 0), (0, rng.randint(1, 3))]
    ratio_cfg = cli.parse_config((CONFIGS / "trinomial_ratio.cfg").read_text())
    stone_cfg = cli.parse_config((CONFIGS / "stone_embedded.cfg").read_text())
    E, A = (-1.0, 1.0), (-2.0, 2.0)
    tri_w = (Fraction(1, 3),) * 3                         # (p_minus, p_zero, p_plus)
    asz_w = (Fraction(7, 10), Fraction(0), Fraction(3, 10))

    # mass(n, g) callables: exact closed forms for Bernoulli walks on Z, the
    # numpy float walk for Markov chains
    def z_mass(weights):
        return lambda n, g: refs.z_bernoulli_mass(weights, n, g[0])

    def walk_mass(system, cocycle, n_top, targets):
        def mass(n, g):
            rows, _ = refs.float_laws(*key(system, cocycle), n_top, tuple(targets))
            return rows[n][targets.index(g)]
        return mass

    def fault_mass(n, g):
        # mu^n(0) = C(n, n/2) (pq)^{n/2}, pq = 99/10000, so the stride-2 ratio
        # is pq (n+2)(n+1) / (n/2+1)^2
        return Fraction(math.comb(n, n // 2)) * Fraction(99, 10000) ** (n // 2)

    def ratio_op(label, system, cocycle, g, ns, stride, mass, rtol=1e-11, known_fault=False):
        def check(rep):
            expect(rep.ns == ns, f"reported n {rep.ns}, requested {ns}")
            for n, r, dev in zip(rep.ns, rep.ratios, rep.deviations):
                want = mass(n + stride, g) / mass(n, g)
                expect_close(r, float(want), rtol, what=f"ratio at n={n}")
                expect_close(dev, abs(r - 1.0), 0.0, 1e-15, what="deviation")
        return Op(f"ratio_sequence.{label}",
                  lambda: walkdist.ratio_sequence(system, cocycle, g, ns, stride=stride),
                  check, known_fault=known_fault)

    def cross_op(label, system, cocycle, g, n, mass):
        zero = (0,) * len(g)

        def check(rep):
            expect_close(rep.value, float(mass(n, g) / mass(n, zero)), 1e-11, what="cross ratio")
            vals = np.array(cocycle.values, dtype=float)
            pi = np.array([float(p) for p in system.pi])
            centred = vals - pi @ vals
            cov = centred.T * pi @ centred
            gv = np.array(g, dtype=float)
            clt = math.exp(-float(gv @ np.linalg.solve(cov, gv)) / (2 * n))
            expect_close(rep.clt_reference, clt, 1e-12, what="CLT reference")
        return Op(f"cross_ratio.{label}", lambda: walkdist.cross_ratio(system, cocycle, g, n),
                  check)

    def table_op(label, system, cocycle, n):
        def check(table):
            _, want = refs.float_laws(*key(system, cocycle), n)
            got = table.group_masses()
            expect(abs(table.total() - 1.0) <= 1e-12 * n, f"mass defect {table.total() - 1.0!r}")
            expect(set(got) == set(want), "support differs")
            for gk, w in want.items():
                expect_close(got[gk], w, 1e-11, what=f"mass at {gk}")
        return Op(f"distribution.{label}.n{n}",
                  lambda: walkdist.distribution(system, cocycle, n, mode="float"), check)

    def stone_check(n):
        def check(rep):
            vE, fE = refs.embedded4_window(n, *E)
            vA, fA = refs.embedded4_window(n, *A)
            expect_close(rep.ratio, vE / vA, 1e-11, what="stone ratio")
            expect(rep.target == 0.5, f"volume ratio {rep.target!r}")
            expect(rep.boundary_atoms == fE + fA, f"boundary atoms {rep.boundary_atoms}")
        return check

    def pairs_check(rep):
        mass = lambda t: refs.embedded4_window(120, *E, shift=tuple(t))[0]
        want = [(a, b, mass(a) / mass((a[0] - b[0], a[1] - b[1])))
                for a in shifts for b in shifts]
        expect([p[:2] for p in rep.pairs] == [w[:2] for w in want], "pairs")
        expect_seq([p[2] for p in rep.pairs], [w[2] for w in want], 1e-11, what="pair ratios")
        expect_close(rep.max_deviation, max(abs(w[2] - 1) for w in want), 1e-9, 1e-15,
                     what="max deviation")

    def condition_d_check(rep):
        n = 60
        target = float(refs.z_bernoulli_mass(tri_w, n, g))
        expect(len(rep.table) == 3 + 9 + 27, f"{len(rep.table)} cylinders")
        for nprime, word, val, tgt, _ in rep.table:
            psi = sum(tri_c.values[s][0] for s in word)
            want = float(refs.z_bernoulli_mass(tri_w, n - nprime, g - psi))
            expect_close(val, want, 1e-11, what=f"conditioned mass {word}")
            expect_close(tgt, target, 1e-11, what="target")

    def condition_c_check(rep):
        n, gs = 60, shifts[1]
        target = refs.embedded4_window(n, *E, shift=gs)[0]
        expect(len(rep.table) == 4 + 16, f"{len(rep.table)} cylinders")
        for nprime, word, val, tgt, _ in rep.table:
            psi = [sum(emb_c.values[s][i] for s in word) for i in range(2)]
            want = refs.embedded4_window(n - nprime, *E, shift=(gs[0] - psi[0], gs[1] - psi[1]))[0]
            expect_close(val, want, 1e-11, what=f"window mass {word}")
            expect_close(tgt, target, 1e-11, what="target")

    def pressure_check(rep):
        evens = list(range(2, 1001, 2))

        def log_over_n(f, n):
            return (math.log(f.numerator) - math.log(f.denominator)) / n

        expect(rep.transitive, "not transitive")
        for name in ("return_mass", "grouped_periodic"):
            expect(rep.ns[name] == evens, f"{name} indices")
        # Z_{0,e}^n = p_0 mu^{n-1}(-1), since symbol 0 steps +1 with p_0 = 3/10
        want_r = [log_over_n(refs.z_bernoulli_mass(asz_w, n, 0), n) for n in evens]
        want_z = [log_over_n(asz_s.pi[0] * refs.z_bernoulli_mass(asz_w, n - 1, -1), n)
                  for n in evens]
        expect_seq(rep.values["return_mass"], want_r, 1e-11, what="log mu^n(0) / n")
        expect_seq(rep.values["grouped_periodic"], want_z, 1e-11, what="log Z_n / n")

    def cli_ratio_check(data):
        expect(data["code"] == 0, f"exit code {data['code']}")
        expect([r[0] for r in data["rows"]] == [250, 500, 1000], "CSV n column")
        for n, _, value, _, _ in data["rows"]:
            want = refs.z_bernoulli_mass(tri_w, n + 1, 0) / refs.z_bernoulli_mass(tri_w, n, 0)
            expect_close(value, float(want), 1e-11, what=f"CSV ratio at n={n}")

    def cli_stone_check(data):
        expect(data["code"] == 0, f"exit code {data['code']}")
        (_, _, value, target, _), = data["rows"]
        vE, fE = refs.embedded4_window(200, *E)
        vA, fA = refs.embedded4_window(200, *A)
        expect_close(value, vE / vA, 1e-11, what="CSV stone ratio")
        expect(target == 0.5, f"CSV target {target!r}")
        expect(data["manifest"]["result.boundary_atoms"] == fE + fA, "manifest boundary atoms")

    ops = [
        ratio_op("trinomial.g0", tri_s, tri_c, (0,), [250, 500, 1000], 1, z_mass(tri_w)),
        ratio_op("trinomial.g_seeded", tri_s, tri_c, (g,), [300, 600], 1, z_mass(tri_w)),
        ratio_op("asymmetric_z.g0", asz_s, asz_c, (0,), [500, 1000], 2, z_mass(asz_w)),
        ratio_op("two_state_markov.g0", tsm_s, tsm_c, (0,), [200, 400, 800], 2,
                 walk_mass(tsm_s, tsm_c, 802, [(0,)])),
        ratio_op("two_state_markov.g2", tsm_s, tsm_c, (2,), [300, 600], 2,
                 walk_mass(tsm_s, tsm_c, 602, [(2,)])),
        ratio_op("markov3_z.g0", mz_s, z1_3, (0,), [200, 400], 1,
                 walk_mass(mz_s, z1_3, 401, [(0,)])),
    ]
    for n in (90, 150, 210, 240):
        ops.append(ratio_op(f"markov3_z2.n{n}", m3_s, z2_3, (0, 0), [n], 3,
                            walk_mass(m3_s, z2_3, n + 3, [(0, 0)])))
    ops += [
        cross_op("trinomial.n2000", tri_s, tri_c, (g,), 2000, z_mass(tri_w)),
        cross_op("asymmetric_z.n1000", asz_s, asz_c, (2 * g,), 1000, z_mass(asz_w)),
        cross_op("markov3_z2.n150", m3_s, z2_3, (1, -1), 150,
                 walk_mass(m3_s, z2_3, 150, [(1, -1), (0, 0)])),
        table_op("markov3_z2", m3_s, z2_3, 60),
        table_op("two_state_markov", tsm_s, tsm_c, 400),
    ]
    for n in (100, 150, 200):
        ops.append(Op(f"stone_ratio.embedded4.n{n}",
                      lambda n=n: walkdist.stone_ratio(emb_s, emb_c, E, A, n), stone_check(n)))
    ops += [
        Op("window_pair_ratios.embedded4.n120",
           lambda: walkdist.window_pair_ratios(emb_s, emb_c, E, shifts, 120), pairs_check),
        Op("check_condition_D.trinomial.n60",
           lambda: walkdist.check_condition_D(tri_s, tri_c, (g,), 1, 3, 60), condition_d_check),
        Op("check_condition_C.embedded4.n60",
           lambda: walkdist.check_condition_C(emb_s, emb_c, E, shifts[1], 1, 2, 60),
           condition_c_check),
        Op("pressure_estimate.extension.asymmetric_z.n1000",
           lambda: pressure.pressure_estimate("extension", asz_s, asz_c, 0, 1000),
           pressure_check),
        # Known fault: mu^800(0) underflows to 0.0 and ratio_sequence drops
        # n=800 instead of reporting it.  The inputs do not depend on the seed.
        ratio_op("underflow_1_100.g0", fault_s, pm1, (0,), [100, 400, 800], 2, fault_mass,
                 rtol=1e-12, known_fault=True),
        cli_op("trinomial_ratio", ratio_cfg, out_dir, cli_ratio_check),
        cli_op("stone_embedded", stone_cfg, out_dir, cli_stone_check),
    ]
    return ops


# ============================================================== character_grids

def character_grids(seed, out_dir):
    rng = random.Random(seed)
    # weights 3..7 keep the drift mild, so the point masses that
    # fourier_invert recovers stay far above the quadrature's rounding
    m3_s = seeded_markov(rng, 3, 3, 7)
    c3 = Cocycle(IntegerLattice(2), ((1, 0), (0, 1), (0, 0)))     # aperiodic
    m2_s = sticky_two_state(rng)
    c2 = Cocycle(IntegerLattice(1), ((1,), (-1,)))                # period 2
    s4_s = seeded_symmetric_markov(rng)
    c4 = Cocycle(IntegerLattice(2), ((1, 0), (-1, 0), (0, 1), (0, -1)))
    p = Fraction(rng.randint(1, 4), 10)
    bz_s = GibbsMarkovSystem.bernoulli([p, 1 - 2 * p, p])
    bz_c = Cocycle(IntegerLattice(1), ((-1,), (0,), (1,)))
    d2 = (rng.randint(-1, 1), rng.randint(-1, 1))   # offset of the Z^2 target from n/3
    g1 = (2 * rng.randint(0, 3),)
    scan_cfg = cli.parse_config(config_text(
        m3_s, "lattice 2", c3.values,
        {"kind": "spectral-scan", "resolution": 64, "epsilon": 0.1}))
    control_cfg = cli.parse_config((CONFIGS / "simple_walk_scan.cfg").read_text())

    @cache
    def spectrum(system, cocycle, resolution, scan_eps=None):
        d = len(cocycle.values[0])
        thetas = (refs.scan_points(resolution, d, scan_eps) if scan_eps is not None
                  else refs.torus_grid(resolution, d))
        return (thetas,) + refs.leading_stack(tuple(system.trans), cocycle.values, thetas)

    def leading_at(system, cocycle, theta):
        return refs.leading_stack(tuple(system.trans), cocycle.values, np.array([theta]))[1][0]

    def scan_check(system, cocycle, resolution, eps=0.1):
        def check(rep):
            _, _, lead, _ = spectrum(system, cocycle, resolution, eps)
            want = float(np.abs(lead).max())
            expect_close(rep.max_modulus, want, 1e-11, what="max modulus")
            expect(rep.passed == (want < 1 - 1e-9), f"verdict {rep.passed}")
            expect_close(abs(leading_at(system, cocycle, rep.argmax_theta)), rep.max_modulus,
                         1e-11, what="modulus at the argmax")
        return check

    def grid_rows_check(system, cocycle, resolution, rows):
        thetas, eig, lead, gap = spectrum(system, cocycle, resolution)
        d = thetas.shape[1]
        got = np.array(rows, dtype=float)
        expect(got.shape == (len(thetas), d + 3), f"grid shape {got.shape}")
        expect(np.abs(got[:, :d] - thetas).max() <= 1e-12, "theta grid")
        lam = got[:, d] + 1j * got[:, d + 1]
        expect(abs(lam[0] - 1) <= 1e-12, f"lambda(0) = {lam[0]!r}")
        expect(np.abs(lam).max() <= 1 + 1e-12, "|lambda| above 1")
        nearest = np.abs(eig - lam[:, None]).min(axis=1)
        expect(nearest.max() <= 1e-11, f"lambda not an eigenvalue (off by {nearest.max():.3g})")
        rel = np.abs(np.abs(lam) - np.abs(lead)) / np.abs(lead)
        expect(rel.max() <= 1e-11, f"|lambda| not leading (off by {rel.max():.3g})")
        expect(np.abs(got[:, d + 2] - gap).max() <= 1e-10, "runner-up ratio")

    def reality_check(system, cocycle, resolution):
        def check(rep):
            _, _, lead, _ = spectrum(system, cocycle, resolution)
            want = float(np.abs(lead.imag).max())
            expect_close(rep.max_imag, want, 1e-10, what="max |Im lambda|")
            expect(rep.passed == (rep.max_imag <= 1e-10), f"verdict {rep.passed}")
            at = leading_at(system, cocycle, rep.argmax_theta)
            expect_close(abs(at.imag), rep.max_imag, 1e-10, what="|Im lambda| at the argmax")
        return check

    def fourier_check(system, cocycle, g, n):
        def check(rep):
            rows, _ = refs.float_laws(*key(system, cocycle), n, (g,))
            expect_close(rep.value, rows[n][0], 1e-10, 1e-14, what="inverted mass")
            expect(not rep.aliasing_risk, "aliasing risk")
        return check

    def u_bernoulli_check(n):
        # u_n(pi) = 2 pi mu^n(0) for a Bernoulli walk on Z
        def check(u):
            want = 2 * math.pi * float(refs.z_bernoulli_mass((p, 1 - 2 * p, p), n, 0))
            expect_close(u, want, 1e-10, what="u_n(pi)")
        return check

    def u_disc_check(eta, n):
        def check(u):
            expect(0 < u <= math.pi * eta ** 2, f"u_n = {u!r} outside (0, pi eta^2]")
            want = refs.disc_integral(tuple(s4_s.trans), c4.values, eta, n)
            expect_close(u, want, 1e-10, what="u_n over the disc")
        return check

    def cli_scan_check(data):
        _, _, lead, _ = spectrum(m3_s, c3, 64, 0.1)
        want = float(np.abs(lead).max())
        expect(data["code"] == (0 if want < 1 - 1e-9 else 1), f"exit code {data['code']}")
        expect_close(data["manifest"]["result.max_modulus"], want, 1e-11, what="max modulus")
        grid_rows_check(m3_s, c3, 64, data["rows"])

    def cli_control_check(data):
        # the +-1 walk has period 2: lambda(pi) = -1, so the scan must fail
        expect(data["code"] == 1, f"exit code {data['code']}")
        expect_close(data["manifest"]["result.max_modulus"], 1.0, 0.0, 1e-12, what="max modulus")
        expect(data["manifest"]["result.passed"] == "False", "control passed")
        rows = data["rows"]
        expect(abs(rows[0][1] - 1.0) <= 1e-12 and abs(rows[32][1] + 1.0) <= 1e-12,
               f"lambda(0) = {rows[0][1]!r}, lambda(pi) = {rows[32][1]!r}")

    def grid_op(label, system, cocycle, resolution):
        return Op(f"eigenvalue_grid.{label}.r{resolution}",
                  lambda: spectral.eigenvalue_grid(system, cocycle, resolution),
                  lambda rows: grid_rows_check(system, cocycle, resolution, rows))

    def scan_op(label, system, cocycle, resolution):
        return Op(f"aperiodicity_scan.{label}.r{resolution}",
                  lambda: spectral.aperiodicity_scan(system, cocycle, resolution, 0.1),
                  scan_check(system, cocycle, resolution))

    def reality_op(label, system, cocycle, resolution):
        return Op(f"symmetry_reality_check.{label}.r{resolution}",
                  lambda: spectral.symmetry_reality_check(system, cocycle, None, resolution),
                  reality_check(system, cocycle, resolution))

    ops = [
        scan_op("markov3_z2", m3_s, c3, 128),
        grid_op("markov3_z2", m3_s, c3, 128),
        reality_op("markov3_z2", m3_s, c3, 128),
        scan_op("markov3_z2", m3_s, c3, 32),
        grid_op("markov3_z2", m3_s, c3, 32),
        reality_op("markov3_z2", m3_s, c3, 32),
        scan_op("markov2_z", m2_s, c2, 512),
        grid_op("markov2_z", m2_s, c2, 512),
        reality_op("markov2_z", m2_s, c2, 512),
        grid_op("sym4_z2", s4_s, c4, 64),
    ]
    for n, grid in ((10, 64), (20, 64), (30, 128), (40, 128), (50, 128)):
        ops.append(Op(f"fourier_invert.markov2_z.n{n}",
                      lambda n=n, grid=grid: spectral.fourier_invert(m2_s, c2, g1, n, grid),
                      fourier_check(m2_s, c2, g1, n)))
    for n in (8, 12):
        g = (n // 3 + d2[0], n // 3 + d2[1])
        ops.append(Op(f"fourier_invert.markov3_z2.n{n}",
                      lambda n=n, g=g: spectral.fourier_invert(m3_s, c3, g, n, 32),
                      fourier_check(m3_s, c3, g, n)))
    for n in (10, 20):
        ops.append(Op(f"u_n_integral.sym4_z2.n{n}",
                      lambda n=n: spectral.u_n_integral(s4_s, c4, 0.5, n), u_disc_check(0.5, n)))
    for n in (10, 30, 60, 90):
        ops.append(Op(f"u_n_integral.bernoulli_z.n{n}",
                      lambda n=n: spectral.u_n_integral(bz_s, bz_c, math.pi, n),
                      u_bernoulli_check(n)))
    ops += [
        cli_op("spectral_scan_markov3_z2", scan_cfg, out_dir, cli_scan_check),
        cli_op("simple_walk_scan", control_cfg, out_dir, cli_control_check),
    ]
    return ops


# ================================================================ sparse_exact

def sparse_exact(seed, out_dir):
    rng = random.Random(seed)
    tri_s, tri_c, _ = presets.trinomial()
    tsm_s, tsm_c, _ = presets.two_state_markov()
    z2_s, z2_c, _ = presets.z2_lattice()
    mz_s = seeded_markov(rng, 3)
    z1_3 = Cocycle(IntegerLattice(1), ((-1,), (0,), (1,)))
    c2_s, c2_c, _ = presets.cyclic2()
    mc_s = seeded_markov(rng, 3)
    zc3 = Cocycle(cyclic_group(3), ((0,), (1,), (2,)))
    a = rng.randrange(3)
    gz2 = (rng.randint(0, 4), rng.randint(0, 4))
    oracle_cfg = cli.parse_config(config_text(
        seeded_markov(rng, 3), "lattice 1", z1_3.values,
        {"kind": "oracle-compare", "n_max": 8}))
    tri_w = (Fraction(1, 3),) * 3

    closed = {
        id(tri_s): lambda n, g: refs.z_bernoulli_mass(tri_w, n, g[0]),
        id(z2_s): lambda n, g: refs.z2_uniform_mass(n, *g),
    }

    @cache
    def float_table(system, cocycle, n):
        return walkdist.distribution(system, cocycle, n, mode="float").data

    def dist_check(system, cocycle, n):
        def check(table):
            want = refs.exact_table(*key(system, cocycle), "lattice", n)
            expect(table.mode == "rational" and table.n == n, "mode or depth")
            expect(table.data == want, "joint table differs from the exact DP")
            expect(table.total() == 1, f"total mass {table.total()}")
            if id(system) in closed:
                for gk, w in table.group_masses().items():
                    expect(w == closed[id(system)](n, gk), f"mass at {gk} differs from the closed form")
            if n <= ORACLE_DEPTH:
                expect(table.data == oracle.oracle_distribution(system, cocycle, n).data,
                       "table differs from the oracle")
            fl = float_table(system, cocycle, n)
            expect(set(fl) == set(table.data), "float support differs")
            for k, w in table.data.items():
                expect_close(fl[k], float(w), 1e-12, what=f"float mass at {k}")
        return check

    def returns_check(system, cocycle, n):
        def check(out):
            zero = cocycle.spec.identity()
            want = refs.exact_point_masses(*key(system, cocycle), "lattice", n, zero)
            expect(out == want, "returns differ from the exact DP")
            if id(system) in closed:
                expect(out == [closed[id(system)](k, zero) for k in range(n + 1)],
                       "returns differ from the closed form")
        return check

    def ratio_check(system, cocycle, g, ns, stride):
        def check(rep):
            exact = refs.exact_point_masses(*key(system, cocycle), "lattice", ns[-1] + stride, g)
            expect(rep.ns == ns, f"reported n {rep.ns}")
            expect_seq(rep.ratios, [float(exact[n + stride] / exact[n]) for n in ns], 1e-15,
                       what="exact ratios")
        return check

    def superadd_check(system, n_max):
        trans = tuple(system.trans)
        want = 1.0 if system.is_bernoulli else float(
            1 / refs.gibbs_constant(trans, refs.stationary(trans)) ** 2)

        def check(rep):
            expect(rep.holds and not rep.violations, f"violations {rep.violations[:3]}")
            expect(rep.constant == want and rep.n_max == n_max, f"constant {rep.constant!r}")
        return check

    def periodic_check(system, cocycle, base, n, normalized):
        def check(out):
            want = refs.exact_grouped_periodic(tuple(system.trans), cocycle.values, base, n)
            if normalized:
                total = sum(want.values())
                expect(out.n == n and out.base == base, "provenance")
                expect(out.masses == {g: w / total for g, w in want.items()},
                       "walk measure differs from the exact cycle weights")
            else:
                expect(out == want, "periodic sums differ from the exact cycle weights")
        return check

    def mixing_check(system, cocycle, n):
        def check(rep):
            laws, _ = refs.float_cyclic_laws(*key(system, cocycle), cocycle.spec.order, n)
            k = len(laws[0])
            want = [float(np.abs(law - 1.0 / k).max()) for law in laws[1:]]
            expect(rep.ns == list(range(1, n + 1)) and not rep.periodic, "indices or periodic flag")
            expect_seq(rep.deviations, want, 1e-11, 1e-15, what="sup deviation")
        return check

    def tail_check(system, cocycle, n):
        def check(rep):
            _, tails = refs.float_cyclic_laws(*key(system, cocycle), cocycle.spec.order, n)
            expect_seq(rep.tail, tails, 1e-11, 1e-15, what="tail")
        return check

    def cli_oracle_check(data):
        expect(data["code"] == 0, f"exit code {data['code']}")
        expect([r[0] for r in data["rows"]] == list(range(1, 9)), "CSV n column")
        for n, _, value, _, mismatch in data["rows"]:
            expect(value == 0.0 and mismatch == 0, f"oracle mismatch at n={n}")

    ops = []
    for label, system, cocycle, depths in (
            ("trinomial", tri_s, tri_c, (60,)),
            ("two_state_markov", tsm_s, tsm_c, (ORACLE_DEPTH, 60)),
            ("z2_lattice", z2_s, z2_c, (ORACLE_DEPTH, 32)),
            ("markov3_z", mz_s, z1_3, (ORACLE_DEPTH, 40))):
        for n in depths:
            ops.append(Op(f"distribution.rational.{label}.n{n}",
                          lambda s=system, c=cocycle, n=n: walkdist.distribution(s, c, n),
                          dist_check(system, cocycle, n)))
    for label, system, cocycle, n in (("trinomial", tri_s, tri_c, 100),
                                      ("two_state_markov", tsm_s, tsm_c, 100),
                                      ("z2_lattice", z2_s, z2_c, 40),
                                      ("markov3_z", mz_s, z1_3, 50)):
        ops.append(Op(f"return_sequence.rational.{label}.n{n}",
                      lambda s=system, c=cocycle, n=n: walkdist.return_sequence(s, c, n, mode="rational"),
                      returns_check(system, cocycle, n)))
    for label, system, cocycle, g, ns, stride in (
            ("trinomial", tri_s, tri_c, (0,), [30, 60], 1),
            ("two_state_markov", tsm_s, tsm_c, (0,), [40, 80], 2),
            ("z2_lattice", z2_s, z2_c, gz2, [16, 28], 1)):
        ops.append(Op(f"ratio_sequence.rational.{label}",
                      lambda s=system, c=cocycle, g=g, ns=ns, st=stride:
                      walkdist.ratio_sequence(s, c, g, ns, mode="rational", stride=st),
                      ratio_check(system, cocycle, g, ns, stride)))
    ops += [
        Op("superadditivity_check.rational.trinomial.n12",
           lambda: walkdist.superadditivity_check(tri_s, tri_c, 12, mode="rational"),
           superadd_check(tri_s, 12)),
        Op("superadditivity_check.rational.markov3_z.n8",
           lambda: walkdist.superadditivity_check(mz_s, z1_3, 8, mode="rational"),
           superadd_check(mz_s, 8)),
        Op("grouped_periodic_sum.two_state_markov.n20",
           lambda: pressure.grouped_periodic_sum(tsm_s, tsm_c, 0, 20),
           periodic_check(tsm_s, tsm_c, 0, 20, False)),
        Op("grouped_periodic_sum.markov3_z.n12",
           lambda: pressure.grouped_periodic_sum(mz_s, z1_3, a, 12),
           periodic_check(mz_s, z1_3, a, 12, False)),
        Op("walk_measure.two_state_markov.n16",
           lambda: pressure.walk_measure(tsm_s, tsm_c, 0, 16),
           periodic_check(tsm_s, tsm_c, 0, 16, True)),
        Op("walk_measure.markov3_z.n10",
           lambda: pressure.walk_measure(mz_s, z1_3, a, 10),
           periodic_check(mz_s, z1_3, a, 10, True)),
    ]
    for label, system, cocycle in (("cyclic2", c2_s, c2_c), ("markov3_z3", mc_s, zc3)):
        ops.append(Op(f"finite_group_mixing.{label}.n200",
                      lambda s=system, c=cocycle: walkdist.finite_group_mixing(s, c, 200),
                      mixing_check(system, cocycle, 200)))
        ops.append(Op(f"return_time_tail.{label}.n200",
                      lambda s=system, c=cocycle: walkdist.return_time_tail(s, c, 200),
                      tail_check(system, cocycle, 200)))
    ops.append(cli_op("oracle_compare_markov3_z", oracle_cfg, out_dir, cli_oracle_check,
                      csv_stable=True))
    return ops


WORKLOADS = {
    "heis_returns": heis_returns,
    "lattice_walks": lattice_walks,
    "character_grids": character_grids,
    "sparse_exact": sparse_exact,
}
