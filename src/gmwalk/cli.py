"""Experiment runner: declarative configs, deterministic CSV artifacts.

A config is plain text with four sections of typed key = value pairs::

    [system]
    alphabet = 3
    order = 0                  # 0 Bernoulli, 1 Markov
    weights = 1/3 1/3 1/3      # order 1: one row per state, ';'-separated
    mode = rational            # or float

    [cocycle]
    group = lattice 1          # lattice <d> | cyclic <k> | heisenberg |
                               # embedded | product(<g>, <g>)
    values = -1; 0; 1          # one tuple per symbol
    involution = 2 1 0         # optional alphabet permutation
    basis = 1; sqrt(2)         # embedded only: one row per internal rank

    [experiment]
    kind = ratio               # or any subcommand name
    ...kind-specific keys...

    [output]
    dir = out

Validation is total: a bad config reports every error at once.  Runs are
deterministic; in rational mode the CSV bytes are identical across runs.
Exit codes: 0 all checks pass, 1 a labeled check failed, 2 usage/validation
error, 3 a resource guard tripped.
"""

from __future__ import annotations

import argparse
import math
import re
import sys
import time
from collections.abc import Callable
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

import numpy as np

from . import __version__, _kernels, oracle, pressure, spectral, walkdist
from .errors import ConsistencyError, ResourceLimitError, ValidationError
from .gm_system import Cocycle, GibbsMarkovSystem, SymmetryInvolution
from .groups import (
    DirectProduct,
    EmbeddedRealLattice,
    HeisenbergZ,
    IntegerLattice,
    cyclic_group,
)

@dataclass
class ExperimentConfig:
    system: GibbsMarkovSystem
    cocycle: Cocycle
    involution: SymmetryInvolution | None
    mode: str
    kind: str
    params: dict
    out_dir: str
    echo: dict = field(default_factory=dict)


# ----------------------------------------------------------------- parsing

_SECTION_RE = re.compile(r"^\[([a-z]+)\]$")

def _split_sections(text, errors):
    sections = {}
    current = None
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        m = _SECTION_RE.match(line)
        if m:
            current = m.group(1)
            if current not in _KNOWN_KEYS:
                errors.append(f"line {lineno}: unknown section [{current}]")
                current = None
            elif current in sections:
                errors.append(f"line {lineno}: duplicate section [{current}]")
            else:
                sections[current] = {}
            continue
        if "=" not in line:
            errors.append(f"line {lineno}: expected 'key = value', got {line!r}")
            continue
        key, val = (p.strip() for p in line.split("=", 1))
        key = key.lower()
        if current is None:
            errors.append(f"line {lineno}: key {key!r} outside any section")
            continue
        if key not in _KNOWN_KEYS[current]:
            errors.append(f"line {lineno}: unknown key {key!r} in [{current}]")
            continue
        sections[current][key] = val
    return sections


def _parse_fraction(tok):
    return Fraction(tok)


def _parse_number(tok):
    tok = tok.strip()
    m = re.fullmatch(r"sqrt\((\d+)\)", tok)
    if m:
        return math.sqrt(int(m.group(1)))
    return float(Fraction(tok))


def _parse_int_tuple(text):
    return tuple(int(t) for t in re.split(r"[,\s]+", text.strip()) if t)


def _parse_box(text):
    rows = [r for r in text.split(";") if r.strip()]
    box = []
    for r in rows:
        parts = [p for p in re.split(r"[,\s]+", r.strip()) if p]
        if len(parts) != 2:
            raise ValidationError(f"window row {r!r} needs exactly two bounds")
        box.append((_parse_number(parts[0]), _parse_number(parts[1])))
    return tuple(box)


def _parse_group(text, basis_text, errors):
    text = text.strip()
    m = re.fullmatch(r"lattice\s+(\d+)", text)
    if m:
        return IntegerLattice(int(m.group(1)))
    m = re.fullmatch(r"cyclic\s+(\d+)", text)
    if m:
        return cyclic_group(int(m.group(1)))
    if text == "heisenberg":
        return HeisenbergZ()
    if text == "embedded":
        if not basis_text:
            errors.append("embedded group requires a 'basis' key")
            return None
        rows = [r for r in basis_text.split(";") if r.strip()]
        basis = []
        for r in rows:
            try:
                basis.append(tuple(_parse_number(p) for p in re.split(r"[,\s]+", r.strip())
                                   if p))
            except (ValueError, ZeroDivisionError) as exc:
                errors.append(f"cocycle key 'basis' = {basis_text!r}: {exc}")
        return EmbeddedRealLattice(basis) if len(basis) == len(rows) else None
    m = re.fullmatch(r"product\((.+)\)", text)
    if m:
        depth = 0
        inner = m.group(1)
        for i, ch in enumerate(inner):
            if ch == "(":
                depth += 1
            elif ch == ")":
                depth -= 1
            elif ch == "," and depth == 0:
                left = _parse_group(inner[:i], basis_text, errors)
                right = _parse_group(inner[i + 1 :], basis_text, errors)
                if left is None or right is None:
                    return None
                return DirectProduct(left, right)
        errors.append(f"cannot split product spec {text!r}")
        return None
    errors.append(f"unknown group spec {text!r}")
    return None


def parse_config(text, kind_override=None) -> ExperimentConfig:
    """Parse and fully validate a config; raises with every error found."""
    errors: list[str] = []
    sections = _split_sections(text, errors)
    sys_sec = sections.get("system", {})
    coc_sec = sections.get("cocycle", {})
    exp_sec = sections.get("experiment", {})
    out_sec = sections.get("output", {})
    if "system" not in sections:
        errors.append("missing [system] section")
    if "cocycle" not in sections:
        errors.append("missing [cocycle] section")

    system = None
    try:
        mm = int(sys_sec.get("alphabet", "0"))
        order = int(sys_sec.get("order", "0"))
        wtext = sys_sec.get("weights", "")
        rows = [r for r in wtext.split(";") if r.strip()]
        parsed = [[_parse_fraction(t) for t in re.split(r"[,\s]+", r.strip()) if t]
                  for r in rows]
        if order == 0:
            if len(parsed) != 1 or len(parsed[0]) != mm:
                raise ValidationError(f"Bernoulli weights need {mm} entries in one row")
            system = GibbsMarkovSystem.bernoulli(parsed[0])
        else:
            if len(parsed) != mm or any(len(r) != mm for r in parsed):
                raise ValidationError(f"Markov weights need a {mm}x{mm} table")
            system = GibbsMarkovSystem.markov(parsed)
    except (ValidationError, ValueError, ZeroDivisionError) as exc:
        errors.extend(getattr(exc, "errors", [str(exc)]))
    mode = sys_sec.get("mode", "float").strip()
    if mode not in ("rational", "float"):
        errors.append(f"mode must be rational or float, got {mode!r}")

    cocycle = None
    involution = None
    spec = _parse_group(coc_sec.get("group", ""), coc_sec.get("basis"), errors) \
        if coc_sec.get("group") else None
    if coc_sec.get("group") is None and "cocycle" in sections:
        errors.append("cocycle needs a 'group' key")
    if spec is not None and "values" in coc_sec:
        try:
            vals = [
                _parse_int_tuple(r) for r in coc_sec["values"].split(";") if r.strip()
            ]
            cocycle = Cocycle(spec, tuple(vals))
            if system is not None and len(vals) != system.m:
                errors.append(
                    f"cocycle not total: {len(vals)} values for {system.m} symbols"
                )
        except (ValidationError, ValueError) as exc:
            errors.extend(getattr(exc, "errors", [str(exc)]))
    elif spec is not None:
        errors.append("cocycle needs a 'values' key")
    if "involution" in coc_sec:
        try:
            involution = SymmetryInvolution(_parse_int_tuple(coc_sec["involution"]))
            if system is not None and len(involution.perm) != system.m:
                errors.append("involution length does not match the alphabet size")
        except (ValidationError, ValueError) as exc:
            errors.extend(getattr(exc, "errors", [str(exc)]))

    kind = kind_override or exp_sec.get("kind", "").strip()
    if kind not in EXPERIMENTS:
        errors.append(f"unknown experiment kind {kind!r}")
    if kind_override and exp_sec.get("kind") and exp_sec["kind"].strip() != kind_override:
        errors.append(
            f"config kind {exp_sec['kind'].strip()!r} conflicts with "
            f"subcommand {kind_override!r}"
        )

    params = _parse_params(kind, exp_sec, cocycle, errors)

    if errors:
        raise ValidationError(errors)

    echo = {}
    for sec_name, sec in (("system", sys_sec), ("cocycle", coc_sec),
                          ("experiment", exp_sec), ("output", out_sec)):
        for k, v in sorted(sec.items()):
            echo[f"{sec_name}.{k}"] = v
    echo.setdefault("system.mode", mode)
    echo.setdefault("experiment.kind", kind)
    return ExperimentConfig(
        system, cocycle, involution, mode, kind, params,
        out_sec.get("dir", "out"), echo,
    )


# [experiment] key -> parser; each key is parsed on its own
_PARAM_PARSERS = {
    "g": _parse_int_tuple,
    "cylinder": _parse_int_tuple,
    "n_grid": lambda text: list(_parse_int_tuple(text)),
    "e": _parse_box,
    "a_box": _parse_box,
    "f_box": _parse_box,
    "eta": _parse_number,
    "epsilon": _parse_number,
    "variant": str.strip,
    **dict.fromkeys(("n", "n_max", "n0", "n1", "stride", "resolution", "grid", "k_max",
                     "base", "max_cells"), int),
}
_BOX_KEYS = ("e", "a_box", "f_box")


def _keys(needs):
    """Every key a ``needs`` tuple names; "g|e" names both."""
    return {k for key in needs for k in key.split("|")}


def _parse_params(kind, sec, cocycle, errors):
    p = {}
    for key, parse in _PARAM_PARSERS.items():
        if key not in sec:
            continue
        try:
            p[key] = parse(sec[key])
        except (ValidationError, ValueError, ZeroDivisionError) as exc:
            errors.extend(f"experiment key {key!r} = {sec[key]!r}: {e}"
                          for e in getattr(exc, "errors", [str(exc)]))
    exp = EXPERIMENTS.get(kind)
    if exp is None:
        return p

    needs, reads = exp.needs, exp.reads
    if exp.variants:
        variant = p.get("variant", next(iter(exp.variants))).upper()
        p["variant"] = variant
        if variant in exp.variants:
            needs += exp.variants[variant]
        else:
            errors.append(f"{kind} variant must be one of {', '.join(exp.variants)}, "
                          f"got {variant!r}")
            reads += sum(exp.variants.values(), ())
    used = _keys(needs + reads)
    # a key the kind would ignore is refused rather than silently dropped
    known = used | set(exp.defaults) | set(exp.caps) | {"kind"}
    errors.extend(f"experiment kind {kind!r} does not read {key!r}"
                  for key in sec if key not in known)
    # a window the kind reads (required, or optional and given) needs real coordinates
    windowed = any(k in needs or (k in sec and k in used) for k in _BOX_KEYS)
    embedded = cocycle is not None and isinstance(cocycle.spec, EmbeddedRealLattice)
    if windowed and not embedded:
        errors.append("window experiments require an embedded real lattice")
    for key in needs:
        if not any(k in sec for k in key.split("|")):
            errors.append(f"experiment kind {kind!r} requires "
                          + " or ".join(repr(k) for k in key.split("|")))
    for key, value in exp.defaults.items():
        p.setdefault(key, value)
    for key, cap in exp.caps.items():
        if p.get(key, 0) > cap:
            errors.append(f"experiment kind {kind!r} allows {key!r} up to {cap}, "
                          f"got {p[key]}")
    return p


# ------------------------------------------------------------------ running

def run(config: ExperimentConfig, out_dir=None):
    """Execute one experiment; returns (exit_code, artifact paths)."""
    out = Path(out_dir or config.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    t0 = time.perf_counter()
    code = 0
    artifacts = []
    try:
        code, rows, header, extra = _dispatch(config)
    except ValidationError as exc:
        _write_manifest(out / "manifest.txt", config, 2, time.perf_counter() - t0,
                        error="; ".join(exc.errors))
        return 2, [out / "manifest.txt"]
    except ResourceLimitError as exc:
        _write_manifest(out / "manifest.txt", config, 3, time.perf_counter() - t0,
                        error=f"{exc} (completed={exc.completed})")
        return 3, [out / "manifest.txt"]
    except ConsistencyError as exc:
        # a hypothesis the statistic needs fails: a labelled check failed
        _write_manifest(out / "manifest.txt", config, 1, time.perf_counter() - t0,
                        error=str(exc))
        return 1, [out / "manifest.txt"]
    csv_path = out / f"{config.kind.replace('-', '_')}.csv"
    walkdist._write_csv(csv_path, header, rows)
    artifacts.append(csv_path)
    manifest = out / "manifest.txt"
    _write_manifest(manifest, config, code, time.perf_counter() - t0, extra=extra)
    artifacts.append(manifest)
    return code, artifacts


def _write_manifest(path, config, code, wall, error=None, extra=None):
    lines = {}
    lines.update(config.echo)
    lines["run.version"] = __version__
    lines["run.python"] = sys.version.split()[0]
    lines["run.numpy"] = np.__version__
    lines["run.kernel_backend"] = _kernels.BACKEND
    lines["run.exit_code"] = str(code)
    lines["run.wall_time_s"] = f"{wall:.3f}"
    if error:
        lines["run.error"] = error
    for k, v in (extra or {}).items():
        lines[f"result.{k}"] = walkdist._csv_cell(v)
    with open(path, "w") as fh:
        for k in sorted(lines):
            fh.write(f"{k} = {lines[k]}\n")


_STAT_HEADER = ("n", "statistic", "value", "target", "deviation")


def _run_ratio(c, p, kw):
    rep = walkdist.ratio_sequence(c.system, c.cocycle, p["g"], p["n_grid"], c.mode,
                                  stride=p.get("stride", 1), **kw)
    return (1 if rep.periodic and not rep.ratios else 0), rep.rows(), _STAT_HEADER, {
        "worst_deviation": rep.worst(), "periodic": rep.periodic, "note": rep.note,
        "zero_ns": tuple(rep.zero_ns)}


def _run_cross_ratio(c, p, kw):
    rep = walkdist.cross_ratio(c.system, c.cocycle, p["g"], p["n"], c.mode, **kw)
    return 0, rep.rows(), _STAT_HEADER, {
        "value": rep.value, "clt_reference": rep.clt_reference}


def _run_stone(c, p, kw):
    rep = walkdist.stone_ratio(c.system, c.cocycle, p["e"], p["a_box"], p["n"], c.mode,
                               **kw)
    return 0, rep.rows(), _STAT_HEADER, {
        "ratio": rep.ratio, "target": rep.target, "boundary_atoms": rep.boundary_atoms}


def _run_window(c, p, kw):
    rep = walkdist.window_mass(c.system, c.cocycle, p["e"], p["n"], g_shift=p.get("g"),
                               mode=c.mode, **kw)
    return 0, rep.rows(), _STAT_HEADER[:4] + ("flagged",), {
        "mass": rep.value, "boundary_atoms": rep.boundary_atoms}


def _run_conditions(c, p, kw):
    args, variant = (c.system, c.cocycle), p["variant"]
    if variant == "D":
        rep = walkdist.check_condition_D(*args, p["g"], p["n0"], p["n1"], p["n"], c.mode,
                                         **kw)
    elif variant == "C":
        rep = walkdist.check_condition_C(*args, p["e"], p["g"], p["n0"], p["n1"], p["n"],
                                         c.mode, **kw)
    else:
        rep = walkdist.check_condition_CM(*args, p["cylinder"], p["f_box"], p["a_box"],
                                          p["e"], p["g"], p["n"], c.mode, **kw)
    code = 1 if (variant == "CM" and rep.note != "holds") else 0
    return code, rep.rows(), ("n_prime",) + _STAT_HEADER[1:], {
        "worst_deviation": rep.worst_deviation, "best_nprime": rep.best_nprime,
        "note": rep.note}


def _run_spectral_scan(c, p, kw):
    rep, rows = spectral.spectral_scan(c.system, c.cocycle, p["resolution"], p["epsilon"])
    header = tuple(f"theta_{i}" for i in range(len(rep.argmax_theta)))
    extra = {"max_modulus": rep.max_modulus, "passed": rep.passed,
             "argmax_theta": rep.argmax_theta, "algebraic_full": rep.algebraic_full}
    if not rep.passed:
        extra["note"] = "aperiodicity fails: unit-modulus eigenvalue off the zero ball"
    return (0 if rep.passed else 1), rows, header + ("re_lambda", "im_lambda", "gap"), extra


def _run_fourier_invert(c, p, kw):
    rep = spectral.fourier_invert(c.system, c.cocycle, p["g"], p["n"], p["grid"],
                                  compare=True)
    code = 0 if (rep.deviation is not None and rep.deviation <= 1e-10) else 1
    return code, rep.rows(), _STAT_HEADER, {
        "value": rep.value, "deviation": rep.deviation, "aliasing_risk": rep.aliasing_risk}


def _run_local_limit(c, p, kw):
    rep = spectral.local_limit_check(c.system, c.cocycle, p["n_grid"], g=p.get("g"),
                                     E=p.get("e"), eta=p["eta"])
    return 0, rep.rows(), _STAT_HEADER, {"final_deviation": rep.deviations[-1]}


def _run_mixing(c, p, kw):
    rep = walkdist.finite_group_mixing(c.system, c.cocycle, p["n_max"], c.mode)
    tail = walkdist.return_time_tail(c.system, c.cocycle, p["n_max"], c.mode)
    return (1 if rep.periodic else 0), rep.rows() + tail.rows(), _STAT_HEADER, {
        "rate": rep.rate, "tail_r_squared": tail.r_squared, "note": rep.note}


def _run_pressure(c, p, kw):
    rep = pressure.pressure_estimate(p["variant"], c.system, c.cocycle, p["base"],
                                     p["n_max"], c.mode, **kw)
    extra = {f"estimate_{k}": v for k, v in rep.estimates.items()}
    extra["transitive"] = rep.transitive
    return (0 if rep.transitive else 1), rep.rows(), \
        ("n", "estimator", "log_over_n", "fekete_lower"), extra


def _run_kesten(c, p, kw):
    law = pressure.one_step_law(c.system, c.cocycle, mode="float")
    rep = pressure.kesten_identity_check(law, p["k_max"], p.get("stride"), "float", **kw)
    header = ("k", "conv_return", "kth_root", "stride_ratio")
    extra = {"estimate": rep.convolution.estimate, "abelianized_minimum": rep.minimizer.phi,
             "difference": rep.difference, "bracket_width": rep.bracket_width,
             "minimizer_x": tuple(rep.minimizer.x), "grad_norm": rep.minimizer.grad_norm}
    if rep.convolution.note:
        extra["note"] = rep.convolution.note
    return (0 if rep.consistent else 1), rep.convolution.rows(), header, extra


def _run_fekete(c, p, kw):
    seq = walkdist.return_sequence(c.system, c.cocycle, p["n_max"], c.mode, **kw)
    ns, rates, br, _ = pressure._fekete_rates(seq[1:], c.system.log_superadditivity_constant)
    extra = {"lower": br.lower, "estimate": br.estimate, "holds": br.holds,
             "violations": len(br.violations)}
    if br.note:
        extra["note"] = br.note
    return (0 if br.holds else 1), [(n, r, br.lower) for n, r in zip(ns, rates)], \
        ("n", "log_mass_over_n", "fekete_lower"), extra


def _run_oracle_compare(c, p, kw):
    rows = []
    worst = 0.0
    # one enumeration gives the laws of every depth 1..n_max
    refs = oracle.oracle_distributions_upto(c.system, c.cocycle, p["n_max"]) \
        if p["n_max"] >= 1 else []
    # and one rational engine pass the fast laws
    eng = walkdist._make_engine(walkdist.walk_recursion(c.system, c.cocycle, "rational"),
                                p["n_max"])
    for n, ref in enumerate(refs, 1):
        eng.step_once()
        fast = eng.to_table()
        keys = set(ref.data) | set(fast.data)
        dev = max(abs(float(ref.data.get(k, 0)) - float(fast.data.get(k, 0))) for k in keys)
        worst = max(worst, dev)
        rows.append((n, "distribution_max_abs_diff", dev, 0.0,
                     0 if ref.data == fast.data else 1))
    return (0 if worst == 0.0 else 1), rows, _STAT_HEADER[:4] + ("mismatch",), {
        "worst_deviation": worst}


@dataclass(frozen=True)
class Experiment:
    """An experiment kind: its runner and the [experiment] keys it takes.

    ``run(config, params, kw)`` returns (exit code, CSV rows, CSV header,
    manifest results); ``kw`` holds ``max_cells`` when the config sets it.
    ``needs`` are required keys ("g|e": either one), ``reads`` optional ones;
    a key outside both (and outside the defaults and caps) is a config error.
    ``variants`` maps each ``variant`` (upper case; the first is the default)
    to the keys it needs on top.  ``caps`` bounds integer keys.
    """

    run: Callable
    needs: tuple = ()
    reads: tuple = ()
    defaults: dict = field(default_factory=dict)
    variants: dict = field(default_factory=dict)
    caps: dict = field(default_factory=dict)


# the dense-cell guard, read by the kinds whose runners pass it on
_GUARD = ("max_cells",)

EXPERIMENTS = {
    "ratio": Experiment(_run_ratio, needs=("g", "n_grid"), reads=("stride",) + _GUARD),
    "cross-ratio": Experiment(_run_cross_ratio, needs=("g", "n"), reads=_GUARD),
    "stone": Experiment(_run_stone, needs=("e", "a_box", "n"), reads=_GUARD),
    "window": Experiment(_run_window, needs=("e", "n"), reads=("g",) + _GUARD),
    "conditions": Experiment(_run_conditions, needs=("g", "n"), reads=("variant",) + _GUARD,
                             variants={"D": ("n0", "n1"), "C": ("n0", "n1", "e"),
                                       "CM": ("cylinder", "f_box", "a_box", "e")}),
    "spectral-scan": Experiment(_run_spectral_scan,
                                defaults={"resolution": 64, "epsilon": 0.1}),
    "fourier-invert": Experiment(_run_fourier_invert, needs=("g", "n", "grid")),
    "local-limit": Experiment(_run_local_limit, needs=("n_grid", "g|e"),
                              defaults={"eta": 0.5}),
    "mixing": Experiment(_run_mixing, needs=("n_max",)),
    "pressure": Experiment(_run_pressure, needs=("n_max",), reads=_GUARD,
                           defaults={"variant": "extension", "base": 0}),
    "kesten": Experiment(_run_kesten, reads=("stride",) + _GUARD, defaults={"k_max": 30}),
    "fekete": Experiment(_run_fekete, needs=("n_max",), reads=_GUARD),
    # the oracle enumerates m^n words at depth n
    "oracle-compare": Experiment(_run_oracle_compare, defaults={"n_max": 8},
                                 caps={"n_max": 10}),
}
KINDS = tuple(EXPERIMENTS)


_KNOWN_KEYS = {
    "system": {"alphabet", "order", "weights", "mode"},
    "cocycle": {"group", "values", "involution", "basis"},
    "experiment": {"kind"}.union(*(
        _keys(e.needs + e.reads + sum(e.variants.values(), ())) | set(e.defaults) | set(e.caps)
        for e in EXPERIMENTS.values())),
    "output": {"dir"},
}


def _dispatch(config: ExperimentConfig):
    p = dict(config.params)
    kw = {"max_cells": p.pop("max_cells")} if "max_cells" in p else {}
    return EXPERIMENTS[config.kind].run(config, p, kw)


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="gmwalk",
        description="Deterministic walk experiments on group extensions",
    )
    sub = parser.add_subparsers(dest="kind", required=True)
    for kind in EXPERIMENTS:
        sp = sub.add_parser(kind)
        sp.add_argument("--config", required=True)
        sp.add_argument("--out", default=None)
        sp.add_argument("--mode", choices=("rational", "float"), default=None)
    args = parser.parse_args(argv)
    try:
        text = Path(args.config).read_text()
    except OSError as exc:
        print(f"error: cannot read config: {exc}", file=sys.stderr)
        return 2
    try:
        config = parse_config(text, kind_override=args.kind)
    except ValidationError as exc:
        for e in exc.errors:
            print(f"config error: {e}", file=sys.stderr)
        return 2
    if args.mode:
        config.mode = args.mode
        config.echo["system.mode"] = args.mode
    code, artifacts = run(config, out_dir=args.out)
    for a in artifacts:
        print(a)
    return code


if __name__ == "__main__":
    sys.exit(main())
