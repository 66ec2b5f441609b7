"""Traced run: wrap gmwalk's public callables from outside and time each layer.

The wrappers are installed by patching module attributes and class methods
of the imported package; the package's own files are not touched.  Each
wrapped call records a span (name, start, end, parent) in memory while the
tracer is active; spans are written out when the run ends.  A layer's self
time is its spans' durations minus their child spans.  Bookkeeping done by
the tracer (counting cells, hashing characters) is itself recorded as a
``trace`` span, so it is excluded from every layer's self time.

A callable that no longer exists under its name is skipped, and the metrics
it feeds read 0.
"""

from __future__ import annotations

import functools
import gzip
import math
import re
import subprocess
import sys
from collections import Counter
from time import perf_counter

import numpy as np

KERNELS = ("lattice_step", "conv_step", "heis_step", "heis_conv_step")
DENSE_ENGINES = (("walkdist", "_DenseLatticeEngine"), ("walkdist", "_DenseHeisEngine"),
                 ("convolve", "LatticeConvEngine"), ("convolve", "HeisConvEngine"))
SPARSE_ENGINES = (("walkdist", "_SparseEngine"), ("convolve", "SparseConvEngine"))
FACTORIES = (("walkdist", "_make_engine"), ("convolve", "make_conv_engine"))
ORACLE_WORDS = {                       # leaf words enumerated, from (system, cocycle, [a,] n)
    "oracle_distributions_upto": lambda a: a[0].m ** a[2],
    "oracle_distribution_reversed": lambda a: a[0].m ** a[2],
    "oracle_periodic_sums": lambda a: a[0].m ** (a[3] - 1),
    "oracle_walk_measure": lambda a: a[0].m ** (a[3] - 1),
}
ORACLE_FUNCS = ("oracle_distribution",) + tuple(ORACLE_WORDS)
STATS = {
    "walkdist": ("distribution", "mass_trajectory", "return_sequence", "ratio_sequence",
                 "cross_ratio", "stone_ratio", "window_pair_ratios", "check_condition_D",
                 "check_condition_C", "superadditivity_check", "finite_group_mixing",
                 "return_time_tail"),
    "pressure": ("grouped_periodic_sum", "grouped_return_sequence", "walk_measure",
                 "spectral_radius_convolution", "minimize_phi", "pressure_estimate",
                 "kesten_identity_check"),
    "spectral": ("aperiodicity_scan", "eigenvalue_grid", "symmetry_reality_check",
                 "fourier_invert", "u_n_integral"),
}


def metric_names():
    """Every per-layer metric the traced run reports, in a fixed order."""
    names = ["kernels.calls", "kernels.cells", "kernels.bytes_computed", "kernels.self_s",
             "kernels.cells_per_s", "kernels.active_share",
             "engines.steps", "engines.box_cells_max", "engines.build_s", "engines.self_s",
             "sparse.atoms_max", "sparse.multiply_calls", "sparse.self_s",
             "oracle.words", "oracle.s"]
    for funcs in STATS.values():
        for f in funcs:
            names += [f"stats.{f}.calls", f"stats.{f}_s"]
    names += ["stats.self_s", "pressure.minimize_phi.iterations",
              "spectral.theta_points", "spectral.unique_theta_share", "spectral.eig_s",
              "spectral.points_per_s",
              "cli.parse_s", "cli.run_s", "cli.self_s", "cli.csv_bytes",
              "setup.import_gmwalk_s", "setup.import_numpy_s", "setup.import_scipy_s",
              "trace.wall_s", "trace.overhead_s"]
    return names


class Tracer:
    def __init__(self):
        self.active = False
        self.spans = []            # [name, start, end, parent index]
        self.stack = []
        self.counts = Counter()
        self.maxima = Counter()
        self.thetas = set()        # characters evaluated by the current operation
        self._patches = []

    # ---------------------------------------------------------------- spans

    def _book(self, hook, *args):
        t0 = perf_counter()
        hook(*args)
        self.spans.append(["trace", t0, perf_counter(), self.stack[-1] if self.stack else -1])

    def span(self, name, fn, before=None, after=None):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            if before is not None:
                tracer._book(before, args)
            rec = [name, 0.0, 0.0, tracer.stack[-1] if tracer.stack else -1]
            tracer.stack.append(len(tracer.spans))
            tracer.spans.append(rec)
            rec[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = perf_counter()
                tracer.stack.pop()
            if after is not None:
                tracer._book(after, args, result)
            return result
        return wrapper

    def counter(self, name, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tracer.active:
                tracer.counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    def end_op(self):
        """Close one top-level operation: fold its distinct characters in."""
        self.counts["spectral.unique_thetas"] += len(self.thetas)
        self.thetas.clear()

    # -------------------------------------------------------------- patching

    def _patch_function(self, modules, owner, attr, make):
        fn = getattr(modules.get(owner), attr, None)
        if fn is None:
            return
        wrapper = make(fn)
        # rebind every name the package gave this function, so calls made
        # inside gmwalk (``from .walkdist import ...``) are seen too
        for mod in modules.values():
            for name, value in list(vars(mod).items()):
                if value is fn:
                    self._patches.append((mod, name, value))
                    setattr(mod, name, wrapper)

    def _patch_method(self, cls, attr, make):
        fn = cls.__dict__.get(attr) if cls is not None else None
        if fn is None:
            return
        self._patches.append((cls, attr, fn))
        setattr(cls, attr, make(fn))

    def install(self):
        mods = {name.rpartition(".")[2]: mod for name, mod in list(sys.modules.items())
                if name.startswith("gmwalk.")}
        counts, maxima = self.counts, self.maxima

        def kernel_before(args):
            src = args[0]
            counts["kernels.calls"] += 1
            counts["kernels.cells"] += src.size
            counts["kernels.active"] += int(np.count_nonzero(src))
            counts["kernels.bytes"] += 8 * src.size * (1 + 2 * len(args[3]))

        for k in KERNELS:
            self._patch_function(mods, "_kernels", k,
                                 lambda fn, k=k: self.span(f"kernels.{k}", fn, kernel_before))
        for owner, attr in FACTORIES:
            self._patch_function(mods, owner, attr,
                                 lambda fn: self.span("engines.build", fn))

        def dense_built(args, _):
            eng = args[0]
            table = getattr(eng, "W", getattr(eng, "w", None))
            if table is not None:
                maxima["engines.box_cells_max"] = max(maxima["engines.box_cells_max"], table.size)

        def sparse_stepped(args, _):
            eng = args[0]
            atoms = len(getattr(eng, "data", getattr(eng, "dist", ())))
            maxima["sparse.atoms_max"] = max(maxima["sparse.atoms_max"], atoms)

        for owner, cls_name in DENSE_ENGINES:
            cls = getattr(mods.get(owner), cls_name, None)
            self._patch_method(cls, "__init__",
                               lambda fn: self.span("engines.build", fn, after=dense_built))
            self._patch_method(cls, "step_once", lambda fn: self.span("engines.step", fn))
        for owner, cls_name in SPARSE_ENGINES:
            cls = getattr(mods.get(owner), cls_name, None)
            self._patch_method(cls, "__init__", lambda fn: self.span("engines.build", fn))
            self._patch_method(cls, "step_once",
                               lambda fn: self.span("sparse.step", fn, after=sparse_stepped))
        groups = mods.get("groups")
        base = getattr(groups, "GroupSpec", None)
        for cls in list(vars(groups).values()) if groups is not None else ():
            if isinstance(cls, type) and base is not None and issubclass(cls, base):
                self._patch_method(cls, "multiply",
                                   lambda fn: self.counter("sparse.multiply_calls", fn))

        def count_words(words):
            def before(args):
                counts["oracle.words"] += words(args)
            return before

        # oracle_distribution delegates to oracle_distributions_upto, which counts
        for f in ORACLE_FUNCS:
            before = count_words(ORACLE_WORDS[f]) if f in ORACLE_WORDS else None
            self._patch_function(mods, "oracle", f,
                                 lambda fn, f=f, b=before: self.span(f"oracle.{f}", fn, b))

        def phi_done(_, result):
            counts["pressure.minimize_phi.iterations"] += result.iterations

        for owner, funcs in STATS.items():
            for f in funcs:
                after = phi_done if f == "minimize_phi" else None
                self._patch_function(mods, owner, f,
                                     lambda fn, f=f, a=after: self.span(f"stats.{f}", fn, after=a))

        def theta_seen(args):
            counts["spectral.theta_points"] += 1
            theta = np.atleast_1d(np.asarray(args[2], dtype=float)) % (2 * math.pi)
            self.thetas.add((id(args[0]), id(args[1]), tuple(np.round(theta, 12))))

        self._patch_function(mods, "spectral", "eigenvalue_at",
                             lambda fn: self.span("spectral.eigenvalue_at", fn, theta_seen))
        self._patch_function(mods, "spectral", "leading_eigenvalue",
                             lambda fn: self.span("spectral.leading_eigenvalue", fn))

        def csv_written(_, result):
            counts["cli.csv_bytes"] += sum(p.stat().st_size for p in result[1]
                                           if p.suffix == ".csv")

        self._patch_function(mods, "cli", "parse_config",
                             lambda fn: self.span("cli.parse_config", fn))
        self._patch_function(mods, "cli", "run", lambda fn: self.span("cli.run", fn, after=csv_written))

    def uninstall(self):
        for owner, attr, value in reversed(self._patches):
            setattr(owner, attr, value)
        self._patches.clear()

    # --------------------------------------------------------------- metrics

    def layer_metrics(self, rounds):
        """Per-round layer metrics from the spans and counts of ``rounds`` traced rounds."""
        spans = self.spans
        child = [0.0] * len(spans)
        for name, start, end, parent in spans:
            if parent >= 0:
                child[parent] += end - start
        self_by, dur_by, calls_by = Counter(), Counter(), Counter()
        outer_build = outer_oracle = 0.0
        for i, (name, start, end, parent) in enumerate(spans):
            dur = end - start
            self_by[name.partition(".")[0]] += dur - child[i]
            dur_by[name] += dur
            calls_by[name] += 1
            pname = spans[parent][0] if parent >= 0 else ""
            if name == "engines.build" and pname != "engines.build":
                outer_build += dur
            if name.startswith("oracle.") and not pname.startswith("oracle."):
                outer_oracle += dur
        c = self.counts
        per = 1.0 / max(rounds, 1)
        m = {
            "kernels.calls": c["kernels.calls"] * per,
            "kernels.cells": c["kernels.cells"] * per,
            "kernels.bytes_computed": c["kernels.bytes"] * per,
            "kernels.self_s": self_by["kernels"] * per,
            "kernels.cells_per_s": c["kernels.cells"] / self_by["kernels"] if self_by["kernels"] else 0.0,
            "kernels.active_share": c["kernels.active"] / c["kernels.cells"] if c["kernels.cells"] else 0.0,
            "engines.steps": (calls_by["engines.step"] + calls_by["sparse.step"]) * per,
            "engines.box_cells_max": self.maxima["engines.box_cells_max"],
            "engines.build_s": outer_build * per,
            "engines.self_s": self_by["engines"] * per,
            "sparse.atoms_max": self.maxima["sparse.atoms_max"],
            "sparse.multiply_calls": c["sparse.multiply_calls"] * per,
            "sparse.self_s": self_by["sparse"] * per,
            "oracle.words": c["oracle.words"] * per,
            "oracle.s": outer_oracle * per,
            "stats.self_s": self_by["stats"] * per,
            "pressure.minimize_phi.iterations": c["pressure.minimize_phi.iterations"] * per,
            "spectral.theta_points": c["spectral.theta_points"] * per,
            "spectral.unique_theta_share": (c["spectral.unique_thetas"] / c["spectral.theta_points"]
                                            if c["spectral.theta_points"] else 0.0),
            "spectral.eig_s": dur_by["spectral.eigenvalue_at"] * per,
            "spectral.points_per_s": (c["spectral.theta_points"] / dur_by["spectral.eigenvalue_at"]
                                      if dur_by["spectral.eigenvalue_at"] else 0.0),
            "cli.run_s": dur_by["cli.run"] * per,
            "cli.self_s": self_by["cli"] * per,
            "cli.csv_bytes": c["cli.csv_bytes"] * per,
        }
        for funcs in STATS.values():
            for f in funcs:
                m[f"stats.{f}.calls"] = calls_by[f"stats.{f}"] * per
                m[f"stats.{f}_s"] = dur_by[f"stats.{f}"] * per
        return m

    def write_spans(self, path):
        with gzip.open(path, "wt") as fh:
            fh.write("name,start,end,parent\n")
            for name, start, end, parent in self.spans:
                fh.write(f"{name},{start!r},{end!r},{parent}\n")


def import_times(python, src, env):
    """Cumulative import times of gmwalk, numpy and scipy in a fresh interpreter.

    Parses ``python -X importtime``: a package's time is the sum of the
    cumulative times of its outermost modules (those not imported from
    inside the same package).
    """
    proc = subprocess.run([python, "-X", "importtime", "-c", "import gmwalk.cli, gmwalk.presets"],
                          capture_output=True, text=True, timeout=120,
                          env=dict(env, PYTHONPATH=str(src)), check=True)
    line_re = re.compile(r"import time:\s+(\d+) \|\s+(\d+) \| (\s*)(\S+)")
    stack, parent = [], {}
    entries = []
    for line in proc.stderr.splitlines():
        m = line_re.match(line)
        if not m:
            continue
        level, name, cum = len(m.group(3)) // 2, m.group(4), int(m.group(2)) * 1e-6
        idx = len(entries)
        entries.append((name, cum))
        # lines come children first: pending deeper lines belong to this one
        while stack and stack[-1][0] > level:
            parent[stack.pop()[1]] = idx
        stack.append((level, idx))

    def package_time(root):
        total = 0.0
        for i, (name, cum) in enumerate(entries):
            if name.split(".")[0] != root:
                continue
            p = parent.get(i)
            while p is not None and entries[p][0].split(".")[0] != root:
                p = parent.get(p)
            if p is None:
                total += cum
        return total

    return {"setup.import_gmwalk_s": package_time("gmwalk"),
            "setup.import_numpy_s": package_time("numpy"),
            "setup.import_scipy_s": package_time("scipy")}
