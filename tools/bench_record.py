"""Turn gmbench result files of a parent run and a change run into BENCH_<pr>.json.

    python3 tools/bench_record.py --pr 10 --title "..." [--claim sparse_exact:wall_s] \\
        --parent <parent checkout> --change <change checkout> \\
        [--parent-rev REV] [--change-rev REV] [--out BENCH_10.json]

Each checkout holds ``gmbench/out/result-<workload>-seed<n>-trace<t>.json``
files written by ``python3 gmbench/run.py``.  Untraced runs (trace 0) of the
same workload and seed in both checkouts form a pair; every workload with at
least one pair gets per-run values, medians and quartiles of each end-to-end
metric, the number of pairs in which the change is lower, the failed shares,
whether any unexpected failure occurred, and each operation's per-run
medians (``op_median_s``) on both sides.  Traced runs (trace 1) present
in both checkouts give per-run values of the layer metrics in ``TRACED``.  A
revision defaults to ``git rev-parse HEAD`` in its checkout.  Standard
library only.
"""

from __future__ import annotations

import argparse
import json
import platform
import statistics
import subprocess
import sys
from importlib import metadata
from pathlib import Path

END_TO_END = ("wall_s", "op_p50_s", "op_tail_s", "peak_rss_mb", "setup_s")
TRACED = ("sparse.self_s", "sparse.multiply_calls", "sparse.atoms_max", "kernels.cells",
          "engines.steps", "engines.box_cells_max", "stats.u_n_integral_s",
          "stats.eigenvalue_grid_s", "stats.aperiodicity_scan_s", "stats.ratio_sequence_s",
          "stats.cross_ratio_s", "stats.pressure_estimate_s", "stats.return_sequence_s",
          "stats.symmetry_reality_check_s")
COMMAND = "python3 gmbench/run.py --workload <w> --seed <s> --seconds <S> --trace <t>"


def load_results(root):
    """{(workload, seed, trace): result dict} of a checkout's gmbench/out."""
    out = {}
    for path in sorted((Path(root) / "gmbench" / "out").glob("result-*.json")):
        res = json.loads(path.read_text())
        out[res["workload"], res["seed"], res["trace"]] = res
    return out


def revision(root, given):
    if given:
        return given
    try:
        return subprocess.run(["git", "-C", str(root), "rev-parse", "HEAD"], check=True,
                              capture_output=True, text=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def summary(values):
    if len(values) > 1:
        q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    else:
        q1 = q3 = values[0]
    return {"median": round(statistics.median(values), 4), "q1": round(q1, 4),
            "q3": round(q3, 4)}


def correct(res):
    return not any(not f["known_fault"] for f in res["failures"].values())


def workload_record(pairs):
    """Per-metric comparison of (parent, change) result pairs of one workload."""
    rec = {"seeds": [p["seed"] for p, _ in pairs], "pairs": len(pairs)}
    for name in END_TO_END:
        par = [p["metrics"][name] for p, _ in pairs]
        chg = [c["metrics"][name] for _, c in pairs]
        rec[name] = {"parent": {"per_run": par, **summary(par)},
                     "change": {"per_run": chg, **summary(chg)},
                     "change_lower_in": f"{sum(c < p for p, c in zip(par, chg))}/{len(pairs)}"}
    sides = (("parent", [p for p, _ in pairs]), ("change", [c for _, c in pairs]))
    rec["failed_share"] = {side: sorted({r["failed"] / r["attempted"] for r in rs})
                           for side, rs in sides}
    rec["correct"] = all(correct(p) and correct(c) for p, c in pairs)
    ops = dict.fromkeys(op for pair in pairs for r in pair for op in r["op_median_s"])
    rec["op_median_s"] = {op: {side: [r["op_median_s"].get(op) for r in rs]
                               for side, rs in sides} for op in ops}
    return rec


def traced_record(pairs):
    return {"seeds": [p["seed"] for p, _ in pairs],
            "per_run": {side: {name: [r[i]["metrics"].get(name) for r in pairs]
                               for name in TRACED}
                        for i, side in enumerate(("parent", "change"))}}


def machine(results):
    res = next(iter(results.values()))
    try:
        numpy = f", numpy {metadata.version('numpy')}"
    except metadata.PackageNotFoundError:
        numpy = ""
    return (f"nproc = {res['nproc']}, Python {platform.python_version()}{numpy}, "
            f"BLAS threads {res['blas_threads']}")


def build(args):
    parent, change = load_results(args.parent), load_results(args.change)
    common = sorted(set(parent) & set(change))
    if not any(t == 0 for _, _, t in common):
        raise SystemExit("no untraced (workload, seed) present in both checkouts")
    claim = None                # a record of no regression claims no gain
    if args.claim:
        workload, metric = args.claim.split(":")
        claim = {"workload": workload, "metric": metric, "better": "lower"}
    record = {
        "pr": args.pr,
        "title": args.title,
        "claim": claim,
        "revisions": {"parent": revision(args.parent, args.parent_rev),
                      "change": revision(args.change, args.change_rev)},
        "backend": parent[common[0]]["kernel_backend"],
        "machine": machine(parent),
        "command": COMMAND,
        "workloads": {},
    }
    for w in dict.fromkeys(k[0] for k in common if k[2] == 0):
        pairs = [(parent[k], change[k]) for k in common if k[0] == w and k[2] == 0]
        record["workloads"][w] = workload_record(pairs)
    for w in dict.fromkeys(k[0] for k in common if k[2] == 1):
        pairs = [(parent[k], change[k]) for k in common if k[0] == w and k[2] == 1]
        record[f"traced_{w}"] = traced_record(pairs)
    return record


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--pr", type=int, required=True)
    ap.add_argument("--title", required=True)
    ap.add_argument("--claim", help="workload:metric, lower is better; none if left out")
    ap.add_argument("--parent", type=Path, required=True, help="checkout of the parent run")
    ap.add_argument("--change", type=Path, required=True, help="checkout of the change run")
    ap.add_argument("--parent-rev")
    ap.add_argument("--change-rev")
    ap.add_argument("--out", type=Path)
    args = ap.parse_args(argv)
    record = build(args)
    out = args.out or Path(f"BENCH_{args.pr}.json")
    out.write_text(json.dumps(record, indent=1) + "\n")
    print(f"wrote {out}: {', '.join(record['workloads'])}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
