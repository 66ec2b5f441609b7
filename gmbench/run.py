"""gmwalk benchmark: one workload, one process, one caller in a closed loop.

    python3 gmbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a gmwalk checkout.  The workload's operations are built
from the seed and run in whole rounds, back to back, until ``--seconds`` have
passed and at least MIN_OPS operations have run.  Every output is checked
outside the timed region.  The last line of standard output is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``: the
end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1``.  See gmbench/README.md.
"""

import os

# Fixed before numpy is imported here or in any child interpreter.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
WORKLOAD_NAMES = ("heis_returns", "lattice_walks", "character_grids", "sparse_exact")
MIN_OPS = 100            # op_tail_s is the 90th percentile: ten samples beyond it
TAIL_DECILE = 9          # statistics.quantiles(..., n=10)[TAIL_DECILE - 1]
SETUP_PROBES = 5         # fresh interpreters per run; setup_s is their median
PROBE_TIMEOUT_S = 120


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def probe_setup(workload, seed):
    """Median time from a fresh interpreter to a built workload.

    One untimed probe first warms the file cache (and writes bytecode); the
    probes run one after another, so all load comes from one process.
    """
    cmd = [sys.executable, str(HERE / "probe.py"), workload, str(seed)]

    def once():
        t0 = time.monotonic()
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=PROBE_TIMEOUT_S,
                              cwd=ROOT, env=os.environ)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed:\n{proc.stderr}")
        return float(proc.stdout.split()[-1]) - t0

    once()
    samples = [once() for _ in range(SETUP_PROBES)]
    return statistics.median(samples), samples


def verify(op, raw, error, mismatch):
    """None if the operation's output passes its check, else a message."""
    if error is not None:
        return f"raised {type(error).__name__}: {error}"
    try:
        op.check(op.collect(raw) if op.collect else raw)
    except mismatch as exc:
        return str(exc)
    except Exception as exc:  # a checker that breaks reports, never stops the run
        return f"check raised {type(exc).__name__}: {exc}"
    return None


def run_rounds(ops, seconds, min_rounds, mismatch, tracer=None):
    """Whole rounds of the operation list; with a tracer, odd rounds are traced."""
    rounds, traced_rounds, failures = [], [], {}
    start = time.perf_counter()
    while (time.perf_counter() - start < seconds
           or len(rounds) + len(traced_rounds) < min_rounds):
        traced = tracer is not None and len(traced_rounds) < len(rounds)
        times = []
        # the benchmark's own objects (workload, cached references, spans)
        # stay out of the collector's scans during the operations
        gc.collect()
        gc.freeze()
        for op in ops:
            if traced:
                tracer.active = True
            t0 = time.perf_counter()
            try:
                raw, error = op.call(), None
            except Exception as exc:  # the failure is counted, the loop goes on
                raw, error = None, exc
            times.append(time.perf_counter() - t0)
            if traced:
                tracer.active = False
                tracer.end_op()
            msg = verify(op, raw, error, mismatch)
            if msg is not None:
                failures.setdefault(op.name, [op.known_fault, 0, msg])[1] += 1
        (traced_rounds if traced else rounds).append(times)
    return rounds, traced_rounds, failures


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "gmwalk" / "__init__.py").is_file() or not (ROOT / "configs").is_dir():
        print(f"error: {ROOT} is not a gmwalk checkout (src/gmwalk or configs/ missing)",
              file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    setup_s, setup_samples = (None, [])
    if not args.trace:
        setup_s, setup_samples = probe_setup(args.workload, args.seed)

    sys.path[:0] = [str(HERE), str(SRC)]
    import workloads
    from gmwalk import _kernels

    tracer = None
    if args.trace:
        import tracing
        tracer = tracing.Tracer()
        tracer.install()
        tracer.active = True
    ops = workloads.WORKLOADS[args.workload](args.seed, OUT / "cli")
    parse_s = 0.0
    if tracer is not None:
        tracer.active = False
        parse_s = sum(s[2] - s[1] for s in tracer.spans if s[0] == "cli.parse_config")
        tracer.spans.clear()
        tracer.counts.clear()

    min_rounds = 2 if args.trace else -(-MIN_OPS // len(ops))
    rounds, traced_rounds, failures = run_rounds(ops, args.seconds, min_rounds,
                                                 workloads.Mismatch, tracer)
    attempted = len(ops) * (len(rounds) + len(traced_rounds))
    failed = sum(f[1] for f in failures.values())
    correct = not any(not known for known, _, _ in failures.values())
    wall = statistics.median(sum(r) for r in rounds)

    if tracer is None:
        op_times = [t for r in rounds for t in r]
        metrics = {
            "wall_s": (wall, "s"),
            "op_p50_s": (statistics.median(op_times), "s"),
            "op_tail_s": (statistics.quantiles(op_times, n=10)[TAIL_DECILE - 1], "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
            "setup_s": (setup_s, "s"),
        }
    else:
        tracer.uninstall()
        traced_wall = statistics.median(sum(r) for r in traced_rounds)
        layer = tracer.layer_metrics(len(traced_rounds))
        layer.update(tracing.import_times(sys.executable, SRC, os.environ))
        layer["cli.parse_s"] = parse_s
        layer["trace.wall_s"] = traced_wall
        layer["trace.overhead_s"] = traced_wall - wall
        metrics = {name: (layer.get(name, 0.0), _unit(name)) for name in tracing.metric_names()}
        tracer.write_spans(OUT / f"spans-{args.workload}-seed{args.seed}.csv.gz")

    per_op = {op.name: statistics.median(r[i] for r in rounds) for i, op in enumerate(ops)}
    details = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "rounds": len(rounds), "traced_rounds": len(traced_rounds),
        "ops_per_round": len(ops), "attempted": attempted, "failed": failed,
        "round_s": [sum(r) for r in rounds], "traced_round_s": [sum(r) for r in traced_rounds],
        "failures": {k: {"known_fault": v[0], "count": v[1], "message": v[2]}
                     for k, v in failures.items()},
        "blas_threads": int(BLAS_THREADS), "nproc": os.cpu_count(),
        "kernel_backend": _kernels.BACKEND, "setup_samples_s": setup_samples,
        "op_median_s": per_op, "metrics": {k: v[0] for k, v in metrics.items()},
    }
    (OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(details, indent=1))
    print(f"# {args.workload} seed={args.seed} rounds={len(rounds)}+{len(traced_rounds)} traced "
          f"ops/round={len(ops)} blas_threads={BLAS_THREADS} nproc={os.cpu_count()} "
          f"backend={_kernels.BACKEND}")
    for name, (known, count, msg) in failures.items():
        print(f"# {'known fault' if known else 'FAILED'}: {name} x{count}: {msg}")
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


def _unit(name):
    if name.endswith("_per_s"):
        return "1/s"
    if name.endswith("_s") or name == "oracle.s":
        return "s"
    if name.endswith("_share"):
        return "ratio"
    if "bytes" in name:
        return "bytes"
    return "count"


if __name__ == "__main__":
    sys.exit(main())
