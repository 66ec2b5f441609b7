"""Self-test of the benchmark's checkers.

    python3 gmbench/selftest.py [--seed N] [--workload NAME ...]

Runs every operation of every workload once.  Each checker must accept the
real output (the known fault aside) and must reject a perturbed copy: every
nonzero float scaled by 1 + 1e-9, every zero float set to 1e-300 and every
Fraction moved by 1e-30.  Exits 1 if any checker fails either way.
"""

import argparse
import copy
import dataclasses
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import workloads  # noqa: E402
from gmwalk.walkdist import MassTable  # noqa: E402

SCALE = 1 + 1e-9


def perturb(obj):
    if isinstance(obj, (bool, int, str, bytes)) or obj is None:
        return obj
    if isinstance(obj, Fraction):
        return obj + Fraction(1, 10 ** 30)
    if isinstance(obj, (float, complex)):
        return obj * SCALE if obj else 1e-300
    if isinstance(obj, np.ndarray) and obj.dtype.kind in "fc":
        return np.where(obj != 0, obj * SCALE, 1e-300)
    if isinstance(obj, (list, tuple)):
        return type(obj)(perturb(x) for x in obj)
    if isinstance(obj, dict):
        return {k: perturb(v) for k, v in obj.items()}
    if dataclasses.is_dataclass(obj):
        return dataclasses.replace(obj, **{f.name: perturb(getattr(obj, f.name))
                                           for f in dataclasses.fields(obj) if f.init})
    if isinstance(obj, MassTable):
        out = copy.copy(obj)
        out.data = perturb(obj.data)
        return out
    return obj


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--workload", nargs="*", default=list(workloads.WORKLOADS))
    args = p.parse_args(argv)
    bad = 0
    for name in args.workload:
        ops = workloads.WORKLOADS[name](args.seed, HERE / "out" / "selftest")
        for op in ops:
            raw = op.call()
            data = op.collect(raw) if op.collect else raw
            try:
                op.check(data)
                accepted = "accepts"
            except workloads.Mismatch as exc:
                accepted = "known fault" if op.known_fault else f"REJECTS REAL OUTPUT ({exc})"
            try:
                op.check(perturb(data))
                rejected = "ACCEPTS PERTURBED"
            except workloads.Mismatch:
                rejected = "rejects perturbed"
            ok = accepted in ("accepts", "known fault") and rejected == "rejects perturbed"
            bad += not ok
            print(f"{'ok ' if ok else 'BAD'} {name:16s} {op.name:48s} {accepted}; {rejected}")
    print(f"{bad} checker(s) failed")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
