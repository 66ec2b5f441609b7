"""Set-up probe: import gmwalk, build one workload, print the monotonic clock.

Run by ``run.py`` in a fresh interpreter; the parent reads the clock before
starting this process, so the difference is the time from a fresh
interpreter until the workload's first operation could start.

    python3 gmbench/probe.py <workload> <seed>
"""

import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

from workloads import WORKLOADS  # noqa: E402

WORKLOADS[sys.argv[1]](int(sys.argv[2]), HERE / "out" / "cli")
print(time.monotonic())
