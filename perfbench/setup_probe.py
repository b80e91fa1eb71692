"""Set-up cost in a fresh process: import qpv, build a workload's configs, one warm-up call.

    python3 perfbench/setup_probe.py <workload> <seed>

Prints the elapsed seconds; interpreter start-up is not included.
"""

import time

START = time.perf_counter()

import sys  # noqa: E402
from pathlib import Path  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import workloads  # noqa: E402

workloads.WORKLOADS[sys.argv[1]].warm_up(int(sys.argv[2]))
print(time.perf_counter() - START)
