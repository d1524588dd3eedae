"""Time one set-up of a workload in a fresh interpreter and print the seconds.

Set-up is ``import qfluid`` plus building the workload's inputs.  run.py
starts this several times and reports the median as ``setup_s``:

    python3 bench/probe_setup.py <workload> <seed> <workdir>
"""

import time

start = time.perf_counter()

import sys  # noqa: E402
from pathlib import Path  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import qfluid  # noqa: E402,F401
import workloads  # noqa: E402

workload = workloads.build(sys.argv[1], int(sys.argv[2]), sys.argv[3])
workload.prepare()
print(repr(time.perf_counter() - start))
