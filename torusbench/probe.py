"""Set-up probe: one fresh interpreter builds one workload's inputs.

    python3 torusbench/probe.py WORKLOAD SEED T_LAUNCH

T_LAUNCH is the launcher's time.perf_counter() just before it started this
interpreter. On Linux that clock is CLOCK_MONOTONIC, shared by every
process, so the number printed is the time from launch until the inputs
are ready: interpreter start, imports, config validation, sample sets and
states. run.py reports the median over several launches as setup_s.
"""

import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import workloads  # noqa: E402

name, seed, t_launch = sys.argv[1], int(sys.argv[2]), float(sys.argv[3])
workload = workloads.WORKLOADS[name](Path(__file__).resolve().parent / "out")
workload.setup(seed)
print(time.perf_counter() - t_launch)
