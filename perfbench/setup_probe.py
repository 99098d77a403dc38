"""Set-up time of one workload in a fresh process: import addcomb and
materialise the workload's inputs.  Prints the seconds taken.

    python3 perfbench/setup_probe.py WORKLOAD SEED TINY(0|1)
"""

import sys
import time

t0 = time.perf_counter()

from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import addcomb  # noqa: E402,F401
import workloads  # noqa: E402

workloads.build(sys.argv[1], int(sys.argv[2]), sys.argv[3] == "1", str(HERE / "out"))
print(time.perf_counter() - t0)
