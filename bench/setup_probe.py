"""Times one cold set-up of a workload: importing meshcoord plus input generation.

Usage: python3 bench/setup_probe.py <workload> <seed> <size> <workdir>
Prints the seconds as its only output line. run.py starts it several times
per run so that setup_s includes a fresh interpreter's imports each time.
"""

import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

if __name__ == "__main__":
    workload, seed, size, workdir = sys.argv[1], int(sys.argv[2]), sys.argv[3], Path(sys.argv[4])
    t0 = time.perf_counter()
    import workloads

    workloads.SETUP[workload](seed, size, workdir)
    print(repr(time.perf_counter() - t0))
