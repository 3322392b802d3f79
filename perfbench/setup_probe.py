"""One set-up sample: package import plus input generation, timed in a fresh
interpreter that has imported nothing else yet.

Usage: python3 perfbench/setup_probe.py <workload> <seed> [tiny]
Prints the set-up time in seconds.
"""

import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent

start = time.perf_counter()
sys.path.insert(0, str(HERE.parent / "src"))
import pretzelsurgery  # noqa: E402,F401  (the import is what is timed)

sys.path.insert(0, str(HERE))
import workloads  # noqa: E402

workloads.build(sys.argv[1], int(sys.argv[2]), tiny=len(sys.argv) > 3)
print(repr(time.perf_counter() - start))
