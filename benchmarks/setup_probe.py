"""Time one workload's set-up in a fresh interpreter.

Usage: python3 benchmarks/setup_probe.py WORKLOAD DATA_DIR

Prints the seconds from the start of this script to the moment the first
judge call could be made: importing lexjudge, then the workload's set-up.
"""

import time

T0 = time.perf_counter()

import sys  # noqa: E402
from pathlib import Path  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import setup_phase  # noqa: E402

setup_phase.setup(sys.argv[1], sys.argv[2])
print(f"{time.perf_counter() - T0:.6f}")
