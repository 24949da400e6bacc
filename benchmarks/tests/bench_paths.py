"""Puts src/ and benchmarks/ on sys.path for the benchmark's self-tests.

Run the self-tests with: python3 -m pytest -q benchmarks/tests
"""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
for path in (ROOT / "src", ROOT / "benchmarks"):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))
