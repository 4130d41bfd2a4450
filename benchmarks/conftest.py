"""Benchmark-suite configuration.

Makes the sibling ``benchlib`` helpers and the repository root (for the
dense reference simplex in ``tests/dense_reference.py``) importable
regardless of the pytest rootdir.  The experiment-id marker that maps
benchmarks to the DESIGN.md experiment index is registered in
``pytest.ini``, so the tier-1 driver tests can import the bench modules.
"""

import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(1, str(HERE.parent))
