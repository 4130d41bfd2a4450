"""Benchmark-suite configuration.

Makes the sibling ``benchlib`` helpers and the repository root (for the
dense reference simplex in ``tests/dense_reference.py``) importable
regardless of the pytest rootdir, and registers the experiment-id marker
used to map benchmarks to the DESIGN.md experiment index.
"""

import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(1, str(HERE.parent))


def pytest_configure(config):
    config.addinivalue_line(
        "markers",
        "experiment(id): maps a benchmark to a DESIGN.md experiment row")
