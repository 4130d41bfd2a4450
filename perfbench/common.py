"""Shared helpers: checkout paths, percentiles, host identity, result files."""

from __future__ import annotations

import hashlib
import importlib.util
import json
import os
import platform
import subprocess
import sys
import time
from pathlib import Path
from typing import Optional, Sequence

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
#: Everything the benchmark writes lives here (ignored by git).
OUT_DIR = ROOT / ".perfbench"
SPEC_PATH = ROOT / "BENCHMARK.json"

#: Every workload issues at least this many timed operations per run, so
#: the 90th percentile has at least ten samples beyond it.
MIN_OPS = 100


class SetupError(RuntimeError):
    """The checkout cannot run the benchmark (no program sources, ...)."""


def require_program() -> None:
    """Make ``import repro`` load this checkout's ``src/``, or fail.

    The benchmark never falls back to an installed copy: a directory
    holding only the benchmark files must refuse to run.
    """
    package = SRC / "repro" / "__init__.py"
    if not package.is_file():
        raise SetupError(f"program sources not found: {package} is missing")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import repro

    loaded = Path(repro.__file__).resolve().parent
    if loaded != package.parent.resolve():
        raise SetupError(f"imported repro from {loaded}, expected "
                         f"{package.parent}")


def child_env() -> dict:
    """Environment for program subprocesses: this checkout's sources and
    a fixed string-hash seed, so set iteration order (and with it the
    enumeration order inside the reasoner) is the same on every run."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONHASHSEED"] = "0"
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    return env


def process_scratch() -> Path:
    """This process's scratch area; the run removes it when it ends."""
    return OUT_DIR / "tmp" / str(os.getpid())


def scratch_dir(label: str) -> Path:
    """A fresh, empty directory under :func:`process_scratch`."""
    path = process_scratch() / f"{label}-{time.monotonic_ns()}"
    path.mkdir(parents=True)
    return path


def percentile(values: Sequence[float], q: float) -> float:
    """Linear-interpolated percentile ``q`` in [0, 100] of ``values``."""
    if not values:
        raise ValueError("percentile of an empty sample")
    ordered = sorted(values)
    rank = (len(ordered) - 1) * q / 100.0
    low = int(rank)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


# ----------------------------------------------------------------------
# Host and program identity
# ----------------------------------------------------------------------
def _git_commit() -> Optional[str]:
    if not (ROOT / ".git").exists():
        return None
    try:
        done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=10,
                              check=False)
    except (OSError, subprocess.SubprocessError):
        return None
    return done.stdout.strip() or None


def _src_digest() -> str:
    """SHA-256 over every program source file: identifies the program
    even where the checkout is not a git repository."""
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode("utf-8"))
        digest.update(path.read_bytes())
    return digest.hexdigest()


def _scipy_version() -> Optional[str]:
    if importlib.util.find_spec("scipy") is None:
        return None
    from importlib.metadata import PackageNotFoundError, version

    try:
        return version("scipy")
    except PackageNotFoundError:
        return "unknown"


def host_identity(lp_backend: Optional[dict]) -> dict:
    """The fields two result sets must share to be compared.

    ``lp_backend`` is what ``/v1/version`` reports (or the same
    description computed in-process): without SciPy/HiGHS the ``auto``
    backend falls back to a much slower exact tableau, so results from
    hosts that differ here measure different programs.
    """
    return {
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "machine": platform.machine(),
        "git_commit": _git_commit(),
        "src_digest": _src_digest(),
        "scipy": _scipy_version(),
        "lp_backend": lp_backend,
    }


#: Identity fields that make two result sets incomparable when they differ.
IDENTITY_KEYS = ("cpu_count", "python", "implementation", "machine",
                 "scipy", "lp_backend")


def emit(line: str, stream=None) -> None:
    """Write one line to standard output (or ``stream``) and flush it."""
    stream = stream if stream is not None else sys.stdout
    stream.write(line + "\n")
    stream.flush()


def load_spec() -> dict:
    with open(SPEC_PATH, encoding="utf-8") as handle:
        return json.load(handle)


def write_result(record: dict, out_dir: Optional[Path] = None) -> Path:
    """Store one run's full record (metrics, extras, host identity)."""
    directory = Path(out_dir) if out_dir is not None else OUT_DIR / "results"
    directory.mkdir(parents=True, exist_ok=True)
    name = (f"{record['workload']}-seed{record['seed']}-trace"
            f"{record['trace']}-{time.time_ns()}.json")
    path = directory / name
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(record, handle, indent=1, sort_keys=True)
    return path
