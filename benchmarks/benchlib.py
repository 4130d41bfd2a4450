"""Shared helpers for the benchmark suite.

Every benchmark regenerates one row-series of the paper's evaluation (which,
for a 1994 PODS theory paper, means the *scaling shapes* its theorems
assert).  Each series is one *table function* in the ``bench_*.py`` module
of its experiment: it builds the inputs, runs the workload, makes the
correctness checks, and returns a :class:`Table`.  The module's tests
assert their bars on its rows, and ``run_experiments.py`` prints and
records the same tables.  The helpers here time pipeline stages, compute
growth ratios, and render small aligned tables.
"""

from __future__ import annotations

import json
import os
import platform
import time
import urllib.error
import urllib.request
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, NamedTuple, Sequence

__all__ = ["timed", "best_of", "growth_ratios", "is_superlinear",
           "is_subquadratic", "render_table", "run_table", "request_json",
           "Series", "Table", "Recorder"]


class Table(NamedTuple):
    """One experiment table, as a table function returns it."""

    title: str
    headers: Sequence[str]
    rows: list


def timed(fn: Callable[[], object]) -> tuple[float, object]:
    """Wall-clock one call; returns (seconds, result)."""
    start = time.perf_counter()
    result = fn()
    return time.perf_counter() - start, result


def best_of(fn: Callable[[], object], rounds: int = 3) -> float:
    """Minimum wall-clock over ``rounds`` calls — the noise-robust timing
    for speedup assertions."""
    return min(timed(fn)[0] for _ in range(rounds))


def request_json(base: str, path: str, body: dict, method: str = "POST",
                 headers: dict | None = None) -> tuple[int, dict]:
    """One JSON request to a running service; returns ``(status,
    envelope)`` for error statuses too."""
    request = urllib.request.Request(
        base + path, data=json.dumps(body).encode(), headers=headers or {},
        method=method)
    try:
        with urllib.request.urlopen(request, timeout=30) as response:
            return response.status, json.loads(response.read())
    except urllib.error.HTTPError as error:
        return error.code, json.loads(error.read())


@dataclass
class Series:
    """One measured scaling series: parameter values and measurements."""

    name: str
    xs: list
    ys: list[float]

    def ratios(self) -> list[float]:
        return growth_ratios(self.ys)


def growth_ratios(values: Sequence[float]) -> list[float]:
    """Successive ratios ``y[i+1] / y[i]`` (0 when the denominator is 0)."""
    out = []
    for a, b in zip(values, values[1:]):
        out.append(b / a if a else 0.0)
    return out


def is_superlinear(xs: Sequence[float], ys: Sequence[float],
                   factor: float = 1.2) -> bool:
    """True when ``ys`` grows clearly faster than ``xs`` overall.

    Compares total growth: ``y_n/y_0`` must exceed ``factor · x_n/x_0``.
    Robust to per-step noise, strict enough for exponential-vs-linear.
    """
    if ys[0] <= 0 or xs[0] <= 0:
        return True
    return (ys[-1] / ys[0]) > factor * (xs[-1] / xs[0])


def is_subquadratic(xs: Sequence[float], ys: Sequence[float],
                    slack: float = 1.5) -> bool:
    """True when total growth of ``ys`` stays below ``slack · (x ratio)^2``.

    Used to certify the polynomial special cases: their measured growth must
    stay well under the quadratic envelope (noise-tolerant via ``slack``).
    """
    if ys[0] <= 0 or xs[0] <= 0:
        return True
    return (ys[-1] / ys[0]) < slack * (xs[-1] / xs[0]) ** 2


def _jsonable(value):
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    return str(value)


class Recorder:
    """Collects every table a benchmark run prints into a JSON document.

    ``run_experiments.py --json PATH`` threads one instance through its
    sections; each rendered table is also recorded structurally, so CI and
    regression tooling can diff ``BENCH_<name>.json`` files instead of
    scraping stdout.  The document shape::

        {"command": "...", "python": "3.x.y", "platform": "...",
         "cpu_count": N,
         "sections": [{"title": ...,
                       "tables": [{"title": ..., "headers": [...],
                                   "rows": [[...], ...]}]}]}

    ``cpu_count`` stamps the host parallelism into every document, so a
    parallel-speedup table measured on a 1-core box can never again be
    mistaken for a regression.
    """

    def __init__(self, command: str = ""):
        self.command = command
        self._sections: list[dict] = []
        self._current: dict | None = None

    def start_section(self, title: str) -> None:
        self._current = {"title": title, "tables": []}
        self._sections.append(self._current)

    def record(self, title: str, headers: Sequence[str],
               rows: Sequence[Sequence]) -> None:
        if self._current is None:
            self.start_section("(untitled)")
        self._current["tables"].append({
            "title": title,
            "headers": [str(h) for h in headers],
            "rows": [[_jsonable(v) for v in row] for row in rows],
        })

    def record_trace(self, snapshot: dict) -> None:
        """Attach an observability snapshot (``Tracer.snapshot()``) to the
        current section as a per-stage breakdown: total seconds and span
        counts per span name, plus the counters and gauges verbatim."""
        if self._current is None:
            self.start_section("(untitled)")
        seconds: dict[str, float] = {}
        counts: dict[str, int] = {}
        for span in snapshot.get("spans", ()):
            name = span["name"]
            seconds[name] = seconds.get(name, 0.0) + span["duration_s"]
            counts[name] = counts.get(name, 0) + 1
        self._current["trace"] = {
            "trace_schema": snapshot.get("trace_schema"),
            "span_seconds": {k: seconds[k] for k in sorted(seconds)},
            "span_counts": {k: counts[k] for k in sorted(counts)},
            "counters": dict(snapshot.get("counters", {})),
            "gauges": dict(snapshot.get("gauges", {})),
        }

    def document(self) -> dict:
        return {
            "command": self.command,
            "python": platform.python_version(),
            "platform": platform.platform(),
            "cpu_count": os.cpu_count(),
            "sections": self._sections,
        }

    def dump(self, path: str | Path) -> None:
        Path(path).write_text(
            json.dumps(self.document(), indent=2) + "\n", encoding="utf-8")


def run_table(benchmark, table: Callable[..., Table], *args) -> list:
    """Run one table function once under pytest-benchmark's ``benchmark``
    fixture, print the table into the log, and return its rows for the
    caller's bar assertions."""
    result = benchmark.pedantic(table, args=args, rounds=1, iterations=1)
    print()
    print(render_table(*result))
    return result.rows


def render_table(title: str, headers: Sequence[str],
                 rows: Sequence[Sequence]) -> str:
    """A small fixed-width table, printed into the benchmark log."""
    cells = [[str(h) for h in headers]]
    for row in rows:
        cells.append([f"{v:.4g}" if isinstance(v, float) else str(v)
                      for v in row])
    widths = [max(len(r[c]) for r in cells) for c in range(len(headers))]
    lines = [title]
    for i, row in enumerate(cells):
        lines.append("  " + "  ".join(v.rjust(w) for v, w in zip(row, widths)))
        if i == 0:
            lines.append("  " + "  ".join("-" * w for w in widths))
    return "\n".join(lines)
