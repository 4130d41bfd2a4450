"""Steadiness check: how far one commit's runs spread, per metric.

Runs each workload ``--runs`` times on the current checkout, each time
with another seed, and prints for every end-to-end metric the median of
its values and the spread: the distance between the first and third
quartile (``statistics.quantiles(values, n=4)``) as a share of the
median.  A spread within the metric's bound in ``BENCHMARK.json`` is
``ok``; the target while tuning is a third of the bound (``steady``).

    python3 perfbench/steady.py --runs 10
    python3 perfbench/steady.py --workloads scan_query --runs 5 --seed0 100

Exits 1 when a spread exceeds its bound or a run fails its checks.
The full records land in ``--out`` (default ``.perfbench/steady``),
ready for ``compare.py``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

from common import BENCH_DIR, OUT_DIR, ROOT, emit, load_spec


def spread(values: list[float]) -> float:
    """Inter-quartile distance over the median (0 for a zero median)."""
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2 if q2 else 0.0


def run_once(workload: str, seed: int, seconds: int, out: Path) -> dict:
    done = subprocess.run(
        [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0",
         "--out", str(out)],
        cwd=ROOT, capture_output=True, text=True, timeout=900, check=False)
    if done.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} exited "
                           f"{done.returncode}: {done.stderr.strip()}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    spec = load_spec()
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    parser.add_argument("--workloads", nargs="+",
                        default=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seed0", type=int, default=1,
                        help="seed of the first run; run i uses seed0 + i")
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--out", type=Path, default=OUT_DIR / "steady")
    args = parser.parse_args(argv)
    if args.runs < 2:
        parser.error("--runs must be at least 2 to have quartiles")

    status = 0
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    for workload in args.workloads:
        values: dict[str, list[float]] = {name: [] for name in bounds}
        for index in range(args.runs):
            result = run_once(workload, args.seed0 + index, args.seconds,
                              args.out)
            if not result["correct"]:
                emit(f"{workload} seed {args.seed0 + index}: "
                     f"{result['failed']} of {result['attempted']} failed")
                status = 1
            for name in bounds:
                values[name].append(result["metrics"][name]["value"])
        emit(f"{workload} ({args.runs} runs, seeds {args.seed0}.."
             f"{args.seed0 + args.runs - 1})")
        for name, bound in bounds.items():
            share = spread(values[name])
            verdict = ("steady" if share <= bound / 3 else
                       "ok" if share <= bound else "WIDE")
            if verdict == "WIDE":
                status = 1
            emit(f"  {name:16s} median {statistics.median(values[name]):12.4f}"
                 f"  spread {share:7.3f}  bound {bound:5.2f}  {verdict}")
    return status


if __name__ == "__main__":
    sys.exit(main())
