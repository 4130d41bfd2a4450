"""Compare two result sets of the benchmark, workload by workload.

    python3 perfbench/compare.py BASE NEW [--trace 0|1]

BASE and NEW are directories (or single files) of run records written by
``run.py`` (``.perfbench/results`` by default, ``--out`` elsewhere).  For
every workload and metric it prints each side's median and quartiles,
the share of pairwise comparisons NEW wins (runs are paired by seed when
both sides ran the same seeds, else every BASE run meets every NEW run;
ties count for neither side), and a verdict:

* ``better`` — NEW wins at least nine tenths of the pairs and the medians
  differ by more than BASE's own quartile distance;
* ``worse`` — NEW's median is worse than BASE's by more than the bound;
* ``unresolved`` — either side spreads wider than the bound, and it is
  not the case that every NEW run beats every BASE run;
* ``no worse`` — otherwise.

Per-layer metrics (``--trace 1``) have no bound: they get medians, the
win share and the ratio of medians only.  Records from hosts that differ
in CPU count, Python, machine, SciPy or LP backend are refused.  Exits 1
when some metric is worse, 2 when the sets cannot be compared.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

from common import IDENTITY_KEYS, emit, load_spec


def load(path: Path, trace: int) -> list[dict]:
    files = sorted(path.glob("*.json")) if path.is_dir() else [path]
    records = []
    for file in files:
        with open(file, encoding="utf-8") as handle:
            record = json.load(handle)
        if record.get("trace") == trace:
            records.append(record)
    return records


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def win_share(base: dict, new: dict, higher_is_better: bool) -> float:
    """Share of (base, new) pairs NEW wins; ``base``/``new`` map seed →
    value."""
    shared = sorted(set(base) & set(new))
    pairs = ([(base[s], new[s]) for s in shared] if shared else
             [(b, n) for b in base.values() for n in new.values()])
    if not pairs:
        return 0.0
    wins = sum(1 for b, n in pairs
               if (n > b if higher_is_better else n < b))
    return wins / len(pairs)


def verdict(base: list[float], new: list[float], share: float,
            higher_is_better: bool, bound: float) -> str:
    b1, bmed, b3 = quartiles(base)
    n1, nmed, n3 = quartiles(new)
    sign = 1.0 if higher_is_better else -1.0
    every_new_better = (min(new) > max(base) if higher_is_better
                        else max(new) < min(base))
    if share >= 0.9 and abs(nmed - bmed) > (b3 - b1):
        if sign * (nmed - bmed) > 0:
            return "better"
    worse_by = -sign * (nmed - bmed) / bmed if bmed else 0.0
    if worse_by > bound:
        return "worse"
    spread = max((b3 - b1) / bmed if bmed else 0.0,
                 (n3 - n1) / nmed if nmed else 0.0)
    if spread > bound and not every_new_better:
        return "unresolved"
    return "no worse"


def identity_mismatch(records: list[dict]) -> dict:
    seen: dict = defaultdict(set)
    for record in records:
        identity = record.get("identity", {})
        for key in IDENTITY_KEYS:
            seen[key].add(json.dumps(identity.get(key), sort_keys=True))
    return {key: sorted(values) for key, values in seen.items()
            if len(values) > 1}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    parser.add_argument("base", type=Path)
    parser.add_argument("new", type=Path)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    spec = load_spec()
    metrics = spec["per_layer"] if args.trace else spec["end_to_end"]
    base, new = load(args.base, args.trace), load(args.new, args.trace)
    if not base or not new:
        emit("compare: no records with this --trace on one side")
        return 2
    mismatch = identity_mismatch(base + new)
    if mismatch:
        emit("compare: the result sets come from different hosts or "
             "programs:")
        for key, values in mismatch.items():
            emit(f"  {key}: {' | '.join(values)}")
        return 2

    status = 0
    workloads = sorted({r["workload"] for r in base}
                       & {r["workload"] for r in new})
    for workload in workloads:
        emit(f"{workload}: {sum(r['workload'] == workload for r in base)}"
             f" base runs, {sum(r['workload'] == workload for r in new)}"
             f" new runs")
        for metric in metrics:
            name = metric["name"]
            higher = metric["better"] == "higher"
            side = []
            for records in (base, new):
                side.append({r["seed"]: r["metrics"][name]["value"]
                             for r in records
                             if r["workload"] == workload
                             and name in r["metrics"]})
            if not side[0] or not side[1]:
                continue
            values = [list(s.values()) for s in side]
            (b1, bmed, b3), (n1, nmed, n3) = map(quartiles, values)
            share = win_share(side[0], side[1], higher)
            if "bound" in metric:
                outcome = verdict(values[0], values[1], share, higher,
                                  metric["bound"])
                status = max(status, 1 if outcome == "worse" else 0)
            else:
                outcome = (f"ratio {nmed / bmed:.3f}" if bmed else
                           "ratio n/a")
            emit(f"  {name:34s} base {bmed:11.4g} [{b1:.4g}, {b3:.4g}]"
                 f"  new {nmed:11.4g} [{n1:.4g}, {n3:.4g}]"
                 f"  wins {share:4.0%}  {outcome}")
    return status


if __name__ == "__main__":
    sys.exit(main())
