"""Deterministic work counts of the perfbench ``cold_check`` pool.

Wall-clock readings on a shared host swing by a quarter from run to run;
the work a cold check does does not.  This module replays the seed-1
``cold_check`` pool in-process — one fresh :class:`SchemaSession` per
schema, every class checked, as the benchmark's cold loop does — and
records, per input family, the tracer's work counters, plus one digest
over every schema's supported unknowns and verdicts.
``tests/test_work_counters.py`` recomputes it against the committed
baseline ``cold_pool_work.json``: the digest must match and no counter
may rise.

A change that alters the work on purpose regenerates the baseline, from
the repository root, and lists the deltas with its description::

    PYTHONPATH=src python -m tests.work_counters

The inputs come from ``perfbench/inputs.py``, loaded from its file so that
the benchmark directory stays as it is.
"""

from __future__ import annotations

import hashlib
import importlib.util
import json
import sys
from pathlib import Path

from repro.engine.session import SchemaSession
from repro.obs.tracer import Tracer, use_tracer
from repro.parser.parser import parse_schema

BASELINE = Path(__file__).with_name("cold_pool_work.json")
SEED = 1

#: The counters recorded per family.  Every one but
#: :data:`RECORDED_ONLY` is a bound: the gate fails when it rises.
COUNTERS = (
    "lp.pivots",
    "lp.rounds",
    "lp.sparse_solves",
    "lp.hierarchy_closed_form",
    "expansion.candidates_examined",
    "expansion.dpll_branches",
    "expansion.compound_classes",
)
#: More certified rounds mean fewer simplex runs, so a rise is no
#: regression; a fall shows up in ``lp.pivots`` and ``lp.sparse_solves``.
RECORDED_ONLY = frozenset({"lp.hierarchy_closed_form"})


def _perfbench_inputs():
    path = Path(__file__).resolve().parent.parent / "perfbench" / "inputs.py"
    spec = importlib.util.spec_from_file_location("perfbench_inputs", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses resolve their module
    spec.loader.exec_module(module)
    return module


def cold_pool_work(seed: int = SEED) -> dict:
    """The digest and per-family work counters of one ``cold_check`` pool.

    The digest is the parity digest of the earlier LP changes: per schema,
    in pool order, its label, sorted supported unknowns and sorted
    verdicts.  Witness values are left out, since a certified round and
    the simplex may find different witnesses for the same support."""
    digest = hashlib.sha256()
    families: dict[str, dict[str, int]] = {}
    for entry in _perfbench_inputs().cold_check_inputs(seed):
        tracer = Tracer()
        with use_tracer(tracer), SchemaSession() as session:
            schema = parse_schema(entry.source)
            reasoner = session.reasoner(schema)
            verdicts = {name: reasoner.is_satisfiable(name)
                        for name in sorted(schema.class_symbols)}
            support = reasoner.support.support
        digest.update(repr((entry.label, sorted(support),
                            sorted(verdicts.items()))).encode())
        counts = families.setdefault(entry.family, dict.fromkeys(COUNTERS, 0))
        for name in COUNTERS:
            counts[name] += tracer.counter(name)
    return {"seed": seed, "digest": digest.hexdigest(),
            "families": dict(sorted(families.items()))}


def rises(baseline: dict, current: dict) -> list[str]:
    """Every bounded counter of ``current`` above its ``baseline`` value."""
    found = []
    for family, counts in current["families"].items():
        for name, value in counts.items():
            before = baseline["families"][family][name]
            if name not in RECORDED_ONLY and value > before:
                found.append(f"{family} {name}: {before} -> {value}")
    return found


if __name__ == "__main__":
    BASELINE.write_text(json.dumps(cold_pool_work(), indent=1) + "\n")
    print(f"wrote {BASELINE}")
