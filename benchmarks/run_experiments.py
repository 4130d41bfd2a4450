#!/usr/bin/env python3
"""Regenerate every experiment table recorded in EXPERIMENTS.md.

Each table is produced by one table function in the ``bench_*.py`` module
of its experiment — the function the module's pytest tests assert their
bars on.  This script only runs them section by section, so the tables
land on stdout, ready to be pasted into EXPERIMENTS.md:

    python benchmarks/run_experiments.py

One section per experiment of the DESIGN.md index (Figures 1–2,
Theorems 4.1–4.6, Section 4.4), plus the engine sections (expansion
pipeline, sessions, batches, service, queries, registry, LP backends).

``--only KEYWORD`` restricts the run to sections whose title starts with
the keyword (case-insensitive); ``--json PATH`` additionally records every
table into a machine-readable document (see ``benchlib.Recorder``), the
format committed as ``BENCH_expansion.json``:

    python benchmarks/run_experiments.py --only expansion \\
        --json BENCH_expansion.json

``--profile`` traces each section and prints its per-stage breakdown;
``--trace-out PATH`` writes the sections' JSON-lines traces.
"""

from __future__ import annotations

import argparse
import sys
from contextlib import nullcontext
from pathlib import Path
from typing import Optional

sys.path.insert(0, str(Path(__file__).resolve().parent))
# The repository root, for the dense reference simplex of tests/.
sys.path.insert(1, str(Path(__file__).resolve().parent.parent))

import bench_ablations as ablations
import bench_expansion_pipeline as expansion
import bench_lp_backends as lp
import bench_paper_figures as figures
import bench_parallel_batch as batch
import bench_query as query
import bench_registry as registry
import bench_section44_hierarchies as section44
import bench_service as service
import bench_session as session
import bench_synthesis as synthesis
import bench_theorem41_exptime as theorem41
import bench_theorem42_np as theorem42
import bench_theorem43_lp as theorem43
import bench_theorem44_endtoend as theorem44
import bench_theorem45_arity as theorem45
import bench_theorem46_strategies as theorem46
from benchlib import Recorder, render_table
from repro.obs.tracer import Tracer, use_tracer

#: (section title, its table functions in print order).
SECTIONS = [
    ("Figures 1 & 2", (figures.figures_table, figures.implied_facts_table)),
    ("Theorem 4.1 (EXPTIME-hardness shape)", (theorem41.growing_tape_table,)),
    ("Theorem 4.2 (NP-hardness shape)",
     (theorem42.sat_table, theorem42.intersection_pattern_table)),
    ("Theorem 4.3 (polynomial linear phase)", (theorem43.support_table,)),
    ("Theorem 4.4 (exponential upper bound)", (theorem44.adversarial_table,)),
    ("Theorem 4.5 (arity reduction)", (theorem45.arity_table,)),
    ("Theorem 4.6 / Section 4.3 (strategies)",
     (theorem46.strategies_table,)),
    ("Section 4.4 (hierarchies)", (section44.hierarchies_table,)),
    ("Theorem 3.3 constructive (synthesis)",
     (synthesis.witness_scale_table, synthesis.chain_depth_table)),
    ("Expansion pipeline (indexes, pruning, incremental queries)",
     (expansion.indexes_table, expansion.pruning_table,
      expansion.augmented_table, expansion.equivalence_table)),
    ("Session reuse (SchemaSession warm vs cold)",
     (session.warm_vs_cold_table, session.check_many_table,
      session.lru_table)),
    ("Parallel batch (executor, deadlines)",
     (batch.parallel_table, batch.cold_start_table, batch.deadline_table)),
    ("Query service (admission, result cache, budgets)",
     (service.throughput_table, service.budget_table)),
    ("Query answering (CQ rewriting, certain answers, /v1/query)",
     (query.rewriting_table, query.certain_answers_table,
      query.data_scaling_table, query.wire_table)),
    ("Registry revalidation (delta rebuild vs cold)",
     (registry.revalidation_table, registry.put_table)),
    ("LP backends (sparse fraction-free vs dense exact, Section 4.4)",
     (lp.backends_table, lp.closed_form_table, lp.coupled_table)),
    ("Ablations",
     (ablations.support_toggles_table, ablations.binding_filter_table)),
]

RECORDER: Optional[Recorder] = None


def emit(title, headers, rows) -> None:
    """Print one table and, when ``--json`` is active, record it."""
    print(render_table(title, headers, rows))
    if RECORDER is not None:
        RECORDER.record(title, headers, rows)


def main(argv: Optional[list] = None) -> None:
    parser = argparse.ArgumentParser(
        description="Regenerate the experiment tables for EXPERIMENTS.md.")
    parser.add_argument(
        "--only", metavar="KEYWORD",
        help="run only sections whose title starts with KEYWORD "
             "(case-insensitive)")
    parser.add_argument(
        "--json", metavar="PATH",
        help="additionally write every table to PATH as JSON "
             "(e.g. BENCH_expansion.json)")
    parser.add_argument(
        "--profile", action="store_true",
        help="trace every section through the observability bus and print "
             "a per-stage breakdown after each one")
    parser.add_argument(
        "--trace-out", metavar="PATH",
        help="write the sections' versioned JSON-lines traces to PATH "
             "(one header per section)")
    args = parser.parse_args(argv)

    sections = SECTIONS
    if args.only:
        keyword = args.only.lower()
        sections = [(title, tables) for title, tables in SECTIONS
                    if title.lower().startswith(keyword)]
        if not sections:
            parser.error(f"no section title starts with {args.only!r}")

    global RECORDER
    if args.json:
        try:
            Path(args.json).touch()  # fail before the sections run, not after
        except OSError as exc:
            parser.error(f"cannot write {args.json}: {exc}")
        RECORDER = Recorder(command="run_experiments.py "
                            + " ".join(argv if argv is not None
                                       else sys.argv[1:]))

    tracing = args.profile or args.trace_out
    trace_lines: list = []
    for title, tables in sections:
        if RECORDER is not None:
            RECORDER.start_section(title)
        print("=" * 72)
        print(title)
        print("=" * 72)
        # One fresh tracer per section, installed as the ambient tracer:
        # every Pipeline/SchemaSession the section constructs picks it up
        # without the table functions knowing about tracing at all.
        tracer = Tracer()
        with use_tracer(tracer) if tracing else nullcontext():
            for index, table in enumerate(tables):
                if index:
                    print()
                emit(*table())
        if tracing:
            if RECORDER is not None:
                RECORDER.record_trace(tracer.snapshot())
            if args.trace_out:
                trace_lines.extend(tracer.jsonl_lines())
            if args.profile:
                totals: dict = {}
                for record in tracer.spans:
                    totals[record.name] = (totals.get(record.name, 0.0)
                                           + record.duration)
                for name in sorted(totals):
                    print(f"  [trace] {name}: {totals[name] * 1000:.3f} ms")
                for name, value in sorted(tracer.counters.items()):
                    print(f"  [trace] {name} = {value}")
        print()
    if args.trace_out:
        Path(args.trace_out).write_text(
            "".join(f"{line}\n" for line in trace_lines), encoding="utf-8")
        print(f"wrote {args.trace_out}")
    if RECORDER is not None:
        RECORDER.dump(args.json)
        print(f"wrote {args.json}")


if __name__ == "__main__":
    main()
