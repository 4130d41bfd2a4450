"""The benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload cold_check --seed 1 --seconds 15 \
        --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off;
``--trace 1`` replays the same operations in-process with spans around
the program's public calls and reports the per-layer metrics (see
``perfbench/README.md``).  Every output is checked against a reference
computed without the code under test.  The last line of standard output
is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics`` (name → value and unit, as listed in ``BENCHMARK.json``).
The full record, with the host and program identity, is also written
under ``.perfbench/results/`` (or ``--out``), where ``compare.py`` and
``steady.py`` read it.  Exits non-zero, printing no result, when the
checkout cannot run the benchmark.
"""

from __future__ import annotations

import argparse
import json
import shutil
import statistics
import sys
import time

STARTED = time.perf_counter()

from common import (OUT_DIR, SetupError, emit,  # noqa: E402
                    host_identity, load_spec, process_scratch, require_program,
                    write_result)

WORKLOADS = ("cold_check", "scan_query", "registry_edit")


def run_untraced(workload: str, seed: int, seconds: float) -> dict:
    import workloads

    if workload == "cold_check":
        result = workloads.run_cold_untraced(seed, seconds)
        tally = workloads.Tally(
            latencies=result["latencies"], attempted=result["attempted"],
            failed=result["failed"], elapsed=result["elapsed"])
        tally.reasons.update(result["reasons"])
        setups, peak_rss, backend = (result["setups"],
                                     result["peak_rss_mb"],
                                     result["lp_backend"])
    else:
        tally, setups, peak_rss, backend = workloads.run_http_untraced(
            workload, seed, seconds, STARTED)
    summary = workloads.latency_summary(tally)
    metrics = {
        "setup_s": statistics.median(setups),
        "ops_per_s": summary["ops_per_s"],
        "latency_p50_ms": summary["latency_p50_ms"],
        "latency_p90_ms": summary["latency_p90_ms"],
        "peak_rss_mb": peak_rss,
    }
    extras = dict(summary, setup_samples_s=setups,
                  reasons=dict(tally.reasons))
    return {"metrics": metrics, "extras": extras, "tally": tally,
            "backend": backend}


def run_traced(workload: str, seed: int, seconds: float) -> dict:
    import workloads
    from tracing import Recorder, instrument, layer_metrics

    require_program()
    recorder = Recorder()
    patches = instrument(recorder)
    try:
        if workload == "cold_check":
            tally, backend = workloads.run_cold_traced(seed, seconds,
                                                       recorder)
        else:
            tally, backend = workloads.run_http_traced(workload, seed,
                                                       seconds, recorder)
    finally:
        patches.restore()
    traces = OUT_DIR / "traces"
    traces.mkdir(parents=True, exist_ok=True)
    recorder.write_jsonl(traces / f"{workload}-seed{seed}.jsonl")
    summary = workloads.latency_summary(tally)
    metrics = layer_metrics(recorder, len(tally.traced),
                            wire=workload != "cold_check")
    reuse = tally.reuse
    metrics.update({
        "engine.clusters_reused_ratio": (
            reuse["clusters_reused"] / reuse["clusters_total"]
            if reuse["clusters_total"] else 0.0),
        "engine.support_blocks_reused_ratio": (
            reuse["blocks_reused"]
            / (reuse["blocks_reused"] + reuse["blocks_solved"])
            if reuse["blocks_reused"] + reuse["blocks_solved"] else 0.0),
        "service.result_cache_hit_ratio": summary["result_cache_hit_ratio"],
        "write_p50_ms": summary["write_p50_ms"],
        "write_p90_ms": summary["write_p90_ms"],
    })
    metrics.update(workloads.trace_overhead(tally))
    extras = dict(summary, reasons=dict(tally.reasons),
                  traced_ops=len(tally.traced), trace_dir=str(traces))
    return {"metrics": metrics, "extras": extras, "tally": tally,
            "backend": backend}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", default=None,
                        help="directory for the full result record "
                             "(default .perfbench/results)")
    args = parser.parse_args(argv)

    try:
        spec = load_spec()
        require_program()
        if args.trace:
            outcome = run_traced(args.workload, args.seed, args.seconds)
            listed = spec["per_layer"]
        else:
            outcome = run_untraced(args.workload, args.seed, args.seconds)
            listed = spec["end_to_end"]
    except (SetupError, OSError, ValueError, KeyError) as exc:
        emit(f"perfbench: cannot run: {type(exc).__name__}: {exc}", sys.stderr)
        return 2
    finally:
        shutil.rmtree(process_scratch(), ignore_errors=True)

    measured = outcome["metrics"]
    missing = [entry["name"] for entry in listed
               if entry["name"] not in measured]
    if missing:
        emit(f"perfbench: metrics not measured: {missing}", sys.stderr)
        return 2
    tally = outcome["tally"]
    correct = tally.failed == 0 and tally.attempted > 0
    metrics = {entry["name"]: {"value": measured[entry["name"]],
                               "unit": entry["unit"]} for entry in listed}
    record = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "seconds": args.seconds, "correct": correct,
        "attempted": tally.attempted, "failed": tally.failed,
        "metrics": metrics, "extras": outcome["extras"],
        "identity": host_identity(outcome["backend"]),
    }
    path = write_result(record, args.out)
    emit(f"# {args.workload} seed={args.seed} trace={args.trace} "
         f"attempted={tally.attempted} failed={tally.failed} "
         f"record={path}")
    for name, value in sorted(outcome["extras"].items()):
        if isinstance(value, (int, float)):
            emit(f"#   {name} = {value:.6g}")
    emit(json.dumps({"correct": correct, "attempted": tally.attempted,
                     "failed": tally.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
