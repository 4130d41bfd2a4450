"""The ``cold_check`` worker: one fresh process per run.

Prints ``{"ready": true}`` once it has imported the program and
generated its inputs (the parent times this as set-up), then, unless
``--mode probe``, runs the timed closed loop, checks every verdict and
prints one JSON line with the latencies, the failures and its own peak
resident memory.  After each segment of the timed phase it prints
``{"paused": true}`` and waits, clock stopped, for a line on standard
input (the parent times a probe's set-up meanwhile).

    python3 perfbench/cold_worker.py --seed 1 --seconds 10 --mode run
"""

from __future__ import annotations

import argparse
import json
import resource
import sys


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--mode", choices=("probe", "run"), required=True)
    args = parser.parse_args()

    from common import emit, require_program

    require_program()
    from inputs import cold_check_inputs
    from workloads import (Tally, check_cold, cold_loop,
                           lp_backend_description)

    pool = cold_check_inputs(args.seed)
    emit(json.dumps({"ready": True}))
    if args.mode == "probe":
        return 0
    def pause() -> None:
        emit(json.dumps({"paused": True}))
        sys.stdin.readline()

    tally = Tally()
    cold_loop(pool, args.seconds, tally, between=pause)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    check_cold(tally)
    emit(json.dumps({
       "latencies": tally.latencies,
       "attempted": tally.attempted,
       "failed": tally.failed,
       "reasons": dict(tally.reasons),
       "elapsed": tally.elapsed,
       "peak_rss_mb": peak_rss_mb,
       "lp_backend": lp_backend_description(),
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
