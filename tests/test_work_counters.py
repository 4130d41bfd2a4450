"""The work-counter gate: the seed-1 ``cold_check`` pool must keep its
verdicts and supports, and do no more work than the committed baseline
(see :mod:`tests.work_counters`)."""

import json

from .work_counters import BASELINE, COUNTERS, cold_pool_work, rises

REGENERATE = "PYTHONPATH=src python -m tests.work_counters"


def test_cold_pool_work_stays_at_the_baseline():
    baseline = json.loads(BASELINE.read_text())
    current = cold_pool_work(baseline["seed"])
    assert current["digest"] == baseline["digest"], (
        "a verdict or a supported unknown of the cold_check pool changed")
    assert set(current["families"]) == set(baseline["families"])
    for counts in baseline["families"].values():
        assert set(counts) == set(COUNTERS)
    found = rises(baseline, current)
    assert not found, (
        "work counters rose above the baseline: " + "; ".join(found)
        + f". If the change means to do more work, regenerate the "
        f"baseline with `{REGENERATE}` and list the deltas.")
