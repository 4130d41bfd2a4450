"""Experiment "Theorem 4.4": the whole decision procedure, worst-case
exponential.

On adversarial single-cluster, union-rich schemas (category (α) of Section
4.3) the number of consistent compound classes is genuinely exponential in
the class count, so end-to-end class satisfiability must show exponential
growth — the upper-bound side of the paper's EXPTIME characterization.
"""

import pytest

from benchlib import Table, growth_ratios, is_superlinear, run_table, timed
from repro import Reasoner
from repro.workloads.generators import adversarial_schema


def adversarial_table() -> Table:
    """End-to-end satisfiability of every class of ``adversarial_schema``
    at 6–14 classes."""
    rows = []
    for n_classes in (6, 8, 10, 12, 14):
        reasoner = Reasoner(adversarial_schema(n_classes, seed=4))
        seconds, _ = timed(lambda r=reasoner: r.satisfiable_classes())
        stats = reasoner.stats()
        rows.append((n_classes, stats.compound_classes,
                     stats.expansion_size, seconds))
    return Table(
        "Theorem 4.4 — adversarial single-cluster schemas",
        ["classes", "compounds", "expansion", "seconds"], rows)


@pytest.mark.experiment("theorem44")
def test_exponential_growth_on_adversarial_schemas(benchmark):
    rows = run_table(benchmark, adversarial_table)
    classes = [float(r[0]) for r in rows]
    compounds = [float(r[1]) for r in rows]
    assert is_superlinear(classes, compounds, factor=2.0)
    # Exponential signature: the growth ratio does not die down.
    ratios = growth_ratios(compounds)
    assert ratios[-1] > 1.5


@pytest.mark.experiment("theorem44")
def test_end_to_end_single_adversarial(benchmark):
    schema = adversarial_schema(9, seed=4)

    def run():
        return Reasoner(schema).satisfiable_classes()

    names = benchmark(run)
    assert names  # adversarial schemas are satisfiable, just expensive
