"""Seeded inputs of every workload.

The same ``seed`` always yields the same inputs; the program only ever
sees the generated schema sources, query texts and database documents.
Generation uses the program's own workload generators
(:mod:`repro.workloads`) and printer, never its reasoner.
"""

from __future__ import annotations

import random
import re
from dataclasses import dataclass, field

# ----------------------------------------------------------------------
# cold_check: one fresh session answers every class of one schema
# ----------------------------------------------------------------------
#: Size ranges per family, each chosen so that one operation stays in
#: the low tens of milliseconds (at most ~0.1 s and ~90 MB on a 2-core
#: host) while the mix still spans the paper's regimes.
#:
#: * clustered — many small clusters (Theorem 4.6, category β).  Up to
#:   16 clusters of 6 classes cost under 30 ms.
#: * adversarial — one dense α-cluster.  Capped at 9 classes: at 10 a
#:   single seed took 0.6 s and 82 MB, and growth is exponential.
#: * hierarchy — §4.4 closed form, with attributes.  Up to 40 classes
#:   (depth 3, branching 3) cost under 70 ms.
#: * wide — quadratic compound attributes over one chain.  14
#:   specializations cost about 40 ms.
#: * cardinality_chain — geometric ratios for the LP (Theorem 4.3).
#:   Lengths up to 8 stay under 5 ms.
#: * cardinality_cycle — the same chains closed into a cycle, so the LP
#:   must find every class empty: the one family whose verdicts are all
#:   "unsatisfiable".  Lengths up to 8 stay under 10 ms.
#: * taxonomy(b, 1) — Ψ_S fan-out of compound relations.  b = 6 costs
#:   about 30 ms; b = 7 is 0.18 s, b = 9 is 3.3 s and 201 MB, and b = 12
#:   raised MemoryError, so the range stops at 6.
COLD_FAMILIES = {
    "clustered": [(8, 4), (10, 5), (12, 5), (12, 6), (14, 5), (16, 5)],
    "adversarial": [6, 7, 8, 9],
    "hierarchy": [(2, 3), (3, 2), (3, 3), (4, 2)],
    "wide": [6, 8, 10, 12, 14],
    "cardinality_chain": [(3, 2), (5, 2), (6, 3), (8, 2)],
    "cardinality_cycle": [(2, 2), (4, 2), (5, 3), (8, 2)],
    "taxonomy": [4, 5, 6],
}
#: The reference of each family's verdicts: "isa" → brute force over the
#: isa formulas; otherwise every class is satisfiable ("all") or none is
#: ("none") by construction.
COLD_REFERENCE = {"clustered": "isa", "cardinality_cycle": "none"}
#: Schemas per family in one run's pool (operations cycle the pool).  A
#: large pool makes each run's cost distribution nearly the same for
#: every seed.
COLD_PER_FAMILY = 48


@dataclass(frozen=True)
class ColdSchema:
    family: str
    label: str
    schema: object  # repro.core.schema.Schema
    source: str
    reference: str  # see COLD_REFERENCE


def cardinality_cycle_schema(length: int, fan_out: int):
    """``cardinality_chain_schema(length, fan_out)`` with ``L{length}``
    linked back to ``L0`` one-to-one.

    A model needs ``|L0| = |L{length}| = fan_out^length · |L0|``, so with
    ``fan_out ≥ 2`` every class is empty in every finite model."""
    from repro.core.cardinality import Card
    from repro.core.formulas import Lit
    from repro.core.schema import Attr, ClassDef, Schema, inv
    from repro.workloads.generators import cardinality_chain_schema

    back = f"next{length}"
    extra = {f"L{length}": Attr(back, Card(1, 1), Lit("L0")),
             "L0": Attr(inv(back), Card(1, 1), Lit(f"L{length}"))}
    return Schema([
        ClassDef(cdef.name, cdef.isa, cdef.attributes + (extra[cdef.name],),
                 cdef.participates) if cdef.name in extra else cdef
        for cdef in cardinality_chain_schema(length, fan_out)
        .class_definitions])


def cold_check_inputs(seed: int) -> list[ColdSchema]:
    from repro.parser.printer import render_schema
    from repro.workloads.generators import (
        adversarial_schema, cardinality_chain_schema, clustered_schema,
        hierarchy_schema, wide_attribute_schema)
    from repro.workloads.query_workloads import taxonomy_schema

    rng = random.Random(seed)
    pool: list[ColdSchema] = []
    for family, sizes in COLD_FAMILIES.items():
        for index in range(COLD_PER_FAMILY):
            size = sizes[index % len(sizes)]
            draw = rng.randrange(2 ** 31)
            if family == "clustered":
                schema = clustered_schema(*size, seed=draw)
            elif family == "adversarial":
                schema = adversarial_schema(size, seed=draw)
            elif family == "hierarchy":
                schema = hierarchy_schema(*size, with_attributes=True,
                                          seed=draw)
            elif family == "wide":
                schema = wide_attribute_schema(size)
            elif family == "cardinality_chain":
                schema = cardinality_chain_schema(*size)
            elif family == "cardinality_cycle":
                schema = cardinality_cycle_schema(*size)
            else:
                schema = taxonomy_schema(size, 1)
            pool.append(ColdSchema(
                family, f"{family}{size}", schema, render_schema(schema),
                COLD_REFERENCE.get(family, "all")))
    rng.shuffle(pool)
    return pool


# ----------------------------------------------------------------------
# scan_query: POST /v1/query over a registered taxonomy
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class QueryWorkload:
    schema: object
    source: str
    databases: list
    #: (query text, database index), every pair distinct.
    ops: list


#: ``taxonomy_schema(2, 2)``: evaluation dominates, consistency is cheap.
QUERY_TAXONOMY = (2, 2)
#: Chains of two joins only.  Evaluation cost varies tenfold across query
#: shapes; a mix of stars and chains puts the median on the gap between
#: cheap stars and costly chains, so it jumps from seed to seed.
QUERY_CHAIN = 2
#: Databases hold 100 objects, not 150: at 150, length-3 chains reached
#: 1.7 s and a run fit too few operations to be steady.  Join cost also
#: varies from one database to the next, so a run spreads its operations
#: over many databases rather than a few.
QUERY_OBJECTS = 100
QUERY_DATABASES = 64


def _query_signature(text: str) -> tuple:
    """A rendering that equal queries share up to atom order and variable
    names (for the generated shapes), so no two operations can hit the
    server's result cache."""
    head, _, body = text.partition(":-")
    atoms = sorted(re.findall(r"[A-Za-z_]\w*\([^()]*\)", body))
    names: dict = {}
    for var in re.findall(r"\b([a-z]\w*)\b(?=[,)])",
                          head + " " + " ".join(atoms)):
        names.setdefault(var, f"v{len(names)}")
    rename = (lambda m: names.get(m.group(0), m.group(0)))
    return (re.sub(r"\b[a-z]\w*\b(?=[,)])", rename, head.strip()),
            tuple(re.sub(r"\b[a-z]\w*\b(?=[,)])", rename, atom)
                  for atom in atoms))


def query_inputs(seed: int) -> QueryWorkload:
    from repro.parser.printer import render_schema
    from repro.workloads.query_workloads import (
        chain_queries, sample_database, taxonomy_schema)

    rng = random.Random(seed)
    schema = taxonomy_schema(*QUERY_TAXONOMY)
    databases = [sample_database(schema, QUERY_OBJECTS,
                                 seed=rng.randrange(2 ** 31))
                 for _ in range(QUERY_DATABASES)]
    queries: dict = {}
    for text in chain_queries(schema, 200, QUERY_CHAIN,
                              seed=rng.randrange(2 ** 31)):
        queries.setdefault(_query_signature(text), text)
    ops = [(text, index) for text in queries.values()
           for index in range(len(databases))]
    rng.shuffle(ops)
    return QueryWorkload(schema, render_schema(schema), databases, ops)


# ----------------------------------------------------------------------
# registry_edit: single-cluster PUTs between satisfiable reads
# ----------------------------------------------------------------------
TENANTS = ("acme", "globex", "initech")
SCHEMAS_PER_TENANT = 2
#: (clusters, classes per cluster) of the fleet's schemas, in order.  The
#: sizes are fixed, not drawn: a PUT's cost follows the schema's size, and
#: drawn sizes made throughput jump from seed to seed.
FLEET_SIZES = ((12, 4), (13, 5), (14, 6), (15, 4), (16, 5), (18, 5))
VARIANTS_PER_SCHEMA = 4
READS_PER_EDIT = 4


@dataclass
class FleetSchema:
    tenant: str
    name: str
    #: variants[0] is the base; variants[i] differs from it in cluster
    #: ``edited[i]`` only.
    variants: list = field(default_factory=list)
    sources: list = field(default_factory=list)
    edited: list = field(default_factory=list)
    classes: list = field(default_factory=list)


@dataclass(frozen=True)
class RegistryStep:
    slot: int  # index into the fleet
    variant: int  # the version the PUT installs
    reads: tuple  # class names read after the PUT


def _with_cluster(base, alternative, cluster: int):
    """``base`` with cluster ``cluster`` taken from ``alternative``, in
    ``base``'s definition order (so equal content renders equally)."""
    from repro.core.schema import Schema

    prefix = f"K{cluster}_"
    swapped = {cdef.name: cdef for cdef in alternative.class_definitions
               if cdef.name.startswith(prefix)}
    return Schema([swapped.get(cdef.name, cdef)
                   for cdef in base.class_definitions])


def registry_inputs(seed: int, steps: int = 3000):
    """The tenants' fleets and a seeded edit/read plan.

    Each PUT is a single-cluster edit: a schema moves from its base to
    one of its variants or back, so fingerprints recur and some reads
    find their verdict in the result cache while others miss."""
    from repro.parser.printer import render_schema
    from repro.workloads.generators import clustered_schema

    rng = random.Random(seed)
    fleet: list[FleetSchema] = []
    sizes = iter(FLEET_SIZES)
    for tenant in TENANTS:
        for number in range(SCHEMAS_PER_TENANT):
            n_clusters, size = next(sizes)
            base = clustered_schema(n_clusters, size,
                                    seed=rng.randrange(2 ** 31))
            entry = FleetSchema(tenant, f"fleet{number}")
            entry.variants.append(base)
            entry.sources.append(render_schema(base))
            entry.edited.append(None)
            entry.classes = sorted(base.class_symbols)
            while len(entry.variants) <= VARIANTS_PER_SCHEMA:
                cluster = rng.randrange(n_clusters)
                alternative = clustered_schema(n_clusters, size,
                                               seed=rng.randrange(2 ** 31))
                variant = _with_cluster(base, alternative, cluster)
                source = render_schema(variant)
                if source in entry.sources:
                    continue
                entry.variants.append(variant)
                entry.sources.append(source)
                entry.edited.append(cluster)
            fleet.append(entry)
    current = [0] * len(fleet)
    plan: list[RegistryStep] = []
    for _ in range(steps):
        slot = rng.randrange(len(fleet))
        entry = fleet[slot]
        previous = current[slot]
        variant = (rng.randrange(1, len(entry.variants)) if previous == 0
                   else 0)
        current[slot] = variant
        cluster = entry.edited[variant or previous]
        in_cluster = [name for name in entry.classes
                      if name.startswith(f"K{cluster}_")]
        reads = tuple(rng.sample(in_cluster, 2)
                      + rng.sample(entry.classes, READS_PER_EDIT - 2))
        plan.append(RegistryStep(slot, variant, reads))
    return fleet, plan
