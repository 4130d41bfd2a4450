"""Equivalence guarantees for the indexed expansion pipeline.

The throughput optimizations — endpoint indexes, binding-endpoint pruning,
memoized typing checks, incremental augmented queries, preselection-table
row reuse — must never change any answer.  This suite pins each of them
against its reference implementation on randomized seeded schemas from
:mod:`repro.workloads.generators` (property-style: many seeds, exact
comparisons).
"""

import random
from dataclasses import replace
from itertools import product

import pytest

from repro.core.cardinality import Card
from repro.core.formulas import Clause, Formula, Lit
from repro.core.schema import (
    Attr,
    ClassDef,
    Part,
    RelationDef,
    RoleClause,
    RoleLiteral,
    Schema,
    inv,
)
from repro.engine.config import EngineConfig
from repro.expansion.compound import (
    AttributeTyping,
    CompoundAttribute,
    CompoundRelation,
    RelationTyping,
    is_consistent_compound_attribute,
    is_consistent_compound_relation,
)
from repro.expansion.expansion import (ExpansionSeed, build_expansion,
                                      is_binding)
from repro.expansion.tables import build_tables
from repro.obs.tracer import Tracer, use_tracer
from repro.reasoner.satisfiability import Reasoner
from repro.workloads.generators import (clustered_schema, hierarchy_schema,
                                        random_schema)
from repro.workloads.query_workloads import taxonomy_schema

SEEDS = range(8)


def relational_schema(seed: int) -> Schema:
    """A random schema augmented with a binary relation over its classes."""
    schema = random_schema(6, seed=seed)
    names = sorted(schema.class_symbols)
    a, b = names[seed % len(names)], names[(seed + 1) % len(names)]
    classes = list(schema.class_definitions)
    classes.append(ClassDef("Anchor",
                            participates=[Part("Rel", "u", Card(1, 2))]))
    return Schema(classes, [
        RelationDef("Rel", ("u", "v"), [
            RoleClause(RoleLiteral("u", Lit(a) | Lit("Anchor"))),
            RoleClause(RoleLiteral("v", Lit(b))),
        ])])


# ----------------------------------------------------------------------
# Indexed lookups vs. the linear scans
# ----------------------------------------------------------------------
class TestEndpointIndexEquivalence:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_attribute_lookups_match_scans(self, seed):
        expansion = build_expansion(random_schema(6, seed=seed))
        scanning = replace(expansion, indexed=False)
        assert scanning.indexed is False
        for attr, compounds in expansion.compound_attributes.items():
            endpoints = ({ca.left for ca in compounds}
                         | {ca.right for ca in compounds}
                         | set(expansion.compound_classes))
            for members in endpoints:
                assert (expansion.attributes_with_left(attr, members)
                        == scanning.attributes_with_left(attr, members))
                assert (expansion.attributes_with_right(attr, members)
                        == scanning.attributes_with_right(attr, members))

    @pytest.mark.parametrize("seed", SEEDS)
    def test_relation_lookups_match_scans(self, seed):
        expansion = build_expansion(relational_schema(seed))
        scanning = replace(expansion, indexed=False)
        for relation, compounds in expansion.compound_relations.items():
            roles = expansion.schema.relation(relation).roles
            for role in roles:
                for members in expansion.compound_classes:
                    assert (expansion.relations_with_role(relation, role, members)
                            == scanning.relations_with_role(relation, role,
                                                            members))

    @pytest.mark.parametrize("seed", SEEDS)
    def test_lookup_sets_cover_all_compounds(self, seed):
        """Every compound attribute appears under exactly its endpoints."""
        expansion = build_expansion(random_schema(6, seed=seed))
        for attr, compounds in expansion.compound_attributes.items():
            recovered = set()
            for members in {ca.left for ca in compounds}:
                recovered.update(expansion.attributes_with_left(attr, members))
            assert recovered == set(compounds)


# ----------------------------------------------------------------------
# Memoized typing checks vs. the reference predicates
# ----------------------------------------------------------------------
class TestTypingMemoEquivalence:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_attribute_typing_matches_reference(self, seed):
        schema = random_schema(6, seed=seed)
        compounds = build_expansion(schema).compound_classes
        for attr in schema.attribute_symbols:
            typing = AttributeTyping(schema, attr)
            for left, right in product(compounds, compounds):
                candidate = CompoundAttribute(attr, left, right)
                assert typing.consistent(left, right) == \
                    is_consistent_compound_attribute(
                        schema, candidate, endpoints_consistent=True)

    @pytest.mark.parametrize("seed", SEEDS)
    def test_relation_typing_matches_reference(self, seed):
        schema = relational_schema(seed)
        compounds = build_expansion(schema).compound_classes
        for rdef in schema.relation_definitions:
            typing = RelationTyping(schema, rdef.name)
            for combo in product(compounds, repeat=rdef.arity):
                assignment = dict(zip(rdef.roles, combo))
                candidate = CompoundRelation(rdef.name, assignment)
                assert typing.consistent(assignment) == \
                    is_consistent_compound_relation(
                        schema, candidate, endpoints_consistent=True)


# ----------------------------------------------------------------------
# Binding-endpoint pruning vs. Definition 3.1 verbatim
# ----------------------------------------------------------------------
class TestPruningEquivalence:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_pruned_is_exactly_the_binding_slice(self, seed):
        """The pruned enumeration holds exactly the verbatim compound
        attributes with a binding endpoint — Definition 3.1 restricted by
        the ``is_binding`` rule, no more and no fewer."""
        schema = random_schema(6, seed=seed)
        pruned = build_expansion(schema)
        verbatim = build_expansion(schema, include_unconstrained=True)
        assert pruned.compound_classes == verbatim.compound_classes
        assert pruned.natt == verbatim.natt
        for attr in schema.attribute_symbols:
            from repro.core.schema import AttrRef
            direct, inverse = AttrRef(attr), AttrRef(attr, inverse=True)
            expected = {
                ca for ca in verbatim.compound_attributes.get(attr, ())
                if is_binding(verbatim.natt.get((ca.left, direct),
                                                Card(0, None)))
                or is_binding(verbatim.natt.get((ca.right, inverse),
                                                Card(0, None)))
            }
            assert set(pruned.compound_attributes.get(attr, ())) == expected

    @pytest.mark.parametrize("seed", SEEDS)
    def test_pruned_relations_are_exactly_the_binding_slice(self, seed):
        schema = relational_schema(seed)
        pruned = build_expansion(schema)
        verbatim = build_expansion(schema, include_unconstrained=True)
        for rdef in schema.relation_definitions:
            expected = {
                cr for cr in verbatim.compound_relations.get(rdef.name, ())
                if any(is_binding(verbatim.nrel.get(
                        (members, rdef.name, role), Card(0, None)))
                       for role, members in cr.assignment)
            }
            assert set(pruned.compound_relations.get(rdef.name, ())) == expected

    @pytest.mark.parametrize("seed", SEEDS)
    def test_no_duplicate_candidates(self, seed):
        """The union decomposition generates each relevant pair once."""
        schema = relational_schema(seed)
        expansion = build_expansion(schema)
        for compounds in expansion.compound_attributes.values():
            assert len(compounds) == len(set(compounds))
        for compounds in expansion.compound_relations.values():
            assert len(compounds) == len(set(compounds))

    @pytest.mark.parametrize("seed", SEEDS)
    def test_identical_verdicts_pruned_vs_verbatim(self, seed):
        """Satisfiability is decided identically over both expansions."""
        from repro.linear.support import acceptable_support

        schema = random_schema(5, seed=seed)
        verdicts = []
        for include in (False, True):
            expansion = build_expansion(schema,
                                        include_unconstrained=include)
            support = acceptable_support(expansion)
            populated = set(support.supported_compound_classes())
            verdicts.append({name: any(name in members for members in populated)
                             for name in sorted(schema.class_symbols)})
        assert verdicts[0] == verdicts[1]


# ----------------------------------------------------------------------
# One builder: a seeded build against the cold build
# ----------------------------------------------------------------------
SEEDED_FAMILIES = {
    "random": lambda seed: random_schema(6, seed=seed),
    "relational": relational_schema,
    "clustered": lambda seed: clustered_schema(4, 3, seed=seed),
    "hierarchy": lambda seed: hierarchy_schema(2, 3, with_attributes=True,
                                               seed=seed),
    "taxonomy": lambda seed: taxonomy_schema(
        *[(2, 1), (2, 2), (3, 1), (4, 1)][seed]),
}


def traced_build(schema, **kwargs):
    tracer = Tracer()
    with use_tracer(tracer):
        expansion = build_expansion(schema, **kwargs)
    return expansion, tracer


def cartesian_total(expansion) -> int:
    n = len(expansion.compound_classes)
    schema = expansion.schema
    return (len(schema.attribute_symbols) * n ** 2
            + sum(n ** rdef.arity for rdef in schema.relation_definitions))


class TestSeededBuildEquivalence:
    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("family", sorted(SEEDED_FAMILIES))
    def test_nothing_reused_is_the_cold_build(self, family, seed):
        """A build seeded with nothing reused is the cold build: the same
        compound objects in the same order, the same ``Natt``/``Nrel``
        entries, the same candidates examined."""
        schema = SEEDED_FAMILIES[family](seed)
        cold, cold_trace = traced_build(schema)
        seeded, seeded_trace = traced_build(schema, seed=ExpansionSeed(
            cold.compound_classes, frozenset(), cold))
        assert seeded.compound_classes == cold.compound_classes
        assert seeded.compound_attributes == cold.compound_attributes
        assert seeded.compound_relations == cold.compound_relations
        assert list(seeded.natt.items()) == list(cold.natt.items())
        assert list(seeded.nrel.items()) == list(cold.nrel.items())
        assert seeded.strategy == "strategic"
        for counter in ("candidates_examined", "candidates_pruned",
                        "memo_hits", "memo_misses"):
            assert (seeded_trace.counter(f"expansion.{counter}")
                    == cold_trace.counter(f"expansion.{counter}")), counter
        assert seeded_trace.counter("expansion.candidates_copied") == 0

    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("family", sorted(SEEDED_FAMILIES))
    def test_any_reused_subset_rebuilds_the_cold_expansion(self, family,
                                                           seed):
        """Seeded from the cold build of the same schema, any reused
        subset — with any touched relations — rebuilds the cold expansion:
        copies plus fresh probes generate each relevant candidate exactly
        once, and the counters partition the Cartesian space."""
        schema = SEEDED_FAMILIES[family](seed)
        cold = build_expansion(schema)
        rng = random.Random(seed)
        reused = frozenset(members for members in cold.compound_classes
                           if rng.random() < 0.6)
        touched = frozenset(rdef.name for rdef in schema.relation_definitions
                            if rng.random() < 0.5)
        seeded, tracer = traced_build(schema, seed=ExpansionSeed(
            cold.compound_classes, reused, cold, touched))
        assert seeded.natt == cold.natt and seeded.nrel == cold.nrel
        for kind in ("compound_attributes", "compound_relations"):
            built, expected = getattr(seeded, kind), getattr(cold, kind)
            assert built.keys() == expected.keys()
            for symbol, compounds in built.items():
                assert len(compounds) == len(set(compounds)), symbol
                assert set(compounds) == set(expected[symbol]), symbol
        examined = tracer.counter("expansion.candidates_examined")
        copied = tracer.counter("expansion.candidates_copied")
        pruned = tracer.counter("expansion.candidates_pruned")
        assert pruned >= 0
        assert examined + copied + pruned == cartesian_total(cold)
        assert copied == (
            sum(ca.left in reused and ca.right in reused
                for compounds in cold.compound_attributes.values()
                for ca in compounds)
            + sum(all(members in reused for _, members in cr.assignment)
                  for name, compounds in cold.compound_relations.items()
                  if name not in touched for cr in compounds))


# ----------------------------------------------------------------------
# Strategy and incremental-augmented equivalence
# ----------------------------------------------------------------------
def assert_same_tables(tables, reference):
    """Two preselection tables agree on every public fact."""
    for name in sorted(reference.schema.class_symbols):
        assert (tables.implied_literals(name)
                == reference.implied_literals(name)), name
    assert tables.empty_classes == reference.empty_classes
    assert tables.disjoint_pairs == reference.disjoint_pairs


def cross_cluster_formulas(schema: Schema) -> list[Formula]:
    names = sorted(schema.class_symbols)
    picked = [names[0], names[len(names) // 2], names[-1]]
    return [
        Formula((Clause((Lit(picked[0]),)), Clause((Lit(picked[1]),)))),
        Formula((Clause((Lit(picked[0]), Lit(picked[2]))),
                 Clause((Lit(picked[1], positive=False),)))),
        Formula((Clause((Lit(picked[2]),)),
                 Clause((Lit(picked[0], positive=False),)))),
    ]


class TestAugmentedEquivalence:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_formula_verdicts_naive_vs_incremental(self, seed):
        schema = clustered_schema(3, 2, seed=seed)
        naive = Reasoner(schema, config=EngineConfig(strategy="naive"))
        incremental = Reasoner(schema, config=EngineConfig(strategy="strategic"))
        for formula in cross_cluster_formulas(schema):
            expected = naive.is_formula_satisfiable(formula)
            assert incremental.is_formula_satisfiable(formula) == expected

    @pytest.mark.parametrize("seed", SEEDS)
    def test_augmented_reasoner_matches_cold_rebuild(self, seed):
        schema = clustered_schema(3, 2, seed=seed)
        base = Reasoner(schema, config=EngineConfig(strategy="strategic"))
        base.support  # build the pipeline so seeding applies
        probe = ClassDef(base.fresh_class_name("Probe"),
                         isa=next(iter(cross_cluster_formulas(schema))))
        seeded = base.augmented_with(probe)
        cold = Reasoner(schema.with_class(probe), config=EngineConfig(strategy="strategic"))
        assert seeded.pipeline.delta_stats["mode"] == "delta"  # reuse engaged
        assert (set(seeded.expansion.compound_classes)
                == set(cold.expansion.compound_classes))
        for name in sorted(schema.class_symbols) + [probe.name]:
            assert seeded.is_satisfiable(name) == cold.is_satisfiable(name)

    @pytest.mark.parametrize("seed", SEEDS)
    def test_attribute_and_participation_probes_match_cold(self, seed):
        """The probes implication queries add (a class forcing a link, or
        a participation) take the delta path and equal a cold build."""
        schema = relational_schema(seed)
        base = Reasoner(schema, config=EngineConfig(strategy="strategic"))
        base.support
        names = sorted(schema.class_symbols)
        refs = sorted(schema.attribute_refs(), key=str)
        probes = [ClassDef(base.fresh_class_name("QueryRole"),
                           isa=Lit(names[0]) | Lit(names[-1]),
                           participates=[Part("Rel", "v", Card(1, None))])]
        if refs:
            probes.append(ClassDef(
                base.fresh_class_name("QueryLink"), isa=Lit(names[1]),
                attributes=[Attr(refs[0], Card(1, None), ~Lit(names[2]))]))
        for probe in probes:
            seeded = base.augmented_with(probe)
            cold = Reasoner(schema.with_class(probe),
                            config=EngineConfig(strategy="strategic"))
            assert seeded.pipeline.delta_stats["mode"] == "delta"
            for kind in ("compound_classes", "compound_attributes",
                         "compound_relations"):
                mine, theirs = (getattr(r.expansion, kind)
                                for r in (seeded, cold))
                if isinstance(mine, dict):
                    mine = {k: set(v) for k, v in mine.items() if v}
                    theirs = {k: set(v) for k, v in theirs.items() if v}
                else:
                    mine, theirs = set(mine), set(theirs)
                assert mine == theirs, kind
            assert (set(seeded.supported_compound_classes())
                    == set(cold.supported_compound_classes()))
            for name in names + [probe.name]:
                assert seeded.is_satisfiable(name) == cold.is_satisfiable(name)

    @pytest.mark.parametrize("seed", SEEDS)
    def test_extended_tables_match_full_rebuild(self, seed):
        """Row reuse (``build_tables(previous=, changed=)``) equals a full
        build, for an added query class and for added, changed and removed
        definitions, each followed by a probe on the edited schema."""
        from repro.engine.delta import SchemaDelta

        from .test_delta import EDITS

        rng = random.Random(seed)
        for old in (random_schema(6, seed=seed),
                    clustered_schema(3, 3, seed=seed),
                    hierarchy_schema(2, 3, seed=seed)):
            old_tables = build_tables(old)
            for edit in EDITS:
                new = edit(old, rng)
                delta = SchemaDelta.between(old, new)
                reused = build_tables(new, previous=old_tables,
                                      changed=delta.changed_classes)
                assert_same_tables(reused, build_tables(new))
                name = Reasoner(new).fresh_class_name("Probe")
                for formula in cross_cluster_formulas(new):
                    probed = new.with_class(ClassDef(name, isa=formula))
                    assert_same_tables(
                        build_tables(probed, previous=reused),
                        build_tables(probed))

    def test_empty_class_row_is_recomputed_across_clusters(self):
        """A provably empty class sits alone in ``G_S``, yet its row reads
        other clusters' definitions: reusing rows per untouched cluster
        would keep ``N1``'s stale ``not N6``.  Reuse goes by the closure."""
        from repro.engine.delta import SchemaDelta
        from repro.parser.parser import parse_schema

        old = parse_schema(
            "class Root isa N2 and not N6 endclass "
            "class N1 isa not N2 and Root endclass "
            "class N2 isa not N1 and Root endclass")
        new = parse_schema(
            "class Root isa N2 endclass "
            "class N1 isa not N2 and Root endclass "
            "class N2 isa not N1 and Root endclass")
        old_tables = build_tables(old)
        assert "N1" in old_tables.empty_classes
        assert set(Reasoner(old).clusters()) == {
            frozenset({"N1"}), frozenset({"N2", "Root"}),
            frozenset({"N6"})}
        assert frozenset({"N1"}) in Reasoner(new).clusters()
        delta = SchemaDelta.between(old, new)
        assert delta.changed_classes == {"Root"}
        reused = build_tables(new, previous=old_tables,
                              changed=delta.changed_classes)
        assert Lit("N6", positive=False) not in reused.implied_literals("N1")
        assert_same_tables(reused, build_tables(new))

    def test_verdict_cache_is_lru_bounded(self, monkeypatch):
        from repro.reasoner import satisfiability

        # A bound below the number of distinct formulas, so it binds.
        monkeypatch.setattr(satisfiability, "AUGMENTED_CACHE_LIMIT", 4)
        schema = clustered_schema(2, 2, seed=3)
        reasoner = Reasoner(schema, config=EngineConfig(strategy="strategic"))
        limit = satisfiability.AUGMENTED_CACHE_LIMIT
        names = sorted(schema.class_symbols)
        # Synthesize more distinct cross-cluster formulas than the cache
        # holds: (A_i ∧ B_j) over distinct cluster pairs, padded by repeats.
        formulas = []
        for i in range(limit + 16):
            formulas.append(Formula((
                Clause((Lit(names[0]),)),
                Clause((Lit(names[-1]), Lit(names[i % len(names)]))),
                Clause((Lit(names[(i // len(names)) % len(names)],
                            positive=False), Lit(names[0]))),
            )))
        distinct = list(dict.fromkeys(formulas))
        *filling, extra = distinct
        assert len(filling) > limit
        for formula in filling:
            reasoner._augmented_satisfiable(formula)
        assert len(reasoner._augmented_cache) == limit
        # A hit refreshes the oldest entry, so the next miss evicts the
        # one after it instead.
        oldest, second = filling[-limit], filling[-limit + 1]
        reasoner._augmented_satisfiable(oldest)
        reasoner._augmented_satisfiable(extra)
        assert reasoner._augmented_cache.get(second) is None
        assert reasoner._augmented_cache.get(oldest) is not None

    def test_verdict_cache_is_thread_safe(self, monkeypatch, race):
        """Service threads share a reasoner, and the service's tracer:
        verdict lookups must survive evictions by other threads (a cache
        of two, three formulas)."""
        from repro.reasoner import satisfiability

        monkeypatch.setattr(satisfiability, "AUGMENTED_CACHE_LIMIT", 2)
        schema = clustered_schema(2, 2, seed=3)
        reasoner = Reasoner(schema, config=EngineConfig(strategy="strategic"))
        names = sorted(schema.class_symbols)
        formulas = [Formula((Clause((Lit(names[0]),)),
                             Clause((Lit(names[-1]), Lit(name)))))
                    for name in names[1:4]]

        tracer = Tracer()

        def work(offset: int) -> None:
            with use_tracer(tracer):
                for step in range(400):
                    reasoner._augmented_satisfiable(
                        formulas[(offset + step) % len(formulas)])

        assert race(work) == []
        assert len(reasoner._augmented_cache) == 2


# ----------------------------------------------------------------------
# The cumulative size_limit guard
# ----------------------------------------------------------------------
class TestCumulativeSizeLimit:
    def attribute_heavy_schema(self) -> Schema:
        # 3 pairwise-compatible classes sharing one attribute: few compound
        # classes, many compound attributes.
        return Schema([
            ClassDef("A", attributes=[Attr("link", Card(1, 1))]),
            ClassDef("B", attributes=[Attr("link", Card(1, 2))]),
            ClassDef("C", attributes=[Attr(inv("link"), Card(0, 4))]),
        ])

    def test_limit_counts_classes(self):
        from repro.core.errors import ReasoningError

        classes = [ClassDef(f"C{i}") for i in range(12)]
        with pytest.raises(ReasoningError):
            build_expansion(Schema(classes), "naive", size_limit=100)

    def test_limit_is_cumulative_over_all_compound_objects(self):
        from repro.core.errors import ReasoningError

        schema = self.attribute_heavy_schema()
        unlimited = build_expansion(schema)
        total = unlimited.size()
        n_classes = len(unlimited.compound_classes)
        # The class count alone fits, the running total does not: the old
        # per-attribute guard missed exactly this case.
        assert n_classes < total - 1
        with pytest.raises(ReasoningError):
            build_expansion(schema, size_limit=total - 1)
        assert build_expansion(schema, size_limit=total).size() == total

    def test_limit_spans_multiple_attributes(self):
        from repro.core.errors import ReasoningError

        # Two attributes with a handful of compound attributes each: each
        # per-attribute count stays below the limit, the total exceeds it.
        schema = Schema([
            ClassDef("A", attributes=[Attr("x", Card(1, 1)),
                                      Attr("y", Card(1, 1))]),
            ClassDef("B"),
        ])
        unlimited = build_expansion(schema)
        per_attr = {attr: len(v)
                    for attr, v in unlimited.compound_attributes.items()}
        limit = len(unlimited.compound_classes) + max(per_attr.values())
        assert limit < unlimited.size()
        with pytest.raises(ReasoningError):
            build_expansion(schema, size_limit=limit)
