"""Equivalence guarantees for the indexed expansion pipeline.

The throughput optimizations — endpoint indexes, binding-endpoint pruning,
memoized typing checks, incremental augmented queries, incremental table
extension — must never change any answer.  This suite pins each of them
against its reference implementation on randomized seeded schemas from
:mod:`repro.workloads.generators` (property-style: many seeds, exact
comparisons).
"""

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
from repro.expansion.expansion import build_expansion, is_binding
from repro.expansion.tables import build_tables
from repro.reasoner.satisfiability import Reasoner
from repro.workloads.generators import clustered_schema, random_schema

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
# Strategy and incremental-augmented equivalence
# ----------------------------------------------------------------------
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
        full = Reasoner(schema, config=EngineConfig(
            strategy="strategic", incremental_augmented=False))
        for formula in cross_cluster_formulas(schema):
            expected = naive.is_formula_satisfiable(formula)
            assert incremental.is_formula_satisfiable(formula) == expected
            assert full.is_formula_satisfiable(formula) == expected

    @pytest.mark.parametrize("seed", SEEDS)
    def test_augmented_reasoner_matches_cold_rebuild(self, seed):
        schema = clustered_schema(3, 2, seed=seed)
        base = Reasoner(schema, config=EngineConfig(strategy="strategic"))
        base.support  # build the pipeline so seeding applies
        probe = ClassDef(base.fresh_class_name("Probe"),
                         isa=next(iter(cross_cluster_formulas(schema))))
        seeded = base.augmented_with(probe)
        cold = Reasoner(schema.with_class(probe), config=EngineConfig(strategy="strategic"))
        assert seeded._precomputed_classes is not None  # fast path engaged
        assert (set(seeded.expansion.compound_classes)
                == set(cold.expansion.compound_classes))
        for name in sorted(schema.class_symbols) + [probe.name]:
            assert seeded.is_satisfiable(name) == cold.is_satisfiable(name)

    @pytest.mark.parametrize("seed", SEEDS)
    def test_extended_tables_match_full_rebuild(self, seed):
        schema = random_schema(6, seed=seed)
        base_tables = build_tables(schema)
        reasoner = Reasoner(schema)
        name = reasoner.fresh_class_name("Probe")
        for formula in cross_cluster_formulas(schema):
            augmented = schema.with_class(ClassDef(name, isa=formula))
            extended = base_tables.extended_with(augmented, name)
            rebuilt = build_tables(augmented)
            assert extended._implied == rebuilt._implied
            assert extended.empty_classes == rebuilt.empty_classes
            assert extended.disjoint_pairs == rebuilt.disjoint_pairs

    def test_extended_with_rejects_existing_class(self):
        schema = random_schema(4, seed=0)
        tables = build_tables(schema)
        name = sorted(schema.class_symbols)[0]
        with pytest.raises(ValueError):
            tables.extended_with(schema, name)

    def test_verdict_cache_is_lru_bounded(self):
        schema = clustered_schema(2, 2, seed=3)
        reasoner = Reasoner(schema, config=EngineConfig(strategy="strategic"))
        limit = reasoner.config.augmented_cache_limit
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
        for formula in distinct:
            reasoner._augmented_satisfiable(formula)
        assert len(reasoner._augmented_cache) <= limit
        # A cached verdict is reused (hit keeps the entry at the MRU end).
        last = distinct[-1]
        assert last in reasoner._augmented_cache
        reasoner._augmented_satisfiable(last)
        assert next(reversed(reasoner._augmented_cache)) == last


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
