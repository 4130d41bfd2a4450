"""Property-based cross-validation of the reasoner against the brute-force
oracle, plus the meta-theorems the strategies rely on.

These are the most important tests in the suite: they compare the paper's
two-phase decision procedure (expansion + linear disequations) with an
independent exhaustive model search on hypothesis-generated schemas.

The comparison is necessarily one-sided in one direction — the oracle only
refutes models up to its size bound — so we check:

* oracle finds a model  ⇒  the reasoner reports satisfiable (completeness);
* the reasoner reports unsatisfiable  ⇒  the oracle finds nothing
  (soundness of "unsatisfiable", the contrapositive of the above, stated
  separately to catch both failure modes in reporting);
* strategy invariance: naive, strategic, exact-LP and float-LP pipelines
  all give identical verdicts;
* Theorem 4.6: imposing cross-cluster disjointness preserves every verdict.
"""

from hypothesis import HealthCheck, example, given, settings, strategies as st

from repro.core.cardinality import Card
from repro.core.formulas import Clause, Formula, Lit
from repro.core.schema import Attr, AttrRef, ClassDef, Schema, inv
from repro.engine.config import EngineConfig
from repro.expansion.graph import impose_cluster_disjointness
from repro.reasoner.satisfiability import Reasoner
from repro.semantics.bruteforce import brute_force_find_model
from repro.semantics.checker import is_model

from .dense_reference import DenseReference

CLASS_NAMES = ("A", "B", "C")

literals = st.builds(Lit,
                     st.sampled_from(CLASS_NAMES),
                     st.booleans())
clauses = st.lists(literals, min_size=1, max_size=2).map(
    lambda lits: Clause(tuple(lits)))
formulas = st.lists(clauses, min_size=0, max_size=2).map(
    lambda cs: Formula(tuple(cs)))

cards = st.sampled_from([
    Card(0, 0), Card(0, 1), Card(1, 1), Card(1, 2), Card(2, 2), Card(0, None),
])

attr_specs = st.builds(
    Attr,
    st.sampled_from([AttrRef("a"), inv("a")]),
    cards,
    st.sampled_from([Lit(name) for name in CLASS_NAMES]
                    + [~Lit(name) for name in CLASS_NAMES]),
)


@st.composite
def small_schemas(draw) -> Schema:
    """Schemas over three classes and one attribute, sized for the oracle."""
    class_defs = []
    for name in CLASS_NAMES:
        isa = draw(formulas)
        n_attrs = draw(st.integers(0, 1))
        attrs = []
        if n_attrs:
            spec = draw(attr_specs)
            attrs.append(spec)
        class_defs.append(ClassDef(name, isa, attrs))
    return Schema(class_defs)


ORACLE_SIZE = 2


def oracle_and_reasoner(schema: Schema, target: str):
    model = brute_force_find_model(schema, target, max_size=ORACLE_SIZE)
    reasoner = Reasoner(schema)
    return model, reasoner.is_satisfiable(target)


#: ``C`` is disjoint from ``A`` but each instance is the ``a``-filler of an
#: ``A``, so a ``B``: a model is ``A={o1}``, ``B=C={o2}``, ``a={(o1,o2)}``.
#: The strategic pipeline must not cluster ``C`` alone, although its only
#: criterion-2 arc, to ``A``, is dropped as disjoint.
INVERSE_FILLER_SCHEMA = Schema([
    ClassDef("A", Formula(()), [Attr("a", Card(0, 1), Lit("B"))]),
    ClassDef("B", Formula(())),
    ClassDef("C", Formula((Clause((~Lit("A"),)),)),
             [Attr(inv("a"), Card(1, 1), Lit("A"))]),
])


def test_inverse_filler_class_is_satisfiable():
    model = brute_force_find_model(INVERSE_FILLER_SCHEMA, "C",
                                   max_size=ORACLE_SIZE)
    assert model is not None and is_model(model, INVERSE_FILLER_SCHEMA)
    for strategy in ("naive", "strategic"):
        for backend in ("auto", "exact-sparse", "float-fallback"):
            reasoner = Reasoner(INVERSE_FILLER_SCHEMA, config=EngineConfig(
                strategy=strategy, lp_backend=backend))
            assert reasoner.is_satisfiable("C"), (strategy, backend)


@settings(max_examples=120, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(small_schemas(), st.sampled_from(CLASS_NAMES))
def test_reasoner_complete_wrt_oracle(schema, target):
    """Any model the oracle finds certifies satisfiability: the reasoner
    must agree."""
    model, verdict = oracle_and_reasoner(schema, target)
    if model is not None:
        assert is_model(model, schema)
        assert verdict, (
            f"oracle found a model for {target} but the reasoner said "
            f"unsatisfiable:\n{model.summary()}")


@settings(max_examples=120, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(small_schemas(), st.sampled_from(CLASS_NAMES))
@example(INVERSE_FILLER_SCHEMA, "C")
def test_unsat_verdicts_have_no_small_countermodel(schema, target):
    model, verdict = oracle_and_reasoner(schema, target)
    if not verdict:
        assert model is None


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(small_schemas(), st.sampled_from(CLASS_NAMES))
@example(INVERSE_FILLER_SCHEMA, "C")
def test_strategies_agree(schema, target):
    naive = Reasoner(schema, config=EngineConfig(strategy="naive")).is_satisfiable(target)
    strategic = Reasoner(schema, config=EngineConfig(strategy="strategic")).is_satisfiable(target)
    assert naive == strategic


@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(small_schemas(), st.sampled_from(CLASS_NAMES))
def test_lp_backends_agree(schema, target):
    from repro.expansion.expansion import build_expansion
    from repro.linear.support import acceptable_support

    expansion = build_expansion(schema)
    exact = acceptable_support(expansion, backend=DenseReference())
    floaty = acceptable_support(expansion, backend="float-fallback")
    assert exact.support == floaty.support


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(small_schemas(), st.sampled_from(CLASS_NAMES))
def test_theorem_4_6_preserves_satisfiability(schema, target):
    """Imposing disjointness between disconnected classes (Theorem 4.6)
    must not change any satisfiability verdict."""
    original = Reasoner(schema, config=EngineConfig(strategy="naive")).is_satisfiable(target)
    modified_schema = impose_cluster_disjointness(schema)
    modified = Reasoner(modified_schema, config=EngineConfig(strategy="naive")).is_satisfiable(target)
    assert original == modified


@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(small_schemas())
def test_expansion_verbatim_agrees_with_filtered(schema):
    """Materializing unconstrained compound objects (Definition 3.1
    verbatim) must not change which compound classes are supported."""
    from repro.expansion.expansion import build_expansion
    from repro.linear.support import acceptable_support

    filtered = acceptable_support(build_expansion(schema))
    verbatim = acceptable_support(
        build_expansion(schema, include_unconstrained=True))
    assert (set(map(frozenset, filtered.supported_compound_classes()))
            == set(map(frozenset, verbatim.supported_compound_classes())))


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(small_schemas(), st.sampled_from(CLASS_NAMES),
       st.sampled_from(CLASS_NAMES))
def test_implication_agrees_across_strategies(schema, c1, c2):
    """The naive strategy enumerates every subset, so its implication
    verdicts are ground truth; the strategic pipeline (clusters + augmented
    cross-cluster queries) must agree.

    This is the regression test for the Theorem 4.6 subtlety: imposing
    cross-cluster disjointness preserves satisfiability but NOT implication,
    so implication queries must route around the cluster restriction.
    """
    from repro.reasoner.implication import implied_disjoint, implied_subsumption

    naive = Reasoner(schema, config=EngineConfig(strategy="naive"))
    strategic = Reasoner(schema, config=EngineConfig(strategy="strategic"))
    assert (implied_disjoint(naive, c1, c2)
            == implied_disjoint(strategic, c1, c2))
    assert (implied_subsumption(naive, c1, c2)
            == implied_subsumption(strategic, c1, c2))


@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(small_schemas(), st.sampled_from(CLASS_NAMES))
def test_attribute_filler_implication_agrees_across_strategies(schema, name):
    from repro.core.schema import AttrRef
    from repro.reasoner.implication import implied_attribute_filler

    target = Lit(name)
    naive = Reasoner(schema, config=EngineConfig(strategy="naive"))
    strategic = Reasoner(schema, config=EngineConfig(strategy="strategic"))
    assert (implied_attribute_filler(naive, name, AttrRef("a"), target)
            == implied_attribute_filler(strategic, name, AttrRef("a"), target))
    negated = ~Lit(name)
    assert (implied_attribute_filler(naive, name, AttrRef("a"), negated)
            == implied_attribute_filler(strategic, name, AttrRef("a"), negated))
