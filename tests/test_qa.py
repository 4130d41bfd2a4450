"""Tests for the conjunctive-query answering subsystem (``repro.qa``).

The load-bearing piece is the differential suite: on randomized
positive-Horn schemas and databases, the rewriting route
(:class:`QueryRewriter` + :func:`certain_answers`) must agree with two
independent oracles —

* a **chase** oracle that saturates the database into the canonical
  model (class propagation, role-constraint typing, fresh witnesses for
  mandatory participations) and evaluates the query directly, and
* on a small handcrafted schema, **brute-force model enumeration** over
  a bounded universe.

The random corpus deliberately stays inside the positive fragment
(acyclic conjunctive ``isa``, single-literal role clauses, lower-bound
cards only, no attributes): there the chase is a universal model, so
its answers *are* the certain answers.  Attributes and inconsistency
are covered by handcrafted cases instead — the rewriter eliminates
mandatory attribute atoms but has no attribute-filler-typing
specialization rule, so chase-derived filler memberships would be a
known scope boundary, not a bug.

Plain evaluation alone (:func:`evaluate_disjuncts`, the indexed join)
has its own differential against trying every assignment of the body
variables over the universe.
"""

import collections
import itertools
import json
import random
import threading
import time

import pytest

from repro.core.budget import Budget, use_budget
from repro.core.errors import BudgetExceeded, ParseError, SchemaError
from repro.engine import EngineConfig
from repro.engine.session import SchemaSession
from repro.obs.tracer import Tracer, use_tracer
from repro.parser.parser import parse_schema
from repro.qa import (
    AttributeAtom,
    ClassAtom,
    ConjunctiveQuery,
    Const,
    QueryRewriter,
    QueryValidationError,
    RelationAtom,
    Var,
    certain_answers,
    database_from_document,
    evaluate_disjuncts,
    parse_query,
    render_query,
)
from repro.qa.ast import canonical_query
from repro.reasoner.satisfiability import Reasoner
from repro.semantics.database import Database
from repro.semantics.interpretation import Interpretation, LabeledTuple
from repro.workloads.query_workloads import (
    chain_queries,
    sample_database,
    taxonomy_schema,
)

NAIVE = EngineConfig(strategy="naive")


def _rewriter_for(schema, config=NAIVE):
    reasoner = Reasoner(schema, config=config)
    return reasoner, QueryRewriter(reasoner.pipeline.closure_index())


WORK_SCHEMA_SOURCE = """
    class Person endclass
    class Employee isa Person
        participates in WorksFor[emp] : (1, *)
    endclass
    class Dept endclass
    relation WorksFor(emp, dept)
        constraints (emp : Employee); (dept : Dept)
    endrelation
"""


@pytest.fixture(scope="module")
def work_schema():
    return parse_schema(WORK_SCHEMA_SOURCE)


@pytest.fixture(scope="module")
def work_rewriter(work_schema):
    return _rewriter_for(work_schema)


def _work_database(schema):
    db = Database(schema)
    db.insert("alice", "Employee")
    db.insert("bob")
    db.insert("d0", "Dept")
    db.add_tuple("WorksFor", emp="bob", dept="d0")
    return db


# ----------------------------------------------------------------------
# Parser: round-trips and typed errors
# ----------------------------------------------------------------------
class TestParserRoundTrip:
    def test_render_parse_round_trip(self, work_schema):
        source = "q(x, y) :- WorksFor(x, y), Person(x), Dept(y)"
        query = parse_query(source, work_schema)
        again = parse_query(render_query(query), work_schema)
        assert canonical_query(again) == canonical_query(query)

    def test_variable_renaming_is_canonicalized_away(self, work_schema):
        a = parse_query("q(u) :- Person(u), WorksFor(u, v)", work_schema)
        b = parse_query("q(n) :- WorksFor(n, m), Person(n)", work_schema)
        assert canonical_query(a) == canonical_query(b)

    def test_constants_and_comments(self, work_schema):
        query = parse_query(
            '# who works in d0?\nq(x) :- WorksFor(x, "d0")', work_schema)
        assert not query.is_boolean
        assert 'WorksFor(x, "d0")' in render_query(query)

    def test_boolean_true_body(self, work_schema):
        query = parse_query("q() :- true", work_schema)
        assert query.is_boolean
        assert query.atoms == ()


class TestParserErrors:
    def test_syntax_error_is_parse_error(self, work_schema):
        with pytest.raises(ParseError):
            parse_query("q(x) :- Person(x", work_schema)

    def test_head_constant_is_parse_error(self, work_schema):
        with pytest.raises(ParseError, match="head terms must be variables"):
            parse_query('q("alice") :- Person("alice")', work_schema)

    def test_unknown_symbol_is_validation_error(self, work_schema):
        with pytest.raises(QueryValidationError, match="Martian"):
            parse_query("q(x) :- Martian(x)", work_schema)

    def test_arity_mismatch_is_validation_error(self, work_schema):
        with pytest.raises(QueryValidationError):
            parse_query("q(x) :- WorksFor(x)", work_schema)

    def test_unsafe_head_is_validation_error(self, work_schema):
        with pytest.raises(QueryValidationError,
                           match="does not occur in the query body"):
            parse_query("q(x, y) :- Person(x)", work_schema)

    def test_validation_error_is_a_schema_error(self, work_schema):
        # so the CLI maps it onto sysexit 65 like every other input error
        with pytest.raises(SchemaError):
            parse_query("q(x) :- Martian(x)", work_schema)


# ----------------------------------------------------------------------
# Rewriter: handcrafted specialization / elimination cases
# ----------------------------------------------------------------------
def _single_class_disjuncts(result):
    """Names of disjuncts that are a single class atom over the head var."""
    names = set()
    for disjunct in result.disjuncts:
        if len(disjunct.atoms) == 1 and isinstance(disjunct.atoms[0],
                                                   ClassAtom):
            names.add(disjunct.atoms[0].name)
    return names


class TestRewriterHandcrafted:
    def test_subclass_and_role_specialization(self, work_rewriter, work_schema):
        _, rewriter = work_rewriter
        result = rewriter.rewrite(parse_query("q(x) :- Person(x)",
                                              work_schema))
        # Person(x) specializes to its subclass and to the relation whose
        # emp-fillers are certainly Employees (hence Persons).
        assert {"Person", "Employee"} <= _single_class_disjuncts(result)
        assert any(atom.name == "WorksFor"
                   for disjunct in result.disjuncts
                   for atom in disjunct.atoms)

    def test_mandatory_participation_elimination(self, work_rewriter,
                                                 work_schema):
        _, rewriter = work_rewriter
        result = rewriter.rewrite(parse_query("q(x) :- WorksFor(x, y)",
                                              work_schema))
        # y is an unshared existential: the atom can be dropped in favour
        # of the class whose instances all participate at emp.
        assert "Employee" in _single_class_disjuncts(result)

    def test_shared_variable_blocks_naive_elimination(self, work_rewriter,
                                                      work_schema):
        _, rewriter = work_rewriter
        result = rewriter.rewrite(
            parse_query("q(x, y) :- WorksFor(x, y)", work_schema))
        # y is distinguished — every disjunct must still bind it.
        for disjunct in result.disjuncts:
            assert any(atom.name == "WorksFor" for atom in disjunct.atoms)

    def test_mandatory_attribute_elimination(self):
        schema = parse_schema("""
            class Course attributes taught_by : (1, *) Prof endclass
            class Prof endclass
        """)
        _, rewriter = _rewriter_for(schema)
        result = rewriter.rewrite(parse_query("q(x) :- taught_by(x, y)",
                                              schema))
        assert "Course" in _single_class_disjuncts(result)

    def test_rewrite_cache_round_trip(self, work_schema):
        _, rewriter = _rewriter_for(work_schema)
        query = parse_query("q(x) :- Person(x)", work_schema)
        cold = rewriter.rewrite(query)
        warm = rewriter.rewrite(
            parse_query("q(z) :- Person(z)", work_schema))
        assert not cold.cached and warm.cached
        assert [render_query(d) for d in warm.disjuncts] == \
               [render_query(d) for d in cold.disjuncts]

    def test_rewrite_cache_is_thread_safe(self, work_schema, race):
        """Service threads share a schema's rewriter: lookups must survive
        evictions by other threads (a cache of two, three queries)."""
        reasoner = Reasoner(work_schema, config=NAIVE)
        rewriter = QueryRewriter(reasoner.pipeline.closure_index(),
                                 cache_limit=2)
        queries = [parse_query(text, work_schema) for text in (
            "q(x) :- Person(x)", "q(x) :- Dept(x)", "q(x) :- Employee(x)")]

        def work(offset: int) -> None:
            for step in range(2000):
                rewriter.rewrite(queries[(offset + step) % len(queries)])

        assert race(work) == []
        assert len(rewriter._cache) == 2


# ----------------------------------------------------------------------
# Certain answers: handcrafted end-to-end cases
# ----------------------------------------------------------------------
class TestCertainAnswersHandcrafted:
    def _answer(self, source, schema, rewriter_pair, database):
        reasoner, rewriter = rewriter_pair
        query = parse_query(source, schema)
        return certain_answers(rewriter, query, database, reasoner=reasoner)

    def test_role_constraint_types_asserted_fillers(self, work_schema,
                                                    work_rewriter):
        db = _work_database(work_schema)
        answer = self._answer("q(x) :- Person(x)", work_schema,
                              work_rewriter, db)
        # bob is never asserted a Person, but he fills emp in an asserted
        # tuple, and emp-fillers are certainly Employees ⊑ Person.
        assert {row[0] for row in answer.answers} == {"alice", "bob"}

    def test_mandatory_participation_yields_unasserted_answer(
            self, work_schema, work_rewriter):
        db = _work_database(work_schema)
        answer = self._answer("q(x) :- WorksFor(x, y)", work_schema,
                              work_rewriter, db)
        # alice has no asserted tuple, but every model gives her one.
        assert {row[0] for row in answer.answers} == {"alice", "bob"}

    def test_boolean_entailment_and_refutation(self, work_schema,
                                               work_rewriter):
        db = _work_database(work_schema)
        assert self._answer("q() :- WorksFor(x, y)", work_schema,
                            work_rewriter, db).boolean is True
        # d0 *may* be an Employee in some model, but not in every model.
        assert self._answer("q() :- Dept(x), Employee(x)", work_schema,
                            work_rewriter, db).boolean is False

    def test_constant_restricts_answers(self, work_schema, work_rewriter):
        db = _work_database(work_schema)
        answer = self._answer('q(x) :- WorksFor(x, "d0")', work_schema,
                              work_rewriter, db)
        # the mandatory-participation disjunct cannot apply (the dept end
        # is pinned to a constant), so only the asserted tuple answers.
        assert {row[0] for row in answer.answers} == {"bob"}

    def test_mandatory_attribute_boolean(self):
        schema = parse_schema("""
            class Course attributes taught_by : (1, *) Prof endclass
            class Prof endclass
        """)
        pair = _rewriter_for(schema)
        db = Database(schema)
        db.insert("c1", "Course")
        answer = self._answer("q(x) :- taught_by(x, y)", schema, pair, db)
        assert {row[0] for row in answer.answers} == {"c1"}
        assert self._answer("q() :- taught_by(x, y)", schema, pair,
                            db).boolean is True

    def test_inconsistent_database_makes_everything_certain(self):
        schema = parse_schema("class A isa not B endclass class B endclass")
        pair = _rewriter_for(schema)
        db = Database(schema)
        db.insert("x", "A", "B")
        db.insert("y")
        open_answer = self._answer("q(u) :- B(u)", schema, pair, db)
        assert open_answer.inconsistent
        assert {row[0] for row in open_answer.answers} == {"x", "y"}
        assert self._answer("q() :- A(u), B(u)", schema, pair,
                            db).boolean is True

    def test_empty_database_open_query_is_empty(self, work_schema,
                                                work_rewriter):
        answer = self._answer("q(x) :- Person(x)", work_schema,
                              work_rewriter, Database(work_schema))
        assert answer.answers == ()
        assert not answer.inconsistent


# ----------------------------------------------------------------------
# Evaluation: the indexed join against a brute-force reference
# ----------------------------------------------------------------------
#: Relation symbol → declared roles, deliberately not in sorted order
#: (labeled tuples store their roles sorted).
EVAL_RELATIONS = {"R": ("to", "from"), "S": ("c", "a", "b")}
EVAL_OBJECTS = ("o0", "o1", "o2", "o3")
EVAL_VARS = tuple(Var(name) for name in "xyzw")


def _random_interpretation(rng):
    classes = {name: {obj for obj in EVAL_OBJECTS if rng.random() < 0.5}
               for name in ("A", "B")}
    attributes = {"f": {(rng.choice(EVAL_OBJECTS), rng.choice(EVAL_OBJECTS))
                        for _ in range(rng.randint(0, 6))}}
    relations = {
        name: {LabeledTuple({role: rng.choice(EVAL_OBJECTS)
                             for role in roles})
               for _ in range(rng.randint(0, 7))}
        for name, roles in EVAL_RELATIONS.items()}
    return Interpretation(EVAL_OBJECTS, classes, attributes, relations)


def _random_eval_query(rng, seen):
    """A random CQ over the evaluation alphabet; ``seen`` counts the
    features the differential must cover."""
    def term():
        if rng.random() < 0.15:
            seen["constant"] += 1
            # "zz" names no object of the universe.
            return Const(rng.choice(EVAL_OBJECTS + ("zz",)))
        return rng.choice(EVAL_VARS)

    atoms = []
    for _ in range(rng.randint(1, 4)):
        kind = rng.choice(("class", "attribute", "R", "S"))
        if kind == "class":
            atom = ClassAtom(rng.choice(("A", "B")), term())
        elif kind == "attribute":
            seen["attribute"] += 1
            atom = AttributeAtom("f", term(), term())
        else:
            roles = EVAL_RELATIONS[kind]
            if kind == "S" and rng.random() < 0.5:
                seen["permuted roles"] += 1
                roles = tuple(rng.sample(roles, len(roles)))
            atom = RelationAtom(kind, roles,
                                tuple(term() for _ in roles))
        variables = [t for t in atom.terms() if isinstance(t, Var)]
        if len(set(variables)) < len(variables):
            seen["repeated variable"] += 1
        atoms.append(atom)
    body = list(dict.fromkeys(t for atom in atoms for t in atom.terms()
                              if isinstance(t, Var)))
    head = tuple(rng.sample(body, rng.randint(0, min(2, len(body)))))
    if not head:
        seen["boolean"] += 1
    if _disconnected(atoms):
        seen["disconnected"] += 1
    return ConjunctiveQuery(head, tuple(atoms))


def _disconnected(atoms):
    """Do the atoms fall into several groups sharing no variable?"""
    groups = []
    for atom in atoms:
        variables = {t for t in atom.terms() if isinstance(t, Var)}
        joined = [g for g in groups if g & variables]
        groups = [g for g in groups if not g & variables]
        groups.append(variables.union(*joined))
    return len(groups) > 1


def _brute_force(query, interpretation):
    """Every assignment of the body variables over the universe that
    makes every atom true, projected onto the head."""
    variables = sorted({t for atom in query.atoms for t in atom.terms()
                        if isinstance(t, Var)}, key=str)
    universe = sorted(interpretation.universe)

    def value(term, assignment):
        return term.value if isinstance(term, Const) else assignment[term]

    def holds(atom, assignment):
        values = [value(t, assignment) for t in atom.terms()]
        if isinstance(atom, ClassAtom):
            return values[0] in interpretation.class_ext(atom.name)
        if isinstance(atom, AttributeAtom):
            return tuple(values) in interpretation.attribute_ext(atom.name)
        return (LabeledTuple(dict(zip(atom.roles, values)))
                in interpretation.relation_ext(atom.name))

    answers = set()
    for values in itertools.product(universe, repeat=len(variables)):
        assignment = dict(zip(variables, values))
        if all(holds(atom, assignment) for atom in query.atoms):
            answers.add(tuple(assignment[var] for var in query.head))
    return answers


class TestEvaluationDifferential:
    def test_indexed_join_matches_brute_force(self):
        rng = random.Random(2718)
        seen = collections.Counter()
        for case in range(2000):
            interpretation = _random_interpretation(rng)
            union = [_random_eval_query(rng, seen)
                     for _ in range(rng.randint(1, 3))]
            expected = set().union(*(_brute_force(query, interpretation)
                                     for query in union))
            assert evaluate_disjuncts(union, interpretation) == expected, (
                case, [render_query(query) for query in union])
        for feature in ("constant", "attribute", "permuted roles",
                        "repeated variable", "boolean", "disconnected"):
            assert seen[feature] >= 100, (feature, seen)

    def test_step_budget_trips_inside_evaluation(self):
        schema = taxonomy_schema(2, 2)
        _, rewriter = _rewriter_for(schema)
        source = chain_queries(schema, 5, 2, seed=3)[0]
        rewrite = rewriter.rewrite(parse_query(source, schema))
        snapshot = database_from_document(
            schema, sample_database(schema, 1600, seed=1)).snapshot()
        budget = Budget(max_steps=1000)
        with use_budget(budget), pytest.raises(BudgetExceeded):
            evaluate_disjuncts(rewrite.disjuncts, snapshot)
        assert budget.steps > 1000


class TestCertainAnswersPasses:
    def test_one_snapshot_per_call(self, work_schema, work_rewriter,
                                   monkeypatch):
        calls = []
        snapshot = Database.snapshot
        monkeypatch.setattr(Database, "snapshot", lambda db: (
            calls.append(db), snapshot(db))[1])
        reasoner, rewriter = work_rewriter
        certain_answers(rewriter, parse_query("q(x) :- Person(x)",
                                              work_schema),
                        _work_database(work_schema), reasoner=reasoner)
        assert len(calls) == 1

    def test_class_combinations_are_probed_once_per_schema(
            self, work_schema, monkeypatch):
        reasoner, rewriter = _rewriter_for(work_schema)
        probes = []
        probe = Reasoner.is_formula_satisfiable
        monkeypatch.setattr(Reasoner, "is_formula_satisfiable",
                            lambda self, formula: (
                                probes.append(formula),
                                probe(self, formula))[1])
        query = parse_query("q(x) :- Person(x)", work_schema)
        certain_answers(rewriter, query, _work_database(work_schema),
                        reasoner=reasoner)
        assert len(probes) == 2  # {Employee} and {Dept}
        other = Database(work_schema)
        other.insert("carol", "Employee")
        other.insert("d1", "Dept")
        other.insert("d2", "Dept")
        tracer = Tracer()
        with use_tracer(tracer):
            certain_answers(rewriter, query, other, reasoner=reasoner)
        assert len(probes) == 2
        assert tracer.counters["qa.consistency_cache_hits"] == 2
        assert "qa.consistency_cache_misses" not in tracer.counters
        assert [span.name for span in tracer.spans].count(
            "qa.consistency") == 1
        assert tracer.counters["qa.rows_probed"] > 0


# ----------------------------------------------------------------------
# Differential oracle 1: the chase (canonical model of the positive
# fragment)
# ----------------------------------------------------------------------
def _chase(schema, database, witness_rounds=3):
    """Saturate ``database`` into the canonical model of the positive
    fragment: propagate conjunctive ``isa``, type role fillers through
    single-literal role clauses, and create fresh witnesses for
    mandatory participations (depth-bounded, enough for the bounded
    query shapes below)."""
    snapshot = database.snapshot()
    classes = {obj: set(snapshot.classes_of(obj))
               for obj in snapshot.universe}
    tuples = {rdef.name: [dict(t.as_dict())
                          for t in snapshot.relation_ext(rdef.name)]
              for rdef in schema.relation_definitions}
    definitions = {cdef.name: cdef for cdef in schema.class_definitions}
    fresh = itertools.count()
    named = frozenset(snapshot.universe)

    def close_typing():
        changed = True
        while changed:
            changed = False
            for obj in list(classes):
                for name in list(classes[obj]):
                    cdef = definitions.get(name)
                    if cdef is None:
                        continue
                    for clause in cdef.isa:
                        if len(clause) == 1:
                            lit = next(iter(clause))
                            if lit.positive and lit.name not in classes[obj]:
                                classes[obj].add(lit.name)
                                changed = True
            for rdef in schema.relation_definitions:
                for clause in rdef.constraints:
                    if len(clause) != 1:
                        continue
                    role_lit = clause.literals[0]
                    for formula_clause in role_lit.formula:
                        if len(formula_clause) != 1:
                            continue
                        lit = next(iter(formula_clause))
                        if not lit.positive:
                            continue
                        for row in tuples[rdef.name]:
                            obj = row[role_lit.role]
                            members = classes.setdefault(obj, set())
                            if lit.name not in members:
                                members.add(lit.name)
                                changed = True

    for _ in range(witness_rounds):
        close_typing()
        pending = []
        for cdef in schema.class_definitions:
            for part in cdef.participates:
                if part.card.lower < 1:
                    continue
                rdef = schema.relation(part.relation)
                for obj in [o for o, m in classes.items()
                            if cdef.name in m]:
                    if any(row[part.role] == obj
                           for row in tuples[part.relation]):
                        continue
                    row = {role: (obj if role == part.role
                                  else f"_w{next(fresh)}")
                           for role in rdef.roles}
                    pending.append((part.relation, row))
        if not pending:
            break
        for relation, row in pending:
            for obj in row.values():
                classes.setdefault(obj, set())
            tuples[relation].append(row)
    close_typing()
    return classes, tuples, named


def _chase_answers(query, chased):
    """Evaluate ``query`` over the chased instance; open answers keep
    only rows made entirely of named database objects."""
    classes, tuples, named = chased
    from repro.qa.ast import Const, RelationAtom

    def rows_for(atom):
        if isinstance(atom, ClassAtom):
            return [(obj,) for obj, members in classes.items()
                    if atom.name in members]
        assert isinstance(atom, RelationAtom)
        return [tuple(row[role] for role in atom.roles)
                for row in tuples[atom.name]]

    results = set()
    atoms = list(query.atoms)

    def search(index, binding):
        if index == len(atoms):
            results.add(tuple(binding[var] for var in query.head))
            return
        for row in rows_for(atoms[index]):
            candidate = dict(binding)
            for term, value in zip(atoms[index].terms(), row):
                if isinstance(term, Const):
                    if term.value != value:
                        break
                elif candidate.setdefault(term, value) != value:
                    break
            else:
                search(index + 1, candidate)

    search(0, {})
    if query.is_boolean:
        return bool(results)
    return {row for row in results if all(obj in named for obj in row)}


def _random_positive_schema(rng):
    n_classes = rng.randint(3, 5)
    names = [f"C{i}" for i in range(n_classes)]
    n_relations = rng.randint(1, 2)
    lines = []
    for i, name in enumerate(names):
        supers = [other for other in names[:i] if rng.random() < 0.4]
        isa = f" isa {' and '.join(supers)}" if supers else ""
        parts = []
        for r in range(n_relations):
            if rng.random() < 0.3:
                role = rng.choice(("src", "dst"))
                parts.append(f"R{r}[{role}] : (1, *)")
        participates = (f" participates in {'; '.join(parts)}"
                        if parts else "")
        lines.append(f"class {name}{isa}{participates} endclass")
    for r in range(n_relations):
        constraints = []
        for role in ("src", "dst"):
            if rng.random() < 0.7:
                constraints.append(f"({role} : {rng.choice(names)})")
        suffix = (f" constraints {'; '.join(constraints)}"
                  if constraints else "")
        lines.append(f"relation R{r}(src, dst){suffix} endrelation")
    return parse_schema("\n".join(lines)), names, n_relations


def _random_database(schema, names, n_relations, rng):
    db = Database(schema)
    objects = [f"o{i}" for i in range(rng.randint(3, 6))]
    for obj in objects:
        db.insert(obj, *[name for name in names if rng.random() < 0.35])
    for r in range(n_relations):
        for _ in range(rng.randint(0, 4)):
            db.add_tuple(f"R{r}", src=rng.choice(objects),
                         dst=rng.choice(objects))
    return db


def _random_queries(names, n_relations, rng):
    sources = []
    for name in rng.sample(names, 2):
        sources.append(f"q(x) :- {name}(x)")
    relation = f"R{rng.randrange(n_relations)}"
    sources.append(f"q(x) :- {relation}(x, y)")
    sources.append(f"q(y) :- {relation}(x, y)")
    sources.append(f"q() :- {relation}(x, y)")
    sources.append(f"q() :- {rng.choice(names)}(x)")
    sources.append(f"q(x) :- {relation}(x, y), {rng.choice(names)}(y)")
    sources.append(f"q(x, y) :- {relation}(x, y)")
    return sources


class TestDifferentialChase:
    @pytest.mark.parametrize("seed", range(10))
    def test_rewriting_matches_the_chase_oracle(self, seed):
        rng = random.Random(seed)
        schema, names, n_relations = _random_positive_schema(rng)
        reasoner, rewriter = _rewriter_for(schema)
        database = _random_database(schema, names, n_relations, rng)
        chased = _chase(schema, database)
        for source in _random_queries(names, n_relations, rng):
            query = parse_query(source, schema)
            answer = certain_answers(rewriter, query, database,
                                     reasoner=reasoner)
            assert not answer.inconsistent, source
            expected = _chase_answers(query, chased)
            if query.is_boolean:
                assert answer.boolean == expected, source
            else:
                assert set(answer.answers) == expected, source


# ----------------------------------------------------------------------
# Differential oracle 2: brute-force model enumeration over a bounded
# universe
# ----------------------------------------------------------------------
class TestDifferentialModels:
    SCHEMA_SOURCE = """
        class P endclass
        class E isa P participates in R[src] : (1, *) endclass
        relation R(src, dst) constraints (src : E) endrelation
    """

    def _enumerate_certain(self, query, universe, named, asserted_classes,
                           asserted_tuples):
        """Intersect the query's answers over every model of the schema
        extending the asserted facts on the bounded universe."""
        certain = None
        pairs = list(itertools.product(universe, repeat=2))
        optional_pairs = [p for p in pairs if p not in asserted_tuples]
        per_object = []
        for obj in universe:
            base = asserted_classes.get(obj, frozenset())
            combos = [frozenset(extra) | base
                      for size in range(3)
                      for extra in itertools.combinations(
                          {"P", "E"} - base, size)]
            per_object.append(sorted(set(combos), key=sorted))
        for memberships in itertools.product(*per_object):
            classes = dict(zip(universe, memberships))
            if any("E" in m and "P" not in m for m in memberships):
                continue
            for extra_size in range(len(optional_pairs) + 1):
                for extra in itertools.combinations(optional_pairs,
                                                    extra_size):
                    tuples = list(asserted_tuples) + list(extra)
                    if any("E" not in classes[src] for src, _ in tuples):
                        continue
                    participants = {src for src, _ in tuples}
                    if any("E" in classes[obj] and obj not in participants
                           for obj in universe):
                        continue
                    answers = self._evaluate(query, classes, tuples)
                    certain = (answers if certain is None
                               else certain & answers)
                    if not certain:
                        return {row for row in ()
                                } if not query.is_boolean else False
        if query.is_boolean:
            return bool(certain)
        return {row for row in certain
                if all(obj in named for obj in row)}

    def _evaluate(self, query, classes, tuples):
        from repro.qa.ast import RelationAtom
        results = set()
        atoms = list(query.atoms)

        def search(index, binding):
            if index == len(atoms):
                results.add(tuple(binding[var] for var in query.head))
                return
            atom = atoms[index]
            if isinstance(atom, ClassAtom):
                rows = [(obj,) for obj, members in classes.items()
                        if atom.name in members]
            else:
                assert isinstance(atom, RelationAtom)
                rows = list(tuples)
            for row in rows:
                candidate = dict(binding)
                for term, value in zip(atom.terms(), row):
                    if candidate.setdefault(term, value) != value:
                        break
                else:
                    search(index + 1, candidate)

        search(0, {})
        return results

    @pytest.mark.parametrize("source", [
        "q(x) :- P(x)",
        "q(x) :- E(x)",
        "q(x) :- R(x, y)",
        "q() :- R(x, y)",
        "q() :- E(x)",
    ])
    def test_rewriting_matches_model_enumeration(self, source):
        schema = parse_schema(self.SCHEMA_SOURCE)
        reasoner, rewriter = _rewriter_for(schema)
        db = Database(schema)
        db.insert("a", "E")
        db.insert("b")
        db.add_tuple("R", src="b", dst="a")

        named = ("a", "b")
        universe = ("a", "b", "_w")
        query = parse_query(source, schema)
        expected = self._enumerate_certain(
            query, universe, frozenset(named),
            {"a": frozenset({"E"})}, [("b", "a")])
        answer = certain_answers(rewriter, query, db, reasoner=reasoner)
        if query.is_boolean:
            assert answer.boolean == expected, source
        else:
            assert set(answer.answers) == expected, source


# ----------------------------------------------------------------------
# Session, CLI, and service integration
# ----------------------------------------------------------------------
class TestSessionIntegration:
    def test_session_query_parses_and_caches(self):
        session = SchemaSession()
        schema = parse_schema(WORK_SCHEMA_SOURCE)
        database = {
            "objects": {"alice": ["Employee"], "bob": [], "d0": ["Dept"]},
            "relations": [["WorksFor", {"emp": "bob", "dept": "d0"}]],
        }
        cold = session.query(schema, "q(x) :- Person(x)", database)
        assert {row[0] for row in cold.answers} == {"alice", "bob"}
        assert not cold.rewrite_cached
        warm = session.query(schema, "q(z) :- Person(z)", database)
        assert warm.rewrite_cached
        assert set(warm.answers) == set(cold.answers)

    def test_concurrent_first_queries_build_the_closure_once(
            self, tmp_path, count_calls, race, monkeypatch):
        from repro.engine.artifact import ArtifactCache
        from repro.qa.closure import build_closure_index

        builds = count_calls(build_closure_index)
        with_closure = []
        store = ArtifactCache.store
        monkeypatch.setattr(ArtifactCache, "store", lambda cache, artifact: (
            with_closure.append(artifact.closure is not None),
            store(cache, artifact))[1])
        session = SchemaSession(EngineConfig(artifact_dir=str(tmp_path)))
        schema = taxonomy_schema(2, 2)

        def work(_):
            session.query(schema, "q(x) :- T(x)")

        assert race(work, threads=4) == []
        assert len(builds) == 1
        assert with_closure.count(True) == 1

    def test_deadline_bounds_the_wait_behind_a_build(self, monkeypatch):
        from repro.qa import closure

        started, release = threading.Event(), threading.Event()
        builds = []
        build = closure.build_closure_index

        def held_build(reasoner):
            builds.append(reasoner)
            started.set()
            release.wait(timeout=10)
            return build(reasoner)

        monkeypatch.setattr(closure, "build_closure_index", held_build)
        session = SchemaSession()
        schema = parse_schema(WORK_SCHEMA_SOURCE)
        session.reasoner(schema)
        first_query = threading.Thread(target=session.query,
                                       args=(schema, "q(x) :- Person(x)"))
        first_query.start()
        try:
            assert started.wait(timeout=10)
            waited_from = time.monotonic()
            with use_budget(Budget(deadline=0.05)), \
                    pytest.raises(BudgetExceeded):
                session.query(schema, "q(x) :- Employee(x)")
            # Raised while the build was still held, not after it.
            assert time.monotonic() - waited_from < 5
        finally:
            release.set()
            first_query.join(timeout=10)
        assert not first_query.is_alive()
        session.query(schema, "q(x) :- Employee(x)")
        assert len(builds) == 1


class TestCliQuery:
    @pytest.fixture
    def schema_file(self, tmp_path):
        path = tmp_path / "work.car"
        path.write_text(WORK_SCHEMA_SOURCE)
        return str(path)

    @pytest.fixture
    def database_file(self, tmp_path):
        path = tmp_path / "db.json"
        path.write_text(json.dumps({
            "objects": {"alice": ["Employee"], "bob": [], "d0": ["Dept"]},
            "relations": [["WorksFor", {"emp": "bob", "dept": "d0"}]],
        }))
        return str(path)

    def test_open_query_exits_zero_with_answers(self, schema_file,
                                                database_file, capsys):
        from repro.cli import main
        assert main(["query", schema_file, "q(x) :- Person(x)",
                     "--database", database_file]) == 0
        out = capsys.readouterr().out
        assert "2 certain answer(s)" in out

    def test_boolean_verdict_drives_exit_status(self, schema_file,
                                                database_file, capsys):
        from repro.cli import main
        assert main(["query", schema_file, "q() :- WorksFor(x, y)",
                     "--database", database_file]) == 0
        assert main(["query", schema_file, "q() :- Dept(x), Employee(x)",
                     "--database", database_file]) == 1
        capsys.readouterr()

    def test_json_output_is_the_answer_document(self, schema_file,
                                                database_file, capsys):
        from repro.cli import main
        assert main(["query", schema_file, "q(x) :- Person(x)",
                     "--database", database_file, "--json"]) == 0
        document = json.loads(capsys.readouterr().out)
        assert document["command"] == "query"
        assert sorted(row[0] for row in document["answers"]) == \
               ["alice", "bob"]
        assert document["rewrite"]["steps"] > 0

    def test_unknown_symbol_exits_65(self, schema_file, capsys):
        from repro.cli import main
        assert main(["query", schema_file, "q(x) :- Martian(x)"]) == 65
        capsys.readouterr()

    def test_tripped_budget_exits_75(self, schema_file, capsys):
        from repro.cli import main
        assert main(["query", schema_file, "q(x) :- Person(x)",
                     "--max-steps", "1"]) == 75
        capsys.readouterr()


class TestServiceQuery:
    @pytest.fixture
    def service(self):
        from repro.service.app import ReproService, ServiceConfig
        svc = ReproService(ServiceConfig(port=0))
        yield svc
        svc.drain(grace=1.0)

    def _dispatch(self, service, method, path, body=None, headers=None):
        from tests.wire import check_envelope
        raw = b"" if body is None else json.dumps(body).encode()
        response = service.dispatch(method, path, headers or {}, raw)
        check_envelope(response.payload, status=response.status)
        return response

    def test_inline_query_round_trip_hits_the_cache(self, service):
        from tests.wire import unwrap
        body = {
            "schema": WORK_SCHEMA_SOURCE,
            "query": "q(x) :- Person(x)",
            "database": {
                "objects": {"alice": ["Employee"], "bob": [],
                            "d0": ["Dept"]},
                "relations": [["WorksFor", {"emp": "bob", "dept": "d0"}]],
            },
        }
        cold = self._dispatch(service, "POST", "/v1/query", body)
        assert cold.status == 200
        data = unwrap(cold.payload)
        assert data["cache"] == "miss"
        assert sorted(row[0] for row in data["answers"]) == ["alice", "bob"]
        warm = self._dispatch(service, "POST", "/v1/query", body)
        assert unwrap(warm.payload)["cache"] == "hit"
        assert unwrap(warm.payload)["answers"] == data["answers"]

    def test_query_by_schema_ref(self, service):
        from tests.wire import unwrap
        put = self._dispatch(service, "PUT", "/v1/schemas/work",
                             {"schema": WORK_SCHEMA_SOURCE})
        assert put.status == 201  # stored fresh
        response = self._dispatch(service, "POST", "/v1/query", {
            "schema_ref": "work", "query": "q() :- Employee(x)"})
        assert response.status == 200
        data = unwrap(response.payload)
        assert data["is_boolean"] and data["boolean"] is False

    def test_invalid_query_maps_to_422(self, service):
        from tests.wire import unwrap_error
        response = self._dispatch(service, "POST", "/v1/query", {
            "schema": WORK_SCHEMA_SOURCE, "query": "q(x) :- Martian(x)"})
        assert response.status == 422
        error = unwrap_error(response.payload)
        assert error["sysexit"] == 65

    def test_budget_header_maps_to_504(self, service):
        response = self._dispatch(
            service, "POST", "/v1/query",
            {"schema": WORK_SCHEMA_SOURCE, "query": "q(x) :- Person(x)"},
            headers={"X-Repro-Max-Steps": "1"})
        assert response.status == 504
