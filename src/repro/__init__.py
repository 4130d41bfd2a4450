"""repro — the CAR data model and its schema reasoner.

A faithful, production-quality reproduction of *Making Object-Oriented
Schemas More Expressive* (Calvanese & Lenzerini, PODS 1994): the CAR data
model (Classes, Attributes, Relations), its finite-model semantics, and the
sound & complete two-phase reasoning technique (schema expansion + linear
disequations) for class satisfiability and logical implication.

Quickstart::

    from repro import parse_schema, Reasoner

    schema = parse_schema('''
        class Student isa Person and not Professor endclass
        class TA isa Student and Professor endclass
    ''')
    reasoner = Reasoner(schema)
    assert not reasoner.is_satisfiable("TA")
"""

from .core.budget import NULL_BUDGET, Budget, current_budget, use_budget
from .core.cardinality import ANY, AT_LEAST_ONE, AT_MOST_ONE, EXACTLY_ONE, INFINITY, Card
from .core.errors import (
    BudgetExceeded,
    CarError,
    LinearSystemError,
    ParseError,
    ReasoningError,
    SchemaError,
    SemanticsError,
    SynthesisError,
)
from .core.formulas import TOP, Clause, Formula, Lit, as_formula, conjunction, disjunction
from .core.schema import (
    Attr,
    AttrRef,
    AttributeSpec,
    ClassDef,
    Part,
    ParticipationSpec,
    RelationDef,
    RoleClause,
    RoleLiteral,
    Schema,
    inv,
)
from .engine import (
    BatchExecutor,
    BatchQuery,
    EngineConfig,
    Pipeline,
    QueryError,
    QueryOutcome,
    SchemaSession,
    schema_fingerprint,
)
from .expansion.expansion import Expansion, build_expansion
from .parser.parser import parse_formula, parse_schema
from .parser.printer import render_schema
from .reasoner.implication import (
    Classification,
    classify,
    implied_attribute_bounds,
    implied_disjoint,
    implied_equivalence,
    implied_subsumption,
    implies_isa,
)
from .reasoner.satisfiability import CoherenceReport, Reasoner
from .reasoner.transform import ReificationResult, reify_nonbinary_relations
from .core.builder import SchemaBuilder
from .reasoner.explain import Explanation, explain_unsatisfiability
from .semantics.checker import Violation, check_model, is_model
from .semantics.database import Database, IntegrityError
from .semantics.interpretation import Interpretation, LabeledTuple
from .synthesis.builder import SynthesisReport, synthesize_model

__version__ = "1.0.0"

__all__ = [
    # cardinalities
    "ANY", "AT_LEAST_ONE", "AT_MOST_ONE", "EXACTLY_ONE", "INFINITY", "Card",
    # errors
    "BudgetExceeded", "CarError", "LinearSystemError", "ParseError",
    "ReasoningError", "SchemaError", "SemanticsError", "SynthesisError",
    # budgets
    "NULL_BUDGET", "Budget", "current_budget", "use_budget",
    # formulae
    "TOP", "Clause", "Formula", "Lit", "as_formula", "conjunction",
    "disjunction",
    # schema AST
    "Attr", "AttrRef", "AttributeSpec", "ClassDef", "Part",
    "ParticipationSpec", "RelationDef", "RoleClause", "RoleLiteral",
    "Schema", "inv",
    # pipeline
    "Expansion", "build_expansion",
    # engine layer
    "BatchExecutor", "BatchQuery", "EngineConfig", "Pipeline", "QueryError",
    "QueryOutcome", "SchemaSession", "schema_fingerprint",
    # concrete syntax
    "parse_formula", "parse_schema", "render_schema",
    # reasoning
    "Classification", "classify", "implied_attribute_bounds",
    "implied_disjoint", "implied_equivalence", "implied_subsumption",
    "implies_isa", "CoherenceReport", "Reasoner",
    "ReificationResult", "reify_nonbinary_relations",
    # semantics
    "Violation", "check_model", "is_model", "Interpretation", "LabeledTuple",
    "Database", "IntegrityError",
    # convenience layers
    "SchemaBuilder", "Explanation", "explain_unsatisfiability",
    "SynthesisReport", "synthesize_model",
    "__version__",
]
