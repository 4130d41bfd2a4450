"""Schemas for the sparse-vs-dense parity tests of the general LP callers
(:func:`~repro.linear.ratios.population_ratio_bounds` and
:func:`~repro.linear.support.minimize_witness`), and for the tests that
need a round to reach the simplex."""

from repro.core.cardinality import Card
from repro.core.formulas import Lit
from repro.core.schema import Attr, ClassDef, Schema, inv
from repro.workloads.generators import cardinality_chain_schema


def cardinality_cycle_schema(length: int, fan_out: int) -> Schema:
    """``cardinality_chain_schema(length, fan_out)`` with ``L{length}``
    linked back to ``L0`` one-to-one: every model has
    ``|L0| = fan_out^length · |L0|``, so with ``fan_out ≥ 2`` every class
    is empty, and with ``fan_out = 1`` every level has the same size."""
    back = f"next{length}"
    extra = {f"L{length}": Attr(back, Card(1, 1), Lit("L0")),
             "L0": Attr(inv(back), Card(1, 1), Lit(f"L{length}"))}
    return Schema([
        ClassDef(cdef.name, cdef.isa, cdef.attributes + (extra[cdef.name],),
                 cdef.participates) if cdef.name in extra else cdef
        for cdef in cardinality_chain_schema(length, fan_out)
        .class_definitions])


#: Small schemas whose LPs the dense reference answers in milliseconds.
SMALL_SCHEMAS = {
    "chain(3,2)": lambda: cardinality_chain_schema(3, fan_out=2),
    "chain(2,3)": lambda: cardinality_chain_schema(2, fan_out=3),
    "cycle(3,1)": lambda: cardinality_cycle_schema(3, 1),
    "cycle(4,2)": lambda: cardinality_cycle_schema(4, 2),
}


#: An attribute and its inverse whose populations must differ: ``|D| =
#: 2·|C|``.  The §4.4 certificate gives the coupled compound attribute the
#: least of its two shares, 1, which breaks ``C``'s lower bound of 2, so
#: every round reaches the simplex.
COUPLED_SOURCE = """
class C isa not D attributes a : (2, 2) D endclass
class D attributes (inv a) : (1, 1) C endclass
"""
