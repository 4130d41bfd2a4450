"""Phase 1 of the reasoning method: the expansion of a CAR schema."""

from .compound import (
    CompoundAttribute,
    CompoundClass,
    CompoundRelation,
    is_consistent_compound_attribute,
    is_consistent_compound_class,
    is_consistent_compound_relation,
    merged_attr_card,
    merged_participation_card,
)
from .enumerate import (
    compound_classes,
    dpll_compound_classes,
    naive_compound_classes,
    strategic_compound_classes,
)
from .expansion import Expansion, ExpansionSeed, build_expansion
from .graph import (
    clusters,
    hierarchy_compound_classes,
    hierarchy_forest,
    impose_cluster_disjointness,
    schema_graph,
)
from .tables import SchemaTables, build_tables

__all__ = [
    "CompoundAttribute", "CompoundClass", "CompoundRelation",
    "is_consistent_compound_attribute", "is_consistent_compound_class",
    "is_consistent_compound_relation", "merged_attr_card",
    "merged_participation_card",
    "compound_classes", "dpll_compound_classes", "naive_compound_classes",
    "strategic_compound_classes",
    "Expansion", "ExpansionSeed", "build_expansion",
    "clusters", "hierarchy_compound_classes", "hierarchy_forest",
    "impose_cluster_disjointness", "schema_graph",
    "SchemaTables", "build_tables",
]
