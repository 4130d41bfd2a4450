"""The CAR reasoner: class satisfiability and friends (Section 3).

:class:`Reasoner` is a thin query façade over the engine layer's
:class:`~repro.engine.pipeline.Pipeline`, which stages the full two-phase
decision procedure:

* **Phase 1** — build the expansion ``S̄`` (compound classes, attributes,
  relations, ``Natt``/``Nrel``) with a configurable enumeration strategy;
* **Phase 2** — derive the homogeneous disequation system ``Ψ_S`` and
  compute its maximal acceptable support.

All queries are then support-membership tests, so one reasoner instance
answers any number of satisfiability/implication questions about its schema
at no extra solving cost.  Pipeline knobs travel in one
:class:`~repro.engine.config.EngineConfig`.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import Optional

from ..core.errors import ReasoningError
from ..core.formulas import Formula, FormulaLike, as_formula
from ..core.schema import Schema
from ..engine.config import EngineConfig
from ..engine.pipeline import Pipeline
from ..engine.stats import PipelineStats
from ..expansion.expansion import Expansion
from ..expansion.tables import SchemaTables
from ..linear.support import SupportResult
from ..linear.system import PsiSystem
from ..obs.tracer import current_tracer

__all__ = ["Reasoner", "CoherenceReport"]


@dataclass(frozen=True)
class CoherenceReport:
    """Outcome of whole-schema validation.

    A schema is *coherent* when every defined class is satisfiable — the
    paper's schema-validation application of class satisfiability.
    """

    satisfiable: tuple[str, ...]
    unsatisfiable: tuple[str, ...]

    @property
    def is_coherent(self) -> bool:
        return not self.unsatisfiable

    def __str__(self) -> str:
        if self.is_coherent:
            return f"coherent: all {len(self.satisfiable)} classes satisfiable"
        return ("incoherent: unsatisfiable classes "
                + ", ".join(self.unsatisfiable))


class Reasoner:
    """Sound and complete reasoner for a CAR schema.

    Parameters
    ----------
    schema:
        The schema to reason about.
    config:
        The :class:`~repro.engine.config.EngineConfig` carrying every
        pipeline knob; defaults to ``EngineConfig()``.
    """

    def __init__(self, schema: Schema, *,
                 config: Optional[EngineConfig] = None):
        if config is None:
            config = EngineConfig()
        self._config = config
        self._pipeline = Pipeline(schema, config)
        self._augmented_cache: OrderedDict[Formula, bool] = OrderedDict()
        self._min_witness: Optional[dict] = None

    @classmethod
    def from_pipeline(cls, pipeline: Pipeline) -> "Reasoner":
        """A reasoner wrapped around an existing pipeline.

        The construction route of the precompiled-artifact path: a
        pipeline rehydrated by :meth:`Pipeline.from_artifact
        <repro.engine.pipeline.Pipeline.from_artifact>` already carries
        its Phase-1/Phase-2 stage products, so the reasoner skips straight
        to support solving on first query.  Verdicts are identical to a
        freshly built reasoner (the differential suite asserts this).
        """
        reasoner = cls.__new__(cls)
        reasoner._config = pipeline.config
        reasoner._pipeline = pipeline
        reasoner._augmented_cache = OrderedDict()
        reasoner._min_witness = None
        return reasoner

    # ------------------------------------------------------------------
    # The engine pipeline and its artifacts
    # ------------------------------------------------------------------
    @property
    def config(self) -> EngineConfig:
        """The engine configuration this reasoner runs under."""
        return self._config

    @property
    def pipeline(self) -> Pipeline:
        """The staged pipeline (tables → expansion → Ψ_S → support)."""
        return self._pipeline

    @property
    def schema(self) -> Schema:
        return self._pipeline.schema

    @property
    def tables(self) -> SchemaTables:
        """The preselection tables of the schema, built once and shared by
        every pipeline stage (enumeration, clusters, explanations)."""
        return self._pipeline.tables

    @property
    def expansion(self) -> Expansion:
        return self._pipeline.expansion

    @property
    def system(self) -> PsiSystem:
        return self._pipeline.system

    @property
    def support(self) -> SupportResult:
        return self._pipeline.support

    @property
    def _precomputed_classes(self) -> Optional[tuple]:
        # Exposed for the equivalence suite: non-None exactly when this
        # reasoner was seeded by the incremental augmented-query path.
        return self._pipeline._precomputed_classes

    def timings(self) -> dict[str, float]:
        """Accumulated wall-clock seconds per pipeline stage (``tables``,
        ``expansion``, ``system``, ``support``, ``augmented_query``, …)."""
        return self._pipeline.timer.readings()

    def supported_compound_classes(self) -> list[frozenset]:
        """Compound classes that are nonempty in some model (all of them
        simultaneously, by closure of acceptable solutions under addition)."""
        return self.support.supported_compound_classes()

    # ------------------------------------------------------------------
    # Satisfiability queries
    # ------------------------------------------------------------------
    def is_satisfiable(self, class_name: str) -> bool:
        """Class satisfiability (the paper's core decision problem):
        does some model of the schema give ``class_name`` an instance?"""
        if class_name not in self.schema.class_symbols:
            raise ReasoningError(
                f"class {class_name!r} does not occur in the schema")
        return any(class_name in members
                   for members in self.supported_compound_classes())

    def is_formula_satisfiable(self, formula: FormulaLike) -> bool:
        """Is there a model with an object satisfying ``formula``?

        Only class symbols of the schema may occur in the formula; this is
        the generalization that logical implication reduces to.

        Completeness across clusters: the strategic expansion only holds
        compound classes within one cluster of ``G_S`` — sound for class
        satisfiability (Theorem 4.6) but *incomplete* for formulas whose
        classes span clusters (an object may belong to classes of several
        clusters in a real model).  A positive answer from the supported
        compound classes is always sound; a negative one is final only when
        the enumeration was complete for this formula.  Otherwise the query
        is decided on an *augmented* schema with a fresh class whose isa is
        the formula — its positive mentions merge the touched clusters, so
        plain class satisfiability (always correct) gives the answer.
        """
        formula = as_formula(formula)
        unknown = formula.classes() - self.schema.class_symbols
        if unknown:
            raise ReasoningError(
                f"formula mentions classes outside the schema: {sorted(unknown)}")
        if any(formula.satisfied_by(members)
               for members in self.supported_compound_classes()):
            return True
        if self.enumeration_complete_for(formula.classes()):
            return False
        return self._augmented_satisfiable(formula)

    # ------------------------------------------------------------------
    # Cross-cluster completeness machinery
    # ------------------------------------------------------------------
    def enumeration_complete_for(self, class_names) -> bool:
        """Is the compound-class enumeration complete for queries touching
        exactly ``class_names``?

        True for the naive strategy (all subsets), for genuine hierarchies
        (incomparable classes are provably disjoint), and whenever the
        touched classes sit inside a single cluster of ``G_S``.
        """
        if self._config.strategy == "naive":
            return True
        if self._pipeline.is_hierarchy():
            return True
        clusters = self._pipeline.cluster_of()
        touched = {clusters[name] for name in class_names if name in clusters}
        return len(touched) <= 1

    def clusters(self) -> list[frozenset]:
        """The clusters of ``G_S`` (Theorem 4.6), computed once over the
        shared preselection tables and cached."""
        return self._pipeline.clusters()

    def fresh_class_name(self, base: str = "Query") -> str:
        """A class symbol not clashing with any symbol of the schema."""
        taken = (set(self.schema.class_symbols)
                 | set(self.schema.attribute_symbols)
                 | set(self.schema.relation_symbols))
        candidate = f"__{base}"
        counter = 0
        while candidate in taken:
            counter += 1
            candidate = f"__{base}{counter}"
        return candidate

    def augmented_with(self, cdef) -> "Reasoner":
        """A reasoner over this schema plus one query class definition.

        When this reasoner enumerated strategically and has its pipeline
        built, the augmented reasoner's pipeline is *seeded incrementally*:
        preselection tables are extended by one row instead of rebuilt, and
        compound classes of every cluster the query class does not touch are
        reused verbatim — only the merged cluster is re-enumerated.  The
        seeding is an optimization only; verdicts are identical to a cold
        rebuild (the equivalence suite asserts this).
        """
        augmented = Reasoner(self.schema.with_class(cdef),
                             config=self._config)
        if self._pipeline.can_seed_augmented(cdef):
            self._pipeline.seed_augmented(augmented._pipeline, cdef)
        return augmented

    def _augmented_satisfiable(self, formula: Formula) -> bool:
        from ..core.schema import ClassDef

        tracer = current_tracer()
        cached = self._augmented_cache.get(formula)
        if cached is not None:
            tracer.add("reasoner.verdict_cache_hits")
            self._augmented_cache.move_to_end(formula)
            return cached
        tracer.add("reasoner.verdict_cache_misses")
        name = self.fresh_class_name()
        with tracer.span("pipeline.augmented_query"), \
                self._pipeline.timer.stage("augmented_query"):
            verdict = self.augmented_with(
                ClassDef(name, isa=formula)).is_satisfiable(name)
        self._augmented_cache[formula] = verdict
        if len(self._augmented_cache) > self._config.augmented_cache_limit:
            self._augmented_cache.popitem(last=False)
        return verdict

    def satisfiable_classes(self) -> list[str]:
        return [name for name in sorted(self.schema.class_symbols)
                if self.is_satisfiable(name)]

    def unsatisfiable_classes(self) -> list[str]:
        return [name for name in sorted(self.schema.class_symbols)
                if not self.is_satisfiable(name)]

    def check_coherence(self) -> CoherenceReport:
        """Schema validation: partition the *defined* classes by
        satisfiability."""
        satisfiable: list[str] = []
        unsatisfiable: list[str] = []
        for cdef in self.schema.class_definitions:
            target = satisfiable if self.is_satisfiable(cdef.name) else unsatisfiable
            target.append(cdef.name)
        return CoherenceReport(tuple(satisfiable), tuple(unsatisfiable))

    # ------------------------------------------------------------------
    # Witness counts for model synthesis
    # ------------------------------------------------------------------
    def witness_counts(self, scale: int = 1) -> dict:
        """An integer acceptable solution of ``Ψ_S``, keyed by compound
        object — the raw material of model synthesis (Section 3.2).

        Prefers a *minimized* witness (smallest total mass with every
        supported compound class populated) so synthesized databases stay
        small; falls back to the max-support witness when minimization finds
        no small exact certificate.
        """
        from math import lcm

        from ..linear.support import minimize_witness

        if self._min_witness is None:
            self._min_witness = minimize_witness(self.support) \
                or dict(self.support.solution)
        base = self._min_witness
        denominators = [v.denominator for v in base.values()] or [1]
        factor = lcm(*denominators) * scale
        return {self.system.unknowns[index]: int(value * factor)
                for index, value in base.items()}

    def population_ratio(self, numerator: str, denominator: str):
        """Exact bounds on ``|numerator| / |denominator|`` over all models
        (with a nonempty denominator) — see
        :func:`repro.linear.ratios.population_ratio_bounds`.

        Cross-cluster caveat: computed over the strategic expansion, the
        bounds are exact for classes within one cluster and remain *valid
        outer* behaviour for the Theorem 4.6 schema ``S'``; use
        ``strategy="naive"`` for exact cross-cluster ratios on small
        schemas.
        """
        from ..linear.ratios import population_ratio_bounds

        return population_ratio_bounds(self.support, numerator, denominator)

    def stats(self) -> PipelineStats:
        """Pipeline size measurements used by the complexity benchmarks,
        plus per-stage wall-clock timings — a typed
        :class:`~repro.engine.stats.PipelineStats` payload (the timings
        cover ``tables``, ``expansion``, ``system``, ``support``, and —
        once augmented queries ran — ``augmented_seed`` /
        ``augmented_query``)."""
        return self._pipeline.stats()
