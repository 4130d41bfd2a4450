"""Typed, versioned stats payloads for the engine layer.

``Pipeline.stats()`` / ``Reasoner.stats()`` and the session cache counters
used to hand out untyped dictionaries, so every consumer — CLI, benchmark
tables, tests — string-typed its way into them.  These frozen dataclasses
replace the dicts:

* :class:`PipelineStats` — the size/time measurements of one pipeline;
* :class:`SessionStats`  — one session's pipeline-cache counters.

Both carry ``schema_version`` (:data:`STATS_SCHEMA_VERSION`) and render to
plain JSON-able dicts via ``to_json()``.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, fields

__all__ = ["STATS_SCHEMA_VERSION", "PipelineStats", "SessionStats"]

#: Version of the stats payload shapes.  Bump on any field change; the
#: value travels in every ``to_json()`` document as ``"stats_schema"``.
#: v2 added :attr:`PipelineStats.strategy`.
STATS_SCHEMA_VERSION = 2

_TIME_PREFIX = "time_"


class _JsonTextMixin:
    """The serialized ``to_json()`` shared by both stats types."""

    def to_json_text(self) -> str:
        """The ``to_json()`` document serialized with stable key order."""
        return json.dumps(self.to_json(), indent=2, sort_keys=True)


@dataclass(frozen=True)
class PipelineStats(_JsonTextMixin):
    """Size and wall-clock measurements of one reasoning pipeline.

    The size fields mirror the paper's complexity parameters (schema size,
    expansion size, |Ψ_S|); ``timings`` maps stage names to accumulated
    wall-clock seconds (``tables``, ``expansion``, ``system``, ``support``,
    plus ``augmented_query`` once augmented queries ran and ``delta_seed``
    on a pipeline built by ``Pipeline.recompile_from``); ``lp_backend``
    names the arithmetic core that produced the final
    support witness, and ``strategy`` the Phase-1 route that enumerated
    the compound classes (``Expansion.strategy``: ``"naive"``,
    ``"strategic"`` or ``"hierarchy"``).
    """

    classes: int
    schema_size: int
    compound_classes: int
    expansion_size: int
    psi_unknowns: int
    psi_constraints: int
    psi_size: int
    lp_rounds: int
    supported: int
    lp_backend: str = "unknown"
    strategy: str = "unknown"
    timings: dict[str, float] = field(default_factory=dict)
    schema_version: int = STATS_SCHEMA_VERSION

    def to_json(self) -> dict:
        """A flat, JSON-able dict: the historical keys plus the version."""
        payload = {"stats_schema": self.schema_version}
        for spec in fields(self):
            if spec.name in ("timings", "schema_version"):
                continue
            payload[spec.name] = getattr(self, spec.name)
        for stage, seconds in sorted(self.timings.items()):
            payload[f"{_TIME_PREFIX}{stage}"] = seconds
        return payload


@dataclass(frozen=True)
class SessionStats(_JsonTextMixin):
    """A snapshot of one session's pipeline-cache counters."""

    hits: int
    misses: int
    evictions: int
    size: int
    limit: int
    schema_version: int = STATS_SCHEMA_VERSION

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def to_json(self) -> dict:
        return {
            "stats_schema": self.schema_version,
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "size": self.size,
            "limit": self.limit,
            "hit_rate": self.hit_rate,
        }
