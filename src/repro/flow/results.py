"""Serializable results of the staged flow.

:class:`StageResult` records one pipeline stage — wall-clock seconds,
whether the artifact cache served it, and its JSON-safe metrics.
:class:`FlowResult` aggregates the stages of one ``(fsm, structure,
config)`` run together with the headline metrics of the paper's tables
(product terms, literal counts, fault coverage, coverage curve) and the
chosen state encoding.  Both round-trip exactly through
``to_dict``/``from_dict``, which is what lets sweeps be dumped to JSON,
diffed between runs and shipped to remote workers.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any, Dict, List, Mapping, Optional, Tuple

FLOW_RESULT_SCHEMA = "repro.flow-result/1"

__all__ = ["FLOW_RESULT_SCHEMA", "StageResult", "FlowResult"]


@dataclass(frozen=True)
class StageResult:
    """Outcome of one pipeline stage."""

    name: str
    seconds: float
    cached: bool = False
    metrics: Mapping[str, Any] = field(default_factory=dict)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "name": self.name,
            "seconds": round(self.seconds, 6),
            "cached": self.cached,
            "metrics": dict(self.metrics),
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "StageResult":
        return cls(
            name=data["name"],
            seconds=float(data["seconds"]),
            cached=bool(data["cached"]),
            metrics=dict(data.get("metrics", {})),
        )


@dataclass(frozen=True)
class FlowResult:
    """Serializable result of one flow run.

    ``metrics`` holds the flat headline numbers (state bits, product terms,
    SOP/multi-level literals, structure profile counts, fault coverage);
    ``stages`` the per-stage timings and cached flags; ``encoding`` the
    state assignment as ``{"width": r, "codes": {state: bits}}``.

    ``controller`` optionally carries the live
    :class:`repro.bist.SynthesizedController` when the caller asked the
    pipeline to materialize objects — it is deliberately excluded from
    serialization and comparisons.
    """

    fsm: str
    fsm_digest: str
    structure: str
    config: Mapping[str, Any]
    stages: Tuple[StageResult, ...]
    metrics: Mapping[str, Any]
    encoding: Mapping[str, Any]
    coverage_curve: Optional[List[List[float]]] = None
    total_seconds: float = 0.0
    schema: str = FLOW_RESULT_SCHEMA
    controller: Optional[object] = field(default=None, compare=False, repr=False)

    # -------------------------------------------------------------- accessors
    def stage(self, name: str) -> StageResult:
        for stage in self.stages:
            if stage.name == name:
                return stage
        raise KeyError(f"flow run has no stage {name!r}")

    def has_stage(self, name: str) -> bool:
        return any(stage.name == name for stage in self.stages)

    @property
    def cacheable_stages(self) -> Tuple[StageResult, ...]:
        """The stages that do real work (everything but parse/report)."""
        return tuple(s for s in self.stages if s.name not in ("parse", "report"))

    @property
    def all_cached(self) -> bool:
        """True when every work stage was served from the artifact cache."""
        return all(s.cached for s in self.cacheable_stages)

    @property
    def uncached_seconds(self) -> float:
        """Wall-clock spent on stages that were actually recomputed."""
        return sum(s.seconds for s in self.cacheable_stages if not s.cached)

    @property
    def product_terms(self) -> int:
        return int(self.metrics["product_terms"])

    @property
    def sop_literals(self) -> int:
        return int(self.metrics["sop_literals"])

    @property
    def multilevel_literals(self) -> int:
        return int(self.metrics["multilevel_literals"])

    @property
    def state_bits(self) -> int:
        return int(self.metrics["state_bits"])

    @property
    def fault_coverage(self) -> Optional[float]:
        value = self.metrics.get("fault_coverage")
        return None if value is None else float(value)

    # ---------------------------------------------------------- serialization
    def to_dict(self) -> Dict[str, Any]:
        return {
            "schema": self.schema,
            "fsm": self.fsm,
            "fsm_digest": self.fsm_digest,
            "structure": self.structure,
            "config": dict(self.config),
            "stages": [stage.to_dict() for stage in self.stages],
            "metrics": dict(self.metrics),
            "encoding": {
                "width": self.encoding["width"],
                "codes": dict(self.encoding["codes"]),
            },
            "coverage_curve": self.coverage_curve,
            "total_seconds": round(self.total_seconds, 6),
        }

    def to_json(self, indent: Optional[int] = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent, sort_keys=False)

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "FlowResult":
        curve = data.get("coverage_curve")
        return cls(
            fsm=data["fsm"],
            fsm_digest=data["fsm_digest"],
            structure=data["structure"],
            config=dict(data["config"]),
            stages=tuple(StageResult.from_dict(s) for s in data["stages"]),
            metrics=dict(data["metrics"]),
            encoding={
                "width": data["encoding"]["width"],
                "codes": dict(data["encoding"]["codes"]),
            },
            coverage_curve=[list(point) for point in curve] if curve is not None else None,
            total_seconds=float(data.get("total_seconds", 0.0)),
            schema=data.get("schema", FLOW_RESULT_SCHEMA),
        )


def jsonable(value: Any) -> Any:
    """Recursively coerce a value into JSON-safe builtins.

    Stage payloads store assignment reports and metric dictionaries coming
    from heterogeneous code paths; this keeps tuples/sets/numpy-free scalars
    out of the cache files so every artifact is plain JSON.
    """
    if isinstance(value, dict):
        return {str(k): jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [jsonable(v) for v in value]
    if isinstance(value, (set, frozenset)):
        return sorted(jsonable(v) for v in value)
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    return str(value)
