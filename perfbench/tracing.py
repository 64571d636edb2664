"""Spans around the program's layer calls, kept in memory until the end.

:func:`install` replaces the public functions the pipeline calls with
wrappers that record a span ``(name, start, end, parent, count)`` per call;
``count`` is the work done, read from the call's return value (for the
minimiser a ``[initial terms, final terms, iterations]`` triple).  Clocks are
``time.monotonic`` so spans from fleet worker processes (see
``traced_worker.py``) line up with the client's.  :func:`layer_metrics`
turns a list of spans into the per-layer metrics of ``BENCHMARK.json``.
"""

from __future__ import annotations

import json
import time
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

Span = Dict[str, Any]


class Tracer:
    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._stack: List[int] = []
        self._undo: List[Tuple[Any, str, Any]] = []

    def wrap(self, name: str, fn: Callable[..., Any],
             count: Optional[Callable[[Any], int]] = None) -> Callable[..., Any]:
        def traced(*args: Any, **kwargs: Any) -> Any:
            span = {"name": name, "start": time.monotonic(), "end": None,
                    "parent": self.spans[self._stack[-1]]["id"] if self._stack else None,
                    "id": len(self.spans), "count": None}
            self.spans.append(span)
            self._stack.append(span["id"])
            try:
                result = fn(*args, **kwargs)
            finally:
                self._stack.pop()
                span["end"] = time.monotonic()
            if count is not None:
                span["count"] = count(result)
            return result

        return traced

    def patch(self, owner: Any, attr: str, name: str,
              count: Optional[Callable[[Any], int]] = None) -> None:
        original = getattr(owner, attr)
        self._undo.append((owner, attr, original))
        setattr(owner, attr, self.wrap(name, original, count))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def dump(self, path: Path) -> None:
        path.write_text(json.dumps(self.spans))


def _fault_cycles(result: Any) -> int:
    """Cycles simulated per fault until detection (or the sequence end), summed."""
    undetected = result.total_faults - len(result.detected)
    return sum(result.detection_cycle.values()) + undetected * result.cycles_simulated


def install(tracer: Tracer, workers: bool = False) -> None:
    """Wrap the layer functions the pipeline calls (and, in a fleet
    worker, the cell funnel that marks the worker busy)."""
    from repro.circuit import faults, netlist
    from repro.flow import cache, cells, pipeline
    from repro.flow.net import cache as net_cache

    tracer.patch(pipeline, "resolve_fsm", "fsm.resolve")
    tracer.patch(pipeline, "assign_states", "encoding.assign",
                 lambda r: int(r[2].get("partial_assignments_explored", 0)))
    tracer.patch(pipeline, "derive_excitation", "bist.excite", lambda r: len(r.on_set))
    tracer.patch(pipeline, "minimize_excitation", "logic.minimize",
                 lambda r: [r.initial_terms, r.final_terms, r.iterations])
    tracer.patch(pipeline, "multilevel_literal_count", "logic.factor")
    tracer.patch(netlist, "netlist_from_controller", "circuit.netlist",
                 lambda r: r.gate_count())
    tracer.patch(faults, "enumerate_faults", "circuit.fault_enum", len)

    base = faults.FaultSimulator

    class TracedFaultSimulator(base):  # type: ignore[misc, valid-type]
        __init__ = tracer.wrap("circuit.engine_compile", base.__init__)
        coverage_for_random_patterns = tracer.wrap(
            "circuit.faultsim", base.coverage_for_random_patterns, _fault_cycles
        )

    tracer._undo.append((faults, "FaultSimulator", base))
    faults.FaultSimulator = TracedFaultSimulator  # type: ignore[misc]

    def is_hit(payload: Any) -> int:
        return int(payload is not None)

    for cls in (cache.ArtifactCache, net_cache.RemoteCache):
        tracer.patch(cls, "get", "flow.cache_get", is_hit)
        tracer.patch(cls, "put", "flow.cache_put")
    if workers:
        from repro.flow.net import client

        tracer.patch(cells, "run_flow", "flow.run_flow")
        tracer.patch(client, "run_cell", "net.run_cell")


# ------------------------------------------------------------------ metrics


def _within(spans: Sequence[Span], start: float, end: float) -> List[Span]:
    return [s for s in spans if s["end"] is not None and start <= s["start"] and s["end"] <= end]


def layer_metrics(spans: Sequence[Span], start: float = float("-inf"),
                  end: float = float("inf")) -> Dict[str, float]:
    """Per-layer seconds and counts of the spans inside ``[start, end]``."""
    window = _within(spans, start, end)
    by_id = {s["id"]: s for s in window}

    def seconds(name: str) -> float:
        return sum(s["end"] - s["start"] for s in window if s["name"] == name)

    def total(name: str) -> int:
        return sum(int(s["count"] or 0) for s in window if s["name"] == name)

    minimizations = [s["count"] for s in window if s["name"] == "logic.minimize"]
    # A cache call nested in another (RemoteCache's read-through populate
    # stores through ArtifactCache.put) is part of the outer operation.
    outer = [
        s for s in window
        if s["name"].startswith("flow.cache_")
        and not (s["parent"] in by_id and by_id[s["parent"]]["name"].startswith("flow.cache_"))
    ]
    gets = [s for s in outer if s["name"] == "flow.cache_get"]
    flows = [s for s in window if s["name"] == "flow.run_flow"]
    children = sum(s["end"] - s["start"] for s in window if s["parent"] in
                   {f["id"] for f in flows})
    faultsim_s = seconds("circuit.faultsim")
    cycles = total("circuit.faultsim")
    return {
        "fsm.resolve_s": seconds("fsm.resolve"),
        "encoding.assign_s": seconds("encoding.assign"),
        "encoding.partial_assignments": total("encoding.assign"),
        "bist.excite_s": seconds("bist.excite"),
        "bist.on_set_cubes": total("bist.excite"),
        "logic.minimize_s": seconds("logic.minimize"),
        "logic.factor_s": seconds("logic.factor"),
        "logic.initial_terms": sum(m[0] for m in minimizations),
        "logic.final_terms": sum(m[1] for m in minimizations),
        "logic.espresso_iterations": sum(m[2] for m in minimizations),
        "circuit.netlist_s": seconds("circuit.netlist"),
        "circuit.fault_enum_s": seconds("circuit.fault_enum"),
        "circuit.engine_compile_s": seconds("circuit.engine_compile"),
        "circuit.faultsim_s": faultsim_s,
        "circuit.gates": total("circuit.netlist"),
        "circuit.faults": total("circuit.fault_enum"),
        "circuit.fault_cycles": cycles,
        "circuit.fault_cycles_per_s": cycles / faultsim_s if faultsim_s else 0.0,
        "flow.pipeline_overhead_s": sum(f["end"] - f["start"] for f in flows) - children,
        "flow.cache_writes": sum(1 for s in outer if s["name"] == "flow.cache_put"),
        "flow.cache_hits": sum(int(s["count"]) for s in gets),
        "flow.cache_misses": sum(1 - int(s["count"]) for s in gets),
    }
