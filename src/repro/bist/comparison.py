"""Comparing the BIST structures for one machine (Table 1 of the paper).

Table 1 of the paper is a qualitative comparison of the four structures
(area, speed, test length, test control effort, dynamic fault detection).
This module produces the quantitative counterpart for a concrete machine:
every structure is synthesised, and the resulting product terms, literals,
register bits, control signals and data-path XOR counts are collected next to
the paper's qualitative ratings, so the benchmark harness can check that the
measured trends match the published expectations.

With ``fault_patterns`` set, :func:`compare_structures` additionally
fault-simulates every synthesised circuit with random patterns through the
compiled engine of :mod:`repro.circuit.engine` and reports the measured
stuck-at fault coverage per structure.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from ..fsm.machine import FSM
from .structures import BISTStructure, PAPER_TABLE1
from .synthesis import SynthesisOptions, SynthesizedController

__all__ = ["StructureMetrics", "StructureComparison", "compare_structures"]


@dataclass(frozen=True)
class StructureMetrics:
    """Quantitative metrics of one synthesised structure."""

    structure: BISTStructure
    product_terms: int
    sop_literals: int
    multilevel_literals: int
    register_bits: int
    control_signals: int
    xor_gates_in_system_path: int
    mode_multiplexers: int
    disjoint_test_mode: bool
    at_speed_dynamic_fault_test: bool
    autonomous_transitions: int
    fault_coverage: Optional[float] = None
    fault_total: Optional[int] = None


@dataclass(frozen=True)
class StructureComparison:
    """Synthesis results of one machine across several BIST structures."""

    fsm_name: str
    metrics: Tuple[StructureMetrics, ...]
    controllers: Mapping[BISTStructure, SynthesizedController]

    def metric_for(self, structure: BISTStructure) -> StructureMetrics:
        for m in self.metrics:
            if m.structure is structure:
                return m
        raise KeyError(f"structure {structure} not part of this comparison")

    def qualitative_ratings(self) -> Dict[str, Mapping[BISTStructure, str]]:
        """The paper's Table 1 ratings for the compared structures."""
        return {
            criterion: {s: ratings[s] for s in ratings if any(m.structure is s for m in self.metrics)}
            for criterion, ratings in PAPER_TABLE1.items()
        }

    def as_rows(self) -> List[Dict[str, object]]:
        """Row dictionaries for table rendering.

        Delegates to the flow-dict renderer so the comparison table and
        ``repro compare`` share one column definition that cannot drift.
        """
        from ..reporting.tables import structure_rows_from_results

        return structure_rows_from_results([
            {
                "structure": m.structure.value,
                "metrics": {
                    "product_terms": m.product_terms,
                    "sop_literals": m.sop_literals,
                    "multilevel_literals": m.multilevel_literals,
                    "register_bits": m.register_bits,
                    "control_signals": m.control_signals,
                    "xor_gates_in_system_path": m.xor_gates_in_system_path,
                    "mode_multiplexers": m.mode_multiplexers,
                    "disjoint_test_mode": m.disjoint_test_mode,
                    "at_speed_dynamic_fault_test": m.at_speed_dynamic_fault_test,
                    "autonomous_transitions": m.autonomous_transitions,
                    "fault_coverage": m.fault_coverage,
                    "fault_total": m.fault_total,
                },
            }
            for m in self.metrics
        ])


def compare_structures(
    fsm: FSM,
    structures: Sequence[BISTStructure] = (
        BISTStructure.DFF,
        BISTStructure.PAT,
        BISTStructure.SIG,
        BISTStructure.PST,
    ),
    options: Optional[SynthesisOptions] = None,
    fault_patterns: Optional[int] = None,
    word_width: int = 256,
    engine: str = "compiled",
    fault_seed: int = 0,
) -> StructureComparison:
    """Synthesise ``fsm`` for every requested structure and collect metrics.

    When ``fault_patterns`` is given, every structure's gate-level circuit is
    additionally fault-simulated with that many random patterns (exactly that
    many — partial final words are lane-masked) and the measured stuck-at
    coverage is attached to the metrics; ``word_width`` and ``engine`` tune
    the fault-simulation back end.

    This is a compatibility wrapper over the staged pipeline of
    :mod:`repro.flow` — each structure runs through :func:`repro.flow.run_flow`
    with the same stage functions :func:`synthesize` uses, so the outputs are
    identical to the historical per-structure synthesis loop.
    """
    # Imported here: repro.flow builds on repro.bist, so a module-level import
    # would be circular during package initialisation.
    from ..flow.config import FlowConfig
    from ..flow.pipeline import run_flow

    controllers: Dict[BISTStructure, SynthesizedController] = {}
    metrics: List[StructureMetrics] = []
    for structure in structures:
        config = FlowConfig.from_synthesis_options(
            options,
            structure=structure.value,
            engine=engine,
            word_width=word_width,
            fault_patterns=fault_patterns,
            fault_seed=fault_seed,
        )
        result = run_flow(fsm, config, materialize=True)
        controllers[structure] = result.controller
        m = result.metrics
        metrics.append(
            StructureMetrics(
                structure=structure,
                product_terms=m["product_terms"],
                sop_literals=m["sop_literals"],
                multilevel_literals=m["multilevel_literals"],
                register_bits=m["register_bits"],
                control_signals=m["control_signals"],
                xor_gates_in_system_path=m["xor_gates_in_system_path"],
                mode_multiplexers=m["mode_multiplexers"],
                disjoint_test_mode=m["disjoint_test_mode"],
                at_speed_dynamic_fault_test=m["at_speed_dynamic_fault_test"],
                autonomous_transitions=m["autonomous_transitions"],
                fault_coverage=m["fault_coverage"],
                fault_total=m["fault_total"],
            )
        )
    return StructureComparison(fsm.name, tuple(metrics), controllers)
