"""The complete synthesis flow for self-testable controllers (Fig. 7 / Fig. 9).

Given an FSM description and a target BIST structure, the flow

1. runs the structure-specific state assignment
   (:mod:`repro.encoding.mustang` for DFF, :mod:`repro.encoding.pat` for PAT,
   :mod:`repro.encoding.misr_assign` for PST/SIG),
2. derives the excitation functions of the state register
   (:mod:`repro.bist.excitation`),
3. minimises the resulting multi-output function with the two-level heuristic
   minimiser, and
4. reports the metrics used in the paper's evaluation (product terms,
   two-level literals, multi-level factored literals).

The central entry point is :func:`synthesize`; :func:`synthesize_all_structures`
produces the per-structure results needed by the Table 3 experiment.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Mapping, Optional, Sequence, Tuple

from ..encoding.assignment import StateEncoding
from ..logic.symbolic import SymbolicImplicant
from ..encoding.misr_assign import MISRAssignmentResult, assign_misr_states
from ..encoding.mustang import assign_mustang
from ..encoding.pat import assign_pat
from ..fsm.machine import FSM
from ..lfsr.lfsr import LFSR
from ..logic.espresso import MinimizationResult, minimize
from ..logic.factor import multilevel_literal_count
from .excitation import ExcitationTable, derive_excitation
from .structures import BISTStructure, StructureProfile, structure_profile

__all__ = [
    "SynthesisOptions",
    "SynthesizedController",
    "synthesize",
    "synthesize_all_structures",
    "assign_states",
    "minimize_excitation",
]


@dataclass(frozen=True)
class SynthesisOptions:
    """Knobs of the synthesis flow.

    Attributes:
        width: number of state variables (defaults to the minimum ``r0``).
        beam_width: beam width of the MISR state assignment.
        partitions_per_column: candidate partitions per column (``k``).
        seed: seed for all randomised tie-breaking.
        minimize_method: ``"espresso"``, ``"quick"`` or ``"auto"`` (quick for
            covers above ``quick_threshold`` cubes).
        espresso_iterations: EXPAND/IRREDUNDANT rounds.
        tautology_budget: per-check node budget of the minimiser.
        quick_threshold: ON-set size above which ``"auto"`` falls back to the
            quick minimiser.
        assignment_engine: scoring engine of the MISR state assignment —
            ``"incremental"`` (bitmask engine) or ``"reference"`` (original
            full-rescore implementation; bit-identical, kept as the oracle).
        multi_start: independent MISR-assignment searches; the best wins.
        max_polynomials: primitive feedback polynomials examined per width
            during the MISR assignment (the polynomial-ablation axis).
        input_weight: weight of the input (face) incompatibility term of the
            assignment cost function.
        output_weight: weight of the output (excitation) incompatibility
            term of the assignment cost function.
    """

    width: Optional[int] = None
    beam_width: int = 4
    partitions_per_column: int = 8
    seed: int = 0
    minimize_method: str = "auto"
    espresso_iterations: int = 3
    tautology_budget: Optional[int] = 20_000
    quick_threshold: int = 700
    assignment_engine: str = "incremental"
    multi_start: int = 1
    max_polynomials: int = 16
    input_weight: int = 2
    output_weight: int = 1


@dataclass(frozen=True)
class SynthesizedController:
    """Result of synthesising one FSM for one BIST structure."""

    fsm: FSM
    structure: BISTStructure
    encoding: StateEncoding
    register: Optional[LFSR]
    excitation: ExcitationTable
    minimization: MinimizationResult
    assignment_report: Mapping[str, object] = field(default_factory=dict)

    @property
    def product_terms(self) -> int:
        """Number of product terms after two-level minimisation."""
        return self.minimization.final_terms

    @property
    def sop_literals(self) -> int:
        """Two-level literal count of the minimised cover."""
        return self.minimization.cover.sop_literal_count()

    @property
    def profile(self) -> StructureProfile:
        return structure_profile(self.structure, self.encoding.width)

    def multilevel_literals(self) -> int:
        """Factored-form literal count after common-cube extraction."""
        return multilevel_literal_count(
            self.minimization.cover,
            input_names=list(self.excitation.input_names),
            output_names=list(self.excitation.output_names),
        )

    def summary(self) -> Dict[str, object]:
        """Flat dictionary of the headline metrics (for reports and tests)."""
        return {
            "fsm": self.fsm.name,
            "structure": self.structure.value,
            "state_bits": self.encoding.width,
            "product_terms": self.product_terms,
            "sop_literals": self.sop_literals,
            "autonomous_transitions": self.excitation.autonomous_transitions,
            "register_polynomial": self.register.polynomial if self.register else None,
        }


def synthesize(
    fsm: FSM,
    structure: BISTStructure,
    encoding: Optional[StateEncoding] = None,
    register: Optional[LFSR] = None,
    options: Optional[SynthesisOptions] = None,
    implicants: Optional[Sequence[SymbolicImplicant]] = None,
) -> SynthesizedController:
    """Synthesise ``fsm`` for the given BIST ``structure``.

    When ``encoding`` is omitted, the structure-specific state-assignment
    algorithm is run first; when ``register`` is omitted, the default
    primitive-polynomial register of matching width is used (PST/SIG use the
    polynomial chosen by the assignment procedure).  ``implicants`` passes a
    precomputed symbolic minimisation through to the PST/SIG state
    assignment, so callers synthesising one machine repeatedly (sweeps,
    multi-start studies) pay for it once.
    """
    opts = options or SynthesisOptions()
    report: Dict[str, object] = {}

    if encoding is None:
        encoding, register, report = assign_states(fsm, structure, register, opts, implicants)
    else:
        encoding.validate_for(fsm)
        report = {"assignment": "caller-provided"}

    excitation = derive_excitation(fsm, encoding, structure, register=register)
    minimization = minimize_excitation(excitation, opts)
    return SynthesizedController(
        fsm=fsm,
        structure=structure,
        encoding=encoding,
        register=excitation.register,
        excitation=excitation,
        minimization=minimization,
        assignment_report=report,
    )


def synthesize_all_structures(
    fsm: FSM,
    structures: Tuple[BISTStructure, ...] = (
        BISTStructure.PST,
        BISTStructure.DFF,
        BISTStructure.PAT,
    ),
    options: Optional[SynthesisOptions] = None,
) -> Dict[BISTStructure, SynthesizedController]:
    """Synthesise one FSM for several structures (the Table 3 experiment)."""
    return {structure: synthesize(fsm, structure, options=options) for structure in structures}


# ------------------------------------------------------------ stage helpers
# assign_states / minimize_excitation are the single implementations of the
# "assign" and "minimize" stages; synthesize() above and the staged pipeline
# in repro.flow both call them, so the two entry points cannot drift.


def assign_states(
    fsm: FSM,
    structure: BISTStructure,
    register: Optional[LFSR],
    opts: SynthesisOptions,
    implicants: Optional[Sequence[SymbolicImplicant]] = None,
) -> Tuple[StateEncoding, Optional[LFSR], Dict[str, object]]:
    """Run the structure-specific state assignment of the flow's assign stage."""
    if structure is BISTStructure.DFF:
        result = assign_mustang(fsm, width=opts.width)
        return result.encoding, None, {
            "assignment": "mustang",
            "weighted_distance": result.total_weighted_distance,
        }
    if structure is BISTStructure.PAT:
        result = assign_pat(fsm, width=opts.width, lfsr=register)
        return result.encoding, result.lfsr, {
            "assignment": "pat",
            "covered_transitions": result.covered,
            "total_transitions": result.total,
        }
    if structure in (BISTStructure.PST, BISTStructure.SIG):
        result: MISRAssignmentResult = assign_misr_states(
            fsm,
            width=opts.width,
            beam_width=opts.beam_width,
            partitions_per_column=opts.partitions_per_column,
            seed=opts.seed,
            implicants=implicants,
            max_polynomials=opts.max_polynomials,
            input_weight=opts.input_weight,
            output_weight=opts.output_weight,
            engine=opts.assignment_engine,
            multi_start=opts.multi_start,
        )
        chosen_register = register if register is not None else result.lfsr
        return result.encoding, chosen_register, {
            "assignment": "misr",
            "cost": result.cost,
            "feedback_cost": result.feedback_cost,
            "column_costs": list(result.column_costs),
            "partial_assignments_explored": result.partial_assignments_explored,
        }
    raise ValueError(f"unknown structure {structure!r}")


def minimize_excitation(excitation: ExcitationTable, opts: SynthesisOptions) -> MinimizationResult:
    method = opts.minimize_method
    if method == "auto":
        method = "quick" if len(excitation.on_set) > opts.quick_threshold else "espresso"
    return minimize(
        excitation.on_set,
        excitation.dc_set,
        max_iterations=opts.espresso_iterations,
        tautology_budget=opts.tautology_budget,
        method=method,
    )
