"""Self-test session simulation for the BIST structures.

The paper argues (Section 2.5) that the parallel self-test structure PST
detects all dynamic faults relevant to system operation and removes the
controllability problems of reconfigured registers, at the price of a
somewhat longer test (about 30 % more random patterns in the analysis of
EsWu 91).  This module turns those arguments into measurable experiments:

* :func:`simulate_parallel_self_test` — the PST/SIG session: the circuit runs
  in its (single) system mode, primary inputs are driven by random patterns,
  and faults are observed on the primary outputs and the next-state lines
  (which the MISR state register compacts into a signature).
* :func:`simulate_conventional_self_test` — the DFF/PAT session: the state
  register is reconfigured as a pattern generator, so the combinational logic
  sees a fully controllable LFSR sequence on its state inputs while the
  responses are captured in a separate MISR.
* :func:`patterns_for_coverage` — the pattern count needed to reach a
  target stuck-at coverage, the quantity compared in the E6 experiment.

Both sessions fault-simulate through the compiled engine of
:mod:`repro.circuit.engine` by default (``engine="compiled"``); pass
``engine="legacy"`` to use the original interpreted loop.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from ..bist.structures import BISTStructure
from ..bist.synthesis import SynthesizedController
from ..lfsr.lfsr import LFSR
from .faults import FaultSimulator
from .netlist import Netlist, netlist_from_controller, netlist_from_cover
from .simulate import LogicSimulator

__all__ = [
    "SelfTestResult",
    "simulate_parallel_self_test",
    "simulate_conventional_self_test",
    "patterns_for_coverage",
    "compare_test_lengths",
]


@dataclass(frozen=True)
class SelfTestResult:
    """Outcome of one self-test session."""

    structure: BISTStructure
    patterns_applied: int
    total_faults: int
    detected_faults: int
    coverage_curve: Tuple[Tuple[int, float], ...]
    signature: Optional[str]

    @property
    def fault_coverage(self) -> float:
        return self.detected_faults / self.total_faults if self.total_faults else 1.0


def simulate_parallel_self_test(
    controller: SynthesizedController,
    max_patterns: int = 512,
    seed: int = 0,
    netlist: Optional[Netlist] = None,
    engine: str = "compiled",
) -> SelfTestResult:
    """Run a PST-style self-test: system mode, random primary-input patterns.

    The session is one sequential run, so the simulation uses a single
    pattern lane per cycle (``word_width=1``); ``engine`` selects the
    fault-simulation back end (see :class:`repro.circuit.faults.FaultSimulator`).
    """
    circuit = netlist if netlist is not None else netlist_from_controller(controller)
    simulator = FaultSimulator(circuit, word_width=1, engine=engine)
    rng = random.Random(seed)
    sequence = [
        {name: rng.getrandbits(1) for name in circuit.primary_inputs}
        for _ in range(max_patterns)
    ]
    result = simulator.run(sequence, stop_when_all_detected=False)
    signature = _state_signature(controller, circuit, sequence)
    return SelfTestResult(
        structure=controller.structure,
        patterns_applied=max_patterns,
        total_faults=result.total_faults,
        detected_faults=result.detected_count,
        coverage_curve=tuple(result.coverage_curve(max_patterns)),
        signature=signature,
    )


def simulate_conventional_self_test(
    controller: SynthesizedController,
    max_patterns: int = 512,
    seed: int = 0,
    engine: str = "compiled",
) -> SelfTestResult:
    """Run a DFF-style self-test of the combinational logic.

    In the conventional structure the state register is reconfigured as a
    pattern generator during the test, so the combinational logic sees fully
    controllable pseudo-random values on its state inputs.  Only the
    combinational plane is built; the state inputs become primary inputs of
    the test circuit and are driven by the autonomous LFSR sequence.
    """
    excitation = controller.excitation
    circuit = netlist_from_cover(
        controller.minimization.cover,
        excitation.input_names,
        excitation.output_names,
    )
    for name in excitation.output_names:
        circuit.mark_output(name)

    r = excitation.state_bits
    generator = controller.register if controller.register is not None else LFSR.with_primitive_polynomial(r)
    state_names = list(excitation.input_names[excitation.num_primary_inputs :])
    rng = random.Random(seed)

    lfsr_state = "0" * (r - 1) + "1"
    sequence: List[Dict[str, int]] = []
    for _ in range(max_patterns):
        vector = {name: rng.getrandbits(1) for name in excitation.input_names[: excitation.num_primary_inputs]}
        for i, name in enumerate(state_names):
            vector[name] = int(lfsr_state[i])
        sequence.append(vector)
        lfsr_state = generator.next_state(lfsr_state)

    simulator = FaultSimulator(circuit, word_width=1, engine=engine)
    result = simulator.run(sequence, stop_when_all_detected=False)
    return SelfTestResult(
        structure=controller.structure,
        patterns_applied=max_patterns,
        total_faults=result.total_faults,
        detected_faults=result.detected_count,
        coverage_curve=tuple(result.coverage_curve(max_patterns)),
        signature=None,
    )


def patterns_for_coverage(result: SelfTestResult, target: float) -> Optional[int]:
    """Patterns needed to reach ``target`` coverage (``None`` if never reached)."""
    for cycle, coverage in result.coverage_curve:
        if coverage >= target:
            return cycle
    return None


def compare_test_lengths(
    pst_result: SelfTestResult,
    dff_result: SelfTestResult,
    target: float = 0.9,
) -> Dict[str, object]:
    """Summarise the E6 experiment: relative test length PST vs conventional."""
    pst_length = patterns_for_coverage(pst_result, target)
    dff_length = patterns_for_coverage(dff_result, target)
    ratio: Optional[float] = None
    if pst_length is not None and dff_length:
        ratio = pst_length / dff_length
    return {
        "target_coverage": target,
        "pst_patterns": pst_length,
        "conventional_patterns": dff_length,
        "ratio": ratio,
        "pst_final_coverage": pst_result.fault_coverage,
        "conventional_final_coverage": dff_result.fault_coverage,
    }


def _state_signature(
    controller: SynthesizedController, circuit: Netlist, sequence: Sequence[Dict[str, int]]
) -> Optional[str]:
    """Fault-free signature left in the MISR state register after the session."""
    if controller.structure not in (BISTStructure.PST, BISTStructure.SIG):
        return None
    if controller.register is None:
        return None
    simulator = LogicSimulator(circuit, word_width=1)
    state = simulator.reset_state()
    for inputs in sequence:
        _, state = simulator.step(inputs, state)
    return "".join(str(state[name] & 1) for name in circuit.state_signals)
