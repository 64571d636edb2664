"""The four BIST target structures of the paper (Section 2).

* **DFF** — conventional self-test: the state register behaves as plain
  D flip-flops in system mode; pattern generation and signature analysis are
  provided by additional/reconfigured registers (Fig. 2a/2b).
* **PAT** — the state register's autonomous pattern-generation cycle is
  reused in system mode ("smart state register", Fig. 4); an extra ``Mode``
  output of the combinational logic selects between loading the excitation
  variables and stepping autonomously.
* **SIG** — the signature register (MISR) is integrated as the state
  register; a separate pattern generator supplies test stimuli (Fig. 6).
* **PST** — parallel self-test: the MISR is the state register *and* its
  contents serve as test patterns; there is no dedicated test mode (Fig. 5).

Each structure is described by a :class:`StructureProfile` holding the
structural properties used by the Table 1 comparison: register bits, control
signals, XOR gates in the system data path, whether test mode differs from
system mode, and the qualitative ratings reported in the paper.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Dict, Mapping

__all__ = ["BISTStructure", "StructureProfile", "structure_profile", "PAPER_TABLE1"]


class BISTStructure(str, Enum):
    """Identifier of a BIST target structure."""

    DFF = "DFF"
    PAT = "PAT"
    SIG = "SIG"
    PST = "PST"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


@dataclass(frozen=True)
class StructureProfile:
    """Structural properties of one BIST structure for ``r`` state variables.

    Attributes:
        structure: which structure this profile describes.
        register_bits: storage elements used for state + self-test registers.
        control_signals: test-control signals needed to operate the register.
        xor_gates_in_system_path: XOR gates permanently in the state data path.
        mode_multiplexers: per-bit multiplexers/reconfiguration gates in front
            of the register (a speed penalty in system mode).
        disjoint_test_mode: ``True`` when the self-test uses a state diagram
            different from system mode (the controllability issue of
            Section 2.4).
        extra_logic_outputs: additional combinational outputs (the ``Mode``
            signal of PAT).
        uses_misr_state_register: ``True`` for PST and SIG.
        at_speed_dynamic_fault_test: ``True`` when dynamic faults of system
            mode can be tested at full clock frequency.
    """

    structure: BISTStructure
    register_bits: int
    control_signals: int
    xor_gates_in_system_path: int
    mode_multiplexers: int
    disjoint_test_mode: bool
    extra_logic_outputs: int
    uses_misr_state_register: bool
    at_speed_dynamic_fault_test: bool


def structure_profile(structure: BISTStructure, state_bits: int) -> StructureProfile:
    """Build the structural profile of ``structure`` for ``state_bits`` variables."""
    r = int(state_bits)
    if r < 1:
        raise ValueError("state_bits must be >= 1")
    if structure is BISTStructure.DFF:
        # Conventional: the direct feedback path is broken by doubling the
        # flip-flops; a register dedicated to response compaction is added.
        return StructureProfile(
            structure=structure,
            register_bits=2 * r,
            control_signals=2,
            xor_gates_in_system_path=0,
            mode_multiplexers=r,
            disjoint_test_mode=True,
            extra_logic_outputs=0,
            uses_misr_state_register=False,
            at_speed_dynamic_fault_test=False,
        )
    if structure is BISTStructure.PAT:
        # Same register arrangement as DFF, but the pattern-generator cycle is
        # reused in system mode via the extra Mode output.
        return StructureProfile(
            structure=structure,
            register_bits=2 * r,
            control_signals=2,
            xor_gates_in_system_path=0,
            mode_multiplexers=r,
            disjoint_test_mode=True,
            extra_logic_outputs=1,
            uses_misr_state_register=False,
            at_speed_dynamic_fault_test=False,
        )
    if structure is BISTStructure.SIG:
        # MISR integrated as state register, separate pattern generator.
        return StructureProfile(
            structure=structure,
            register_bits=2 * r,
            control_signals=1,
            xor_gates_in_system_path=r,
            mode_multiplexers=0,
            disjoint_test_mode=False,
            extra_logic_outputs=0,
            uses_misr_state_register=True,
            at_speed_dynamic_fault_test=True,
        )
    if structure is BISTStructure.PST:
        # Parallel self-test: MISR state register, signatures double as test
        # patterns; only a scan mode is needed besides normal operation.
        return StructureProfile(
            structure=structure,
            register_bits=r,
            control_signals=1,
            xor_gates_in_system_path=r,
            mode_multiplexers=0,
            disjoint_test_mode=False,
            extra_logic_outputs=0,
            uses_misr_state_register=True,
            at_speed_dynamic_fault_test=True,
        )
    raise ValueError(f"unknown structure {structure!r}")


# Qualitative ratings of Table 1 of the paper ("++" best ... "--" worst).
PAPER_TABLE1: Dict[str, Mapping[BISTStructure, str]] = {
    "combinational logic area": {
        BISTStructure.DFF: "0",
        BISTStructure.PAT: "++",
        BISTStructure.SIG: "+/-",
        BISTStructure.PST: "+/-",
    },
    "storage elements": {
        BISTStructure.DFF: "-",
        BISTStructure.PAT: "-",
        BISTStructure.SIG: "0",
        BISTStructure.PST: "+",
    },
    "speed": {
        BISTStructure.DFF: "0",
        BISTStructure.PAT: "-",
        BISTStructure.SIG: "0",
        BISTStructure.PST: "++",
    },
    "test length": {
        BISTStructure.DFF: "+",
        BISTStructure.PAT: "+",
        BISTStructure.SIG: "+/-",
        BISTStructure.PST: "0/-",
    },
    "test control effort": {
        BISTStructure.DFF: "-",
        BISTStructure.PAT: "-",
        BISTStructure.SIG: "0",
        BISTStructure.PST: "+",
    },
    "dynamic fault detection": {
        BISTStructure.DFF: "-",
        BISTStructure.PAT: "-",
        BISTStructure.SIG: "0",
        BISTStructure.PST: "+",
    },
}
