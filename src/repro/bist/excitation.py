"""Deriving the combinational-logic truth table for each BIST structure.

Section 3.2 of the paper: once a BIST structure and a state assignment are
fixed, the symbolic FSM description is translated into a truth table for a
multi-output Boolean function whose inputs are the primary inputs plus the
encoded present state and whose outputs are the primary outputs plus the
register excitation variables.  The excitation rule depends on the register:

* DFF:          ``y = s+``
* PST / SIG:    ``y = s+ XOR M(s)``  (MISR state register)
* PAT:          ``y = s+`` and an extra ``Mode`` output; transitions realised
                by the register's autonomous cycle set ``Mode = 0`` and leave
                all ``y`` bits as don't cares.

Unused state codes and unspecified (state, input) combinations are added to
the don't-care set so that the two-level minimiser can exploit them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

from ..encoding.assignment import StateEncoding
from ..fsm.machine import FSM
from ..lfsr.lfsr import LFSR
from ..lfsr.misr import MISR
from ..logic.cover import Cover
from ..logic.truth_table import TruthTable
from .structures import BISTStructure

__all__ = ["ExcitationTable", "derive_excitation"]


@dataclass(frozen=True)
class ExcitationTable:
    """Encoded combinational logic of a synthesised controller.

    Attributes:
        structure: the BIST structure the table was derived for.
        fsm_name: name of the source machine.
        encoding: the state encoding used.
        register: the LFSR underlying the register (``None`` for DFF).
        table: the symbolic truth table (one row per transition plus the
            don't-care rows for unused codes).  ``None`` when the table was
            reconstructed from flow cache artifacts, which persist only the
            covers — everything the minimiser, netlist and Verilog/PLA
            writers consume.
        on_set / dc_set: the covers handed to the two-level minimiser.
        input_names / output_names: signal names, primary signals first.
        num_primary_inputs / num_primary_outputs: widths of the FSM interface.
        mode_output: index of the PAT ``Mode`` output (``None`` otherwise).
        autonomous_transitions: number of transitions realised by the
            register's autonomous cycle (PAT only; 0 otherwise).
    """

    structure: BISTStructure
    fsm_name: str
    encoding: StateEncoding
    register: Optional[LFSR]
    table: Optional[TruthTable]
    on_set: Cover
    dc_set: Cover
    input_names: Tuple[str, ...]
    output_names: Tuple[str, ...]
    num_primary_inputs: int
    num_primary_outputs: int
    mode_output: Optional[int]
    autonomous_transitions: int

    @property
    def state_bits(self) -> int:
        return self.encoding.width


def derive_excitation(
    fsm: FSM,
    encoding: StateEncoding,
    structure: BISTStructure,
    register: Optional[LFSR] = None,
    complete: bool = True,
) -> ExcitationTable:
    """Build the encoded ON/DC covers of the combinational logic.

    Args:
        fsm: the machine to synthesise.
        encoding: state assignment (must cover all states of ``fsm``).
        structure: target BIST structure.
        register: the LFSR/MISR underlying the state register.  Required for
            PAT, PST and SIG (defaults to the primitive-polynomial register of
            matching width); ignored for DFF.
        complete: complete the machine first so that unspecified (state,
            input) combinations become don't cares of the logic.
    """
    encoding.validate_for(fsm)
    machine = fsm.completed() if complete else fsm
    r = encoding.width

    if structure is BISTStructure.DFF:
        reg: Optional[LFSR] = None
    else:
        reg = register if register is not None else LFSR.with_primitive_polynomial(r)
        if reg.width != r:
            raise ValueError(
                f"register width {reg.width} does not match encoding width {r}"
            )
    misr = MISR(reg) if reg is not None and structure in (BISTStructure.PST, BISTStructure.SIG) else None

    p = machine.num_inputs
    q = machine.num_outputs
    has_mode = structure is BISTStructure.PAT
    num_inputs_total = p + r
    num_outputs_total = q + r + (1 if has_mode else 0)

    input_names = tuple([f"in{i}" for i in range(p)] + [f"s{i + 1}" for i in range(r)])
    output_names = tuple(
        [f"out{i}" for i in range(q)]
        + [f"y{i + 1}" for i in range(r)]
        + (["mode"] if has_mode else [])
    )
    mode_output = q + r if has_mode else None

    table = TruthTable(num_inputs_total, num_outputs_total)
    autonomous = 0

    for t in machine.transitions:
        present_code = encoding.code_of(t.present)
        row_inputs = t.inputs + present_code
        outputs = list(t.outputs)

        if t.next == "*":
            excitation = ["-"] * r
            mode_value = "-"
        else:
            next_code = encoding.code_of(t.next)
            if structure is BISTStructure.DFF:
                excitation = list(next_code)
                mode_value = "-"
            elif structure in (BISTStructure.PST, BISTStructure.SIG):
                assert misr is not None
                excitation = list(misr.excitation_for_transition(present_code, next_code))
                mode_value = "-"
            else:  # PAT
                assert reg is not None
                if reg.next_state(present_code) == next_code:
                    excitation = ["-"] * r
                    mode_value = "0"
                    autonomous += 1
                else:
                    excitation = list(next_code)
                    mode_value = "1"

        row_outputs = "".join(outputs) + "".join(excitation) + (mode_value if has_mode else "")
        table.add_row(row_inputs, row_outputs)

    # Unused state codes never occur in system mode: everything is free there.
    for code in encoding.unused_codes():
        table.add_dont_care_row("-" * p + code)

    on_set, dc_set = table.to_covers()
    return ExcitationTable(
        structure=structure,
        fsm_name=machine.name,
        encoding=encoding,
        register=reg,
        table=table,
        on_set=on_set,
        dc_set=dc_set,
        input_names=input_names,
        output_names=output_names,
        num_primary_inputs=p,
        num_primary_outputs=q,
        mode_output=mode_output,
        autonomous_transitions=autonomous,
    )
