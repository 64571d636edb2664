"""Gate-level netlists generated from synthesised controllers.

To evaluate testability claims (fault coverage, test length, dynamic-fault
observability) the synthesised two-level logic is turned into an actual
gate-level circuit: an AND/OR plane for the cover, inverters for complemented
literals, plus the register structure of the chosen BIST scheme (plain
D flip-flops, a MISR with its XOR network, or the PAT multiplexer between
loading and autonomous stepping).  The netlist is consumed by the logic and
fault simulators in :mod:`repro.circuit.simulate` and
:mod:`repro.circuit.faults`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from ..bist.structures import BISTStructure
from ..bist.synthesis import SynthesizedController
from ..logic.cover import Cover

__all__ = ["Gate", "FlipFlop", "Netlist", "netlist_from_cover", "netlist_from_controller"]


GATE_TYPES = ("INPUT", "CONST0", "CONST1", "BUF", "NOT", "AND", "OR", "XOR")


@dataclass(frozen=True)
class Gate:
    """One combinational gate: ``output = type(inputs)``."""

    output: str
    kind: str
    inputs: Tuple[str, ...] = ()

    def __post_init__(self) -> None:
        if self.kind not in GATE_TYPES:
            raise ValueError(f"unknown gate type {self.kind!r}")
        if self.kind in ("INPUT", "CONST0", "CONST1") and self.inputs:
            raise ValueError(f"{self.kind} gate {self.output!r} must not have inputs")
        if self.kind in ("BUF", "NOT") and len(self.inputs) != 1:
            raise ValueError(f"{self.kind} gate {self.output!r} needs exactly one input")
        if self.kind in ("AND", "OR", "XOR") and len(self.inputs) < 1:
            raise ValueError(f"{self.kind} gate {self.output!r} needs at least one input")


@dataclass(frozen=True)
class FlipFlop:
    """A D flip-flop: ``state`` takes the value of ``data`` at every clock."""

    state: str
    data: str
    reset_value: int = 0


class Netlist:
    """A synchronous gate-level circuit."""

    def __init__(self, name: str) -> None:
        self.name = name
        self.primary_inputs: List[str] = []
        self.primary_outputs: List[str] = []
        self.gates: Dict[str, Gate] = {}
        self.flip_flops: List[FlipFlop] = []

    # -------------------------------------------------------------- building
    def add_primary_input(self, name: str) -> str:
        self._check_new_signal(name)
        self.primary_inputs.append(name)
        self.gates[name] = Gate(name, "INPUT")
        return name

    def add_gate(self, output: str, kind: str, inputs: Sequence[str] = ()) -> str:
        self._check_new_signal(output)
        self.gates[output] = Gate(output, kind, tuple(inputs))
        return output

    def add_flip_flop(self, state: str, data: str, reset_value: int = 0) -> str:
        self._check_new_signal(state)
        self.gates[state] = Gate(state, "INPUT")  # state outputs behave as pseudo inputs
        self.flip_flops.append(FlipFlop(state, data, reset_value))
        return state

    def mark_output(self, signal: str) -> None:
        if signal not in self.gates:
            raise ValueError(f"cannot mark unknown signal {signal!r} as output")
        if signal not in self.primary_outputs:
            self.primary_outputs.append(signal)

    def _check_new_signal(self, name: str) -> None:
        if name in self.gates:
            raise ValueError(f"signal {name!r} already defined")

    # -------------------------------------------------------------- queries
    @property
    def state_signals(self) -> List[str]:
        return [ff.state for ff in self.flip_flops]

    def signals(self) -> List[str]:
        return list(self.gates)

    def gate_count(self) -> int:
        """Number of real gates (excluding inputs, constants and state outputs)."""
        pseudo = set(self.primary_inputs) | set(self.state_signals)
        return sum(
            1
            for g in self.gates.values()
            if g.output not in pseudo and g.kind not in ("INPUT", "CONST0", "CONST1")
        )

    def xor_gate_count(self) -> int:
        return sum(1 for g in self.gates.values() if g.kind == "XOR")

    def validate(self) -> None:
        """Check that all gate inputs exist and the combinational part is acyclic."""
        for gate in self.gates.values():
            for src in gate.inputs:
                if src not in self.gates:
                    raise ValueError(f"gate {gate.output!r} references unknown signal {src!r}")
        for ff in self.flip_flops:
            if ff.data not in self.gates:
                raise ValueError(f"flip-flop {ff.state!r} references unknown data signal {ff.data!r}")
        self.topological_order()

    def topological_order(self) -> List[str]:
        """Combinational evaluation order (pseudo inputs first, DFS based)."""
        order: List[str] = []
        visited: Dict[str, int] = {}

        def visit(signal: str, stack: List[str]) -> None:
            mark = visited.get(signal, 0)
            if mark == 2:
                return
            if mark == 1:
                raise ValueError(
                    "combinational cycle through " + " -> ".join(stack + [signal])
                )
            visited[signal] = 1
            gate = self.gates[signal]
            if gate.kind not in ("INPUT", "CONST0", "CONST1"):
                for src in gate.inputs:
                    visit(src, stack + [signal])
            visited[signal] = 2
            order.append(signal)

        for signal in self.gates:
            visit(signal, [])
        return order


# --------------------------------------------------------------------------
# Builders
# --------------------------------------------------------------------------


def netlist_from_cover(
    cover: Cover,
    input_names: Sequence[str],
    output_names: Sequence[str],
    netlist: Optional[Netlist] = None,
    prefix: str = "",
    create_inputs: bool = True,
) -> Netlist:
    """Build (or extend) a netlist with the AND/OR planes of a cover."""
    if len(input_names) != cover.num_inputs or len(output_names) != cover.num_outputs:
        raise ValueError("signal name lists must match the cover dimensions")
    circuit = netlist if netlist is not None else Netlist("cover")
    if create_inputs:
        for name in input_names:
            circuit.add_primary_input(name)

    inverters: Dict[str, str] = {}

    def inverted(signal: str) -> str:
        if signal not in inverters:
            inv = f"{prefix}n_{signal}"
            circuit.add_gate(inv, "NOT", [signal])
            inverters[signal] = inv
        return inverters[signal]

    product_signals: List[str] = []
    for index, cube in enumerate(cover.cubes):
        literals: List[str] = []
        for var in range(cover.num_inputs):
            field_value = cube.input_literal(var)
            if field_value == 0b10:
                literals.append(input_names[var])
            elif field_value == 0b01:
                literals.append(inverted(input_names[var]))
        name = f"{prefix}p{index}"
        if literals:
            circuit.add_gate(name, "AND", literals)
        else:
            circuit.add_gate(name, "CONST1")
        product_signals.append(name)

    for out_index, out_name in enumerate(output_names):
        terms = [
            product_signals[i]
            for i, cube in enumerate(cover.cubes)
            if cube.outputs >> out_index & 1
        ]
        if terms:
            circuit.add_gate(out_name, "OR", terms)
        else:
            circuit.add_gate(out_name, "CONST0")
    return circuit


def netlist_from_controller(controller: SynthesizedController) -> Netlist:
    """Build the full sequential circuit of a synthesised controller.

    The combinational plane comes from the minimised cover; the register
    structure follows the controller's BIST structure:

    * DFF — excitation bits feed the flip-flops directly,
    * PST / SIG — each flip-flop input is ``y_i XOR s_{i-1}`` (``y_1 XOR m(s)``
      for the first stage), i.e. the MISR is part of the system path,
    * PAT — a per-bit multiplexer selects between the excitation bits
      (``Mode = 1``) and the autonomous LFSR step (``Mode = 0``).
    """
    excitation = controller.excitation
    structure = controller.structure
    r = excitation.state_bits
    circuit = Netlist(f"{controller.fsm.name}_{structure.value.lower()}")

    # Primary inputs and state (pseudo) inputs.
    for name in excitation.input_names[: excitation.num_primary_inputs]:
        circuit.add_primary_input(name)
    state_names = list(excitation.input_names[excitation.num_primary_inputs :])

    reset_code = controller.encoding.code_of(controller.fsm.reset_state)
    data_names = [f"d{i + 1}" for i in range(r)]
    for i, state in enumerate(state_names):
        circuit.add_flip_flop(state, data_names[i], reset_value=int(reset_code[i]))

    # Combinational plane.
    netlist_from_cover(
        controller.minimization.cover,
        excitation.input_names,
        excitation.output_names,
        netlist=circuit,
        create_inputs=False,
    )

    for name in excitation.output_names[: excitation.num_primary_outputs]:
        circuit.mark_output(name)

    y_names = [
        excitation.output_names[excitation.num_primary_outputs + i] for i in range(r)
    ]

    if structure is BISTStructure.DFF:
        for i in range(r):
            circuit.add_gate(data_names[i], "BUF", [y_names[i]])
        return circuit

    register = controller.register
    if register is None:
        raise ValueError(f"structure {structure} requires a register definition")
    feedback_inputs = [state_names[stage - 1] for stage in register.feedback_taps]

    if structure in (BISTStructure.PST, BISTStructure.SIG):
        feedback = circuit.add_gate("m_s", "XOR", feedback_inputs)
        for i in range(r):
            shifted = feedback if i == 0 else state_names[i - 1]
            circuit.add_gate(data_names[i], "XOR", [y_names[i], shifted])
        return circuit

    # PAT: data_i = Mode ? y_i : M(s)_i
    assert excitation.mode_output is not None
    mode_name = excitation.output_names[excitation.mode_output]
    mode_not = circuit.add_gate("n_mode", "NOT", [mode_name])
    feedback = circuit.add_gate("m_s", "XOR", feedback_inputs)
    for i in range(r):
        autonomous = feedback if i == 0 else state_names[i - 1]
        load_branch = circuit.add_gate(f"load{i + 1}", "AND", [mode_name, y_names[i]])
        auto_branch = circuit.add_gate(f"auto{i + 1}", "AND", [mode_not, autonomous])
        circuit.add_gate(data_names[i], "OR", [load_branch, auto_branch])
    return circuit
