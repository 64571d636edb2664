"""Emitting synthesised controllers as structural Verilog.

Downstream users of a synthesis flow want a netlist they can hand to other
tools.  This module renders a :class:`~repro.circuit.netlist.Netlist` (and,
as a convenience, a synthesised controller) as a self-contained structural
Verilog module using only ``assign`` statements for the combinational gates
and one clocked ``always`` block for the state register, so the output is
accepted by any Verilog front end without cell libraries.
"""

from __future__ import annotations

from typing import List, Optional, Set

from ..bist.synthesis import SynthesizedController
from .netlist import Gate, Netlist, netlist_from_controller

__all__ = ["netlist_to_verilog", "controller_to_verilog"]

_OPERATORS = {"AND": " & ", "OR": " | ", "XOR": " ^ "}


def _escape(name: str) -> str:
    """Make a signal name Verilog-safe (simple identifiers only)."""
    safe = "".join(ch if ch.isalnum() or ch == "_" else "_" for ch in name)
    if not safe or safe[0].isdigit():
        safe = "s_" + safe
    return safe


def netlist_to_verilog(netlist: Netlist, module_name: Optional[str] = None) -> str:
    """Render a netlist as a structural Verilog module.

    The module has ``clk`` and ``rst`` inputs in addition to the circuit's
    primary inputs; ``rst`` loads the flip-flops' reset values synchronously.
    """
    netlist.validate()
    name = _escape(module_name or netlist.name or "controller")
    inputs = [_escape(s) for s in netlist.primary_inputs]
    outputs = [_escape(s) for s in netlist.primary_outputs]
    states = {ff.state for ff in netlist.flip_flops}

    lines: List[str] = []
    ports = ["clk", "rst"] + inputs + outputs
    lines.append(f"module {name} (")
    lines.append("    " + ",\n    ".join(ports))
    lines.append(");")
    lines.append("  input clk;")
    lines.append("  input rst;")
    for sig in inputs:
        lines.append(f"  input {sig};")
    for sig in outputs:
        lines.append(f"  output {sig};")

    # Internal wires (everything that is not a port) and state registers.
    declared = set(inputs) | set(outputs) | {"clk", "rst"}
    for ff in netlist.flip_flops:
        reg = _escape(ff.state)
        if reg not in declared:
            lines.append(f"  reg {reg};")
            declared.add(reg)
        else:
            lines.append(f"  reg {reg}_q;  // state shadow (name collision with a port)")
    for gate in netlist.gates.values():
        sig = _escape(gate.output)
        if sig in declared or gate.output in states or gate.kind == "INPUT":
            continue
        lines.append(f"  wire {sig};")
        declared.add(sig)

    lines.append("")
    for gate in netlist.gates.values():
        statement = _gate_assign(gate, states)
        if statement:
            lines.append(statement)

    lines.append("")
    lines.append("  always @(posedge clk) begin")
    lines.append("    if (rst) begin")
    for ff in netlist.flip_flops:
        lines.append(f"      {_escape(ff.state)} <= 1'b{ff.reset_value & 1};")
    lines.append("    end else begin")
    for ff in netlist.flip_flops:
        lines.append(f"      {_escape(ff.state)} <= {_escape(ff.data)};")
    lines.append("    end")
    lines.append("  end")
    lines.append("endmodule")
    return "\n".join(lines) + "\n"


def controller_to_verilog(controller: SynthesizedController, module_name: Optional[str] = None) -> str:
    """Convenience wrapper: build the netlist of a controller and render it."""
    netlist = netlist_from_controller(controller)
    return netlist_to_verilog(netlist, module_name=module_name)


def _gate_assign(gate: Gate, state_signals: Set[str]) -> Optional[str]:
    output = _escape(gate.output)
    if gate.kind == "INPUT" or gate.output in state_signals:
        return None
    if gate.kind == "CONST0":
        return f"  assign {output} = 1'b0;"
    if gate.kind == "CONST1":
        return f"  assign {output} = 1'b1;"
    if gate.kind == "BUF":
        return f"  assign {output} = {_escape(gate.inputs[0])};"
    if gate.kind == "NOT":
        return f"  assign {output} = ~{_escape(gate.inputs[0])};"
    operator = _OPERATORS[gate.kind]
    expression = operator.join(_escape(src) for src in gate.inputs)
    return f"  assign {output} = {expression};"
