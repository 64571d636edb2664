"""Cycle-accurate, bit-parallel simulation of gate-level netlists.

The simulator evaluates a :class:`~repro.circuit.netlist.Netlist` on whole
*words* of patterns at once: every signal value is a Python integer whose bit
``k`` is the signal value in pattern ``k``.  This is the classic parallel-
pattern technique used by fault simulators; with 64-1024 patterns per word it
makes the stuck-at experiments of the self-test benchmarks cheap enough for
pure Python.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from .netlist import Gate, Netlist

__all__ = ["StuckAtFault", "LogicSimulator"]


@dataclass(frozen=True)
class StuckAtFault:
    """A single stuck-at fault.

    Attributes:
        signal: name of the faulty signal (gate output).
        value: the value the signal is stuck at (0 or 1).
        gate_input: when not ``None``, the fault affects only this input
            *branch* of the named consumer (``signal`` is then the driving
            signal and ``gate_input`` the consuming gate's output name — or,
            for a branch feeding a flip-flop's data input, the flip-flop's
            state signal), modelling stuck-at faults on fanout branches.
    """

    signal: str
    value: int
    gate_input: Optional[str] = None

    def describe(self) -> str:
        location = self.signal if self.gate_input is None else f"{self.signal}->{self.gate_input}"
        return f"{location} stuck-at-{self.value}"


class LogicSimulator:
    """Evaluates a netlist combinationally and over clock cycles."""

    def __init__(self, netlist: Netlist, word_width: int = 64) -> None:
        netlist.validate()
        self.netlist = netlist
        self.word_width = int(word_width)
        if self.word_width < 1:
            raise ValueError("word_width must be >= 1")
        self._order = [
            s
            for s in netlist.topological_order()
            if netlist.gates[s].kind not in ("INPUT",)
        ]
        self._state_signals = set(netlist.state_signals)

    @property
    def mask(self) -> int:
        """Bit mask selecting the valid pattern lanes of a word."""
        return (1 << self.word_width) - 1

    # ---------------------------------------------------------- evaluation
    def evaluate(
        self,
        primary_inputs: Mapping[str, int],
        state: Mapping[str, int],
        fault: Optional[StuckAtFault] = None,
    ) -> Dict[str, int]:
        """Evaluate the combinational logic for one word of patterns.

        ``primary_inputs`` and ``state`` map signal names to pattern words.
        Returns the values of every signal (including next-state data
        signals), with ``fault`` injected if given.
        """
        mask = self.mask
        values: Dict[str, int] = {}
        for name in self.netlist.primary_inputs:
            values[name] = primary_inputs.get(name, 0) & mask
        for name in self._state_signals:
            values[name] = state.get(name, 0) & mask

        if fault is not None and fault.gate_input is None and fault.signal in values:
            values[fault.signal] = mask if fault.value else 0

        for signal in self._order:
            if signal in values and self.netlist.gates[signal].kind == "INPUT":
                continue
            gate = self.netlist.gates[signal]
            if gate.kind == "INPUT":
                # State signals already populated above.
                continue
            values[signal] = self._evaluate_gate(gate, values, mask, fault)
            if fault is not None and fault.gate_input is None and fault.signal == signal:
                values[signal] = mask if fault.value else 0
        return values

    def _evaluate_gate(
        self,
        gate: Gate,
        values: Mapping[str, int],
        mask: int,
        fault: Optional[StuckAtFault],
    ) -> int:
        operands: List[int] = []
        for src in gate.inputs:
            value = values[src]
            if (
                fault is not None
                and fault.gate_input is not None
                and fault.signal == src
                and fault.gate_input == gate.output
            ):
                value = mask if fault.value else 0
            operands.append(value)

        if gate.kind == "CONST0":
            return 0
        if gate.kind == "CONST1":
            return mask
        if gate.kind == "BUF":
            return operands[0] & mask
        if gate.kind == "NOT":
            return ~operands[0] & mask
        if gate.kind == "AND":
            result = mask
            for value in operands:
                result &= value
            return result
        if gate.kind == "OR":
            result = 0
            for value in operands:
                result |= value
            return result
        if gate.kind == "XOR":
            result = 0
            for value in operands:
                result ^= value
            return result
        raise ValueError(f"cannot evaluate gate of type {gate.kind!r}")

    # ------------------------------------------------------------- stepping
    def reset_state(self, broadcast: bool = True) -> Dict[str, int]:
        """State word with every lane at the reset value of each flip-flop."""
        mask = self.mask
        return {
            ff.state: (mask if (ff.reset_value and broadcast) else (ff.reset_value & 1))
            for ff in self.netlist.flip_flops
        }

    def step(
        self,
        primary_inputs: Mapping[str, int],
        state: Mapping[str, int],
        fault: Optional[StuckAtFault] = None,
    ) -> Tuple[Dict[str, int], Dict[str, int]]:
        """One clock cycle: returns ``(signal_values, next_state)``."""
        values = self.evaluate(primary_inputs, state, fault)
        next_state = {ff.state: values[ff.data] for ff in self.netlist.flip_flops}
        if fault is not None and fault.gate_input is not None and fault.gate_input in next_state:
            # Branch fault on a flip-flop's data input: the stored value is
            # stuck while the (observable) data line itself is unaffected.
            for ff in self.netlist.flip_flops:
                if ff.state == fault.gate_input and ff.data == fault.signal:
                    next_state[ff.state] = self.mask if fault.value else 0
        return values, next_state

    def run(
        self,
        input_sequence: Sequence[Mapping[str, int]],
        initial_state: Optional[Mapping[str, int]] = None,
        fault: Optional[StuckAtFault] = None,
        observe: Optional[Sequence[str]] = None,
    ) -> List[Dict[str, int]]:
        """Simulate a sequence of input words and record observed signals.

        ``observe`` defaults to the primary outputs plus the state signals
        (what a signature register would capture).
        """
        observed = list(observe) if observe is not None else (
            list(self.netlist.primary_outputs) + self.netlist.state_signals
        )
        state = dict(initial_state) if initial_state is not None else self.reset_state()
        trace: List[Dict[str, int]] = []
        for inputs in input_sequence:
            values, state = self.step(inputs, state, fault)
            snapshot = {name: values[name] for name in observed if name in values}
            for name in self.netlist.state_signals:
                if name in observed:
                    snapshot[name] = state[name]
            trace.append(snapshot)
        return trace
