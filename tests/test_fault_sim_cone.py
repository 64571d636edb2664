"""Routes of the compiled engine: the cone path and its sequential fallbacks.

:class:`~repro.circuit.engine.CompiledFaultEngine` propagates each fault
through its fanout cone from the *good* state of every cycle, which is
exact only while an undetected fault cannot have changed the state.  Each
case where that argument fails has its own test below, on a circuit where
the cone path alone would give the wrong answer: the fault is detected
only in a later cycle, through the state.  Every test checks both the
route taken (by counting sequential-path runs) and bit-exact agreement
with the legacy simulator.
"""

from __future__ import annotations

from typing import Any, Dict, List

import pytest

from repro.bist import BISTStructure, synthesize
from repro.circuit import (
    CompiledFaultEngine,
    FaultSimulationResult,
    FaultSimulator,
    Netlist,
    StuckAtFault,
    enumerate_faults,
    netlist_from_controller,
    random_input_words,
)
from repro.fsm.mcnc import load_benchmark


@pytest.fixture
def sequential_runs(monkeypatch: pytest.MonkeyPatch) -> List[Any]:
    """Every program the sequential path simulates, in call order."""
    calls: List[Any] = []
    original = CompiledFaultEngine._simulate_fault

    def spy(self: CompiledFaultEngine, program: Any, *args: Any) -> Any:
        calls.append(program)
        return original(self, program, *args)

    monkeypatch.setattr(CompiledFaultEngine, "_simulate_fault", spy)
    return calls


def delay_line() -> Netlist:
    """``d = a & b`` is captured by flip-flop ``s``; the output is
    ``out = s``, and ``n = ~d`` gives ``d`` a second consumer so the
    flip-flop input is a fanout branch with faults of its own."""
    net = Netlist("delay")
    net.add_primary_input("a")
    net.add_primary_input("b")
    net.add_flip_flop("s", "d")
    net.add_gate("d", "AND", ("a", "b"))
    net.add_gate("n", "NOT", ("d",))
    net.add_gate("out", "BUF", ("s",))
    net.mark_output("out")
    net.mark_output("n")
    return net


def both(net: Netlist, width: int, sequence: List[Dict[str, int]],
         **kwargs: Any) -> FaultSimulationResult:
    """The compiled result, after asserting it equals the legacy one."""
    compiled = FaultSimulator(net, word_width=width).run(sequence, **kwargs)
    legacy = FaultSimulator(net, word_width=width, engine="legacy").run(sequence, **kwargs)
    assert compiled.detection_cycle == legacy.detection_cycle
    assert compiled.cycles_simulated == legacy.cycles_simulated
    assert compiled.patterns_simulated == legacy.patterns_simulated
    return compiled


class TestConePath:
    def test_multi_word_benchmark_runs_no_fault_sequentially(self, sequential_runs):
        circuit = netlist_from_controller(
            synthesize(load_benchmark("dk512"), BISTStructure.PST)
        )
        # 150 patterns at 64 lanes: two full words and a partial last one.
        compiled, legacy = (
            FaultSimulator(circuit, word_width=64, engine=engine)
            .coverage_for_random_patterns(150, seed=5, stop_when_all_detected=False)
            for engine in ("compiled", "legacy")
        )
        assert compiled.detection_cycle == legacy.detection_cycle
        assert compiled.cycles_simulated == legacy.cycles_simulated == 3
        assert max(compiled.detection_cycle.values()) > 1
        assert sequential_runs == []

    def test_explicit_initial_state_stays_on_the_cone_path(self, sequential_runs):
        circuit = netlist_from_controller(
            synthesize(load_benchmark("dk512"), BISTStructure.PST)
        )
        sequence = random_input_words(circuit.primary_inputs, 3, 32, seed=2)
        initial = {ff.state: (0x5A5A5A5A >> k) & 0xFFFFFFFF
                   for k, ff in enumerate(circuit.flip_flops)}
        result = both(circuit, 32, sequence, initial_state=initial)
        assert result.detected
        assert sequential_runs == []

    def test_faults_that_change_nothing_are_never_detected(self, sequential_runs):
        net = delay_line()
        faults = [
            StuckAtFault("ghost", 1),                    # no such signal
            StuckAtFault("a", 0, gate_input="out"),      # a does not feed out
            StuckAtFault("a", 1, gate_input="s"),        # s does not capture a
        ]
        sequence = [{"a": 0b1111, "b": 0b1111}] * 2
        result = both(net, 4, sequence, faults=faults)
        assert not result.detected
        assert sequential_runs == []


class TestSequentialFallbacks:
    def test_flip_flop_branch_fault(self, sequential_runs):
        net = delay_line()
        fault = StuckAtFault("d", 1, gate_input="s")
        assert fault in enumerate_faults(net)
        sequence = [{"a": 0, "b": 0}] * 2
        result = both(net, 4, sequence, faults=[fault, StuckAtFault("d", 1)])
        # The stored word is stuck; the data line (and n) is not, so the
        # fault shows only when out reads the state, one cycle later.
        assert result.detection_cycle == {
            fault.describe(): 2,
            StuckAtFault("d", 1).describe(): 1,
        }
        assert [program.capture for program in sequential_runs] == [0]

    def test_observe_list_without_a_data_signal(self, sequential_runs):
        net = delay_line()
        on_cone = StuckAtFault("a", 1)      # reaches d, which is unobserved
        off_cone = StuckAtFault("out", 1)   # its cone holds no data signal
        sequence = [{"a": 0, "b": 0b1111}, {"a": 0, "b": 0}]
        result = both(net, 4, sequence, faults=[on_cone, off_cone], observe=["out"])
        assert result.detection_cycle == {off_cone.describe(): 1, on_cone.describe(): 2}
        assert len(sequential_runs) == 1

    def test_partial_lane_mask_before_the_last_word(self, sequential_runs):
        net = delay_line()
        fault = StuckAtFault("b", 0)
        # Cycle 1 activates the fault in lane 2 only, which is invalid; the
        # diverged state shows on out in cycle 2, where lane 2 is valid.
        sequence = [{"a": 0b0100, "b": 0b0100}, {"a": 0, "b": 0}]
        result = both(net, 4, sequence, faults=[fault], lane_masks=[0b0011, 0b1111])
        assert result.detection_cycle == {fault.describe(): 2}
        assert len(sequential_runs) == 1

    def test_partial_last_word_keeps_the_cone_path(self, sequential_runs):
        net = delay_line()
        fault = StuckAtFault("b", 0)
        sequence = [{"a": 0b0100, "b": 0b0100}, {"a": 0, "b": 0}]
        result = both(net, 4, sequence, faults=[fault], lane_masks=[0b1111, 0b0011])
        assert result.detection_cycle == {fault.describe(): 1}
        assert sequential_runs == []
