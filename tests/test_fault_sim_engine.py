"""Tests for the compiled fault-simulation engine and the fault-model fixes.

The engine (:mod:`repro.circuit.engine`) must be *bit-exact* equal to the
legacy interpreted simulator: same detected-fault set, same per-fault
detection cycles, same cycle/pattern accounting — for every BIST structure
and every word width.  The remaining tests pin the bug fixes that landed with the engine:

* exact pattern counts in ``coverage_for_random_patterns`` (no silent
  rounding up to whole words),
* equivalence collapsing in ``enumerate_faults`` behind ``collapse=True``,
* branch faults on fanout stems feeding flip-flop data inputs,
* the single-pass ``coverage_curve``.

It also pins the lane masks of ``coverage_for_random_patterns``.
"""

from __future__ import annotations

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
from repro.circuit.faults import random_pattern_lane_masks
from repro.fsm import generate_controller
from repro.fsm.mcnc import load_benchmark

ALL_STRUCTURES = (
    BISTStructure.DFF,
    BISTStructure.PAT,
    BISTStructure.SIG,
    BISTStructure.PST,
)


def _assert_results_equal(a: FaultSimulationResult, b: FaultSimulationResult) -> None:
    assert a.total_faults == b.total_faults
    assert a.detected == b.detected
    assert a.detection_cycle == b.detection_cycle
    assert a.cycles_simulated == b.cycles_simulated
    assert a.patterns_simulated == b.patterns_simulated


def _run_both(netlist: Netlist, word_width: int, patterns: int, seed: int = 3):
    legacy = FaultSimulator(netlist, word_width=word_width, engine="legacy")
    compiled = FaultSimulator(netlist, word_width=word_width, engine="compiled")
    rl = legacy.coverage_for_random_patterns(patterns, seed=seed, stop_when_all_detected=False)
    rc = compiled.coverage_for_random_patterns(patterns, seed=seed, stop_when_all_detected=False)
    return rl, rc


class TestEngineMatchesLegacy:
    @pytest.mark.parametrize("structure", ALL_STRUCTURES, ids=lambda s: s.value)
    @pytest.mark.parametrize("word_width", [1, 64, 256])
    def test_bit_exact_on_controller(self, small_controller, structure, word_width):
        controller = synthesize(small_controller, structure)
        net = netlist_from_controller(controller)
        rl, rc = _run_both(net, word_width, patterns=100)
        _assert_results_equal(rl, rc)

    def test_bit_exact_on_paper_example(self, paper_example_fsm):
        controller = synthesize(paper_example_fsm, BISTStructure.PAT)
        net = netlist_from_controller(controller)
        rl, rc = _run_both(net, word_width=8, patterns=40)
        _assert_results_equal(rl, rc)

    def test_bit_exact_on_mcnc_benchmark(self):
        fsm = load_benchmark("modulo12")
        controller = synthesize(fsm, BISTStructure.PST)
        net = netlist_from_controller(controller)
        rl, rc = _run_both(net, word_width=64, patterns=150)
        _assert_results_equal(rl, rc)
        assert rc.coverage > 0.0

    def test_early_stop_parity(self, small_controller):
        controller = synthesize(small_controller, BISTStructure.DFF)
        net = netlist_from_controller(controller)
        sequence = random_input_words(net.primary_inputs, 16, 64, seed=1)
        rl = FaultSimulator(net, word_width=64, engine="legacy").run(sequence)
        rc = FaultSimulator(net, word_width=64, engine="compiled").run(sequence)
        _assert_results_equal(rl, rc)

    def test_explicit_fault_list_and_observe(self, small_controller):
        controller = synthesize(small_controller, BISTStructure.PST)
        net = netlist_from_controller(controller)
        faults = enumerate_faults(net, collapse=True)
        observe = list(net.primary_outputs)
        sequence = random_input_words(net.primary_inputs, 4, 32, seed=9)
        rl = FaultSimulator(net, word_width=32, engine="legacy").run(
            sequence, faults=faults, observe=observe, stop_when_all_detected=False
        )
        rc = FaultSimulator(net, word_width=32, engine="compiled").run(
            sequence, faults=faults, observe=observe, stop_when_all_detected=False
        )
        _assert_results_equal(rl, rc)

    def test_rejects_unknown_engine(self, small_controller):
        controller = synthesize(small_controller, BISTStructure.DFF)
        net = netlist_from_controller(controller)
        with pytest.raises(ValueError):
            FaultSimulator(net, engine="vectorised")


class TestExactPatternCounts:
    """Regression: 100 requested patterns must mean 100 simulated patterns."""

    @pytest.mark.parametrize("engine", ["legacy", "compiled"])
    @pytest.mark.parametrize("count", [1, 63, 64, 65, 100, 129])
    def test_exact_pattern_count(self, small_controller, engine, count):
        controller = synthesize(small_controller, BISTStructure.DFF)
        net = netlist_from_controller(controller)
        sim = FaultSimulator(net, word_width=64, engine=engine)
        result = sim.coverage_for_random_patterns(
            count, seed=0, stop_when_all_detected=False
        )
        assert result.patterns_simulated == count

    def test_zero_patterns(self, small_controller):
        controller = synthesize(small_controller, BISTStructure.DFF)
        net = netlist_from_controller(controller)
        sim = FaultSimulator(net, word_width=64)
        result = sim.coverage_for_random_patterns(0)
        assert result.patterns_simulated == 0
        assert result.detected == set()

    @pytest.mark.parametrize("engine", ["legacy", "compiled"])
    def test_invalid_lanes_cannot_detect(self, engine):
        """A difference visible only in masked-out lanes must not count."""
        net = Netlist("and2")
        net.add_primary_input("a")
        net.add_primary_input("b")
        net.add_gate("z", "AND", ["a", "b"])
        net.mark_output("z")
        sim = FaultSimulator(net, word_width=8, engine=engine)
        # The detecting pattern a=b=1 only occurs in lanes 4..7.
        sequence = [{"a": 0xF0, "b": 0xF0}]
        masked = sim.run(
            sequence,
            faults=[StuckAtFault("z", 0)],
            lane_masks=[0x0F],
            stop_when_all_detected=False,
        )
        assert "z stuck-at-0" not in masked.detected
        assert masked.patterns_simulated == 4
        unmasked = sim.run(
            sequence, faults=[StuckAtFault("z", 0)], stop_when_all_detected=False
        )
        assert "z stuck-at-0" in unmasked.detected

    def test_masked_final_word_matches_narrow_run(self, small_controller):
        """The engine's masked run must equal the legacy masked run lane-for-lane."""
        controller = synthesize(small_controller, BISTStructure.PST)
        net = netlist_from_controller(controller)
        rl, rc = _run_both(net, word_width=64, patterns=70, seed=12)
        _assert_results_equal(rl, rc)
        assert rl.patterns_simulated == 70


class TestEquivalenceCollapsing:
    def _and_net(self) -> Netlist:
        net = Netlist("and2")
        net.add_primary_input("a")
        net.add_primary_input("b")
        net.add_gate("z", "AND", ["a", "b"])
        net.mark_output("z")
        return net

    def test_default_is_uncollapsed(self):
        assert len(enumerate_faults(self._and_net(), include_branches=False)) == 6

    def test_classic_and_gate_collapses_to_four(self):
        collapsed = enumerate_faults(self._and_net(), collapse=True)
        assert {f.describe() for f in collapsed} == {
            "a stuck-at-1",
            "b stuck-at-1",
            "z stuck-at-0",
            "z stuck-at-1",
        }

    def test_not_chain_collapses_to_sink(self):
        net = Netlist("chain")
        net.add_primary_input("a")
        net.add_gate("n1", "NOT", ["a"])
        net.add_gate("n2", "NOT", ["n1"])
        net.mark_output("n2")
        collapsed = enumerate_faults(net, collapse=True)
        # a/n1 faults are all equivalent to faults on the observed sink n2.
        assert {f.describe() for f in collapsed} == {
            "n2 stuck-at-0",
            "n2 stuck-at-1",
        }

    def test_branch_faults_collapse_into_consumer(self):
        net = Netlist("fanout")
        net.add_primary_input("a")
        net.add_primary_input("b")
        net.add_gate("z", "AND", ["a", "b"])
        net.add_gate("w", "OR", ["a", "b"])
        net.mark_output("z")
        net.mark_output("w")
        collapsed = enumerate_faults(net, collapse=True)
        descriptions = {f.describe() for f in collapsed}
        # Controlling-value branch faults are equivalent to the gate output.
        assert "a->z stuck-at-0" not in descriptions
        assert "a->w stuck-at-1" not in descriptions
        # Non-controlling branch faults survive.
        assert "a->z stuck-at-1" in descriptions
        assert "a->w stuck-at-0" in descriptions

    def test_collapsed_is_subset_of_full(self, small_controller):
        controller = synthesize(small_controller, BISTStructure.PST)
        net = netlist_from_controller(controller)
        full = set(enumerate_faults(net))
        collapsed = set(enumerate_faults(net, collapse=True))
        assert collapsed < full

    def test_observed_signals_never_collapse(self):
        net = Netlist("observed")
        net.add_primary_input("a")
        net.add_gate("y", "NOT", ["a"])
        net.add_gate("z", "NOT", ["y"])
        net.mark_output("y")  # y is observed, so its faults must survive
        net.mark_output("z")
        descriptions = {f.describe() for f in enumerate_faults(net, collapse=True)}
        assert "y stuck-at-0" in descriptions
        assert "y stuck-at-1" in descriptions

    def test_collapsed_coverage_not_higher_total(self, small_controller):
        controller = synthesize(small_controller, BISTStructure.DFF)
        net = netlist_from_controller(controller)
        sim = FaultSimulator(net, word_width=64)
        collapsed = enumerate_faults(net, collapse=True)
        result = sim.coverage_for_random_patterns(
            128, seed=2, faults=collapsed, stop_when_all_detected=False
        )
        assert result.total_faults == len(collapsed)


class TestFlipFlopBranchFaults:
    def _ff_fanout_net(self) -> Netlist:
        net = Netlist("ffbranch")
        net.add_primary_input("a")
        net.add_primary_input("b")
        net.add_gate("y", "AND", ["a", "b"])
        net.add_flip_flop("s", "y")
        net.add_gate("w", "BUF", ["y"])
        net.add_gate("o", "OR", ["s", "a"])
        net.mark_output("w")
        net.mark_output("o")
        return net

    def test_ff_branch_faults_enumerated(self):
        faults = enumerate_faults(self._ff_fanout_net())
        branch = {f.describe() for f in faults if f.gate_input == "s"}
        assert branch == {"y->s stuck-at-0", "y->s stuck-at-1"}

    def test_no_ff_branch_fault_without_fanout(self):
        net = Netlist("nofanout")
        net.add_primary_input("a")
        net.add_gate("y", "BUF", ["a"])
        net.add_flip_flop("s", "y")  # y feeds only the flip-flop
        net.add_gate("o", "BUF", ["s"])
        net.mark_output("o")
        faults = enumerate_faults(net)
        assert not [f for f in faults if f.gate_input == "s"]

    @pytest.mark.parametrize("engine", ["legacy", "compiled"])
    def test_ff_branch_detected_via_state(self, engine):
        net = self._ff_fanout_net()
        sim = FaultSimulator(net, word_width=1, engine=engine)
        fault = StuckAtFault("y", 1, gate_input="s")
        # a=b=0 keeps y=0; the stuck state only becomes visible at o one
        # cycle later — never on the clean data line itself.
        result = sim.run(
            [{"a": 0, "b": 0}, {"a": 0, "b": 0}],
            faults=[fault],
            stop_when_all_detected=False,
        )
        assert result.detection_cycle == {"y->s stuck-at-1": 2}

    def test_engines_agree_with_ff_branch_faults(self):
        net = self._ff_fanout_net()
        rl, rc = _run_both(net, word_width=8, patterns=30, seed=2)
        _assert_results_equal(rl, rc)


class TestCoverageCurve:
    def test_single_pass_matches_naive(self):
        result = FaultSimulationResult(total_faults=7)
        result.detection_cycle = {"f1": 2, "f2": 2, "f3": 5, "f4": 9}
        result.detected = set(result.detection_cycle)
        result.cycles_simulated = 10
        curve = result.coverage_curve()
        naive = [
            (c, sum(1 for d in result.detection_cycle.values() if d <= c) / 7)
            for c in range(1, 11)
        ]
        assert curve == naive

    def test_curve_with_no_faults(self):
        result = FaultSimulationResult(total_faults=0)
        result.cycles_simulated = 3
        assert result.coverage_curve() == [(1, 1.0), (2, 1.0), (3, 1.0)]

    def test_curve_respects_horizon(self):
        result = FaultSimulationResult(total_faults=2)
        result.detection_cycle = {"f1": 1}
        result.cycles_simulated = 4
        assert result.coverage_curve(cycles=2) == [(1, 0.5), (2, 0.5)]


class TestCompiledEngineDirect:
    def test_engine_run_with_default_faults(self, small_controller):
        controller = synthesize(small_controller, BISTStructure.DFF)
        net = netlist_from_controller(controller)
        engine = CompiledFaultEngine(net, word_width=16)
        sequence = random_input_words(net.primary_inputs, 4, 16, seed=0)
        result = engine.run(sequence, stop_when_all_detected=False)
        assert result.total_faults == len(enumerate_faults(net))
        assert result.cycles_simulated == 4

    def test_engine_rejects_bad_word_width(self, small_controller):
        controller = synthesize(small_controller, BISTStructure.DFF)
        net = netlist_from_controller(controller)
        with pytest.raises(ValueError):
            CompiledFaultEngine(net, word_width=0)

    def test_empty_sequence(self, small_controller):
        controller = synthesize(small_controller, BISTStructure.DFF)
        net = netlist_from_controller(controller)
        engine = CompiledFaultEngine(net, word_width=8)
        result = engine.run([])
        assert result.cycles_simulated == 0
        assert result.detected == set()


class TestRandomPatternLaneMasks:
    def test_partial_final_word(self):
        n_cycles, masks = random_pattern_lane_masks(40, 16)
        assert n_cycles == 3
        assert masks == [0xFFFF, 0xFFFF, (1 << 8) - 1]

    def test_exact_multiple(self):
        n_cycles, masks = random_pattern_lane_masks(32, 16)
        assert n_cycles == 2
        assert masks == [0xFFFF, 0xFFFF]

    def test_zero_patterns(self):
        assert random_pattern_lane_masks(0, 16) == (0, [])
