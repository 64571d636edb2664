"""Single stuck-at fault enumeration and fault simulation.

The testability arguments of the paper (Section 2.5, and the quantitative
claims imported from EsWu 91) are about single stuck-at faults in the
combinational logic and the register structure.  This module provides

* :func:`enumerate_faults` — the single stuck-at fault list of a netlist
  (stem faults on every signal plus branch faults on gate and flip-flop
  inputs whose driving signal fans out), with optional standard equivalence
  collapsing via ``collapse=True``,
* :class:`FaultSimulator` — serial-fault / parallel-pattern simulation of a
  sequential netlist, reporting which faults are detected at the observation
  points (primary outputs and captured next-state lines).

``FaultSimulator`` is a thin compatibility layer: by default it routes every
run through the compiled bit-parallel engine in
:mod:`repro.circuit.engine` (``engine="compiled"``), which produces
bit-exact identical results to the original pure-Python loop
(``engine="legacy"``) while being several times faster.

Behaviour notes (changed relative to the seed implementation):

* :meth:`FaultSimulator.coverage_for_random_patterns` simulates *exactly*
  the requested number of patterns: the invalid lanes of the final pattern
  word are masked out of both the generated stimuli and the detection
  comparison (previously the count was silently rounded up to a whole
  word, e.g. 100 requested -> 128 simulated).
* :func:`enumerate_faults` no longer claims to return a collapsed list; the
  default is the full (uncollapsed) list and equivalence collapsing is
  opt-in via ``collapse=True``.
* Fanout branches feeding a flip-flop's data input now receive their own
  branch faults, symmetric to gate-input branches.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, Iterable, List, Mapping, Optional, Sequence, Set, Tuple

from .netlist import Netlist
from .simulate import LogicSimulator, StuckAtFault

if TYPE_CHECKING:  # imported lazily at runtime (engine import is optional)
    from .engine import CompiledFaultEngine

__all__ = [
    "enumerate_faults",
    "FaultSimulator",
    "FaultSimulationResult",
    "random_input_words",
    "random_pattern_lane_masks",
]


def random_pattern_lane_masks(pattern_count: int, word_width: int) -> Tuple[int, List[int]]:
    """Word count and per-word lane masks for a random-pattern run.

    Returns ``(words, lane_masks)`` exactly as
    :meth:`FaultSimulator.coverage_for_random_patterns` derives them: full
    words except a final partial word whose invalid lanes are masked out.
    ``(0, [])`` when ``pattern_count <= 0``.
    """
    if pattern_count <= 0:
        return 0, []
    words = (pattern_count + word_width - 1) // word_width
    final_lanes = pattern_count - (words - 1) * word_width
    final_mask = (1 << final_lanes) - 1
    lane_masks = [(1 << word_width) - 1] * (words - 1) + [final_mask]
    return words, lane_masks


def observation_points(netlist: Netlist, observe: Optional[Sequence[str]]) -> List[str]:
    """The signals a fault is detected at: ``observe``, or by default the
    primary outputs plus every flip-flop's data signal (what a signature
    register captures)."""
    if observe is not None:
        return list(observe)
    points = list(netlist.primary_outputs)
    points.extend(ff.data for ff in netlist.flip_flops)
    return points


def _fanout_counts(netlist: Netlist) -> Dict[str, int]:
    """Number of consumers (gate-input occurrences plus flip-flops) per signal."""
    fanout: Dict[str, int] = {}
    for gate in netlist.gates.values():
        for src in gate.inputs:
            fanout[src] = fanout.get(src, 0) + 1
    for ff in netlist.flip_flops:
        fanout[ff.data] = fanout.get(ff.data, 0) + 1
    return fanout


def _collapses_into_gate(kind: str, value: int) -> bool:
    """Whether a stuck-at ``value`` on an input of a ``kind`` gate is
    equivalent to a stuck-at fault on the gate output (standard equivalence
    collapsing rules)."""
    if kind in ("NOT", "BUF"):
        return True
    if kind == "AND":
        return value == 0
    if kind == "OR":
        return value == 1
    return False


def enumerate_faults(
    netlist: Netlist, include_branches: bool = True, collapse: bool = False
) -> List[StuckAtFault]:
    """Enumerate single stuck-at faults of a netlist.

    Stem faults (stuck-at-0/1 on every signal, including primary inputs and
    state signals) are always candidates.  With ``include_branches`` the
    input branches of consumers (gates and flip-flop data inputs) whose
    driving signal fans out to more than one consumer get their own faults,
    as is standard for stuck-at fault models.

    With ``collapse=True`` standard equivalence collapsing is applied and
    only one representative per equivalence class is kept (the one closest
    to the observation points):

    * a stuck-at fault on the single input of a NOT or BUF is equivalent to
      the complementary (respectively identical) stuck-at fault on its
      output,
    * a stuck-at-0 on any AND input is equivalent to stuck-at-0 on the AND
      output, and dually a stuck-at-1 on any OR input is equivalent to
      stuck-at-1 on the OR output.

    The rules are applied both to branch faults (dropped in favour of the
    consuming gate's stem fault) and to stem faults of fanout-free signals
    (which are the input faults of their only consumer).  Signals that are
    directly observed (primary outputs) or that feed a flip-flop are never
    collapsed away.
    """
    fanout = _fanout_counts(netlist)

    gate_consumers: Dict[str, List[str]] = {}
    for gate in netlist.gates.values():
        for src in gate.inputs:
            gate_consumers.setdefault(src, []).append(gate.output)
    ff_consumers: Dict[str, int] = {}
    for ff in netlist.flip_flops:
        ff_consumers[ff.data] = ff_consumers.get(ff.data, 0) + 1

    primary_outputs = set(netlist.primary_outputs)

    faults: List[StuckAtFault] = []
    for signal in netlist.signals():
        for value in (0, 1):
            if collapse:
                consumers = gate_consumers.get(signal, [])
                if (
                    len(consumers) == 1
                    and ff_consumers.get(signal, 0) == 0
                    and signal not in primary_outputs
                    and _collapses_into_gate(netlist.gates[consumers[0]].kind, value)
                ):
                    continue  # equivalent to a stem fault on the consumer's output
            faults.append(StuckAtFault(signal, value))

    if include_branches:
        for gate in netlist.gates.values():
            for src in gate.inputs:
                if fanout.get(src, 0) > 1:
                    for value in (0, 1):
                        if collapse and _collapses_into_gate(gate.kind, value):
                            continue
                        faults.append(StuckAtFault(src, value, gate_input=gate.output))
        for ff in netlist.flip_flops:
            if fanout.get(ff.data, 0) > 1:
                for value in (0, 1):
                    faults.append(StuckAtFault(ff.data, value, gate_input=ff.state))

    if collapse:
        seen: Set[StuckAtFault] = set()
        unique: List[StuckAtFault] = []
        for fault in faults:
            if fault not in seen:
                seen.add(fault)
                unique.append(fault)
        faults = unique
    return faults


def random_input_words(
    input_names: Sequence[str], count: int, word_width: int, seed: int = 0
) -> List[Dict[str, int]]:
    """Generate ``count`` words of uniformly random primary-input patterns."""
    rng = random.Random(seed)
    mask = (1 << word_width) - 1
    return [
        {name: rng.getrandbits(word_width) & mask for name in input_names}
        for _ in range(count)
    ]


@dataclass
class FaultSimulationResult:  # repro: allow-serialization-roundtrip
    """Outcome of a fault-simulation run.

    ``to_dict`` is a deliberately lossy summary (the per-fault detection
    sets stay behind — see its docstring), so no ``from_dict`` can exist;
    the round-trip lint rule is pragma'd off for this one class.
    """

    total_faults: int
    detected: Set[str] = field(default_factory=set)
    detection_cycle: Dict[str, int] = field(default_factory=dict)
    cycles_simulated: int = 0
    patterns_simulated: int = 0

    @property
    def detected_count(self) -> int:
        return len(self.detected)

    @property
    def coverage(self) -> float:
        return self.detected_count / self.total_faults if self.total_faults else 1.0

    def coverage_curve(self, cycles: Optional[int] = None) -> List[Tuple[int, float]]:
        """Fault coverage after each cycle (for test-length plots).

        Computed with a single pass over the sorted detection cycles, so the
        cost is ``O(F log F + H)`` for ``F`` faults and horizon ``H`` (the
        seed implementation rescanned every fault per cycle).
        """
        horizon = cycles if cycles is not None else self.cycles_simulated
        ordered = sorted(self.detection_cycle.values())
        total = self.total_faults
        curve: List[Tuple[int, float]] = []
        hits = 0
        index = 0
        for cycle in range(1, horizon + 1):
            while index < len(ordered) and ordered[index] <= cycle:
                hits += 1
                index += 1
            curve.append((cycle, hits / total if total else 1.0))
        return curve

    def to_dict(self) -> Dict[str, object]:
        """JSON-safe summary (counts, coverage, per-cycle coverage curve).

        The per-fault detection sets are deliberately left out: the flow
        layer ships these dictionaries between sweep workers and into the
        artifact cache, where the aggregate curve is what the reports need.
        """
        return {
            "total_faults": self.total_faults,
            "detected": self.detected_count,
            "coverage": self.coverage,
            "cycles_simulated": self.cycles_simulated,
            "patterns_simulated": self.patterns_simulated,
            "coverage_curve": [[cycle, cov] for cycle, cov in self.coverage_curve()],
        }


class FaultSimulator:
    """Serial-fault, parallel-pattern stuck-at fault simulation.

    ``engine`` selects the evaluation back end: ``"compiled"`` (default)
    uses the precompiled bit-parallel engine of
    :mod:`repro.circuit.engine`; ``"legacy"`` keeps the original
    interpreted per-gate loop.  Both produce bit-exact identical results.
    """

    def __init__(
        self,
        netlist: Netlist,
        word_width: int = 64,
        engine: str = "compiled",
    ) -> None:
        if engine not in ("compiled", "legacy"):
            raise ValueError(f"unknown engine {engine!r} (expected 'compiled' or 'legacy')")
        self.netlist = netlist
        self.simulator = LogicSimulator(netlist, word_width)
        self.word_width = word_width
        self.engine = engine
        self._compiled: Optional["CompiledFaultEngine"] = None
        if engine == "compiled":
            from .engine import CompiledFaultEngine

            self._compiled = CompiledFaultEngine(netlist, word_width)

    def run(
        self,
        input_sequence: Sequence[Mapping[str, int]],
        faults: Optional[Sequence[StuckAtFault]] = None,
        observe: Optional[Sequence[str]] = None,
        initial_state: Optional[Mapping[str, int]] = None,
        stop_when_all_detected: bool = True,
        lane_masks: Optional[Sequence[int]] = None,
    ) -> FaultSimulationResult:
        """Fault-simulate an input sequence.

        Every fault is simulated against the fault-free ("good") circuit; a
        fault counts as detected in the first cycle in which any observation
        point differs from the good value in any *valid* pattern lane.  The
        state of both good and faulty machines evolves over the whole
        sequence, so sequential fault effects (faults that need several
        cycles to propagate) are handled correctly.

        ``observe`` defaults to the primary outputs plus every flip-flop
        data signal.  With that default an undetected fault enters each
        cycle with the good state, so the compiled engine simulates it on
        its fanout cone only, cycle by cycle, from the good values.  It
        falls back to a sequential per-fault run, with the fault's own
        state, for flip-flop-branch faults, for faults whose cone reaches a
        data signal an explicit ``observe`` list leaves out, and for every
        fault when ``lane_masks`` leave a lane invalid before the last
        word (see :mod:`repro.circuit.engine`).  The legacy engine always
        runs every fault sequentially.  Both give identical results.

        ``lane_masks`` optionally restricts the valid pattern lanes per
        cycle (one mask per input word); lanes outside the mask are ignored
        by the detection comparison, which is how partial final words are
        simulated exactly.
        """
        fault_list = list(faults) if faults is not None else enumerate_faults(self.netlist)
        if self._compiled is not None:
            return self._compiled.run(
                input_sequence,
                fault_list,
                observe=observe,
                initial_state=initial_state,
                stop_when_all_detected=stop_when_all_detected,
                lane_masks=lane_masks,
            )
        return self._run_legacy(
            input_sequence,
            fault_list,
            observe=observe,
            initial_state=initial_state,
            stop_when_all_detected=stop_when_all_detected,
            lane_masks=lane_masks,
        )

    def _run_legacy(
        self,
        input_sequence: Sequence[Mapping[str, int]],
        fault_list: Sequence[StuckAtFault],
        observe: Optional[Sequence[str]] = None,
        initial_state: Optional[Mapping[str, int]] = None,
        stop_when_all_detected: bool = True,
        lane_masks: Optional[Sequence[int]] = None,
    ) -> FaultSimulationResult:
        """The original interpreted serial-fault loop (reference implementation)."""
        observation = observation_points(self.netlist, observe)
        full_mask = self.simulator.mask

        good_state = dict(initial_state) if initial_state is not None else self.simulator.reset_state()
        fault_states: Dict[str, Dict[str, int]] = {
            f.describe(): dict(good_state) for f in fault_list
        }
        result = FaultSimulationResult(total_faults=len(fault_list))
        undetected: List[StuckAtFault] = list(fault_list)

        for cycle, inputs in enumerate(input_sequence, start=1):
            lane_mask = full_mask if lane_masks is None else (lane_masks[cycle - 1] & full_mask)
            good_values, good_state = self.simulator.step(inputs, good_state)
            good_obs = {name: good_values[name] for name in observation if name in good_values}

            still_undetected: List[StuckAtFault] = []
            for fault in undetected:
                key = fault.describe()
                values, next_state = self.simulator.step(inputs, fault_states[key], fault)
                mismatch = any(
                    (values.get(name, 0) ^ good_obs.get(name, 0)) & lane_mask
                    for name in good_obs
                )
                if mismatch:
                    result.detected.add(key)
                    result.detection_cycle[key] = cycle
                else:
                    fault_states[key] = next_state
                    still_undetected.append(fault)
            undetected = still_undetected
            result.cycles_simulated = cycle
            result.patterns_simulated += bin(lane_mask).count("1")
            if stop_when_all_detected and not undetected:
                break
        return result

    def coverage_for_random_patterns(
        self,
        pattern_count: int,
        seed: int = 0,
        faults: Optional[Sequence[StuckAtFault]] = None,
        observe: Optional[Sequence[str]] = None,
        stop_when_all_detected: bool = True,
    ) -> FaultSimulationResult:
        """Convenience wrapper: random primary-input patterns, one per lane.

        Exactly ``pattern_count`` patterns are simulated: when the count is
        not a multiple of the word width, the invalid lanes of the final
        word are zeroed in the stimuli and excluded from the detection
        comparison via a lane mask.
        """
        if pattern_count <= 0:
            return self.run([], faults=faults, observe=observe)
        words, lane_masks = random_pattern_lane_masks(pattern_count, self.word_width)
        sequence = random_input_words(
            self.netlist.primary_inputs, words, self.word_width, seed=seed
        )
        final_mask = lane_masks[-1]
        if final_mask != (1 << self.word_width) - 1:
            sequence[-1] = {name: word & final_mask for name, word in sequence[-1].items()}
        return self.run(
            sequence,
            faults=faults,
            observe=observe,
            lane_masks=lane_masks,
            stop_when_all_detected=stop_when_all_detected,
        )
