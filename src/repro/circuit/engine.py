"""Compiled bit-parallel stuck-at fault-simulation engine.

This module is the hot path of every fault-coverage experiment in the
repository.  It replaces the interpreted per-gate evaluation of
:class:`repro.circuit.simulate.LogicSimulator` (dict lookups plus a branch
chain per gate, with a per-operand fault check) by a *precompiled
evaluation program* and single-fault propagation over fanout cones
(parallel-pattern single-fault propagation, PPSFP):

* the netlist's topological order is flattened once into dense integer
  indices over a flat value array,
* the fault-free circuit is evaluated by a single generated straight-line
  Python function (``V[7] = V[2] & V[5]`` per gate, compiled once per
  netlist), once per cycle,
* every fault site keeps, cached, the per-gate closures of its
  combinational fanout cone in topological order; a stem fault forces one
  word, a branch fault runs one substituted operand closure of the
  consuming gate, and only the cone is re-evaluated on a copy of the good
  values,
* only the observation points inside the cone are compared, under the
  lane mask, and a fault is *dropped* the moment it is detected; the run
  is cycle-major, so the good circuit is evaluated once per cycle however
  many faults remain.

A run is one process: a sweep parallelises across cells
(:mod:`repro.flow.backends`), never inside one fault list.

The cone path is exact because the default observation points include
every flip-flop data signal: a fault that changes the next state in a
valid lane is detected in that cycle, so an undetected fault enters every
cycle with the *good* state and each (fault, cycle) pair is a purely
combinational problem.  Where that argument fails the fault runs the
sequential path instead — its own state over the whole sequence, each
cycle the generated good evaluation from that state followed by the
fault's cone.  That happens for

* a flip-flop-branch (capture) fault, which changes the stored state
  without changing any observed line,
* a fault whose cone reaches a flip-flop data signal that a caller's
  ``observe`` list leaves out,
* every fault of a run whose lane masks leave a lane invalid on some word
  before the last, because an invalid lane may diverge unseen and be
  valid later.

An explicit ``initial_state`` keeps the cone path: the good and the faulty
machine start from the same state.

Patterns are packed into machine words exactly as in the legacy
simulator: bit ``k`` of every signal word is the signal's value in
pattern lane ``k``.  Word widths of 64 to 1024 lanes are all practical —
Python's arbitrary-precision integers make the word width a tuning
parameter rather than a hardware limit.  ``lane_masks`` restricts the
valid lanes per cycle so a final partial word simulates *exactly* the
requested number of patterns.

The engine produces results bit-exact identical to the legacy loop
(asserted by ``tests/test_fault_sim_engine.py`` on every seed benchmark
circuit, and by the ``engine-parity`` fuzz invariant on every route);
``benchmarks/bench_fault_sim_engine.py`` records the speedup.
"""

from __future__ import annotations

from typing import (
    TYPE_CHECKING,
    Callable,
    Dict,
    List,
    Mapping,
    NamedTuple,
    Optional,
    Sequence,
    Tuple,
)

from .netlist import Gate, Netlist
from .simulate import StuckAtFault

if TYPE_CHECKING:  # imported lazily at runtime to avoid a circular import
    from .faults import FaultSimulationResult

__all__ = ["CompiledFaultEngine"]

Op = Callable[[List[int]], None]
#: ``(position, site, word, force_idx, ops, observed cone points)`` of one
#: fault on the cone path; ``position`` indexes the caller's fault list and
#: ``force_idx`` is the site of a stem fault, ``-1`` for a branch fault.
_ConeFault = Tuple[int, int, int, int, Tuple[Op, ...], Tuple[int, ...]]


class _Program(NamedTuple):
    """How one fault changes a cycle of the good circuit."""

    #: Value index of the faulty line's driving signal.
    site: int
    #: The stuck word (all lanes at the stuck value).
    word: int
    #: Stem fault: ``V[site] = word`` is forced before ``ops`` run.
    stem: bool
    #: Closures to run after the force: a branch fault's substituted
    #: consumer closure first, then the cone of the changed signal.
    ops: Tuple[Op, ...]
    #: Every value index the fault can change within one cycle.
    cone: Tuple[int, ...]
    #: Flip-flop position of a capture fault, whose stored word is forced.
    capture: Optional[int]


def _const_op(out: int, value: int) -> Op:
    def op(V: List[int], out: int = out, value: int = value) -> None:
        V[out] = value

    return op


def _copy_op(out: int, a: int) -> Op:
    def op(V: List[int], out: int = out, a: int = a) -> None:
        V[out] = V[a]

    return op


def _not_op(out: int, a: int, mask: int) -> Op:
    def op(V: List[int], out: int = out, a: int = a, mask: int = mask) -> None:
        V[out] = V[a] ^ mask

    return op


def _and_op(out: int, idxs: Tuple[int, ...]) -> Op:
    if len(idxs) == 1:
        return _copy_op(out, idxs[0])
    if len(idxs) == 2:
        a, b = idxs

        def op2(V: List[int], out: int = out, a: int = a, b: int = b) -> None:
            V[out] = V[a] & V[b]

        return op2

    first = idxs[0]
    rest = idxs[1:]

    def op(V: List[int], out: int = out, first: int = first, rest: Tuple[int, ...] = rest) -> None:
        r = V[first]
        for i in rest:
            r &= V[i]
        V[out] = r

    return op


def _or_op(out: int, idxs: Tuple[int, ...]) -> Op:
    if len(idxs) == 1:
        return _copy_op(out, idxs[0])
    if len(idxs) == 2:
        a, b = idxs

        def op2(V: List[int], out: int = out, a: int = a, b: int = b) -> None:
            V[out] = V[a] | V[b]

        return op2

    first = idxs[0]
    rest = idxs[1:]

    def op(V: List[int], out: int = out, first: int = first, rest: Tuple[int, ...] = rest) -> None:
        r = V[first]
        for i in rest:
            r |= V[i]
        V[out] = r

    return op


def _xor_op(out: int, idxs: Tuple[int, ...], init: int) -> Op:
    if init == 0 and len(idxs) == 1:
        return _copy_op(out, idxs[0])
    if init == 0 and len(idxs) == 2:
        a, b = idxs

        def op2(V: List[int], out: int = out, a: int = a, b: int = b) -> None:
            V[out] = V[a] ^ V[b]

        return op2

    def op(V: List[int], out: int = out, idxs: Tuple[int, ...] = idxs, init: int = init) -> None:
        r = init
        for i in idxs:
            r ^= V[i]
        V[out] = r

    return op


class CompiledFaultEngine:
    """Precompiled parallel-pattern fault simulator for one netlist."""

    def __init__(self, netlist: Netlist, word_width: int = 64) -> None:
        netlist.validate()
        if word_width < 1:
            raise ValueError("word_width must be >= 1")
        self.netlist = netlist
        self.word_width = int(word_width)
        self.mask = (1 << self.word_width) - 1

        # Dense signal indexing.
        self._index: Dict[str, int] = {name: i for i, name in enumerate(netlist.gates)}
        self._order: List[str] = [
            s for s in netlist.topological_order() if netlist.gates[s].kind != "INPUT"
        ]
        self._order_pos: Dict[str, int] = {s: p for p, s in enumerate(self._order)}

        self._pi_idx: List[int] = [self._index[n] for n in netlist.primary_inputs]
        self._state_names: List[str] = [ff.state for ff in netlist.flip_flops]
        self._state_idx: List[int] = [self._index[n] for n in self._state_names]
        self._data_idx: List[int] = [self._index[ff.data] for ff in netlist.flip_flops]
        self._ff_pos: Dict[str, int] = {ff.state: k for k, ff in enumerate(netlist.flip_flops)}

        self._ops: List[Op] = [self._compile_gate(netlist.gates[s]) for s in self._order]
        self._good_eval = self._compile_good_eval()
        # Output index of every gate position, and per signal index the
        # positions of the gates reading it: the edges of the fanout cones.
        self._out_idx: List[int] = [self._index[s] for s in self._order]
        self._consumers: List[List[int]] = [[] for _ in self._index]
        for pos, signal in enumerate(self._order):
            for src in dict.fromkeys(netlist.gates[signal].inputs):
                self._consumers[self._index[src]].append(pos)
        self._cones: Dict[int, Tuple[Tuple[Op, ...], Tuple[int, ...]]] = {}
        self._programs: Dict[StuckAtFault, Optional[_Program]] = {}

    # ------------------------------------------------------------ compilation
    def _operand_indices(
        self, gate: Gate, stuck: Optional[Tuple[str, int]] = None
    ) -> Tuple[Tuple[int, ...], List[int]]:
        """Gate operands as value-array indices, with one driver optionally
        replaced by a stuck constant (all occurrences, matching the legacy
        branch-fault semantics)."""
        if stuck is None:
            return tuple(self._index[src] for src in gate.inputs), []
        name, value = stuck
        idxs = tuple(self._index[src] for src in gate.inputs if src != name)
        return idxs, [self.mask if value else 0] * (len(gate.inputs) - len(idxs))

    def _compile_gate(self, gate: Gate, stuck: Optional[Tuple[str, int]] = None) -> Op:
        out = self._index[gate.output]
        mask = self.mask
        if gate.kind == "CONST0":
            return _const_op(out, 0)
        if gate.kind == "CONST1":
            return _const_op(out, mask)
        if stuck is not None and (gate.kind, stuck[1]) in (("AND", 0), ("OR", 1)):
            if stuck[0] in gate.inputs:  # a controlling value fixes the output
                return _const_op(out, mask if stuck[1] else 0)

        idxs, consts = self._operand_indices(gate, stuck)
        if gate.kind == "BUF":
            return _const_op(out, consts[0]) if consts else _copy_op(out, idxs[0])
        if gate.kind == "NOT":
            return _const_op(out, consts[0] ^ mask) if consts else _not_op(out, idxs[0], mask)
        # A stuck operand of an AND (OR) gate here is 1 (0): it drops out.
        if gate.kind == "AND":
            return _const_op(out, mask) if not idxs else _and_op(out, idxs)
        if gate.kind == "OR":
            return _const_op(out, 0) if not idxs else _or_op(out, idxs)
        if gate.kind == "XOR":
            init = 0
            for c in consts:
                init ^= c
            return _const_op(out, init) if not idxs else _xor_op(out, idxs, init)
        raise ValueError(f"cannot compile gate of type {gate.kind!r}")

    def _compile_good_eval(self) -> Callable[[List[int]], None]:
        """Generate one straight-line function evaluating the whole netlist."""
        mask = self.mask
        lines = ["def good_eval(V):"]
        for signal in self._order:
            gate = self.netlist.gates[signal]
            out = self._index[signal]
            operands = [f"V[{self._index[src]}]" for src in gate.inputs]
            if gate.kind == "CONST0":
                expr = "0"
            elif gate.kind == "CONST1":
                expr = str(mask)
            elif gate.kind == "BUF":
                expr = operands[0]
            elif gate.kind == "NOT":
                expr = f"{operands[0]} ^ {mask}"
            elif gate.kind == "AND":
                expr = " & ".join(operands)
            elif gate.kind == "OR":
                expr = " | ".join(operands)
            elif gate.kind == "XOR":
                expr = " ^ ".join(operands)
            else:  # pragma: no cover - rejected by _compile_gate already
                raise ValueError(f"cannot compile gate of type {gate.kind!r}")
            lines.append(f"    V[{out}] = {expr}")
        if len(lines) == 1:
            lines.append("    pass")
        namespace: Dict[str, object] = {}
        exec(compile("\n".join(lines), "<fault-engine>", "exec"), namespace)
        return namespace["good_eval"]  # type: ignore[return-value]

    def _cone(self, idx: int) -> Tuple[Tuple[Op, ...], Tuple[int, ...]]:
        """The fanout cone of signal ``idx``: ``(ops, cone)``.

        ``ops`` are the closures of every gate the signal reaches
        combinationally, in topological order; ``cone`` is ``idx`` followed
        by those gates' output indices — every value a fault at ``idx`` can
        change within one cycle.  Cached per signal, so a stem's two faults
        and every branch fault into the same gate share one cone.
        """
        cached = self._cones.get(idx)
        if cached is None:
            consumers = self._consumers
            out_idx = self._out_idx
            stack = list(consumers[idx])
            reached = set(stack)
            while stack:
                for pos in consumers[out_idx[stack.pop()]]:
                    if pos not in reached:
                        reached.add(pos)
                        stack.append(pos)
            positions = sorted(reached)
            cached = (
                tuple(self._ops[pos] for pos in positions),
                (idx,) + tuple(out_idx[pos] for pos in positions),
            )
            self._cones[idx] = cached
        return cached

    def _fault_program(self, fault: StuckAtFault) -> Optional[_Program]:
        """How ``fault`` changes one cycle of the good circuit (cached).

        A stem fault forces its signal and runs the signal's cone; a branch
        fault runs the consuming gate's substituted closure followed by
        that gate's cone; a flip-flop-branch fault has no ops and forces
        the captured state word instead.  ``None`` when the fault cannot
        change any value (an unknown site, or a branch that is not an input
        of the named consumer).
        """
        if fault in self._programs:
            return self._programs[fault]
        program: Optional[_Program] = None
        const = self.mask if fault.value else 0
        if fault.gate_input is None:
            idx = self._index.get(fault.signal)
            if idx is not None:
                ops, cone = self._cone(idx)
                program = _Program(idx, const, True, ops, cone, None)
        elif fault.gate_input in self._ff_pos:
            ff_pos = self._ff_pos[fault.gate_input]
            if self.netlist.flip_flops[ff_pos].data == fault.signal:
                program = _Program(self._index[fault.signal], const, False, (), (), ff_pos)
        elif fault.gate_input in self._order_pos:
            gate = self.netlist.gates[fault.gate_input]
            if fault.signal in gate.inputs:
                variant = self._compile_gate(gate, stuck=(fault.signal, fault.value))
                ops, cone = self._cone(self._index[fault.gate_input])
                program = _Program(
                    self._index[fault.signal], const, False, (variant,) + ops, cone, None
                )
        self._programs[fault] = program
        return program

    # --------------------------------------------------------------- running
    def reset_state_words(self) -> List[int]:
        """Initial state words, every lane at the flip-flop reset value."""
        return [self.mask if ff.reset_value else 0 for ff in self.netlist.flip_flops]

    def _state_words(self, state: Optional[Mapping[str, int]]) -> List[int]:
        if state is None:
            return self.reset_state_words()
        return [state.get(name, 0) & self.mask for name in self._state_names]

    def _prepare_sequence(
        self, input_sequence: Sequence[Mapping[str, int]]
    ) -> List[List[int]]:
        mask = self.mask
        names = self.netlist.primary_inputs
        return [[inputs.get(n, 0) & mask for n in names] for inputs in input_sequence]

    def _good_trace(
        self,
        seq_words: List[List[int]],
        obs_idx: List[int],
        initial_state: List[int],
    ) -> List[List[int]]:
        """Observation-point words of the fault-free circuit, per cycle."""
        V = [0] * len(self._index)
        pi_idx = self._pi_idx
        state_idx = self._state_idx
        data_idx = self._data_idx
        good_eval = self._good_eval
        state = list(initial_state)
        trace: List[List[int]] = []
        for words in seq_words:
            for i, w in zip(pi_idx, words):
                V[i] = w
            for i, w in zip(state_idx, state):
                V[i] = w
            good_eval(V)
            trace.append([V[i] for i in obs_idx])
            state = [V[i] for i in data_idx]
        return trace

    def run(
        self,
        input_sequence: Sequence[Mapping[str, int]],
        faults: Optional[Sequence[StuckAtFault]] = None,
        observe: Optional[Sequence[str]] = None,
        initial_state: Optional[Mapping[str, int]] = None,
        stop_when_all_detected: bool = True,
        lane_masks: Optional[Sequence[int]] = None,
    ) -> "FaultSimulationResult":
        """Fault-simulate an input sequence; see :class:`FaultSimulator`.

        Returns a :class:`repro.circuit.faults.FaultSimulationResult` that is
        bit-exact identical to the legacy simulator's for the same inputs.
        """
        from .faults import FaultSimulationResult, enumerate_faults, observation_points

        fault_list = list(faults) if faults is not None else enumerate_faults(self.netlist)
        observation = observation_points(self.netlist, observe)
        obs_idx = [self._index[n] for n in observation if n in self._index]

        n_cycles = len(input_sequence)
        masks = self._lane_masks(lane_masks, n_cycles)

        result = FaultSimulationResult(total_faults=len(fault_list))
        if n_cycles == 0:
            return result
        if not fault_list:
            # Match the legacy loop exactly: with early stopping it still
            # executes the first cycle before noticing there is nothing left.
            cycles = 1 if stop_when_all_detected else n_cycles
            result.cycles_simulated = cycles
            result.patterns_simulated = sum(bin(m).count("1") for m in masks[:cycles])
            return result

        detection = self._detect(
            fault_list,
            self._prepare_sequence(input_sequence),
            obs_idx,
            masks,
            self._state_words(initial_state),
        )

        for key, cycle in detection.items():
            result.detected.add(key)
            result.detection_cycle[key] = cycle

        if stop_when_all_detected and len(detection) == len(fault_list):
            result.cycles_simulated = max(detection.values()) if detection else 0
        else:
            result.cycles_simulated = n_cycles
        result.patterns_simulated = sum(
            bin(masks[c]).count("1") for c in range(result.cycles_simulated)
        )
        return result

    def _lane_masks(self, lane_masks: Optional[Sequence[int]], n_cycles: int) -> List[int]:
        if lane_masks is None:
            return [self.mask] * n_cycles
        if len(lane_masks) < n_cycles:
            raise ValueError("lane_masks must provide one mask per input word")
        return [m & self.mask for m in lane_masks[:n_cycles]]

    def _detect(
        self,
        fault_list: List[StuckAtFault],
        seq_words: List[List[int]],
        obs_idx: List[int],
        masks: List[int],
        initial_state: List[int],
    ) -> Dict[str, int]:
        """First detection cycle per detected fault, in fault-list order.

        Faults the good-state argument covers run cycle-major over their
        cones; the rest run the sequential path (see the module docstring).
        """
        observed = set(obs_idx)
        unobserved_data = set(self._data_idx) - observed
        exact = all(m == self.mask for m in masks[:-1])
        cone_obs: Dict[int, Tuple[int, ...]] = {}
        cone_faults: List[_ConeFault] = []
        sequential: List[Tuple[int, _Program]] = []
        for position, fault in enumerate(fault_list):
            program = self._fault_program(fault)
            if program is None:
                continue  # the faulty circuit equals the good one
            cone = program.cone
            if program.capture is not None or not exact or not unobserved_data.isdisjoint(cone):
                sequential.append((position, program))
                continue
            obs = cone_obs.get(cone[0])
            if obs is None:
                obs = cone_obs[cone[0]] = tuple(i for i in cone if i in observed)
            if obs:
                force_idx = program.site if program.stem else -1
                cone_faults.append(
                    (position, program.site, program.word, force_idx, program.ops, obs)
                )

        found: Dict[int, int] = {}
        if cone_faults:
            self._detect_cones(cone_faults, seq_words, masks, initial_state, found)
        if sequential:
            good_trace = self._good_trace(seq_words, obs_idx, initial_state)
            for position, program in sequential:
                cycle = self._simulate_fault(
                    program, seq_words, good_trace, obs_idx, masks, initial_state
                )
                if cycle is not None:
                    found[position] = cycle
        return {fault_list[p].describe(): found[p] for p in sorted(found)}

    def _detect_cones(
        self,
        active: List[_ConeFault],
        seq_words: List[List[int]],
        masks: List[int],
        initial_state: List[int],
        found: Dict[int, int],
    ) -> None:
        """Cycle-major cone propagation; records ``found[position] = cycle``.

        Each cycle evaluates the good circuit once into ``G``.  A remaining
        fault whose line already carries the stuck value in every valid
        lane changes nothing this cycle; every other one copies ``G``,
        applies its force or branch closure, runs its cone, and compares
        its observed cone points with ``G`` under the cycle's lane mask.
        """
        G = [0] * len(self._index)
        pi_idx = self._pi_idx
        state_idx = self._state_idx
        data_idx = self._data_idx
        good_eval = self._good_eval
        state = initial_state
        for cycle_index, words in enumerate(seq_words):
            for i, w in zip(pi_idx, words):
                G[i] = w
            for i, w in zip(state_idx, state):
                G[i] = w
            good_eval(G)
            lane_mask = masks[cycle_index]
            survivors = []
            for entry in active:
                position, site, word, force_idx, ops, obs = entry
                if not (G[site] ^ word) & lane_mask:
                    survivors.append(entry)
                    continue
                W = G[:]
                if force_idx >= 0:
                    W[force_idx] = word
                for op in ops:
                    op(W)
                for i in obs:
                    if (W[i] ^ G[i]) & lane_mask:
                        found[position] = cycle_index + 1
                        break
                else:
                    survivors.append(entry)
            active = survivors
            if not active:
                return
            state = [G[i] for i in data_idx]

    def _simulate_fault(
        self,
        program: _Program,
        seq_words: List[List[int]],
        good_trace: List[List[int]],
        obs_idx: List[int],
        masks: List[int],
        initial_state: List[int],
    ) -> Optional[int]:
        """Sequential path: first detection cycle of one fault, or ``None``.

        The faulty machine keeps its own state; each cycle evaluates the
        good circuit from that state, then applies the fault and its cone.
        """
        site, word, stem, ops, _, capture = program
        V = [0] * len(self._index)
        pi_idx = self._pi_idx
        state_idx = self._state_idx
        data_idx = self._data_idx
        good_eval = self._good_eval
        state = list(initial_state)

        for cycle_index, words in enumerate(seq_words):
            for i, w in zip(pi_idx, words):
                V[i] = w
            for i, w in zip(state_idx, state):
                V[i] = w
            good_eval(V)
            if stem:
                V[site] = word
            for op in ops:
                op(V)

            lane_mask = masks[cycle_index]
            good_row = good_trace[cycle_index]
            for j, oi in enumerate(obs_idx):
                if (V[oi] ^ good_row[j]) & lane_mask:
                    return cycle_index + 1

            state = [V[i] for i in data_idx]
            if capture is not None:
                state[capture] = word
        return None
