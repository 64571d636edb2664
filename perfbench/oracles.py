"""Reference checks for the benchmark, written apart from the program.

Nothing here imports ``repro``.  The checks take plain data — PLA-style
cube strings, a gate dictionary, state codes — and answer from first
principles:

* :func:`check_cover` — the two-level contract ``ON <= cover <= ON | DC``
  per output, exhaustive up to :data:`EXHAUSTIVE_INPUT_BITS` input bits and
  sampled (with the caller's seeded generator) above that;
* :class:`GateNetlist` — a lane-parallel gate-level simulator (AND, OR,
  NOT, XOR, BUF, CONST0/1, D flip-flops) with single stuck-at injection on
  stems, gate-input branches and flip-flop data branches;
* :func:`check_fsm_behaviour` — every specified FSM transition, applied
  from its encoded present state, must load the encoded next state and
  drive every specified output bit;
* :func:`simulate_faults` — random-pattern stuck-at simulation returning
  each detected fault's first-detection cycle;
* :func:`enumerate_fault_sites` — the single stuck-at fault list (stems
  everywhere, branches where a signal fans out).

Every check returns a list of human-readable failures; an empty list means
the output passed.  Bit ``k`` of every lane integer is pattern ``k``.
"""

from __future__ import annotations

import random
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

#: Covers with at most this many inputs are checked on every minterm.
EXHAUSTIVE_INPUT_BITS = 16

#: Random minterms drawn per sampled cover check, plus per-cube completions.
SAMPLED_POINTS = 2048
POINTS_PER_CUBE = 4

Cube = Tuple[str, str]
Fault = Tuple[str, int, Optional[str]]


# ------------------------------------------------------------------ covers


def _uniform_lanes(num_vars: int) -> Tuple[int, List[int]]:
    """Lane count and per-variable masks enumerating every minterm once."""
    lanes = 1 << num_vars
    full = (1 << lanes) - 1
    masks = []
    for var in range(num_vars):
        half = 1 << var
        block = ((1 << half) - 1) << half  # variable = 1 in the upper half of each period
        masks.append(block * (full // ((1 << (2 * half)) - 1)))
    return lanes, masks


def _point_lanes(points: Sequence[Sequence[int]], num_vars: int) -> List[int]:
    masks = [0] * num_vars
    for lane, point in enumerate(points):
        for var in range(num_vars):
            if point[var]:
                masks[var] |= 1 << lane
    return masks


def _complete(cube: str, rng: random.Random) -> List[int]:
    return [int(ch) if ch in "01" else rng.getrandbits(1) for ch in cube]


def _cube_lanes(cube: str, ones: Sequence[int], full: int) -> int:
    mask = full
    for var, ch in enumerate(cube):
        if ch == "1":
            mask &= ones[var]
        elif ch == "0":
            mask &= ~ones[var]
        elif ch != "-":
            return 0  # an empty literal covers nothing
    return mask & full


def _output_lanes(cubes: Sequence[Cube], num_outputs: int, ones: Sequence[int],
                  full: int) -> List[int]:
    per_output = [0] * num_outputs
    for inputs, outputs in cubes:
        lanes = _cube_lanes(inputs, ones, full)
        if not lanes:
            continue
        for j, ch in enumerate(outputs):
            if ch == "1":
                per_output[j] |= lanes
    return per_output


def check_cover(on: Mapping, dc: Mapping, cover: Mapping,
                rng: random.Random) -> List[str]:
    """Check ``ON <= cover <= ON | DC`` for every output.

    The three arguments use the ``{"inputs", "outputs", "cubes"}`` shape,
    cubes being ``[input string, output string]`` pairs over ``0 1 -``.
    Above :data:`EXHAUSTIVE_INPUT_BITS` inputs the check runs on uniform
    random minterms plus random completions of every ON and cover cube.
    """
    n, m = int(on["inputs"]), int(on["outputs"])
    for name, part in (("dc", dc), ("cover", cover)):
        if (int(part["inputs"]), int(part["outputs"])) != (n, m):
            return [f"{name} has shape {part['inputs']}x{part['outputs']}, ON-set {n}x{m}"]
    if n <= EXHAUSTIVE_INPUT_BITS:
        lanes, ones = _uniform_lanes(n)
        points = None
    else:
        points = [[rng.getrandbits(1) for _ in range(n)] for _ in range(SAMPLED_POINTS)]
        for inputs, _ in list(on["cubes"]) + list(cover["cubes"]):
            points.extend(_complete(inputs, rng) for _ in range(POINTS_PER_CUBE))
        lanes, ones = len(points), _point_lanes(points, n)
    full = (1 << lanes) - 1
    on_lanes = _output_lanes(on["cubes"], m, ones, full)
    dc_lanes = _output_lanes(dc["cubes"], m, ones, full)
    cover_lanes = _output_lanes(cover["cubes"], m, ones, full)

    def minterm(lane: int) -> str:
        if points is not None:
            return "".join(str(bit) for bit in points[lane])
        return "".join(str(lane >> var & 1) for var in range(n))

    failures = []
    for j in range(m):
        uncovered = on_lanes[j] & ~cover_lanes[j]
        if uncovered:
            lane = (uncovered & -uncovered).bit_length() - 1
            failures.append(f"output {j}: ON minterm {minterm(lane)} not covered")
        spill = cover_lanes[j] & ~(on_lanes[j] | dc_lanes[j])
        if spill:
            lane = (spill & -spill).bit_length() - 1
            failures.append(f"output {j}: cover asserts OFF minterm {minterm(lane)}")
    return failures


# ---------------------------------------------------------------- netlists

_SOURCE_KINDS = ("INPUT", "CONST0", "CONST1")


class GateNetlist:
    """A synchronous gate-level circuit as plain data, simulated lane-parallel.

    Args:
        inputs: primary input names, in FSM input-bit order.
        outputs: primary output names, in FSM output-bit order.
        gates: ``{signal: (kind, [input signals])}`` for every combinational
            gate; primary inputs and flip-flop outputs are ``INPUT``.
        flops: ``(state signal, data signal, reset value)`` per flip-flop,
            in state-code bit order.
    """

    def __init__(self, inputs: Sequence[str], outputs: Sequence[str],
                 gates: Mapping[str, Tuple[str, Sequence[str]]],
                 flops: Sequence[Tuple[str, str, int]]) -> None:
        self.inputs = list(inputs)
        self.outputs = list(outputs)
        self.gates = {name: (kind, tuple(srcs)) for name, (kind, srcs) in gates.items()}
        self.flops = [(state, data, int(reset)) for state, data, reset in flops]
        self.order = self._topological_order()

    def _topological_order(self) -> List[str]:
        order: List[str] = []
        state: Dict[str, int] = {}  # 1 = on the DFS stack, 2 = placed

        def reads(signal: str) -> Iterable[str]:
            kind, srcs = self.gates[signal]
            return iter(() if kind in _SOURCE_KINDS else srcs)

        for root in self.gates:
            if root in state:
                continue
            state[root] = 1
            stack = [(root, reads(root))]
            while stack:
                signal, pending = stack[-1]
                for src in pending:
                    if src not in self.gates:
                        raise ValueError(f"{signal} reads undefined signal {src}")
                    if state.get(src) == 1:
                        raise ValueError(f"combinational loop through {src}")
                    if src not in state:
                        state[src] = 1
                        stack.append((src, reads(src)))
                        break
                else:
                    stack.pop()
                    state[signal] = 2
                    order.append(signal)
        return order

    def observation_points(self) -> List[str]:
        """Primary outputs plus the flip-flop data lines, as a tester sees them."""
        return self.outputs + [data for _, data, _ in self.flops]

    def evaluate(self, pis: Mapping[str, int], state: Mapping[str, int], full: int,
                 fault: Optional[Fault] = None) -> Dict[str, int]:
        """All signal values for one word of patterns, ``fault`` injected."""
        site, stuck, branch = fault if fault is not None else (None, 0, None)
        stuck_word = full if stuck else 0
        values: Dict[str, int] = {}
        for signal in self.order:
            kind, srcs = self.gates[signal]
            if kind == "INPUT":
                value = (pis[signal] if signal in pis else state[signal]) & full
            elif kind == "CONST0":
                value = 0
            elif kind == "CONST1":
                value = full
            else:
                operands = [
                    stuck_word if (branch == signal and src == site) else values[src]
                    for src in srcs
                ]
                if kind == "AND":
                    value = full
                    for operand in operands:
                        value &= operand
                elif kind == "OR":
                    value = 0
                    for operand in operands:
                        value |= operand
                elif kind == "XOR":
                    value = 0
                    for operand in operands:
                        value ^= operand
                elif kind == "NOT":
                    value = ~operands[0] & full
                elif kind == "BUF":
                    value = operands[0]
                else:
                    raise ValueError(f"unknown gate kind {kind}")
            if branch is None and signal == site:
                value = stuck_word
            values[signal] = value
        return values

    def next_state(self, values: Mapping[str, int], full: int,
                   fault: Optional[Fault] = None) -> Dict[str, int]:
        """The flip-flop contents after the clock edge."""
        site, stuck, branch = fault if fault is not None else (None, 0, None)
        loaded = {}
        for state, data, _ in self.flops:
            if branch == state and site == data:
                loaded[state] = full if stuck else 0  # stuck data branch of this flop only
            else:
                loaded[state] = values[data]
        return loaded

    def reset_state(self, full: int) -> Dict[str, int]:
        return {state: full if reset else 0 for state, _, reset in self.flops}


# -------------------------------------------------------------- FSM checks


def _input_minterms(cube: str, rng: random.Random, limit_free: int,
                    samples: int) -> List[str]:
    free = [i for i, ch in enumerate(cube) if ch == "-"]
    if len(free) <= limit_free:
        choices = range(1 << len(free))
    else:
        choices = [rng.getrandbits(len(free)) for _ in range(samples)]
    minterms = []
    for choice in choices:
        chars = list(cube)
        for bit, var in enumerate(free):
            chars[var] = str(choice >> bit & 1)
        minterms.append("".join(chars))
    return minterms


def check_fsm_behaviour(netlist: GateNetlist, transitions: Iterable[Sequence[str]],
                        codes: Mapping[str, str], reset_state: str,
                        rng: random.Random, limit_free: int = 8,
                        samples: int = 128) -> List[str]:
    """Every specified transition, applied from its encoded present state.

    ``transitions`` are ``(input cube, present, next, output cube)`` rows;
    ``next == "*"`` leaves the next state free and ``-`` output bits are
    free.  Input cubes with at most ``limit_free`` don't-care bits are
    expanded completely, wider ones are sampled ``samples`` times.
    """
    failures = []
    reset_code = codes[reset_state]
    for index, (_, _, reset) in enumerate(netlist.flops):
        if str(reset) != reset_code[index]:
            failures.append(f"flip-flop {index} resets to {reset}, reset state code {reset_code}")
    lanes: List[Tuple[str, str, str, str]] = []
    for cube, present, nxt, outs in transitions:
        for minterm in _input_minterms(cube, rng, limit_free, samples):
            lanes.append((minterm, present, nxt, outs))
    if not lanes:
        return failures
    full = (1 << len(lanes)) - 1
    pis = {name: 0 for name in netlist.inputs}
    state = {s: 0 for s, _, _ in netlist.flops}
    expect_state = [0] * len(netlist.flops)
    care_state = 0
    expect_out = [0] * len(netlist.outputs)
    care_out = [0] * len(netlist.outputs)
    for lane, (minterm, present, nxt, outs) in enumerate(lanes):
        bit = 1 << lane
        for i, name in enumerate(netlist.inputs):
            if minterm[i] == "1":
                pis[name] |= bit
        for i, (s, _, _) in enumerate(netlist.flops):
            if codes[present][i] == "1":
                state[s] |= bit
        if nxt != "*":
            care_state |= bit
            for i, ch in enumerate(codes[nxt]):
                if ch == "1":
                    expect_state[i] |= bit
        for j, ch in enumerate(outs):
            if ch != "-":
                care_out[j] |= bit
                if ch == "1":
                    expect_out[j] |= bit
    values = netlist.evaluate(pis, state, full)
    loaded = netlist.next_state(values, full)

    def describe(lane: int) -> str:
        minterm, present, nxt, _ = lanes[lane]
        return f"state {present} input {minterm} (next {nxt})"

    for i, (s, _, _) in enumerate(netlist.flops):
        wrong = (loaded[s] ^ expect_state[i]) & care_state
        if wrong:
            lane = (wrong & -wrong).bit_length() - 1
            failures.append(f"next-state bit {i} wrong for {describe(lane)}")
    for j, name in enumerate(netlist.outputs):
        wrong = (values[name] ^ expect_out[j]) & care_out[j]
        if wrong:
            lane = (wrong & -wrong).bit_length() - 1
            failures.append(f"output {j} wrong for {describe(lane)}")
    return failures


# ------------------------------------------------------------------ faults


def enumerate_fault_sites(netlist: GateNetlist) -> List[Fault]:
    """Stuck-at-0/1 on every signal, plus on every input branch (gate or
    flip-flop data input) of a signal read by more than one consumer."""
    readers: Dict[str, int] = {}
    for _, srcs in netlist.gates.values():
        for src in srcs:
            readers[src] = readers.get(src, 0) + 1
    for _, data, _ in netlist.flops:
        readers[data] = readers.get(data, 0) + 1
    faults: List[Fault] = [(s, v, None) for s in netlist.gates for v in (0, 1)]
    for name, (_, srcs) in netlist.gates.items():
        for src in srcs:
            if readers[src] > 1:
                faults.extend((src, v, name) for v in (0, 1))
    for state, data, _ in netlist.flops:
        if readers[data] > 1:
            faults.extend((data, v, state) for v in (0, 1))
    return faults


def fault_name(fault: Fault) -> str:
    site, value, branch = fault
    location = site if branch is None else f"{site}->{branch}"
    return f"{location} stuck-at-{value}"


def random_stimuli(inputs: Sequence[str], patterns: int, width: int,
                   seed: int) -> Tuple[List[Dict[str, int]], List[int]]:
    """The random-pattern test set: ``patterns`` lanes packed ``width`` per word.

    Words are drawn from ``random.Random(seed)``, one ``getrandbits(width)``
    per primary input in input order; the lanes of a partial final word
    beyond ``patterns`` are zeroed and masked out of detection.
    """
    rng = random.Random(seed)
    words = -(-patterns // width)
    full = (1 << width) - 1
    masks = [full] * words
    masks[-1] = (1 << (patterns - (words - 1) * width)) - 1
    stimuli = []
    for w in range(words):
        stimuli.append({name: rng.getrandbits(width) & masks[w] for name in inputs})
    return stimuli, masks


def simulate_faults(netlist: GateNetlist, faults: Sequence[Fault],
                    stimuli: Sequence[Mapping[str, int]], masks: Sequence[int],
                    width: int) -> Dict[str, int]:
    """First-detection cycle (1-based) of every detected fault.

    Good and faulty machines start from the reset state in every lane; a
    fault is detected in the first cycle where any observation point
    differs from the good machine in a valid lane, and then dropped.
    """
    full = (1 << width) - 1
    observe = netlist.observation_points()
    good_state = netlist.reset_state(full)
    fault_state = {fault: dict(good_state) for fault in faults}
    detected: Dict[str, int] = {}
    for cycle, (pis, mask) in enumerate(zip(stimuli, masks), start=1):
        good = netlist.evaluate(pis, good_state, full)
        for fault in faults:
            if fault_name(fault) in detected:
                continue
            values = netlist.evaluate(pis, fault_state[fault], full, fault)
            if any((values[p] ^ good[p]) & mask for p in observe):
                detected[fault_name(fault)] = cycle
            else:
                fault_state[fault] = netlist.next_state(values, full, fault)
        good_state = netlist.next_state(good, full)
    return detected
