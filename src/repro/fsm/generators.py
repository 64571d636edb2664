"""Deterministic synthetic controller generators.

The paper evaluates its algorithms on the MCNC 1988 FSM benchmark set.  Those
``.kiss2`` files are not bundled with this reproduction (see the substitution
note in ``DESIGN.md``); instead this module generates controller-like state
transition graphs with a prescribed number of states, inputs, outputs and
transitions.  The generated machines share the structural properties that
matter to the algorithms under study:

* they are deterministic and completely specified,
* each state only tests a small subset of the primary inputs (typical of
  control logic, and the reason symbolic minimisation pays off),
* the STG is strongly connected (every controller returns to its idle loop),
* outputs contain don't-care bits.

Generation is fully deterministic for a given ``seed`` so that experiment
results are reproducible run to run.
"""

from __future__ import annotations

import random
from typing import List, Sequence, Tuple

from .machine import FSM, FSMError, Transition

__all__ = ["generate_controller", "generate_counter", "generate_random_fsm"]


def _split_cube(cube: str, bit: int) -> Tuple[str, str]:
    """Split ``cube`` on input ``bit`` (which must currently be a dash)."""
    if cube[bit] != "-":
        raise FSMError(f"cannot split cube {cube!r} on already-specified bit {bit}")
    return cube[:bit] + "0" + cube[bit + 1 :], cube[:bit] + "1" + cube[bit + 1 :]


def _partition_input_space(
    num_inputs: int, parts: int, rng: random.Random, decision_bits: Sequence[int]
) -> List[str]:
    """Partition the full input space into ``parts`` disjoint cubes.

    The partition is built by recursively splitting the widest cube on one of
    the allowed ``decision_bits``.  The resulting cubes are pairwise disjoint
    and jointly cover the whole input space, so the transitions built from
    them form a deterministic, completely specified row of the STG.
    """
    full = "-" * num_inputs
    if parts <= 1 or num_inputs == 0 or not decision_bits:
        return [full]
    max_parts = 1 << min(len(decision_bits), 16)
    parts = min(parts, max_parts)
    cubes = [full]
    while len(cubes) < parts:
        # Split the cube with the most remaining don't cares on a fresh bit.
        cubes.sort(key=lambda c: -sum(1 for i in decision_bits if c[i] == "-"))
        target = cubes[0]
        candidates = [i for i in decision_bits if target[i] == "-"]
        if not candidates:
            break
        bit = rng.choice(candidates)
        cubes = cubes[1:] + list(_split_cube(target, bit))
    return cubes


def _random_output(num_outputs: int, rng: random.Random, dc_probability: float) -> str:
    chars = []
    for _ in range(num_outputs):
        if rng.random() < dc_probability:
            chars.append("-")
        else:
            chars.append(rng.choice("01"))
    return "".join(chars)


def _output_pattern_pool(
    num_outputs: int, rng: random.Random, dc_probability: float, pool_size: int
) -> List[str]:
    """A small pool of sparse output patterns shared by many transitions.

    Real controllers assert only a few outputs per transition and reuse the
    same output combinations over and over (command words, enable pulses).
    Drawing transition outputs from a small shared pool reproduces the
    structure that lets symbolic and two-level minimisation merge product
    terms — a fully random output field would make every transition unique
    and grossly overstate the logic complexity of MCNC-like controllers.
    """
    pool: List[str] = ["0" * num_outputs] if num_outputs else [""]
    attempts = 0
    while len(pool) < pool_size and attempts < 10 * pool_size:
        attempts += 1
        chars = []
        for _ in range(num_outputs):
            roll = rng.random()
            if roll < dc_probability:
                chars.append("-")
            elif roll < dc_probability + 0.25:
                chars.append("1")
            else:
                chars.append("0")
        candidate = "".join(chars)
        if candidate not in pool:
            pool.append(candidate)
    return pool


def generate_controller(
    name: str,
    num_states: int,
    num_inputs: int,
    num_outputs: int,
    num_transitions: int,
    seed: int = 0,
    decision_bits_per_state: int = 4,
    output_dc_probability: float = 0.25,
) -> FSM:
    """Generate a deterministic, completely specified controller FSM.

    Args:
        name: machine name.
        num_states: number of symbolic states (>= 1).
        num_inputs: number of primary inputs.
        num_outputs: number of primary outputs.
        num_transitions: approximate total number of STG edges; the actual
            count may be slightly lower because each state tests at most
            ``decision_bits_per_state`` inputs.
        seed: PRNG seed; equal seeds give identical machines.
        decision_bits_per_state: how many primary inputs a single state may
            test (controllers typically look at a handful of condition bits).
        output_dc_probability: probability that an output bit of a transition
            is left unspecified.
    """
    if num_states < 1:
        raise FSMError("num_states must be >= 1")
    if num_transitions < num_states:
        num_transitions = num_states
    rng = random.Random(seed)
    states = [f"s{i}" for i in range(num_states)]

    # Distribute the transition budget over states: a controller usually has a
    # few branch-heavy decision states and many almost-linear states.
    weights = [1.0 + 3.0 * rng.random() ** 2 for _ in states]
    total_weight = sum(weights)
    budget = [max(1, round(num_transitions * w / total_weight)) for w in weights]

    pool_size = max(3, min(2 + num_states // 3, 12))
    output_pool = _output_pattern_pool(num_outputs, rng, output_dc_probability, pool_size)

    transitions: List[Transition] = []
    for idx, state in enumerate(states):
        wanted = budget[idx]
        decision_bits = sorted(
            rng.sample(range(num_inputs), min(decision_bits_per_state, num_inputs))
        ) if num_inputs else []
        cubes = _partition_input_space(num_inputs, wanted, rng, decision_bits)
        successor_pool = _successor_pool(idx, num_states, rng)
        # A state typically asserts one of two output words depending on the
        # branch taken; pick them once per state so merging across the state's
        # transitions stays possible.
        state_patterns = [rng.choice(output_pool), rng.choice(output_pool)]
        for k, cube in enumerate(cubes):
            if k == 0:
                nxt = states[(idx + 1) % num_states]  # backbone keeps the STG connected
            else:
                nxt = states[rng.choice(successor_pool)]
            outputs = state_patterns[0] if k % 2 == 0 else state_patterns[1]
            transitions.append(Transition(cube, state, nxt, outputs))

    return FSM(name, num_inputs, num_outputs, transitions, reset_state=states[0], states=states)


def _successor_pool(index: int, num_states: int, rng: random.Random) -> List[int]:
    """Candidate successors for a state: mostly local, some jumps to the reset."""
    pool = [
        (index + 1) % num_states,
        (index + 2) % num_states,
        0,
        index,
    ]
    pool.extend(rng.randrange(num_states) for _ in range(3))
    return pool


def generate_counter(name: str, num_states: int, num_outputs: int = 1, seed: int = 0) -> FSM:
    """Generate a modulo-``num_states`` counter with an enable input.

    This mirrors benchmarks such as ``modulo12``: one enable input, the
    machine steps through its states cyclically while enabled and holds
    otherwise.
    """
    rng = random.Random(seed)
    states = [f"c{i}" for i in range(num_states)]
    transitions: List[Transition] = []
    for i, state in enumerate(states):
        out_step = _random_output(num_outputs, rng, 0.0)
        out_hold = _random_output(num_outputs, rng, 0.0)
        transitions.append(Transition("1", state, states[(i + 1) % num_states], out_step))
        transitions.append(Transition("0", state, state, out_hold))
    return FSM(name, 1, num_outputs, transitions, reset_state=states[0], states=states)


def generate_random_fsm(
    name: str,
    num_states: int,
    num_inputs: int,
    num_outputs: int,
    seed: int = 0,
    completeness: float = 1.0,
) -> FSM:
    """Generate a small random FSM, optionally incompletely specified.

    Unlike :func:`generate_controller`, transitions are enumerated per input
    minterm (so this is only usable for small ``num_inputs``).  A fraction
    ``1 - completeness`` of the (state, minterm) pairs is left unspecified,
    which is useful for exercising don't-care handling in logic minimisation
    and excitation-function derivation.
    """
    if num_inputs > 8:
        raise FSMError("generate_random_fsm enumerates minterms; use <= 8 inputs")
    rng = random.Random(seed)
    states = [f"q{i}" for i in range(num_states)]
    transitions: List[Transition] = []
    for idx, state in enumerate(states):
        for value in range(1 << num_inputs):
            if rng.random() > completeness:
                continue
            minterm = format(value, f"0{num_inputs}b") if num_inputs else ""
            if value == 0:
                nxt = states[(idx + 1) % num_states]
            else:
                nxt = states[rng.randrange(num_states)]
            transitions.append(
                Transition(minterm, state, nxt, _random_output(num_outputs, rng, 0.2))
            )
    if not transitions:
        transitions.append(Transition("-" * num_inputs, states[0], states[0], "-" * num_outputs))
    return FSM(name, num_inputs, num_outputs, transitions, reset_state=states[0], states=states)
