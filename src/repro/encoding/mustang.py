"""MUSTANG-style state assignment for conventional D-flip-flop registers.

The paper synthesises its DFF reference points with nova/mustang.  This
module re-implements the core idea of MUSTANG (Devadas et al., 1988): build an
*affinity graph* whose edge weights say how much two states would like to
receive adjacent (small Hamming distance) codes, then embed the states into
the Boolean hypercube so that high-affinity pairs end up close together.

Two weight contributions are used, mirroring MUSTANG's fan-out and fan-in
oriented algorithms:

* states that transition to the same next state and assert the same outputs
  (fan-out affinity between present states),
* states that are reached from the same present state (fan-in affinity
  between next states).

The embedding itself is a deterministic greedy placement: the highest-affinity
pair is seeded onto adjacent codes, then the state with the strongest ties to
already-placed states is repeatedly placed on the free code minimising the
weighted Hamming distance to its placed neighbours.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from ..fsm.machine import FSM
from .assignment import StateEncoding

__all__ = ["affinity_weights", "assign_mustang", "MustangResult"]


@dataclass(frozen=True)
class MustangResult:
    """Outcome of the MUSTANG-style assignment."""

    encoding: StateEncoding
    total_weighted_distance: int


def affinity_weights(fsm: FSM, fanout_weight: int = 1, fanin_weight: int = 1) -> Dict[Tuple[str, str], int]:
    """Pairwise affinity weights between states (symmetric, no self-loops)."""
    weights: Dict[Tuple[str, str], int] = {}

    def bump(a: str, b: str, amount: int) -> None:
        if a == b or amount == 0:
            return
        key = (a, b) if a < b else (b, a)
        weights[key] = weights.get(key, 0) + amount

    # Fan-out affinity: present states sharing next states / asserted outputs.
    next_counts: Dict[str, Dict[str, int]] = {s: {} for s in fsm.states}
    output_counts: Dict[str, Dict[int, int]] = {s: {} for s in fsm.states}
    for t in fsm.transitions:
        if t.next != "*":
            next_counts[t.present][t.next] = next_counts[t.present].get(t.next, 0) + 1
        for o, ch in enumerate(t.outputs):
            if ch == "1":
                output_counts[t.present][o] = output_counts[t.present].get(o, 0) + 1

    states = list(fsm.states)
    for i, u in enumerate(states):
        for v in states[i + 1 :]:
            shared_next = sum(
                min(count, next_counts[v].get(target, 0))
                for target, count in next_counts[u].items()
            )
            shared_outputs = sum(
                min(count, output_counts[v].get(o, 0))
                for o, count in output_counts[u].items()
            )
            bump(u, v, fanout_weight * (shared_next + shared_outputs))

    # Fan-in affinity: next states reachable from a common present state.
    for s in fsm.states:
        targets = [t for t in next_counts[s]]
        for i, u in enumerate(targets):
            for v in targets[i + 1 :]:
                bump(u, v, fanin_weight * min(next_counts[s][u], next_counts[s][v]))

    return weights


def assign_mustang(
    fsm: FSM,
    width: Optional[int] = None,
    fanout_weight: int = 1,
    fanin_weight: int = 1,
) -> MustangResult:
    """Compute a DFF-targeted encoding by affinity-driven hypercube embedding."""
    r = width if width is not None else fsm.min_code_bits
    if (1 << r) < fsm.num_states:
        raise ValueError(f"width {r} cannot encode {fsm.num_states} states")

    weights = affinity_weights(fsm, fanout_weight, fanin_weight)
    states = list(fsm.states)
    if len(states) == 1:
        return MustangResult(StateEncoding(r, {states[0]: "0" * r}), 0)

    def weight(a: str, b: str) -> int:
        key = (a, b) if a < b else (b, a)
        return weights.get(key, 0)

    free_codes = [format(v, f"0{r}b") for v in range(1 << r)]
    placed: Dict[str, str] = {}

    # Seed with the strongest pair on adjacent codes (or the two first states
    # when the machine has no affinity structure at all).
    seed_pair = max(
        ((u, v) for i, u in enumerate(states) for v in states[i + 1 :]),
        key=lambda pair: (weight(*pair), -states.index(pair[0]), -states.index(pair[1])),
    )
    placed[seed_pair[0]] = free_codes[0]
    placed[seed_pair[1]] = _adjacent_code(free_codes[0], 0)
    free_codes.remove(placed[seed_pair[0]])
    free_codes.remove(placed[seed_pair[1]])

    while len(placed) < len(states):
        # Pick the unplaced state with the strongest ties to placed states.
        candidate = max(
            (s for s in states if s not in placed),
            key=lambda s: (sum(weight(s, p) for p in placed), -states.index(s)),
        )
        best_code = min(
            free_codes,
            key=lambda code: (
                sum(weight(candidate, p) * _hamming(code, c) for p, c in placed.items()),
                code,
            ),
        )
        placed[candidate] = best_code
        free_codes.remove(best_code)

    encoding = StateEncoding(r, placed)
    total = sum(
        weight(u, v) * _hamming(placed[u], placed[v])
        for i, u in enumerate(states)
        for v in states[i + 1 :]
    )
    return MustangResult(encoding, total)


def _hamming(a: str, b: str) -> int:
    return sum(1 for x, y in zip(a, b) if x != y)


def _adjacent_code(code: str, bit: int) -> str:
    flipped = "1" if code[bit] == "0" else "0"
    return code[:bit] + flipped + code[bit + 1 :]
