"""Symbolic (multiple-valued input) minimisation of FSM descriptions.

Before any binary codes exist, the output and next-state functions of an FSM
can be minimised *symbolically*: the present state is treated as a single
multiple-valued variable, so a product term may cover a whole **group of
states** at once.  DeMicheli (1986) showed that the number of symbolic
implicants is a lower bound for the number of product terms of any encoded
two-level implementation, and the paper's state-assignment cost function
(Section 3.3.2) is built on exactly this idea: an encoding is good when it
lets the symbolic implicants survive encoding without being split.

This module computes such a set of symbolic implicants with a deterministic
greedy merging procedure.  It intentionally keeps a reference to the original
transitions inside each implicant, because the cost function later needs the
next states of the merged transitions to evaluate excitation-bit (output)
incompatibilities column by column.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Optional, Sequence, Tuple

from ..fsm.machine import FSM, Transition

__all__ = ["SymbolicImplicant", "symbolic_minimize", "symbolic_implicant_count"]


@dataclass(frozen=True)
class SymbolicImplicant:
    """A product term of the symbolically minimised FSM description.

    Attributes:
        inputs: input cube over the primary inputs.
        present_states: group of present states sharing this product term.
        next_state: common symbolic next state (``None`` when the merged
            transitions leave it unspecified).
        outputs: asserted output pattern (``0``/``1``/``-`` per output).
        transitions: the original transitions summarised by this implicant.
    """

    inputs: str
    present_states: FrozenSet[str]
    next_state: Optional[str]
    outputs: str
    transitions: Tuple[Transition, ...]

    @property
    def group_size(self) -> int:
        return len(self.present_states)


def symbolic_minimize(fsm: FSM, max_rounds: int = 20) -> List[SymbolicImplicant]:
    """Compute a reduced set of symbolic implicants for ``fsm``.

    The procedure alternates two deterministic merging steps until a fixed
    point (or ``max_rounds``) is reached:

    1. *state grouping*: implicants with identical input cube, next state and
       output pattern are merged into one implicant covering the union of
       their present-state groups;
    2. *input merging*: implicants with identical state group, next state and
       output pattern whose input cubes differ in exactly one position (or
       where one contains the other) are merged.
    """
    implicants = [
        SymbolicImplicant(
            t.inputs,
            frozenset({t.present}),
            None if t.next == "*" else t.next,
            t.outputs,
            (t,),
        )
        for t in fsm.transitions
    ]
    for _ in range(max_rounds):
        merged = _merge_state_groups(implicants)
        merged = _merge_input_cubes(merged)
        if len(merged) == len(implicants):
            implicants = merged
            break
        implicants = merged
    return implicants


def symbolic_implicant_count(fsm: FSM) -> int:
    """Lower-bound estimate of the encoded product-term count."""
    return len(symbolic_minimize(fsm))


# ------------------------------------------------------------------ merging


def _merge_state_groups(implicants: Sequence[SymbolicImplicant]) -> List[SymbolicImplicant]:
    buckets: Dict[Tuple[str, Optional[str], str], List[SymbolicImplicant]] = {}
    for imp in implicants:
        buckets.setdefault((imp.inputs, imp.next_state, imp.outputs), []).append(imp)
    merged: List[SymbolicImplicant] = []
    for (inputs, next_state, outputs), group in sorted(
        buckets.items(), key=lambda kv: (kv[0][0], str(kv[0][1]), kv[0][2])
    ):
        if len(group) == 1:
            merged.append(group[0])
            continue
        states: FrozenSet[str] = frozenset().union(*(g.present_states for g in group))
        transitions = tuple(t for g in group for t in g.transitions)
        merged.append(SymbolicImplicant(inputs, states, next_state, outputs, transitions))
    return merged


def _cube_distance(a: str, b: str) -> int:
    return sum(1 for x, y in zip(a, b) if x != y)


def _try_merge_inputs(a: str, b: str) -> Optional[str]:
    """Merge two input cubes when the union is again a single cube."""
    if a == b:
        return a
    diff = [i for i, (x, y) in enumerate(zip(a, b)) if x != y]
    if len(diff) != 1:
        return None
    i = diff[0]
    x, y = a[i], b[i]
    if {x, y} == {"0", "1"}:
        return a[:i] + "-" + a[i + 1 :]
    if "-" in (x, y):
        # One cube contains the other in this (single differing) position.
        return a[:i] + "-" + a[i + 1 :]
    return None


def _merge_input_cubes(implicants: Sequence[SymbolicImplicant]) -> List[SymbolicImplicant]:
    buckets: Dict[Tuple[FrozenSet[str], Optional[str], str], List[SymbolicImplicant]] = {}
    for imp in implicants:
        buckets.setdefault((imp.present_states, imp.next_state, imp.outputs), []).append(imp)
    merged: List[SymbolicImplicant] = []
    for key in sorted(buckets, key=lambda k: (sorted(k[0]), str(k[1]), k[2])):
        group = buckets[key]
        group = sorted(group, key=lambda imp: imp.inputs)
        used = [False] * len(group)
        for i in range(len(group)):
            if used[i]:
                continue
            current = group[i]
            used[i] = True
            changed = True
            while changed:
                changed = False
                for j in range(len(group)):
                    if used[j]:
                        continue
                    candidate = _try_merge_inputs(current.inputs, group[j].inputs)
                    if candidate is not None:
                        current = SymbolicImplicant(
                            candidate,
                            current.present_states,
                            current.next_state,
                            current.outputs,
                            current.transitions + group[j].transitions,
                        )
                        used[j] = True
                        changed = True
            merged.append(current)
    return merged
