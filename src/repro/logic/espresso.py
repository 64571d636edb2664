"""Heuristic two-level minimisation in the style of espresso.

The paper reports the quality of its synthesis results as the number of
product terms after two-level minimisation ("minimized using standard
programs").  This module provides that standard program: a heuristic
multi-output minimiser built from the classic espresso phases

* **EXPAND** — raise input literals of every cube to don't cares and add
  outputs whenever the enlarged cube stays inside the ON ∪ DC set, then drop
  cubes contained in other cubes,
* **IRREDUNDANT** — remove cubes that are covered by the rest of the cover
  together with the don't-care set,
* iterated until the cover stops shrinking.

The minimiser never requires the OFF-set.  A containment check ("does the
ON ∪ DC set, or the rest of the cover, contain this cube?") is decided one
of two ways, chosen per phase, and both give the same answer:

* **minterm bitsets** (:func:`~repro.logic.cover.minterm_mask`) when the
  cover has at most :data:`~repro.logic.cover.BITSET_MAX_INPUTS` inputs,
  its cubes are non-empty, and the node budget is unlimited or at least
  ``2 ** (num_inputs + 1) - 1``;
* otherwise the recursive tautology check of :mod:`repro.logic.cover`, which
  also works for functions with many inputs where complementation is
  infeasible.  A node budget bounds the effort per check; exhausting the
  budget only makes the result less optimised, never functionally wrong.

The bitsets are exact, and so is the recursion under that budget: each
node splits one of the target's free variables, so a check over ``n``
inputs visits at most ``2 ** (n + 1) - 1`` nodes and never runs out.
With the default budget of 20,000 that holds up to 13 inputs
(16,383 nodes).  The cube order and every decision are therefore the
same on both paths, and so are the covers.

EXPAND on bitsets builds, per output, the minterms outside ON ∪ DC once per
phase.  Raising a variable grows the candidate's bitset with one shift-or,
and a raise (or an added output) is valid when the bitset misses the
outside minterms of every output it drives.  IRREDUNDANT computes each
cube's bitset once.  A cube is redundant for an output when its bitset lies
inside that output's don't-care bitset together with the bitsets of the
other cubes still kept that meet it.

Each phase indexes its reference cubes once per output
(:class:`~repro.logic.cover.CubeIndex`): the recursive EXPAND over the
ON ∪ DC cubes, IRREDUNDANT over the cubes feeding the output (followed,
for the recursion, by its don't-care cubes), with an ``alive`` mask for the
cubes removed so far and the candidate itself.  A recursive check hands the
tautology test only the indexed cubes that meet its target, which is the
list it would have filtered down to, in the same order, so covers and
budget spend are those of the full lists.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from .cube import FULL_FIELD, Cube
from .cover import (
    BITSET_MAX_INPUTS,
    Cover,
    CubeIndex,
    TautologyBudget,
    covers_inputs,
    minterm_mask,
    output_masks,
    raised_mask,
)

__all__ = ["MinimizationResult", "minimize", "quick_minimize", "verify_minimization"]


@dataclass(frozen=True)
class MinimizationResult:
    """Outcome of a two-level minimisation run."""

    cover: Cover
    initial_terms: int
    final_terms: int
    iterations: int
    method: str

    @property
    def product_terms(self) -> int:
        return self.final_terms

    @property
    def literals(self) -> int:
        return self.cover.sop_literal_count()


def minimize(
    on_set: Cover,
    dc_set: Optional[Cover] = None,
    max_iterations: int = 4,
    tautology_budget: Optional[int] = 20_000,
    method: str = "espresso",
) -> MinimizationResult:
    """Minimise a multi-output cover.

    Args:
        on_set: cover of the ON-set.
        dc_set: optional cover of the don't-care set.
        max_iterations: maximum number of EXPAND/IRREDUNDANT rounds.
        tautology_budget: node budget per containment check (``None`` for
            unlimited effort).  Up to 13 inputs the default budget cannot
            run out, and the checks are decided on minterm bitsets instead
            of the tautology recursion, with the same answers (see the
            module docstring).
        method: ``"espresso"`` for the full heuristic loop, ``"quick"`` for
            the cheap merge-based reduction of :func:`quick_minimize`.
    """
    if method == "quick":
        return quick_minimize(on_set, dc_set)
    if method != "espresso":
        raise ValueError(f"unknown minimisation method {method!r}")

    dc = dc_set if dc_set is not None else Cover(on_set.num_inputs, on_set.num_outputs)
    initial = len(on_set)
    current = on_set.remove_single_cube_containment()
    iterations = 0
    for _ in range(max_iterations):
        iterations += 1
        before = len(current)
        current = _expand(current, dc, tautology_budget)
        current = current.remove_single_cube_containment()
        current = _irredundant(current, dc, tautology_budget)
        if len(current) >= before:
            break
    return MinimizationResult(current, initial, len(current), iterations, "espresso")


def quick_minimize(on_set: Cover, dc_set: Optional[Cover] = None) -> MinimizationResult:
    """Cheap minimisation: distance-1 merging plus containment removal.

    Used as a fast fallback for covers above the flow's ``quick_threshold``
    ON-set cubes, where the full heuristic loop would dominate experiment
    runtime.  The Table 3 machines stay below it: ``tbk``, the largest,
    has 361 ON-set cubes under PST against the default threshold of 700, so
    it runs the full espresso loop.
    """
    initial = len(on_set)
    current = on_set.remove_single_cube_containment()
    changed = True
    while changed:
        changed = False
        cubes = list(current.cubes)
        merged: List[Cube] = []
        used = [False] * len(cubes)
        for i in range(len(cubes)):
            if used[i]:
                continue
            for j in range(i + 1, len(cubes)):
                if used[j]:
                    continue
                m = cubes[i].merge_distance_one(cubes[j])
                if m is not None:
                    merged.append(m)
                    used[i] = used[j] = True
                    changed = True
                    break
            if not used[i]:
                merged.append(cubes[i])
                used[i] = True
        current = Cover(current.num_inputs, current.num_outputs, merged)
        current = current.remove_single_cube_containment()
    return MinimizationResult(current, initial, len(current), 1, "quick")


# ------------------------------------------------------------------ phases


def _inputs_by_output(cubes: Sequence[Cube], num_outputs: int) -> List[List[int]]:
    """Per output, the input parts of the cubes feeding it, in cover order."""
    return [[c.inputs for c in cubes if c.outputs >> o & 1] for o in range(num_outputs)]


def _budget(budget_limit: Optional[int]) -> Optional[TautologyBudget]:
    """A fresh node budget: every containment check gets its own."""
    return TautologyBudget(budget_limit) if budget_limit is not None else None


def _small_first(cube: Cube) -> Tuple[int, int]:
    """Phase order: fewest minterms first, most literals first among equals."""
    return cube.minterm_count(), -cube.literal_count()


def _bitsets_decide(cover: Cover, budget_limit: Optional[int]) -> bool:
    """Whether minterm bitsets decide the phase's containment checks.

    They do when the recursion could not run out of budget (at most
    ``2 ** (num_inputs + 1) - 1`` nodes) and no cube is empty: the
    recursion answers "contained" for an empty target only when a single
    cube holds it field by field, which a minterm set cannot tell.
    """
    n = cover.num_inputs
    return (
        n <= BITSET_MAX_INPUTS
        and (budget_limit is None or budget_limit >= (1 << (n + 1)) - 1)
        and all(cube.is_input_valid() for cube in cover)
    )


def _expand(cover: Cover, dc: Cover, budget_limit: Optional[int]) -> Cover:
    """EXPAND phase: enlarge each cube as far as the ON ∪ DC set allows."""
    if _bitsets_decide(cover, budget_limit):
        return _expand_bitsets(cover, dc)
    return _expand_recursive(cover, dc, budget_limit)


def _expand_bitsets(cover: Cover, dc: Cover) -> Cover:
    """EXPAND with each output's minterms outside ON ∪ DC as one bitset."""
    num_inputs, num_outputs = cover.num_inputs, cover.num_outputs
    universe = (1 << (1 << num_inputs)) - 1
    outside = [
        universe ^ inside
        for inside in output_masks(cover.merged_with(dc), num_inputs, num_outputs)
    ]
    expanded: List[Cube] = []
    # Expanding small cubes first gives them the chance to swallow large ones.
    for cube in sorted(cover.cubes, key=_small_first):
        inputs, outputs = cube.inputs, cube.outputs
        mask = minterm_mask(inputs, num_inputs)
        blocked = 0
        for output in range(num_outputs):
            if outputs >> output & 1:
                blocked |= outside[output]
        for var in cube.specified_vars():
            raised = raised_mask(mask, inputs, var)
            if not raised & blocked:
                mask = raised
                inputs |= FULL_FIELD << 2 * var
        for output in range(num_outputs):
            if not outputs >> output & 1 and not mask & outside[output]:
                outputs |= 1 << output
        expanded.append(Cube(num_inputs, inputs, outputs))
    return Cover(num_inputs, num_outputs, expanded)


def _expand_recursive(cover: Cover, dc: Cover, budget_limit: Optional[int]) -> Cover:
    """EXPAND with every check decided by the tautology recursion."""
    num_inputs = cover.num_inputs
    # The ON ∪ DC reference does not change during the phase, so each
    # output's cube index is built once.
    reference = [
        CubeIndex(inputs, num_inputs)
        for inputs in _inputs_by_output(cover.merged_with(dc).cubes, cover.num_outputs)
    ]
    expanded: List[Cube] = []
    for cube in sorted(cover.cubes, key=_small_first):
        grown = cube
        # Try to raise every specified input literal to a don't care: valid
        # when every driven output still covers the enlarged cube.
        for var in cube.specified_vars():
            candidate = grown.raise_input(var)
            target = candidate.inputs
            if all(
                covers_inputs(
                    reference[o].meeting(target), target, num_inputs, _budget(budget_limit)
                )
                for o in range(cover.num_outputs)
                if candidate.outputs >> o & 1
            ):
                grown = candidate
        # Try to add further outputs to share the product term.
        for output in range(cover.num_outputs):
            if grown.outputs >> output & 1:
                continue
            target = grown.inputs
            if covers_inputs(
                reference[output].meeting(target), target, num_inputs, _budget(budget_limit)
            ):
                grown = grown.with_outputs(grown.outputs | (1 << output))
        expanded.append(grown)
    return Cover(cover.num_inputs, cover.num_outputs, expanded)


def _irredundant(cover: Cover, dc: Cover, budget_limit: Optional[int]) -> Cover:
    """IRREDUNDANT phase: greedily drop cubes covered by the rest of the cover.

    A candidate is checked, output by output, against the cubes still kept
    (in cover order) together with the don't-care cubes of that output.
    Cubes with many literals (low coverage) are tried first.
    """
    if _bitsets_decide(cover, budget_limit):
        return _irredundant_bitsets(cover, dc)
    return _irredundant_recursive(cover, dc, budget_limit)


def _output_members(
    cubes: Sequence[Cube], num_outputs: int
) -> Tuple[List[List[int]], List[List[Tuple[int, int]]]]:
    """Per output, the indices of the cubes feeding it; per cube, its
    ``(output, bit in that output's list)`` pairs."""
    feeding: List[List[int]] = []
    members: List[List[Tuple[int, int]]] = [[] for _ in cubes]
    for output in range(num_outputs):
        feeding.append([i for i, c in enumerate(cubes) if c.outputs >> output & 1])
        for slot, i in enumerate(feeding[-1]):
            members[i].append((output, 1 << slot))
    return feeding, members


def _irredundant_bitsets(cover: Cover, dc: Cover) -> Cover:
    """IRREDUNDANT with each cube's minterms, and each output's don't-care
    minterms, as one bitset."""
    cubes = list(cover.cubes)
    num_inputs = cover.num_inputs
    masks = [minterm_mask(c.inputs, num_inputs) for c in cubes]
    dc_masks = output_masks(dc, num_inputs, cover.num_outputs)
    feeding, members = _output_members(cubes, cover.num_outputs)
    indexes = [CubeIndex([cubes[i].inputs for i in f], num_inputs) for f in feeding]
    alive = [index.all for index in indexes]
    removed = [False] * len(cubes)
    for idx in sorted(range(len(cubes)), key=lambda i: _small_first(cubes[i])):
        target = cubes[idx].inputs
        for output, bit in members[idx]:
            rest = masks[idx] & ~dc_masks[output]
            others = indexes[output].meeting_bits(target, alive[output] & ~bit)
            slots = feeding[output]
            while rest and others:
                low = others & -others
                rest &= ~masks[slots[low.bit_length() - 1]]
                others ^= low
            if rest:
                break
        else:
            removed[idx] = True
            for output, bit in members[idx]:
                alive[output] &= ~bit
    return Cover(num_inputs, cover.num_outputs, [c for i, c in enumerate(cubes) if not removed[i]])


def _irredundant_recursive(cover: Cover, dc: Cover, budget_limit: Optional[int]) -> Cover:
    """IRREDUNDANT with every check decided by the tautology recursion.

    Each output indexes its feeding cubes followed by its don't-care cubes
    once; an ``alive`` mask per output drops the removed cubes, and the
    candidate's own bit is cleared for its check.
    """
    cubes = list(cover.cubes)
    num_inputs = cover.num_inputs
    dc_inputs = _inputs_by_output(dc.cubes, cover.num_outputs)
    feeding, members = _output_members(cubes, cover.num_outputs)
    indexes = [
        CubeIndex([cubes[i].inputs for i in f] + dc_inputs[output], num_inputs)
        for output, f in enumerate(feeding)
    ]
    alive = [index.all for index in indexes]
    removed = [False] * len(cubes)
    for idx in sorted(range(len(cubes)), key=lambda i: _small_first(cubes[i])):
        target = cubes[idx].inputs
        if all(
            covers_inputs(
                indexes[output].meeting(target, alive[output] & ~bit),
                target,
                num_inputs,
                _budget(budget_limit),
            )
            for output, bit in members[idx]
        ):
            removed[idx] = True
            for output, bit in members[idx]:
                alive[output] &= ~bit
    return Cover(cover.num_inputs, cover.num_outputs, [c for i, c in enumerate(cubes) if not removed[i]])


def verify_minimization(
    original_on: Cover, dc: Optional[Cover], minimized: Cover, samples: Sequence[Sequence[int]]
) -> bool:
    """Spot-check functional equivalence of original and minimised covers.

    For every sample input point the minimised cover must agree with the
    original on all outputs except where the don't-care set covers the point.
    """
    dc_cover = dc if dc is not None else Cover(original_on.num_inputs, original_on.num_outputs)
    for point in samples:
        before = original_on.evaluate(point)
        after = minimized.evaluate(point)
        care_mask = dc_cover.evaluate(point)
        for o in range(original_on.num_outputs):
            if care_mask[o]:
                continue
            if before[o] != after[o]:
                return False
    return True
