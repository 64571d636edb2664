"""The minterm-bitset containment kernel and the espresso phases built on it.

Up to 13 inputs, EXPAND and IRREDUNDANT decide containment on per-output
minterm bitsets instead of the tautology recursion.  The recursion
(:func:`~repro.logic.cover.covers_inputs`, unbudgeted) is the reference:
the kernel must give its answers, and the bitset phases must give the
covers of the recursive phases, on random covers and on every Table 3 and
fleet cell.
"""

from __future__ import annotations

import random
from typing import List, Optional
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from repro.logic import Cover, Cube, espresso, minimize
from repro.logic.cover import (
    BITSET_MAX_INPUTS,
    covers_inputs,
    literal_masks,
    minterm_mask,
    output_masks,
    raised_mask,
)
from repro.logic.cube import FULL_FIELD

# --------------------------------------------------------------------------
# The kernel against the recursion
# --------------------------------------------------------------------------


def packed(fields: List[int]) -> int:
    value = 0
    for var, f in enumerate(fields):
        value |= f << (2 * var)
    return value


def brute_mask(inputs: int, width: int) -> int:
    """The cube's minterms, one minterm at a time."""
    mask = 0
    for minterm in range(1 << width):
        if all((inputs >> (2 * v)) & (1 << (minterm >> v & 1)) for v in range(width)):
            mask |= 1 << minterm
    return mask


@st.composite
def containment_problems(draw):
    """Reference cubes (empty fields allowed) and a non-empty target."""
    width = draw(st.integers(0, BITSET_MAX_INPUTS))
    any_field = st.sampled_from([0b00, 0b01, 0b10, 0b11])
    # Mostly don't cares, so the reference cubes cover something.
    reference_field = st.one_of(st.just(0b11), any_field)
    target_field = st.sampled_from([0b01, 0b10, 0b11])
    cubes = [packed(draw(st.lists(reference_field, min_size=width, max_size=width)))
             for _ in range(draw(st.integers(0, 10)))]
    target = packed(draw(st.lists(target_field, min_size=width, max_size=width)))
    return width, cubes, target


class TestKernel:
    @settings(max_examples=300, deadline=None)
    @given(containment_problems())
    def test_bitset_containment_matches_the_recursion(self, problem):
        width, cubes, target = problem
        union = 0
        for x in cubes:
            union |= minterm_mask(x, width)
        contained = not minterm_mask(target, width) & ~union
        assert contained == covers_inputs(cubes, target, width)

    @settings(max_examples=200, deadline=None)
    @given(st.integers(0, 8).flatmap(lambda w: st.tuples(
        st.just(w), st.lists(st.sampled_from([0b00, 0b01, 0b10, 0b11]),
                             min_size=w, max_size=w))))
    def test_minterm_mask_lists_the_cube_minterms(self, problem):
        width, fields = problem
        inputs = packed(fields)
        assert minterm_mask(inputs, width) == brute_mask(inputs, width)
        if 0b00 in fields:
            assert minterm_mask(inputs, width) == 0

    def test_literal_masks_hold_each_value(self):
        width = 4
        masks = literal_masks(width)
        for var in range(width):
            for value in (0, 1):
                want = sum(1 << m for m in range(1 << width) if m >> var & 1 == value)
                assert masks[2 * var + value] == want

    @settings(max_examples=200, deadline=None)
    @given(st.integers(1, BITSET_MAX_INPUTS).flatmap(lambda w: st.tuples(
        st.just(w), st.lists(st.sampled_from([0b01, 0b10, 0b11]),
                             min_size=w, max_size=w), st.integers(0, w - 1))))
    def test_raised_mask_is_the_raised_cube(self, problem):
        width, fields, var = problem
        inputs = packed(fields)
        if fields[var] == 0b11:
            return  # only specified literals are raised
        raised = inputs | FULL_FIELD << 2 * var
        assert raised_mask(minterm_mask(inputs, width), inputs, var) == \
            minterm_mask(raised, width)

    @settings(max_examples=100, deadline=None)
    @given(containment_problems(), st.integers(1, 3), st.data())
    def test_output_masks_or_the_cubes_per_output(self, problem, outputs, data):
        width, cubes, _ = problem
        drives = [data.draw(st.integers(0, (1 << outputs) - 1)) for _ in cubes]
        cover = Cover(width, outputs, [Cube(width, x, o) for x, o in zip(cubes, drives)])
        want = [0] * outputs
        for x, o in zip(cubes, drives):
            for output in range(outputs):
                if o >> output & 1:
                    want[output] |= brute_mask(x, width) if width <= 8 else \
                        minterm_mask(x, width)
        assert output_masks(cover, width, outputs) == want


# --------------------------------------------------------------------------
# Which path decides, and what it returns
# --------------------------------------------------------------------------


def recursive_minimize(on_set: Cover, dc: Cover, limit: Optional[int],
                       max_iterations: int = 4) -> Cover:
    """:func:`minimize`'s loop with the recursive phases called directly."""
    current = on_set.remove_single_cube_containment()
    for _ in range(max_iterations):
        before = len(current)
        current = espresso._expand_recursive(current, dc, limit)
        current = current.remove_single_cube_containment()
        current = espresso._irredundant_recursive(current, dc, limit)
        if len(current) >= before:
            break
    return current


def route_of(on_set: Cover, dc: Cover, limit: Optional[int]) -> tuple:
    """The cover :func:`minimize` returns and which phase paths ran."""
    spies = {name: mock.patch.object(espresso, name, wraps=getattr(espresso, name))
             for name in ("_expand_bitsets", "_irredundant_bitsets",
                          "_expand_recursive", "_irredundant_recursive")}
    called = {}
    with spies["_expand_bitsets"] as eb, spies["_irredundant_bitsets"] as ib, \
            spies["_expand_recursive"] as er, spies["_irredundant_recursive"] as ir:
        cover = minimize(on_set, dc, tautology_budget=limit).cover
    called["bitsets"] = eb.called and ib.called
    called["recursion"] = er.called or ir.called
    return cover, called


def excitation_of(machine: str, structure: str, seed: int = 1):
    from repro.flow import FlowConfig, resolve_fsm, run_flow

    result = run_flow(resolve_fsm(machine), FlowConfig(structure=structure, seed=seed),
                      materialize=True)
    return result.controller.excitation


def random_cover(width: int, outputs: int, cubes: int, seed: int) -> Cover:
    rng = random.Random(seed)
    return Cover(width, outputs, [
        Cube(width, packed([rng.choice([0b01, 0b10, 0b11, 0b11]) for _ in range(width)]),
             rng.randint(1, (1 << outputs) - 1))
        for _ in range(cubes)
    ])


class TestRoute:
    def test_planet_at_13_inputs_takes_bitsets(self):
        excitation = excitation_of("planet", "DFF")
        assert excitation.on_set.num_inputs == 13
        cover, called = route_of(excitation.on_set, excitation.dc_set, 20_000)
        assert called == {"bitsets": True, "recursion": False}
        want = recursive_minimize(excitation.on_set, excitation.dc_set, 20_000)
        assert cover.to_dict() == want.to_dict()

    def test_styr_at_14_inputs_takes_the_recursion(self):
        excitation = excitation_of("styr", "DFF")
        assert excitation.on_set.num_inputs == 14
        cover, called = route_of(excitation.on_set, excitation.dc_set, 20_000)
        assert called == {"bitsets": False, "recursion": True}
        want = recursive_minimize(excitation.on_set, excitation.dc_set, 20_000)
        assert cover.to_dict() == want.to_dict()

    @pytest.mark.parametrize("limit,bitsets", [(2 ** 13 - 2, False), (2 ** 13 - 1, True)])
    def test_a_budget_that_could_run_out_keeps_the_recursion(self, limit, bitsets):
        on_set = random_cover(12, 3, 40, seed=5)
        dc = random_cover(12, 3, 6, seed=6)
        cover, called = route_of(on_set, dc, limit)
        assert called == {"bitsets": bitsets, "recursion": not bitsets}
        want = recursive_minimize(on_set, dc, limit)
        assert cover.to_dict() == want.to_dict()

    @pytest.mark.parametrize("limit,bitsets", [(2 ** 6 - 2, False), (2 ** 6 - 1, True)])
    def test_only_the_recursion_hands_out_budgets(self, limit, bitsets):
        on_set = random_cover(5, 2, 12, seed=3)
        dc = random_cover(5, 2, 3, seed=4)
        with mock.patch.object(espresso, "_budget", wraps=espresso._budget) as budget:
            minimize(on_set, dc, tautology_budget=limit)
        assert budget.called is not bitsets

    def test_a_cover_with_an_empty_cube_keeps_the_recursion(self):
        # ``0~``: the recursion refuses to raise variable 0 of the empty
        # cube (no single cube holds ``-~``); its empty bitset would not.
        cover = Cover(2, 1, [Cube(2, 0b00_01, 1), Cube(2, 0b01_10, 1)])
        dc = Cover(2, 1)
        with mock.patch.object(espresso, "_expand_bitsets") as bitsets:
            expanded = espresso._expand(cover, dc, None)
        assert not bitsets.called
        assert expanded.to_dict() == espresso._expand_recursive(cover, dc, None).to_dict()
        assert Cube(2, 0b00_01, 1) in expanded.cubes
        with mock.patch.object(espresso, "_irredundant_bitsets") as bitsets:
            kept = espresso._irredundant(cover, dc, None)
        assert not bitsets.called
        assert kept.to_dict() == espresso._irredundant_recursive(cover, dc, None).to_dict()

    @settings(max_examples=100, deadline=None)
    @given(st.integers(0, 9), st.integers(1, 3), st.integers(0, 16),
           st.integers(0, 4), st.integers(0, 2 ** 16))
    def test_random_covers_match_the_recursive_phases(self, width, outputs, cubes,
                                                      dc_cubes, seed):
        on_set = random_cover(width, outputs, cubes, seed)
        dc = random_cover(width, outputs, dc_cubes, seed + 1)
        assert minimize(on_set, dc).cover.to_dict() == \
            recursive_minimize(on_set, dc, 20_000).to_dict()


# Table 3 cells: six small seed machines under every structure, plus tbk;
# and the machines of the fleet benchmark at two other seeds.
STRUCTURES = ("DFF", "PAT", "SIG", "PST")
TABLE3_CELLS = [
    (machine, structure, 1)
    for machine in ("dk512", "dk16", "donfile", "ex4", "mark1", "modulo12")
    for structure in STRUCTURES
] + [("tbk", "PST", 1)]
FLEET_CELLS = [
    (machine, structure, seed)
    for machine in ("dk512", "ex4", "mark1", "modulo12")
    for structure in STRUCTURES
    for seed in (8, 4242)
]


@pytest.mark.parametrize("machine,structure,seed", TABLE3_CELLS + FLEET_CELLS,
                         ids=[f"{m}-{s}-{seed}" for m, s, seed in TABLE3_CELLS + FLEET_CELLS])
def test_both_phase_paths_give_the_same_cover(machine, structure, seed):
    excitation = excitation_of(machine, structure, seed)
    assert excitation.on_set.num_inputs <= BITSET_MAX_INPUTS
    cover, called = route_of(excitation.on_set, excitation.dc_set, 20_000)
    assert called == {"bitsets": True, "recursion": False}
    want = recursive_minimize(excitation.on_set, excitation.dc_set, 20_000)
    assert cover.to_dict() == want.to_dict()
