"""Property tests pinning the word-level logic kernels to per-variable references.

The positional-cube predicates of :mod:`repro.logic.cube`, the tautology
check and cube index of :mod:`repro.logic.cover`, the EXPAND/IRREDUNDANT
phases of :mod:`repro.logic.espresso` and the incremental common-cube
extraction of :mod:`repro.logic.factor` are all rewrites of simple loops.
The loops live on here, written out one variable (or one recount, or one
full reference list) at a time, and every property asserts that the
production kernel returns exactly what the loop returns — including the
node budget a tautology check spends, which decides when the heuristic
minimiser gives up on a check.
"""

from __future__ import annotations

from itertools import combinations
from typing import Callable, Dict, FrozenSet, List, Optional, Tuple
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from repro.logic import Cover, Cube, espresso, minimize
from repro.logic.cover import (
    BudgetExceeded,
    CubeIndex,
    TautologyBudget,
    _split_bit,
    covers_inputs,
)
from repro.logic.cube import input_masks
from repro.logic.factor import BooleanNetwork, NetworkNode, extract_common_cubes

# --------------------------------------------------------------------------
# Per-variable references
# --------------------------------------------------------------------------


def fields(cube: Cube) -> List[int]:
    return [(cube.inputs >> (2 * v)) & 0b11 for v in range(cube.num_inputs)]


def ref_literal_count(cube: Cube) -> int:
    return sum(1 for f in fields(cube) if f in (0b01, 0b10))


def ref_specified_vars(cube: Cube) -> List[int]:
    return [v for v, f in enumerate(fields(cube)) if f in (0b01, 0b10)]


def ref_is_input_valid(cube: Cube) -> bool:
    return all(f != 0b00 for f in fields(cube))


def ref_inputs_intersect(a: Cube, b: Cube) -> bool:
    return all(fa & fb for fa, fb in zip(fields(a), fields(b)))


def ref_input_distance(a: Cube, b: Cube) -> int:
    return sum(1 for fa, fb in zip(fields(a), fields(b)) if not fa & fb)


def ref_input_contains(a: Cube, b: Cube) -> bool:
    return all(fb & ~fa & 0b11 == 0 for fa, fb in zip(fields(a), fields(b)))


def ref_minterm_count(cube: Cube) -> int:
    count = 1
    for f in fields(cube):
        if f == 0b11:
            count <<= 1
        elif f == 0b00:
            return 0
    return count


def ref_merge_distance_one(a: Cube, b: Cube) -> Optional[Cube]:
    if a.outputs != b.outputs:
        return None
    differing = [v for v, (fa, fb) in enumerate(zip(fields(a), fields(b))) if fa != fb]
    if len(differing) != 1:
        return None
    var = differing[0]
    if fields(a)[var] | fields(b)[var] != 0b11:
        return None
    return a.with_input(var, 0b11)


def ref_input_cofactor(a: Cube, against: Cube) -> Optional[Cube]:
    if not ref_inputs_intersect(a, against):
        return None
    raised = 0
    for v, (fa, ft) in enumerate(zip(fields(a), fields(against))):
        raised |= ((fa | ~ft) & 0b11) << (2 * v)
    return Cube(a.num_inputs, raised, a.outputs)


def ref_cover_contains(cubes: List[Cube], target: Cube,
                       budget: Optional[TautologyBudget]) -> bool:
    """The tautology check as it was written one variable at a time."""
    for c in cubes:
        if ref_input_contains(c, target):
            return True
    cofactored = [cf for cf in (ref_input_cofactor(c, target) for c in cubes)
                  if cf is not None]
    free_vars = [v for v, f in enumerate(fields(target)) if f == 0b11]
    return ref_is_tautology(cofactored, free_vars, budget)


def ref_is_tautology(cubes: List[Cube], free_vars: List[int],
                     budget: Optional[TautologyBudget]) -> bool:
    if budget is not None:
        budget.spend()
    if not cubes:
        return False
    for c in cubes:
        if all(c.input_literal(v) == 0b11 for v in free_vars):
            return True
    if not free_vars:
        return False
    best_var = None
    best_score = -1
    for v in free_vars:
        zeros = sum(1 for c in cubes if c.input_literal(v) == 0b01)
        ones = sum(1 for c in cubes if c.input_literal(v) == 0b10)
        score = min(zeros, ones) * 1000 + zeros + ones
        if zeros and ones and score > best_score:
            best_score = score
            best_var = v
    if best_var is None:
        return False
    remaining = [v for v in free_vars if v != best_var]
    for polarity in (0b01, 0b10):
        branch = [c.with_input(best_var, 0b11) for c in cubes
                  if c.input_literal(best_var) & polarity]
        if not ref_is_tautology(branch, remaining, budget):
            return False
    return True


def ref_admits_target_literals(cube: int, target: int, width: int) -> bool:
    """Does the cube admit each of the target's specified (01/10) fields?"""
    for v in range(width):
        t = (target >> (2 * v)) & 0b11
        if t in (0b01, 0b10) and not (cube >> (2 * v)) & t:
            return False
    return True


def ref_inputs_meet(a: int, b: int, width: int) -> bool:
    return all((a >> (2 * v)) & (b >> (2 * v)) & 0b11 for v in range(width))


def ref_split_bit(cubes: List[int], free: int, width: int) -> int:
    """The split-variable scan over every free variable, unate ones too."""
    best_bit = 0
    best_score = -1
    for v in range(width):
        bit = 1 << (2 * v)
        if not free & bit:
            continue
        fields = [(x >> (2 * v)) & 0b11 for x in cubes]
        zeros = fields.count(0b01)
        ones = fields.count(0b10)
        score = min(zeros, ones) * 1000 + zeros + ones
        if zeros and ones and score > best_score:
            best_score = score
            best_bit = bit
    return best_bit


# The EXPAND/IRREDUNDANT phases as they were before the cube index: every
# containment check hands the full reference list to the tautology check.
# ``new_budget`` makes the budget of one check.

BudgetFactory = Callable[[Optional[int]], Optional[TautologyBudget]]


def ref_expand(cover: Cover, dc: Cover, limit: Optional[int],
               new_budget: BudgetFactory) -> Cover:
    n = cover.num_inputs
    merged = cover.merged_with(dc).cubes
    reference = [[c.inputs for c in merged if c.outputs >> o & 1]
                 for o in range(cover.num_outputs)]
    expanded = []
    order = sorted(cover.cubes, key=lambda c: (c.minterm_count(), -c.literal_count()))
    for cube in order:
        grown = cube
        for var in cube.specified_vars():
            candidate = grown.raise_input(var)
            if all(covers_inputs(reference[o], candidate.inputs, n, new_budget(limit))
                   for o in range(cover.num_outputs) if candidate.outputs >> o & 1):
                grown = candidate
        for output in range(cover.num_outputs):
            if grown.outputs >> output & 1:
                continue
            if covers_inputs(reference[output], grown.inputs, n, new_budget(limit)):
                grown = grown.with_outputs(grown.outputs | (1 << output))
        expanded.append(grown)
    return Cover(n, cover.num_outputs, expanded)


def ref_irredundant(cover: Cover, dc: Cover, limit: Optional[int],
                    new_budget: BudgetFactory) -> Cover:
    cubes = list(cover.cubes)
    n = cover.num_inputs
    order = sorted(range(len(cubes)),
                   key=lambda i: (cubes[i].minterm_count(), -cubes[i].literal_count()))
    removed = [False] * len(cubes)
    for idx in order:
        redundant = True
        for output in range(cover.num_outputs):
            if cubes[idx].outputs >> output & 1:
                relevant = [c.inputs for i, c in enumerate(cubes)
                            if c.outputs >> output & 1 and i != idx and not removed[i]]
                relevant += [c.inputs for c in dc.cubes if c.outputs >> output & 1]
                if not covers_inputs(relevant, cubes[idx].inputs, n, new_budget(limit)):
                    redundant = False
                    break
        if redundant:
            removed[idx] = True
    return Cover(n, cover.num_outputs, [c for i, c in enumerate(cubes) if not removed[i]])


def ref_minimize(on_set: Cover, dc: Cover, limit: Optional[int],
                 new_budget: BudgetFactory) -> Tuple[Cover, int]:
    current = on_set.remove_single_cube_containment()
    iterations = 0
    for _ in range(4):
        iterations += 1
        before = len(current)
        current = ref_expand(current, dc, limit, new_budget)
        current = current.remove_single_cube_containment()
        current = ref_irredundant(current, dc, limit, new_budget)
        if len(current) >= before:
            break
    return current, iterations


def recording_budgets(budgets: List[TautologyBudget]) -> BudgetFactory:
    """A budget factory that keeps every budget it hands out."""
    def new_budget(limit: Optional[int]) -> Optional[TautologyBudget]:
        if limit is None:
            return None
        budget = TautologyBudget(limit)
        budgets.append(budget)
        return budget
    return new_budget


Literal = Tuple[str, int]


def ref_extract_common_cubes(network: BooleanNetwork, min_occurrences: int = 2,
                             max_divisors: int = 200) -> BooleanNetwork:
    """Common-cube extraction recounting every literal pair per divisor."""
    result = network.copy()
    divisor_index = 0
    while divisor_index < max_divisors:
        best_pair = None
        best_count = 0
        pair_counts: Dict[Tuple[Literal, Literal], int] = {}
        for node in result.nodes:
            for term in node.terms:
                if len(term) < 2:
                    continue
                for pair in combinations(sorted(term), 2):
                    pair_counts[pair] = pair_counts.get(pair, 0) + 1
        for pair, count in sorted(pair_counts.items()):
            if count > best_count:
                best_count = count
                best_pair = pair
        if best_pair is None or best_count < min_occurrences or best_count - 2 <= 0:
            break
        divisor_name = f"_d{divisor_index}"
        divisor_index += 1
        divisor_literals = frozenset(best_pair)
        new_literal = (divisor_name, 1)
        for node in result.nodes:
            node.terms = [
                frozenset((term - divisor_literals) | {new_literal})
                if divisor_literals <= term else term
                for term in node.terms
            ]
        result.nodes.append(NetworkNode(divisor_name, [divisor_literals]))
    return result


# --------------------------------------------------------------------------
# Strategies
# --------------------------------------------------------------------------

#: Widths from 0 up to well past 32 variables, where the masks need more
#: than one 64-bit machine word.
WIDTHS = st.one_of(st.integers(0, 6), st.integers(30, 40), st.integers(60, 70))


def packed(values: List[int]) -> int:
    word = 0
    for v, f in enumerate(values):
        word |= f << (2 * v)
    return word


def without_empty_fields(word: int, width: int) -> int:
    """Turn every empty (``00``) field of ``word`` into a don't care."""
    _, low = input_masks(width)
    return word | (~(word | word >> 1) & low) * 0b11


@st.composite
def cube_pairs(draw, allow_empty: bool = True):
    """Two cubes of one width; fields may be empty (``00``) when allowed."""
    width = draw(WIDTHS)
    full, low = input_masks(width)
    a = draw(st.integers(0, full))
    # Keep most of the first cube's fields in the second, so that near
    # misses (one or two differing fields) are common.
    keep = (draw(st.integers(0, low)) | draw(st.integers(0, low)) | draw(st.integers(0, low))) & low
    b = (a & keep * 0b11) | (draw(st.integers(0, full)) & ~(keep * 0b11) & full)
    if not allow_empty:
        a, b = without_empty_fields(a, width), without_empty_fields(b, width)
    outputs = draw(st.integers(1, 3))
    other_outputs = draw(st.one_of(st.just(outputs), st.integers(1, 3)))
    return Cube(width, a, outputs), Cube(width, b, other_outputs)


@st.composite
def containment_problems(draw):
    """A small cover (input parts only) and a target cube of one width."""
    width = draw(st.integers(0, 8))
    field = st.integers(1, 3)
    cubes = [
        Cube(width, packed(draw(st.lists(field, min_size=width, max_size=width))), 1)
        for _ in range(draw(st.integers(0, 16)))
    ]
    target = Cube(width, packed(draw(st.lists(field, min_size=width, max_size=width))), 1)
    return cubes, target


# --------------------------------------------------------------------------
# Cube predicates
# --------------------------------------------------------------------------


class TestCubePredicates:
    @settings(max_examples=200, deadline=None)
    @given(cube_pairs())
    def test_single_cube_predicates(self, pair):
        cube, _ = pair
        assert cube.literal_count() == ref_literal_count(cube)
        assert cube.specified_vars() == ref_specified_vars(cube)
        assert cube.is_input_valid() == ref_is_input_valid(cube)
        assert cube.minterm_count() == ref_minterm_count(cube)

    @settings(max_examples=200, deadline=None)
    @given(cube_pairs())
    def test_two_cube_predicates(self, pair):
        a, b = pair
        assert a.inputs_intersect(b) == ref_inputs_intersect(a, b)
        assert a.input_distance(b) == ref_input_distance(a, b)
        assert a.input_contains(b) == ref_input_contains(a, b)
        assert a.merge_distance_one(b) == ref_merge_distance_one(a, b)
        assert a.input_cofactor(b) == ref_input_cofactor(a, b)

    @settings(max_examples=200, deadline=None)
    @given(cube_pairs(allow_empty=False), st.data())
    def test_distance_one_merges_are_found(self, pair, data):
        """Force exactly one differing field so the merge path is exercised."""
        a, _ = pair
        if a.num_inputs == 0:
            return
        var = data.draw(st.integers(0, a.num_inputs - 1))
        other = data.draw(st.sampled_from([0b01, 0b10, 0b11]))
        b = a.with_input(var, other)
        assert a.merge_distance_one(b) == ref_merge_distance_one(a, b)

    @pytest.mark.parametrize("width", [0, 1, 15, 16, 31, 32, 33, 64, 65])
    def test_masks_at_word_boundaries(self, width):
        full, low = input_masks(width)
        assert full == (1 << (2 * width)) - 1
        assert low == sum(1 << (2 * v) for v in range(width))
        universal = Cube.universal(width, 1)
        assert universal.minterm_count() == 1 << width
        assert universal.literal_count() == 0
        assert universal.is_input_valid()
        if width:
            empty_last = universal.with_input(width - 1, 0b00)
            assert not empty_last.is_input_valid()
            assert empty_last.minterm_count() == 0
            assert universal.input_distance(empty_last) == 1


# --------------------------------------------------------------------------
# Tautology check: same answers, same budget spend
# --------------------------------------------------------------------------


def brute_force_covers(cubes: List[Cube], target: Cube) -> bool:
    width = target.num_inputs
    for point in range(1 << width):
        minterm = packed([0b10 if point >> v & 1 else 0b01 for v in range(width)])
        if target.inputs & minterm != minterm:
            continue
        if not any(c.inputs & minterm == minterm for c in cubes):
            return False
    return True


class TestTautology:
    @settings(max_examples=300, deadline=None)
    @given(containment_problems())
    def test_matches_reference_and_brute_force(self, problem):
        cubes, target = problem
        inputs = [c.inputs for c in cubes]
        width = target.num_inputs
        spent, ref_spent = TautologyBudget(10**9), TautologyBudget(10**9)
        answer = covers_inputs(inputs, target.inputs, width, spent)
        assert answer == ref_cover_contains(cubes, target, ref_spent)
        assert answer == brute_force_covers(cubes, target)
        assert spent.used == ref_spent.used
        assert Cover(width, 1, cubes).covers_cube(target, 0) == answer

    @settings(max_examples=200, deadline=None)
    @given(containment_problems(), st.integers(0, 6))
    def test_budget_exhaustion_matches_reference(self, problem, limit):
        cubes, target = problem
        try:
            expected: Optional[bool] = ref_cover_contains(
                cubes, target, TautologyBudget(limit))
        except BudgetExceeded:
            expected = False
        budget = TautologyBudget(limit)
        assert covers_inputs([c.inputs for c in cubes], target.inputs,
                             target.num_inputs, budget) == expected


# --------------------------------------------------------------------------
# Cube index, binate split choice and the indexed espresso phases
# --------------------------------------------------------------------------


@st.composite
def index_problems(draw):
    """Cubes around a target (near misses, supersets, random words), an
    ``alive`` mask and the target; fields of both may be empty."""
    width = draw(WIDTHS)
    full, low = input_masks(width)
    target = draw(st.integers(0, full))
    cubes = []
    for _ in range(draw(st.one_of(st.integers(0, 4), st.integers(25, 70)))):
        kind = draw(st.integers(0, 2))
        noise = draw(st.integers(0, full))
        if kind == 0:
            cubes.append(noise)
        elif kind == 1:
            cubes.append(target | noise)
        else:
            keep = (draw(st.integers(0, low)) | draw(st.integers(0, low))
                    | draw(st.integers(0, low))) & low
            cubes.append((target & keep * 0b11) | (noise & ~(keep * 0b11) & full))
    alive = draw(st.integers(0, (1 << len(cubes)) - 1))
    return width, cubes, target, alive


@st.composite
def split_problems(draw):
    """Cubes without empty fields, biased to don't cares, and a free mask."""
    width = draw(st.one_of(st.integers(0, 8), st.integers(30, 40)))
    _, low = input_masks(width)
    field = st.sampled_from([0b01, 0b10, 0b11, 0b11, 0b11])
    cubes = [packed(draw(st.lists(field, min_size=width, max_size=width)))
             for _ in range(draw(st.integers(0, 16)))]
    return width, cubes, draw(st.integers(0, low)) & low


@st.composite
def minimisation_problems(draw):
    """A random multi-output ON cover and DC cover of one width."""
    width = draw(st.integers(0, 7))
    outputs = draw(st.integers(1, 3))
    field = st.sampled_from([0b01, 0b10, 0b11])

    def cover(max_cubes: int) -> Cover:
        return Cover(width, outputs, [
            Cube(width, packed(draw(st.lists(field, min_size=width, max_size=width))),
                 draw(st.integers(1, (1 << outputs) - 1)))
            for _ in range(draw(st.integers(0, max_cubes)))
        ])

    return cover(14), cover(5)


class TestCubeIndex:
    @settings(max_examples=300, deadline=None)
    @given(index_problems())
    def test_meeting_keeps_every_meeting_cube_in_order(self, problem):
        width, cubes, target, alive = problem
        index = CubeIndex(cubes, width)
        got = index.meeting(target, alive)
        # Exactly the alive cubes admitting each specified target literal.
        assert got == [x for i, x in enumerate(cubes)
                       if alive >> i & 1 and ref_admits_target_literals(x, target, width)]
        # So after the caller's own intersect test, exactly the alive cubes
        # that meet the target, in list order.
        assert [x for x in got if ref_inputs_meet(x, target, width)] == [
            x for i, x in enumerate(cubes)
            if alive >> i & 1 and ref_inputs_meet(x, target, width)]
        assert index.meeting(target) == index.meeting(target, index.all)

    def test_empty_list_and_no_literals(self):
        assert CubeIndex([], 5).meeting(0b1001_1110) == []
        cubes = [0b0110, 0b1001, 0b0000]
        # The universal target constrains nothing; an empty alive mask drops all.
        assert CubeIndex(cubes, 2).meeting(0b1111) == cubes
        assert CubeIndex(cubes, 2).meeting(0b0110, 0) == []
        assert CubeIndex(cubes, 0).meeting(0) == cubes


class TestSplitVariable:
    @settings(max_examples=300, deadline=None)
    @given(split_problems())
    def test_binate_scan_picks_the_all_free_variables_choice(self, problem):
        width, cubes, free = problem
        assert _split_bit(cubes, free) == ref_split_bit(cubes, free, width)


class TestIndexedEspresso:
    @settings(max_examples=150, deadline=None)
    @given(minimisation_problems(),
           st.one_of(st.integers(1, 5), st.just(20_000), st.none()))
    def test_matches_full_list_phases(self, problem, limit):
        on_set, dc = problem
        ref_spent: List[TautologyBudget] = []
        want, iterations = ref_minimize(on_set, dc, limit, recording_budgets(ref_spent))
        # The default route (minterm bitsets wherever they decide).
        result = minimize(on_set, dc, tautology_budget=limit)
        assert result.cover.to_dict() == want.to_dict()
        assert result.iterations == iterations
        # The indexed recursive phases, forced at every limit.
        spent: List[TautologyBudget] = []
        with mock.patch.object(espresso, "_budget", recording_budgets(spent)), \
                mock.patch.object(espresso, "_bitsets_decide", return_value=False):
            result = minimize(on_set, dc, tautology_budget=limit)
        assert result.cover.to_dict() == want.to_dict()
        assert result.iterations == iterations
        assert [b.used for b in spent] == [b.used for b in ref_spent]

    def test_tiny_budget_exhausts_and_still_matches(self):
        # x0 x1 + x0' x1 + x1' (ON) cannot be grown without splitting.
        on_set = Cover(3, 2, [Cube.from_strings(i, o) for i, o in (
            ("11-", "10"), ("01-", "11"), ("-0-", "01"), ("--1", "10"), ("000", "01"))])
        dc = Cover(3, 2, [Cube.from_strings("101", "11")])
        spent: List[TautologyBudget] = []
        with mock.patch.object(espresso, "_budget", recording_budgets(spent)):
            result = minimize(on_set, dc, tautology_budget=1)
        ref_spent: List[TautologyBudget] = []
        want, _ = ref_minimize(on_set, dc, 1, recording_budgets(ref_spent))
        assert any(b.used > b.limit for b in spent)  # some check gave up
        assert result.cover.to_dict() == want.to_dict()
        assert [b.used for b in spent] == [b.used for b in ref_spent]

    @settings(max_examples=150, deadline=None)
    @given(minimisation_problems())
    def test_functional_containment_matches_per_cube_checks(self, problem):
        on_set, dc = problem
        for left, right in ((on_set, dc), (dc, on_set), (on_set.merged_with(dc), on_set)):
            expected = all(left.covers_cube(c, o) for c in right
                           for o in range(right.num_outputs) if c.outputs >> o & 1)
            assert left.functionally_contains(right) == expected


# --------------------------------------------------------------------------
# Incremental common-cube extraction
# --------------------------------------------------------------------------

#: A small alphabet makes shared pairs (and ties between them) common; the
#: ``_d`` names collide with divisor names on purpose.
NAMES = ["a", "b", "c", "d", "e", "_d0", "_d1"]
LITERALS = [(name, polarity) for name in NAMES for polarity in (0, 1)]


def mirrored(term: FrozenSet[Literal]) -> FrozenSet[Literal]:
    """Swap a<->b and c<->d: a mirrored copy ties every pair with its image."""
    swap = {"a": "b", "b": "a", "c": "d", "d": "c"}
    return frozenset((swap.get(name, name), pol) for name, pol in term)


@st.composite
def networks(draw):
    terms = st.frozensets(st.sampled_from(LITERALS), min_size=0, max_size=6)
    nodes = []
    for index in range(draw(st.integers(1, 4))):
        node_terms = draw(st.lists(terms, min_size=0, max_size=8))
        if draw(st.booleans()):
            node_terms = node_terms + [mirrored(t) for t in node_terms]
        nodes.append(NetworkNode(f"f{index}", node_terms))
    return BooleanNetwork(nodes)


def snapshot(network: BooleanNetwork) -> List[Tuple[str, List[List[Literal]]]]:
    return [(node.name, [sorted(term) for term in node.terms]) for node in network.nodes]


class TestCommonCubeExtraction:
    @settings(max_examples=300, deadline=None)
    @given(networks(), st.integers(0, 4), st.integers(0, 12))
    def test_matches_full_recount(self, network, min_occurrences, max_divisors):
        before = snapshot(network)
        got = extract_common_cubes(network, min_occurrences, max_divisors)
        want = ref_extract_common_cubes(network, min_occurrences, max_divisors)
        assert snapshot(got) == snapshot(want)
        assert got.literal_count() == want.literal_count()
        assert snapshot(network) == before  # the input network is not mutated

    def test_tie_breaks_on_the_smallest_pair(self):
        # (a,b) and (c,d) both occur three times; (a,b) sorts first.
        ab = frozenset({("a", 1), ("b", 1)})
        cd = frozenset({("c", 1), ("d", 1)})
        network = BooleanNetwork([NetworkNode("f", [ab | {("x", 0)}, ab | {("y", 0)},
                                                    ab | {("z", 0)}, cd | {("x", 1)},
                                                    cd | {("y", 1)}, cd | {("z", 1)}])])
        result = extract_common_cubes(network, max_divisors=1)
        assert result.nodes[-1].terms == [ab]
        assert snapshot(result) == snapshot(ref_extract_common_cubes(network, max_divisors=1))
