"""Covers (lists of cubes) and the cube-cover algorithms used for minimisation.

A :class:`Cover` bundles a list of :class:`~repro.logic.cube.Cube` objects
with the input/output widths of the function it describes.  The central
primitive is :meth:`Cover.covers_cube` — "is this cube's input part contained
in the union of the cover's cubes for a given output?" — implemented with the
classic recursive tautology check (Shannon expansion on the most binate
variable with unate-cover termination).  Everything else (espresso-style
expansion, irredundant covers, functional equivalence checks) builds on it.

The tautology recursion runs on the cubes' raw ``inputs`` integers, with the
width's ``FULL``/``LOW`` masks (:func:`~repro.logic.cube.input_masks`)
computed once per check: containment, cofactoring and the "don't care on
every free variable" test are single integer expressions, and the free
variables travel as one ``LOW``-aligned mask.  The split variable is
chosen among the binate free variables only: a unate one never wins the
scan, so skipping it changes neither the choice nor the recursion.

A containment check only needs the cubes that meet its target; the others
drop out of the cofactored cover anyway.  :class:`CubeIndex` is the
column-wise view of a cube list that Espresso-MV uses: per variable and
value, one integer bitmap of the cubes admitting that value.  ANDing the
bitmaps of the target's specified literals (within an ``alive`` mask of
the cubes still in play) leaves every cube that meets the target, in list
order, and usually only those.  The few extra ones (cubes missing the
target only through an empty field) fail the check's own intersect test,
so the cofactored cover that reaches the recursion is exactly the one the
full list gives, and so are the answer and the node budget spent.

Small input spaces have a second, exact representation: a set of
minterms as one integer bitset, minterm ``m`` (bit ``v`` of ``m`` is the
value of variable ``v``) at bit ``m``.  :func:`literal_masks` holds, per
positional-cube bit ``2 * var + value``, the minterms in which ``var``
equals ``value``; :func:`minterm_mask` ANDs a cube's literals out of them
(``0`` for a cube with an empty field), :func:`raised_mask` grows it by
one variable with a shift-or, and :func:`output_masks` ORs a cover's cubes
per output.  Containment of a non-empty cube is then one AND against the
complement of the union.  A bitset has ``2 ** n`` bits, so the minimiser
uses it up to :data:`BITSET_MAX_INPUTS` inputs (see
:mod:`repro.logic.espresso`).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Dict, Iterable, Iterator, List, Mapping, Optional, Sequence, Tuple

from .cube import Cube, CubeError, FULL_FIELD, ONE_FIELD, ZERO_FIELD, input_masks

__all__ = [
    "BITSET_MAX_INPUTS",
    "Cover",
    "CubeIndex",
    "TautologyBudget",
    "BudgetExceeded",
    "covers_inputs",
    "literal_masks",
    "minterm_mask",
    "output_masks",
    "raised_mask",
]

#: Widest input space whose containment checks the minimiser decides on
#: minterm bitsets: 8,192-bit integers, and at most 2**14 - 1 = 16,383
#: tautology nodes per check, within the default budget of 20,000.
BITSET_MAX_INPUTS = 13


class BudgetExceeded(RuntimeError):
    """Raised internally when a tautology check exceeds its node budget."""


@dataclass
class TautologyBudget:
    """Node budget for tautology recursions.

    The heuristic minimiser uses a budget so that a single pathological check
    cannot dominate the runtime; when the budget is exhausted the caller
    treats the answer as "not covered", which is always safe (it only makes
    the result less optimised, never incorrect).
    """

    limit: Optional[int] = None
    used: int = 0

    def spend(self, amount: int = 1) -> None:
        if self.limit is None:
            return
        self.used += amount
        if self.used > self.limit:
            raise BudgetExceeded()


class CubeIndex:
    """Column-wise view of a list of input parts: one cube bitmap per literal.

    ``admits[2 * var + value]`` has bit ``i`` set when the field of cube ``i``
    for ``var`` admits ``value`` (bit position ``2 * var + value`` is exactly
    where that value's bit sits in a positional cube).  A cube intersects a
    target only if it admits each of the target's specified literals, so
    ANDing those literals' bitmaps leaves every cube that meets the target
    and usually little else.
    """

    __slots__ = ("cubes", "all", "_low", "_admits")

    def __init__(self, cubes: Sequence[int], num_inputs: int) -> None:
        self.cubes: List[int] = list(cubes)
        self.all: int = (1 << len(self.cubes)) - 1
        full, self._low = input_masks(num_inputs)
        # Most fields are don't cares, so the bits a cube lacks are few.
        lacks = [0] * (2 * num_inputs)
        for i, x in enumerate(self.cubes):
            member = 1 << i
            missing = ~x & full
            while missing:
                bit = missing & -missing
                lacks[bit.bit_length() - 1] |= member
                missing ^= bit
        self._admits: List[int] = [self.all & ~m for m in lacks]

    def meeting(self, target: int, alive: Optional[int] = None) -> List[int]:
        """Input parts of the cubes in ``alive`` that may meet ``target``.

        The result keeps list order and holds every cube of ``alive``
        (default: all) that intersects ``target``.  A cube that misses the
        target only through an empty field, its own or the target's, may be
        returned too: callers keep their own intersect test.
        """
        mask = self.meeting_bits(target, alive)
        cubes = self.cubes
        found: List[int] = []
        while mask:
            bit = mask & -mask
            found.append(cubes[bit.bit_length() - 1])
            mask ^= bit
        return found

    def meeting_bits(self, target: int, alive: Optional[int] = None) -> int:
        """:meth:`meeting` as a bitmap: bit ``i`` stands for ``cubes[i]``."""
        mask = self.all if alive is None else alive
        # The one set bit of each of the target's ``01``/``10`` fields.
        spec = (target ^ target >> 1) & self._low
        literals = target & (spec | spec << 1)
        admits = self._admits
        while literals and mask:
            bit = literals & -literals
            mask &= admits[bit.bit_length() - 1]
            literals ^= bit
        return mask


@lru_cache(maxsize=None)
def literal_masks(num_inputs: int) -> Tuple[int, ...]:
    """Per positional-cube bit ``2 * var + value``, the minterms with
    ``var == value``, as a bitset over the ``2 ** num_inputs`` minterms."""
    universe = (1 << (1 << num_inputs)) - 1
    masks: List[int] = []
    for var in range(num_inputs):
        half = 1 << var
        # ``half`` zeros then ``half`` ones, repeated over the universe.
        ones = universe // ((1 << 2 * half) - 1) * (((1 << half) - 1) << half)
        masks += [universe ^ ones, ones]
    return tuple(masks)


def minterm_mask(inputs: int, num_inputs: int) -> int:
    """The minterms of input part ``inputs`` as a bitset; ``0`` when a field
    is empty."""
    masks = literal_masks(num_inputs)
    mask = (1 << (1 << num_inputs)) - 1
    # A value a field lacks removes its minterms: keep the other value's.
    missing = ~inputs & input_masks(num_inputs)[0]
    while missing:
        bit = missing & -missing
        mask &= masks[(bit.bit_length() - 1) ^ 1]
        missing ^= bit
    return mask


def raised_mask(mask: int, inputs: int, var: int) -> int:
    """``mask``, the minterms of input part ``inputs``, after raising the
    specified variable ``var`` to a don't care: it gains the minterms with
    the other value, one shift by the variable's weight away."""
    shift = 1 << var
    return mask | (mask << shift if inputs >> 2 * var & 1 else mask >> shift)


def output_masks(cubes: Iterable[Cube], num_inputs: int, num_outputs: int) -> List[int]:
    """Per output, the bitset of the minterms the cubes feeding it cover."""
    masks = [0] * num_outputs
    for cube in cubes:
        mask = minterm_mask(cube.inputs, num_inputs)
        outputs = cube.outputs
        while outputs:
            bit = outputs & -outputs
            masks[bit.bit_length() - 1] |= mask
            outputs ^= bit
    return masks


class Cover:
    """A multi-output cover: a list of cubes plus the function dimensions."""

    def __init__(self, num_inputs: int, num_outputs: int, cubes: Iterable[Cube] = ()) -> None:
        self.num_inputs = int(num_inputs)
        self.num_outputs = int(num_outputs)
        self._cubes: List[Cube] = []
        for cube in cubes:
            self.add(cube)

    # ---------------------------------------------------------------- basic
    def add(self, cube: Cube) -> None:
        if cube.num_inputs != self.num_inputs:
            raise CubeError(
                f"cube has {cube.num_inputs} inputs, cover expects {self.num_inputs}"
            )
        if cube.outputs >> self.num_outputs:
            raise CubeError("cube drives outputs beyond the cover's output count")
        self._cubes.append(cube)

    def extend(self, cubes: Iterable[Cube]) -> None:
        for cube in cubes:
            self.add(cube)

    @property
    def cubes(self) -> Tuple[Cube, ...]:
        return tuple(self._cubes)

    def __len__(self) -> int:
        return len(self._cubes)

    def __iter__(self) -> Iterator[Cube]:
        return iter(self._cubes)

    def copy(self) -> "Cover":
        return Cover(self.num_inputs, self.num_outputs, self._cubes)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Cover(inputs={self.num_inputs}, outputs={self.num_outputs}, cubes={len(self)})"

    # ---------------------------------------------------------- serialization
    def to_dict(self) -> Dict[str, object]:
        """JSON-safe dictionary (PLA-style cube strings); exact round-trip."""
        return {
            "inputs": self.num_inputs,
            "outputs": self.num_outputs,
            "cubes": [
                [c.input_string(), c.output_string(self.num_outputs)] for c in self._cubes
            ],
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, object]) -> "Cover":
        cover = cls(int(data["inputs"]), int(data["outputs"]))
        for input_str, output_str in data["cubes"]:  # type: ignore[union-attr]
            cover.add(Cube.from_strings(input_str, output_str))
        return cover

    # -------------------------------------------------------------- metrics
    def product_term_count(self) -> int:
        """Number of product terms (rows of the PLA)."""
        return len(self._cubes)

    def input_literal_count(self) -> int:
        """Total number of specified input literals over all cubes."""
        return sum(c.literal_count() for c in self._cubes)

    def sop_literal_count(self) -> int:
        """Two-level literal count: input literals plus output connections."""
        return sum(c.literal_count() + c.output_count() for c in self._cubes)

    # ------------------------------------------------------------ structure
    def cubes_for_output(self, output: int) -> List[Cube]:
        """Cubes that feed ``output``."""
        mask = 1 << output
        return [c for c in self._cubes if c.outputs & mask]

    def merged_with(self, other: "Cover") -> "Cover":
        if (self.num_inputs, self.num_outputs) != (other.num_inputs, other.num_outputs):
            raise CubeError("cannot merge covers with different dimensions")
        merged = self.copy()
        merged.extend(other.cubes)
        return merged

    def without_index(self, index: int) -> "Cover":
        cover = Cover(self.num_inputs, self.num_outputs)
        cover.extend(c for i, c in enumerate(self._cubes) if i != index)
        return cover

    def remove_single_cube_containment(self) -> "Cover":
        """Drop cubes wholly contained (inputs and outputs) in another cube."""
        full = input_masks(self.num_inputs)[0]
        kept: List[Cube] = []
        kept_parts: List[Tuple[int, int]] = []
        # Larger cubes first so that contained cubes are dropped in one pass.
        order = sorted(
            self._cubes, key=lambda c: (-c.minterm_count(), -c.output_count())
        )
        for cube in order:
            inputs = cube.inputs & full
            outputs = cube.outputs
            if not any(
                k_in & inputs == inputs and outputs & ~k_out == 0
                for k_in, k_out in kept_parts
            ):
                kept.append(cube)
                kept_parts.append((inputs, outputs))
        return Cover(self.num_inputs, self.num_outputs, kept)

    # ----------------------------------------------------------- evaluation
    def evaluate(self, point: Sequence[int]) -> Tuple[int, ...]:
        """Evaluate the cover at a fully specified input point.

        Returns one bit per output: 1 when some cube of that output covers
        the point, else 0.
        """
        if len(point) != self.num_inputs:
            raise CubeError("evaluation point has wrong width")
        # The point as a minterm cube: a cube covers it when it holds the
        # point's bit in every field.
        minterm = 0
        for var, bit in enumerate(point):
            minterm |= (ONE_FIELD if bit else ZERO_FIELD) << (2 * var)
        outputs = 0
        for cube in self._cubes:
            if cube.inputs & minterm == minterm:
                outputs |= cube.outputs
        return tuple((outputs >> o) & 1 for o in range(self.num_outputs))

    # ---------------------------------------------------- tautology machinery
    def covers_cube(
        self,
        cube: Cube,
        output: int,
        budget: Optional[TautologyBudget] = None,
    ) -> bool:
        """``True`` if the cover's cubes for ``output`` cover ``cube``'s inputs.

        With a ``budget``, an exhausted check conservatively returns ``False``.
        """
        mask = 1 << output
        relevant = [c.inputs for c in self._cubes if c.outputs & mask]
        return covers_inputs(relevant, cube.inputs, self.num_inputs, budget)

    def is_tautology(self, output: int) -> bool:
        """``True`` when the cover for ``output`` covers the whole input space."""
        universal = Cube.universal(self.num_inputs, 1 << output)
        return self.covers_cube(universal, output)

    def functionally_contains(self, other: "Cover") -> bool:
        """``True`` if every cube of ``other`` is covered, output by output."""
        indexes = [
            CubeIndex([c.inputs for c in self.cubes_for_output(o)], self.num_inputs)
            for o in range(self.num_outputs)
        ]
        for cube in other:
            for output, index in enumerate(indexes):
                if cube.outputs >> output & 1 and not covers_inputs(
                    index.meeting(cube.inputs), cube.inputs, self.num_inputs
                ):
                    return False
        return True

    def functionally_equal(self, other: "Cover", dc: Optional["Cover"] = None) -> bool:
        """Check mutual containment modulo an optional shared don't-care set."""
        left = self if dc is None else self.merged_with(dc)
        right = other if dc is None else other.merged_with(dc)
        return left.functionally_contains(other) and right.functionally_contains(self)


# --------------------------------------------------------------------------
# Recursive tautology check: does the union of `cubes` contain `target`?
# Cubes are raw positional-cube input parts (``Cube.inputs``).
# --------------------------------------------------------------------------


def covers_inputs(
    cubes: Sequence[int],
    target: int,
    num_inputs: int,
    budget: Optional[TautologyBudget] = None,
) -> bool:
    """``True`` if the union of the input parts ``cubes`` contains ``target``.

    With a ``budget``, an exhausted check conservatively returns ``False``.
    """
    try:
        return _cover_contains_cube(cubes, target, num_inputs, budget)
    except BudgetExceeded:
        return False


def _cover_contains_cube(
    cubes: Sequence[int], target: int, num_inputs: int, budget: Optional[TautologyBudget]
) -> bool:
    full, low = input_masks(num_inputs)
    target &= full
    inters = [x & target for x in cubes]
    # Quick win: a single cube already contains the target.
    if target in inters:
        return True
    # Cofactor the cover against the target; the containment question becomes
    # a tautology question on the cofactored cover.  A cube that misses the
    # target (some field of the intersection empty) drops out; one that meets
    # it keeps its fields on the target's free variables and is a don't care
    # on the others.
    raise_mask = ~target & full
    cofactored = [i | raise_mask for i in inters if (i | i >> 1) & low == low]
    free = target & target >> 1 & low
    return _is_tautology(cofactored, free, budget)


def _is_tautology(
    cubes: List[int], free: int, budget: Optional[TautologyBudget]
) -> bool:
    """Tautology of ``cubes`` over the variables marked in ``free``.

    ``free`` is ``LOW``-aligned: the ``0b01`` bit of every free variable's
    field.
    """
    if budget is not None:
        budget.spend()
    if not cubes:
        return False
    # Any cube that is a don't care on every free variable covers the space.
    free_mask = free * FULL_FIELD
    for x in cubes:
        if x & free_mask == free_mask:
            return True
    if not free:
        return False
    best_bit = _split_bit(cubes, free)
    if not best_bit:
        # Unate cover: it is a tautology iff it contains the universal cube,
        # which was already checked above.
        return False

    remaining = free ^ best_bit
    field_mask = best_bit * FULL_FIELD
    for polarity in (best_bit, best_bit << 1):
        branch = [x | field_mask for x in cubes if x & polarity]
        if not _is_tautology(branch, remaining, budget):
            return False
    return True


def _split_bit(cubes: List[int], free: int) -> int:
    """``LOW`` bit of the most binate free variable, ``0`` if none is binate.

    A variable's score counts the cubes holding it at ``01`` and at ``10``
    (the rarer polarity weighs most); ties go to the lowest variable index.
    A unate variable can never win, so only the free variables that some
    cube holds at ``01`` and some cube holds at ``10`` are scored.
    """
    has_zero = has_one = 0
    for x in cubes:
        has_zero |= x & ~(x >> 1)
        has_one |= x >> 1 & ~x
    best_bit = 0
    best_score = -1
    rest = has_zero & has_one & free
    while rest:
        bit = rest & -rest
        rest ^= bit
        field_mask = bit * FULL_FIELD
        fields = [x & field_mask for x in cubes]
        zeros = fields.count(bit)
        ones = fields.count(bit << 1)
        score = min(zeros, ones) * 1000 + zeros + ones
        if score > best_score:
            best_score = score
            best_bit = bit
    return best_bit
