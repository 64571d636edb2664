"""Positional-cube representation of multi-output product terms.

Two-level logic is manipulated as *covers* (lists of cubes).  A cube has

* an **input part**: one 2-bit field per input variable in the classic
  espresso positional-cube notation — bit 0 set means "the variable may be
  0", bit 1 set means "the variable may be 1"; ``11`` is a don't-care
  literal, ``00`` an empty (contradictory) literal;
* an **output part**: a bit mask of the outputs this product term feeds.

Both parts are stored in plain Python integers.  Every predicate works on
whole words: two masks per width (:func:`input_masks`) — ``FULL`` with every
field set and ``LOW`` with the ``0b01`` bit of every field — turn a per-field
question into a constant number of integer operations.  For a field pair
``i = a & b``, ``(i | i >> 1) & LOW`` has the low bit of each non-empty
field set, and ``(x ^ x >> 1) & LOW`` the low bit of each specified literal.
Python integers are arbitrary precision: an operation's cost grows with
the integer's size (CPython stores 30 bits, that is 15 variables, per
digit), not with a Python-level loop over the variables.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Iterator, List, Optional, Tuple

__all__ = ["Cube", "CubeError", "input_field", "input_masks", "FULL_FIELD"]


class CubeError(ValueError):
    """Raised for malformed cube literals or mismatched widths."""


# Per-variable field values in positional-cube notation.
ZERO_FIELD = 0b01
ONE_FIELD = 0b10
FULL_FIELD = 0b11
EMPTY_FIELD = 0b00

_CHAR_TO_FIELD = {"0": ZERO_FIELD, "1": ONE_FIELD, "-": FULL_FIELD}
_FIELD_TO_CHAR = {ZERO_FIELD: "0", ONE_FIELD: "1", FULL_FIELD: "-", EMPTY_FIELD: "~"}


def input_field(value: str) -> int:
    """Translate a single character literal (``0``, ``1``, ``-``) to its field."""
    try:
        return _CHAR_TO_FIELD[value]
    except KeyError as exc:
        raise CubeError(f"invalid literal {value!r}") from exc


@lru_cache(maxsize=256)
def input_masks(num_inputs: int) -> Tuple[int, int]:
    """``(FULL, LOW)`` for ``num_inputs`` variables, cached per width.

    ``FULL`` has both bits of every field set (the universal input part);
    ``LOW = FULL // 3`` has only the ``0b01`` bit of every field.
    """
    full = (1 << (2 * num_inputs)) - 1
    return full, full // 3


def _popcount(value: int) -> int:
    return bin(value).count("1")


@dataclass(frozen=True)
class Cube:
    """One multi-output product term.

    Attributes:
        num_inputs: number of binary input variables.
        inputs: packed positional-cube input part (2 bits per variable,
            variable 0 in the least significant bits).
        outputs: bit mask of outputs driven by this cube (output 0 = bit 0).
    """

    num_inputs: int
    inputs: int
    outputs: int

    # ------------------------------------------------------------- creation
    @classmethod
    def from_strings(cls, input_str: str, output_str: str) -> "Cube":
        """Build a cube from ``01-`` input text and ``01`` output text.

        An output character of ``1`` means the cube is part of that output's
        cover; ``0`` (or ``-``/``~``) means it is not.
        """
        inputs = 0
        for i, ch in enumerate(input_str):
            inputs |= input_field(ch) << (2 * i)
        outputs = 0
        for i, ch in enumerate(output_str):
            if ch == "1":
                outputs |= 1 << i
            elif ch not in "0-~":
                raise CubeError(f"invalid output literal {ch!r}")
        return cls(len(input_str), inputs, outputs)

    @classmethod
    def universal(cls, num_inputs: int, outputs: int) -> "Cube":
        """The cube with every input literal a don't care."""
        return cls(num_inputs, input_masks(num_inputs)[0], outputs)

    # ----------------------------------------------------------- inspection
    def input_literal(self, var: int) -> int:
        """Return the 2-bit field of variable ``var``."""
        return (self.inputs >> (2 * var)) & 0b11

    def input_string(self) -> str:
        """Render the input part as a ``01-`` string (``~`` marks empty)."""
        return "".join(_FIELD_TO_CHAR[self.input_literal(v)] for v in range(self.num_inputs))

    def output_string(self, num_outputs: int) -> str:
        return "".join("1" if self.outputs >> i & 1 else "0" for i in range(num_outputs))

    def _specified_mask(self) -> int:
        """``LOW``-aligned mask of the fields holding ``01`` or ``10``."""
        x = self.inputs
        return (x ^ x >> 1) & input_masks(self.num_inputs)[1]

    def literal_count(self) -> int:
        """Number of specified (non-don't-care) input literals."""
        return _popcount(self._specified_mask())

    def output_count(self) -> int:
        return bin(self.outputs).count("1")

    def specified_vars(self) -> List[int]:
        """Indices of input variables with a specified literal, ascending."""
        mask = self._specified_mask()
        found: List[int] = []
        while mask:
            bit = mask & -mask
            found.append((bit.bit_length() - 1) >> 1)
            mask ^= bit
        return found

    def is_input_valid(self) -> bool:
        """``True`` when no input field is empty (the cube is non-empty)."""
        x = self.inputs
        low = input_masks(self.num_inputs)[1]
        return (x | x >> 1) & low == low

    # ----------------------------------------------------------- operations
    def with_input(self, var: int, field: int) -> "Cube":
        """Return a copy with variable ``var`` forced to ``field``."""
        mask = 0b11 << (2 * var)
        return Cube(self.num_inputs, (self.inputs & ~mask) | (field << (2 * var)), self.outputs)

    def raise_input(self, var: int) -> "Cube":
        """Return a copy with variable ``var`` raised to a don't care."""
        return self.with_input(var, FULL_FIELD)

    def with_outputs(self, outputs: int) -> "Cube":
        return Cube(self.num_inputs, self.inputs, outputs)

    def intersect_inputs(self, other: "Cube") -> int:
        """Bit-wise intersection of the input parts (may contain empty fields)."""
        return self.inputs & other.inputs

    def inputs_intersect(self, other: "Cube") -> bool:
        """``True`` when the input parts share at least one minterm."""
        inter = self.inputs & other.inputs
        low = input_masks(self.num_inputs)[1]
        return (inter | inter >> 1) & low == low

    def input_contains(self, other: "Cube") -> bool:
        """``True`` when this cube's input part contains ``other``'s."""
        return other.inputs & ~self.inputs & input_masks(self.num_inputs)[0] == 0

    def contains(self, other: "Cube") -> bool:
        """Full multi-output containment: inputs and outputs both contain."""
        return self.input_contains(other) and (other.outputs & ~self.outputs) == 0

    def input_cofactor(self, against: "Cube") -> Optional["Cube"]:
        """Cofactor the input part against another cube.

        Returns ``None`` when the cubes do not intersect (the cofactor is
        empty).  The output part is preserved unchanged.
        """
        if not self.inputs_intersect(against):
            return None
        full = input_masks(self.num_inputs)[0]
        return Cube(self.num_inputs, (self.inputs | (~against.inputs & full)) & full, self.outputs)

    def input_distance(self, other: "Cube") -> int:
        """Number of input variables in which the two cubes conflict."""
        inter = self.inputs & other.inputs
        return _popcount(~(inter | inter >> 1) & input_masks(self.num_inputs)[1])

    def merge_distance_one(self, other: "Cube") -> Optional["Cube"]:
        """Merge two cubes differing in exactly one input variable.

        The merge is only performed when the output parts are identical and
        all other input literals agree exactly; the conflicting variable
        becomes a don't care.  Returns ``None`` when not mergeable.
        """
        if self.outputs != other.outputs:
            return None
        low = input_masks(self.num_inputs)[1]
        diff = self.inputs ^ other.inputs
        differing = (diff | diff >> 1) & low
        # Exactly one differing field: a single set bit.
        if not differing or differing & (differing - 1):
            return None
        union = self.inputs | other.inputs
        if not union & union >> 1 & differing:
            return None  # the merged field is not a don't care
        return Cube(self.num_inputs, self.inputs | differing * FULL_FIELD, self.outputs)

    def minterm_count(self) -> int:
        """Number of input minterms covered by this cube."""
        if not self.is_input_valid():
            return 0  # an empty field: no minterm at all
        x = self.inputs
        return 1 << _popcount(x & x >> 1 & input_masks(self.num_inputs)[1])

    def enumerate_minterms(self, limit: Optional[int] = None) -> Iterator[Tuple[int, ...]]:
        """Yield covered input minterms as bit tuples (low-index var first)."""
        dc_vars = [v for v in range(self.num_inputs) if self.input_literal(v) == FULL_FIELD]
        base = [0] * self.num_inputs
        for v in range(self.num_inputs):
            field = self.input_literal(v)
            if field == ONE_FIELD:
                base[v] = 1
            elif field == EMPTY_FIELD:
                return
        total = 1 << len(dc_vars)
        if limit is not None:
            total = min(total, limit)
        for value in range(total):
            point = list(base)
            for bit, v in enumerate(dc_vars):
                point[v] = (value >> bit) & 1
            yield tuple(point)

    def __str__(self) -> str:  # pragma: no cover - debugging aid
        return f"{self.input_string()} | {self.outputs:b}"
