"""Building encoded multi-output covers from symbolic truth-table rows.

The synthesis flow (Fig. 7 of the paper) turns an FSM description plus a
state assignment into a *truth table for a multi-output Boolean function*:
one row per transition, with the primary inputs and the encoded present state
on the input side and the primary outputs plus the register excitation
variables on the output side.  This module provides the small amount of glue
needed to express such rows and convert them into ON-set / don't-care-set
:class:`~repro.logic.cover.Cover` pairs for the two-level minimiser.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

from .cover import Cover
from .cube import Cube

__all__ = ["TableRow", "TruthTable"]


@dataclass(frozen=True)
class TableRow:
    """One row of a symbolic truth table.

    Attributes:
        inputs: input cube over ``{0, 1, -}``; ``-`` means the row applies to
            both values of that input.
        outputs: output specification over ``{0, 1, -}``; ``1`` puts the row's
            input cube into that output's ON-set, ``0`` into its OFF-set
            (implicitly, by absence), ``-`` into its don't-care set.
    """

    inputs: str
    outputs: str


class TruthTable:
    """A collection of :class:`TableRow` convertible to ON/DC covers."""

    def __init__(self, num_inputs: int, num_outputs: int) -> None:
        self.num_inputs = int(num_inputs)
        self.num_outputs = int(num_outputs)
        self._rows: List[TableRow] = []

    def add_row(self, inputs: str, outputs: str) -> None:
        if len(inputs) != self.num_inputs:
            raise ValueError(
                f"row input width {len(inputs)} does not match table width {self.num_inputs}"
            )
        if len(outputs) != self.num_outputs:
            raise ValueError(
                f"row output width {len(outputs)} does not match table width {self.num_outputs}"
            )
        for ch in inputs:
            if ch not in "01-":
                raise ValueError(f"invalid input literal {ch!r}")
        for ch in outputs:
            if ch not in "01-":
                raise ValueError(f"invalid output literal {ch!r}")
        self._rows.append(TableRow(inputs, outputs))

    def add_dont_care_row(self, inputs: str) -> None:
        """Mark the whole input cube as don't care for every output."""
        self.add_row(inputs, "-" * self.num_outputs)

    @property
    def rows(self) -> Tuple[TableRow, ...]:
        return tuple(self._rows)

    def __len__(self) -> int:
        return len(self._rows)

    def to_covers(self) -> Tuple[Cover, Cover]:
        """Return the ``(on_set, dc_set)`` covers described by the rows."""
        on = Cover(self.num_inputs, self.num_outputs)
        dc = Cover(self.num_inputs, self.num_outputs)
        for row in self._rows:
            on_mask = 0
            dc_mask = 0
            for i, ch in enumerate(row.outputs):
                if ch == "1":
                    on_mask |= 1 << i
                elif ch == "-":
                    dc_mask |= 1 << i
            if on_mask:
                on.add(Cube.from_strings(row.inputs, "").with_outputs(on_mask))
            if dc_mask:
                dc.add(Cube.from_strings(row.inputs, "").with_outputs(dc_mask))
        return on, dc

    def to_pla_text(self) -> str:
        """Render the table in espresso PLA (type fd) format."""
        lines = [f".i {self.num_inputs}", f".o {self.num_outputs}", f".p {len(self._rows)}", ".type fd"]
        for row in self._rows:
            lines.append(f"{row.inputs} {row.outputs}")
        lines.append(".e")
        return "\n".join(lines) + "\n"
