"""State encodings: the injective mapping from symbolic states to codes.

Every state-assignment algorithm in this package produces a
:class:`StateEncoding` — an injective mapping ``state name -> binary code``
of a common width.  The encoding is the ``psi`` mapping of Section 3.2 of the
paper; everything downstream (excitation-function derivation, logic
minimisation, the gate-level netlist) consumes it through this class.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional

from ..fsm.machine import FSM

__all__ = ["StateEncoding", "EncodingError", "natural_encoding", "gray_encoding"]


class EncodingError(ValueError):
    """Raised for non-injective or ill-sized encodings."""


@dataclass(frozen=True)
class StateEncoding:
    """An injective assignment of binary codes to symbolic states.

    Attributes:
        width: number of state variables ``r``.
        codes: mapping from state name to its code string (``s1`` first).
    """

    width: int
    codes: Mapping[str, str]

    def __post_init__(self) -> None:
        seen: Dict[str, str] = {}
        for state, code in self.codes.items():
            if len(code) != self.width or any(ch not in "01" for ch in code):
                raise EncodingError(f"state {state!r} has invalid code {code!r} for width {self.width}")
            if code in seen:
                raise EncodingError(
                    f"states {seen[code]!r} and {state!r} share the code {code!r}"
                )
            seen[code] = state
        if len(self.codes) > (1 << self.width):
            raise EncodingError("more states than codes available")

    # -------------------------------------------------------------- queries
    def code_of(self, state: str) -> str:
        try:
            return self.codes[state]
        except KeyError as exc:
            raise EncodingError(f"state {state!r} has no code") from exc

    def state_of(self, code: str) -> Optional[str]:
        """State carrying ``code``, or ``None`` for an unused code."""
        for state, c in self.codes.items():
            if c == code:
                return state
        return None

    def states(self) -> List[str]:
        return list(self.codes)

    def used_codes(self) -> List[str]:
        return list(self.codes.values())

    def unused_codes(self) -> List[str]:
        """Codes of the ``2**width`` code space not assigned to any state."""
        used = set(self.codes.values())
        return [
            format(value, f"0{self.width}b")
            for value in range(1 << self.width)
            if format(value, f"0{self.width}b") not in used
        ]

    def column(self, index: int) -> Dict[str, str]:
        """The ``index``-th code bit of every state."""
        if not 0 <= index < self.width:
            raise EncodingError(f"column {index} outside width {self.width}")
        return {state: code[index] for state, code in self.codes.items()}

    def as_int_codes(self) -> Dict[str, int]:
        return {state: int(code, 2) for state, code in self.codes.items()}

    def covers_fsm(self, fsm: FSM) -> bool:
        """``True`` when every state of ``fsm`` has a code."""
        return all(state in self.codes for state in fsm.states)

    def validate_for(self, fsm: FSM) -> None:
        if not self.covers_fsm(fsm):
            missing = [s for s in fsm.states if s not in self.codes]
            raise EncodingError(f"encoding misses codes for states: {', '.join(missing)}")

    # ---------------------------------------------------------- conversion
    def renamed(self, mapping: Mapping[str, str]) -> "StateEncoding":
        """Return an encoding with state names translated through ``mapping``."""
        return StateEncoding(self.width, {mapping.get(s, s): c for s, c in self.codes.items()})

    def to_dict(self) -> Dict[str, object]:
        """JSON-safe dictionary; :meth:`from_dict` round-trips it exactly."""
        return {"width": self.width, "codes": dict(self.codes)}

    @classmethod
    def from_dict(cls, data: Mapping[str, object]) -> "StateEncoding":
        return cls(int(data["width"]), dict(data["codes"]))  # type: ignore[arg-type]

    def __str__(self) -> str:  # pragma: no cover - debugging aid
        rows = [f"  {state} -> {code}" for state, code in self.codes.items()]
        return "StateEncoding(width=%d)\n%s" % (self.width, "\n".join(rows))


def natural_encoding(fsm: FSM, width: Optional[int] = None) -> StateEncoding:
    """Encode states in declaration order with natural binary codes."""
    r = width if width is not None else fsm.min_code_bits
    if (1 << r) < fsm.num_states:
        raise EncodingError(f"width {r} cannot encode {fsm.num_states} states")
    codes = {state: format(i, f"0{r}b") for i, state in enumerate(fsm.states)}
    return StateEncoding(r, codes)


def gray_encoding(fsm: FSM, width: Optional[int] = None) -> StateEncoding:
    """Encode states in declaration order along a Gray-code sequence."""
    r = width if width is not None else fsm.min_code_bits
    if (1 << r) < fsm.num_states:
        raise EncodingError(f"width {r} cannot encode {fsm.num_states} states")
    codes = {}
    for i, state in enumerate(fsm.states):
        gray = i ^ (i >> 1)
        codes[state] = format(gray, f"0{r}b")
    return StateEncoding(r, codes)
