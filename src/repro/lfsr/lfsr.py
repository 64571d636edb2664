"""Linear feedback shift registers used as pattern generators.

The register convention follows the paper (Section 3.2): the state is a bit
vector ``s = (s1, ..., sr)``; in autonomous mode the next state is

    M(s) = (m(s), s1, ..., s_{r-1})

where ``m(s)`` is the feedback function — the XOR of the stages selected by
the feedback polynomial.  When the polynomial is primitive, the autonomous
sequence cycles through all ``2**r - 1`` non-zero states (the all-zero state
is a fixed point), which is the property exploited by both the PAT structure
(pattern-generator transitions reused as system transitions) and the PST/SIG
structures (MISR used as the state register).

States are handled as strings over ``{'0', '1'}`` with ``s1`` first, matching
the code strings produced by the state-assignment algorithms.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from .polynomial import (
    default_primitive_polynomial,
    degree,
    is_primitive,
    poly_to_string,
    taps_from_poly,
)

__all__ = ["LFSR", "code_to_bits", "bits_to_code"]


def code_to_bits(code: str) -> Tuple[int, ...]:
    """Convert a code string (``s1`` first) to a bit tuple."""
    if any(ch not in "01" for ch in code):
        raise ValueError(f"code {code!r} must be fully specified")
    return tuple(int(ch) for ch in code)


def bits_to_code(bits: Sequence[int]) -> str:
    return "".join("1" if b else "0" for b in bits)


@dataclass(frozen=True)
class LFSR:
    """An autonomous (Fibonacci-style) linear feedback shift register.

    Attributes:
        width: number of stages ``r``.
        polynomial: feedback polynomial as an integer bit mask (bit ``i`` is
            the coefficient of ``x**i``); its degree must equal ``width``.
    """

    width: int
    polynomial: int

    def __post_init__(self) -> None:
        if degree(self.polynomial) != self.width:
            raise ValueError(
                f"polynomial {poly_to_string(self.polynomial)} does not have degree {self.width}"
            )
        if not self.polynomial & 1:
            raise ValueError("feedback polynomial needs a non-zero constant term")

    # ----------------------------------------------------------- construction
    @classmethod
    def with_primitive_polynomial(cls, width: int) -> "LFSR":
        """An LFSR of the given width with the default primitive polynomial."""
        return cls(width, default_primitive_polynomial(width))

    @property
    def is_maximal_length(self) -> bool:
        """``True`` when the feedback polynomial is primitive."""
        return is_primitive(self.polynomial)

    @property
    def feedback_taps(self) -> List[int]:
        """Stage indices (1-based) feeding the XOR of ``m(s)``.

        The coefficient of ``x**i`` (``0 < i <= r``) selects stage
        ``r - i + 1``; the constant term selects stage ``r`` (the oldest bit),
        which is always present for a valid feedback polynomial.
        """
        taps = []
        for exponent in taps_from_poly(self.polynomial):
            stage = self.width - exponent
            if 1 <= stage <= self.width:
                taps.append(stage)
        return sorted(set(taps))

    # ------------------------------------------------------------- behaviour
    def feedback(self, code: str) -> int:
        """The feedback bit ``m(s)`` for a given state code."""
        bits = code_to_bits(code)
        if len(bits) != self.width:
            raise ValueError(f"state {code!r} does not match register width {self.width}")
        value = 0
        for stage in self.feedback_taps:
            value ^= bits[stage - 1]
        return value

    def next_state(self, code: str) -> str:
        """Autonomous next state ``M(s) = (m(s), s1, ..., s_{r-1})``."""
        bits = code_to_bits(code)
        if len(bits) != self.width:
            raise ValueError(f"state {code!r} does not match register width {self.width}")
        return bits_to_code((self.feedback(code),) + bits[:-1])

    def sequence(self, seed: str, length: int) -> List[str]:
        """The autonomous state sequence starting from (and including) ``seed``."""
        states = [seed]
        current = seed
        for _ in range(length - 1):
            current = self.next_state(current)
            states.append(current)
        return states

    def cycle(self, seed: Optional[str] = None) -> List[str]:
        """The full autonomous cycle containing ``seed`` (default ``0...01``)."""
        if seed is None:
            seed = "0" * (self.width - 1) + "1"
        states = [seed]
        current = self.next_state(seed)
        while current != seed:
            states.append(current)
            current = self.next_state(current)
            if len(states) > (1 << self.width):
                raise RuntimeError("LFSR cycle did not close; inconsistent next-state function")
        return states

    def period(self, seed: Optional[str] = None) -> int:
        """Length of the autonomous cycle through ``seed``."""
        return len(self.cycle(seed))
