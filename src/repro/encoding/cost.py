"""Cost model for state assignment targeted at MISR state registers.

Section 3.3.2 of the paper scores a (partial) state assignment by the number
of additional product terms it forces compared with the symbolic lower bound.
Two effects are counted:

* **input incompatibility** — a symbolic implicant covers a *group* of
  present states; after encoding, the group must occupy a face (subcube) of
  the code space that contains no foreign state codes, otherwise the
  implicant has to be split;
* **output incompatibility** — the excitation variable of the column being
  assigned, ``y_i = s_i+ XOR s_{i-1}`` for a MISR, may differ between the
  transitions summarised in one implicant, again forcing a split.  (For the
  first column ``y_1 = s_1+ XOR m(s)`` depends on the feedback polynomial,
  which is only chosen after the assignment, so the first column is scored on
  the output function alone.)

The functions here operate on *partial* assignments — a mapping from state to
the code bits assigned so far — so the column-by-column search of
:mod:`repro.encoding.misr_assign` can estimate the cost of the next column
before committing to it, exactly as in Fig. 8/9 of the paper.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

from ..fsm.machine import FSM
from ..logic.symbolic import SymbolicImplicant
from .assignment import StateEncoding

if TYPE_CHECKING:  # type-only: the lfsr package must not import encoding
    from ..lfsr.lfsr import LFSR

__all__ = [
    "group_face",
    "face_contains_foreign_state",
    "input_incompatibility",
    "output_incompatibility",
    "first_column_incompatibility",
    "partial_assignment_cost",
    "encoding_cost",
    "estimate_product_terms",
    "validate_structure",
]

#: Excitation rules understood by :func:`estimate_product_terms`.
STRUCTURE_MODES = ("pst", "sig", "dff")


def validate_structure(structure: str) -> str:
    """Normalise a structure string, raising ``ValueError`` when unknown."""
    mode = structure.lower()
    if mode not in STRUCTURE_MODES:
        raise ValueError(
            f"unknown structure {structure!r}; expected one of {', '.join(STRUCTURE_MODES)}"
        )
    return mode


def group_face(group: Iterable[str], prefixes: Mapping[str, str]) -> str:
    """Smallest face (cube over assigned columns) containing a state group."""
    face: List[str] = []
    codes = [prefixes[s] for s in group]
    if not codes:
        return ""
    width = len(codes[0])
    for col in range(width):
        bits = {code[col] for code in codes}
        face.append(bits.pop() if len(bits) == 1 else "-")
    return "".join(face)


def face_contains_foreign_state(
    face: str, group: Iterable[str], prefixes: Mapping[str, str]
) -> bool:
    """``True`` when a state outside ``group`` falls into the group's face."""
    members = set(group)
    for state, prefix in prefixes.items():
        if state in members:
            continue
        if all(f == "-" or f == p for f, p in zip(face, prefix)):
            return True
    return False


def input_incompatibility(
    implicants: Sequence[SymbolicImplicant], prefixes: Mapping[str, str]
) -> int:
    """Number of implicants whose state group can no longer stay together."""
    cost = 0
    for imp in implicants:
        if imp.group_size < 2:
            continue
        face = group_face(imp.present_states, prefixes)
        if face_contains_foreign_state(face, imp.present_states, prefixes):
            cost += 1
    return cost


def output_incompatibility(
    implicants: Sequence[SymbolicImplicant],
    prefixes: Mapping[str, str],
    column: int,
    register: str = "misr",
) -> int:
    """Number of implicants with conflicting excitation bits in ``column``.

    ``register`` selects the excitation rule: ``"misr"`` uses
    ``y_i = s_i+ XOR s_{i-1}`` (undefined, hence free, for column 0);
    ``"dff"`` uses ``y_i = s_i+`` and is provided for ablation comparisons.
    """
    if register not in ("misr", "dff"):
        raise ValueError(f"unknown register type {register!r}")
    if register == "misr" and column == 0:
        return 0
    cost = 0
    for imp in implicants:
        if len(imp.transitions) < 2:
            continue
        values = set()
        for t in imp.transitions:
            if t.next == "*":
                continue  # unspecified next state never constrains the column
            next_bit = _bit_of(prefixes, t.next, column)
            if next_bit is None:
                continue
            if register == "dff":
                values.add(next_bit)
            else:
                prev_bit = _bit_of(prefixes, t.present, column - 1)
                if prev_bit is None:
                    continue
                values.add(next_bit ^ prev_bit)
        if len(values) > 1:
            cost += 1
    return cost


def first_column_incompatibility(
    implicants: Sequence[SymbolicImplicant],
    encoding: StateEncoding,
    feedback_bits: Mapping[str, int],
) -> int:
    """Output incompatibility of ``y_1 = s_1+ XOR m(s)`` for a feedback choice.

    ``feedback_bits`` maps every state to ``m(code(state))`` for the candidate
    feedback polynomial; the count is used to pick the cheapest primitive
    polynomial after the assignment is complete (Fig. 9, last loop).
    """
    cost = 0
    for imp in implicants:
        if len(imp.transitions) < 2:
            continue
        values = set()
        for t in imp.transitions:
            if t.next == "*":
                continue
            next_bit = int(encoding.code_of(t.next)[0])
            values.add(next_bit ^ feedback_bits[t.present])
        if len(values) > 1:
            cost += 1
    return cost


def partial_assignment_cost(
    implicants: Sequence[SymbolicImplicant],
    prefixes: Mapping[str, str],
    column: int,
    register: str = "misr",
    input_weight: int = 2,
    output_weight: int = 1,
) -> int:
    """Combined cost of a partial assignment up to and including ``column``."""
    return input_weight * input_incompatibility(implicants, prefixes) + output_weight * sum(
        output_incompatibility(implicants, prefixes, col, register) for col in range(column + 1)
    )


def encoding_cost(
    implicants: Sequence[SymbolicImplicant],
    encoding: StateEncoding,
    register: str = "misr",
    input_weight: int = 2,
    output_weight: int = 1,
) -> int:
    """Cost of a complete encoding (all columns, excluding the ``y_1`` term)."""
    prefixes = {state: encoding.code_of(state) for state in encoding.states()}
    return partial_assignment_cost(
        implicants, prefixes, encoding.width - 1, register, input_weight, output_weight
    )


def _bit_of(prefixes: Mapping[str, str], state: str, column: int) -> Optional[int]:
    prefix = prefixes.get(state)
    if prefix is None or column < 0 or column >= len(prefix):
        return None
    return int(prefix[column])


# ---------------------------------------------------------------------------
# Fast surrogate for the final product-term count of a complete encoding.
# ---------------------------------------------------------------------------


def estimate_product_terms(
    fsm: FSM,
    encoding: StateEncoding,
    register: Optional["LFSR"],
    structure: str = "pst",
) -> int:
    """Cheap estimate of the two-level product-term count of an encoding.

    Two encoded transitions can share a product term only when their input
    cube, asserted outputs and excitation vector coincide and their present
    state codes merge into a single face of the code space.  This estimator
    groups the transitions by ``(input cube, outputs, excitation)`` and counts
    how many cubes remain after greedily merging the present-state codes of
    each group — a direct (and fast) proxy for what the two-level minimiser
    will achieve, used by the refinement phase of the MISR state assignment
    and as a tie-breaker between beam candidates.

    ``structure`` selects the excitation rule: ``"pst"``/``"sig"`` use
    ``y = s+ XOR M(s)`` (``register`` must be the LFSR underlying the MISR),
    ``"dff"`` uses ``y = s+`` (``register`` is ignored).  Any other
    ``structure`` string raises ``ValueError``.
    """
    mode = validate_structure(structure)
    if mode in ("pst", "sig") and register is None:
        raise ValueError("a register is required for the PST/SIG estimate")

    groups: Dict[Tuple[str, str, str], List[str]] = {}
    for t in fsm.transitions:
        if t.next == "*":
            continue  # unspecified next states become don't cares, not terms
        present_code = encoding.code_of(t.present)
        next_code = encoding.code_of(t.next)
        if mode in ("pst", "sig"):
            autonomous = register.next_state(present_code)
            excitation = "".join(
                str(int(a) ^ int(b)) for a, b in zip(next_code, autonomous)
            )
        else:
            excitation = next_code
        key = (t.inputs, t.outputs, excitation)
        groups.setdefault(key, []).append(present_code)

    total = 0
    for (_, outputs, excitation), codes in groups.items():
        if "1" not in outputs and "1" not in excitation:
            # Nothing to assert: the row needs no product term at all (this is
            # how aligning transitions with the register's autonomous step
            # saves logic, cf. the Fig. 3 example of the paper).
            continue
        total += _merged_cube_count(codes)
    return total


def _merged_cube_count(codes: List[str]) -> int:
    """Number of cubes left after greedy distance-1 merging of binary codes."""
    cubes = list(dict.fromkeys(codes))
    changed = True
    while changed and len(cubes) > 1:
        changed = False
        merged: Optional[str] = None
        pair: Optional[Tuple[int, int]] = None
        for i in range(len(cubes)):
            for j in range(i + 1, len(cubes)):
                candidate = _merge_codes(cubes[i], cubes[j])
                if candidate is not None:
                    merged = candidate
                    pair = (i, j)
                    break
            if merged is not None:
                break
        if merged is not None and pair is not None:
            i, j = pair
            cubes = [c for k, c in enumerate(cubes) if k not in (i, j)]
            cubes.append(merged)
            changed = True
    return len(cubes)


def _merge_codes(a: str, b: str) -> Optional[str]:
    """Merge two equal-length cubes differing in exactly one specified bit."""
    if len(a) != len(b):
        return None
    diff = -1
    for i, (x, y) in enumerate(zip(a, b)):
        if x != y:
            if x == "-" or y == "-" or diff >= 0:
                return None
            diff = i
    if diff < 0:
        return None
    return a[:diff] + "-" + a[diff + 1 :]
