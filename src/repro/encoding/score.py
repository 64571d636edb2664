"""Incremental bitmask scoring engine for the MISR state-assignment search.

The column-by-column search of :mod:`repro.encoding.misr_assign` scores two
things over and over again:

* every candidate partition of a column is scored with the incompatibility
  cost model of :mod:`repro.encoding.cost` — naively that re-walks *all*
  implicants over *all* assigned columns on string codes, an
  ``O(columns^2 x implicants x states)`` inner loop;
* every refinement move re-runs :func:`repro.encoding.cost.estimate_product_terms`
  from scratch, re-deriving the excitation of *every* transition through
  string-based LFSR arithmetic.

This module removes both rescans while producing **bit-identical** numbers:

:class:`FSMBitmaps`
    One-off per-FSM precomputation.  States are numbered, implicant state
    groups become integer bitmasks and the transitions of every implicant
    become ``(present index, next index)`` pairs.

:class:`BeamScorer` / :class:`PartialScore`
    Incremental evaluation of :func:`repro.encoding.cost.partial_assignment_cost`.
    Each partial assignment in the beam carries a :class:`PartialScore` with a
    cached per-implicant verdict: for every multi-state group the bitmask of
    foreign states still inside the group's face.  Appending a column updates
    that mask with two ``AND`` operations per implicant and evaluates only the
    *new* column's output incompatibility (earlier columns are fixed once
    their code bits exist), so a candidate costs ``O(implicants +
    transitions)`` instead of a full rescan.

:class:`ScoredEncoding`
    Incremental evaluation of :func:`repro.encoding.cost.estimate_product_terms`
    for a *complete* encoding.  The ``(input cube, outputs, excitation)``
    group decomposition is cached with integer codes and an integer feedback
    tap mask; a swap/move refinement candidate re-derives only the groups
    containing transitions that touch the moved states
    (:meth:`ScoredEncoding.preview`) and commits the patch only when the move
    is accepted (:meth:`ScoredEncoding.commit`).

Bit-identity with the reference implementation is part of the contract: the
greedy distance-1 cube merging is replayed on integers in exactly the
reference order (ascending transition index, first-occurrence dedupe), and
the face tracking reproduces :func:`repro.encoding.cost.input_incompatibility`
including the non-monotone case where a later column pushes a foreign state
back *out* of a group's face.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Sequence, Set, Tuple

from ..fsm.machine import FSM
from ..lfsr.lfsr import LFSR
from ..logic.symbolic import SymbolicImplicant
from .assignment import StateEncoding
from .cost import validate_structure

__all__ = ["FSMBitmaps", "BeamScorer", "PartialScore", "ScoredEncoding"]


class FSMBitmaps:
    """Per-FSM bitmask tables shared by every partial assignment of a search.

    Attributes:
        states: state names in search order (index = bit position).
        index: state name -> bit position.
        all_mask: bitmask with one bit per state.
        group_masks: per multi-state implicant, the bitmask of its group.
        output_pairs: per implicant with >= 2 transitions, the deduplicated
            ``(present index, next index)`` pairs of its specified
            transitions (unspecified ``*`` next states never constrain a
            column and are dropped here, exactly as in the reference).
        next_masks: per entry of ``output_pairs``, the bitmask of the distinct
            next-state indices (the ``"dff"`` rule only looks at next bits,
            so a conflict is a single mask test).
    """

    def __init__(
        self, states: Sequence[str], implicants: Sequence[SymbolicImplicant]
    ) -> None:
        self.states: Tuple[str, ...] = tuple(states)
        self.index: Dict[str, int] = {s: i for i, s in enumerate(self.states)}
        self.all_mask: int = (1 << len(self.states)) - 1
        self.group_masks: List[int] = []
        for imp in implicants:
            if imp.group_size < 2:
                continue
            mask = 0
            for s in imp.present_states:
                mask |= 1 << self.index[s]
            self.group_masks.append(mask)
        self.output_pairs: List[Tuple[Tuple[int, int], ...]] = []
        self.next_masks: List[int] = []
        for imp in implicants:
            if len(imp.transitions) < 2:
                continue
            pairs = tuple(
                dict.fromkeys(
                    (self.index[t.present], self.index[t.next])
                    for t in imp.transitions
                    if t.next != "*"
                )
            )
            if len(pairs) < 2:
                continue  # fewer than two specified transitions never conflict
            self.output_pairs.append(pairs)
            next_mask = 0
            for _, n in pairs:
                next_mask |= 1 << n
            self.next_masks.append(next_mask)

    def ones_mask(self, partition: Mapping[str, str]) -> int:
        """Bitmask of the states assigned ``"1"`` by a column partition."""
        mask = 0
        for state, bit in partition.items():
            if bit == "1":
                mask |= 1 << self.index[state]
        return mask


@dataclass(frozen=True)
class PartialScore:
    """Cached incremental score of one partial assignment (one beam entry).

    Attributes:
        columns: number of columns assigned so far.
        ones_prev: bitmask of the last column's ``1`` states (the ``s_{i-1}``
            operand of the MISR excitation rule for the *next* column).
        faces: per multi-state implicant, the bitmask of foreign states still
            inside the group's face; ``0`` means the face is clean.  A split
            verdict is simply ``faces[i] != 0`` — no rescan over columns.
        input_cost: number of split groups (cached input incompatibility).
        output_sum: accumulated output incompatibility over all assigned
            columns (each column's term is fixed once its bits exist).
    """

    columns: int
    ones_prev: int
    faces: Tuple[int, ...]
    input_cost: int
    output_sum: int


class BeamScorer:
    """Incremental replacement for ``partial_assignment_cost`` in the beam.

    ``register`` selects the excitation rule (``"misr"`` or ``"dff"``) and
    ``input_weight``/``output_weight`` the cost mix, mirroring
    :func:`repro.encoding.cost.partial_assignment_cost`.
    """

    def __init__(
        self,
        bitmaps: FSMBitmaps,
        register: str = "misr",
        input_weight: int = 2,
        output_weight: int = 1,
    ) -> None:
        if register not in ("misr", "dff"):
            raise ValueError(f"unknown register type {register!r}")
        self.bitmaps = bitmaps
        self.register = register
        self.input_weight = input_weight
        self.output_weight = output_weight

    def initial(self) -> PartialScore:
        """Score state of the empty assignment (every foreign state in face)."""
        b = self.bitmaps
        faces = tuple(b.all_mask & ~mask for mask in b.group_masks)
        return PartialScore(0, 0, faces, sum(1 for f in faces if f), 0)

    def append_column(
        self, score: PartialScore, partition: Mapping[str, str]
    ) -> Tuple[PartialScore, int]:
        """Score of ``score`` extended by one column partition.

        Returns the extended :class:`PartialScore` and its combined cost,
        bit-identical to ``partial_assignment_cost`` on the grown prefixes.
        """
        b = self.bitmaps
        ones = b.ones_mask(partition)
        zeros = b.all_mask & ~ones

        faces: List[int] = []
        input_cost = 0
        for mask, face in zip(b.group_masks, score.faces):
            if face:
                group_ones = mask & ones
                if group_ones == 0:
                    face &= zeros  # face bit is 0: foreign 1-states leave
                elif group_ones == mask:
                    face &= ones  # face bit is 1: foreign 0-states leave
                # otherwise the group straddles the column: face bit is "-"
                if face:
                    input_cost += 1
            faces.append(face)

        output_term = 0
        if self.register == "dff":
            for next_mask in b.next_masks:
                hit = next_mask & ones
                if hit and hit != next_mask:
                    output_term += 1
        elif score.columns > 0:  # MISR column 0 is free (feedback not chosen)
            prev = score.ones_prev
            for pairs in b.output_pairs:
                seen0 = seen1 = False
                for p, n in pairs:
                    if ((ones >> n) ^ (prev >> p)) & 1:
                        seen1 = True
                        if seen0:
                            output_term += 1
                            break
                    else:
                        seen0 = True
                        if seen1:
                            output_term += 1
                            break
        output_sum = score.output_sum + output_term
        cost = self.input_weight * input_cost + self.output_weight * output_sum
        return (
            PartialScore(score.columns + 1, ones, tuple(faces), input_cost, output_sum),
            cost,
        )


# ---------------------------------------------------------------------------
# Incremental product-term estimation for complete encodings.
# ---------------------------------------------------------------------------


#: One transition re-grouped by a previewed move:
#: ``(tid, old group key, new group key, present-state code)``.
_Move = Tuple[int, Tuple[str, str, int], Tuple[str, str, int], int]


class ScoredEncoding:
    """A complete encoding plus the cached product-term group decomposition.

    Mirrors :func:`repro.encoding.cost.estimate_product_terms` bit for bit:
    the transitions are grouped by ``(input cube, outputs, excitation)`` and
    each group contributes the greedy distance-1 merge count of its
    present-state codes.  All codes and excitations live as integers; the
    refinement loop probes a candidate swap/move with :meth:`preview` (which
    re-derives only the groups touched by the moved states) and applies an
    accepted move with :meth:`commit`.
    """

    def __init__(
        self,
        fsm: FSM,
        encoding: StateEncoding,
        register: Optional[LFSR],
        structure: str = "pst",
    ) -> None:
        self.mode = validate_structure(structure)
        if self.mode in ("pst", "sig") and register is None:
            raise ValueError("a register is required for the PST/SIG estimate")
        self.width = encoding.width
        self.codes: Dict[str, int] = {s: int(c, 2) for s, c in encoding.codes.items()}
        if self.mode in ("pst", "sig") and register.width != self.width:
            raise ValueError(
                f"register width {register.width} does not match encoding width {self.width}"
            )
        # Autonomous successors are looked up, not stepped, per transition.
        # The step is linear over GF(2): a code's successor is the XOR of its
        # high and low halves' successors, so two tables of about
        # 2**(width/2) entries stand in for one of 2**width and wide
        # registers stay cheap.
        self._half = self.width // 2
        self._low_mask = (1 << self._half) - 1
        low_codes = range(1 << self._half)
        high_codes = range(1 << (self.width - self._half))
        if self.mode in ("pst", "sig"):
            # Stage i of the feedback XOR reads string position i-1, i.e. the
            # integer bit (width - i); precomputing the tap mask turns the
            # string-based LFSR step into a parity + shift.
            self.tap_mask = 0
            for stage in register.feedback_taps:
                self.tap_mask |= 1 << (self.width - stage)
            self._auto_low = [self._autonomous(c) for c in low_codes]
            self._auto_high = [self._autonomous(c << self._half) for c in high_codes]
        else:
            # A D flip-flop register has no autonomous step: the excitation
            # is the next code itself.
            self.tap_mask = 0
            self._auto_low = [0] * len(low_codes)
            self._auto_high = [0] * len(high_codes)

        # Per specified transition (in FSM order): present state, next state,
        # and the static key parts (inputs, outputs).
        self._rows: List[Tuple[str, str, str, str]] = []
        self._state_tids: Dict[str, List[int]] = {s: [] for s in self.codes}
        for t in fsm.transitions:
            if t.next == "*":
                continue  # unspecified next states become don't cares
            tid = len(self._rows)
            self._rows.append((t.present, t.next, t.inputs, t.outputs))
            self._state_tids[t.present].append(tid)
            if t.next != t.present:
                self._state_tids[t.next].append(tid)

        self._tid_key: List[Tuple[str, str, int]] = []
        self.groups: Dict[Tuple[str, str, int], Dict[int, int]] = {}
        self.counts: Dict[Tuple[str, str, int], int] = {}
        for tid in range(len(self._rows)):
            key, code = self._key_of(tid, self.codes)
            self._tid_key.append(key)
            self.groups.setdefault(key, {})[tid] = code
        self.total = 0
        for key, members in self.groups.items():
            count = self._group_count(key, members)
            self.counts[key] = count
            self.total += count

    # ------------------------------------------------------------- queries
    @property
    def estimate(self) -> int:
        """Current product-term estimate (equals the full recompute)."""
        return self.total

    def code_strings(self) -> Dict[str, str]:
        return {s: format(c, f"0{self.width}b") for s, c in self.codes.items()}

    # ----------------------------------------------------------- internals
    def _autonomous(self, code: int) -> int:
        feedback = (code & self.tap_mask).bit_count() & 1
        return (feedback << (self.width - 1)) | (code >> 1)

    def _key_of(self, tid: int, codes: Mapping[str, int]) -> Tuple[Tuple[str, str, int], int]:
        present, next_state, inputs, outputs = self._rows[tid]
        present_code = codes[present]
        excitation = (
            codes[next_state]
            ^ self._auto_high[present_code >> self._half]
            ^ self._auto_low[present_code & self._low_mask]
        )
        return (inputs, outputs, excitation), present_code

    def _group_count(
        self,
        key: Tuple[str, str, int],
        members: Mapping[int, int],
        moves: Sequence[_Move] = (),
        shift: int = 0,
    ) -> int:
        """Merge count of group ``key`` once ``moves`` are applied to ``members``.

        ``shift`` is the net member count the moves add to the group, so
        only a group that really needs merging gathers its codes.
        """
        size = len(members) + shift
        if not size:
            return 0
        _, outputs, excitation = key
        if excitation == 0 and "1" not in outputs:
            return 0  # nothing to assert: the row needs no product term
        if size == 1:
            return 1  # one code: nothing to merge
        gone = {tid for tid, old_key, _, _ in moves if old_key == key}
        pairs = [item for item in members.items() if item[0] not in gone]
        pairs.extend((tid, code) for tid, _, new_key, code in moves if new_key == key)
        pairs.sort()
        return _merged_cube_count_int([code for _, code in pairs])

    # ----------------------------------------------------- move evaluation
    def preview(self, changed: Mapping[str, int]) -> Tuple[int, "_Patch"]:
        """Estimate after re-coding the states in ``changed`` (no commit).

        Only groups containing a transition that touches a changed state are
        re-derived; everything else keeps its cached merge count.  A
        re-derived group is sized from its cached members and the moves, and
        its codes are gathered only when they must be merged, so a rejected
        move copies no group.
        """
        affected: Set[int] = set()
        for state in changed:
            affected.update(self._state_tids[state])
        moves: List[_Move] = []
        shifts: Dict[Tuple[str, str, int], int] = {}
        codes = dict(self.codes)
        codes.update(changed)
        for tid in sorted(affected):
            new_key, present_code = self._key_of(tid, codes)
            old_key = self._tid_key[tid]
            moves.append((tid, old_key, new_key, present_code))
            shifts[old_key] = shifts.get(old_key, 0) - 1
            shifts[new_key] = shifts.get(new_key, 0) + 1

        new_counts: Dict[Tuple[str, str, int], int] = {}
        total = self.total
        for key, shift in shifts.items():
            members = self.groups.get(key, _NO_MEMBERS)
            count = self._group_count(key, members, moves, shift)
            new_counts[key] = count
            total += count - self.counts.get(key, 0)
        return total, _Patch(dict(changed), moves, new_counts, total)

    def commit(self, patch: "_Patch") -> None:
        """Apply a move previously evaluated with :meth:`preview`, in place."""
        self.codes.update(patch.changed)
        for tid, old_key, new_key, present_code in patch.moves:
            self._tid_key[tid] = new_key
            del self.groups[old_key][tid]
            self.groups.setdefault(new_key, {})[tid] = present_code
        # Emptied groups are kept with a zero count so later previews see a
        # consistent (members, count) pair for every key ever created.
        self.counts.update(patch.counts)
        self.total = patch.total


#: The cached members of a group no transition has entered yet.
_NO_MEMBERS: Mapping[int, int] = {}


@dataclass(frozen=True)
class _Patch:
    """Pending state of one previewed move (committed only on acceptance)."""

    changed: Dict[str, int]
    moves: List[_Move]
    counts: Dict[Tuple[str, str, int], int]
    total: int


def _merged_cube_count_int(codes: List[int]) -> int:
    """Integer twin of :func:`repro.encoding.cost._merged_cube_count`.

    Cubes are ``(value, dash_mask)`` pairs with dashed value bits normalised
    to 0; the greedy scan order matches the string version exactly so the
    counts (and therefore every refinement accept/reject decision) agree.
    """
    cubes: List[Tuple[int, int]] = [(c, 0) for c in dict.fromkeys(codes)]
    changed = True
    while changed and len(cubes) > 1:
        changed = False
        merged: Optional[Tuple[int, int]] = None
        pair: Optional[Tuple[int, int]] = None
        for i in range(len(cubes)):
            value_i, dash_i = cubes[i]
            for j in range(i + 1, len(cubes)):
                value_j, dash_j = cubes[j]
                if dash_i != dash_j:
                    continue
                diff = value_i ^ value_j
                if diff and not (diff & (diff - 1)):  # exactly one bit differs
                    merged = (value_i & ~diff, dash_i | diff)
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
