"""State assignment for MISR state registers (the paper's core algorithm).

Conventional state-assignment programs optimise the next-state function
``y = s+`` and are ineffective when the state register is a MISR, where the
excitation is ``y = s+ XOR M(s)`` and every excitation bit depends on the
*neighbouring* flip-flop as well (Section 3.3.1).  The procedure implemented
here follows Fig. 9 of the paper:

1. symbolically minimise the output/next-state description to obtain the
   implicant groups that a good encoding should keep intact;
2. assign the code **column by column** (state variable by state variable);
   for every column a set of candidate 0/1 partitions of the states is
   generated and scored with the incompatibility cost model of
   :mod:`repro.encoding.cost`; a beam (branch-and-bound with a width limit)
   of the best partial assignments is kept;
3. after the last column, enumerate primitive feedback polynomials and pick
   the one that makes ``y_1 = s_1+ XOR m(s)`` cheapest.

The trade-off between run time and quality is controlled by
``partitions_per_column`` (the ``k`` of the paper) and ``beam_width``.

Two scoring engines are available.  ``engine="incremental"`` (the default)
scores through the bitmask engine of :mod:`repro.encoding.score`: appending a
column updates cached per-implicant face masks instead of rescanning every
assigned column, and the refinement phase patches the cached product-term
group decomposition per move instead of re-estimating the whole machine.
``engine="reference"`` keeps the original string-based full rescans; both
engines consume the random stream identically and return **bit-identical**
results, so the reference engine doubles as the parity oracle and the
benchmark baseline.

``multi_start=M`` runs ``M`` independent searches (seeds ``seed .. seed+M-1``)
in order and keeps the best result, selected by a deterministic key.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from ..fsm.machine import FSM
from ..lfsr.lfsr import LFSR
from ..lfsr.polynomial import primitive_polynomials
from ..logic.symbolic import SymbolicImplicant, symbolic_minimize
from .assignment import StateEncoding
from .cost import (
    estimate_product_terms,
    first_column_incompatibility,
    partial_assignment_cost,
)
from .score import BeamScorer, FSMBitmaps, PartialScore, ScoredEncoding

__all__ = ["MISRAssignmentResult", "assign_misr_states"]

_ENGINES = ("incremental", "reference")


@dataclass(frozen=True)
class MISRAssignmentResult:
    """Result of the MISR-targeted state assignment.

    Attributes:
        encoding: the injective state encoding found.
        lfsr: the register with the chosen primitive feedback polynomial.
        cost: final incompatibility cost of the encoding.
        column_costs: cost after each assigned column (monotone non-decreasing).
        feedback_cost: ``y_1`` incompatibility count of the chosen polynomial.
        partial_assignments_explored: how many candidate partitions were scored.
    """

    encoding: StateEncoding
    lfsr: LFSR
    cost: int
    column_costs: Tuple[int, ...]
    feedback_cost: int
    partial_assignments_explored: int
    estimated_product_terms: int
    refinement_moves: int


@dataclass
class _Partial:
    prefixes: Dict[str, str]
    cost: int
    column_costs: List[int] = field(default_factory=list)
    score: Optional[PartialScore] = None


def assign_misr_states(
    fsm: FSM,
    width: Optional[int] = None,
    beam_width: int = 4,
    partitions_per_column: int = 8,
    seed: int = 0,
    implicants: Optional[Sequence[SymbolicImplicant]] = None,
    max_polynomials: int = 16,
    refinement_passes: int = 3,
    refinement_moves_per_pass: int = 400,
    register: str = "misr",
    input_weight: int = 2,
    output_weight: int = 1,
    engine: str = "incremental",
    multi_start: int = 1,
) -> MISRAssignmentResult:
    """Assign state codes for a controller with a MISR state register.

    Args:
        fsm: the machine to encode.
        width: number of state variables (defaults to ``ceil(log2 |S|)``, the
            minimum, since widening the self-test register is expensive).
        beam_width: number of partial assignments kept after every column.
        partitions_per_column: number of candidate partitions generated per
            partial assignment and column (the ``k`` of the paper).
        seed: seed for the randomised tie-breaking of candidate generation.
        implicants: pre-computed symbolic implicants (recomputed otherwise).
        max_polynomials: number of primitive feedback polynomials examined.
        refinement_passes: code-swap hill-climbing passes run on the best
            assignment, guided by the product-term estimator of
            :func:`repro.encoding.cost.estimate_product_terms`.  Zero disables
            the refinement.
        refinement_moves_per_pass: swap candidates evaluated per pass (bounds
            the refinement effort on machines with many states).
        register: excitation rule of the cost model — ``"misr"`` (the paper's
            ``y_i = s_i+ XOR s_{i-1}``) or ``"dff"`` (``y_i = s_i+``, the
            ablation baseline; the returned polynomial is informational only).
        input_weight: weight of the input (face) incompatibility term.
        output_weight: weight of the output (excitation) incompatibility term.
        engine: ``"incremental"`` for the bitmask scoring engine of
            :mod:`repro.encoding.score`, ``"reference"`` for the original
            full-rescore implementation.  Both return bit-identical results.
        multi_start: number of independent searches (seeds ``seed`` through
            ``seed + multi_start - 1``), run in order; the best result wins.
    """
    r = width if width is not None else fsm.min_code_bits
    if (1 << r) < fsm.num_states:
        raise ValueError(f"width {r} cannot encode {fsm.num_states} states")
    if beam_width < 1 or partitions_per_column < 1:
        raise ValueError("beam_width and partitions_per_column must be >= 1")
    if register not in ("misr", "dff"):
        raise ValueError(f"unknown register type {register!r}")
    if engine not in _ENGINES:
        raise ValueError(f"unknown engine {engine!r}; expected one of {_ENGINES}")
    if multi_start < 1:
        raise ValueError("multi_start must be >= 1")

    imps = tuple(implicants) if implicants is not None else tuple(symbolic_minimize(fsm))

    results = [
        _assign_single(
            fsm, r, beam_width, partitions_per_column, seed + start, imps,
            max_polynomials, refinement_passes, refinement_moves_per_pass,
            register, input_weight, output_weight, engine,
        )
        for start in range(multi_start)
    ]
    # Deterministic winner: best estimate, then cost, then the earliest start.
    return min(
        enumerate(results),
        key=lambda item: (
            item[1].estimated_product_terms,
            item[1].cost,
            item[1].feedback_cost,
            item[0],
        ),
    )[1]


def _assign_single(
    fsm: FSM,
    r: int,
    beam_width: int,
    partitions_per_column: int,
    seed: int,
    imps: Sequence[SymbolicImplicant],
    max_polynomials: int,
    refinement_passes: int,
    refinement_moves_per_pass: int,
    register: str,
    input_weight: int,
    output_weight: int,
    engine: str,
) -> MISRAssignmentResult:
    states = list(fsm.states)
    rng = random.Random(seed)
    mode = "pst" if register == "misr" else "dff"

    scorer: Optional[BeamScorer] = None
    if engine == "incremental":
        scorer = BeamScorer(FSMBitmaps(states, imps), register, input_weight, output_weight)

    beam: List[_Partial] = [
        _Partial({s: "" for s in states}, 0, [], scorer.initial() if scorer else None)
    ]
    explored = 0

    for column in range(r):
        candidates: List[_Partial] = []
        best_cost_so_far: Optional[int] = None
        for partial in beam:
            partitions = _candidate_partitions(
                states, partial.prefixes, imps, column, r, partitions_per_column, rng
            )
            for partition in partitions:
                explored += 1
                prefixes = {s: partial.prefixes[s] + partition[s] for s in states}
                if scorer is not None:
                    score, cost = scorer.append_column(partial.score, partition)
                else:
                    score = None
                    cost = partial_assignment_cost(
                        imps, prefixes, column, register, input_weight, output_weight
                    )
                # Branch-and-bound pruning: the cost is monotone in the number
                # of assigned columns, so partials already worse than the best
                # candidate cannot recover.
                if best_cost_so_far is not None and cost > best_cost_so_far + _PRUNE_SLACK:
                    continue
                if best_cost_so_far is None or cost < best_cost_so_far:
                    best_cost_so_far = cost
                candidates.append(
                    _Partial(prefixes, cost, partial.column_costs + [cost], score)
                )
        if not candidates:
            raise RuntimeError("no feasible partition found; width too small?")
        candidates.sort(key=lambda p: (p.cost, _prefix_signature(p.prefixes, states)))
        beam = _dedupe(candidates, states)[:beam_width]

    # Among the surviving beam entries, keep the one with the best *estimated*
    # product-term count (the incompatibility cost is only a guide during the
    # column-wise construction).
    scored_beam: List[Tuple[int, _Partial, LFSR, int]] = []
    for candidate in beam:
        candidate_encoding = StateEncoding(r, dict(candidate.prefixes))
        lfsr, feedback_cost = _choose_feedback_polynomial(
            candidate_encoding, imps, r, max_polynomials
        )
        estimate = _estimate(fsm, candidate_encoding, lfsr, mode, engine)
        scored_beam.append((estimate, candidate, lfsr, feedback_cost))
    scored_beam.sort(key=lambda item: item[0])
    best_estimate, best, lfsr, feedback_cost = scored_beam[0]
    encoding = StateEncoding(r, dict(best.prefixes))

    encoding, best_estimate, moves = _refine_encoding(
        fsm,
        encoding,
        lfsr,
        best_estimate,
        refinement_passes,
        refinement_moves_per_pass,
        rng,
        mode,
        engine,
    )
    # The feedback polynomial is re-selected for the refined code assignment,
    # this time directly on the product-term estimate.
    for poly in primitive_polynomials(r, limit=max_polynomials):
        candidate_lfsr = LFSR(r, poly)
        estimate = _estimate(fsm, encoding, candidate_lfsr, mode, engine)
        if estimate < best_estimate:
            best_estimate = estimate
            lfsr = candidate_lfsr
    feedback_bits = {state: lfsr.feedback(encoding.code_of(state)) for state in encoding.states()}
    feedback_cost = first_column_incompatibility(imps, encoding, feedback_bits)

    return MISRAssignmentResult(
        encoding=encoding,
        lfsr=lfsr,
        cost=best.cost + feedback_cost,
        column_costs=tuple(best.column_costs),
        feedback_cost=feedback_cost,
        partial_assignments_explored=explored,
        estimated_product_terms=best_estimate,
        refinement_moves=moves,
    )


_PRUNE_SLACK = 2  # candidates this much above the column best are discarded


def _estimate(
    fsm: FSM, encoding: StateEncoding, lfsr: LFSR, mode: str, engine: str
) -> int:
    """Full product-term estimate through the selected engine."""
    if engine == "incremental":
        return ScoredEncoding(fsm, encoding, lfsr, mode).estimate
    return estimate_product_terms(fsm, encoding, lfsr, mode)


# ----------------------------------------------------------- candidate moves


def _candidate_partitions(
    states: Sequence[str],
    prefixes: Mapping[str, str],
    implicants: Sequence[SymbolicImplicant],
    column: int,
    width: int,
    count: int,
    rng: random.Random,
) -> List[Dict[str, str]]:
    """Generate candidate 0/1 partitions of the states for one column.

    Partitions respect the capacity constraint that keeps the final encoding
    injective: states sharing a code prefix may not exceed the remaining code
    space on either side of the split.
    """
    capacity = 1 << (width - column - 1)
    partitions: List[Dict[str, str]] = []
    signatures = set()

    # Importance of a state: how often it appears in multi-state groups.
    weight: Dict[str, int] = {s: 0 for s in states}
    for imp in implicants:
        if imp.group_size >= 2:
            for s in imp.present_states:
                weight[s] += 1

    strategies = []
    strategies.append(("cohesion", 0.0))
    strategies.append(("cohesion", 0.25))
    strategies.append(("balance", 0.0))
    while len(strategies) < count:
        strategies.append(("random", rng.random()))

    for kind, noise in strategies[:count]:
        partition = _greedy_partition(
            states, prefixes, implicants, capacity, weight, kind, noise, rng
        )
        signature = tuple(partition[s] for s in states)
        # The complementary partition encodes the same structure (codes are
        # unique up to complementing a column), so canonicalise on the first
        # state's bit to avoid wasting beam slots.
        if signature[0] == "1":
            partition = {s: ("1" if b == "0" else "0") for s, b in partition.items()}
            signature = tuple(partition[s] for s in states)
        if signature not in signatures:
            signatures.add(signature)
            partitions.append(partition)
    return partitions


def _greedy_partition(
    states: Sequence[str],
    prefixes: Mapping[str, str],
    implicants: Sequence[SymbolicImplicant],
    capacity: int,
    weight: Mapping[str, int],
    kind: str,
    noise: float,
    rng: random.Random,
) -> Dict[str, str]:
    order = list(states)
    if kind == "random":
        rng.shuffle(order)
    else:
        order.sort(key=lambda s: (-weight[s], s))

    counts: Dict[Tuple[str, str], int] = {}
    assignment: Dict[str, str] = {}

    groups = [imp.present_states for imp in implicants if imp.group_size >= 2]

    for state in order:
        prefix = prefixes[state]
        allowed = [
            bit
            for bit in ("0", "1")
            if counts.get((prefix, bit), 0) < capacity
        ]
        if not allowed:
            raise RuntimeError("capacity constraint violated; inconsistent partition state")
        if len(allowed) == 1:
            bit = allowed[0]
        else:
            bit = _prefer_bit(state, assignment, groups, kind, noise, counts, prefix, rng)
        assignment[state] = bit
        counts[(prefix, bit)] = counts.get((prefix, bit), 0) + 1
    return assignment


def _prefer_bit(
    state: str,
    assignment: Mapping[str, str],
    groups: Sequence[frozenset],
    kind: str,
    noise: float,
    counts: Mapping[Tuple[str, str], int],
    prefix: str,
    rng: random.Random,
) -> str:
    if kind == "random" or (noise and rng.random() < noise):
        return rng.choice("01")
    votes = {"0": 0, "1": 0}
    for group in groups:
        if state not in group:
            continue
        for other in group:
            bit = assignment.get(other)
            if bit is not None:
                votes[bit] += 1
    if kind == "balance" or votes["0"] == votes["1"]:
        # Prefer the emptier side to keep the code space balanced.
        zero_count = counts.get((prefix, "0"), 0)
        one_count = counts.get((prefix, "1"), 0)
        if zero_count != one_count:
            return "0" if zero_count < one_count else "1"
        return rng.choice("01")
    return "0" if votes["0"] > votes["1"] else "1"


def _dedupe(candidates: List[_Partial], states: Sequence[str]) -> List[_Partial]:
    seen = set()
    unique: List[_Partial] = []
    for candidate in candidates:
        signature = _prefix_signature(candidate.prefixes, states)
        if signature not in seen:
            seen.add(signature)
            unique.append(candidate)
    return unique


def _prefix_signature(prefixes: Mapping[str, str], states: Sequence[str]) -> Tuple[str, ...]:
    return tuple(prefixes[s] for s in states)


# -------------------------------------------------------- refinement phase


def _refine_encoding(
    fsm: FSM,
    encoding: StateEncoding,
    lfsr: LFSR,
    current_estimate: int,
    passes: int,
    moves_per_pass: int,
    rng: random.Random,
    mode: str,
    engine: str,
) -> Tuple[StateEncoding, int, int]:
    """Hill-climb on code swaps, guided by the product-term estimator.

    Two move types are tried: swapping the codes of two states, and moving a
    state onto an unused code.  A move is accepted when it strictly lowers the
    estimated product-term count.  The number of candidate moves per pass is
    bounded so that machines with many states stay tractable.

    With the incremental engine the estimator state lives in a
    :class:`repro.encoding.score.ScoredEncoding`: each candidate move is
    previewed by re-deriving only the product-term groups containing the
    touched states, and committed only when accepted.
    """
    if passes <= 0:
        return encoding, current_estimate, 0

    codes = dict(encoding.codes)
    states = list(codes)
    width = encoding.width
    used = set(codes.values())
    accepted = 0

    scored: Optional[ScoredEncoding] = None
    if engine == "incremental":
        scored = ScoredEncoding(fsm, encoding, lfsr, mode)

    for _ in range(passes):
        improved = False
        moves = _swap_candidates(states, codes, width, moves_per_pass, rng)
        for kind, a, b in moves:
            if kind == "swap":
                changed = {a: codes[b], b: codes[a]}
            else:  # relocate state a onto a code that is (still) unused
                if b in used:
                    continue
                changed = {a: b}
            if scored is not None:
                estimate, patch = scored.preview(
                    {s: int(c, 2) for s, c in changed.items()}
                )
            else:
                trial = dict(codes)
                trial.update(changed)
                estimate = estimate_product_terms(
                    fsm, StateEncoding(width, trial), lfsr, mode
                )
                patch = None
            if estimate < current_estimate:
                used.difference_update(codes[s] for s in changed)
                codes.update(changed)
                used.update(changed.values())
                current_estimate = estimate
                accepted += 1
                improved = True
                if scored is not None:
                    scored.commit(patch)
        if not improved:
            break
    return StateEncoding(width, codes), current_estimate, accepted


#: Unused-code moves examined per pass once sampling kicks in (wide registers).
_UNUSED_SAMPLE_CAP = 64


def _swap_candidates(
    states: List[str],
    codes: Mapping[str, str],
    width: int,
    limit: int,
    rng: random.Random,
) -> List[Tuple[str, str, str]]:
    """Candidate refinement moves: ``("swap", s, t)`` or ``("move", s, code)``.

    The unused-code targets of the ``move`` kind are enumerated exhaustively
    only while the code space is small; for wide registers (where ``2**width``
    dwarfs the state count) a bounded random sample of unused codes is drawn
    instead, so move generation stays linear in the number of states.  At the
    minimum width the exhaustive branch is always taken, which keeps the
    random stream (and therefore the result) identical to the reference
    behaviour.
    """
    moves: List[Tuple[str, str, str]] = []
    for i, a in enumerate(states):
        for b in states[i + 1 :]:
            moves.append(("swap", a, b))
    used = set(codes.values())
    space = 1 << width
    bound = max(len(states), _UNUSED_SAMPLE_CAP)
    if space - len(used) <= bound:
        unused = [format(v, f"0{width}b") for v in range(space)]
        unused = [c for c in unused if c not in used]
    else:
        seen = set(used)
        unused = []
        while len(unused) < bound:
            code = format(rng.randrange(space), f"0{width}b")
            if code not in seen:
                seen.add(code)
                unused.append(code)
    for state in states:
        for code in unused:
            moves.append(("move", state, code))
    if len(moves) > limit:
        moves = rng.sample(moves, limit)
    else:
        rng.shuffle(moves)
    return moves


# -------------------------------------------------- feedback polynomial choice


def _choose_feedback_polynomial(
    encoding: StateEncoding,
    implicants: Sequence[SymbolicImplicant],
    width: int,
    max_polynomials: int,
) -> Tuple[LFSR, int]:
    best_lfsr: Optional[LFSR] = None
    best_cost = None
    for poly in primitive_polynomials(width, limit=max_polynomials):
        lfsr = LFSR(width, poly)
        feedback_bits = {
            state: lfsr.feedback(encoding.code_of(state)) for state in encoding.states()
        }
        cost = first_column_incompatibility(implicants, encoding, feedback_bits)
        # Secondary criterion: fewer taps means fewer XOR inputs in m(s).
        tie_break = len(lfsr.feedback_taps)
        key = (cost, tie_break, poly)
        if best_cost is None or key < best_cost:
            best_cost = key
            best_lfsr = lfsr
    assert best_lfsr is not None and best_cost is not None
    return best_lfsr, best_cost[0]
