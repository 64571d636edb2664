"""Multi-level literal estimation via algebraic common-cube extraction.

Table 3 of the paper reports a "number of literals" metric after multi-level
logic minimisation (the authors used *mustang* followed by misII).  This
module re-implements the part of that flow that the metric depends on: a
Boolean network with one node per output, optimised by greedy **common-cube
extraction** (the single-cube-divisor part of misII's ``fx``/``gcx``
commands), plus constant/duplicate clean-up.  The resulting factored-form
literal count is what the Table 3 benchmark harness reports.

The input is a minimised two-level :class:`~repro.logic.cover.Cover`; every
product term becomes a set of literals ``(variable, polarity)``.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from itertools import combinations
from typing import Dict, FrozenSet, Iterator, List, Optional, Sequence, Set, Tuple

from .cover import Cover
from .cube import Cube, ONE_FIELD

__all__ = ["BooleanNetwork", "NetworkNode", "build_network", "extract_common_cubes", "multilevel_literal_count"]


Literal = Tuple[str, int]  # (signal name, polarity) with polarity 1 = positive
Pair = Tuple[Literal, Literal]  # two literals in sorted order


@dataclass
class NetworkNode:
    """One node of the Boolean network: a sum of products over literals."""

    name: str
    terms: List[FrozenSet[Literal]] = field(default_factory=list)

    def literal_count(self) -> int:
        return sum(len(term) for term in self.terms)

    def copy(self) -> "NetworkNode":
        return NetworkNode(self.name, [frozenset(t) for t in self.terms])


@dataclass
class BooleanNetwork:
    """A multi-level network: primary-output nodes plus extracted divisors."""

    nodes: List[NetworkNode] = field(default_factory=list)

    def literal_count(self) -> int:
        """Total factored-form literal count over all nodes."""
        return sum(node.literal_count() for node in self.nodes)

    def node_names(self) -> List[str]:
        return [n.name for n in self.nodes]

    def copy(self) -> "BooleanNetwork":
        return BooleanNetwork([n.copy() for n in self.nodes])


def build_network(cover: Cover, input_names: Optional[Sequence[str]] = None,
                  output_names: Optional[Sequence[str]] = None) -> BooleanNetwork:
    """Build a one-node-per-output network from a two-level cover."""
    if input_names is None:
        input_names = [f"x{i}" for i in range(cover.num_inputs)]
    if output_names is None:
        output_names = [f"f{i}" for i in range(cover.num_outputs)]
    if len(input_names) != cover.num_inputs or len(output_names) != cover.num_outputs:
        raise ValueError("name lists must match the cover dimensions")

    network = BooleanNetwork()
    for out in range(cover.num_outputs):
        node = NetworkNode(output_names[out])
        for cube in cover.cubes_for_output(out):
            term = _cube_to_term(cube, input_names)
            if term is not None:
                node.terms.append(term)
        network.nodes.append(node)
    return network


def _cube_to_term(cube: Cube, input_names: Sequence[str]) -> Optional[FrozenSet[Literal]]:
    if not cube.is_input_valid():
        return None  # contradictory cube contributes nothing
    return frozenset(
        (input_names[var], 1 if cube.input_literal(var) == ONE_FIELD else 0)
        for var in cube.specified_vars()
    )


def _pairs_with(changed: List[Literal], kept: FrozenSet[Literal]) -> Iterator[Pair]:
    """The pairs of ``changed`` (sorted) with each other and with ``kept``.

    When a rewrite swaps literals of a term, exactly these pairs appear in
    (or vanish from) it; the pairs within ``kept`` are untouched.
    """
    for literal in changed:
        for other in kept:
            yield (literal, other) if literal < other else (other, literal)
    yield from combinations(changed, 2)


def extract_common_cubes(
    network: BooleanNetwork, min_occurrences: int = 2, max_divisors: int = 200
) -> BooleanNetwork:
    """Greedy common-cube extraction.

    Repeatedly finds the literal pair occurring in the most product terms
    (across all nodes), introduces a new divisor node for it and substitutes
    it into every term that contains both literals.  Extraction stops when no
    pair saves literals any more or ``max_divisors`` have been created.

    The literal-count gain of extracting a pair occurring ``n`` times is
    ``n * 2 - (n + 2)`` = ``n - 2``: every occurrence is replaced by one
    literal (the divisor output) and the divisor itself costs two literals.

    Pair counts are counted once and then kept up to date: rewriting a term
    decrements the pairs it loses and increments the pairs it gains, and the
    new divisor node's own term is counted like any other.  A literal index
    finds the terms holding both literals of the chosen pair without a scan.
    The pick is the highest count, ties broken by the lexicographically
    smallest pair, read off a max-heap of ``(-count, pair)`` entries whose
    stale entries (count changed since the push) are skipped.
    """
    result = network.copy()
    counts: Dict[Pair, int] = {}
    # Positions (node index, term index) of the terms holding each literal.
    holders: Dict[Literal, Set[Tuple[int, int]]] = {}

    def index_term(n: int, t: int, term: FrozenSet[Literal]) -> List[Pair]:
        for literal in term:
            holders.setdefault(literal, set()).add((n, t))
        pairs = list(combinations(sorted(term), 2))
        for pair in pairs:
            counts[pair] = counts.get(pair, 0) + 1
        return pairs

    for n, node in enumerate(result.nodes):
        for t, term in enumerate(node.terms):
            index_term(n, t, term)
    # Only a pair occurring three times or more saves literals (gain
    # ``n - 2``), so only those enter the heap.
    heap = [(-count, pair) for pair, count in counts.items() if count > 2]
    heapq.heapify(heap)

    divisor_index = 0
    while divisor_index < max_divisors:
        best_pair: Optional[Pair] = None
        best_count = 0
        while heap:
            negative, pair = heap[0]
            if counts[pair] == -negative:
                best_pair, best_count = pair, -negative
                break
            heapq.heappop(heap)  # stale: the count changed since the push
        if best_pair is None or best_count < min_occurrences or best_count - 2 <= 0:
            break

        divisor_name = f"_d{divisor_index}"
        divisor_index += 1
        divisor_literals = frozenset(best_pair)
        new_literal: Literal = (divisor_name, 1)
        first, second = best_pair
        changed: Dict[Pair, None] = {}  # insertion-ordered set
        for n, t in sorted(holders[first] & holders[second]):
            term = result.nodes[n].terms[t]
            new_term = frozenset((term - divisor_literals) | {new_literal})
            result.nodes[n].terms[t] = new_term
            kept = term & new_term
            lost, gained = sorted(term - new_term), sorted(new_term - term)
            for pair in _pairs_with(lost, kept):
                counts[pair] -= 1
                changed[pair] = None
            for pair in _pairs_with(gained, kept):
                counts[pair] = counts.get(pair, 0) + 1
                changed[pair] = None
            for literal in lost:
                holders[literal].discard((n, t))
            for literal in gained:
                holders.setdefault(literal, set()).add((n, t))
        result.nodes.append(NetworkNode(divisor_name, [divisor_literals]))
        for pair in index_term(len(result.nodes) - 1, 0, divisor_literals):
            changed[pair] = None
        # One fresh entry per changed pair that could still be picked.
        for pair in changed:
            if counts[pair] > 2:
                heapq.heappush(heap, (-counts[pair], pair))
    return result


def multilevel_literal_count(
    cover: Cover,
    input_names: Optional[Sequence[str]] = None,
    output_names: Optional[Sequence[str]] = None,
) -> int:
    """Factored-form literal count of a cover after common-cube extraction."""
    network = build_network(cover, input_names, output_names)
    optimised = extract_common_cubes(network)
    return optimised.literal_count()
