"""Random state encodings and the random-search baseline of Table 2.

The paper compares its heuristic MISR state assignment against "the best of
50 randomly selected encodings" because no other assignment algorithm for
signature-register state registers existed.  This module provides

* :func:`random_encoding` — one uniformly random injective encoding,
* :func:`random_search` — evaluate ``trials`` random encodings with an
  arbitrary cost callback and report the average, the best value and the best
  encoding, which is exactly the baseline reported in Table 2.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable, List, Optional, Tuple

from ..fsm.machine import FSM
from .assignment import StateEncoding

__all__ = ["RandomSearchResult", "random_encoding", "random_search"]


@dataclass(frozen=True)
class RandomSearchResult:
    """Statistics over a set of randomly drawn encodings."""

    costs: Tuple[float, ...]
    best_cost: float
    best_encoding: StateEncoding

    @property
    def average_cost(self) -> float:
        return sum(self.costs) / len(self.costs) if self.costs else float("nan")

    @property
    def trials(self) -> int:
        return len(self.costs)


def random_encoding(fsm: FSM, width: Optional[int] = None, seed: int = 0) -> StateEncoding:
    """Draw one uniformly random injective encoding of the machine's states."""
    r = width if width is not None else fsm.min_code_bits
    if (1 << r) < fsm.num_states:
        raise ValueError(f"width {r} cannot encode {fsm.num_states} states")
    rng = random.Random(seed)
    codes = rng.sample(range(1 << r), fsm.num_states)
    return StateEncoding(r, {state: format(code, f"0{r}b") for state, code in zip(fsm.states, codes)})


def random_search(
    fsm: FSM,
    evaluate: Callable[[StateEncoding], float],
    trials: int = 50,
    width: Optional[int] = None,
    seed: int = 0,
) -> RandomSearchResult:
    """Evaluate ``trials`` random encodings and keep the best one.

    Args:
        fsm: the machine to encode.
        evaluate: cost callback (smaller is better); in the Table 2 experiment
            this synthesises the PST structure and returns the product-term
            count after two-level minimisation.
        trials: number of random encodings (the paper uses 50).
        width: code width (defaults to the minimum).
        seed: base seed; trial ``i`` uses ``seed + i``.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    costs: List[float] = []
    best_cost: Optional[float] = None
    best_encoding: Optional[StateEncoding] = None
    for i in range(trials):
        encoding = random_encoding(fsm, width=width, seed=seed + i)
        cost = evaluate(encoding)
        costs.append(cost)
        if best_cost is None or cost < best_cost:
            best_cost = cost
            best_encoding = encoding
    assert best_cost is not None and best_encoding is not None
    return RandomSearchResult(tuple(costs), best_cost, best_encoding)
