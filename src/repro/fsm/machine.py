"""Symbolic finite state machine model.

The paper describes controllers by their state transition graph (STG): a set
of symbolic states, a reset state and a list of transitions.  Each transition
is guarded by a *cube* over the primary inputs (a string over ``0``, ``1`` and
``-`` where ``-`` means "input value irrelevant") and produces an output cube
over the primary outputs (``-`` in the output means "don't care").

This module provides the :class:`Transition` and :class:`FSM` data structures
used by every other subsystem (state assignment, excitation-function
derivation, logic minimisation and the gate-level self-test simulation).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterable, Iterator, List, Optional, Sequence, Set, Tuple

__all__ = [
    "Transition",
    "FSM",
    "FSMError",
    "cube_matches",
    "cubes_intersect",
    "expand_cube",
    "cube_minterm_count",
]


class FSMError(ValueError):
    """Raised when an FSM description is malformed or used inconsistently."""


def _check_cube(cube: str, width: int, what: str) -> str:
    if len(cube) != width:
        raise FSMError(f"{what} cube {cube!r} has length {len(cube)}, expected {width}")
    for ch in cube:
        if ch not in "01-":
            raise FSMError(f"{what} cube {cube!r} contains invalid character {ch!r}")
    return cube


def cube_matches(cube: str, minterm: str) -> bool:
    """Return ``True`` if the fully specified ``minterm`` is contained in ``cube``.

    >>> cube_matches("1-0", "110")
    True
    >>> cube_matches("1-0", "011")
    False
    """
    if len(cube) != len(minterm):
        raise FSMError("cube and minterm must have the same width")
    return all(c in ("-", m) for c, m in zip(cube, minterm))


def cubes_intersect(a: str, b: str) -> bool:
    """Return ``True`` if two input cubes share at least one minterm."""
    if len(a) != len(b):
        raise FSMError("cubes must have the same width")
    return all(x == "-" or y == "-" or x == y for x, y in zip(a, b))


def expand_cube(cube: str) -> Iterator[str]:
    """Yield every minterm covered by ``cube`` (exponential in the dash count)."""
    dash_positions = [i for i, ch in enumerate(cube) if ch == "-"]
    if not dash_positions:
        yield cube
        return
    chars = list(cube)
    for value in range(1 << len(dash_positions)):
        for bit, pos in enumerate(dash_positions):
            chars[pos] = "1" if (value >> bit) & 1 else "0"
        yield "".join(chars)


def cube_minterm_count(cube: str) -> int:
    """Number of minterms covered by ``cube``."""
    return 1 << sum(1 for ch in cube if ch == "-")


@dataclass(frozen=True)
class Transition:
    """One edge of the state transition graph.

    Attributes:
        inputs: input cube over ``{0, 1, -}`` guarding the transition.
        present: symbolic present state name.
        next: symbolic next state name (``"*"`` marks an unspecified next
            state, as allowed by the KISS2 format).
        outputs: output cube over ``{0, 1, -}`` asserted during the transition.
    """

    inputs: str
    present: str
    next: str
    outputs: str

    def matches(self, input_vector: str) -> bool:
        """Return ``True`` if ``input_vector`` activates this transition."""
        return cube_matches(self.inputs, input_vector)


class FSM:
    """A symbolic Mealy finite state machine.

    Args:
        name: benchmark-style name of the machine.
        num_inputs: number of primary input bits.
        num_outputs: number of primary output bits.
        transitions: iterable of :class:`Transition`.
        reset_state: name of the reset state; defaults to the present state of
            the first transition.
        states: optional explicit state ordering.  States referenced by
            transitions but missing from this list are appended in order of
            first appearance.
    """

    def __init__(
        self,
        name: str,
        num_inputs: int,
        num_outputs: int,
        transitions: Iterable[Transition],
        reset_state: Optional[str] = None,
        states: Optional[Sequence[str]] = None,
    ) -> None:
        self.name = name
        self.num_inputs = int(num_inputs)
        self.num_outputs = int(num_outputs)
        if self.num_inputs < 0 or self.num_outputs < 0:
            raise FSMError("input/output counts must be non-negative")

        self._transitions: List[Transition] = []
        ordered_states: List[str] = list(states) if states else []
        seen: Set[str] = set(ordered_states)
        if len(seen) != len(ordered_states):
            raise FSMError("duplicate state names in explicit state list")

        for t in transitions:
            _check_cube(t.inputs, self.num_inputs, "input")
            _check_cube(t.outputs, self.num_outputs, "output")
            self._transitions.append(t)
            for s in (t.present, t.next):
                if s != "*" and s not in seen:
                    seen.add(s)
                    ordered_states.append(s)

        if not ordered_states:
            raise FSMError(f"FSM {name!r} has no states")
        self._states: Tuple[str, ...] = tuple(ordered_states)
        self._state_index: Dict[str, int] = {s: i for i, s in enumerate(self._states)}

        if reset_state is None:
            reset_state = self._transitions[0].present if self._transitions else self._states[0]
        if reset_state not in self._state_index:
            raise FSMError(f"reset state {reset_state!r} is not a state of {name!r}")
        self.reset_state = reset_state

        self._by_present: Dict[str, List[Transition]] = {s: [] for s in self._states}
        for t in self._transitions:
            self._by_present[t.present].append(t)

    # ------------------------------------------------------------------ basic
    @property
    def states(self) -> Tuple[str, ...]:
        """Ordered tuple of symbolic state names."""
        return self._states

    @property
    def transitions(self) -> Tuple[Transition, ...]:
        return tuple(self._transitions)

    @property
    def num_states(self) -> int:
        return len(self._states)

    @property
    def min_code_bits(self) -> int:
        """Minimal number of state variables ``r0 = ceil(log2 |S|)``."""
        return max(1, math.ceil(math.log2(self.num_states)))

    def state_index(self, state: str) -> int:
        try:
            return self._state_index[state]
        except KeyError as exc:
            raise FSMError(f"unknown state {state!r} in FSM {self.name!r}") from exc

    def transitions_from(self, state: str) -> Tuple[Transition, ...]:
        """All transitions whose present state is ``state``."""
        if state not in self._by_present:
            raise FSMError(f"unknown state {state!r} in FSM {self.name!r}")
        return tuple(self._by_present[state])

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"FSM(name={self.name!r}, states={self.num_states}, inputs={self.num_inputs}, "
            f"outputs={self.num_outputs}, transitions={len(self._transitions)})"
        )

    # ------------------------------------------------------------- behaviour
    def lookup(self, state: str, input_vector: str) -> Tuple[Optional[str], str]:
        """Return ``(next_state, output_cube)`` for a fully specified input.

        If several transitions match (non-deterministic description) the first
        one in specification order wins, mirroring the behaviour of the MCNC
        tools.  If no transition matches, ``(None, "-" * num_outputs)`` is
        returned: the next state and outputs are unspecified (don't care).
        """
        _check_cube(input_vector, self.num_inputs, "input")
        if "-" in input_vector:
            raise FSMError("lookup requires a fully specified input vector")
        for t in self.transitions_from(state):
            if t.matches(input_vector):
                nxt = None if t.next == "*" else t.next
                return nxt, t.outputs
        return None, "-" * self.num_outputs

    def simulate(self, input_sequence: Sequence[str], start: Optional[str] = None) -> List[Tuple[str, str]]:
        """Simulate the symbolic machine on fully specified input vectors.

        Returns the list of ``(next_state, output)`` pairs.  Unspecified next
        states terminate the simulation (the machine behaviour is undefined
        beyond that point); unspecified output bits are reported as ``-``.
        """
        state = start if start is not None else self.reset_state
        trace: List[Tuple[str, str]] = []
        for vector in input_sequence:
            nxt, out = self.lookup(state, vector)
            if nxt is None:
                trace.append((state, out))
                break
            trace.append((nxt, out))
            state = nxt
        return trace

    # -------------------------------------------------------------- analysis
    def is_deterministic(self) -> bool:
        """``True`` if no two transitions of a state overlap on inputs."""
        for state in self._states:
            ts = self._by_present[state]
            for i in range(len(ts)):
                for j in range(i + 1, len(ts)):
                    if cubes_intersect(ts[i].inputs, ts[j].inputs):
                        return False
        return True

    def is_completely_specified(self) -> bool:
        """``True`` if every state covers all ``2**num_inputs`` input minterms."""
        for state in self._states:
            cubes = [t.inputs for t in self._by_present[state]]
            if not _cubes_cover_everything(cubes, self.num_inputs):
                return False
        return True

    def reachable_states(self, start: Optional[str] = None) -> FrozenSet[str]:
        """Set of states reachable from ``start`` (default: reset state)."""
        start = start if start is not None else self.reset_state
        self.state_index(start)
        frontier = [start]
        reached: Set[str] = {start}
        while frontier:
            state = frontier.pop()
            for t in self._by_present[state]:
                if t.next != "*" and t.next not in reached:
                    reached.add(t.next)
                    frontier.append(t.next)
        return frozenset(reached)

    def is_strongly_connected(self) -> bool:
        """``True`` if every state can reach every other state.

        Strong connectivity matters for the PST structure: because self-test
        mode equals system mode, all system states stay reachable during the
        self-test exactly when the STG is strongly connected from the reset
        state onwards.
        """
        all_states = set(self._states)
        return all(self.reachable_states(s) == all_states for s in self._states)

    def used_input_columns(self) -> List[int]:
        """Indices of input bits that are not ``-`` in every transition."""
        used = []
        for col in range(self.num_inputs):
            if any(t.inputs[col] != "-" for t in self._transitions):
                used.append(col)
        return used

    def transition_count_matrix(self) -> Dict[Tuple[str, str], int]:
        """Number of specified transitions between each (present, next) pair."""
        counts: Dict[Tuple[str, str], int] = {}
        for t in self._transitions:
            if t.next == "*":
                continue
            key = (t.present, t.next)
            counts[key] = counts.get(key, 0) + 1
        return counts

    # ------------------------------------------------------------ transforms
    def renamed(self, mapping: Dict[str, str], name: Optional[str] = None) -> "FSM":
        """Return a copy with states renamed according to ``mapping``.

        States missing from ``mapping`` keep their name.  The mapping must not
        merge two distinct states.
        """
        new_names = [mapping.get(s, s) for s in self._states]
        if len(set(new_names)) != len(new_names):
            raise FSMError("renaming would merge distinct states")
        convert = {s: mapping.get(s, s) for s in self._states}
        transitions = [
            Transition(
                t.inputs,
                convert[t.present],
                "*" if t.next == "*" else convert[t.next],
                t.outputs,
            )
            for t in self._transitions
        ]
        return FSM(
            name if name is not None else self.name,
            self.num_inputs,
            self.num_outputs,
            transitions,
            reset_state=convert[self.reset_state],
            states=new_names,
        )

    def completed(self, default_next: Optional[str] = None) -> "FSM":
        """Return a completely specified copy.

        Missing (state, input) combinations are given a single catch-all
        transition per state whenever possible; the next state defaults to
        ``default_next`` (or stays unspecified ``"*"`` when ``None``) and all
        outputs are don't cares.  Already complete machines are returned
        unchanged (same object).
        """
        if self.is_completely_specified():
            return self
        if default_next is not None:
            self.state_index(default_next)
        extra: List[Transition] = []
        for state in self._states:
            specified = [t.inputs for t in self._by_present[state]]
            for cube in _complement_cubes(specified, self.num_inputs):
                extra.append(
                    Transition(
                        cube,
                        state,
                        default_next if default_next is not None else "*",
                        "-" * self.num_outputs,
                    )
                )
        return FSM(
            self.name,
            self.num_inputs,
            self.num_outputs,
            list(self._transitions) + extra,
            reset_state=self.reset_state,
            states=self._states,
        )

def _cubes_cover_everything(cubes: List[str], width: int) -> bool:
    """``True`` if the union of the cubes is the whole input space.

    Implemented as a recursive Shannon-expansion tautology check so that wide
    input spaces (dozens of inputs) never require minterm enumeration.
    """
    if width == 0:
        return bool(cubes)
    if not cubes:
        return False
    if any(all(ch == "-" for ch in cube) for cube in cubes):
        return True
    split_var = next(
        (v for v in range(width) if any(cube[v] != "-" for cube in cubes)), None
    )
    if split_var is None:
        return bool(cubes)
    for value in "01":
        branch = [
            cube[:split_var] + "-" + cube[split_var + 1 :]
            for cube in cubes
            if cube[split_var] in ("-", value)
        ]
        if not _cubes_cover_everything(branch, width):
            return False
    return True


def _complement_cubes(cubes: List[str], width: int) -> List[str]:
    """Cubes covering exactly the input space *not* covered by ``cubes``."""
    if width == 0:
        return [] if cubes else [""]
    if not cubes:
        return ["-" * width]
    if any(all(ch == "-" for ch in cube) for cube in cubes):
        return []
    split_var = next(v for v in range(width) if any(cube[v] != "-" for cube in cubes))
    result: List[str] = []
    for value in "01":
        branch = [
            cube[:split_var] + "-" + cube[split_var + 1 :]
            for cube in cubes
            if cube[split_var] in ("-", value)
        ]
        for comp in _complement_cubes(branch, width):
            result.append(comp[:split_var] + value + comp[split_var + 1 :])
    return result
