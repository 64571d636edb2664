"""Property-based tests (hypothesis) for the core data structures and invariants."""

from __future__ import annotations

import math

from hypothesis import given, settings, strategies as st

from repro.encoding import StateEncoding, random_encoding
from repro.flow import fsm_digest
from repro.fsm import generate_controller, generate_random_fsm, parse_kiss, write_kiss
from repro.fsm.machine import _complement_cubes, _cubes_cover_everything, expand_cube
from repro.lfsr import LFSR, MISR, is_primitive, primitive_polynomials
from repro.logic import Cover, Cube, minimize


# --------------------------------------------------------------------------
# Strategies
# --------------------------------------------------------------------------

def cube_strings(width: int):
    return st.text(alphabet="01-", min_size=width, max_size=width)


@st.composite
def small_covers(draw):
    width = draw(st.integers(min_value=1, max_value=4))
    num_outputs = draw(st.integers(min_value=1, max_value=2))
    num_cubes = draw(st.integers(min_value=1, max_value=6))
    cover = Cover(width, num_outputs)
    for _ in range(num_cubes):
        inputs = draw(cube_strings(width))
        outputs = draw(st.text(alphabet="01", min_size=num_outputs, max_size=num_outputs))
        if "1" not in outputs:
            outputs = "1" + outputs[1:]
        cover.add(Cube.from_strings(inputs, outputs))
    return cover


# --------------------------------------------------------------------------
# Cube algebra
# --------------------------------------------------------------------------


class TestCubeProperties:
    @given(cube_strings(4))
    def test_string_roundtrip(self, text):
        cube = Cube.from_strings(text, "1")
        assert cube.input_string() == text

    @given(cube_strings(4), cube_strings(4))
    def test_containment_implies_intersection(self, a, b):
        ca, cb = Cube.from_strings(a, "1"), Cube.from_strings(b, "1")
        if ca.input_contains(cb):
            assert ca.inputs_intersect(cb)

    @given(cube_strings(4))
    def test_minterm_count_matches_enumeration(self, text):
        cube = Cube.from_strings(text, "1")
        assert cube.minterm_count() == len(list(cube.enumerate_minterms()))

    @given(cube_strings(4), st.integers(min_value=0, max_value=3))
    def test_raising_only_grows_the_cube(self, text, var):
        cube = Cube.from_strings(text, "1")
        raised = cube.raise_input(var)
        assert raised.input_contains(cube)
        assert raised.minterm_count() >= cube.minterm_count()


# --------------------------------------------------------------------------
# Complementation / coverage of string cubes
# --------------------------------------------------------------------------


class TestComplementProperties:
    @given(st.lists(cube_strings(4), min_size=0, max_size=5))
    def test_complement_partitions_the_space(self, cubes):
        width = 4
        complement = _complement_cubes(cubes, width)
        original = {m for c in cubes for m in expand_cube(c)}
        comp = {m for c in complement for m in expand_cube(c)}
        assert original | comp == {format(v, f"0{width}b") for v in range(1 << width)}
        assert not original & comp

    @given(st.lists(cube_strings(4), min_size=0, max_size=5))
    def test_cover_everything_matches_enumeration(self, cubes):
        width = 4
        covered = {m for c in cubes for m in expand_cube(c)}
        expected = len(covered) == (1 << width)
        assert _cubes_cover_everything(cubes, width) == expected


# --------------------------------------------------------------------------
# Two-level minimisation
# --------------------------------------------------------------------------


class TestMinimizationProperties:
    @settings(max_examples=40, deadline=None)
    @given(small_covers())
    def test_minimisation_preserves_the_function(self, cover):
        result = minimize(cover)
        width = cover.num_inputs
        for value in range(1 << width):
            point = tuple((value >> i) & 1 for i in range(width))
            assert cover.evaluate(point) == result.cover.evaluate(point)

    @settings(max_examples=40, deadline=None)
    @given(small_covers())
    def test_minimisation_never_grows_the_cover(self, cover):
        result = minimize(cover)
        assert result.final_terms <= len(cover)


# --------------------------------------------------------------------------
# LFSR / MISR invariants
# --------------------------------------------------------------------------


class TestRegisterProperties:
    @given(st.integers(min_value=2, max_value=6))
    def test_primitive_polynomials_are_primitive(self, degree):
        for poly in primitive_polynomials(degree, limit=3):
            assert is_primitive(poly)

    @given(st.integers(min_value=1, max_value=8), st.integers(min_value=0, max_value=4))
    def test_primitive_polynomials_are_shared_and_immutable(self, degree, limit):
        first = primitive_polynomials(degree, limit)
        assert isinstance(first, tuple)
        assert primitive_polynomials(degree, limit) is first
        assert list(first) == [p for p in range((1 << degree) | 1, 1 << (degree + 1), 2)
                               if is_primitive(p)][:limit or None]

    @given(st.integers(min_value=2, max_value=6), st.integers(min_value=0, max_value=1000))
    def test_lfsr_cycle_never_reaches_zero(self, width, start_offset):
        lfsr = LFSR.with_primitive_polynomial(width)
        cycle = lfsr.cycle()
        assert "0" * width not in cycle
        assert len(cycle) == (1 << width) - 1

    @given(
        st.integers(min_value=2, max_value=5),
        st.integers(min_value=0, max_value=2**5 - 1),
        st.integers(min_value=0, max_value=2**5 - 1),
    )
    def test_misr_excitation_identity(self, width, present_value, target_value):
        misr = MISR.with_primitive_polynomial(width)
        present = format(present_value % (1 << width), f"0{width}b")
        target = format(target_value % (1 << width), f"0{width}b")
        y = misr.excitation_for_transition(present, target)
        assert misr.next_state(present, y) == target

    @given(st.integers(min_value=2, max_value=5), st.integers(min_value=1, max_value=16))
    def test_misr_linearity(self, width, length):
        """signature(a XOR b) == signature(a) XOR signature(b) from the zero seed."""
        import random as _random

        rng = _random.Random(length * 31 + width)
        misr = MISR.with_primitive_polynomial(width)
        seq_a = [format(rng.getrandbits(width), f"0{width}b") for _ in range(length)]
        seq_b = [format(rng.getrandbits(width), f"0{width}b") for _ in range(length)]
        seq_xor = [
            format(int(a, 2) ^ int(b, 2), f"0{width}b") for a, b in zip(seq_a, seq_b)
        ]
        sig_a = int(misr.signature(seq_a), 2)
        sig_b = int(misr.signature(seq_b), 2)
        sig_x = int(misr.signature(seq_xor), 2)
        assert sig_x == sig_a ^ sig_b


# --------------------------------------------------------------------------
# Encodings and generated machines
# --------------------------------------------------------------------------


class TestEncodingProperties:
    @given(st.integers(min_value=2, max_value=12), st.integers(min_value=0, max_value=50))
    @settings(max_examples=30, deadline=None)
    def test_random_encoding_always_injective(self, num_states, seed):
        fsm = generate_controller("p", num_states, 3, 2, 3 * num_states, seed=seed)
        encoding = random_encoding(fsm, seed=seed)
        codes = [encoding.code_of(s) for s in fsm.states]
        assert len(set(codes)) == len(codes)
        assert encoding.width == max(1, math.ceil(math.log2(num_states)))

    @given(st.integers(min_value=2, max_value=10), st.integers(min_value=0, max_value=50))
    @settings(max_examples=25, deadline=None)
    def test_generated_controllers_are_well_formed(self, num_states, seed):
        fsm = generate_controller("p", num_states, 4, 3, 4 * num_states, seed=seed)
        assert fsm.is_deterministic()
        assert fsm.is_completely_specified()
        assert fsm.is_strongly_connected()

    @given(st.integers(min_value=1, max_value=6))
    def test_unused_codes_complement_used_codes(self, width):
        states = {f"s{i}": format(i, f"0{width}b") for i in range(min(3, 1 << width))}
        encoding = StateEncoding(width, states)
        assert len(encoding.unused_codes()) == (1 << width) - len(states)


# --------------------------------------------------------------------------
# KISS2 serialisation round-trip
# --------------------------------------------------------------------------


class TestKissRoundTripProperties:
    """``parse_kiss(write_kiss(fsm))`` is semantics- and digest-preserving.

    The digest half is the load-bearing one: ``fsm_digest`` keys the
    artifact cache and every sweep-cell payload, so a machine must survive
    the KISS2 transport bit-exactly — including its declared state *order*,
    which KISS2 itself does not express (it travels in the
    ``# .state_order`` comment written by ``write_kiss``).
    """

    @settings(max_examples=30, deadline=None)
    @given(
        st.integers(min_value=2, max_value=24),
        st.integers(min_value=1, max_value=6),
        st.integers(min_value=1, max_value=5),
        st.integers(min_value=0, max_value=10_000),
    )
    def test_controller_roundtrip_preserves_digest(
        self, num_states, num_inputs, num_outputs, seed
    ):
        fsm = generate_controller(
            "prop", num_states, num_inputs, num_outputs, 3 * num_states, seed=seed
        )
        again = parse_kiss(write_kiss(fsm), name=fsm.name)
        assert again.states == fsm.states
        assert again.reset_state == fsm.reset_state
        assert again.transitions == fsm.transitions
        assert fsm_digest(again) == fsm_digest(fsm)

    @settings(max_examples=25, deadline=None)
    @given(
        st.integers(min_value=2, max_value=12),
        st.integers(min_value=1, max_value=4),
        st.integers(min_value=1, max_value=3),
        st.integers(min_value=0, max_value=10_000),
        st.floats(min_value=0.3, max_value=1.0),
    )
    def test_random_fsm_roundtrip_preserves_digest(
        self, num_states, num_inputs, num_outputs, seed, completeness
    ):
        # Incompletely specified machines exercise the "*" next state and
        # don't-care output paths of the writer/parser pair.
        fsm = generate_random_fsm(
            "prop", num_states, num_inputs, num_outputs, seed=seed,
            completeness=completeness,
        )
        again = parse_kiss(write_kiss(fsm), name=fsm.name)
        assert again.states == fsm.states
        assert again.transitions == fsm.transitions
        assert fsm_digest(again) == fsm_digest(fsm)

    @settings(max_examples=20, deadline=None)
    @given(
        st.integers(min_value=3, max_value=10),
        st.integers(min_value=1, max_value=3),
        st.integers(min_value=0, max_value=10_000),
    )
    def test_roundtrip_preserves_simulation_semantics(
        self, num_states, num_inputs, seed
    ):
        import random as _random

        fsm = generate_controller("prop", num_states, num_inputs, 2,
                                  3 * num_states, seed=seed)
        again = parse_kiss(write_kiss(fsm), name=fsm.name)
        rng = _random.Random(seed)
        vectors = [
            "".join(rng.choice("01") for _ in range(num_inputs)) for _ in range(16)
        ]
        assert again.simulate(vectors) == fsm.simulate(vectors)

    @settings(max_examples=20, deadline=None)
    @given(st.integers(min_value=3, max_value=14), st.integers(min_value=0, max_value=1000))
    def test_shuffled_state_order_survives_transport(self, num_states, seed):
        import random as _random

        fsm = generate_controller("prop", num_states, 3, 2, 3 * num_states, seed=seed)
        shuffled = list(fsm.states)
        _random.Random(seed).shuffle(shuffled)
        reordered = type(fsm)(
            fsm.name, fsm.num_inputs, fsm.num_outputs, fsm.transitions,
            reset_state=fsm.reset_state, states=shuffled,
        )
        again = parse_kiss(write_kiss(reordered), name=reordered.name)
        assert again.states == tuple(shuffled)
        assert fsm_digest(again) == fsm_digest(reordered)
