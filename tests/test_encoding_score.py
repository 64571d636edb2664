"""Parity suite for the incremental bitmask scoring engine (encoding/score.py).

The incremental engine must be *bit-identical* to the reference full-rescore
implementation: same encodings, same costs, same column costs, same chosen
polynomial, same refinement decisions.  These tests pin that contract three
ways — cross-engine parity on every seed MCNC benchmark, golden values
captured from the pre-refactor implementation, and property-style checks that
the incremental estimators equal a brute-force recompute after arbitrary
move sequences.
"""

from __future__ import annotations

import random

import pytest

from repro.encoding import (
    BeamScorer,
    FSMBitmaps,
    ScoredEncoding,
    assign_misr_states,
    partial_assignment_cost,
    random_encoding,
)
from repro.encoding.assignment import StateEncoding
from repro.encoding.cost import estimate_product_terms
from repro.encoding.misr_assign import _swap_candidates
from repro.fsm import generate_controller
from repro.fsm.mcnc import benchmark_names, load_benchmark
from repro.lfsr import LFSR
from repro.logic.symbolic import symbolic_minimize

# Search effort of the cross-engine parity sweep: reduced from the defaults so
# the reference engine stays cheap on the big machines (the parity property is
# configuration-independent).
PARITY_EFFORT = dict(beam_width=2, partitions_per_column=4, refinement_moves_per_pass=80)

# Golden results of the pre-refactor implementation (default parameters,
# seed=0) for the small seed benchmarks: the incremental engine must keep
# reproducing the historical numbers exactly.
PRE_REFACTOR_GOLDEN = {
    "dk512": {
        "codes": {
            "s0": "0111", "s1": "0011", "s2": "0001", "s3": "1000", "s4": "0110",
            "s5": "0100", "s6": "1011", "s7": "0101", "s8": "1010", "s9": "1101",
            "s10": "0000", "s11": "0010", "s12": "1110", "s13": "1111", "s14": "1001",
        },
        "poly": 19, "cost": 0, "column_costs": (0, 0, 0, 0), "feedback_cost": 0,
        "explored": 104, "est": 11, "moves": 9,
    },
    "ex4": {
        "codes": {
            "s0": "1111", "s1": "0001", "s2": "1000", "s3": "1100", "s4": "0011",
            "s5": "0110", "s6": "0010", "s7": "0100", "s8": "0111", "s9": "1110",
            "s10": "0101", "s11": "1010", "s12": "1011", "s13": "0000",
        },
        "poly": 19, "cost": 0, "column_costs": (0, 0, 0, 0), "feedback_cost": 0,
        "explored": 103, "est": 16, "moves": 3,
    },
    "mark1": {
        "codes": {
            "s0": "0000", "s1": "0001", "s2": "0010", "s3": "1000", "s4": "1101",
            "s5": "1110", "s6": "0101", "s7": "0110", "s8": "1111", "s9": "1011",
            "s10": "1001", "s11": "1010", "s12": "0111", "s13": "0011", "s14": "0100",
        },
        "poly": 19, "cost": 0, "column_costs": (0, 0, 0, 0), "feedback_cost": 0,
        "explored": 104, "est": 15, "moves": 4,
    },
    "modulo12": {
        "codes": {
            "s0": "1110", "s1": "0010", "s2": "1100", "s3": "0001", "s4": "1000",
            "s5": "1011", "s6": "0101", "s7": "1010", "s8": "1001", "s9": "0011",
            "s10": "0100", "s11": "0000",
        },
        "poly": 19, "cost": 2, "column_costs": (4, 4, 0, 0), "feedback_cost": 2,
        "explored": 97, "est": 12, "moves": 4,
    },
}


def _result_tuple(result):
    return (
        dict(result.encoding.codes),
        result.lfsr.polynomial,
        result.cost,
        result.column_costs,
        result.feedback_cost,
        result.partial_assignments_explored,
        result.estimated_product_terms,
        result.refinement_moves,
    )


class TestEngineParity:
    @pytest.mark.parametrize("name", benchmark_names())
    def test_incremental_matches_reference_on_seed_benchmarks(self, name):
        fsm = load_benchmark(name)
        for seed in (0, 3):
            incremental = assign_misr_states(
                fsm, seed=seed, engine="incremental", **PARITY_EFFORT
            )
            reference = assign_misr_states(
                fsm, seed=seed, engine="reference", **PARITY_EFFORT
            )
            assert _result_tuple(incremental) == _result_tuple(reference), (name, seed)

    @pytest.mark.parametrize("register", ["misr", "dff"])
    def test_parity_for_both_register_types_and_weights(self, small_controller, register):
        kwargs = dict(seed=4, register=register, input_weight=3, output_weight=2)
        incremental = assign_misr_states(small_controller, engine="incremental", **kwargs)
        reference = assign_misr_states(small_controller, engine="reference", **kwargs)
        assert _result_tuple(incremental) == _result_tuple(reference)

    @pytest.mark.parametrize("name", sorted(PRE_REFACTOR_GOLDEN))
    def test_matches_pre_refactor_golden(self, name):
        golden = PRE_REFACTOR_GOLDEN[name]
        result = assign_misr_states(load_benchmark(name), seed=0)
        assert dict(result.encoding.codes) == golden["codes"]
        assert result.lfsr.polynomial == golden["poly"]
        assert result.cost == golden["cost"]
        assert result.column_costs == golden["column_costs"]
        assert result.feedback_cost == golden["feedback_cost"]
        assert result.partial_assignments_explored == golden["explored"]
        assert result.estimated_product_terms == golden["est"]
        assert result.refinement_moves == golden["moves"]

    def test_precomputed_implicants_change_nothing(self, small_controller):
        implicants = symbolic_minimize(small_controller)
        with_precomputed = assign_misr_states(small_controller, seed=2, implicants=implicants)
        without = assign_misr_states(small_controller, seed=2)
        assert _result_tuple(with_precomputed) == _result_tuple(without)


class TestMultiStart:
    @pytest.mark.parametrize("jobs", [1, 2, 4])
    def test_result_is_independent_of_jobs(self, small_controller, jobs):
        base = assign_misr_states(small_controller, seed=0, multi_start=3, jobs=1)
        fanned = assign_misr_states(small_controller, seed=0, multi_start=3, jobs=jobs)
        assert _result_tuple(fanned) == _result_tuple(base)

    def test_multi_start_never_worse_than_single(self):
        fsm = load_benchmark("modulo12")
        single = assign_misr_states(fsm, seed=0)
        multi = assign_misr_states(fsm, seed=0, multi_start=3)
        assert multi.estimated_product_terms <= single.estimated_product_terms

    def test_invalid_parameters(self, small_controller):
        with pytest.raises(ValueError):
            assign_misr_states(small_controller, multi_start=0)
        with pytest.raises(ValueError):
            assign_misr_states(small_controller, jobs=0)
        with pytest.raises(ValueError):
            assign_misr_states(small_controller, engine="turbo")
        with pytest.raises(ValueError):
            assign_misr_states(small_controller, register="jk")


class TestBeamScorerParity:
    @pytest.mark.parametrize("register,weights", [
        ("misr", (2, 1)),
        ("misr", (1, 3)),
        ("dff", (2, 1)),
    ])
    def test_append_column_matches_partial_assignment_cost(self, register, weights):
        input_weight, output_weight = weights
        rng = random.Random(17)
        for trial in range(6):
            fsm = generate_controller(
                f"beam{trial}", num_states=7, num_inputs=2, num_outputs=2,
                num_transitions=21, seed=trial,
            )
            implicants = symbolic_minimize(fsm)
            states = list(fsm.states)
            width = fsm.min_code_bits
            scorer = BeamScorer(
                FSMBitmaps(states, implicants), register, input_weight, output_weight
            )
            # Random (possibly non-injective) column partitions: the cost
            # model never requires injectivity, so any 0/1 labelling must
            # agree with the brute-force rescore.
            score = scorer.initial()
            prefixes = {s: "" for s in states}
            for column in range(width):
                partition = {s: rng.choice("01") for s in states}
                prefixes = {s: prefixes[s] + partition[s] for s in states}
                score, cost = scorer.append_column(score, partition)
                expected = partial_assignment_cost(
                    implicants, prefixes, column, register, input_weight, output_weight
                )
                assert cost == expected, (trial, column, register, weights)


class TestScoredEncodingParity:
    @pytest.mark.parametrize("structure", ["pst", "dff"])
    def test_incremental_estimate_tracks_full_recompute_over_moves(self, structure):
        rng = random.Random(23)
        for trial in range(4):
            fsm = generate_controller(
                f"inc{trial}", num_states=9, num_inputs=2, num_outputs=3,
                num_transitions=30, seed=50 + trial,
            )
            width = fsm.min_code_bits + (trial % 2)  # also cover spare codes
            encoding = random_encoding(fsm, width=width, seed=trial)
            lfsr = LFSR.with_primitive_polynomial(width)
            scored = ScoredEncoding(fsm, encoding, lfsr, structure)
            assert scored.estimate == estimate_product_terms(fsm, encoding, lfsr, structure)

            codes = dict(encoding.codes)
            states = list(codes)
            for _ in range(40):
                if rng.random() < 0.5:
                    a, b = rng.sample(states, 2)
                    changed = {a: codes[b], b: codes[a]}
                else:
                    used = set(codes.values())
                    free = [
                        format(v, f"0{width}b")
                        for v in range(1 << width)
                        if format(v, f"0{width}b") not in used
                    ]
                    if not free:
                        continue
                    changed = {rng.choice(states): rng.choice(free)}
                estimate, patch = scored.preview(
                    {s: int(c, 2) for s, c in changed.items()}
                )
                codes.update(changed)
                expected = estimate_product_terms(
                    fsm, StateEncoding(width, codes), lfsr, structure
                )
                assert estimate == expected, (trial, structure)
                scored.commit(patch)
                assert scored.estimate == expected
                assert scored.code_strings() == codes

    def test_register_width_mismatch_raises(self, small_controller):
        encoding = random_encoding(small_controller, seed=9)
        with pytest.raises(ValueError, match="register width"):
            ScoredEncoding(
                small_controller, encoding,
                LFSR.with_primitive_polynomial(encoding.width + 1), "pst",
            )

    def test_preview_without_commit_is_side_effect_free(self, small_controller):
        encoding = random_encoding(small_controller, seed=9)
        lfsr = LFSR.with_primitive_polynomial(encoding.width)
        scored = ScoredEncoding(small_controller, encoding, lfsr, "pst")
        before = scored.estimate
        states = list(encoding.codes)
        codes = dict(encoding.codes)
        scored.preview({states[0]: int(codes[states[1]], 2),
                        states[1]: int(codes[states[0]], 2)})
        assert scored.estimate == before
        assert scored.code_strings() == codes
        full = estimate_product_terms(small_controller, encoding, lfsr, "pst")
        assert scored.estimate == full


class TestPreviewFastPaths:
    """Previews read autonomous successors from split tables, count a
    one-member asserting group as one term without merging, and read the
    re-derived groups through a view of their changed membership; all of
    it must keep every preview equal to the full recompute, leave a
    rejected move without trace and commit an accepted one in place."""

    @pytest.mark.parametrize("structure", ["pst", "sig", "dff"])
    def test_previews_match_full_recompute(self, structure):
        rng = random.Random(41)
        singles = silent = 0
        for trial in range(6):
            fsm = generate_controller(
                f"fast{trial}", num_states=10, num_inputs=2, num_outputs=2,
                num_transitions=28, seed=70 + trial, output_dc_probability=0.4,
            )
            width = fsm.min_code_bits + (trial % 3)
            encoding = random_encoding(fsm, width=width, seed=trial)
            lfsr = LFSR.with_primitive_polynomial(width)
            scored = ScoredEncoding(fsm, encoding, lfsr, structure)
            codes = dict(encoding.codes)
            states = list(codes)
            for _ in range(50):
                if rng.random() < 0.5:
                    a, b = rng.sample(states, 2)
                    changed = {a: codes[b], b: codes[a]}
                else:
                    used = set(codes.values())
                    free = [format(v, f"0{width}b") for v in range(1 << width)]
                    free = [c for c in free if c not in used]
                    if not free:
                        continue
                    changed = {rng.choice(states): rng.choice(free)}
                before = _decomposition(scored)
                estimate, patch = scored.preview({s: int(c, 2) for s, c in changed.items()})
                assert _decomposition(scored) == before  # previews mutate nothing
                trial_codes = dict(codes)
                trial_codes.update(changed)
                expected = estimate_product_terms(
                    fsm, StateEncoding(width, trial_codes), lfsr, structure
                )
                assert estimate == expected, (trial, structure)
                fresh = ScoredEncoding(fsm, StateEncoding(width, trial_codes), lfsr, structure)
                for key in patch.counts:
                    _, outputs, excitation = key
                    members = fresh.groups.get(key, {})
                    if excitation == 0 and "1" not in outputs:
                        silent += bool(members)
                    elif len(members) == 1:
                        singles += 1
                if rng.random() < 0.5:  # accept about half of the moves
                    scored.commit(patch)
                    codes = trial_codes
                    assert scored.estimate == expected
                    # The in-place commit leaves exactly the decomposition
                    # of a from-scratch build (plus emptied groups at 0).
                    assert _decomposition(scored) == _decomposition(fresh)
        # Both shortcuts of the group count were taken.
        assert singles and silent

    @pytest.mark.parametrize("width", [3, 4, 5, 8])  # 3 is the minimum for 8 states
    def test_successor_tables_match_the_register(self, small_controller, width):
        encoding = random_encoding(small_controller, width=width, seed=1)
        lfsr = LFSR.with_primitive_polynomial(width)
        for structure in ("pst", "sig"):
            scored = ScoredEncoding(small_controller, encoding, lfsr, structure)
            for code in range(1 << width):
                successor = (scored._auto_high[code >> scored._half]
                             ^ scored._auto_low[code & scored._low_mask])
                assert successor == int(lfsr.next_state(format(code, f"0{width}b")), 2)
        dff = ScoredEncoding(small_controller, encoding, None, "dff")
        assert not any(dff._auto_high) and not any(dff._auto_low)

    def test_wide_register_tables_stay_small(self, small_controller):
        encoding = random_encoding(small_controller, width=16, seed=1)
        scored = ScoredEncoding(
            small_controller, encoding, LFSR.with_primitive_polynomial(16), "pst"
        )
        assert len(scored._auto_low) + len(scored._auto_high) == 2 * 2**8
        assert scored.estimate == estimate_product_terms(
            small_controller, encoding, LFSR.with_primitive_polynomial(16), "pst"
        )


def _decomposition(scored):
    """The non-empty groups (members in transition order) and their counts."""
    groups = {key: sorted(members.items()) for key, members in scored.groups.items() if members}
    counts = {key: scored.counts[key] for key in groups}
    return groups, counts, scored.total, dict(scored.codes)


class TestSwapCandidateBounding:
    def test_wide_register_move_generation_is_bounded(self):
        rng = random.Random(0)
        states = [f"s{i}" for i in range(10)]
        width = 16  # 65536 codes; exhaustive enumeration would dominate
        codes = {s: format(i, f"0{width}b") for i, s in enumerate(states)}
        moves = _swap_candidates(states, codes, width, limit=10_000, rng=rng)
        move_targets = [m for m in moves if m[0] == "move"]
        # 10 states x bounded sample (64) + 45 swaps, far below 2**16.
        assert len(move_targets) <= len(states) * 64
        assert len(moves) <= len(states) * 64 + 45
        for _, state, code in move_targets:
            assert code not in codes.values()

    def test_minimal_width_keeps_exhaustive_enumeration(self):
        # At (near-)minimal width the legacy exhaustive branch must be taken,
        # which is what keeps the random stream identical to the reference.
        states = [f"s{i}" for i in range(6)]
        codes = {s: format(i, f"03b") for i, s in enumerate(states)}
        moves_a = _swap_candidates(states, codes, 3, limit=10_000, rng=random.Random(5))
        moves_b = _swap_candidates(states, codes, 3, limit=10_000, rng=random.Random(5))
        assert moves_a == moves_b
        unused = {m[2] for m in moves_a if m[0] == "move"}
        assert unused == {"110", "111"}
