"""Unit tests for the two-level heuristic minimiser."""

from __future__ import annotations

import itertools

import pytest

from repro.logic import Cover, Cube, minimize, quick_minimize, verify_minimization


def _cover(num_inputs, num_outputs, rows):
    cover = Cover(num_inputs, num_outputs)
    for inputs, outputs in rows:
        cover.add(Cube.from_strings(inputs, outputs))
    return cover


def _all_points(width):
    return list(itertools.product((0, 1), repeat=width))


class TestMinimize:
    def test_merges_adjacent_minterms(self):
        on = _cover(2, 1, [("00", "1"), ("01", "1"), ("10", "1"), ("11", "1")])
        result = minimize(on)
        assert result.final_terms == 1
        assert result.cover.cubes[0].input_string() == "--"

    def test_classic_three_variable_function(self):
        # f = a'b' + ab (xor-complement): cannot be reduced below 2 terms.
        on = _cover(2, 1, [("00", "1"), ("11", "1")])
        result = minimize(on)
        assert result.final_terms == 2

    def test_uses_dont_cares(self):
        # ON = {11}, DC = {10}: the minimiser should produce the single cube 1-.
        on = _cover(2, 1, [("11", "1")])
        dc = _cover(2, 1, [("10", "1")])
        result = minimize(on, dc)
        assert result.final_terms == 1
        assert result.cover.cubes[0].input_string() == "1-"

    def test_functionally_equivalent_after_minimisation(self):
        rows = [("000", "1"), ("001", "1"), ("011", "1"), ("111", "1"), ("110", "1")]
        on = _cover(3, 1, rows)
        result = minimize(on)
        assert result.final_terms < len(rows)
        assert verify_minimization(on, None, result.cover, _all_points(3))

    def test_multi_output_sharing(self):
        # Both outputs contain the cube 11-; the shared product term should be found.
        on = _cover(3, 2, [("11-", "10"), ("11-", "01"), ("0--", "10")])
        result = minimize(on)
        assert result.final_terms == 2
        assert verify_minimization(on, None, result.cover, _all_points(3))

    def test_redundant_cube_removed(self):
        on = _cover(3, 1, [("1--", "1"), ("11-", "1"), ("0--", "1")])
        result = minimize(on)
        assert result.final_terms <= 2

    def test_result_never_grows(self):
        on = _cover(3, 2, [("101", "11"), ("100", "10"), ("111", "01"), ("0-0", "11")])
        result = minimize(on)
        assert result.final_terms <= len(on)

    def test_initial_terms_recorded(self):
        on = _cover(2, 1, [("00", "1"), ("01", "1")])
        result = minimize(on)
        assert result.initial_terms == 2
        assert result.method == "espresso"

    def test_unknown_method_rejected(self):
        on = _cover(1, 1, [("1", "1")])
        with pytest.raises(ValueError):
            minimize(on, method="magic")

    def test_minimize_empty_output_column(self):
        # Output 1 has no cubes at all; the minimiser must not crash.
        on = _cover(2, 2, [("1-", "10")])
        result = minimize(on)
        assert result.final_terms == 1

    def test_equivalence_against_brute_force_random_functions(self):
        # Exhaustive check on a handful of small random multi-output functions.
        import random

        rng = random.Random(7)
        for trial in range(5):
            rows = []
            for value in range(8):
                bits = format(value, "03b")
                outputs = "".join(rng.choice("01") for _ in range(2))
                if outputs != "00":
                    rows.append((bits, outputs))
            if not rows:
                continue
            on = _cover(3, 2, rows)
            result = minimize(on)
            assert verify_minimization(on, None, result.cover, _all_points(3)), f"trial {trial}"


class TestQuickMinimize:
    def test_merges_distance_one(self):
        on = _cover(2, 1, [("00", "1"), ("01", "1")])
        result = quick_minimize(on)
        assert result.final_terms == 1
        assert result.method == "quick"

    def test_removes_contained_cubes(self):
        on = _cover(2, 1, [("1-", "1"), ("11", "1")])
        result = quick_minimize(on)
        assert result.final_terms == 1

    def test_quick_method_via_minimize(self):
        on = _cover(2, 1, [("00", "1"), ("01", "1")])
        result = minimize(on, method="quick")
        assert result.method == "quick"
        assert result.final_terms == 1

    def test_preserves_function(self):
        rows = [("000", "1"), ("001", "1"), ("111", "1")]
        on = _cover(3, 1, rows)
        result = quick_minimize(on)
        assert verify_minimization(on, None, result.cover, _all_points(3))


class TestMetrics:
    def test_literal_count_property(self):
        on = _cover(3, 1, [("1-0", "1"), ("01-", "1")])
        result = minimize(on)
        assert result.literals == result.cover.sop_literal_count()
        assert result.product_terms == result.final_terms


# Table 3 cells: six small seed machines under every structure, plus the
# large-ON-set ``tbk`` under PST.
TABLE3_CELLS = [
    (machine, structure)
    for machine in ("dk512", "dk16", "donfile", "ex4", "mark1", "modulo12")
    for structure in ("DFF", "PAT", "SIG", "PST")
] + [("tbk", "PST")]


class TestTable3CoverContract:
    """Every Table 3 cover meets ON ⊆ cover ⊆ ON ∪ DC exactly.

    The containment checks run without a tautology budget, so unlike the
    sampled :func:`verify_minimization` nothing is left unchecked.
    """

    @pytest.mark.parametrize("machine,structure", TABLE3_CELLS,
                             ids=[f"{m}-{s}" for m, s in TABLE3_CELLS])
    def test_cover_contract_is_exact(self, machine, structure):
        from repro.flow import FlowConfig, resolve_fsm, run_flow

        result = run_flow(resolve_fsm(machine),
                          FlowConfig(structure=structure, seed=1),
                          materialize=True)
        controller = result.controller
        on_set = controller.excitation.on_set
        dc_set = controller.excitation.dc_set
        minimised = controller.minimization.cover
        assert minimised.functionally_equal(on_set, dc=dc_set)
        assert minimised.functionally_contains(on_set)  # ON ⊆ cover
        assert on_set.merged_with(dc_set).functionally_contains(minimised)
        assert len(minimised) == result.product_terms
