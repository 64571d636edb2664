"""Each reference check passes real outputs and rejects a corrupted one.

Run with ``python3 -m pytest perfbench/test_oracles.py -q`` from the root
of a checkout.
"""

from __future__ import annotations

import copy
import random
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import checks  # noqa: E402
import oracles  # noqa: E402
from repro.circuit import faults as program_faults  # noqa: E402
from repro.circuit.netlist import netlist_from_controller  # noqa: E402
from repro.flow import FlowConfig, resolve_fsm, run_flow  # noqa: E402


@pytest.fixture(scope="module", params=["DFF", "PAT", "SIG", "PST"])
def cell(request):
    fsm = resolve_fsm("dk16")
    config = FlowConfig(structure=request.param, seed=3, fault_patterns=1024, fault_seed=3)
    result = run_flow(fsm, config, materialize=True)
    return fsm, config, result, netlist_from_controller(result.controller)


def rng():
    return random.Random(11)


def test_real_cells_pass(cell):
    fsm, config, result, netlist = cell
    assert checks.check_synthesis(fsm, result, netlist, rng()) == []
    assert checks.check_fault_result(result, 1024) == []
    problems, detected = checks.check_fault_sample(netlist, 1024, config.word_width,
                                                   config.fault_seed, rng(),
                                                   result.metrics["fault_total"])
    assert problems == [] and detected > 0


# ------------------------------------------------------------------ covers


def _covers(cell):
    excitation = cell[2].controller.excitation
    cover = cell[2].controller.minimization.cover.to_dict()
    return excitation.on_set.to_dict(), excitation.dc_set.to_dict(), cover


def test_dropped_cover_cube_is_caught(cell):
    on, dc, cover = _covers(cell)
    for index in range(len(cover["cubes"])):
        broken = dict(cover, cubes=cover["cubes"][:index] + cover["cubes"][index + 1:])
        assert any("not covered" in p for p in oracles.check_cover(on, dc, broken, rng()))


def test_cover_spilling_into_off_set_is_caught(cell):
    on, dc, cover = _covers(cell)
    universal = "-" * on["inputs"]
    broken = dict(cover, cubes=cover["cubes"] + [[universal, "1" * on["outputs"]]])
    assert any("OFF minterm" in p for p in oracles.check_cover(on, dc, broken, rng()))


def _wide_cover(num_inputs: int = 24):
    gen = random.Random(5)
    cubes = []
    for _ in range(40):
        cube = "".join(gen.choice("01--") for _ in range(num_inputs))
        cubes.append([cube, gen.choice(["10", "01", "11"])])
    on = {"inputs": num_inputs, "outputs": 2, "cubes": cubes}
    dc = {"inputs": num_inputs, "outputs": 2, "cubes": []}
    return on, dc


def test_sampled_cover_check_above_exhaustive_width():
    on, dc = _wide_cover()
    assert on["inputs"] > oracles.EXHAUSTIVE_INPUT_BITS
    assert oracles.check_cover(on, dc, on, rng()) == []
    # An ON cube of one minterm that no other cube covers, then dropped.
    lone = dict(on, cubes=on["cubes"] + [["1" * on["inputs"], "11"]])
    assert any("not covered" in p for p in oracles.check_cover(lone, dc, on, rng()))
    spill = dict(on, cubes=on["cubes"] + [["-" * on["inputs"], "11"]])
    assert any("OFF minterm" in p for p in oracles.check_cover(on, dc, spill, rng()))


# ---------------------------------------------------------------- netlists


def test_flipped_encoding_bit_is_caught(cell):
    fsm, _, result, netlist = cell
    broken = copy.copy(result)
    codes = dict(result.encoding["codes"])
    state = fsm.states[1]
    codes[state] = ("1" if codes[state][0] == "0" else "0") + codes[state][1:]
    object.__setattr__(broken, "encoding", dict(result.encoding, codes=codes))
    assert checks.check_synthesis(fsm, broken, netlist, rng())


def test_wrong_gate_is_caught(cell):
    fsm, _, _, netlist = cell
    reference = checks.gate_netlist(netlist)
    product = next(name for name, (kind, srcs) in reference.gates.items()
                   if kind == "AND" and len(srcs) > 1)
    reference.gates[product] = ("OR", reference.gates[product][1])
    codes = dict(cell[2].encoding["codes"])
    transitions = [(t.inputs, t.present, t.next, t.outputs) for t in fsm.transitions]
    assert oracles.check_fsm_behaviour(reference, transitions, codes, fsm.reset_state, rng())


def test_wrong_reset_value_is_caught(cell):
    fsm, _, result, netlist = cell
    reference = checks.gate_netlist(netlist)
    state, data, reset = reference.flops[0]
    reference.flops[0] = (state, data, 1 - reset)
    codes = dict(result.encoding["codes"])
    transitions = [(t.inputs, t.present, t.next, t.outputs) for t in fsm.transitions]
    problems = oracles.check_fsm_behaviour(reference, transitions, codes, fsm.reset_state, rng())
    assert any("resets to" in p for p in problems)


# ------------------------------------------------------------------ faults


def test_reference_fault_simulator_on_a_tiny_circuit():
    # out = a AND b, registered into q; q is read back by an XOR with a.
    netlist = oracles.GateNetlist(
        ["a", "b"], ["out"],
        {"a": ("INPUT", ()), "b": ("INPUT", ()), "q": ("INPUT", ()),
         "out": ("AND", ("a", "b")), "d": ("XOR", ("q", "a"))},
        [("q", "d", 0)],
    )
    stimuli = [{"a": 0b1010, "b": 0b1100}]
    found = oracles.simulate_faults(netlist, [("out", 0, None), ("b", 1, None)],
                                    stimuli, [0b1111], 4)
    assert found == {"out stuck-at-0": 1, "b stuck-at-1": 1}
    masked = oracles.simulate_faults(netlist, [("out", 0, None)], stimuli, [0b0111], 4)
    assert masked == {}  # the only lane with a=b=1 is masked out


def test_faked_detection_is_caught(cell, monkeypatch):
    _, config, result, netlist = cell
    real = program_faults.FaultSimulator.coverage_for_random_patterns

    def faked(self, *args, **kwargs):
        outcome = real(self, *args, **kwargs)
        name = kwargs["faults"][0].describe()
        outcome.detected.add(name)
        outcome.detection_cycle[name] = outcome.detection_cycle.get(name, 0) + 1
        return outcome

    monkeypatch.setattr(program_faults.FaultSimulator, "coverage_for_random_patterns", faked)
    problems, _ = checks.check_fault_sample(netlist, 1024, config.word_width,
                                            config.fault_seed, rng())
    assert any("differ from the reference" in p for p in problems)


def test_dropped_fault_is_caught(cell, monkeypatch):
    _, config, _, netlist = cell
    real = program_faults.enumerate_faults
    monkeypatch.setattr(program_faults, "enumerate_faults", lambda n: real(n)[1:])
    problems, _ = checks.check_fault_sample(netlist, 1024, config.word_width,
                                            config.fault_seed, rng())
    assert any("fault list" in p for p in problems)


def test_broken_coverage_curve_is_caught(cell):
    result = cell[2]
    broken = copy.copy(result)
    curve = [list(point) for point in result.coverage_curve]
    curve[-1][1] = curve[-1][1] / 2
    object.__setattr__(broken, "coverage_curve", curve)
    assert checks.check_fault_result(broken, 1024)
    assert checks.check_fault_result(result, 512)
