"""Glue between the program's outputs and the reference checks in :mod:`oracles`.

The adapters only read the program's data (cube strings, gate lists, state
codes, fault lists); every verdict comes from :mod:`oracles`.
"""

from __future__ import annotations

import random
from typing import Any, Dict, List, Mapping, Optional, Tuple

import oracles

#: Faults per machine whose detection the reference simulator re-derives.
FAULT_SAMPLE = 128


def normalized(result: Mapping[str, Any]) -> Dict[str, Any]:
    """A ``FlowResult.to_dict()`` without its timing and cache-state fields."""
    data = dict(result)
    data.pop("total_seconds", None)
    data["stages"] = [
        {k: v for k, v in stage.items() if k not in ("seconds", "cached")}
        for stage in data["stages"]
    ]
    return data


def gate_netlist(netlist: Any) -> oracles.GateNetlist:
    """The plain-data view of a ``repro.circuit.Netlist``."""
    return oracles.GateNetlist(
        netlist.primary_inputs,
        netlist.primary_outputs,
        {name: (gate.kind, gate.inputs) for name, gate in netlist.gates.items()},
        [(ff.state, ff.data, ff.reset_value) for ff in netlist.flip_flops],
    )


def check_synthesis(fsm: Any, result: Any, netlist: Any, rng: random.Random) -> List[str]:
    """Cover contract, state codes and FSM behaviour of one synthesised cell.

    ``result`` is a materialised ``FlowResult`` (its ``controller`` set) and
    ``netlist`` the circuit built from that controller.
    """
    controller = result.controller
    excitation = controller.excitation
    cover = controller.minimization.cover.to_dict()
    failures = oracles.check_cover(
        excitation.on_set.to_dict(), excitation.dc_set.to_dict(), cover, rng
    )
    if len(cover["cubes"]) != result.metrics["product_terms"]:
        failures.append(
            f"reported {result.metrics['product_terms']} product terms, "
            f"cover has {len(cover['cubes'])}"
        )
    codes = dict(result.encoding["codes"])
    if sorted(codes) != sorted(fsm.states):
        failures.append("encoding does not name every state exactly once")
        return failures
    if len(set(codes.values())) != len(codes):
        failures.append("two states share a code")
    transitions = [(t.inputs, t.present, t.next, t.outputs) for t in fsm.transitions]
    failures += oracles.check_fsm_behaviour(
        gate_netlist(netlist), transitions, codes, fsm.reset_state, rng
    )
    return failures


def check_fault_result(result: Any, patterns: int) -> List[str]:
    """Pattern count and coverage curve of a cell's fault-simulation stage."""
    metrics = result.metrics
    failures = []
    if metrics["patterns_simulated"] != patterns:
        failures.append(f"simulated {metrics['patterns_simulated']} of {patterns} patterns")
    curve = [point[1] for point in result.coverage_curve or []]
    if any(b < a for a, b in zip(curve, curve[1:])):
        failures.append("coverage curve decreases")
    total, detected = metrics["fault_total"], metrics["fault_detected"]
    if not curve or abs(curve[-1] - detected / total) > 1e-12:
        failures.append("coverage curve does not end at detected/total")
    return failures


def check_fault_sample(netlist: Any, patterns: int, word_width: int, seed: int,
                       rng: random.Random, total: Optional[int] = None) -> Tuple[List[str], int]:
    """The fault list, and the engine's detections on a seeded fault sample.

    The program's engine simulates the sample with ``patterns`` random
    patterns; detections and first-detection cycles must equal the
    reference simulator's.  Returns the failures and the sample's detected
    count.  ``total`` is a fault count the program reported, if any.
    """
    from repro.circuit.faults import FaultSimulator, enumerate_faults

    failures = []
    reference = gate_netlist(netlist)
    expected = sorted(oracles.enumerate_fault_sites(reference), key=oracles.fault_name)
    faults = enumerate_faults(netlist)
    listed = sorted(((f.signal, f.value, f.gate_input) for f in faults), key=oracles.fault_name)
    if listed != expected or (total is not None and total != len(expected)):
        failures.append(
            f"fault list has {len(listed)} faults (reported {total}), "
            f"reference enumerates {len(expected)}"
        )
    sample = rng.sample(faults, min(FAULT_SAMPLE, len(faults)))
    engine = FaultSimulator(netlist, word_width=word_width).coverage_for_random_patterns(
        patterns, seed=seed, faults=sample
    )
    stimuli, masks = oracles.random_stimuli(reference.inputs, patterns, word_width, seed)
    truth = oracles.simulate_faults(
        reference, [(f.signal, f.value, f.gate_input) for f in sample],
        stimuli, masks, word_width,
    )
    if dict(engine.detection_cycle) != truth or set(engine.detected) != set(truth):
        wrong = sorted(set(engine.detection_cycle.items()) ^ set(truth.items()))
        failures.append(f"sampled detections differ from the reference: {wrong[:3]}")
    return failures, len(engine.detected)
