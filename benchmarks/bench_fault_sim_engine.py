"""Benchmark — compiled fault-simulation engine vs the seed serial loop.

The compiled engine (:mod:`repro.circuit.engine`) exists to make the
paper's fault-coverage experiments cheap at scale.  It evaluates the good
circuit once per cycle with a generated straight-line function, and each
undetected fault then re-evaluates only its site's fanout cone from the
good values (parallel-pattern single-fault propagation); faults for which
the good-state argument fails — flip-flop-branch faults, an ``observe``
list without a data signal, a partial lane mask before the last word —
run sequentially with their own state.  Detected faults are dropped,
pattern words are hundreds of lanes wide, and a run is one process.
This harness measures the wall-clock speedup over the seed's interpreted
serial-fault loop (``engine="legacy"``, 64-lane words) on the largest
MCNC-style generated FSM and asserts

* bit-exact agreement of the detected-fault sets at equal word width, and
* a >= 5x speedup at word width >= 256 (the acceptance bar of the engine
  PR; the whole-netlist engine measured ~7x at 256 lanes, the cone path
  58x on ``tbk`` on a 2-vCPU host: 68.3 s legacy against 1.17 s).

Set ``REPRO_BENCH_SMOKE=1`` for a seconds-long smoke configuration on a
tiny controller (used by CI); the speedup assertion is skipped there
because shared runners make wall-clock ratios unreliable.
"""

from __future__ import annotations

import os
import time
from typing import Dict

from repro.bist import BISTStructure, synthesize
from repro.circuit import FaultSimulator, enumerate_faults, netlist_from_controller
from repro.fsm import generate_controller
from repro.fsm.mcnc import BENCHMARK_STATS, load_benchmark
from repro.reporting import format_table

LEGACY_WORD_WIDTH = 64  # the seed simulator's default configuration
ENGINE_WORD_WIDTHS = (64, 256, 1024)
SPEEDUP_FLOOR = 5.0
SPEEDUP_ASSERT_WIDTH = 256


def _smoke() -> bool:
    return os.environ.get("REPRO_BENCH_SMOKE", "0") not in ("", "0", "false", "no")


def _workload():
    if _smoke():
        fsm = generate_controller(
            "smoke", num_states=6, num_inputs=2, num_outputs=2, num_transitions=16, seed=7
        )
        return fsm, 256
    largest = max(BENCHMARK_STATS.values(), key=lambda s: s.states * s.transitions)
    return load_benchmark(largest.name), 1024


def _run_engine_comparison() -> Dict[str, object]:
    fsm, patterns = _workload()
    controller = synthesize(fsm, BISTStructure.PST)
    circuit = netlist_from_controller(controller)
    faults = enumerate_faults(circuit)

    summary: Dict[str, object] = {
        "machine": fsm.name,
        "gates": circuit.gate_count(),
        "faults": len(faults),
        "patterns": patterns,
    }

    start = time.perf_counter()
    legacy = FaultSimulator(
        circuit, word_width=LEGACY_WORD_WIDTH, engine="legacy"
    ).coverage_for_random_patterns(patterns, seed=9, stop_when_all_detected=False)
    summary["legacy_seconds"] = time.perf_counter() - start
    summary["legacy_coverage"] = legacy.coverage

    for width in ENGINE_WORD_WIDTHS:
        start = time.perf_counter()
        compiled = FaultSimulator(
            circuit, word_width=width, engine="compiled"
        ).coverage_for_random_patterns(patterns, seed=9, stop_when_all_detected=False)
        elapsed = time.perf_counter() - start
        summary[f"compiled_w{width}_seconds"] = elapsed
        summary[f"compiled_w{width}_coverage"] = compiled.coverage
        summary[f"compiled_w{width}_speedup"] = summary["legacy_seconds"] / elapsed
        if width == LEGACY_WORD_WIDTH:
            # Same word width -> same pattern words -> results must be bit-exact.
            assert compiled.detected == legacy.detected
            assert compiled.detection_cycle == legacy.detection_cycle
    return summary


def test_fault_sim_engine_speedup(benchmark):
    summary = benchmark.pedantic(_run_engine_comparison, rounds=1, iterations=1)
    print()
    rows = [
        ["machine", summary["machine"]],
        ["gates / faults", f"{summary['gates']} / {summary['faults']}"],
        ["patterns", summary["patterns"]],
        ["legacy w64 (seed loop)", f"{summary['legacy_seconds']:.2f} s"],
    ]
    for width in ENGINE_WORD_WIDTHS:
        rows.append(
            [
                f"compiled w{width}",
                f"{summary[f'compiled_w{width}_seconds']:.2f} s "
                f"({summary[f'compiled_w{width}_speedup']:.1f}x)",
            ]
        )
    print(format_table(["configuration", "wall clock"], rows, title="Fault-sim engine speedup"))
    benchmark.extra_info.update(
        {k: v for k, v in summary.items() if isinstance(v, (int, float, str))}
    )

    for width in ENGINE_WORD_WIDTHS:
        assert summary[f"compiled_w{width}_coverage"] > 0.0
    if not _smoke():
        speedup = summary[f"compiled_w{SPEEDUP_ASSERT_WIDTH}_speedup"]
        assert speedup >= SPEEDUP_FLOOR, (
            f"compiled engine at {SPEEDUP_ASSERT_WIDTH} lanes is only "
            f"{speedup:.1f}x faster than the seed loop (need >= {SPEEDUP_FLOOR}x)"
        )
