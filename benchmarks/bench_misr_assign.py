"""Benchmark — incremental bitmask MISR state assignment vs the reference.

The incremental engine (:mod:`repro.encoding.score`) exists to make the
paper's core algorithm — the column-by-column MISR state assignment behind
the Table 2/3 sweeps and the E7 ablation — cheap at high search effort:
appending a column updates cached per-implicant face masks instead of
rescoring every assigned column, and each refinement move patches only the
product-term groups containing the touched states instead of re-estimating
the whole machine.  ``multi_start`` runs its independent searches in order
in one process and keeps a deterministic winner.

This harness runs ``assign_misr_states`` at default effort (with
``multi_start=2``) over the Table 2 benchmark set with both engines and
asserts

* bit-identical results (encoding, cost, column costs, polynomial, estimate)
  between the reference and the incremental engine, and
* a wall-clock speedup of the incremental engine of at least
  ``SPEEDUP_FLOOR_JOBS1`` (3x, the floor from incrementality alone) and at
  least ``SPEEDUP_FLOOR_TOTAL`` (10x, the acceptance bar of the engine
  PR); incrementality alone measured ~18x on the full 13-machine sweep.

Set ``REPRO_BENCH_SMOKE=1`` for a seconds-long smoke configuration (used by
CI); wall-clock assertions are skipped there because shared runners make
ratios unreliable.  Set ``REPRO_BENCH_JSON=path`` to write the summary as a
JSON artifact (CI uploads it as ``BENCH_misr_assign.json`` so the perf
trajectory is tracked PR over PR).
"""

from __future__ import annotations

import json
import os
import time
from typing import Dict, List, Optional

from repro.encoding import assign_misr_states
from repro.encoding.misr_assign import MISRAssignmentResult
from repro.fsm import generate_controller, load_benchmark
from repro.reporting import format_table

MULTI_START = 2
SPEEDUP_FLOOR_JOBS1 = 3.0
SPEEDUP_FLOOR_TOTAL = 10.0


def _smoke() -> bool:
    return os.environ.get("REPRO_BENCH_SMOKE", "0") not in ("", "0", "false", "no")


def _workloads(names: List[str], data_dir) -> List[tuple]:
    if _smoke():
        fsm = generate_controller(
            "smoke", num_states=8, num_inputs=2, num_outputs=2, num_transitions=24, seed=7
        )
        return [("smoke", fsm), ("dk512", load_benchmark("dk512", data_dir=data_dir))]
    return [(name, load_benchmark(name, data_dir=data_dir)) for name in names]


def _same_result(a: MISRAssignmentResult, b: MISRAssignmentResult) -> bool:
    return (
        dict(a.encoding.codes) == dict(b.encoding.codes)
        and a.lfsr.polynomial == b.lfsr.polynomial
        and a.cost == b.cost
        and a.column_costs == b.column_costs
        and a.feedback_cost == b.feedback_cost
        and a.partial_assignments_explored == b.partial_assignments_explored
        and a.estimated_product_terms == b.estimated_product_terms
        and a.refinement_moves == b.refinement_moves
    )


def _run_engine_comparison(names: List[str], data_dir) -> Dict[str, object]:
    workloads = _workloads(names, data_dir)
    summary: Dict[str, object] = {
        "benchmarks": [name for name, _ in workloads],
        "multi_start": MULTI_START,
        "rows": [],
    }

    total = {"reference": 0.0, "incremental": 0.0}
    for name, fsm in workloads:
        row: Dict[str, object] = {"benchmark": name}
        results = {}
        for engine in ("reference", "incremental"):
            start = time.perf_counter()
            results[engine] = assign_misr_states(
                fsm, seed=0, engine=engine, multi_start=MULTI_START
            )
            row[f"{engine}_seconds"] = time.perf_counter() - start
            total[engine] += row[f"{engine}_seconds"]
        row["estimated_terms"] = results["reference"].estimated_product_terms
        # The whole point of the engine split: same search, same numbers.
        assert _same_result(results["reference"], results["incremental"]), name
        summary["rows"].append(row)

    summary["reference_seconds"] = total["reference"]
    summary["incremental_seconds"] = total["incremental"]
    seconds = total["incremental"]
    summary["speedup"] = total["reference"] / seconds if seconds else 0.0
    return summary


def _write_artifact(summary: Dict[str, object]) -> Optional[str]:
    path = os.environ.get("REPRO_BENCH_JSON")
    if not path:
        return None
    with open(path, "w") as handle:
        json.dump(summary, handle, indent=1, sort_keys=True)
    return path


def test_misr_assign_speedup(benchmark, bench_benchmarks, bench_data_dir):
    summary = benchmark.pedantic(
        _run_engine_comparison, args=(bench_benchmarks, bench_data_dir), rounds=1, iterations=1
    )
    print()
    rows = [
        [row["benchmark"], f"{row['reference_seconds']:.3f} s",
         f"{row['incremental_seconds']:.3f} s"]
        for row in summary["rows"]
    ]
    rows.append([
        "TOTAL", f"{summary['reference_seconds']:.3f} s",
        f"{summary['incremental_seconds']:.3f} s ({summary['speedup']:.1f}x)",
    ])
    headers = ["benchmark", "reference", "incremental"]
    print(format_table(headers, rows, title=f"MISR assignment engines (multi_start={MULTI_START})"))

    benchmark.extra_info.update(
        {k: v for k, v in summary.items() if isinstance(v, (int, float, str))}
    )
    artifact = _write_artifact(summary)
    if artifact:
        print(f"wrote benchmark summary to {artifact}")

    if not _smoke():
        speedup = summary["speedup"]
        for floor, reason in (
            (SPEEDUP_FLOOR_JOBS1, "from incrementality alone"),
            (SPEEDUP_FLOOR_TOTAL, "the engine acceptance bar"),
        ):
            assert speedup >= floor, (
                f"incremental engine is only {speedup:.1f}x faster than the reference "
                f"scorer (need >= {floor}x, {reason})"
            )
