"""Plain-text table rendering for experiment reports.

The benchmark harnesses print their results in the same tabular shape as the
paper's Tables 2 and 3, so a reader can put the reproduction next to the
original.  Only standard-library string formatting is used; the helpers here
keep the benchmarks free of formatting noise.

The ``*_rows`` helpers in the second half render from the serialized
dictionaries of the :mod:`repro.flow` layer (``FlowResult.to_dict()`` /
``SweepResult.to_dict()``), so the CLI and the benchmark harnesses print the
same JSON schema they emit — there is no second, bespoke tuple shape.
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, List, Mapping, Optional, Sequence

__all__ = [
    "format_table",
    "format_comparison",
    "format_paper_vs_measured",
    "flow_summary_rows",
    "faultsim_rows",
    "structure_rows_from_results",
    "sweep_table2_rows",
    "sweep_table3_rows",
    "sweep_cell_rows",
    "sweep_executor_rows",
    "cache_stats_rows",
    "cache_hit_rate",
    "fuzz_summary_rows",
    "fuzz_failure_rows",
]


def format_table(
    headers: Sequence[str],
    rows: Sequence[Sequence[object]],
    title: Optional[str] = None,
) -> str:
    """Render a simple aligned text table."""
    columns = len(headers)
    cells = [[_fmt(v) for v in row] for row in rows]
    for row in cells:
        if len(row) != columns:
            raise ValueError("row length does not match header length")
    widths = [len(h) for h in headers]
    for row in cells:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))

    lines: List[str] = []
    if title:
        lines.append(title)
    lines.append("  ".join(h.ljust(widths[i]) for i, h in enumerate(headers)))
    lines.append("  ".join("-" * widths[i] for i in range(columns)))
    for row in cells:
        lines.append("  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row)))
    return "\n".join(lines)


def format_comparison(rows: Sequence[Mapping[str, object]], title: Optional[str] = None) -> str:
    """Render a list of homogeneous dictionaries as a table."""
    if not rows:
        return title or ""
    headers = list(rows[0].keys())
    return format_table(headers, [[row.get(h, "") for h in headers] for row in rows], title)


def format_paper_vs_measured(
    rows: Sequence[Mapping[str, object]],
    benchmark_key: str = "benchmark",
    title: Optional[str] = None,
) -> str:
    """Render paper-vs-measured rows, keeping the benchmark column first."""
    if not rows:
        return title or ""
    headers = [benchmark_key] + [k for k in rows[0] if k != benchmark_key]
    return format_table(headers, [[row.get(h, "") for h in headers] for row in rows], title)


def _fmt(value: object) -> str:
    if isinstance(value, float):
        return f"{value:.2f}"
    return str(value)


# --------------------------------------------------- FlowResult-dict renders


def _stage(result: Mapping[str, Any], name: str) -> Mapping[str, Any]:
    for stage in result["stages"]:
        if stage["name"] == name:
            return stage
    raise KeyError(f"flow result has no stage {name!r}")


def flow_summary_rows(result: Mapping[str, Any]) -> List[List[object]]:
    """``metric / value`` rows of one serialized flow result (synthesize)."""
    parse = _stage(result, "parse")["metrics"]
    metrics = result["metrics"]
    rows: List[List[object]] = [
        ["machine", result["fsm"]],
        ["structure", result["structure"]],
        ["states / inputs / outputs",
         f"{parse['states']} / {parse['inputs']} / {parse['outputs']}"],
        ["state variables", metrics["state_bits"]],
        ["product terms", metrics["product_terms"]],
        ["two-level literals", metrics["sop_literals"]],
        ["multi-level literals", metrics["multilevel_literals"]],
    ]
    if metrics.get("register_polynomial") is not None:
        rows.append(["feedback polynomial", bin(metrics["register_polynomial"])])
    if metrics.get("fault_coverage") is not None:
        rows.append(["fault coverage", f"{metrics['fault_coverage']:.4f}"])
        rows.append(["total faults", metrics["fault_total"]])
    return rows


def faultsim_rows(result: Mapping[str, Any]) -> List[List[object]]:
    """``metric / value`` rows of one serialized fault-simulation flow run."""
    config = result["config"]
    metrics = result["metrics"]
    stage = _stage(result, "faultsim")
    fault_label = "faults (collapsed)" if config.get("fault_collapse") else "faults"
    return [
        ["machine", result["fsm"]],
        ["structure", result["structure"]],
        ["engine", config["engine"]],
        ["word width", config["word_width"]],
        ["gates", metrics["gates"]],
        [fault_label, metrics["fault_total"]],
        ["patterns simulated", metrics["patterns_simulated"]],
        ["detected faults", metrics["fault_detected"]],
        ["fault coverage", f"{metrics['fault_coverage']:.4f}"],
        ["wall-clock seconds", round(stage["seconds"], 3)],
        ["served from cache", "yes" if stage["cached"] else "no"],
    ]


def structure_rows_from_results(
    results: Sequence[Mapping[str, Any]],
) -> List[Dict[str, object]]:
    """Table-1-style comparison rows from serialized flow results."""
    rows: List[Dict[str, object]] = []
    for result in results:
        metrics = result["metrics"]
        row: Dict[str, object] = {
            "structure": result["structure"],
            "product terms": metrics["product_terms"],
            "SOP literals": metrics["sop_literals"],
            "multi-level literals": metrics["multilevel_literals"],
            "register bits": metrics["register_bits"],
            "control signals": metrics["control_signals"],
            "XORs in data path": metrics["xor_gates_in_system_path"],
            "mode muxes": metrics["mode_multiplexers"],
            "disjoint test mode": "yes" if metrics["disjoint_test_mode"] else "no",
            "at-speed test": "yes" if metrics["at_speed_dynamic_fault_test"] else "no",
            "autonomous transitions": metrics["autonomous_transitions"],
        }
        if metrics.get("fault_coverage") is not None:
            row["fault coverage"] = f"{metrics['fault_coverage']:.4f}"
        if metrics.get("fault_total") is not None:
            row["total faults"] = metrics["fault_total"]
        rows.append(row)
    return rows


def _sweep_cell(sweep: Mapping[str, Any], machine: str, structure: str) -> Mapping[str, Any]:
    for result in sweep["results"]:
        if result["fsm"] == machine and result["structure"] == structure:
            return result
    raise KeyError(f"sweep has no cell ({machine!r}, {structure!r})")


def sweep_table2_rows(
    sweep: Mapping[str, Any], include_paper_baseline: bool = False
) -> List[Dict[str, object]]:
    """Table 2 rows (random baseline vs heuristic) from a serialized sweep.

    ``include_paper_baseline`` adds the paper's random-average/random-best
    columns next to the measured baseline (the CLI's compact table omits
    them; the example sweep shows them).
    """
    from ..fsm.mcnc import PAPER_TABLE2

    rows: List[Dict[str, object]] = []
    for name in sweep["machines"]:
        heuristic = _sweep_cell(sweep, name, "PST")["metrics"]["product_terms"]
        baseline = sweep.get("baselines", {}).get(name)
        paper = PAPER_TABLE2.get(name)
        row: Dict[str, object] = {"benchmark": name}
        if baseline is not None:
            row["random avg"] = round(baseline["average"], 1)
            row["random best"] = int(baseline["best"])
        row["heuristic"] = heuristic
        if include_paper_baseline and baseline is not None:
            row["paper avg"] = paper.random_average if paper is not None else ""
            row["paper best"] = paper.random_best if paper is not None else ""
        row["paper heuristic"] = paper.heuristic if paper is not None else ""
        rows.append(row)
    return rows


def cache_hit_rate(stats: Mapping[str, Any]) -> Optional[float]:
    """The hit fraction of one cache-counter mapping (``None``: no lookups)."""
    hits = int(stats.get("hits", 0))
    lookups = hits + int(stats.get("misses", 0))
    return hits / lookups if lookups else None


def cache_stats_rows(stats: Mapping[str, Any]) -> List[List[object]]:
    """``metric / value`` rows of one cache-counter mapping.

    Works on every counter shape the flow layer produces: a live
    ``ArtifactCache.stats`` / ``RemoteCache.stats`` property value, the
    aggregated ``cache_stats`` of a serialized sweep, and the ``cache``
    block of the coordinator's ``/stats`` payload.  The hit-rate row is
    always present (``n/a`` until the first lookup); zero-valued
    incidental counters (evictions, corruption, remote tiers) are elided.
    """
    rate = cache_hit_rate(stats)
    rows: List[List[object]] = [
        ["cache hits / misses / writes",
         f"{stats.get('hits', 0)} / {stats.get('misses', 0)}"
         f" / {stats.get('writes', 0)}"],
        ["cache hit rate", f"{rate:.1%}" if rate is not None else "n/a"],
    ]
    if stats.get("remote_hits") or stats.get("remote_misses"):
        rows.append(["remote hits / misses",
                     f"{stats.get('remote_hits', 0)} / "
                     f"{stats.get('remote_misses', 0)}"])
    if stats.get("remote_corrupt"):
        rows.append(["corrupt remote downloads (served as misses)",
                     stats["remote_corrupt"]])
    if stats.get("remote_errors"):
        rows.append(["remote cache errors (degraded to local)",
                     stats["remote_errors"]])
    if stats.get("evictions"):
        rows.append(["cache evictions", stats["evictions"]])
    if stats.get("corrupt"):
        rows.append(["corrupt cache entries dropped", stats["corrupt"]])
    return rows


def sweep_executor_rows(sweep: Mapping[str, Any]) -> List[List[object]]:
    """``metric / value`` rows describing how a serialized sweep executed.

    Renders the executor metadata of ``SweepResult.to_dict()`` — backend,
    worker count, requeued cells, per-worker cell counts — plus the
    aggregated artifact-cache statistics of every cell (including cells
    that ran in pool workers, on remote queue workers, or on an HTTP
    fleet), with the hit rate computed from the aggregated counters.
    """
    executor = sweep.get("executor", {})
    rows: List[List[object]] = [
        ["backend", executor.get("backend", "serial")],
        ["workers", executor.get("workers", 1)],
        ["cells requeued", executor.get("cells_requeued", 0)],
    ]
    if executor.get("coordinator_url"):
        rows.append(["coordinator", executor["coordinator_url"]])
    status = sweep.get("status", "complete")
    if status != "complete" or sweep.get("failed_cells"):
        failed = sweep.get("failed_cells", [])
        rows.append(["status", status])
        rows.append(["failed cells", ", ".join(
            f"{cell.get('kind')}:{cell.get('fsm')}:{cell.get('structure')}"
            f" (x{cell.get('attempts', 1)})"
            for cell in failed
        ) or "0"])
    for counter in ("retries", "corrupt_results", "cells_lost"):
        if executor.get(counter):
            rows.append([counter.replace("_", " "), executor[counter]])
    if executor.get("quarantined"):
        rows.append(["quarantined", ", ".join(executor["quarantined"])])
    per_worker: Dict[str, int] = {}
    for cell in executor.get("cells", []):
        worker = cell.get("worker")
        if worker:
            per_worker[worker] = per_worker.get(worker, 0) + 1
    if per_worker:
        rows.append(["cells per worker", ", ".join(
            f"{worker}={count}" for worker, count in sorted(per_worker.items())
        )])
    cache_stats = sweep.get("cache_stats", {})
    if cache_stats:
        rows.extend(cache_stats_rows(cache_stats))
    return rows


def sweep_cell_rows(sweep: Mapping[str, Any]) -> List[Dict[str, object]]:
    """One row per sweep cell: metrics plus execution provenance."""
    workers: Dict[tuple, object] = {}
    for cell in sweep.get("executor", {}).get("cells", []):
        key = (cell.get("kind"), cell.get("fsm"), cell.get("structure"), cell.get("seed"))
        workers[key] = cell.get("worker")
    rows: List[Dict[str, object]] = []
    for result in sweep["results"]:
        metrics = result["metrics"]
        config = result["config"]
        work_stages = [s for s in result["stages"] if s["name"] not in ("parse", "report")]
        key = ("flow", result["fsm"], result["structure"], config["seed"])
        row: Dict[str, object] = {
            "benchmark": result["fsm"],
            "structure": result["structure"],
            "seed": config["seed"],
            "product terms": metrics["product_terms"],
            "SOP literals": metrics["sop_literals"],
            "multi-level literals": metrics["multilevel_literals"],
            "cached": "yes" if work_stages and all(s["cached"] for s in work_stages) else "no",
            "worker": workers.get(key, "") or "",
        }
        rows.append(row)
    return rows


def sweep_table3_rows(
    sweep: Mapping[str, Any], metric: str = "product_terms"
) -> List[Dict[str, object]]:
    """Table 3 rows (PST/SIG vs DFF vs PAT) from a serialized sweep.

    ``metric`` selects the compared column: ``"product_terms"`` for the left
    half of the paper's table, ``"multilevel_literals"`` for the right half.
    """
    from ..fsm.mcnc import PAPER_TABLE3

    if metric == "product_terms":
        paper_columns = ("terms_pst_sig", "terms_dff", "terms_pat")
    elif metric == "multilevel_literals":
        paper_columns = ("literals_pst_sig", "literals_dff", "literals_pat")
    else:
        raise ValueError(f"unknown Table 3 metric {metric!r}")

    rows: List[Dict[str, object]] = []
    for name in sweep["machines"]:
        paper = PAPER_TABLE3.get(name)
        row: Dict[str, object] = {
            "benchmark": name,
            "PST/SIG": _sweep_cell(sweep, name, "PST")["metrics"][metric],
            "DFF": _sweep_cell(sweep, name, "DFF")["metrics"][metric],
            "PAT": _sweep_cell(sweep, name, "PAT")["metrics"][metric],
            "paper PST/SIG": getattr(paper, paper_columns[0]) if paper else "",
            "paper DFF": getattr(paper, paper_columns[1]) if paper else "",
            "paper PAT": getattr(paper, paper_columns[2]) if paper else "",
        }
        rows.append(row)
    return rows


def fuzz_summary_rows(report: Mapping[str, Any]) -> List[List[object]]:
    """Headline rows of a serialized ``repro.fuzz/1`` report."""
    rows: List[List[object]] = [
        ["schema", report.get("schema", "")],
        ["seed", report.get("seed", "")],
        ["cases", report.get("cases", "")],
        ["passed", report.get("passed", "")],
        ["failed", report.get("failed", "")],
        ["largest machine (states)", report.get("max_states", "")],
        ["seconds", report.get("seconds", "")],
    ]
    mutation = report.get("mutation")
    if mutation:
        rows.insert(1, ["mutation", mutation])
    for name, count in sorted(dict(report.get("invariant_counts", {})).items()):
        rows.append([f"invariant {name}", f"checked on {count} case(s)"])
    return rows


def fuzz_failure_rows(report: Mapping[str, Any]) -> List[Dict[str, object]]:
    """One row per fuzz failure: case, invariant, detail, minimized spec."""
    rows: List[Dict[str, object]] = []
    for entry in report.get("failures", []):
        case = entry.get("case", {})
        minimized = entry.get("minimized", {})
        for failure in entry.get("failures", []):
            rows.append({
                "case": case.get("case_id", ""),
                "invariant": failure.get("invariant", ""),
                "detail": failure.get("detail", ""),
                "minimized spec": minimized.get("spec", ""),
            })
    return rows
