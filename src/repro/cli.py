"""Command-line interface for the synthesis flow.

Every subcommand is a thin client of the staged pipeline in
:mod:`repro.flow`: it builds one :class:`~repro.flow.FlowConfig` from the
(uniform) command-line knobs, runs :func:`~repro.flow.run_flow` or a
:class:`~repro.flow.Sweep`, and renders the serialized result.  ``--json``
on any subcommand emits the same ``FlowResult``/``SweepResult`` schema the
library produces, and ``--cache-dir`` (or ``$REPRO_FLOW_CACHE``) attaches
the content-addressed artifact cache so re-runs skip unchanged stages.

* ``repro synthesize controller.kiss2 --structure PST`` — run the full flow
  for one machine and print the result (optionally writing the minimised PLA
  and a structural Verilog netlist),
* ``repro compare controller.kiss2`` — synthesise all four BIST structures
  and print the Table-1-style comparison (``--fault-patterns N`` adds a
  measured stuck-at coverage column),
* ``repro faultsim controller.kiss2 --patterns 4096 --word-width 256`` —
  stuck-at fault simulation of one synthesised circuit through the compiled
  bit-parallel engine (``--engine legacy`` selects the reference loop),
* ``repro benchmarks --names dk16,dk512`` — regenerate the Table 2 / Table 3
  rows for a set of MCNC benchmarks through the sweep orchestrator
  (synthetic stand-ins unless a data directory with the original ``.kiss2``
  files is given),
* ``repro sweep --machines dk512,ex4 --structures PST,DFF --seeds 0,1`` —
  run an arbitrary ``machines x structures x seeds`` grid and print per-cell
  rows plus the executor summary,
* ``repro serve --port 8520 --cache-dir cache/`` — run the HTTP coordinator
  of the ``--backend http`` service path: cell submission/claim/lease/result
  endpoints, a shared content-addressed cache tier, and a machine-readable
  ``/stats`` endpoint (schema ``repro.net/1``),
* ``repro worker queue-dir`` — run a work-queue worker daemon servicing the
  distributed ``--backend queue`` of ``sweep``/``benchmarks``; with
  ``--url http://host:port`` instead, the worker joins a ``repro serve``
  coordinator's fleet over HTTP (``--max-cells N`` / ``--drain`` exit
  gracefully after finishing in-flight work),
* ``repro fsck queue-dir`` — audit (``--repair``: fix) the invariants of a
  work-queue directory: leftover temp files, corrupt payloads, orphaned or
  duplicated claims, stale worker registrations,
* ``repro cache stats|clear|gc`` — inspect, empty or size-bound an artifact
  cache directory (LRU eviction by last use),
* ``repro corpus list|show|gen|ingest`` — the parameterized FSM corpus:
  enumerate generator families, resolve a ``corpus:<generator>:<k=v,...>``
  spec to its digest-addressed entry, write the generated machine as KISS2,
  or ingest a directory of ``.kiss`` files as named corpus entries (corpus
  specs are accepted anywhere a machine name is, including ``sweep``),
* ``repro fuzz --cases 50 --seed 0`` — randomized cross-engine invariant
  harness over generated corpus machines (compiled==legacy detections,
  incremental==reference scores, KISS2 round-trip digests, warm==cold
  cache); failures are minimized and
  emitted as ``repro.fuzz/1`` JSON, and ``repro fuzz --repro case.json``
  deterministically replays one,
* ``repro lint`` — run the AST invariant linter (determinism, digest
  completeness, serialization round-trip, atomic writes, set-iteration
  order, silently swallowed exceptions) over the source tree; nonzero
  exit on unsuppressed findings,
* ``repro validate controller.kiss2`` — check a KISS2 description,
* ``repro version`` / ``repro --version`` — report the package version.

``sweep`` and ``benchmarks`` select their execution backend with
``--backend serial|pool|queue|http`` (default: ``pool`` when ``--jobs >
1``, else ``serial``); the queue backend distributes cells through a
shared ``--queue-dir`` serviced by any number of ``repro worker``
processes, the http backend through a ``repro serve`` coordinator named
by ``--coordinator-url``, and both are bit-identical to the serial
backend at every worker count.  ``--jobs`` belongs to these two
commands only: a single flow run (``synthesize``, ``compare``,
``faultsim``) is one process, and sweeps parallelise across cells.

Invoke as ``python -m repro ...`` (an entry point is intentionally avoided so
the offline editable install stays trivial).
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence

from . import __version__
from .circuit.verilog import controller_to_verilog
from .flow import (
    BACKEND_NAMES,
    ArtifactCache,
    Sweep,
    add_flow_arguments,
    config_from_args,
    fsck_queue,
    run_coordinator,
    run_flow,
    run_http_worker,
    run_worker,
)
from .fsm import benchmark_names, parse_kiss_file, validate_fsm
from .logic.pla import write_pla
from .reporting import (
    cache_hit_rate,
    cache_stats_rows,
    faultsim_rows,
    flow_summary_rows,
    format_comparison,
    format_paper_vs_measured,
    format_table,
    structure_rows_from_results,
    sweep_cell_rows,
    sweep_executor_rows,
    sweep_table2_rows,
    sweep_table3_rows,
)

__all__ = ["main", "build_parser"]

#: Structure order of the ``compare`` subcommand (matches the paper's Table 1).
_COMPARE_STRUCTURES = ("DFF", "PAT", "SIG", "PST")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Synthesis of self-testable finite state machines (DAC 1991 reproduction)",
    )
    parser.add_argument("--version", action="version", version=f"repro {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    synth = sub.add_parser("synthesize", help="synthesise one controller")
    synth.add_argument("kiss_file", type=Path, help="FSM description in KISS2 format")
    add_flow_arguments(synth, structure=True)
    synth.add_argument("--fault-patterns", type=int, default=None,
                       help="also fault-simulate the result with N random patterns")
    synth.add_argument("--pla-out", type=Path, default=None, help="write the minimised cover as PLA")
    synth.add_argument("--verilog-out", type=Path, default=None, help="write a structural Verilog netlist")

    compare = sub.add_parser("compare", help="compare all BIST structures for one controller")
    compare.add_argument("kiss_file", type=Path)
    add_flow_arguments(compare)
    compare.add_argument("--fault-patterns", type=int, default=None,
                         help="also fault-simulate each structure with N random patterns")

    faultsim = sub.add_parser("faultsim", help="stuck-at fault simulation of one controller")
    faultsim.add_argument("kiss_file", type=Path)
    add_flow_arguments(faultsim, structure=True)
    faultsim.add_argument("--patterns", type=int, default=1024,
                          help="number of random patterns (simulated exactly)")
    faultsim.add_argument("--collapse", action="store_true",
                          help="apply equivalence collapsing to the fault list")

    bench = sub.add_parser("benchmarks", help="regenerate Table 2 / Table 3 rows")
    bench.add_argument("--names", default="dk512,modulo12,ex4,mark1",
                       help="comma-separated benchmark names or 'all'")
    bench.add_argument("--trials", type=int, default=10, help="random encodings for Table 2")
    bench.add_argument("--data-dir", type=Path, default=None,
                       help="directory with original MCNC .kiss2 files")
    add_flow_arguments(bench)
    _add_backend_arguments(bench)
    bench.add_argument("--fault-patterns", type=int, default=None,
                       help="also fault-simulate every cell with N random patterns")

    sweep = sub.add_parser("sweep", help="run a machines x structures x seeds sweep")
    sweep.add_argument("--machines", default="dk512,modulo12,ex4,mark1",
                       help="comma-separated benchmark names, .kiss2 paths or 'all'")
    sweep.add_argument("--structures", default="PST,DFF,PAT",
                       help="comma-separated BIST structures")
    sweep.add_argument("--seeds", default="0",
                       help="comma-separated assignment seeds")
    sweep.add_argument("--trials", type=int, default=None,
                       help="also run the Table 2 random baseline with N encodings")
    sweep.add_argument("--data-dir", type=Path, default=None,
                       help="directory with original MCNC .kiss2 files")
    add_flow_arguments(sweep)
    _add_backend_arguments(sweep)
    sweep.add_argument("--fault-patterns", type=int, default=None,
                       help="also fault-simulate every cell with N random patterns")

    serve = sub.add_parser(
        "serve", help="run the HTTP coordinator of the service path"
    )
    serve.add_argument("--host", default="127.0.0.1",
                       help="bind address (default: 127.0.0.1)")
    serve.add_argument("--port", type=int, default=8520,
                       help="listening port (0: pick a free port)")
    serve.add_argument("--cache-dir", default=None,
                       help="serve this directory as the fleet's shared "
                            "content-addressed cache tier")
    serve.add_argument("--lease-timeout", type=float, default=30.0,
                       help="default claim-lease window in seconds")
    serve.add_argument("--max-cache-bytes", type=int, default=None,
                       help="LRU bound of the served cache in bytes")
    serve.add_argument("--quiet", action="store_true",
                       help="suppress progress lines (the ready line always "
                            "prints)")

    worker = sub.add_parser(
        "worker", help="run a worker daemon for distributed sweeps"
    )
    worker.add_argument("queue_dir", type=Path, nargs="?", default=None,
                        help="shared queue directory of the queue backend "
                             "(created if missing; omit when using --url)")
    worker.add_argument("--url", default=None,
                        help="join a 'repro serve' coordinator fleet over "
                             "HTTP instead of a queue directory")
    worker.add_argument("--cache-dir", default=None,
                        help="override the artifact-cache directory of every cell "
                             "(with --url: where this worker keeps the artifacts it "
                             "computes; what it reads from the coordinator stays in "
                             "memory)")
    worker.add_argument("--worker-id", default=None,
                        help="stable worker identity (default: host-pid-nonce)")
    worker.add_argument("--poll-interval", type=float, default=0.1,
                        help="idle polling period in seconds")
    worker.add_argument("--max-idle", type=float, default=None,
                        help="exit after this many idle seconds (default: wait "
                             "for the stop signal)")
    worker.add_argument("--drain", action="store_true",
                        help="finish in-flight work, deregister and exit 0 as "
                             "soon as no cell is pending")
    worker.add_argument("--max-cells", type=int, default=None,
                        help="exit gracefully after executing N cells (the "
                             "in-flight cell always finishes and uploads)")
    worker.add_argument("--quiet", action="store_true",
                        help="suppress per-cell progress lines")
    worker.add_argument("--json", action="store_true", dest="as_json",
                        help="emit the exit statistics as JSON")

    fsck = sub.add_parser(
        "fsck", help="audit (and optionally repair) a work-queue directory"
    )
    fsck.add_argument("queue_dir", type=Path,
                      help="queue directory to audit")
    fsck.add_argument("--repair", action="store_true",
                      help="fix what the audit finds (delete garbage, requeue "
                           "stale claims, prune dead worker registrations)")
    fsck.add_argument("--lease-timeout", type=float, default=30.0,
                      help="staleness window for claims and worker "
                           "registrations (seconds)")
    fsck.add_argument("--json", action="store_true", dest="as_json",
                      help="emit the repro.fsck/1 report as JSON")

    cache = sub.add_parser("cache", help="inspect or manage an artifact cache")
    cache.add_argument("action", choices=("stats", "clear", "gc"),
                       help="report sizes, delete everything, or LRU-evict")
    cache.add_argument("--cache-dir", default=None,
                       help="cache directory (default: $REPRO_FLOW_CACHE)")
    cache.add_argument("--max-bytes", type=int, default=None,
                       help="gc: evict least-recently-used artifacts until the "
                            "store is at most this many bytes")
    cache.add_argument("--url", default=None,
                       help="stats: report the live cache tier of a running "
                            "'repro serve' coordinator instead of a local "
                            "directory")
    cache.add_argument("--json", action="store_true", dest="as_json",
                       help="emit the report as JSON")

    lint = sub.add_parser(
        "lint", help="run the AST invariant linter over the source tree"
    )
    lint.add_argument("paths", nargs="*", type=Path,
                      help="files or directories to lint (default: the "
                           "installed repro package)")
    lint.add_argument("--rules", default=None,
                      help="comma-separated subset of rule names to run")
    lint.add_argument("--list-rules", action="store_true",
                      help="list the registered rules and exit")
    lint.add_argument("--json", action="store_true", dest="as_json",
                      help="emit the repro.lint/1 report as JSON")

    fuzz = sub.add_parser(
        "fuzz",
        help="differential fuzzing of the engine pairs over random corpus FSMs",
    )
    fuzz.add_argument("--cases", type=int, default=50,
                      help="number of seeded random cases to run")
    fuzz.add_argument("--seed", type=int, default=0,
                      help="seed deriving the whole case list")
    fuzz.add_argument("--mutate", default=None, metavar="NAME",
                      help="deliberately break one comparison side (CI "
                           "mutation smoke; see --list-mutations)")
    fuzz.add_argument("--list-mutations", action="store_true",
                      help="list the available mutations and exit")
    fuzz.add_argument("--repro", type=Path, default=None, metavar="CASE_JSON",
                      help="replay one serialized fuzz case (or failure "
                           "entry) instead of running new cases")
    fuzz.add_argument("--no-minimize", action="store_true",
                      help="skip greedy shrinking of failing cases")
    fuzz.add_argument("--out", type=Path, default=None,
                      help="write the repro.fuzz/1 JSON report to this file")
    fuzz.add_argument("--json", action="store_true", dest="as_json",
                      help="emit the repro.fuzz/1 report as JSON on stdout")

    corpus = sub.add_parser(
        "corpus", help="inspect, generate or ingest corpus machines"
    )
    corpus.add_argument("action", choices=["list", "show", "gen", "ingest"],
                        help="list generators / describe one spec / write one "
                             "machine as KISS2 / ingest a directory of "
                             ".kiss files")
    corpus.add_argument("target", nargs="?", default=None,
                        help="corpus spec (show/gen) or directory (ingest)")
    corpus.add_argument("--out", type=Path, default=None,
                        help="gen: write the KISS2 text to this file "
                             "(default: stdout)")
    corpus.add_argument("--json", action="store_true", dest="as_json",
                        help="emit the report as JSON")

    validate = sub.add_parser("validate", help="validate a KISS2 description")
    validate.add_argument("kiss_file", type=Path)
    validate.add_argument("--json", action="store_true", dest="as_json",
                          help="emit the validation report as JSON")

    version = sub.add_parser("version", help="print the package version")
    version.add_argument("--json", action="store_true", dest="as_json",
                         help="emit the version as JSON")

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "synthesize":
        return _cmd_synthesize(args)
    if args.command == "compare":
        return _cmd_compare(args)
    if args.command == "faultsim":
        return _cmd_faultsim(args)
    if args.command == "benchmarks":
        return _cmd_benchmarks(args)
    if args.command == "sweep":
        return _cmd_sweep(args)
    if args.command == "serve":
        return _cmd_serve(args)
    if args.command == "worker":
        return _cmd_worker(args)
    if args.command == "fsck":
        return _cmd_fsck(args)
    if args.command == "cache":
        return _cmd_cache(args)
    if args.command == "lint":
        return _cmd_lint(args)
    if args.command == "fuzz":
        return _cmd_fuzz(args)
    if args.command == "corpus":
        return _cmd_corpus(args)
    if args.command == "validate":
        return _cmd_validate(args)
    if args.command == "version":
        return _cmd_version(args)
    raise AssertionError(f"unhandled command {args.command!r}")


def _add_backend_arguments(parser: argparse.ArgumentParser) -> None:
    """Attach the executor-backend options shared by sweep-shaped commands."""
    parser.add_argument("--jobs", type=int, default=1,
                        help="worker processes of the pool backend (one cell each)")
    parser.add_argument("--backend", choices=list(BACKEND_NAMES), default=None,
                        help="execution backend (default: pool when --jobs > 1, "
                             "else serial)")
    parser.add_argument("--queue-dir", type=Path, default=None,
                        help="shared work-queue directory of the queue backend "
                             "(serviced by 'repro worker' processes)")
    parser.add_argument("--coordinator-url", default=None,
                        help="base URL of a running 'repro serve' coordinator "
                             "(http backend; implies --backend http)")
    parser.add_argument("--lease-timeout", type=float, default=30.0,
                        help="queue backend: seconds without a worker heartbeat "
                             "before a cell is requeued")
    parser.add_argument("--queue-timeout", type=float, default=None,
                        help="queue backend: overall deadline in seconds "
                             "(default: wait forever for workers)")
    parser.add_argument("--allow-partial", action="store_true",
                        help="degrade instead of aborting: cells that exhaust "
                             "their retry budget land in failed_cells and the "
                             "sweep result's status becomes 'partial'")
    parser.add_argument("--max-attempts", type=int, default=3,
                        help="queue backend: per-cell execution budget before "
                             "quarantine (failures retry with exponential "
                             "backoff)")
    parser.add_argument("--cell-deadline", type=float, default=None,
                        help="per-cell execution deadline in seconds, "
                             "enforced worker-side at stage boundaries")


def _cache_from_args(args: argparse.Namespace) -> Optional[ArtifactCache]:
    cache_dir = getattr(args, "cache_dir", None)
    if cache_dir:
        return ArtifactCache(cache_dir)
    return ArtifactCache.from_env()


def _sweep_from_args(args: argparse.Namespace, names: List[str],
                     structures: Sequence[str], seeds: Sequence[int],
                     trials: Optional[int]) -> Sweep:
    config = config_from_args(args)
    return Sweep(
        names,
        structures=tuple(structures),
        seeds=tuple(seeds),
        config=config,
        cache=_cache_from_args(args),
        jobs=args.jobs,
        backend=args.backend,
        queue_dir=args.queue_dir,
        coordinator_url=args.coordinator_url,
        lease_timeout=args.lease_timeout,
        queue_timeout=args.queue_timeout,
        strict=not args.allow_partial,
        max_attempts=args.max_attempts,
        cell_deadline=args.cell_deadline,
        random_trials=trials,
        data_dir=args.data_dir,
    )


# ------------------------------------------------------------------ commands


def _cmd_synthesize(args: argparse.Namespace) -> int:
    machine = parse_kiss_file(args.kiss_file)
    config = config_from_args(args)
    cache = _cache_from_args(args)
    needs_objects = args.pla_out is not None or args.verilog_out is not None
    result = run_flow(machine, config, cache=cache, materialize=needs_objects)

    if args.as_json:
        print(result.to_json())
    else:
        print(format_table(["metric", "value"], flow_summary_rows(result.to_dict()),
                           title="Synthesis result"))
        print()
        print("State assignment:")
        codes = result.encoding["codes"]
        for state in machine.states:
            print(f"  {state} -> {codes[state]}")

    if args.pla_out is not None:
        excitation = result.controller.excitation
        args.pla_out.write_text(
            write_pla(
                result.controller.minimization.cover,
                input_names=list(excitation.input_names),
                output_names=list(excitation.output_names),
            )
        )
        if not args.as_json:
            print(f"\nwrote minimised PLA to {args.pla_out}")
    if args.verilog_out is not None:
        args.verilog_out.write_text(controller_to_verilog(result.controller))
        if not args.as_json:
            print(f"wrote Verilog netlist to {args.verilog_out}")
    return 0


def _cmd_compare(args: argparse.Namespace) -> int:
    machine = parse_kiss_file(args.kiss_file)
    config = config_from_args(args)
    cache = _cache_from_args(args)
    results = [
        run_flow(machine, config.replace(structure=structure), cache=cache)
        for structure in _COMPARE_STRUCTURES
    ]
    dicts = [result.to_dict() for result in results]
    if args.as_json:
        print(json.dumps(
            {"schema": "repro.flow-comparison/1", "fsm": machine.name, "results": dicts},
            indent=2,
        ))
        return 0
    print(format_comparison(
        structure_rows_from_results(dicts),
        title=f"BIST structure comparison — {machine.name}",
    ))
    return 0


def _cmd_faultsim(args: argparse.Namespace) -> int:
    machine = parse_kiss_file(args.kiss_file)
    config = config_from_args(
        args,
        fault_patterns=args.patterns,
        fault_seed=args.seed,
        fault_collapse=args.collapse,
    )
    cache = _cache_from_args(args)
    result = run_flow(machine, config, cache=cache)
    if args.as_json:
        print(result.to_json())
        return 0
    print(format_table(["metric", "value"], faultsim_rows(result.to_dict()),
                       title="Fault simulation"))
    return 0


def _split_csv(raw: str) -> List[str]:
    return [item.strip() for item in raw.split(",") if item.strip()]


def _split_machines(raw: str) -> List[str]:
    """Split a machine list on commas, keeping ``corpus:`` specs intact.

    Corpus specs carry their parameters as ``k=v`` pairs separated by commas
    (``corpus:chain:states=40,seed=3``), so a naive CSV split would shear
    them apart.  A fragment containing ``=`` but no ``corpus:`` prefix is a
    continuation of the preceding spec and is glued back on; benchmark names
    and file paths never contain ``=``.
    """
    machines: List[str] = []
    for fragment in _split_csv(raw):
        if machines and "=" in fragment and not fragment.startswith("corpus:"):
            machines[-1] = f"{machines[-1]},{fragment}"
        else:
            machines.append(fragment)
    return machines


def _cmd_benchmarks(args: argparse.Namespace) -> int:
    if args.names.strip().lower() == "all":
        names: List[str] = benchmark_names()
    else:
        names = _split_csv(args.names)

    sweep = _sweep_from_args(
        args, names, structures=("PST", "DFF", "PAT"), seeds=(args.seed,),
        trials=args.trials,
    )
    result = sweep.run()
    if args.as_json:
        print(result.to_json())
        _print_failed_cells(result)
        return 0
    sweep_dict = result.to_dict()
    print(format_paper_vs_measured(
        sweep_table2_rows(sweep_dict), title=f"Table 2 ({args.trials} random encodings)"
    ))
    print()
    print(format_paper_vs_measured(
        sweep_table3_rows(sweep_dict, metric="product_terms"), title="Table 3 (product terms)"
    ))
    print()
    print(format_table(["metric", "value"], sweep_executor_rows(sweep_dict),
                       title="Execution"))
    _print_failed_cells(result)
    return 0


def _print_failed_cells(result: Any) -> None:
    """Warn (on stderr) about every failed cell of a partial sweep."""
    if result.status == "complete":
        return
    print(f"\nWARNING: partial result — {len(result.failed_cells)} cell(s) "
          f"failed", file=sys.stderr)
    for cell in result.failed_cells:
        last = cell["errors"][-1] if cell.get("errors") else {}
        print(f"  {cell['cell']} ({cell['kind']}:{cell['fsm']}:"
              f"{cell['structure']}, seed {cell['seed']}) — "
              f"{cell.get('attempts', 1)} attempt(s): "
              f"{last.get('type', 'Exception')}: {last.get('message', '')}",
              file=sys.stderr)
        if cell.get("quarantined"):
            print(f"    quarantined at {cell['quarantined']}", file=sys.stderr)


def _cmd_sweep(args: argparse.Namespace) -> int:
    if args.machines.strip().lower() == "all":
        names: List[str] = benchmark_names()
    else:
        names = _split_machines(args.machines)
    structures = _split_csv(args.structures)
    seeds = [int(s) for s in _split_csv(args.seeds)]

    sweep = _sweep_from_args(args, names, structures=structures, seeds=seeds,
                             trials=args.trials)
    result = sweep.run()
    if args.as_json:
        print(result.to_json())
        _print_failed_cells(result)
        return 0
    sweep_dict = result.to_dict()
    print(format_comparison(sweep_cell_rows(sweep_dict), title="Sweep cells"))
    if result.baselines:
        print()
        print(format_paper_vs_measured(
            sweep_table2_rows(sweep_dict),
            title=f"Random baseline ({args.trials} encodings)",
        ))
    print()
    print(format_table(["metric", "value"], sweep_executor_rows(sweep_dict),
                       title="Execution"))
    print(f"\n{len(result.results)} cells in {result.total_seconds:.2f} s "
          f"({result.uncached_seconds:.2f} s of uncached stage work)")
    _print_failed_cells(result)
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    log = (lambda line: None) if args.quiet else print
    run_coordinator(
        host=args.host,
        port=args.port,
        cache_dir=args.cache_dir,
        lease_timeout=args.lease_timeout,
        max_cache_bytes=args.max_cache_bytes,
        log=log,
        # The ready line always prints (even --quiet) and is flushed:
        # scripts starting a coordinator subprocess wait on it instead of
        # polling the port.
        ready=lambda url: print(f"repro serve ready {url}", flush=True),
    )
    return 0


def _cmd_worker(args: argparse.Namespace) -> int:
    log = (lambda line: None) if args.quiet or args.as_json else print
    if args.url is not None and args.queue_dir is not None:
        print("worker takes either a queue directory or --url, not both",
              file=sys.stderr)
        return 2
    options = dict(
        cache_dir=args.cache_dir,
        worker_id=args.worker_id,
        poll_interval=args.poll_interval,
        max_idle=args.max_idle,
        max_cells=args.max_cells,
        drain=args.drain,
        log=log,
    )
    if args.url is not None:
        stats = run_http_worker(args.url, **options)
    elif args.queue_dir is not None:
        stats = run_worker(args.queue_dir, **options)
    else:
        print("worker needs a queue directory or --url http://host:port",
              file=sys.stderr)
        return 2
    if args.as_json:
        print(json.dumps(stats.to_dict(), indent=2))
    # Nonzero exit when any cell failed, so supervisors and CI scripts
    # see worker health without parsing logs.
    return 1 if stats.failures else 0


def _cmd_fsck(args: argparse.Namespace) -> int:
    report = fsck_queue(
        args.queue_dir,
        repair=args.repair,
        lease_timeout=args.lease_timeout,
    )
    if args.as_json:
        print(json.dumps(report.to_dict(), indent=2))
    else:
        print(f"fsck {report.root}: "
              f"{'clean' if report.clean else f'{len(report.issues)} issue(s)'}"
              f"{' (repaired)' if args.repair and not report.clean else ''}")
        for area, count in sorted(report.counts.items()):
            print(f"  {area}: {count} file(s)")
        for issue in report.issues:
            line = f"  [{issue.kind}] {issue.path}: {issue.detail}"
            if issue.repair:
                line += f" -> {issue.repair}"
            print(line)
        for note in report.notes:
            print(f"  note: {note}")
    return 0 if report.clean else 1


def _cmd_cache(args: argparse.Namespace) -> int:
    if args.url is not None:
        if args.action != "stats":
            print("--url only supports the stats action (clear/gc are local)",
                  file=sys.stderr)
            return 2
        return _cmd_cache_remote_stats(args)
    cache = _cache_from_args(args)
    if cache is None:
        print("no cache directory: pass --cache-dir or set $REPRO_FLOW_CACHE",
              file=sys.stderr)
        return 2
    report: Dict[str, Any] = {"root": str(cache.root), "action": args.action}
    if args.action == "stats":
        report["artifacts"] = len(cache)
        report["total_bytes"] = cache.total_bytes()
        stats = cache.stats
        report.update(stats)
        rate = cache_hit_rate(stats)
        report["hit_rate"] = round(rate, 4) if rate is not None else None
    elif args.action == "clear":
        report["removed"] = cache.clear()
    else:  # gc
        if args.max_bytes is None:
            print("cache gc needs --max-bytes", file=sys.stderr)
            return 2
        report.update(cache.gc(max_bytes=args.max_bytes))
    if args.as_json:
        print(json.dumps(report, indent=2))
    else:
        for key, value in report.items():
            print(f"{key}: {value}")
        if args.action == "stats":
            print(format_table(["metric", "value"], cache_stats_rows(report),
                               title="Session counters"))
    return 0


def _cmd_cache_remote_stats(args: argparse.Namespace) -> int:
    """``repro cache stats --url``: the live tier of a running coordinator."""
    from .flow.net.protocol import CoordinatorError, request_with_retry

    base = args.url.rstrip("/")
    try:
        payload = request_with_retry(f"{base}/api/v1/stats", "GET", tries=3)
    except CoordinatorError as exc:
        print(f"cannot reach coordinator {base}: {exc}", file=sys.stderr)
        return 2
    block = payload.get("cache")
    if not isinstance(block, dict):
        print(f"coordinator {base} serves no cache tier", file=sys.stderr)
        return 2
    if args.as_json:
        print(json.dumps({"url": base, "action": "stats", **block}, indent=2))
        return 0
    print(f"url: {base}")
    if block.get("root"):
        print(f"root: {block['root']}")
    print(format_table(["metric", "value"], cache_stats_rows(block),
                       title="Coordinator cache tier"))
    return 0


def _cmd_lint(args: argparse.Namespace) -> int:
    from .analysis import default_rules, lint_paths

    if args.list_rules:
        rules = default_rules()
        if args.as_json:
            print(json.dumps(
                [{"name": r.name, "description": r.description,
                  "modules": list(r.module_prefixes)} for r in rules],
                indent=2,
            ))
        else:
            for rule in rules:
                print(f"{rule.name}: {rule.description}")
        return 0
    names = _split_csv(args.rules) if args.rules else None
    try:
        rules = default_rules(names)
    except ValueError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    paths = [str(p) for p in args.paths] or [str(Path(__file__).parent)]
    report = lint_paths(paths, rules=rules)
    if args.as_json:
        print(report.to_json())
    else:
        print(report.render())
    return 0 if report.ok else 1


def _cmd_fuzz(args: argparse.Namespace) -> int:
    from .corpus import MUTATIONS, replay_case, run_fuzz
    from .reporting import fuzz_failure_rows, fuzz_summary_rows

    if args.list_mutations:
        for name, description in MUTATIONS.items():
            print(f"{name}: {description}")
        return 0

    if args.repro is not None:
        data = json.loads(args.repro.read_text())
        outcome = replay_case(data, mutation=args.mutate)
        if args.as_json:
            print(json.dumps(outcome, indent=2))
        else:
            case = outcome["case"]
            print(f"replayed case {case['case_id']}: {case['spec']}")
            print(f"invariants: {', '.join(case['invariants'])}")
            print(f"status: {outcome['status']} ({outcome['seconds']}s)")
            for failure in outcome["failures"]:
                print(f"  [{failure['invariant']}] {failure['detail']}")
        return 0 if outcome["status"] == "pass" else 1

    progress = None
    if not args.as_json:
        progress = lambda message: print(message, file=sys.stderr)  # noqa: E731
    try:
        report = run_fuzz(
            cases=args.cases,
            seed=args.seed,
            mutate=args.mutate,
            minimize=not args.no_minimize,
            progress=progress,
        )
    except ValueError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    payload = report.to_dict()
    if args.out is not None:
        args.out.write_text(json.dumps(payload, indent=2))
    if args.as_json:
        print(json.dumps(payload, indent=2))
    else:
        print(format_table(["metric", "value"], fuzz_summary_rows(payload),
                           title="Differential fuzzing"))
        failures = fuzz_failure_rows(payload)
        if failures:
            print()
            print(format_comparison(failures, title="Failures (minimized)"))
        if args.out is not None:
            print(f"\nwrote repro.fuzz/1 report to {args.out}")
    return 0 if report.ok else 1


def _cmd_corpus(args: argparse.Namespace) -> int:
    from .corpus import GENERATORS, corpus_entry, corpus_fsm, ingest_kiss_dir
    from .fsm import write_kiss

    if args.action == "list":
        rows = [
            {
                "generator": info.name,
                "defaults": ",".join(f"{k}={v}" for k, v in info.defaults.items()),
                "summary": info.summary,
            }
            for info in GENERATORS.values()
        ]
        if args.as_json:
            print(json.dumps({"schema": "repro.corpus/1", "generators": rows}, indent=2))
        else:
            print(format_comparison(rows, title="Corpus generators"))
        return 0

    if args.target is None:
        print(f"corpus {args.action} needs a target", file=sys.stderr)
        return 2

    if args.action == "show":
        entry = corpus_entry(args.target)
        if args.as_json:
            print(json.dumps({"schema": "repro.corpus/1", **entry.to_dict()}, indent=2))
        else:
            for key, value in entry.to_dict().items():
                print(f"{key}: {value}")
        return 0

    if args.action == "gen":
        machine = corpus_fsm(args.target)
        text = write_kiss(machine)
        if args.out is not None:
            args.out.write_text(text)
            if not args.as_json:
                print(f"wrote {machine.name} ({machine.num_states} states) to {args.out}")
        else:
            print(text, end="")
        return 0

    entries = ingest_kiss_dir(args.target)
    rows = [entry.to_dict() for entry in entries]
    if args.as_json:
        print(json.dumps({"schema": "repro.corpus/1", "entries": rows}, indent=2))
    else:
        print(format_comparison(
            [{k: (v[:16] if k == "digest" else v) for k, v in row.items()}
             for row in rows],
            title=f"Ingested corpus ({len(rows)} machines)",
        ))
    return 0


def _cmd_validate(args: argparse.Namespace) -> int:
    machine = parse_kiss_file(args.kiss_file)
    report = validate_fsm(machine)
    if args.as_json:
        print(json.dumps(
            {
                "schema": "repro.flow-validate/1",
                "fsm": machine.name,
                "states": machine.num_states,
                "inputs": machine.num_inputs,
                "outputs": machine.num_outputs,
                "transitions": len(machine.transitions),
                "ok": report.ok,
                "issues": [
                    {"severity": i.severity, "code": i.code, "message": i.message}
                    for i in report.issues
                ],
            },
            indent=2,
        ))
        return 0 if report.ok else 1
    print(f"{machine.name}: {machine.num_states} states, {machine.num_inputs} inputs, "
          f"{machine.num_outputs} outputs, {len(machine.transitions)} transitions")
    for issue in report.issues:
        print(f"  [{issue.severity}] {issue.code}: {issue.message}")
    if report.ok:
        print("OK")
        return 0
    print("ERRORS found")
    return 1


def _cmd_version(args: argparse.Namespace) -> int:
    if args.as_json:
        print(json.dumps({"version": __version__}))
    else:
        print(__version__)
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
