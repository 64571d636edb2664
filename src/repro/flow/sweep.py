"""Batch sweep orchestration over ``machines x structures x seeds`` grids.

:class:`Sweep` is pure orchestration: it generates the serializable cell
payloads (:meth:`Sweep.cells`), hands them to a pluggable executor
backend (:mod:`repro.flow.backends` — in-process serial, local process
pool, or a filesystem work-queue serviced by ``repro worker`` daemons),
and reassembles the outcomes **in submission order** into one
:class:`SweepResult`.  Every backend funnels through the same
:func:`repro.flow.cells.run_cell`, so the sweep result is bit-identical
at every worker count and across backends (modulo timing and
worker-metadata fields).  With an artifact cache attached, a repeated
sweep only recomputes cells whose machine or configuration changed.

The optional random-encoding baseline of the Table 2 experiment (average /
best of N random state assignments) runs through the same executor and the
same cache, as a ``baseline`` pseudo-stage keyed by the trial count and
seed.

Cells are shipped as ``(name, KISS2 text, state order, config dict)``
payloads — JSON-safe, which is what lets the queue backend distribute
them across processes and hosts.

The sweep hands its cells to the executor *leader first*
(:func:`leader_first`): the first cell of every assign family goes out
before any of its siblings, so concurrent workers do not compute one
shared assign artifact twice.  Outcomes merge by cell id, so the order
changes no result.

A sweep parallelises across cells only; a run is one process.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Mapping, Optional, Sequence, Set, Tuple, Union

from ..bist.structures import BISTStructure
from ..fsm.kiss import write_kiss
from ..fsm.machine import FSM
from .backends import RetryPolicy, SweepExecutor, resolve_backend
from .cache import ArtifactCache, artifact_key
from .cells import BaselineResult, cell_id
from .config import FlowConfig
from .pipeline import FSMSource, fsm_digest, resolve_fsm
from .results import FlowResult, jsonable

__all__ = ["Sweep", "SweepResult", "BaselineResult", "leader_first"]

SWEEP_RESULT_SCHEMA = "repro.flow-sweep/3"

#: Default structure grid of the Table 3 experiment.
DEFAULT_STRUCTURES: Tuple[str, ...] = ("PST", "DFF", "PAT")


@dataclass(frozen=True)
class SweepResult:
    """Serializable result of one sweep: every cell plus the baselines.

    ``executor`` records how the sweep ran (backend name, worker count,
    requeued cells, per-cell worker ids) and ``cache_stats`` the
    aggregated artifact-cache activity of every cell — including cells
    that ran in pool workers or on remote queue workers, whose cache
    counters used to be silently dropped.

    Since schema ``repro.flow-sweep/3`` a sweep may *degrade* instead of
    aborting: with ``Sweep(strict=False)`` cells that exhausted their
    retry budget are reported in ``failed_cells`` (cell identity plus the
    full per-attempt structured error history) and ``status`` becomes
    ``"partial"``; a fully successful sweep has ``status == "complete"``
    and an empty ``failed_cells`` on every backend.
    """

    machines: Tuple[str, ...]
    structures: Tuple[str, ...]
    seeds: Tuple[int, ...]
    config: Mapping[str, Any]
    results: Tuple[FlowResult, ...]
    baselines: Mapping[str, BaselineResult] = field(default_factory=dict)
    total_seconds: float = 0.0
    executor: Mapping[str, Any] = field(default_factory=dict)
    cache_stats: Mapping[str, int] = field(default_factory=dict)
    status: str = "complete"
    failed_cells: Tuple[Mapping[str, Any], ...] = ()
    schema: str = SWEEP_RESULT_SCHEMA

    def result_for(
        self, machine: str, structure: str, seed: Optional[int] = None
    ) -> FlowResult:
        want_seed = self.seeds[0] if seed is None else seed
        for result in self.results:
            if (
                result.fsm == machine
                and result.structure == structure
                and result.config.get("seed") == want_seed
            ):
                return result
        raise KeyError(f"sweep has no cell ({machine!r}, {structure!r}, seed={want_seed})")

    @property
    def all_cached(self) -> bool:
        """True when every cell (and baseline) was served from the cache."""
        cells = all(result.all_cached for result in self.results)
        baselines = all(b.cached for b in self.baselines.values())
        return cells and baselines

    @property
    def uncached_seconds(self) -> float:
        """Wall-clock spent on stage work that was actually recomputed."""
        stage_work = sum(result.uncached_seconds for result in self.results)
        baseline_work = sum(b.seconds for b in self.baselines.values() if not b.cached)
        return stage_work + baseline_work

    def to_dict(self) -> Dict[str, Any]:
        return {
            "schema": self.schema,
            "machines": list(self.machines),
            "structures": list(self.structures),
            "seeds": list(self.seeds),
            "config": dict(self.config),
            "results": [result.to_dict() for result in self.results],
            "baselines": {name: b.to_dict() for name, b in self.baselines.items()},
            "total_seconds": round(self.total_seconds, 6),
            "executor": jsonable(dict(self.executor)),
            "cache_stats": dict(self.cache_stats),
            "status": self.status,
            "failed_cells": [dict(cell) for cell in self.failed_cells],
        }

    def to_json(self, indent: Optional[int] = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent)

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "SweepResult":
        return cls(
            machines=tuple(data["machines"]),
            structures=tuple(data["structures"]),
            seeds=tuple(data["seeds"]),
            config=dict(data["config"]),
            results=tuple(FlowResult.from_dict(r) for r in data["results"]),
            baselines={
                name: BaselineResult.from_dict(b)
                for name, b in data.get("baselines", {}).items()
            },
            total_seconds=float(data.get("total_seconds", 0.0)),
            executor=dict(data.get("executor", {})),
            cache_stats=dict(data.get("cache_stats", {})),
            # Schema /2 payloads predate degradation: every recorded sweep
            # back then either completed or raised, so "complete" is right.
            status=str(data.get("status", "complete")),
            failed_cells=tuple(dict(c) for c in data.get("failed_cells", ())),
            schema=data.get("schema", SWEEP_RESULT_SCHEMA),
        )


class Sweep:
    """Run ``machines x structures x seeds`` through one executor backend.

    Args:
        machines: FSMs, ``.kiss2`` paths or registered benchmark names.
        structures: BIST structures per machine (enums or value strings).
        seeds: assignment seeds per (machine, structure) pair.
        config: base :class:`FlowConfig`; ``structure``/``seed`` are
            overridden per cell.
        cache: optional shared artifact cache (or a directory path).
        jobs: back-compat worker count.  With ``backend=None``,
            ``jobs > 1`` selects the local process pool (cells merge in
            submission order, so results are identical at every jobs
            count); ``jobs == 1`` runs serially in-process.
        backend: executor backend — ``"serial"``, ``"pool"``, ``"queue"``,
            ``"http"``, or a :class:`~repro.flow.backends.SweepExecutor`
            instance.  ``None`` keeps the ``jobs=``-based mapping above.
        queue_dir: shared work-queue directory (queue backend only).
        coordinator_url: base URL of a running ``repro serve`` coordinator
            (http backend only) — cells are submitted over HTTP and
            serviced by ``repro worker --url`` fleets on any host.
        lease_timeout: queue/http lease expiry in seconds.
        queue_timeout: overall queue/http deadline in seconds; ``None``
            waits forever for workers.
        strict: with ``True`` (the default) any failed cell raises
            :class:`RuntimeError` — today's all-or-nothing contract.
            With ``False`` the sweep *degrades*: failed cells land in
            ``SweepResult.failed_cells`` with their per-attempt error
            history and the result's ``status`` becomes ``"partial"``.
        max_attempts: per-cell execution budget of the queue backend's
            retry policy (failures retry with exponential backoff until
            classified deterministic or the budget is spent; the poison
            cell is then quarantined under ``<queue-dir>/failed/``).
        retry_backoff: base backoff delay in seconds between retries
            (doubles per attempt, queue backend only).
        cell_deadline: per-cell execution deadline in seconds, enforced
            worker-side at stage boundaries on every backend (``None``:
            no deadline).
        random_trials: with a value, additionally run the Table 2
            random-encoding baseline (``random_trials`` random PST
            assignments per machine, seeded with ``random_seed``).
        data_dir: directory with original MCNC ``.kiss2`` files.
    """

    def __init__(
        self,
        machines: Sequence[FSMSource],
        structures: Sequence[Union[str, BISTStructure]] = DEFAULT_STRUCTURES,
        seeds: Sequence[int] = (0,),
        config: Optional[FlowConfig] = None,
        cache: Optional[Union[ArtifactCache, str, Path]] = None,
        jobs: int = 1,
        backend: Optional[Union[str, SweepExecutor]] = None,
        queue_dir: Optional[Union[str, Path]] = None,
        coordinator_url: Optional[str] = None,
        lease_timeout: float = 30.0,
        queue_timeout: Optional[float] = None,
        strict: bool = True,
        max_attempts: int = 3,
        retry_backoff: float = 0.25,
        cell_deadline: Optional[float] = None,
        random_trials: Optional[int] = None,
        random_seed: int = 1991,
        data_dir: Optional[Union[str, Path]] = None,
    ) -> None:
        if not machines:
            raise ValueError("sweep needs at least one machine")
        if not structures:
            raise ValueError("sweep needs at least one structure")
        self.fsms: List[FSM] = [resolve_fsm(m, data_dir=data_dir) for m in machines]
        names = [fsm.name for fsm in self.fsms]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate machine names in sweep: {names}")
        self.machines: Tuple[str, ...] = tuple(names)
        self.structures: Tuple[str, ...] = tuple(
            s.value if isinstance(s, BISTStructure) else BISTStructure(s).value
            for s in structures
        )
        self.seeds: Tuple[int, ...] = tuple(seeds) or (0,)
        self.config = config or FlowConfig()
        if isinstance(cache, (str, Path)):
            cache = ArtifactCache(cache)
        self.cache: Optional[ArtifactCache] = cache
        self.jobs = max(1, int(jobs))
        self.strict = bool(strict)
        self.cell_deadline = cell_deadline
        if backend is None and coordinator_url is not None:
            backend = "http"
        self.executor: SweepExecutor = resolve_backend(
            backend,
            jobs=self.jobs,
            queue_dir=queue_dir,
            coordinator_url=coordinator_url,
            lease_timeout=lease_timeout,
            timeout=queue_timeout,
            retry=RetryPolicy(max_attempts=max_attempts, backoff_base=retry_backoff),
        )
        self.random_trials = random_trials
        self.random_seed = random_seed

    # ---------------------------------------------------------------- cells
    def cells(self) -> List[Dict[str, Any]]:
        """The work items of this sweep, in deterministic merge order.

        Each cell is a plain JSON-safe dictionary (cell id, machine name,
        KISS2 text, state order, config dict) — the payload shape the
        executor backends distribute, locally or across hosts.
        """
        tasks: List[Dict[str, Any]] = []
        cache_dir = str(self.cache.root) if self.cache is not None else None
        # A RemoteCache carries its coordinator URL; shipping it with the
        # payloads points every out-of-process worker at the same shared
        # remote tier (workers substitute their own local directory).
        cache_url = getattr(self.cache, "url", None)
        for fsm in self.fsms:
            common: Dict[str, Any] = {
                "name": fsm.name,
                "kiss": write_kiss(fsm),
                "states": list(fsm.states),
                "cache_dir": cache_dir,
            }
            if cache_url is not None:
                common["cache_url"] = str(cache_url)
            if self.cell_deadline is not None:
                common["deadline_seconds"] = float(self.cell_deadline)
            if self.random_trials is not None:
                baseline_config = self.config.replace(structure="PST", seed=self.seeds[0])
                tasks.append(dict(
                    common,
                    kind="baseline",
                    config=baseline_config.to_dict(),
                    trials=self.random_trials,
                    random_seed=self.random_seed,
                ))
            for seed in self.seeds:
                for structure in self.structures:
                    cell_config = self.config.replace(structure=structure, seed=seed)
                    tasks.append(dict(common, kind="flow", config=cell_config.to_dict()))
        for index, task in enumerate(tasks):
            task["cell"] = cell_id(index, task)
        return tasks

    # ------------------------------------------------------------------ run
    def run(self) -> SweepResult:
        start = time.perf_counter()
        tasks = self.cells()
        fsms = {fsm.name: fsm for fsm in self.fsms}
        cache_totals: Dict[str, int] = {}
        pending = leader_first(tasks, fsms)
        report = self.executor.execute(pending, fsms=fsms, cache=self.cache)
        outcome_by_cell = {
            task["cell"]: outcome for task, outcome in zip(pending, report.outcomes)
        }

        results: List[FlowResult] = []
        baselines: Dict[str, BaselineResult] = {}
        cell_meta: List[Dict[str, Any]] = []
        failed_cells: List[Dict[str, Any]] = []
        for task in tasks:
            outcome = outcome_by_cell[task["cell"]]
            if outcome.get("error"):
                if self.strict:
                    raise RuntimeError(
                        f"sweep cell {task['cell']} ({task['kind']}:{task['name']}) "
                        f"failed on worker {outcome.get('worker')} "
                        f"after {int(outcome.get('attempts', 1))} attempt(s): "
                        f"{_render_cell_error(outcome['error'])}"
                    )
                # Graceful degradation: the cell's identity plus its full
                # per-attempt structured error history travel in the result.
                history = outcome.get("error_attempts") or [
                    dict(outcome["error"], attempt=1)
                ]
                failed_cells.append({
                    "cell": task["cell"],
                    "kind": task["kind"],
                    "fsm": task["name"],
                    "structure": task["config"]["structure"],
                    "seed": task["config"]["seed"],
                    "worker": outcome.get("worker"),
                    "attempts": int(outcome.get("attempts", 1)),
                    "errors": [dict(record) for record in history],
                    "quarantined": outcome.get("quarantined"),
                })
                continue
            stats = outcome.get("cache_stats")
            if stats:
                for key, value in stats.items():
                    cache_totals[key] = cache_totals.get(key, 0) + int(value)
            cell_meta.append({
                "cell": task["cell"],
                "kind": task["kind"],
                "fsm": task["name"],
                "structure": task["config"]["structure"],
                "seed": task["config"]["seed"],
                "worker": outcome.get("worker"),
            })
            if outcome["kind"] == "flow":
                results.append(FlowResult.from_dict(outcome["result"]))
            else:
                baseline = BaselineResult.from_dict(outcome["result"])
                baselines[baseline.fsm] = baseline

        executor_meta: Dict[str, Any] = {
            "backend": report.backend,
            "workers": report.workers,
            "cells_requeued": report.cells_requeued,
            "cells": cell_meta,
        }
        executor_meta.update(report.extra)
        return SweepResult(
            machines=self.machines,
            structures=self.structures,
            seeds=self.seeds,
            config=self.config.to_dict(),
            results=tuple(results),
            baselines=baselines,
            total_seconds=time.perf_counter() - start,
            executor=executor_meta,
            cache_stats=cache_totals,
            status="partial" if failed_cells else "complete",
            failed_cells=tuple(failed_cells),
        )


def leader_first(
    tasks: Sequence[Dict[str, Any]], fsms: Mapping[str, FSM]
) -> List[Dict[str, Any]]:
    """``tasks`` with the first cell of every assign family moved to the front.

    Cells whose assign stage has one artifact key form a family: the PST
    and SIG cells of one seed, the DFF (or PAT) cells of every seed.  A
    worker that claims a sibling while the family's first cell still runs
    elsewhere would compute the shared artifact again; leaders first lets
    every sibling find it cached.
    Baseline cells have no assign stage and count as leaders, as does a
    cell whose configuration does not parse (it fails worker-side, where
    its error is recorded).  Leaders, then the rest, each keep their
    original order.
    """
    digests: Dict[str, str] = {}
    families: Set[str] = set()
    leaders: List[Dict[str, Any]] = []
    rest: List[Dict[str, Any]] = []
    for task in tasks:
        family = _assign_family(task, fsms, digests)
        if family in families:
            rest.append(task)
        else:
            leaders.append(task)
            if family is not None:
                families.add(family)
    return leaders + rest


def _assign_family(
    task: Mapping[str, Any], fsms: Mapping[str, FSM], digests: Dict[str, str]
) -> Optional[str]:
    """The assign artifact key of a flow cell; ``None`` for a baseline
    cell or a configuration that does not parse.  ``digests`` memoises
    machine digests by name."""
    if task["kind"] == "baseline":
        return None
    try:
        config = FlowConfig.from_dict(task["config"])
    except (KeyError, TypeError, ValueError):  # repro: allow-swallowed-exception -- ordering only; the worker runs the cell and records this very error
        return None
    name = task["name"]
    if name not in digests:
        digests[name] = fsm_digest(fsms[name])
    return artifact_key(digests[name], "assign", config.stage_digest("assign"))


def _render_cell_error(error: Any) -> str:
    """One readable line-or-block from a cell's error payload.

    Workers record structured errors (``{"type", "message", "traceback"}``)
    so fleet failures are diagnosable post-hoc; older result files may
    still carry the bare-string form — render both.
    """
    if isinstance(error, Mapping):
        headline = f"{error.get('type', 'Exception')}: {error.get('message', '')}"
        trace = error.get("traceback")
        return f"{headline}\n{trace}" if trace else headline
    return str(error)
