"""Execution of one sweep cell from its serializable payload.

A *cell* is the unit of sweep work: one ``(machine, structure, seed)``
flow run or one Table 2 random-encoding baseline, shipped as a plain
JSON-safe dictionary (machine name, KISS2 text, declared state order,
config dict, optional cache directory).  :func:`run_cell` turns a payload
back into real work — it is the single entry point every executor backend
(in-process, process pool, work-queue worker daemon) funnels through, so
all of them produce bit-identical results by construction.

The returned *outcome* is itself JSON-safe::

    {
        "kind": "flow" | "baseline",
        "cell": "<cell id>",             # passthrough from the payload
        "result": {...},                 # FlowResult / BaselineResult dict
        "worker": "<worker id>",         # who ran it (executor-assigned)
        "cache_stats": {"hits": h, ...}  # this cell's cache activity delta
    }

``cache_stats`` is a per-cell *delta* (counters before vs. after), so it
aggregates correctly both for pooled/remote workers (fresh cache object
per cell) and for the in-process path, where one shared
:class:`~repro.flow.cache.ArtifactCache` instance accumulates across
cells.
"""

from __future__ import annotations

import hashlib
import json
import time
import traceback
from dataclasses import dataclass
from typing import Any, Callable, Dict, Iterator, Mapping, Optional

from ..bist.structures import BISTStructure
from ..bist.synthesis import synthesize
from ..encoding.random_search import random_search
from ..fsm.kiss import parse_kiss
from ..fsm.machine import FSM
from . import chaos
from .cache import ArtifactCache, artifact_key
from .config import MINIMIZER_KEYS, FlowConfig
from .pipeline import fsm_digest, run_flow, stage_keys

__all__ = [
    "BaselineResult",
    "CellDeadlineExceeded",
    "cell_id",
    "error_record",
    "rebuild_fsm",
    "run_cell",
    "run_cell_safe",
]


class CellDeadlineExceeded(RuntimeError):
    """A cell overran its per-cell execution deadline.

    Raised *worker-side* at the next stage boundary once the elapsed
    monotonic time exceeds the task's ``deadline_seconds``.  The message
    is attempt-independent, so a cell that genuinely cannot finish inside
    its deadline produces identical structured errors on retry and is
    classified as deterministic poison (quarantined) instead of burning
    the whole retry budget.
    """


def error_record(exc: BaseException) -> Dict[str, Any]:
    """The structured error record of one failed execution.

    ``type`` + ``message`` are the retry classifier's identity (two
    consecutive identical records = deterministic failure); the traceback
    travels along purely for post-hoc diagnosis.
    """
    return {
        "type": type(exc).__name__,
        "message": str(exc),
        "traceback": "".join(
            traceback.format_exception(type(exc), exc, exc.__traceback__)
        ),
    }


@dataclass(frozen=True)
class BaselineResult:
    """Random-encoding baseline of one machine (Table 2 columns).

    ``seconds`` always means *compute* time: on a cache hit it is the
    stored wall-clock of the original computation (persisted with the
    payload), never the time of the cache lookup itself — that is
    reported separately as ``lookup_seconds`` so ``uncached_seconds``-style
    accounting stays honest.
    """

    fsm: str
    trials: int
    random_seed: int
    average: float
    best: int
    seconds: float
    cached: bool = False
    lookup_seconds: float = 0.0

    def to_dict(self) -> Dict[str, Any]:
        return {
            "fsm": self.fsm,
            "trials": self.trials,
            "random_seed": self.random_seed,
            "average": self.average,
            "best": self.best,
            "seconds": round(self.seconds, 6),
            "cached": self.cached,
            "lookup_seconds": round(self.lookup_seconds, 6),
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "BaselineResult":
        return cls(
            fsm=data["fsm"],
            trials=int(data["trials"]),
            random_seed=int(data["random_seed"]),
            average=float(data["average"]),
            best=int(data["best"]),
            seconds=float(data["seconds"]),
            cached=bool(data["cached"]),
            lookup_seconds=float(data.get("lookup_seconds", 0.0)),
        )


def cell_id(index: int, task: Mapping[str, Any]) -> str:
    """Deterministic id of one cell: submission index + payload digest.

    The index keeps ids unique and ordered even for identical payloads;
    the digest ties the id to the cell's content so queue artifacts are
    self-describing.
    """
    body = {k: v for k, v in task.items() if k != "cell"}
    digest = hashlib.sha256(
        json.dumps(body, sort_keys=True).encode("utf-8")
    ).hexdigest()[:12]
    return f"{index:05d}-{digest}"


def rebuild_fsm(task: Mapping[str, Any]) -> FSM:
    """Reconstruct the cell's machine from its KISS2 text payload.

    The original state *order* is re-imposed: KISS2 text orders states by
    first appearance in the transitions, but the assignment heuristics
    break ties by state index, so the declared order must survive the
    transport for remote results to be bit-identical to an in-process run.
    """
    parsed = parse_kiss(task["kiss"], name=task["name"])
    return FSM(
        parsed.name,
        parsed.num_inputs,
        parsed.num_outputs,
        parsed.transitions,
        reset_state=parsed.reset_state,
        states=task["states"],
    )


def _stage_hook_for(
    task: Mapping[str, Any], attempt: int
) -> Optional[Callable[[str], None]]:
    """The per-cell stage hook: deadline enforcement + chaos injection.

    Returns ``None`` when neither a deadline nor an active chaos plan
    applies, so the hot path of a plain run carries no per-stage closure
    at all.  The deadline is checked at stage *boundaries* — stages are
    the pipeline's natural preemption points, and boundary checks work
    identically on every backend (in-process, pool, queue worker).
    """
    plan = chaos.active_plan()
    deadline = task.get("deadline_seconds")
    if plan is None and deadline is None:
        return None
    label = chaos.cell_label(task)
    started = time.monotonic()

    def hook(stage: str) -> None:
        if deadline is not None and time.monotonic() - started > float(deadline):
            raise CellDeadlineExceeded(
                f"cell {label} exceeded its {float(deadline):.3f}s deadline "
                f"before stage {stage!r}"
            )
        if plan is not None:
            delay = plan.decide("stage-delay", label, attempt, stage=stage)
            if delay is not None:
                chaos.sleep_for(delay)
            error = plan.decide("stage-error", label, attempt, stage=stage)
            if error is not None:
                raise chaos.ChaosStageError(
                    f"chaos: injected failure before stage {stage!r} of {label}"
                )

    return hook


def run_cell(
    task: Mapping[str, Any],
    fsm: Optional[FSM] = None,
    cache: Optional[ArtifactCache] = None,
    worker: Optional[str] = None,
    attempt: int = 1,
) -> Dict[str, Any]:
    """Run one cell payload and return its serializable outcome.

    ``fsm``/``cache`` may be supplied by an in-process caller to reuse
    live objects; otherwise both are rebuilt from the payload (the shape
    every out-of-process worker uses).  ``attempt`` is the execution's
    1-based attempt number — it keys chaos injection decisions, which is
    what makes injected transient faults transient.

    A flow cell prefetches every stage artifact it can read with
    one :meth:`~repro.flow.cache.ArtifactCache.warm` call, and whatever
    the cell wrote is pushed with one ``flush()`` before the outcome is
    built — also when the cell fails — so with a remote tier a cell costs
    one cache exchange each way and its artifacts reach the coordinator
    before its result does.
    """
    if fsm is None:
        fsm = rebuild_fsm(task)
    if cache is None and task.get("cache_dir"):
        if task.get("cache_url"):
            # Lazy import: net/ sits above cells in the layering, and the
            # remote tier only exists on the coordinator path.
            from .net.cache import RemoteCache

            cache = RemoteCache(str(task["cache_url"]), task["cache_dir"])
        else:
            cache = ArtifactCache(task["cache_dir"])
    before = dict(cache.stats) if cache is not None else None
    config = FlowConfig.from_dict(task["config"])
    hook = _stage_hook_for(task, attempt)
    try:
        if cache is not None and task["kind"] != "baseline":
            cache.warm(_stage_keys_of(fsm, config))
        result = _execute(task, fsm, config, cache, hook)
    finally:
        if cache is not None:
            cache.flush()
    outcome: Dict[str, Any] = {
        "kind": task["kind"],
        "cell": task.get("cell"),
        "result": result,
        "worker": worker,
    }
    if cache is not None:
        after = cache.stats
        outcome["cache_stats"] = {
            key: after.get(key, 0) - before.get(key, 0) for key in after
        }
    else:
        outcome["cache_stats"] = None
    return outcome


def _stage_keys_of(fsm: FSM, config: FlowConfig) -> Iterator[str]:
    """The cell's stage keys, derived only when a cache iterates them.

    A local :class:`~repro.flow.cache.ArtifactCache` has nothing to
    prefetch and never iterates, so an in-process cell pays no digests.
    """
    yield from stage_keys(fsm, config).values()


def _execute(
    task: Mapping[str, Any],
    fsm: FSM,
    config: FlowConfig,
    cache: Optional[ArtifactCache],
    hook: Optional[Callable[[str], None]],
) -> Dict[str, Any]:
    """The cell's work by kind; returns its serialized result.

    Any kind but ``flow`` and ``baseline`` is rejected, so a misspelled or
    retired kind fails as a structured error instead of running as
    something else.
    """
    kind = task["kind"]
    if kind == "flow":
        return run_flow(fsm, config, cache=cache, stage_hook=hook).to_dict()
    if kind == "baseline":
        if hook is not None:
            # Baselines are a single stage; one boundary check suffices.
            hook("baseline")
        return _random_baseline(
            fsm, config, cache, trials=task["trials"], random_seed=task["random_seed"]
        ).to_dict()
    raise ValueError(f"unknown cell kind {kind!r} (expected 'flow' or 'baseline')")


def run_cell_safe(
    task: Mapping[str, Any],
    fsm: Optional[FSM] = None,
    cache: Optional[ArtifactCache] = None,
    worker: Optional[str] = None,
    attempt: int = 1,
) -> Dict[str, Any]:
    """:func:`run_cell`, but a failure becomes a structured error outcome.

    The in-process backends (serial, pool) use this so a failing cell
    degrades into the same ``{"error": {type, message, traceback}}``
    outcome shape the queue workers produce — which is what lets
    ``Sweep(strict=False)`` return a partial result on every backend.
    """
    try:
        return run_cell(task, fsm=fsm, cache=cache, worker=worker, attempt=attempt)
    except Exception as exc:  # noqa: BLE001 - degrade into a structured outcome
        return {
            "kind": task.get("kind"),
            "cell": task.get("cell"),
            "result": None,
            "worker": worker,
            "cache_stats": None,
            "error": error_record(exc),
        }


def _random_baseline(
    fsm: FSM,
    config: FlowConfig,
    cache: Optional[ArtifactCache],
    trials: int,
    random_seed: int,
) -> BaselineResult:
    """Average/best product terms over random PST encodings (Table 2).

    The encodings come from ``random_seed`` at the minimum width, and
    :func:`~repro.bist.synthesis.synthesize` with a given encoding reads
    nothing of the configuration but the minimiser knobs, so the cache
    key hashes those, ``trials`` and ``random_seed`` — never the
    assignment knobs (``seed`` among them).
    """
    lookup_start = time.perf_counter()
    key = None
    if cache is not None:
        config_digest = hashlib.sha256(
            json.dumps(
                {
                    "minimizer": {name: getattr(config, name) for name in MINIMIZER_KEYS},
                    "trials": trials,
                    "random_seed": random_seed,
                },
                sort_keys=True,
            ).encode("utf-8")
        ).hexdigest()
        key = artifact_key(fsm_digest(fsm), "baseline", config_digest)
        payload = cache.get(key)
        if payload is not None:
            return BaselineResult(
                fsm=fsm.name,
                trials=trials,
                random_seed=random_seed,
                average=payload["average"],
                best=payload["best"],
                # Stored compute time of the original run — a cache hit
                # must not report its (tiny) lookup wall-clock as compute.
                seconds=float(payload.get("seconds", 0.0)),
                cached=True,
                lookup_seconds=time.perf_counter() - lookup_start,
            )

    start = time.perf_counter()
    options = config.to_synthesis_options()
    search = random_search(
        fsm,
        lambda enc, m=fsm: synthesize(
            m, BISTStructure.PST, encoding=enc, options=options
        ).product_terms,
        trials=trials,
        seed=random_seed,
    )
    average = search.average_cost
    best = int(search.best_cost)
    seconds = time.perf_counter() - start
    if cache is not None and key is not None:
        cache.put(key, {"average": average, "best": best, "seconds": round(seconds, 6)})
    return BaselineResult(
        fsm=fsm.name,
        trials=trials,
        random_seed=random_seed,
        average=average,
        best=best,
        seconds=seconds,
        cached=False,
    )
