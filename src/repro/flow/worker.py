"""Work-queue worker daemon for distributed sweep cells.

``repro worker <queue-dir>`` (or :func:`run_worker` embedded in a host
process) services the filesystem queue of
:class:`~repro.flow.backends.QueueExecutor`: claim a cell by atomic
rename, heartbeat the claim's mtime while it runs, execute it through the
same :func:`~repro.flow.cells.run_cell` every other backend uses, write
the serialized outcome back with an atomic replace, release the claim.
Any number of workers — started before or after the sweep, on any host
sharing the queue directory — cooperate safely: the rename claim hands
each cell to exactly one live worker, and a worker killed mid-cell simply
stops heartbeating, so the orchestrator requeues its lease.

Duplicate executions (a lease expired while the cell was still running)
are detected, not just tolerated: the heartbeat thread flags a vanished
claim, the worker re-checks claim ownership before uploading, and a lost
lease makes the worker *abandon* the upload — the re-executed copy is the
authoritative one.  Abandonment is bookkeeping, not correctness: even a
racing duplicate upload would be bit-identical by construction.

Workers exit when the queue's ``stop`` sentinel file appears, after
``max_idle`` seconds without work, or — with ``once=True`` — as soon as a
scan finds the queue drained.
"""

from __future__ import annotations

import os
import socket
import threading
import time
import traceback
import uuid
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Dict, Mapping, Optional, Tuple, Union

from . import chaos
from .backends.queue import (
    QueuePaths,
    ensure_queue_dirs,
    read_json,
    sign_payload,
    verify_payload,
    write_json_atomic,
)
from .cells import run_cell

__all__ = ["WorkerStats", "run_worker"]


@dataclass
class WorkerStats:
    """What one worker loop did before it exited."""

    worker_id: str
    cells: int = 0
    failures: int = 0
    busy_seconds: float = 0.0
    stopped_by: str = "idle"
    #: Heartbeats that found the claim file gone (lease lost mid-cell).
    heartbeats_lost: int = 0
    #: Executions whose result upload was abandoned after a lost lease.
    abandoned: int = 0
    #: Claims dropped because their task payload was corrupt.
    corrupt_tasks: int = 0

    def to_dict(self) -> Dict[str, Any]:
        return {
            "worker_id": self.worker_id,
            "cells": self.cells,
            "failures": self.failures,
            "busy_seconds": round(self.busy_seconds, 6),
            "stopped_by": self.stopped_by,
            "heartbeats_lost": self.heartbeats_lost,
            "abandoned": self.abandoned,
            "corrupt_tasks": self.corrupt_tasks,
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "WorkerStats":
        return cls(
            worker_id=data["worker_id"],
            cells=int(data["cells"]),
            failures=int(data["failures"]),
            busy_seconds=float(data["busy_seconds"]),
            stopped_by=data["stopped_by"],
            # Pre-chaos worker payloads lack the loss counters.
            heartbeats_lost=int(data.get("heartbeats_lost", 0)),
            abandoned=int(data.get("abandoned", 0)),
            corrupt_tasks=int(data.get("corrupt_tasks", 0)),
        )


def _heartbeat(
    path: Path,
    interval: float,
    done: threading.Event,
    lost: threading.Event,
    stall_seconds: float = 0.0,
) -> None:
    """Touch the claim file until the cell finishes (lease keep-alive).

    A vanished claim means the orchestrator expired our lease and
    requeued the cell; the thread sets ``lost`` so the worker abandons
    the (now duplicated) execution's upload instead of silently racing
    the re-execution.  ``stall_seconds`` suppresses the first heartbeats
    — the chaos harness's injected GC-pause/network-partition stand-in.
    """
    stalled_until = time.monotonic() + stall_seconds
    while not done.wait(interval):
        if time.monotonic() < stalled_until:
            continue
        try:
            os.utime(path)
        except OSError:
            lost.set()
            return


def _claim_next(
    paths: QueuePaths, wid: str, stats: "WorkerStats"
) -> Optional[Tuple[str, Path, Dict[str, Any]]]:
    """Claim the oldest pending task, or ``None`` when the queue is idle.

    A claim whose payload is corrupt (torn write, chaos injection,
    integrity-digest mismatch) is dropped and counted — the orchestrator
    still holds the cell payload in memory and resubmits it on its next
    lost-cell scan.  A winning claim is re-stamped with this worker's
    identity (``claimed_by``) so the upload path can verify ownership
    after a lease loss.
    """
    try:
        pending = sorted(p for p in paths.tasks.iterdir() if p.suffix == ".json")
    except OSError:  # repro: allow-swallowed-exception -- tasks/ pruned or unreadable reads as an idle queue; the poll loop retries
        return None
    for task_path in pending:
        claim_path = paths.claims / task_path.name
        try:
            os.replace(task_path, claim_path)
        except OSError:  # repro: allow-swallowed-exception -- another worker won the rename; losing the race is the protocol
            continue
        try:
            # Rename preserves the submit-time mtime; stamp the claim with
            # *now* so the lease clock starts at claim time.
            os.utime(claim_path)
        except OSError:  # repro: allow-swallowed-exception -- requeued out from under us in the stamp window; the next task is ours
            continue
        payload = read_json(claim_path)
        if payload is None or "task" not in payload or not verify_payload(payload):
            stats.corrupt_tasks += 1
            try:
                claim_path.unlink()  # corrupt task payload: drop it
            except OSError:  # repro: allow-swallowed-exception -- already requeued; either way the claim is gone, which is the goal
                pass
            continue
        body = {key: value for key, value in payload.items() if key != "sha256"}
        body["claimed_by"] = wid
        write_json_atomic(claim_path, sign_payload(body))
        return str(payload.get("cell", task_path.stem)), claim_path, body
    return None


def run_worker(
    queue_dir: Union[str, Path],
    *,
    cache_dir: Optional[Union[str, Path]] = None,
    worker_id: Optional[str] = None,
    poll_interval: float = 0.1,
    lease_timeout: float = 30.0,
    max_idle: Optional[float] = None,
    once: bool = False,
    max_cells: Optional[int] = None,
    log: Optional[Callable[[str], None]] = None,
) -> WorkerStats:
    """Service a queue directory until stopped; returns the run's stats.

    Args:
        queue_dir: the shared queue directory (created if missing).
        cache_dir: override the artifact-cache directory of every cell
            (default: each cell's own ``cache_dir`` payload field).
        worker_id: stable identity for logs/metadata (default: generated
            from hostname, pid and a nonce).
        poll_interval: idle polling period in seconds.
        lease_timeout: fallback lease window; each task carries the
            orchestrator's actual window and the claim heartbeat runs at
            a quarter of the tighter of the two.
        max_idle: exit after this many idle seconds (``None``: wait for
            the ``stop`` sentinel).
        once: exit as soon as a scan finds no pending task (drain mode).
        max_cells: exit gracefully after this many executed cells — the
            in-flight cell always finishes and uploads first, so a capped
            worker never leaves lease-requeue noise behind.
        log: line sink for progress messages (``None``: silent).
    """
    paths = ensure_queue_dirs(queue_dir)
    # Identity, never content: the nonce only names this worker in logs,
    # registrations and result metadata — results themselves are addressed
    # by content digests.
    wid = worker_id or (
        f"{socket.gethostname()}-{os.getpid()}-"
        f"{uuid.uuid4().hex[:6]}"  # repro: allow-determinism
    )
    emit = log or (lambda line: None)
    registration = paths.workers / f"{wid}.json"
    write_json_atomic(
        registration,
        {"worker": wid, "pid": os.getpid(), "host": socket.gethostname()},
    )
    stats = WorkerStats(worker_id=wid)
    idle_since = time.monotonic()
    emit(f"[{wid}] serving {paths.root}")
    try:
        while True:
            if paths.stop.exists():
                stats.stopped_by = "stop-file"
                break
            claimed = _claim_next(paths, wid, stats)
            if claimed is None:
                if once:
                    stats.stopped_by = "drained"
                    break
                if max_idle is not None and time.monotonic() - idle_since > max_idle:
                    stats.stopped_by = "idle"
                    break
                try:
                    os.utime(registration)  # liveness heartbeat
                except OSError:  # repro: allow-swallowed-exception -- registration pruned externally; the next loop rewrites nothing vital
                    pass
                time.sleep(poll_interval)
                continue

            cid, claim_path, payload = claimed
            idle_since = time.monotonic()
            started = time.perf_counter()
            task = dict(payload["task"])
            attempt = int(payload.get("attempt", 1))
            if cache_dir is not None:
                task["cache_dir"] = str(cache_dir)
            # The orchestrator ships its lease window with each task; honor
            # the tighter of the two so a worker started with a laxer flag
            # still heartbeats fast enough to keep its lease alive.
            effective_lease = min(
                lease_timeout, float(payload.get("lease_timeout", lease_timeout))
            )

            label = chaos.cell_label(task)
            plan = chaos.active_plan()
            stall_seconds = 0.0
            if plan is not None:
                if plan.decide("worker-crash", label, attempt) is not None:
                    emit(f"[{wid}] {cid} chaos: crashing mid-cell (attempt {attempt})")
                    os._exit(17)  # kill -9 semantics: no cleanup, no unwind
                stall = plan.decide("heartbeat-stall", label, attempt)
                if stall is not None:
                    stall_seconds = stall.seconds or effective_lease * 2.0
                    emit(f"[{wid}] {cid} chaos: stalling heartbeats "
                         f"{stall_seconds:.2f}s (attempt {attempt})")

            done = threading.Event()
            lost = threading.Event()
            beat = threading.Thread(
                target=_heartbeat,
                args=(claim_path, max(effective_lease / 4.0, 0.05), done, lost,
                      stall_seconds),
                daemon=True,
            )
            beat.start()
            try:
                outcome = run_cell(task, worker=wid, attempt=attempt)
            except Exception as exc:  # noqa: BLE001 - report, don't die
                stats.failures += 1
                # Structured capture: exception type, message and the full
                # traceback travel with the cell's result file, so a fleet
                # failure is diagnosable post-hoc from the queue directory
                # alone — no need to find the right worker's stderr.
                outcome = {
                    "kind": task.get("kind"),
                    "cell": cid,
                    "result": None,
                    "worker": wid,
                    "cache_stats": None,
                    "error": {
                        "type": type(exc).__name__,
                        "message": str(exc),
                        "traceback": traceback.format_exc(),
                    },
                }
            finally:
                done.set()
                beat.join()

            if lost.is_set():
                stats.heartbeats_lost += 1
            # Ownership check before upload: if our lease was expired the
            # cell was requeued (and possibly reclaimed), so this
            # execution is the stale duplicate — abandon its result.
            owner = read_json(claim_path)
            if lost.is_set() or owner is None or owner.get("claimed_by") != wid:
                stats.abandoned += 1
                emit(f"[{wid}] {cid} lease lost mid-cell; abandoning result "
                     f"(attempt {attempt})")
                continue

            result_path = paths.results / f"{cid}.json"
            if plan is not None and plan.decide("corrupt-result", label, attempt):
                # The garbage replaces the result outright: a valid result
                # written first could be consumed before it is corrupted.
                chaos.corrupt_file(result_path)
                emit(f"[{wid}] {cid} chaos: corrupted result (attempt {attempt})")
            else:
                write_json_atomic(
                    result_path, sign_payload({"cell": cid, "outcome": outcome})
                )
            try:
                claim_path.unlink()
            except OSError:  # repro: allow-swallowed-exception -- requeued and re-claimed elsewhere; results are idempotent
                pass
            stats.cells += 1
            elapsed = time.perf_counter() - started
            stats.busy_seconds += elapsed
            emit(f"[{wid}] {cid} {task.get('kind')}:{task.get('name')} ({elapsed:.2f}s)")
            if max_cells is not None and stats.cells >= max_cells:
                stats.stopped_by = "max-cells"
                break
    finally:
        try:
            registration.unlink()
        except OSError:  # repro: allow-swallowed-exception -- registration already pruned; exit must not mask the real outcome
            pass
    emit(f"[{wid}] exiting ({stats.stopped_by}): {stats.cells} cell(s), "
         f"{stats.failures} failure(s), {stats.busy_seconds:.2f}s busy")
    return stats
