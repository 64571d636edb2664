"""The worker loop of distributed sweep cells, one for every transport.

``repro worker <queue-dir>`` (:func:`~repro.flow.backends.queue.run_worker`)
and ``repro worker --url`` (:func:`~repro.flow.net.client.run_http_worker`)
both run :func:`serve` with a small :class:`WorkerTransport` that knows how
to register, claim a cell, renew its lease, upload its outcome and
deregister.  Everything else happens here, once: claim a cell, heartbeat
its lease from a thread while it runs, execute it through the same
:func:`~repro.flow.cells.run_cell_safe` funnel every other backend uses
(a failure becomes a structured error outcome), upload the outcome.  A
worker killed mid-cell simply stops heartbeating, so its lease expires
and the cell is requeued.

Duplicate executions (a lease expired while the cell was still running)
are detected, not just tolerated: a heartbeat that finds the lease gone
flags it, and the worker then *abandons* the upload — the re-executed
copy is the authoritative one.  A transport may also refuse an upload
(the queue re-checks claim ownership, the coordinator answers
``accepted: false``), which abandons it the same way.  Abandonment is
bookkeeping, not correctness: even a racing duplicate upload would be
bit-identical by construction.

Workers exit on their transport's stop signal, after ``max_idle``
seconds without work, after ``max_cells`` executed cells, or — with
``drain=True`` — as soon as a claim finds nothing pending.
"""

from __future__ import annotations

import os
import socket
import threading
import time
import uuid
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Dict, Mapping, Optional, Protocol, Union

from . import chaos
from .cells import run_cell_safe

__all__ = ["Claim", "TransportDown", "WorkerStats", "WorkerStop",
           "WorkerTransport", "serve"]


@dataclass
class WorkerStats:
    """What one worker loop did before it exited."""

    worker_id: str
    cells: int = 0
    failures: int = 0
    busy_seconds: float = 0.0
    stopped_by: str = "idle"
    #: Heartbeats that found the lease gone (lease lost mid-cell).
    heartbeats_lost: int = 0
    #: Executions whose result upload was abandoned or refused.
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


@dataclass
class Claim:
    """One claimed cell, as a transport hands it to the loop."""

    cell: str
    task: Dict[str, Any]
    attempt: int
    #: The lease window of this claim; the heartbeat runs at a quarter of it.
    lease_timeout: float
    #: Transport-private state of the claim (the queue's claim file).
    handle: Any = None


class WorkerStop(Exception):
    """A transport saw its stop signal; the message is ``stopped_by``."""


class TransportDown(Exception):
    """A transport cannot reach its source of work.

    ``stopped_by`` names the exit when it does not come back: a failed
    registration ends the worker at once, a failed claim once the idle
    budget runs out.
    """

    def __init__(self, stopped_by: str, message: str = "") -> None:
        super().__init__(message or stopped_by)
        self.stopped_by = stopped_by


class WorkerTransport(Protocol):
    """How one kind of worker reaches its cells (queue directory or HTTP)."""

    #: What the worker serves, for its log lines.
    where: str

    def register(self, worker: str) -> None:
        """Announce the worker; may raise :class:`TransportDown`."""

    def claim(self, worker: str, stats: WorkerStats) -> Optional[Claim]:
        """The next cell, or ``None`` when nothing is pending.

        Raises :class:`WorkerStop` on the stop signal and
        :class:`TransportDown` when the source is unreachable; counts
        dropped corrupt task payloads in ``stats.corrupt_tasks``.
        """

    def renew(self, claim: Claim, worker: str) -> bool:
        """Keep the claim's lease alive; ``False`` once it is lost."""

    def upload(
        self, claim: Claim, worker: str, outcome: Dict[str, Any], corrupt: bool
    ) -> Optional[str]:
        """Deliver the outcome (garbage instead when ``corrupt``); ``None``
        when delivered, else why it was not."""

    def deregister(self, worker: str) -> None:
        """The worker leaves (best-effort)."""

    def thread_exit(self) -> None:
        """The calling heartbeat thread ends (release its resources)."""


def _heartbeat(
    transport: WorkerTransport,
    claim: Claim,
    worker: str,
    done: threading.Event,
    lost: threading.Event,
    stall_seconds: float = 0.0,
) -> None:
    """Renew the claim's lease until the cell finishes; set ``lost`` once
    it is gone.  ``stall_seconds`` suppresses the first beats — the chaos
    harness's injected GC-pause/network-partition stand-in."""
    stalled_until = time.monotonic() + stall_seconds
    try:
        while not done.wait(max(claim.lease_timeout / 4.0, 0.05)):
            if time.monotonic() < stalled_until:
                continue
            if not transport.renew(claim, worker):
                lost.set()
                return
    finally:
        transport.thread_exit()


def serve(
    transport: WorkerTransport,
    *,
    cache_dir: Optional[Union[str, Path]] = None,
    worker_id: Optional[str] = None,
    poll_interval: float = 0.1,
    max_idle: Optional[float] = None,
    max_cells: Optional[int] = None,
    drain: bool = False,
    log: Optional[Callable[[str], None]] = None,
    run: Optional[Callable[..., Dict[str, Any]]] = None,
) -> WorkerStats:
    """Service one transport until stopped; returns the run's stats.

    Args:
        transport: where the cells come from and the outcomes go.
        cache_dir: override the artifact-cache directory of every cell
            (default: each cell's own ``cache_dir`` payload field).
        worker_id: stable identity for logs/metadata (default: generated
            from hostname, pid and a nonce).
        poll_interval: idle polling period in seconds.
        max_idle: exit after this many idle seconds (``None``: wait for
            the transport's stop signal).
        max_cells: exit gracefully after this many executed cells — the
            in-flight cell always finishes and uploads first, so a capped
            worker never leaves lease-requeue noise behind.
        drain: exit as soon as a claim finds no pending cell.
        log: line sink for progress messages (``None``: silent).
        run: the cell runner :func:`~repro.flow.cells.run_cell_safe`
            wraps (default: :func:`~repro.flow.cells.run_cell`).
    """
    # Identity, never content: the nonce only names this worker in logs,
    # registrations and result metadata — results themselves are addressed
    # by content digests.
    wid = worker_id or (
        f"{socket.gethostname()}-{os.getpid()}-"
        f"{uuid.uuid4().hex[:6]}"  # repro: allow-determinism
    )
    emit = log or (lambda line: None)
    stats = WorkerStats(worker_id=wid)
    try:
        transport.register(wid)
    except TransportDown as exc:
        stats.stopped_by = exc.stopped_by
        emit(f"[{wid}] {exc}")
        return stats
    emit(f"[{wid}] serving {transport.where}")
    idle_since = time.monotonic()
    try:
        while True:
            idle_exit = "drained" if drain else "idle"
            try:
                claim = transport.claim(wid, stats)
            except WorkerStop as stop:
                stats.stopped_by = str(stop)
                break
            except TransportDown as down:
                # An unreachable source reads as an idle one, drained or
                # not: poll until it returns or the idle budget runs out.
                claim, idle_exit = None, down.stopped_by
            if claim is None:
                if idle_exit == "drained" or (
                    max_idle is not None and time.monotonic() - idle_since > max_idle
                ):
                    stats.stopped_by = idle_exit
                    break
                time.sleep(poll_interval)
                continue

            idle_since = time.monotonic()
            started = time.perf_counter()
            cid, task, attempt = claim.cell, claim.task, claim.attempt
            if cache_dir is not None:
                task["cache_dir"] = str(cache_dir)

            label = chaos.cell_label(task)
            plan = chaos.active_plan()
            stall_seconds = 0.0
            if plan is not None:
                if plan.decide("worker-crash", label, attempt) is not None:
                    emit(f"[{wid}] {cid} chaos: crashing mid-cell (attempt {attempt})")
                    os._exit(17)  # kill -9 semantics: no cleanup, no unwind
                stall = plan.decide("heartbeat-stall", label, attempt)
                if stall is not None:
                    stall_seconds = stall.seconds or claim.lease_timeout * 2.0
                    emit(f"[{wid}] {cid} chaos: stalling heartbeats "
                         f"{stall_seconds:.2f}s (attempt {attempt})")

            done = threading.Event()
            lost = threading.Event()
            beat = threading.Thread(
                target=_heartbeat,
                args=(transport, claim, wid, done, lost, stall_seconds),
                daemon=True,
            )
            beat.start()
            try:
                outcome = run_cell_safe(task, worker=wid, attempt=attempt, run=run)
            finally:
                done.set()
                beat.join()
            if outcome.get("error"):
                stats.failures += 1

            if lost.is_set():
                stats.heartbeats_lost += 1
                refused: Optional[str] = "lease lost mid-cell"
            else:
                corrupt = plan is not None and plan.decide(
                    "corrupt-result", label, attempt) is not None
                if corrupt:
                    emit(f"[{wid}] {cid} chaos: corrupting result upload "
                         f"(attempt {attempt})")
                refused = transport.upload(claim, wid, outcome, corrupt)
            if refused is not None:
                stats.abandoned += 1
                emit(f"[{wid}] {cid} {refused}; abandoning result (attempt {attempt})")
                continue

            stats.cells += 1
            elapsed = time.perf_counter() - started
            stats.busy_seconds += elapsed
            emit(f"[{wid}] {cid} {task.get('kind')}:{task.get('name')} ({elapsed:.2f}s)")
            if max_cells is not None and stats.cells >= max_cells:
                stats.stopped_by = "max-cells"
                break
    finally:
        transport.deregister(wid)
    emit(f"[{wid}] exiting ({stats.stopped_by}): {stats.cells} cell(s), "
         f"{stats.failures} failure(s), {stats.busy_seconds:.2f}s busy")
    return stats
