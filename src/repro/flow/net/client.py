"""Client side of the HTTP coordinator: sweep executor and network worker.

:class:`HttpExecutor` implements the standard
:class:`~repro.flow.backends.SweepExecutor` contract over the coordinator
protocol — ``Sweep(backend="http", coordinator_url=...)`` submits the
batch, polls the run, and reassembles outcomes in submission order, so an
HTTP sweep is bit-identical to the serial backend at any worker count.

:func:`run_http_worker` is the ``repro worker --url http://host:port``
loop: claim a cell, heartbeat its lease over HTTP while it runs, execute
it through the same :func:`~repro.flow.cells.run_cell` funnel every other
backend uses, upload the signed outcome.  A worker killed mid-cell simply
stops heartbeating and the coordinator requeues its lease; a worker whose
lease was expired abandons its (duplicated) upload, exactly like the
filesystem-queue worker.
"""

from __future__ import annotations

import os
import socket
import threading
import time
import traceback
import uuid
from pathlib import Path
from typing import Any, Callable, Dict, List, Mapping, Optional, Sequence, Union

from .. import chaos
from ..backends.base import ExecutionReport, SweepExecutor
from ..backends.queue import RetryPolicy
from ..cache import ArtifactCache
from ..cells import run_cell
from ..worker import WorkerStats
from .protocol import (
    NET_SCHEMA,
    CoordinatorError,
    check_schema,
    close_connections,
    request,
    request_with_retry,
)

__all__ = ["HttpExecutor", "run_http_worker"]


class HttpExecutor(SweepExecutor):
    """Run sweep cells through a ``repro serve`` coordinator.

    Args:
        url: coordinator base URL (``http://host:port``).
        lease_timeout: per-claim lease window shipped with the run.
        poll_interval: run-status polling period in seconds.
        timeout: overall deadline in seconds; ``None`` waits forever for
            workers (mirrors the queue backend's ``queue_timeout``).
        retry: per-cell retry/backoff/quarantine policy, enforced
            coordinator-side.
        request_timeout: socket timeout of each HTTP round trip.
        run_id: explicit run identifier (idempotency key); default is a
            generated nonce.
    """

    name = "http"
    in_process = False

    def __init__(
        self,
        url: str,
        lease_timeout: float = 30.0,
        poll_interval: float = 0.1,
        timeout: Optional[float] = None,
        retry: Optional[RetryPolicy] = None,
        request_timeout: float = 30.0,
        run_id: Optional[str] = None,
    ) -> None:
        if lease_timeout <= 0:
            raise ValueError("lease_timeout must be > 0")
        self.url = url.rstrip("/")
        self.lease_timeout = float(lease_timeout)
        self.poll_interval = max(0.01, float(poll_interval))
        self.timeout = timeout
        self.retry = retry or RetryPolicy()
        self.request_timeout = float(request_timeout)
        self.run_id = run_id

    def execute(
        self,
        tasks: Sequence[Mapping[str, Any]],
        *,
        fsms: Optional[Mapping[str, Any]] = None,
        cache: Optional[ArtifactCache] = None,
    ) -> ExecutionReport:
        if not tasks:
            return ExecutionReport(outcomes=[], backend=self.name, workers=0)
        try:
            return self._execute(tasks)
        finally:
            close_connections()

    def _execute(self, tasks: Sequence[Mapping[str, Any]]) -> ExecutionReport:
        """Submit, poll to completion and collect one run (one connection)."""
        # Identity, never content: the nonce only names this submission on
        # the coordinator so a resubmitted batch is a distinct run.
        run_id = self.run_id or f"run-{uuid.uuid4().hex[:12]}"  # repro: allow-determinism
        payload_tasks: List[Dict[str, Any]] = []
        for task in tasks:
            shipped = dict(task)
            # Workers resolve artifacts through the coordinator's shared
            # cache tier unless the task already names a different one.
            # The URL ships even when the client has no cache: a worker's
            # own --cache-dir then still reads and writes through it.
            if not shipped.get("cache_url"):
                shipped["cache_url"] = self.url
            payload_tasks.append(shipped)
        submission = {
            "schema": NET_SCHEMA,
            "run": run_id,
            "tasks": payload_tasks,
            "retry": self.retry.to_dict(),
            "lease_timeout": self.lease_timeout,
        }
        request_with_retry(
            f"{self.url}/api/v1/runs",
            "POST",
            body=submission,
            timeout=self.request_timeout,
            tries=5,
        )

        deadline = (
            time.monotonic() + self.timeout if self.timeout is not None else None
        )
        status_url = f"{self.url}/api/v1/runs/{run_id}"
        while True:
            status = request_with_retry(
                status_url, "GET", timeout=self.request_timeout, tries=5
            )
            check_schema(status)
            if status.get("status") in ("complete", "partial"):
                break
            if deadline is not None and time.monotonic() > deadline:
                detail = status.get("pending_detail") or []
                self._delete_run(run_id)
                raise TimeoutError(
                    f"http sweep run {run_id} timed out after "
                    f"{self.timeout}s with {len(detail)} unfinished cell(s): "
                    + "; ".join(
                        f"{entry.get('cell')} [{entry.get('state')}, "
                        f"attempt {entry.get('attempt')}]"
                        for entry in detail[:8]
                    )
                )
            time.sleep(self.poll_interval)

        outcomes = [dict(outcome) for outcome in status.get("outcomes", [])]
        counters = status.get("counters", {})
        workers_seen = list(status.get("workers_seen", []))
        self._delete_run(run_id)
        return ExecutionReport(
            outcomes=outcomes,
            backend=self.name,
            workers=max(1, len(workers_seen)),
            cells_requeued=int(counters.get("requeues", 0)),
            extra={
                "coordinator_url": self.url,
                "run_id": run_id,
                "workers_seen": workers_seen,
                "retries": int(counters.get("retries", 0)),
                "corrupt_results": int(counters.get("corrupt_results", 0)),
                "quarantined": list(status.get("quarantined", [])),
                "retry_policy": dict(
                    status.get("retry_policy", self.retry.to_dict())
                ),
                "cell_attempts": dict(status.get("cell_attempts", {})),
            },
        )

    def _delete_run(self, run_id: str) -> None:
        """Free the coordinator-side run state (best-effort)."""
        try:
            request_with_retry(
                f"{self.url}/api/v1/runs/{run_id}",
                "DELETE",
                timeout=self.request_timeout,
                tries=2,
            )
        except CoordinatorError:  # repro: allow-swallowed-exception -- cleanup is advisory; an orphaned terminal run holds no leases and is reaped by the operator via DELETE
            pass


def _http_heartbeat(
    url: str,
    wid: str,
    cid: str,
    interval: float,
    done: threading.Event,
    lost: threading.Event,
    stall_seconds: float = 0.0,
) -> None:
    """Renew the claim lease over HTTP until the cell finishes.

    A coordinator answering ``ok: false`` means the lease was expired and
    the cell requeued — set ``lost`` so the worker abandons its upload.
    Transport failures are tolerated silently: the lease window is four
    beats wide, so only a sustained outage expires it (which is the
    correct outcome of a sustained outage).  ``stall_seconds`` suppresses
    the first beats — the chaos harness's GC-pause stand-in.
    """
    stalled_until = time.monotonic() + stall_seconds
    try:
        while not done.wait(interval):
            if time.monotonic() < stalled_until:
                continue
            try:
                response = request(
                    f"{url}/api/v1/heartbeat",
                    "POST",
                    body={"worker": wid, "cell": cid},
                    timeout=10.0,
                )
            except CoordinatorError:  # repro: allow-swallowed-exception -- a missed beat is recoverable by design; the next beat retries and the lease survives transient faults
                continue
            if not response.get("ok"):
                lost.set()
                return
    finally:
        close_connections()


def run_http_worker(
    url: str,
    *,
    cache_dir: Optional[Union[str, Path]] = None,
    worker_id: Optional[str] = None,
    poll_interval: float = 0.1,
    max_idle: Optional[float] = None,
    max_cells: Optional[int] = None,
    drain: bool = False,
    log: Optional[Callable[[str], None]] = None,
) -> WorkerStats:
    """Service a coordinator over HTTP until stopped; returns run stats.

    Args:
        url: coordinator base URL (``http://host:port``).
        cache_dir: worker-local read-through directory for the shared
            remote cache tier (default: each task's own ``cache_dir``).
        worker_id: stable identity for logs/metadata (default: generated
            from hostname, pid and a nonce).
        poll_interval: idle polling period in seconds.
        max_idle: exit after this many idle seconds (``None``: wait for
            the coordinator's stop signal).
        max_cells: exit gracefully after completing this many cells
            (in-flight work always finishes first).
        drain: exit as soon as a claim finds no pending cell.
        log: line sink for progress messages (``None``: silent).
    """
    base = url.rstrip("/")
    wid = worker_id or (
        f"{socket.gethostname()}-{os.getpid()}-"
        f"{uuid.uuid4().hex[:6]}"  # repro: allow-determinism
    )
    emit = log or (lambda line: None)
    stats = WorkerStats(worker_id=wid)
    try:
        request_with_retry(
            f"{base}/api/v1/workers/register",
            "POST",
            body={"worker": wid, "pid": os.getpid(), "host": socket.gethostname()},
            tries=5,
        )
    except CoordinatorError as exc:
        stats.stopped_by = "coordinator-unreachable"
        emit(f"[{wid}] cannot reach coordinator {base}: {exc}")
        return stats
    emit(f"[{wid}] serving {base}")
    idle_since = time.monotonic()
    try:
        while True:
            try:
                claim = request_with_retry(
                    f"{base}/api/v1/claim",
                    "POST",
                    body={"worker": wid},
                    tries=3,
                )
            except CoordinatorError:
                # Unreachable coordinator reads as an idle queue: poll
                # until it returns or the idle budget runs out.
                if max_idle is not None and time.monotonic() - idle_since > max_idle:
                    stats.stopped_by = "coordinator-lost"
                    break
                time.sleep(poll_interval)
                continue
            if claim.get("stop"):
                stats.stopped_by = "stop"
                break
            cid = claim.get("cell")
            if not cid:
                if drain:
                    stats.stopped_by = "drained"
                    break
                if max_idle is not None and time.monotonic() - idle_since > max_idle:
                    stats.stopped_by = "idle"
                    break
                time.sleep(poll_interval)
                continue

            idle_since = time.monotonic()
            started = time.perf_counter()
            task = dict(claim.get("task") or {})
            if not task:
                stats.corrupt_tasks += 1
                continue
            attempt = int(claim.get("attempt", 1))
            lease = max(0.2, float(claim.get("lease_timeout", 30.0)))
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
                    stall_seconds = stall.seconds or lease * 2.0
                    emit(f"[{wid}] {cid} chaos: stalling heartbeats "
                         f"{stall_seconds:.2f}s (attempt {attempt})")

            done = threading.Event()
            lost = threading.Event()
            beat = threading.Thread(
                target=_http_heartbeat,
                args=(base, wid, str(cid), max(lease / 4.0, 0.05), done, lost,
                      stall_seconds),
                daemon=True,
            )
            beat.start()
            try:
                outcome = run_cell(task, worker=wid, attempt=attempt)
            except Exception as exc:  # noqa: BLE001 - report, don't die
                stats.failures += 1
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
                stats.abandoned += 1
                emit(f"[{wid}] {cid} lease lost mid-cell; abandoning result "
                     f"(attempt {attempt})")
                continue

            upload: Dict[str, Any] = {"worker": wid, "cell": cid, "outcome": outcome}
            if plan is not None and plan.decide("corrupt-result", label, attempt):
                # The signed envelope still parses, but the outcome is
                # garbage — the coordinator's corrupt-result recovery
                # (count + backoff resubmit) is what is under test.
                upload["outcome"] = "chaos: torn result payload"
                emit(f"[{wid}] {cid} chaos: corrupting result upload "
                     f"(attempt {attempt})")
            try:
                response = request_with_retry(
                    f"{base}/api/v1/results?cell={cid}",
                    "POST",
                    body=upload,
                    tries=3,
                )
            except CoordinatorError:
                # Rejected (corrupt upload) or unreachable: either way the
                # coordinator's lease machinery recovers the cell.
                stats.abandoned += 1
                continue
            if not response.get("accepted"):
                stats.abandoned += 1
                emit(f"[{wid}] {cid} upload not accepted "
                     f"({response.get('reason')}); abandoning")
                continue

            stats.cells += 1
            elapsed = time.perf_counter() - started
            stats.busy_seconds += elapsed
            emit(f"[{wid}] {cid} {task.get('kind')}:{task.get('name')} "
                 f"({elapsed:.2f}s)")
            if max_cells is not None and stats.cells >= max_cells:
                stats.stopped_by = "max-cells"
                break
    finally:
        try:
            request_with_retry(
                f"{base}/api/v1/workers/deregister",
                "POST",
                body={"worker": wid},
                tries=2,
            )
        except CoordinatorError:  # repro: allow-swallowed-exception -- deregistration is a courtesy; the coordinator ages out silent workers from /stats either way
            pass
        close_connections()
    emit(f"[{wid}] exiting ({stats.stopped_by}): {stats.cells} cell(s), "
         f"{stats.failures} failure(s), {stats.busy_seconds:.2f}s busy")
    return stats
