"""Filesystem work-queue execution — the first distributed backend.

The orchestrator and any number of worker daemons (``repro worker
<queue-dir>``, possibly on other hosts sharing the filesystem) rendezvous
over one queue directory::

    <queue-dir>/
        tasks/    pending cell payloads, one JSON file each
        claims/   leased cells (atomically renamed out of ``tasks/``);
                  the file mtime is the lease heartbeat
        results/  serialized outcomes written back by workers
        failed/   quarantined cells that exhausted their retry budget,
                  with their full per-attempt error history
        workers/  one registration file per live worker (heartbeat mtime)
        stop      sentinel file: workers drain and exit

This module is only the transport: what a cell's fate *is* — retry,
poison quarantine, corrupt-result backoff, the runaway cap — is decided
by the run's :class:`~repro.flow.ledger.CellLedger`, and the worker side
is the shared loop of :mod:`repro.flow.worker` over
:class:`QueueTransport`.  The files map onto them like this:

* **Claim** — a worker takes a cell with a single
  ``os.replace(tasks/<id>.json, claims/<id>.json)``.  Rename is atomic,
  so exactly one worker wins; the losers get ``FileNotFoundError`` and
  move on.
* **Lease** — the winner immediately ``os.utime``-s its claim and keeps
  touching it while the cell runs.  If the worker dies, the mtime goes
  stale and the orchestrator requeues the cell after ``lease_timeout``.
* **Integrity** — task and result payloads carry a ``sha256`` over their
  canonical body.  A worker drops a corrupt claim, which leaves the cell
  with no file at all: the orchestrator requeues it as *lost*.  A corrupt
  result is dropped and handed to the ledger, which backs the cell off.
* **Quarantine** — a poison cell gets a ``failed/<id>.json`` record with
  its task, reason and full per-attempt error history.
* **Idempotence** — a spuriously requeued cell may run twice.  That is
  harmless by construction: stage artifacts are keyed by the existing
  ``(fsm digest, stage, config digest)`` content addresses, result files
  are written with atomic replace, and both executions produce
  bit-identical payloads (modulo timing/worker metadata), so last write
  wins.  (Workers additionally *abandon* uploads for claims they no
  longer own, so most duplicates never even land.)
* **Merge** — the orchestrator collects ``results/<id>.json`` files and
  the ledger reassembles outcomes **in submission order**, which makes a
  queue sweep bit-identical to the serial backend at any worker count.

Lease expiry compares the orchestrator's wall clock against claim mtimes
written by the worker's host (or the NFS server).  Cross-host
deployments therefore assume clocks synchronised to well within
``lease_timeout`` (standard NTP drift is orders of magnitude below the
30 s default); a worker host ahead of the orchestrator by more than the
lease window would keep dead claims alive, one behind would spuriously
requeue live ones.
"""

from __future__ import annotations

import json
import os
import socket
import time
import uuid
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Dict, List, Mapping, Optional, Sequence, Union

from .. import chaos
from ..atomic import write_atomic
from ..cache import ArtifactCache
from ..ledger import CellLedger, LedgerCell, RetryPolicy, sign_payload, verify_payload
from ..worker import Claim, WorkerStats, WorkerStop, serve
from .base import ExecutionReport, SweepExecutor

__all__ = ["QueuePaths", "QueueExecutor", "QueueTransport", "queue_paths",
           "ensure_queue_dirs", "read_json", "run_worker", "write_json_atomic"]


@dataclass(frozen=True)
class QueuePaths:
    """The well-known locations inside one queue directory."""

    root: Path
    tasks: Path
    claims: Path
    results: Path
    failed: Path
    workers: Path
    stop: Path


def queue_paths(root: Union[str, Path]) -> QueuePaths:
    root = Path(root).expanduser()
    return QueuePaths(
        root=root,
        tasks=root / "tasks",
        claims=root / "claims",
        results=root / "results",
        failed=root / "failed",
        workers=root / "workers",
        stop=root / "stop",
    )


def ensure_queue_dirs(root: Union[str, Path]) -> QueuePaths:
    paths = queue_paths(root)
    for directory in (paths.tasks, paths.claims, paths.results, paths.failed,
                      paths.workers):
        directory.mkdir(parents=True, exist_ok=True)
    return paths


def write_json_atomic(path: Path, payload: Mapping[str, Any]) -> None:
    """Write a JSON file atomically (never torn)."""
    write_atomic(path, json.dumps(payload, separators=(",", ":")).encode("utf-8"))


def read_json(path: Path) -> Optional[Dict[str, Any]]:
    """Read a JSON file; ``None`` when missing, torn or not a dict."""
    try:
        payload = json.loads(path.read_text())
    except (OSError, ValueError):  # repro: allow-swallowed-exception -- None IS the signal: missing/torn files are a protocol state every caller handles
        return None
    return payload if isinstance(payload, dict) else None


class QueueExecutor(SweepExecutor):
    """Distribute cells to worker daemons over a shared queue directory.

    The executor is passive: it submits task files, then polls for
    results — expiring stale leases and resubmitting lost cells along the
    way, while its :class:`~repro.flow.ledger.CellLedger` decides retries,
    backoffs and quarantines.  Workers are started separately (``repro
    worker <queue-dir>`` or :func:`run_worker`) — before or after the
    sweep, on this host or any host sharing the filesystem.

    Args:
        queue_dir: the shared queue directory (created if missing).
        lease_timeout: seconds without a claim heartbeat before a cell is
            requeued (worker presumed dead).
        poll_interval: orchestrator polling period in seconds.
        timeout: overall deadline in seconds; ``None`` waits forever
            (e.g. for workers that have not started yet).
        retry: the per-cell retry/backoff/quarantine policy
            (default: :class:`RetryPolicy` defaults).
        clock: the lease/backoff wall clock, as an injectable seam —
            every expiry and backoff decision reads this one callable, so
            tests advance time without sleeping and the linter's
            determinism allowlist has exactly one site.
    """

    name = "queue"

    def __init__(
        self,
        queue_dir: Union[str, Path],
        lease_timeout: float = 30.0,
        poll_interval: float = 0.05,
        timeout: Optional[float] = None,
        retry: Optional[RetryPolicy] = None,
        # The one sanctioned wall-clock read of the flow layer: lease
        # expiry compares against claim mtimes stamped by worker hosts,
        # which are wall-clock by nature (see the module docstring).
        clock: Callable[[], float] = time.time,  # repro: allow-determinism
    ) -> None:
        if lease_timeout <= 0:
            raise ValueError("lease_timeout must be > 0")
        self.queue_dir = Path(queue_dir).expanduser()
        self.lease_timeout = float(lease_timeout)
        self.poll_interval = float(poll_interval)
        self.timeout = timeout
        self.retry = retry or RetryPolicy()
        self._clock = clock

    # ------------------------------------------------------------- execution
    def execute(
        self,
        tasks: Sequence[Mapping[str, Any]],
        *,
        fsms: Optional[Mapping[str, Any]] = None,
        cache: Optional[ArtifactCache] = None,
    ) -> ExecutionReport:
        paths = ensure_queue_dirs(self.queue_dir)
        ledger = self._ledger(paths)
        # A per-run nonce keeps concurrent sweeps sharing one queue
        # directory from colliding on cell ids (results are consumed).
        # Identity, never content: the nonce names queue files and is
        # stripped before anything digest-addressed is produced.
        run_id = uuid.uuid4().hex[:8]  # repro: allow-determinism
        for index, task in enumerate(tasks):
            ledger.add(f"{run_id}-{task.get('cell', f'{index:05d}')}", task)

        start = time.monotonic()
        while True:
            progressed = False
            for cid, _ in list(ledger.unfinished()):
                if self._consume_result(paths, ledger, cid):
                    progressed = True
            # Count only registrations with a fresh liveness heartbeat:
            # a kill -9'd worker never unlinks its file, and other sweeps
            # sharing the directory leave theirs — neither serviced us.
            # (Workers busy on a long cell heartbeat the claim instead,
            # but they are counted through their result's worker tag.)
            now = self._clock()
            for registration in paths.workers.glob("*.json"):
                try:
                    if now - registration.stat().st_mtime <= self.lease_timeout:
                        ledger.saw_worker(registration.stem)
                except OSError:  # repro: allow-swallowed-exception -- registration vanished mid-scan (worker exited); nothing to count
                    pass
            if ledger.terminal:
                break
            self._requeue_dead_cells(paths, ledger)
            ledger.serve_backoffs(self._clock())
            if self.timeout is not None and time.monotonic() - start > self.timeout:
                message = self._timeout_message(paths, ledger)
                self._remove_files(paths, [cid for cid, _ in ledger.unfinished()])
                raise TimeoutError(message)
            if not progressed:
                time.sleep(self.poll_interval)

        # A duplicate execution racing a resubmission can land one extra
        # result (or leave a resubmitted task) after the authoritative
        # copy was consumed; clearing them keeps a persistent queue
        # directory from accumulating files no orchestrator will read.
        self._remove_files(paths, ledger.ids)
        return ExecutionReport.from_summary(
            ledger.summary(self._clock()), self.name,
            queue_dir=str(self.queue_dir), cells_lost=ledger.counters["cells_lost"],
        )

    def _ledger(self, paths: QueuePaths) -> CellLedger:
        """A ledger whose submissions are task files and whose
        quarantines are ``failed/`` records."""
        return CellLedger(
            self.retry,
            on_quarantine=lambda cid, cell, reason: self._quarantine(
                paths, cid, cell, reason),
            on_submit=lambda cid, cell: self._submit(paths, cid, cell),
        )

    # ------------------------------------------------------------ submission
    def _submit(self, paths: QueuePaths, cid: str, cell: LedgerCell) -> None:
        """Write one (signed) task file; the corrupt-task chaos seam."""
        body = {
            "cell": cid,
            "task": cell.task,
            # The lease window rides with the task: workers heartbeat at a
            # quarter of it.
            "lease_timeout": self.lease_timeout,
            "attempt": cell.attempt,
            "max_attempts": self.retry.max_attempts,
        }
        task_path = paths.tasks / f"{cid}.json"
        plan = chaos.active_plan()
        if plan is not None and plan.decide(
            "corrupt-task", chaos.cell_label(cell.task), cell.attempt
        ):
            # The garbage replaces the task outright: a valid task written
            # first could be claimed before it is corrupted.
            chaos.corrupt_file(task_path)
        else:
            write_json_atomic(task_path, sign_payload(body))

    def _quarantine(
        self, paths: QueuePaths, cid: str, cell: LedgerCell, reason: str
    ) -> str:
        """Record a poison cell in ``failed/`` with its full error history."""
        quarantine_path = paths.failed / f"{cid}.json"
        write_json_atomic(quarantine_path, sign_payload({
            "cell": cid,
            "label": chaos.cell_label(cell.task),
            "task": cell.task,
            "attempts": cell.attempt,
            "reason": reason,
            "errors": cell.errors,
        }))
        self._remove_files(paths, [cid])
        return str(quarantine_path)

    # ----------------------------------------------------------- consumption
    def _consume_result(self, paths: QueuePaths, ledger: CellLedger, cid: str) -> bool:
        """Process ``results/<cid>.json`` if present; True when progressed."""
        result_path = paths.results / f"{cid}.json"
        payload = read_json(result_path)
        if payload is None:
            if not result_path.exists():
                return False
            # The file exists but did not parse.  Writes are atomic, so
            # this is genuine corruption, not an in-progress write — but
            # re-read once in case the file only appeared between the
            # failed read and the existence check.
            payload = read_json(result_path)
        if payload is None or not verify_payload(payload) or "outcome" not in payload:
            _unlink(result_path, paths.claims / f"{cid}.json")
            ledger.corrupt_result(cid, self._clock())
            return True
        outcome = dict(payload["outcome"])
        self._remove_files(paths, [cid])
        ledger.record(cid, outcome, outcome.get("worker"), self._clock())
        return True

    # --------------------------------------------------------------- requeue
    def _requeue_dead_cells(self, paths: QueuePaths, ledger: CellLedger) -> None:
        """Requeue in-flight cells whose worker died or that vanished.

        A claim whose heartbeat went stale belongs to a dead worker.  A
        cell with no task, claim or result file at all was dropped by a
        worker that claimed a corrupt task payload (it cannot execute
        garbage); the orchestrator still holds the payload in memory, so
        the recovery is a fresh signed submission.  The lost-cell checks
        run in task -> claim -> result order: a cell mid-rename is always
        visible at one of the first two, and a fast completion is caught
        by the final result check.
        """
        now = self._clock()
        for cid, cell in list(ledger.unfinished()):
            if cell.status != "pending":
                continue
            task, claim, result = (
                area / f"{cid}.json" for area in (paths.tasks, paths.claims, paths.results)
            )
            try:
                lease_age: Optional[float] = now - claim.stat().st_mtime
            except OSError:
                lease_age = None  # no claim: pending, finished or lost
            if lease_age is not None:
                if lease_age > self.lease_timeout and _unlink(claim):
                    ledger.requeue(cid)
            elif not (task.exists() or claim.exists() or result.exists()):
                ledger.requeue(cid, lost=True)

    # -------------------------------------------------------------- shutdown
    def _timeout_message(self, paths: QueuePaths, ledger: CellLedger) -> str:
        """A diagnosable deadline message: ids, attempts, lease ages."""
        now = self._clock()
        details: List[str] = []
        for cid, cell in ledger.unfinished():
            claim = paths.claims / f"{cid}.json"
            try:
                lease_age: Optional[float] = now - claim.stat().st_mtime
            except OSError:
                lease_age = None
            if lease_age is not None:
                where = f"claimed, lease age {lease_age:.1f}s"
            elif cell.status == "backoff":
                where = f"retry backoff, due in {max(0.0, cell.resubmit_at - now):.1f}s"
            elif (paths.tasks / f"{cid}.json").exists():
                where = "pending, unclaimed"
            else:
                where = "in flight"
            details.append(f"{cid} (attempt {cell.attempt}, {where})")
        assert self.timeout is not None
        return (
            f"queue sweep timed out after {self.timeout:.0f}s with "
            f"{len(details)} unfinished cell(s) in {self.queue_dir} "
            f"(are any 'repro worker' daemons running?): "
            + "; ".join(details)
        )

    @staticmethod
    def _remove_files(paths: QueuePaths, ids: Sequence[str]) -> None:
        """Best-effort removal of the task, claim and result files of cells.

        On a timeout this keeps long-lived workers on a persistent queue
        directory from claiming orphaned cells; a worker mid-cell may still
        write one result afterwards, which nobody consumes or re-creates.
        Quarantine files are never removed — they are the post-mortem
        record.
        """
        for cid in ids:
            _unlink(paths.tasks / f"{cid}.json", paths.claims / f"{cid}.json",
                    paths.results / f"{cid}.json")


def _unlink(*files: Path) -> bool:
    """Remove queue files; whether this call removed every one of them."""
    removed = True
    for stale in files:
        try:
            stale.unlink()
        except OSError:
            removed = False  # consumed, claimed or never written: absence is the goal
    return removed


# ---------------------------------------------------------------- workers


class QueueTransport:
    """The worker side of the queue directory (see the module docstring)."""

    def __init__(self, paths: QueuePaths) -> None:
        self.paths = paths
        self.where = str(paths.root)

    def _registration(self, worker: str) -> Path:
        return self.paths.workers / f"{worker}.json"

    def register(self, worker: str) -> None:
        write_json_atomic(
            self._registration(worker),
            {"worker": worker, "pid": os.getpid(), "host": socket.gethostname()},
        )

    def claim(self, worker: str, stats: WorkerStats) -> Optional[Claim]:
        """Claim the oldest pending task by atomic rename.

        A claim whose payload is corrupt (torn write, chaos injection,
        integrity-digest mismatch) is dropped and counted — the
        orchestrator still holds the cell payload in memory and resubmits
        it on its next lost-cell scan.  A winning claim is re-stamped with
        this worker's identity (``claimed_by``) so the upload can verify
        ownership after a lease loss.  A scan that finds nothing touches
        the worker's registration, its liveness heartbeat.
        """
        if self.paths.stop.exists():
            raise WorkerStop("stop-file")
        try:
            pending = sorted(p for p in self.paths.tasks.iterdir() if p.suffix == ".json")
        except OSError:  # repro: allow-swallowed-exception -- tasks/ pruned or unreadable reads as an idle queue; the poll loop retries
            return None
        for task_path in pending:
            claim_path = self.paths.claims / task_path.name
            try:
                os.replace(task_path, claim_path)
            except OSError:  # repro: allow-swallowed-exception -- another worker won the rename; losing the race is the protocol
                continue
            try:
                # Rename preserves the submit-time mtime; stamp the claim
                # with *now* so the lease clock starts at claim time.
                os.utime(claim_path)
            except OSError:  # repro: allow-swallowed-exception -- requeued out from under us in the stamp window; the next task is ours
                continue
            payload = read_json(claim_path)
            if payload is None or "task" not in payload or not verify_payload(payload):
                stats.corrupt_tasks += 1
                _unlink(claim_path)  # corrupt task payload: drop it
                continue
            body = {key: value for key, value in payload.items() if key != "sha256"}
            body["claimed_by"] = worker
            write_json_atomic(claim_path, sign_payload(body))
            return Claim(
                cell=str(payload.get("cell", task_path.stem)),
                task=dict(payload["task"]),
                attempt=int(payload.get("attempt", 1)),
                lease_timeout=float(payload.get("lease_timeout", 30.0)),
                handle=claim_path,
            )
        try:
            os.utime(self._registration(worker))  # idle: a liveness heartbeat
        except OSError:  # repro: allow-swallowed-exception -- registration pruned externally; the next loop rewrites nothing vital
            pass
        return None

    def renew(self, claim: Claim, worker: str) -> bool:
        """Touch the claim file; a vanished claim means the lease expired."""
        try:
            os.utime(claim.handle)
        except OSError:
            return False
        return True

    def upload(
        self, claim: Claim, worker: str, outcome: Dict[str, Any], corrupt: bool
    ) -> Optional[str]:
        # Ownership check before upload: if our lease was expired the cell
        # was requeued (and possibly reclaimed), so this execution is the
        # stale duplicate.
        owner = read_json(claim.handle)
        if owner is None or owner.get("claimed_by") != worker:
            return "lease lost mid-cell"
        result_path = self.paths.results / f"{claim.cell}.json"
        if corrupt:
            # The garbage replaces the result outright: a valid result
            # written first could be consumed before it is corrupted.
            chaos.corrupt_file(result_path)
        else:
            write_json_atomic(
                result_path, sign_payload({"cell": claim.cell, "outcome": outcome})
            )
        _unlink(claim.handle)  # requeued and re-claimed elsewhere is fine: results are idempotent
        return None

    def deregister(self, worker: str) -> None:
        _unlink(self._registration(worker))

    def thread_exit(self) -> None:
        pass


def run_worker(queue_dir: Union[str, Path], **options: Any) -> WorkerStats:
    """``repro worker <queue-dir>``: the worker loop over a queue directory
    (created if missing), until its ``stop`` file appears.

    ``options`` are those of :func:`repro.flow.worker.serve` (``cache_dir``,
    ``worker_id``, ``poll_interval``, ``max_idle``, ``max_cells``,
    ``drain``, ``log``).
    """
    return serve(QueueTransport(ensure_queue_dirs(queue_dir)), **options)
