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

The protocol is the lease/retry loop of production job-queue daemons:

* **Claim** — a worker takes a cell with a single
  ``os.replace(tasks/<id>.json, claims/<id>.json)``.  Rename is atomic,
  so exactly one worker wins; the losers get ``FileNotFoundError`` and
  move on.
* **Lease** — the winner immediately ``os.utime``-s its claim and keeps
  touching it from a heartbeat thread while the cell runs.  If the worker
  dies, the mtime goes stale and the orchestrator resubmits the task
  (attempt + 1) after ``lease_timeout`` (counted as a requeue).
* **Integrity** — task and result payloads carry a ``sha256`` over their
  canonical body.  A corrupt payload (torn write, bad disk, injected
  chaos) is never fatal: workers drop corrupt claims, the orchestrator
  drops corrupt results, and either way the cell is resubmitted and a
  counter incremented.
* **Retry** — a cell whose execution *fails* (structured error in the
  result) is retried with exponential backoff up to
  ``RetryPolicy.max_attempts``.  Two consecutive attempts returning the
  same structured error (type + message) classify the failure as
  *deterministic* — poison work — and quarantine the cell into
  ``failed/`` immediately; transient faults get the full budget.
* **Idempotence** — a spuriously requeued cell may run twice.  That is
  harmless by construction: stage artifacts are keyed by the existing
  ``(fsm digest, stage, config digest)`` content addresses, result files
  are written with atomic replace, and both executions produce
  bit-identical payloads (modulo timing/worker metadata), so last write
  wins.  (Workers additionally *abandon* uploads for leases they lost —
  see :mod:`repro.flow.worker` — so most duplicates never even land.)
* **Merge** — the orchestrator collects ``results/<id>.json`` files and
  reassembles outcomes **in submission order**, which makes a queue sweep
  bit-identical to the serial backend at any worker count.

Lease expiry compares the orchestrator's wall clock against claim mtimes
written by the worker's host (or the NFS server).  Cross-host
deployments therefore assume clocks synchronised to well within
``lease_timeout`` (standard NTP drift is orders of magnitude below the
30 s default); a worker host ahead of the orchestrator by more than the
lease window would keep dead claims alive, one behind would spuriously
requeue live ones.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
import time
import uuid
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, List, Mapping, Optional, Sequence, Set, Union

from .. import chaos
from ..cache import ArtifactCache
from .base import ExecutionReport, SweepExecutor

__all__ = ["QueuePaths", "QueueExecutor", "RetryPolicy", "queue_paths",
           "ensure_queue_dirs", "write_json_atomic", "read_json",
           "sign_payload", "verify_payload", "payload_digest"]


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
    """Write a JSON file with temp-file + ``os.replace`` (never torn)."""
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp_name = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as handle:
            json.dump(payload, handle, separators=(",", ":"))
        os.replace(tmp_name, path)
    except BaseException:
        try:
            os.unlink(tmp_name)
        except OSError:  # repro: allow-swallowed-exception -- best-effort tmp cleanup while re-raising the original error
            pass
        raise


def read_json(path: Path) -> Optional[Dict[str, Any]]:
    """Read a JSON file; ``None`` when missing, torn or not a dict."""
    try:
        payload = json.loads(path.read_text())
    except (OSError, ValueError):  # repro: allow-swallowed-exception -- None IS the signal: missing/torn files are a protocol state every caller handles
        return None
    return payload if isinstance(payload, dict) else None


# -------------------------------------------------------------- integrity


def payload_digest(body: Mapping[str, Any]) -> str:
    """Canonical sha256 of a payload body (the ``sha256`` field excluded)."""
    canonical = {key: body[key] for key in sorted(body) if key != "sha256"}
    return hashlib.sha256(
        json.dumps(canonical, sort_keys=True, separators=(",", ":")).encode("utf-8")
    ).hexdigest()


def sign_payload(body: Mapping[str, Any]) -> Dict[str, Any]:
    """A copy of ``body`` carrying its integrity digest."""
    signed = dict(body)
    signed["sha256"] = payload_digest(body)
    return signed


def verify_payload(payload: Mapping[str, Any]) -> bool:
    """Whether a payload's integrity digest matches its body.

    Payloads without a ``sha256`` field (written by pre-chaos code) are
    accepted — ``repro fsck`` reports them, but a mixed-version fleet
    must not deadlock on them.
    """
    recorded = payload.get("sha256")
    if recorded is None:
        return True
    return bool(recorded == payload_digest(payload))


# ------------------------------------------------------------ retry policy


@dataclass(frozen=True)
class RetryPolicy:
    """Bounded retries with exponential backoff for failing cells.

    ``delay_for(attempt)`` is the pause before resubmitting a cell whose
    ``attempt``-th execution failed: ``backoff_base * backoff_factor ^
    (attempt - 1)``, capped at ``backoff_max`` seconds.
    """

    max_attempts: int = 3
    backoff_base: float = 0.25
    backoff_factor: float = 2.0
    backoff_max: float = 30.0

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be >= 1")
        if self.backoff_base < 0 or self.backoff_max < 0:
            raise ValueError("backoff durations must be >= 0")
        if self.backoff_factor < 1.0:
            raise ValueError("backoff_factor must be >= 1")

    def delay_for(self, attempt: int) -> float:
        return min(self.backoff_max,
                   self.backoff_base * self.backoff_factor ** max(0, attempt - 1))

    def to_dict(self) -> Dict[str, Any]:
        return {
            "max_attempts": self.max_attempts,
            "backoff_base": self.backoff_base,
            "backoff_factor": self.backoff_factor,
            "backoff_max": self.backoff_max,
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "RetryPolicy":
        return cls(
            max_attempts=int(data.get("max_attempts", 3)),
            backoff_base=float(data.get("backoff_base", 0.25)),
            backoff_factor=float(data.get("backoff_factor", 2.0)),
            backoff_max=float(data.get("backoff_max", 30.0)),
        )


def _same_error(a: Mapping[str, Any], b: Mapping[str, Any]) -> bool:
    """Whether two structured error records describe the same failure.

    Type + message only: tracebacks legitimately differ across hosts
    (paths, line caching), but a failure that reproduces its exact
    type/message on an independent retry is deterministic poison, not a
    transient infrastructure fault.
    """
    return bool(
        a.get("type") == b.get("type") and a.get("message") == b.get("message")
    )


@dataclass
class _CellState:
    """Orchestrator-side bookkeeping for one submitted cell."""

    task: Dict[str, Any]
    attempt: int = 1
    errors: List[Dict[str, Any]] = field(default_factory=list)
    #: Clock timestamp before which the cell must not be resubmitted
    #: (``None``: the cell is in flight — a task/claim/result file exists).
    resubmit_at: Optional[float] = None
    done: bool = False
    failed: bool = False


class QueueExecutor(SweepExecutor):
    """Distribute cells to worker daemons over a shared queue directory.

    The executor is passive: it submits task files, then polls for
    results — expiring stale leases, resubmitting corrupt/lost cells,
    retrying failures with backoff and quarantining poison cells along
    the way.  Workers are started separately (``repro worker
    <queue-dir>`` or :func:`repro.flow.worker.run_worker`) — before or
    after the sweep, on this host or any host sharing the filesystem.

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

    #: Runaway guard: a cell is force-quarantined after this many total
    #: submissions (including infra requeues that never produce an error
    #: record), whatever the retry policy says.  Keeps an adversarial
    #: corrupt-every-attempt fault from looping a sweep forever.  Every
    #: resubmission path funnels through :meth:`_resubmit`, where the cap
    #: is enforced.
    _ATTEMPT_HARD_CAP_FACTOR = 4

    @property
    def _hard_cap(self) -> int:
        return self.retry.max_attempts * self._ATTEMPT_HARD_CAP_FACTOR

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
        # A per-run nonce keeps concurrent sweeps sharing one queue
        # directory from colliding on cell ids (results are consumed).
        # Identity, never content: the nonce names queue files and is
        # stripped before anything digest-addressed is produced.
        run_id = uuid.uuid4().hex[:8]  # repro: allow-determinism
        ids: List[str] = []
        states: Dict[str, _CellState] = {}
        for index, task in enumerate(tasks):
            cid = f"{run_id}-{task.get('cell', f'{index:05d}')}"
            ids.append(cid)
            states[cid] = _CellState(task=dict(task))
            self._submit(paths, cid, states[cid])

        outcomes: Dict[str, Dict[str, Any]] = {}
        counters = {"requeues": 0, "retries": 0, "corrupt_results": 0,
                    "cells_lost": 0}
        workers_seen: Set[str] = set()
        start = time.monotonic()
        while True:
            progressed = False
            for cid in ids:
                state = states[cid]
                if state.done or state.failed:
                    continue
                if self._consume_result(paths, cid, state, outcomes, counters,
                                        workers_seen):
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
                        workers_seen.add(registration.stem)
                except OSError:  # repro: allow-swallowed-exception -- registration vanished mid-scan (worker exited); nothing to count
                    pass
            if all(states[cid].done or states[cid].failed for cid in ids):
                break
            counters["requeues"] += self._expire_stale_leases(paths, ids, states,
                                                              outcomes)
            self._recover_lost_cells(paths, ids, states, outcomes, counters)
            self._serve_backoffs(paths, ids, states, outcomes)
            if self.timeout is not None and time.monotonic() - start > self.timeout:
                pending = [cid for cid in ids
                           if not (states[cid].done or states[cid].failed)]
                message = self._timeout_message(paths, pending, states)
                self._abandon(paths, ids, states)
                raise TimeoutError(message)
            if not progressed:
                time.sleep(self.poll_interval)

        self._cleanup_leftovers(paths, ids)
        quarantined = sorted(cid for cid in ids if states[cid].failed)
        attempts_used = {cid: states[cid].attempt for cid in ids}
        return ExecutionReport(
            outcomes=[outcomes[cid] for cid in ids],
            backend=self.name,
            workers=max(1, len(workers_seen)),
            cells_requeued=counters["requeues"],
            extra={
                "queue_dir": str(self.queue_dir),
                "workers_seen": sorted(workers_seen),
                "retries": counters["retries"],
                "corrupt_results": counters["corrupt_results"],
                "cells_lost": counters["cells_lost"],
                "quarantined": quarantined,
                "retry_policy": self.retry.to_dict(),
                "cell_attempts": attempts_used,
            },
        )

    # ------------------------------------------------------------ submission
    def _submit(self, paths: QueuePaths, cid: str, state: _CellState) -> None:
        """Write one (signed) task file; the corrupt-task chaos seam."""
        body = {
            "cell": cid,
            "task": state.task,
            # lease_timeout rides with the task so workers derive a
            # matching heartbeat even when started with a different flag.
            "lease_timeout": self.lease_timeout,
            "attempt": state.attempt,
            "max_attempts": self.retry.max_attempts,
        }
        task_path = paths.tasks / f"{cid}.json"
        state.resubmit_at = None
        plan = chaos.active_plan()
        if plan is not None and plan.decide(
            "corrupt-task", chaos.cell_label(state.task), state.attempt
        ):
            # The garbage replaces the task outright: a valid task written
            # first could be claimed before it is corrupted.
            chaos.corrupt_file(task_path)
        else:
            write_json_atomic(task_path, sign_payload(body))

    # ----------------------------------------------------------- consumption
    def _consume_result(
        self,
        paths: QueuePaths,
        cid: str,
        state: _CellState,
        outcomes: Dict[str, Dict[str, Any]],
        counters: Dict[str, int],
        workers_seen: Set[str],
    ) -> bool:
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
            if payload is None:
                self._drop_corrupt_result(paths, cid, state, counters)
                return True
        if not verify_payload(payload) or "outcome" not in payload:
            self._drop_corrupt_result(paths, cid, state, counters)
            return True

        outcome = dict(payload["outcome"])
        worker = outcome.get("worker")
        if worker:
            workers_seen.add(worker)
        for stale in (result_path, paths.claims / f"{cid}.json",
                      paths.tasks / f"{cid}.json"):
            try:
                stale.unlink()
            except OSError:  # repro: allow-swallowed-exception -- queue file already consumed/claimed elsewhere; absence is the goal
                pass

        error = outcome.get("error")
        if not error:
            state.done = True
            outcomes[cid] = outcome
            return True

        # A failed execution: record, then retry, or quarantine poison.
        record = dict(error)
        record["attempt"] = state.attempt
        record["worker"] = worker
        state.errors.append(record)
        deterministic = len(state.errors) >= 2 and _same_error(
            state.errors[-1], state.errors[-2]
        )
        exhausted = len(state.errors) >= self.retry.max_attempts
        if deterministic or exhausted:
            self._quarantine(paths, cid, state, outcomes,
                             reason="deterministic" if deterministic else "exhausted")
        else:
            counters["retries"] += 1
            # The attempt counter is bumped by _resubmit when the backoff
            # is served, so it always names the execution in flight.
            state.resubmit_at = self._clock() + self.retry.delay_for(state.attempt)
        return True

    def _drop_corrupt_result(
        self,
        paths: QueuePaths,
        cid: str,
        state: _CellState,
        counters: Dict[str, int],
    ) -> None:
        """Corrupt result payload: drop it and retry with backoff — never crash.

        The resubmission rides the backoff machinery rather than firing
        immediately: persistent corruption (bad disk, broken worker)
        would otherwise hot-loop submit/corrupt/resubmit at the poll
        interval, and backoff cells are the ones :meth:`_resubmit`
        checks against the runaway hard cap.
        """
        counters["corrupt_results"] += 1
        for stale in (paths.results / f"{cid}.json", paths.claims / f"{cid}.json"):
            try:
                stale.unlink()
            except OSError:  # repro: allow-swallowed-exception -- already gone; the backoff resubmit below is the recovery
                pass
        state.resubmit_at = self._clock() + self.retry.delay_for(state.attempt)

    # ------------------------------------------------------------ quarantine
    def _quarantine(
        self,
        paths: QueuePaths,
        cid: str,
        state: _CellState,
        outcomes: Dict[str, Dict[str, Any]],
        reason: str,
    ) -> None:
        """Move a poison cell to ``failed/`` with its full error history."""
        quarantine_path = paths.failed / f"{cid}.json"
        write_json_atomic(quarantine_path, sign_payload({
            "cell": cid,
            "label": chaos.cell_label(state.task),
            "task": state.task,
            "attempts": state.attempt,
            "reason": reason,
            "errors": state.errors,
        }))
        for stale in (paths.tasks / f"{cid}.json", paths.claims / f"{cid}.json",
                      paths.results / f"{cid}.json"):
            try:
                stale.unlink()
            except OSError:  # repro: allow-swallowed-exception -- nothing left to clean for the quarantined cell
                pass
        state.failed = True
        last = state.errors[-1] if state.errors else {
            "type": "QueueRunawayError",
            "message": f"cell resubmitted {state.attempt} times without a "
                       f"successful or failing execution",
            "traceback": None,
        }
        outcomes[cid] = {
            "kind": state.task.get("kind"),
            "cell": cid,
            "result": None,
            "worker": last.get("worker"),
            "cache_stats": None,
            "error": {key: last.get(key) for key in ("type", "message", "traceback")},
            "error_attempts": list(state.errors),
            "attempts": state.attempt,
            "quarantined": str(quarantine_path),
            "quarantine_reason": reason,
        }

    # --------------------------------------------------------------- requeue
    def _resubmit(
        self,
        paths: QueuePaths,
        cid: str,
        state: _CellState,
        outcomes: Dict[str, Dict[str, Any]],
    ) -> bool:
        """Bump the attempt and resubmit — or quarantine past the hard cap.

        Every resubmission path (stale lease, lost cell, served retry or
        corrupt-result backoff) funnels through here, so the runaway
        guard also covers infra requeues that never produce an error
        record — e.g. a task payload corrupted on every attempt.  Returns
        whether the cell was actually resubmitted.
        """
        state.attempt += 1
        if state.attempt > self._hard_cap:
            self._quarantine(paths, cid, state, outcomes, reason="runaway")
            return False
        self._submit(paths, cid, state)
        return True

    def _expire_stale_leases(
        self,
        paths: QueuePaths,
        ids: Sequence[str],
        states: Mapping[str, _CellState],
        outcomes: Dict[str, Dict[str, Any]],
    ) -> int:
        """Resubmit claims whose heartbeat went stale (dead worker)."""
        requeued = 0
        now = self._clock()
        for cid in ids:
            state = states[cid]
            if state.done or state.failed or state.resubmit_at is not None:
                continue
            claim = paths.claims / f"{cid}.json"
            try:
                mtime = claim.stat().st_mtime
            except OSError:  # repro: allow-swallowed-exception -- no claim file means pending/finished, not stale; nothing to expire
                continue
            if now - mtime <= self.lease_timeout:
                continue
            try:
                claim.unlink()
            except OSError:  # repro: allow-swallowed-exception -- claim finished/requeued concurrently; the next scan sees the result
                continue
            if self._resubmit(paths, cid, state, outcomes):
                requeued += 1
        return requeued

    def _recover_lost_cells(
        self,
        paths: QueuePaths,
        ids: Sequence[str],
        states: Mapping[str, _CellState],
        outcomes: Dict[str, Dict[str, Any]],
        counters: Dict[str, int],
    ) -> None:
        """Resubmit cells that vanished from the queue entirely.

        A worker that claims a corrupt task payload drops the claim (it
        cannot execute garbage), leaving the cell with no task, claim or
        result file.  The orchestrator still holds the payload in memory,
        so the recovery is a fresh signed submission.  The checks run in
        task -> claim -> result order: a cell mid-rename is always
        visible at one of the first two, and a fast completion is caught
        by the final result check.
        """
        for cid in ids:
            state = states[cid]
            if state.done or state.failed or state.resubmit_at is not None:
                continue
            if (paths.tasks / f"{cid}.json").exists():
                continue
            if (paths.claims / f"{cid}.json").exists():
                continue
            if (paths.results / f"{cid}.json").exists():
                continue
            counters["cells_lost"] += 1
            self._resubmit(paths, cid, state, outcomes)

    def _serve_backoffs(
        self,
        paths: QueuePaths,
        ids: Sequence[str],
        states: Mapping[str, _CellState],
        outcomes: Dict[str, Dict[str, Any]],
    ) -> None:
        """Resubmit retry-pending cells whose backoff delay elapsed."""
        now = self._clock()
        for cid in ids:
            state = states[cid]
            if state.done or state.failed or state.resubmit_at is None:
                continue
            if now >= state.resubmit_at:
                self._resubmit(paths, cid, state, outcomes)

    # -------------------------------------------------------------- shutdown
    def _timeout_message(
        self,
        paths: QueuePaths,
        pending: Sequence[str],
        states: Mapping[str, _CellState],
    ) -> str:
        """A diagnosable deadline message: ids, attempts, lease ages."""
        now = self._clock()
        details: List[str] = []
        for cid in pending:
            state = states[cid]
            claim = paths.claims / f"{cid}.json"
            try:
                lease_age: Optional[float] = now - claim.stat().st_mtime
            except OSError:
                lease_age = None
            if lease_age is not None:
                where = f"claimed, lease age {lease_age:.1f}s"
            elif state.resubmit_at is not None:
                where = f"retry backoff, due in {max(0.0, state.resubmit_at - now):.1f}s"
            elif (paths.tasks / f"{cid}.json").exists():
                where = "pending, unclaimed"
            else:
                where = "in flight"
            details.append(f"{cid} (attempt {state.attempt}, {where})")
        assert self.timeout is not None
        return (
            f"queue sweep timed out after {self.timeout:.0f}s with "
            f"{len(pending)} unfinished cell(s) in {self.queue_dir} "
            f"(are any 'repro worker' daemons running?): "
            + "; ".join(details)
        )

    def _abandon(
        self,
        paths: QueuePaths,
        ids: Sequence[str],
        states: Mapping[str, _CellState],
    ) -> None:
        """Best-effort removal of this run's leftover queue files.

        Called on timeout so long-lived workers on a persistent queue
        directory do not keep claiming orphaned cells and piling up
        results nobody will consume.  A worker mid-cell may still write
        one result after this sweep of the directory; that lone file is
        consumed by no one but also re-created by no one.  Quarantine
        files are deliberately kept — they are the post-mortem record.
        """
        for cid in ids:
            state = states[cid]
            if state.done or state.failed:
                continue
            for leftover in (
                paths.tasks / f"{cid}.json",
                paths.claims / f"{cid}.json",
                paths.results / f"{cid}.json",
            ):
                try:
                    leftover.unlink()
                except OSError:  # repro: allow-swallowed-exception -- best-effort cleanup of an aborted run; fsck audits the rest
                    pass

    def _cleanup_leftovers(self, paths: QueuePaths, ids: Sequence[str]) -> None:
        """Remove straggler files of completed cells.

        A duplicate execution racing a resubmission can land one extra
        result (or leave a resubmitted task) after the authoritative copy
        was consumed; clearing them keeps a persistent queue directory
        from accumulating files no orchestrator will ever read.
        """
        for cid in ids:
            for leftover in (
                paths.tasks / f"{cid}.json",
                paths.claims / f"{cid}.json",
                paths.results / f"{cid}.json",
            ):
                try:
                    leftover.unlink()
                except OSError:  # repro: allow-swallowed-exception -- normally absent; only stragglers from duplicate executions exist
                    pass
