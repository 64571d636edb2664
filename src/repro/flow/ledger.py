"""The failure model of the distributed sweep backends, defined once.

Both distributed transports — the filesystem queue
(:class:`~repro.flow.backends.queue.QueueExecutor`) and the HTTP
coordinator (:class:`~repro.flow.net.coordinator.Coordinator`) — keep the
cells of one run in a :class:`CellLedger` and differ only in how a cell
travels to a worker and back.  The ledger owns every decision about a
cell's fate:

* **Retry** — an execution that *fails* (a structured error in its
  outcome) is retried after a :class:`RetryPolicy` backoff, up to
  ``max_attempts`` executions.
* **Poison** — two consecutive attempts returning the same structured
  error (type + message, :func:`_same_error`) classify the failure as
  *deterministic* and quarantine the cell at once; transient faults get
  the full budget and end ``exhausted``.
* **Corruption** — a corrupt result is dropped, counted, and the cell
  backs off exactly like a retry, so persistent corruption cannot
  hot-loop at the poll interval.
* **Requeue** — a cell whose lease was lost (dead worker) or that
  vanished from its transport altogether is resubmitted and counted.
* **Runaway cap** — every resubmission funnels through one place, where a
  cell is quarantined (``runaway``) after ``max_attempts *``
  :data:`HARD_CAP_FACTOR` submissions, infra requeues included.

The ledger is clock-free: a transition that schedules or serves a
backoff takes ``now`` from its host, so each host keeps its own clock
(the queue compares wall-clock claim mtimes, the coordinator its own
monotonic stamps).  The payload-integrity helpers both transports sign
their payloads with live here too.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterator, List, Mapping, Optional, Set, Tuple

__all__ = [
    "HARD_CAP_FACTOR",
    "CellLedger",
    "LedgerCell",
    "RetryPolicy",
    "STATES",
    "canonical_json",
    "payload_digest",
    "sign_payload",
    "verify_payload",
]

#: Runaway guard: a cell is force-quarantined after ``max_attempts *
#: HARD_CAP_FACTOR`` total submissions, whatever the retry policy says, so
#: an adversarial corrupt-every-attempt fault cannot loop a sweep forever.
HARD_CAP_FACTOR = 4

#: Every cell status, in the order run summaries count them.
STATES = ("pending", "claimed", "backoff", "done", "failed")


# -------------------------------------------------------------- integrity


def canonical_json(body: Mapping[str, Any]) -> bytes:
    """The canonical UTF-8 JSON of a payload body (the ``sha256`` field
    excluded): sorted keys, no whitespace — the bytes its digest hashes."""
    canonical = {key: body[key] for key in sorted(body) if key != "sha256"}
    return json.dumps(canonical, sort_keys=True, separators=(",", ":")).encode("utf-8")


def payload_digest(body: Mapping[str, Any]) -> str:
    """Canonical sha256 of a payload body (the ``sha256`` field excluded)."""
    return hashlib.sha256(canonical_json(body)).hexdigest()


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


# ------------------------------------------------------------------ ledger


@dataclass
class LedgerCell:
    """The ledger's record of one submitted cell."""

    task: Dict[str, Any]
    attempt: int = 1
    errors: List[Dict[str, Any]] = field(default_factory=list)
    #: One of :data:`STATES`.  ``claimed`` is set only by hosts that track
    #: claims in memory; the queue knows a claim from its claim file.
    status: str = "pending"
    #: Clock stamp before which a ``backoff`` cell is not resubmitted.
    resubmit_at: float = 0.0
    outcome: Optional[Dict[str, Any]] = None

    @property
    def finished(self) -> bool:
        return self.status in ("done", "failed")


class CellLedger:
    """One run's cells in submission order, and every transition of them.

    Args:
        retry: the run's retry/backoff policy.
        on_quarantine: called as ``(cell id, cell, reason)`` when a cell is
            quarantined; returns the location string the outcome's
            ``quarantined`` field names (the queue writes its ``failed/``
            record here).
        on_submit: called as ``(cell id, cell)`` for every submission of a
            cell, first and resubmitted alike (the queue writes its task
            file here; ``None``: the ``pending`` status is the submission).
    """

    def __init__(
        self,
        retry: RetryPolicy,
        on_quarantine: Callable[[str, LedgerCell, str], str],
        on_submit: Optional[Callable[[str, LedgerCell], None]] = None,
    ) -> None:
        self.retry = retry
        self.ids: List[str] = []
        self.cells: Dict[str, LedgerCell] = {}
        self.counters: Dict[str, int] = {
            "requeues": 0, "retries": 0, "corrupt_results": 0, "cells_lost": 0,
        }
        self.workers_seen: Set[str] = set()
        self._on_quarantine = on_quarantine
        self._on_submit = on_submit

    @property
    def hard_cap(self) -> int:
        return self.retry.max_attempts * HARD_CAP_FACTOR

    def add(self, cid: str, task: Mapping[str, Any]) -> None:
        """Submit one cell (its first attempt)."""
        cell = LedgerCell(task=dict(task))
        self.ids.append(cid)
        self.cells[cid] = cell
        if self._on_submit is not None:
            self._on_submit(cid, cell)

    def unfinished(self) -> Iterator[Tuple[str, LedgerCell]]:
        """The cells still neither done nor failed, in submission order."""
        for cid in self.ids:
            cell = self.cells[cid]
            if not cell.finished:
                yield cid, cell

    @property
    def terminal(self) -> bool:
        return all(cell.finished for cell in self.cells.values())

    def saw_worker(self, worker: Optional[str]) -> None:
        if worker:
            self.workers_seen.add(worker)

    def claim(self, worker: str) -> Optional[str]:
        """Hand the first pending cell, in submission order, to ``worker``."""
        for cid in self.ids:
            cell = self.cells[cid]
            if cell.status == "pending":
                cell.status = "claimed"
                self.saw_worker(worker)
                return cid
        return None

    # ------------------------------------------------------------ transitions
    def record(
        self, cid: str, outcome: Dict[str, Any], worker: Optional[str], now: float
    ) -> str:
        """Record one execution's outcome; returns the cell's new status
        (``done``, a retry's ``backoff`` or a quarantine's ``failed``)."""
        cell = self.cells[cid]
        self.saw_worker(worker)
        error = outcome.get("error")
        if not error:
            cell.status = "done"
            cell.outcome = outcome
            return cell.status
        entry = dict(error)
        entry["attempt"] = cell.attempt
        entry["worker"] = worker
        cell.errors.append(entry)
        deterministic = len(cell.errors) >= 2 and _same_error(
            cell.errors[-1], cell.errors[-2]
        )
        exhausted = len(cell.errors) >= self.retry.max_attempts
        if deterministic or exhausted:
            self._quarantine(cid, cell, "deterministic" if deterministic else "exhausted")
        else:
            self.counters["retries"] += 1
            # The attempt is bumped when the backoff is served, so it
            # always names the execution in flight.
            self._backoff(cell, now)
        return cell.status

    def corrupt_result(self, cid: str, now: float) -> None:
        """A corrupt result: counted, and the cell backs off like a retry."""
        self.counters["corrupt_results"] += 1
        self._backoff(self.cells[cid], now)

    def requeue(self, cid: str, lost: bool = False) -> None:
        """Resubmit a cell whose lease was lost (``lost``: the cell itself
        vanished from the transport); counted either way."""
        self.counters["cells_lost" if lost else "requeues"] += 1
        self._resubmit(cid, self.cells[cid])

    def serve_backoffs(self, now: float) -> None:
        """Resubmit every backoff cell whose delay has elapsed."""
        for cid, cell in self.unfinished():
            if cell.status == "backoff" and now >= cell.resubmit_at:
                self._resubmit(cid, cell)

    def _backoff(self, cell: LedgerCell, now: float) -> None:
        cell.status = "backoff"
        cell.resubmit_at = now + self.retry.delay_for(cell.attempt)

    def _resubmit(self, cid: str, cell: LedgerCell) -> None:
        """Bump the attempt and resubmit — or quarantine past the hard cap."""
        cell.attempt += 1
        if cell.attempt > self.hard_cap:
            self._quarantine(cid, cell, "runaway")
            return
        cell.status = "pending"
        if self._on_submit is not None:
            self._on_submit(cid, cell)

    def _quarantine(self, cid: str, cell: LedgerCell, reason: str) -> None:
        """Fail a poison cell into its outcome, with its full error history."""
        cell.status = "failed"
        location = self._on_quarantine(cid, cell, reason)
        last = cell.errors[-1] if cell.errors else {
            "type": "QueueRunawayError",
            "message": f"cell resubmitted {cell.attempt} times without a "
                       f"successful or failing execution",
            "traceback": None,
        }
        cell.outcome = {
            "kind": cell.task.get("kind"),
            "cell": cid,
            "result": None,
            "worker": last.get("worker"),
            "cache_stats": None,
            "error": {key: last.get(key) for key in ("type", "message", "traceback")},
            "error_attempts": list(cell.errors),
            "attempts": cell.attempt,
            "quarantined": location,
            "quarantine_reason": reason,
        }

    # ---------------------------------------------------------------- summary
    def summary(self, now: float) -> Dict[str, Any]:
        """The run's status: state counts, counters and — once terminal —
        its outcomes in submission order, attempts and quarantined cells;
        before that, the diagnosable state of every unfinished cell."""
        states = dict.fromkeys(STATES, 0)
        for cell in self.cells.values():
            states[cell.status] += 1
        summary: Dict[str, Any] = {
            "cells": states,
            "total": len(self.ids),
            "counters": dict(self.counters),
            "workers_seen": sorted(self.workers_seen),
            "retry_policy": self.retry.to_dict(),
        }
        if states["done"] + states["failed"] < len(self.ids):
            summary["status"] = "running"
            detail: List[Dict[str, Any]] = []
            for cid, cell in self.unfinished():
                entry: Dict[str, Any] = {"cell": cid, "attempt": cell.attempt,
                                         "state": cell.status}
                if cell.status == "backoff":
                    entry["due_in"] = round(max(0.0, cell.resubmit_at - now), 3)
                detail.append(entry)
            summary["pending_detail"] = detail
            return summary
        summary["status"] = "partial" if states["failed"] else "complete"
        summary["outcomes"] = [self.cells[cid].outcome for cid in self.ids]
        summary["cell_attempts"] = {cid: self.cells[cid].attempt for cid in self.ids}
        summary["quarantined"] = sorted(
            cid for cid in self.ids if self.cells[cid].status == "failed"
        )
        return summary
