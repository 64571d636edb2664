"""Audit (and optionally repair) the invariants of a work-queue directory.

``repro fsck <queue-dir>`` is the offline companion of the online
recovery machinery in :class:`~repro.flow.backends.QueueExecutor` and
:mod:`repro.flow.worker`: those heal a queue *while a sweep runs*; fsck
inspects the directory *at rest* — after a chaos run, a crashed
orchestrator, or a long-lived shared queue — and reports every violated
invariant as a structured issue (JSON schema ``repro.fsck/1``):

``tmp-file``
    A leftover ``*.tmp`` from an interrupted atomic write.  Repair:
    delete (the atomic-write protocol guarantees it was never the
    authoritative copy).
``corrupt-task`` / ``corrupt-claim`` / ``corrupt-result`` / ``corrupt-quarantine``
    An unparseable payload, a failed sha256 integrity check, or a payload
    missing its required fields.  Repair: delete — a live orchestrator
    resubmits the cell from memory (lost-cell scan); at rest the garbage
    only wedges future workers.
``duplicate-claim``
    A claim whose cell also has a pending task file (the orchestrator
    expired the lease and resubmitted while the claim survived).  Repair:
    drop the claim; the pending task is the authoritative copy.
``finished-claim``
    A claim whose cell already has a result file (the worker died between
    the result write and the claim unlink).  Repair: drop the claim; the
    result is authoritative.
``stale-claim``
    A claim whose heartbeat mtime is older than the lease window with no
    orchestrator left to requeue it.  Repair: atomically rename it back
    to ``tasks/`` so the next worker fleet picks the cell up.
``stale-worker``
    A worker registration whose liveness heartbeat went stale (crashed
    worker that never unregistered).  Repair: delete the registration.

A present ``stop`` sentinel and unsigned legacy payloads are reported as
*notes*, not issues — both are valid states of a healthy queue — so a
drained chaos run audits clean and CI can assert ``report.clean``.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, List, Mapping, Optional, Union

from .backends.queue import QueuePaths, queue_paths, read_json
from .ledger import verify_payload

__all__ = ["FSCK_SCHEMA", "FsckIssue", "FsckReport", "fsck_queue"]

FSCK_SCHEMA = "repro.fsck/1"

#: Required payload fields per queue area — a parseable, integrity-valid
#: file missing these is still garbage to the protocol.
_REQUIRED_FIELDS = {
    "tasks": ("cell", "task"),
    "claims": ("cell", "task"),
    "results": ("cell", "outcome"),
    "failed": ("cell", "task", "errors"),
}


@dataclass(frozen=True)
class FsckIssue:
    """One violated queue invariant."""

    kind: str
    path: str
    detail: str
    repair: Optional[str] = None

    def to_dict(self) -> Dict[str, Any]:
        return {
            "kind": self.kind,
            "path": self.path,
            "detail": self.detail,
            "repair": self.repair,
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "FsckIssue":
        return cls(
            kind=str(data["kind"]),
            path=str(data["path"]),
            detail=str(data["detail"]),
            repair=data.get("repair"),
        )


@dataclass
class FsckReport:
    """Everything one audit pass found (and, with ``--repair``, fixed)."""

    root: str
    issues: List[FsckIssue] = field(default_factory=list)
    notes: List[str] = field(default_factory=list)
    counts: Dict[str, int] = field(default_factory=dict)
    repaired: bool = False
    schema: str = FSCK_SCHEMA

    @property
    def clean(self) -> bool:
        return not self.issues

    def to_dict(self) -> Dict[str, Any]:
        return {
            "schema": self.schema,
            "root": self.root,
            "clean": self.clean,
            "repaired": self.repaired,
            "counts": dict(self.counts),
            "issues": [issue.to_dict() for issue in self.issues],
            "notes": list(self.notes),
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "FsckReport":
        return cls(
            root=str(data["root"]),
            issues=[FsckIssue.from_dict(i) for i in data.get("issues", ())],
            notes=[str(n) for n in data.get("notes", ())],
            counts={str(k): int(v) for k, v in data.get("counts", {}).items()},
            repaired=bool(data.get("repaired", False)),
            schema=str(data.get("schema", FSCK_SCHEMA)),
        )


def _payload_problem(area: str, path: Path) -> Optional[str]:
    """Why this payload file is garbage, or ``None`` when it is valid."""
    payload = read_json(path)
    if payload is None:
        return "unparseable JSON (torn or corrupted write)"
    if not verify_payload(payload):
        return "sha256 integrity check failed"
    missing = [key for key in _REQUIRED_FIELDS[area] if key not in payload]
    if missing:
        return f"missing required field(s): {', '.join(missing)}"
    return None


def _unlink_repair(path: Path, repair: bool, action: str) -> Optional[str]:
    """Apply (or describe) a delete repair; returns the repair string."""
    if not repair:
        return None
    try:
        path.unlink()
    except OSError as exc:
        return f"{action} failed: {exc}"
    return action


def fsck_queue(
    queue_dir: Union[str, Path],
    repair: bool = False,
    lease_timeout: float = 30.0,
    # Staleness compares against claim/registration mtimes stamped by
    # worker hosts — wall-clock by nature, same seam as the executor.
    clock: Callable[[], float] = time.time,  # repro: allow-determinism
) -> FsckReport:
    """Audit one queue directory; with ``repair=True`` also fix it.

    The audit is read-only by default and deterministic: files are
    visited in sorted order, so two runs over the same directory produce
    identical reports.  Repairs are conservative — every action either
    deletes a file the protocol proves non-authoritative or renames a
    stale claim back to ``tasks/`` (the same atomic rename the protocol
    itself uses).
    """
    paths: QueuePaths = queue_paths(queue_dir)
    report = FsckReport(root=str(paths.root), repaired=repair)
    if not paths.root.is_dir():
        report.issues.append(FsckIssue(
            kind="missing-root",
            path=str(paths.root),
            detail="queue directory does not exist",
        ))
        return report

    now = clock()
    unsigned = 0

    areas = {"tasks": paths.tasks, "claims": paths.claims,
             "results": paths.results, "failed": paths.failed}
    for area in sorted(areas):
        directory = areas[area]
        if not directory.is_dir():
            report.counts[area] = 0
            continue
        entries = sorted(directory.iterdir())
        payload_files = [p for p in entries if p.suffix == ".json"]
        report.counts[area] = len(payload_files)
        for entry in entries:
            if entry.suffix == ".tmp":
                report.issues.append(FsckIssue(
                    kind="tmp-file",
                    path=str(entry),
                    detail=f"interrupted atomic write in {area}/",
                    repair=_unlink_repair(entry, repair, "deleted"),
                ))
                continue
            if entry.suffix != ".json":
                continue
            problem = _payload_problem(area, entry)
            if problem is not None:
                report.issues.append(FsckIssue(
                    kind=f"corrupt-{area.rstrip('s')}" if area != "failed"
                    else "corrupt-quarantine",
                    path=str(entry),
                    detail=problem,
                    repair=_unlink_repair(entry, repair, "deleted"),
                ))
                continue
            payload = read_json(entry)
            if payload is None:
                continue
            if "sha256" not in payload:
                unsigned += 1

    # Claim cross-checks: duplicates, finished leftovers, stale leases.
    if paths.claims.is_dir():
        for claim in sorted(paths.claims.glob("*.json")):
            if _payload_problem("claims", claim) is not None:
                continue  # already reported as corrupt above
            cid = claim.stem
            if (paths.tasks / claim.name).exists():
                report.issues.append(FsckIssue(
                    kind="duplicate-claim",
                    path=str(claim),
                    detail=f"cell {cid} also has a pending task file "
                           f"(lease expired and was resubmitted)",
                    repair=_unlink_repair(claim, repair, "dropped claim"),
                ))
                continue
            if (paths.results / claim.name).exists():
                report.issues.append(FsckIssue(
                    kind="finished-claim",
                    path=str(claim),
                    detail=f"cell {cid} already has a result file "
                           f"(worker died before releasing the claim)",
                    repair=_unlink_repair(claim, repair, "dropped claim"),
                ))
                continue
            try:
                age = now - claim.stat().st_mtime
            except OSError:  # repro: allow-swallowed-exception -- claim vanished mid-audit: a live worker released it
                continue
            if age > lease_timeout:
                repair_action: Optional[str] = None
                if repair:
                    try:
                        claim.replace(paths.tasks / claim.name)
                        repair_action = "requeued to tasks/"
                    except OSError as exc:
                        repair_action = f"requeue failed: {exc}"
                report.issues.append(FsckIssue(
                    kind="stale-claim",
                    path=str(claim),
                    detail=f"lease heartbeat {age:.1f}s old "
                           f"(window {lease_timeout:.1f}s) with no result",
                    repair=repair_action,
                ))

    # Worker registrations: tmp leftovers and stale liveness heartbeats.
    if paths.workers.is_dir():
        registrations = sorted(paths.workers.iterdir())
        report.counts["workers"] = sum(1 for p in registrations if p.suffix == ".json")
        for entry in registrations:
            if entry.suffix == ".tmp":
                report.issues.append(FsckIssue(
                    kind="tmp-file",
                    path=str(entry),
                    detail="interrupted atomic write in workers/",
                    repair=_unlink_repair(entry, repair, "deleted"),
                ))
                continue
            if entry.suffix != ".json":
                continue
            try:
                age = now - entry.stat().st_mtime
            except OSError:  # repro: allow-swallowed-exception -- worker exited (and unregistered) mid-audit
                continue
            if age > lease_timeout:
                report.issues.append(FsckIssue(
                    kind="stale-worker",
                    path=str(entry),
                    detail=f"liveness heartbeat {age:.1f}s old "
                           f"(window {lease_timeout:.1f}s); worker presumed dead",
                    repair=_unlink_repair(entry, repair, "deleted"),
                ))
    else:
        report.counts["workers"] = 0

    if paths.stop.exists():
        report.notes.append(
            "stop sentinel present: workers will drain and exit "
            "(delete it to reopen the queue)"
        )
    if unsigned:
        report.notes.append(
            f"{unsigned} unsigned legacy payload(s) (no sha256 field) — "
            f"accepted for mixed-version fleets, rewritten on next submission"
        )
    if report.counts.get("failed"):
        report.notes.append(
            f"{report.counts['failed']} quarantined cell(s) under failed/ — "
            f"inspect their error history and delete to acknowledge"
        )
    return report
