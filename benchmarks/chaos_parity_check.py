#!/usr/bin/env python3
"""CI chaos gate: a faulted distributed sweep must stay bit-identical.

This script is a self-contained chaos exercise of the distributed sweep
layer (the blocking ``chaos`` CI job).  It runs three checks against real
``repro worker`` subprocesses sharing a filesystem queue:

1. **Recovery parity** — a seeded :class:`repro.flow.FaultPlan` injecting
   a worker crash (``os._exit`` mid-cell), a stalled heartbeat, a
   corrupted result payload and a transient stage exception; the merged
   sweep must be *bit-identical* to the serial baseline (modulo timing
   and worker metadata) and report ``status: "complete"``.
2. **Poison degradation** — a deterministic stage error on every attempt
   of one cell; the non-strict sweep must quarantine it under
   ``failed/`` and return a structured ``status: "partial"`` result with
   every healthy cell delivered.
3. **Queue hygiene** — after both runs, ``repro fsck`` (with ``--repair``
   for the poison queue's quarantine acknowledgement) must audit clean.

Usage::

    python benchmarks/chaos_parity_check.py --out chaos_report.json

Exit code 0 when every check passes; 1 with a diagnostic otherwise.  The
JSON report (written even on failure) is uploaded as a CI artifact.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Any, Dict, List, Optional

REPO = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(REPO / "src"))

from repro.flow import (  # noqa: E402  (path bootstrap above)
    FaultPlan,
    FaultRule,
    QueueExecutor,
    Sweep,
    fsck_queue,
    set_active_plan,
)

NAMES = ["dk512", "ex4"]
TRIALS = 2


def normalized(sweep: Dict[str, Any]) -> Dict[str, Any]:
    """Strip the fields allowed to differ between executor backends."""
    data = json.loads(json.dumps(sweep))
    for key in ("total_seconds", "executor", "cache_stats"):
        data.pop(key, None)
    for result in data["results"]:
        result.pop("total_seconds", None)
        for stage in result["stages"]:
            stage.pop("seconds", None)
            stage.pop("cached", None)
    for baseline in data.get("baselines", {}).values():
        for key in ("seconds", "lookup_seconds", "cached"):
            baseline.pop(key, None)
    return data


def spawn_workers(
    queue_dir: Path, count: int, plan_path: Optional[Path], logs: Path
) -> List[subprocess.Popen]:
    env = dict(os.environ, PYTHONPATH=str(REPO / "src"))
    if plan_path is not None:
        env["REPRO_CHAOS"] = str(plan_path)
    procs = []
    for index in range(count):
        log = open(logs / f"{queue_dir.name}-worker{index}.log", "w")
        procs.append(subprocess.Popen(
            [sys.executable, "-m", "repro", "worker", str(queue_dir),
             "--worker-id", f"chaos{index}", "--poll-interval", "0.02",
             "--max-idle", "300"],
            env=env, stdout=log, stderr=subprocess.STDOUT,
        ))
    return procs


def stop_workers(queue_dir: Path, procs: List[subprocess.Popen]) -> List[int]:
    queue_dir.mkdir(parents=True, exist_ok=True)
    (queue_dir / "stop").touch()
    return [proc.wait(timeout=60) for proc in procs]


def check(report: Dict[str, Any], name: str, ok: bool, detail: str) -> bool:
    report["checks"].append({"name": name, "ok": bool(ok), "detail": detail})
    print(f"{'PASS' if ok else 'FAIL'}: {name} — {detail}")
    return bool(ok)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default="chaos_report.json",
                        help="JSON report path (CI artifact)")
    parser.add_argument("--workdir", default=None,
                        help="scratch directory (default: a fresh tempdir)")
    args = parser.parse_args()

    work = Path(args.workdir) if args.workdir else Path(tempfile.mkdtemp(
        prefix="repro-chaos-"))
    work.mkdir(parents=True, exist_ok=True)
    report: Dict[str, Any] = {"schema": "repro.chaos-report/1", "checks": []}
    ok = True

    print(f"chaos scratch directory: {work}")
    serial = Sweep(NAMES, structures=("PST",), random_trials=TRIALS).run()
    serial_norm = normalized(serial.to_dict())

    # ---- 1. recovery parity under a multi-fault plan -------------------
    recovery_plan = FaultPlan(seed=1991, rules=(
        FaultRule(kind="worker-crash", match="flow:dk512:PST:0",
                  attempts=(1,)),
        FaultRule(kind="heartbeat-stall", match="baseline:ex4:PST:0",
                  attempts=(1,), seconds=5.0),
        FaultRule(kind="corrupt-result", match="flow:ex4:PST:0",
                  attempts=(1,)),
        FaultRule(kind="stage-error", match="baseline:dk512:PST:0",
                  attempts=(1,)),
    ))
    plan_path = work / "recovery_plan.json"
    recovery_plan.save(plan_path)
    report["recovery_plan"] = recovery_plan.to_dict()

    queue_dir = work / "queue_recovery"
    procs = spawn_workers(queue_dir, 3, plan_path, work)
    try:
        # The orchestrator shares the plan so submission-side faults
        # (none here) and the executor's chaos bookkeeping stay seeded.
        set_active_plan(recovery_plan)
        chaotic = Sweep(
            NAMES, structures=("PST",), random_trials=TRIALS,
            backend=QueueExecutor(queue_dir, lease_timeout=2.0,
                                  poll_interval=0.02, timeout=300),
            retry_backoff=0.05,
        ).run()
    finally:
        set_active_plan(None)
        codes = stop_workers(queue_dir, procs)
    executor = chaotic.to_dict()["executor"]
    report["recovery"] = {
        "status": chaotic.status,
        "worker_exit_codes": codes,
        "cells_requeued": executor.get("cells_requeued"),
        "retries": executor.get("retries"),
        "corrupt_results": executor.get("corrupt_results"),
        "cells_lost": executor.get("cells_lost"),
        "cell_attempts": executor.get("cell_attempts"),
    }
    ok &= check(report, "worker-crash-injected", 17 in codes,
                f"worker exit codes {codes} (17 = injected crash)")
    ok &= check(report, "recovery-complete", chaotic.status == "complete",
                f"status {chaotic.status!r}")
    ok &= check(report, "recovery-parity",
                normalized(chaotic.to_dict()) == serial_norm,
                "faulted queue sweep bit-identical to serial baseline")
    ok &= check(report, "faults-actually-fired",
                executor.get("cells_requeued", 0) >= 1
                and executor.get("retries", 0) >= 1
                and executor.get("corrupt_results", 0) >= 1,
                f"requeued={executor.get('cells_requeued')} "
                f"retries={executor.get('retries')} "
                f"corrupt_results={executor.get('corrupt_results')}")
    fsck_recovery = fsck_queue(queue_dir, lease_timeout=600.0)
    report["recovery"]["fsck"] = fsck_recovery.to_dict()
    ok &= check(report, "recovery-fsck-clean", fsck_recovery.clean,
                f"{len(fsck_recovery.issues)} issue(s)")

    # ---- 2. poison cell -> quarantine + partial result -----------------
    poison_plan = FaultPlan(seed=7, rules=(
        FaultRule(kind="stage-error", match="flow:dk512:PST:0",
                  stage="minimize", attempts=()),
    ))
    report["poison_plan"] = poison_plan.to_dict()
    queue_dir2 = work / "queue_poison"
    poison_path = work / "poison_plan.json"
    poison_plan.save(poison_path)
    procs = spawn_workers(queue_dir2, 2, poison_path, work)
    try:
        partial = Sweep(
            NAMES, structures=("PST",), random_trials=TRIALS, strict=False,
            backend=QueueExecutor(queue_dir2, lease_timeout=10.0,
                                  poll_interval=0.02, timeout=300),
            max_attempts=3, retry_backoff=0.05,
        ).run()
    finally:
        codes = stop_workers(queue_dir2, procs)
    report["poison"] = {
        "status": partial.status,
        "failed_cells": [dict(cell) for cell in partial.failed_cells],
        "delivered": len(partial.results),
    }
    ok &= check(report, "poison-partial", partial.status == "partial",
                f"status {partial.status!r}")
    ok &= check(report, "poison-quarantined",
                len(partial.failed_cells) == 1
                and bool(partial.failed_cells[0].get("quarantined"))
                and Path(partial.failed_cells[0]["quarantined"]).exists(),
                f"{len(partial.failed_cells)} failed cell(s)")
    ok &= check(report, "poison-healthy-cells-delivered",
                {r.fsm for r in partial.results} == {"ex4"},
                f"{len(partial.results)} healthy flow cell(s) delivered")

    # The quarantine file is an acknowledged state: fsck reports it as a
    # note, so the poison queue audits clean too.
    fsck_poison = fsck_queue(queue_dir2, lease_timeout=600.0)
    report["poison"]["fsck"] = fsck_poison.to_dict()
    ok &= check(report, "poison-fsck-clean", fsck_poison.clean,
                f"{len(fsck_poison.issues)} issue(s), "
                f"notes: {fsck_poison.notes}")

    # ---- 3. fsck repairs a deliberately mangled queue ------------------
    mangled = work / "queue_mangled"
    (mangled / "tasks").mkdir(parents=True)
    (mangled / "claims").mkdir()
    (mangled / "tasks" / "torn.json").write_text('{"cell": "torn"')
    (mangled / "claims" / "leftover.tmp").write_text("{")
    dirty = fsck_queue(mangled, repair=True, lease_timeout=600.0)
    healed = fsck_queue(mangled, lease_timeout=600.0)
    report["repair"] = {"found": dirty.to_dict(), "after": healed.to_dict()}
    ok &= check(report, "fsck-repairs", len(dirty.issues) == 2 and healed.clean,
                f"{len(dirty.issues)} issue(s) repaired, "
                f"clean after: {healed.clean}")

    report["ok"] = bool(ok)
    Path(args.out).write_text(json.dumps(report, indent=2))
    print(f"report written to {args.out}")
    if not ok:
        print("CHAOS CHECK FAILED", file=sys.stderr)
        return 1
    print("chaos check passed: faulted distributed sweep is bit-identical, "
          "poison cells degrade to structured partial results")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
