#!/usr/bin/env python3
"""CI service gate: the HTTP coordinator path must stay bit-identical.

This script is the blocking ``service`` CI job: a self-contained exercise
of the synthesis-as-a-service layer with *real* subprocesses — one
``repro serve`` coordinator and ``repro worker --url`` fleet members —
rather than in-process threads.  It runs three checks:

1. **Chaos parity** — a sweep through ``backend="http"`` against two
   workers, with a seeded :class:`repro.flow.FaultPlan` crashing one
   worker mid-cell (``os._exit``), corrupting one result upload, and
   injecting network faults on both sides of the wire (client
   ``net-drop``/``net-corrupt``, coordinator ``net-5xx`` on result
   uploads and on the first try of every batched cache exchange); the
   merged sweep must be *bit-identical* to the serial baseline.
2. **Remote cache tier** — a second client run, against a fresh worker
   with an empty local cache, must serve every stage from the
   coordinator's content-addressed cache: zero stage recomputation,
   verified from the result's aggregated cache counters and the
   coordinator's ``/api/v1/stats`` document, whose request and
   connection totals must also show that the fleet reuses its
   connections.  The fresh worker computed nothing, so its
   ``--cache-dir`` must still be empty.
3. **Poison degradation** — a deterministic stage error on one cell
   must quarantine it coordinator-side and degrade the sweep to a
   structured ``status: "partial"`` result with every healthy cell
   delivered.

Usage::

    python benchmarks/service_parity_check.py --out service_report.json

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
    ArtifactCache,
    FaultPlan,
    FaultRule,
    Sweep,
    set_active_plan,
)
from repro.flow.net.protocol import request_with_retry  # noqa: E402

NAMES = ["dk512", "ex4"]
TRIALS = 2
READY_PREFIX = "repro serve ready "


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


def base_env(plan_path: Optional[Path]) -> Dict[str, str]:
    env = dict(os.environ, PYTHONPATH=str(REPO / "src"))
    env.pop("REPRO_CHAOS", None)
    if plan_path is not None:
        env["REPRO_CHAOS"] = str(plan_path)
    return env


def spawn_serve(work: Path, tag: str, cache_dir: Optional[Path],
                plan_path: Optional[Path]) -> "tuple[subprocess.Popen, str]":
    """Start a ``repro serve`` subprocess; returns (process, bound URL)."""
    cmd = [sys.executable, "-m", "repro", "serve", "--host", "127.0.0.1",
           "--port", "0", "--lease-timeout", "3.0", "--quiet"]
    if cache_dir is not None:
        cmd += ["--cache-dir", str(cache_dir)]
    log_path = work / f"serve-{tag}.log"
    proc = subprocess.Popen(
        cmd, env=base_env(plan_path), stdout=subprocess.PIPE,
        stderr=open(log_path, "w"), text=True,
    )
    assert proc.stdout is not None
    deadline = time.monotonic() + 30.0
    url = None
    while time.monotonic() < deadline:
        line = proc.stdout.readline()
        if not line:
            break
        (work / f"serve-{tag}.stdout.log").open("a").write(line)
        if line.startswith(READY_PREFIX):
            url = line[len(READY_PREFIX):].strip()
            break
    if url is None:
        proc.terminate()
        raise RuntimeError(f"repro serve ({tag}) never reported ready; "
                           f"see {log_path}")
    return proc, url


def spawn_worker(work: Path, url: str, worker_id: str,
                 cache_dir: Optional[Path],
                 plan_path: Optional[Path]) -> subprocess.Popen:
    cmd = [sys.executable, "-m", "repro", "worker", "--url", url,
           "--worker-id", worker_id, "--poll-interval", "0.05",
           "--max-idle", "300"]
    if cache_dir is not None:
        cmd += ["--cache-dir", str(cache_dir)]
    log = open(work / f"{worker_id}.log", "w")
    return subprocess.Popen(cmd, env=base_env(plan_path), stdout=log,
                            stderr=subprocess.STDOUT)


def check(report: Dict[str, Any], name: str, ok: bool, detail: str) -> bool:
    report["checks"].append({"name": name, "ok": bool(ok), "detail": detail})
    print(f"{'PASS' if ok else 'FAIL'}: {name} — {detail}")
    return bool(ok)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default="service_report.json",
                        help="JSON report path (CI artifact)")
    parser.add_argument("--workdir", default=None,
                        help="scratch directory (default: a fresh tempdir)")
    args = parser.parse_args()

    work = Path(args.workdir) if args.workdir else Path(tempfile.mkdtemp(
        prefix="repro-service-"))
    work.mkdir(parents=True, exist_ok=True)
    report: Dict[str, Any] = {"schema": "repro.service-report/1", "checks": []}
    ok = True

    print(f"service scratch directory: {work}")
    serial = Sweep(NAMES, structures=("PST",), random_trials=TRIALS).run()
    serial_norm = normalized(serial.to_dict())

    # ---- 1. chaos parity: crash + corrupt upload + network faults ------
    # One plan, shared by every process: the crash and the corrupt upload
    # fire in whichever worker claims the matched cell on attempt 1, the
    # net-5xx fires coordinator-side on every first upload try, and the
    # client-side net faults hit the submitting process (activated below
    # via set_active_plan, not the environment).
    chaos_plan = FaultPlan(seed=1991, rules=(
        FaultRule(kind="worker-crash", match="flow:dk512:PST:0",
                  attempts=(1,)),
        FaultRule(kind="corrupt-result", match="flow:ex4:PST:0",
                  attempts=(1,)),
        FaultRule(kind="net-5xx", match="POST /api/v1/results",
                  attempts=(1,)),
        FaultRule(kind="net-5xx", match="POST /api/v1/cache",
                  attempts=(1,)),
        FaultRule(kind="net-drop", match="POST /api/v1/runs", attempts=(1,)),
        FaultRule(kind="net-corrupt", match="GET /api/v1/runs/*",
                  attempts=(1,)),
    ))
    plan_path = work / "chaos_plan.json"
    chaos_plan.save(plan_path)
    report["chaos_plan"] = chaos_plan.to_dict()

    serve_proc, url = spawn_serve(work, "chaos", work / "coord-cache",
                                  plan_path)
    report["coordinator_url"] = url
    workers = [
        spawn_worker(work, url, f"svc{i}", work / f"svc{i}-cache", plan_path)
        for i in range(2)
    ]
    try:
        set_active_plan(chaos_plan)
        chaotic = Sweep(
            NAMES, structures=("PST",), random_trials=TRIALS,
            backend="http", coordinator_url=url, queue_timeout=300,
            cache=ArtifactCache(work / "client-cache-1"),
            retry_backoff=0.05,
        ).run()
    finally:
        set_active_plan(None)
    executor = chaotic.to_dict()["executor"]
    report["chaos"] = {
        "status": chaotic.status,
        "workers_seen": executor.get("workers_seen"),
        "cells_requeued": executor.get("cells_requeued"),
        "retries": executor.get("retries"),
        "corrupt_results": executor.get("corrupt_results"),
        "cell_attempts": executor.get("cell_attempts"),
    }
    # The crashed worker exited 17 mid-run; terminate the survivor too so
    # the second client run below cannot be served from its warm local
    # cache (the point of that check is the coordinator's remote tier).
    deadline = time.monotonic() + 60.0
    while (time.monotonic() < deadline
           and not any(p.poll() is not None for p in workers)):
        time.sleep(0.2)
    for proc in workers:
        if proc.poll() is None:
            proc.terminate()
    chaos_codes = [p.wait(timeout=60) for p in workers]
    report["chaos"]["worker_exit_codes"] = chaos_codes
    ok &= check(report, "worker-crash-injected", 17 in chaos_codes,
                f"chaos worker exit codes {chaos_codes} (17 = injected)")
    ok &= check(report, "chaos-complete", chaotic.status == "complete",
                f"status {chaotic.status!r}")
    ok &= check(report, "chaos-parity",
                normalized(chaotic.to_dict()) == serial_norm,
                "faulted HTTP sweep bit-identical to serial baseline")
    ok &= check(report, "faults-actually-fired",
                executor.get("cells_requeued", 0) >= 1
                and executor.get("corrupt_results", 0) >= 1,
                f"requeued={executor.get('cells_requeued')} "
                f"corrupt_results={executor.get('corrupt_results')}")
    ok &= check(report, "two-workers-served",
                len(executor.get("workers_seen", [])) >= 2,
                f"workers_seen={executor.get('workers_seen')}")

    # ---- 2. remote cache tier: second client recomputes nothing --------
    # A fresh worker with an empty local cache and a fresh client cache:
    # every artifact must come from the coordinator's shared tier.
    fresh = spawn_worker(work, url, "svc-fresh", work / "fresh-cache", None)
    warm = Sweep(
        NAMES, structures=("PST",), random_trials=TRIALS,
        backend="http", coordinator_url=url, queue_timeout=300,
        cache=ArtifactCache(work / "client-cache-2"),
    ).run()
    stats = request_with_retry(f"{url}/api/v1/stats", "GET", tries=5)
    report["warm"] = {
        "status": warm.status,
        "all_cached": warm.all_cached,
        "uncached_seconds": warm.uncached_seconds,
        "cache_stats": dict(warm.cache_stats),
    }
    report["coordinator_stats"] = stats
    ok &= check(report, "warm-parity",
                normalized(warm.to_dict()) == serial_norm,
                "cache-served HTTP sweep bit-identical to serial baseline")
    ok &= check(report, "zero-stage-recomputation",
                warm.all_cached and warm.uncached_seconds == 0.0
                and warm.cache_stats.get("misses", 0) == 0,
                f"all_cached={warm.all_cached} "
                f"uncached_seconds={warm.uncached_seconds} "
                f"misses={warm.cache_stats.get('misses')}")
    ok &= check(report, "remote-tier-served",
                warm.cache_stats.get("remote_hits", 0) > 0,
                f"remote_hits={warm.cache_stats.get('remote_hits')}")
    # What a worker reads through the coordinator is held in memory; its
    # --cache-dir receives only what it computes, and this one computed nothing.
    kept = len(ArtifactCache(work / "fresh-cache"))
    ok &= check(report, "fresh-worker-kept-no-copies", kept == 0,
                f"{kept} artifact(s) in the fresh worker's --cache-dir")
    ok &= check(report, "stats-document",
                stats.get("schema") == "repro.net/1"
                and isinstance(stats.get("cache"), dict)
                and stats["cache"].get("hits", 0) > 0,
                f"schema={stats.get('schema')} "
                f"cache_hits={stats.get('cache', {}).get('hits')}")
    counters = stats.get("counters", {})
    requests, connections = counters.get("requests", 0), counters.get("connections", 0)
    ok &= check(report, "connections-reused",
                requests > 0 and 0 < connections * 4 <= requests,
                f"{requests} request(s) over {connections} connection(s)")

    # Graceful shutdown: the stop signal drains the connected worker.
    request_with_retry(f"{url}/api/v1/stop", "POST", tries=5)
    fresh_code = fresh.wait(timeout=60)
    serve_proc.terminate()
    serve_proc.wait(timeout=30)
    report["fresh_worker_exit_code"] = fresh_code
    ok &= check(report, "graceful-worker-stop", fresh_code == 0,
                f"fresh worker exit code {fresh_code} (0 = graceful stop)")

    # ---- 3. poison cell -> coordinator quarantine + partial result -----
    poison_plan = FaultPlan(seed=7, rules=(
        FaultRule(kind="stage-error", match="flow:dk512:PST:0",
                  stage="minimize", attempts=()),
    ))
    poison_path = work / "poison_plan.json"
    poison_plan.save(poison_path)
    report["poison_plan"] = poison_plan.to_dict()
    serve2, url2 = spawn_serve(work, "poison", None, None)
    poison_worker = spawn_worker(work, url2, "svc-poison", None, poison_path)
    try:
        partial = Sweep(
            NAMES, structures=("PST",), random_trials=TRIALS, strict=False,
            backend="http", coordinator_url=url2, queue_timeout=300,
            max_attempts=3, retry_backoff=0.05,
        ).run()
    finally:
        request_with_retry(f"{url2}/api/v1/stop", "POST", tries=5)
        poison_worker.wait(timeout=60)
        serve2.terminate()
        serve2.wait(timeout=30)
    report["poison"] = {
        "status": partial.status,
        "failed_cells": [dict(cell) for cell in partial.failed_cells],
        "delivered": len(partial.results),
    }
    ok &= check(report, "poison-partial", partial.status == "partial",
                f"status {partial.status!r}")
    ok &= check(report, "poison-quarantined",
                len(partial.failed_cells) == 1
                and str(partial.failed_cells[0].get("quarantined", ""))
                .startswith("coordinator:"),
                f"{len(partial.failed_cells)} failed cell(s): "
                f"{[c.get('quarantined') for c in partial.failed_cells]}")
    ok &= check(report, "poison-healthy-cells-delivered",
                {r.fsm for r in partial.results} == {"ex4"},
                f"{len(partial.results)} healthy flow cell(s) delivered")

    report["ok"] = bool(ok)
    Path(args.out).write_text(json.dumps(report, indent=2))
    print(f"report written to {args.out}")
    if not ok:
        print("SERVICE CHECK FAILED", file=sys.stderr)
        return 1
    print("service check passed: HTTP coordinator sweep is bit-identical "
          "under chaos, the remote cache tier recomputes nothing, poison "
          "cells quarantine coordinator-side")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
