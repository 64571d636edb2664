"""Tests for the failure model of the distributed backends, pinned once.

:class:`repro.flow.ledger.CellLedger` decides every cell's fate for both
transports — retry backoff, deterministic/exhausted quarantine, corrupt
results, requeues and the runaway hard cap — so its transitions are
tested here directly, without a clock, files or sockets.  A cross-
transport test then runs one fault plan through the queue and the HTTP
backends and asserts they report the same failures; an AST test keeps the
HTTP path free of the queue-only modules.
"""

from __future__ import annotations

import ast
import threading
from pathlib import Path

import pytest

import repro
from repro.flow import (
    CoordinatorHandle,
    FaultPlan,
    FaultRule,
    HttpExecutor,
    QueueExecutor,
    Sweep,
    run_http_worker,
    run_worker,
    set_active_plan,
)
from repro.flow.ledger import HARD_CAP_FACTOR, CellLedger, RetryPolicy


class Host:
    """A ledger's host: records submissions and quarantines."""

    def __init__(self, max_attempts=3, backoff_base=1.0):
        self.submitted = []
        self.quarantined = []
        self.ledger = CellLedger(
            RetryPolicy(max_attempts=max_attempts, backoff_base=backoff_base),
            on_quarantine=self.quarantine,
            on_submit=lambda cid, cell: self.submitted.append((cid, cell.attempt)),
        )

    def quarantine(self, cid, cell, reason):
        self.quarantined.append((cid, reason))
        return f"host:{cid}"


def error(message, kind="ChaosStageError"):
    return {"kind": "flow", "result": None,
            "error": {"type": kind, "message": message, "traceback": "tb"}}


def ok(value):
    return {"kind": "flow", "cell": "c", "result": {"value": value}}


@pytest.fixture(autouse=True)
def no_leaked_plan():
    yield
    set_active_plan(None)


# ------------------------------------------------------------ transitions


class TestOutcomes:
    def test_clean_outcome_finishes_the_cell(self):
        host = Host()
        host.ledger.add("c", {"kind": "flow"})
        assert host.ledger.record("c", ok(1), "w1", now=0.0) == "done"
        assert host.ledger.cells["c"].outcome == ok(1)
        assert host.ledger.workers_seen == {"w1"}
        assert host.ledger.terminal

    def test_failure_retries_after_backoff_with_the_attempt_bumped(self):
        host = Host(max_attempts=3, backoff_base=0.5)
        ledger = host.ledger
        ledger.add("c", {"kind": "flow"})
        assert ledger.record("c", error("flake 1"), "w1", now=10.0) == "backoff"
        cell = ledger.cells["c"]
        assert (cell.attempt, cell.resubmit_at) == (1, 10.5)
        assert ledger.counters["retries"] == 1
        ledger.serve_backoffs(now=10.4)
        assert cell.status == "backoff"
        ledger.serve_backoffs(now=10.5)
        assert (cell.status, cell.attempt) == ("pending", 2)
        assert host.submitted == [("c", 1), ("c", 2)]
        assert cell.errors[0]["attempt"] == 1 and cell.errors[0]["worker"] == "w1"

    def test_same_error_twice_is_deterministic(self):
        host = Host(max_attempts=5)
        ledger = host.ledger
        ledger.add("c", {"kind": "flow"})
        ledger.record("c", error("boom"), "w1", now=0.0)
        ledger.serve_backoffs(now=100.0)
        assert ledger.record("c", error("boom"), "w2", now=100.0) == "failed"
        outcome = ledger.cells["c"].outcome
        assert outcome["quarantine_reason"] == "deterministic"
        assert outcome["attempts"] == 2
        assert outcome["worker"] == "w2"
        assert host.quarantined == [("c", "deterministic")]

    def test_changing_errors_exhaust_the_budget(self):
        host = Host(max_attempts=3)
        ledger = host.ledger
        ledger.add("c", {"kind": "flow"})
        for attempt in (1, 2, 3):
            ledger.record("c", error(f"flake {attempt}"), "w1", now=100.0 * attempt)
            ledger.serve_backoffs(now=100.0 * attempt + 50.0)
        outcome = ledger.cells["c"].outcome
        assert outcome["quarantine_reason"] == "exhausted"
        assert outcome["attempts"] == 3
        assert [e["message"] for e in outcome["error_attempts"]] == [
            "flake 1", "flake 2", "flake 3"]
        assert ledger.counters["retries"] == 2

    def test_corrupt_result_backs_off_without_an_error_record(self):
        host = Host(backoff_base=0.25)
        ledger = host.ledger
        ledger.add("c", {"kind": "flow"})
        ledger.corrupt_result("c", now=4.0)
        cell = ledger.cells["c"]
        assert (cell.status, cell.resubmit_at, cell.errors) == ("backoff", 4.25, [])
        assert ledger.counters == {"requeues": 0, "retries": 0,
                                   "corrupt_results": 1, "cells_lost": 0}
        ledger.serve_backoffs(now=4.25)
        assert (cell.status, cell.attempt) == ("pending", 2)

    def test_requeues_are_counted_by_cause(self):
        host = Host()
        ledger = host.ledger
        ledger.add("c", {"kind": "flow"})
        ledger.requeue("c")
        ledger.requeue("c", lost=True)
        assert ledger.counters["requeues"] == 1 and ledger.counters["cells_lost"] == 1
        assert host.submitted == [("c", 1), ("c", 2), ("c", 3)]


class TestHardCap:
    """Every resubmission path ends in the runaway quarantine once a cell
    has been submitted ``max_attempts * HARD_CAP_FACTOR`` times."""

    PATHS = {
        "lease-requeue": lambda ledger, now: ledger.requeue("c"),
        "lost-cell": lambda ledger, now: ledger.requeue("c", lost=True),
        "corrupt-backoff": lambda ledger, now: (
            ledger.corrupt_result("c", now), ledger.serve_backoffs(now + 1.0)),
    }

    @pytest.mark.parametrize("path", sorted(PATHS))
    def test_cap_quarantines_runaway(self, path):
        host = Host(max_attempts=2, backoff_base=0.0)
        ledger = host.ledger
        ledger.add("c", {"kind": "flow"})
        cap = 2 * HARD_CAP_FACTOR
        assert ledger.hard_cap == cap
        for step in range(cap):
            assert ledger.cells["c"].status != "failed"
            self.PATHS[path](ledger, float(step))
        cell = ledger.cells["c"]
        assert cell.status == "failed" and cell.attempt == cap + 1
        assert [attempt for _, attempt in host.submitted] == list(range(1, cap + 1))
        assert host.quarantined == [("c", "runaway")]

    def test_cap_also_covers_served_retries(self):
        host = Host(max_attempts=1, backoff_base=0.0)
        ledger = host.ledger
        ledger.add("c", {"kind": "flow"})
        cell = ledger.cells["c"]
        cell.attempt = ledger.hard_cap
        cell.status = "backoff"
        ledger.serve_backoffs(now=0.0)
        assert cell.outcome["quarantine_reason"] == "runaway"

    def test_runaway_outcome_shape(self):
        host = Host(max_attempts=1)
        ledger = host.ledger
        ledger.add("c", {"kind": "baseline", "name": "m"})
        for _ in range(ledger.hard_cap):
            ledger.requeue("c")
        assert ledger.cells["c"].outcome == {
            "kind": "baseline",
            "cell": "c",
            "result": None,
            "worker": None,
            "cache_stats": None,
            "error": {
                "type": "QueueRunawayError",
                "message": "cell resubmitted 5 times without a successful or "
                           "failing execution",
                "traceback": None,
            },
            "error_attempts": [],
            "attempts": 5,
            "quarantined": "host:c",
            "quarantine_reason": "runaway",
        }

    def test_runaway_after_errors_reports_the_last_error(self):
        host = Host(max_attempts=3, backoff_base=0.0)
        ledger = host.ledger
        ledger.add("c", {"kind": "flow"})
        ledger.record("c", error("flake"), "w1", now=0.0)
        for _ in range(ledger.hard_cap):
            ledger.requeue("c")
        outcome = ledger.cells["c"].outcome
        assert outcome["quarantine_reason"] == "runaway"
        assert outcome["error"] == {"type": "ChaosStageError", "message": "flake",
                                    "traceback": "tb"}
        assert outcome["worker"] == "w1"
        assert len(outcome["error_attempts"]) == 1


class TestSummary:
    def test_claims_follow_submission_order(self):
        host = Host()
        ledger = host.ledger
        for cid in ("a", "b", "c"):
            ledger.add(cid, {"kind": "flow"})
        assert [ledger.claim("w1"), ledger.claim("w2")] == ["a", "b"]
        ledger.requeue("a")
        assert ledger.claim("w3") == "a"
        assert ledger.workers_seen == {"w1", "w2", "w3"}

    def test_running_then_terminal(self):
        host = Host(max_attempts=1, backoff_base=2.0)
        ledger = host.ledger
        for cid in ("b", "a"):
            ledger.add(cid, {"kind": "flow"})
        ledger.corrupt_result("b", now=1.0)
        running = ledger.summary(now=2.0)
        assert running["status"] == "running"
        assert running["cells"] == {"pending": 1, "claimed": 0, "backoff": 1,
                                    "done": 0, "failed": 0}
        assert running["pending_detail"] == [
            {"cell": "b", "attempt": 1, "state": "backoff", "due_in": 1.0},
            {"cell": "a", "attempt": 1, "state": "pending"},
        ]
        ledger.serve_backoffs(now=3.0)
        ledger.record("b", error("boom"), "w1", now=3.0)
        ledger.record("a", ok("a"), "w2", now=3.0)
        done = ledger.summary(now=4.0)
        assert done["status"] == "partial"
        assert [o["result"] for o in done["outcomes"]] == [None, {"value": "a"}]
        assert done["cell_attempts"] == {"b": 2, "a": 1}
        assert done["quarantined"] == ["b"]
        assert done["workers_seen"] == ["w1", "w2"]
        assert done["retry_policy"] == ledger.retry.to_dict()


# ------------------------------------------------------ both transports


def failure_report(report):
    """The failure-model view of one execution: per quarantined cell (by
    submission index) its reason, attempts, final error and error
    sequence, plus the retry counters."""
    failed = {
        index: (
            outcome["quarantine_reason"],
            outcome["attempts"],
            (outcome["error"]["type"], outcome["error"]["message"]),
            [(e["type"], e["message"]) for e in outcome["error_attempts"]],
        )
        for index, outcome in enumerate(report.outcomes) if outcome.get("error")
    }
    return failed, report.extra["retries"], report.extra["corrupt_results"]


class TestCrossTransport:
    def test_queue_and_http_report_the_same_failures(self, tmp_path):
        """One poison cell and one cell whose result is corrupted on every
        attempt quarantine identically through both transports."""
        set_active_plan(FaultPlan(seed=5, rules=(
            FaultRule(kind="stage-error", match="flow:dk512:PST:0",
                      stage="minimize", attempts=()),
            FaultRule(kind="corrupt-result", match="flow:dk512:SIG:0",
                      attempts=()),
        )))
        retry = RetryPolicy(max_attempts=2, backoff_base=0.01, backoff_max=0.02)
        tasks = Sweep(["dk512"], structures=("PST", "SIG", "DFF")).cells()

        queue_dir = tmp_path / "queue"
        worker = threading.Thread(
            target=run_worker, args=(queue_dir,),
            kwargs=dict(worker_id="q0", poll_interval=0.01, max_idle=60.0),
            daemon=True,
        )
        worker.start()
        queued = QueueExecutor(queue_dir, lease_timeout=10.0, poll_interval=0.01,
                               timeout=120, retry=retry).execute(tasks)
        (queue_dir / "stop").touch()
        worker.join(timeout=30)

        with CoordinatorHandle(lease_timeout=10.0) as handle:
            worker = threading.Thread(
                target=run_http_worker, args=(handle.url,),
                kwargs=dict(worker_id="h0", poll_interval=0.01, max_idle=60.0),
                daemon=True,
            )
            worker.start()
            served = HttpExecutor(handle.url, lease_timeout=10.0, poll_interval=0.01,
                                  timeout=120, retry=retry).execute(tasks)
            handle.coordinator._handle_stop()
            worker.join(timeout=30)

        report = failure_report(queued)
        assert report == failure_report(served)
        failed, retries, corrupt = report
        assert sorted(failed) == [0, 1]  # the DFF cell delivered
        poison, runaway = failed[0], failed[1]
        assert poison[:2] == ("deterministic", 2)
        assert [message for _, message in poison[3]] == [poison[2][1]] * 2
        hard_cap = retry.max_attempts * HARD_CAP_FACTOR
        assert runaway == (
            "runaway", hard_cap + 1,
            ("QueueRunawayError", f"cell resubmitted {hard_cap + 1} times "
             "without a successful or failing execution"),
            [],
        )
        assert (retries, corrupt) == (1, hard_cap)
        assert queued.outcomes[0]["quarantined"].endswith(".json")
        assert served.outcomes[0]["quarantined"].startswith("coordinator:")


# ---------------------------------------------------------------- layering


def test_http_path_imports_nothing_queue_only():
    """``flow/net`` must not import the queue backend or ``fsck``, so those
    can be deleted without touching the HTTP path."""
    net = Path(repro.__file__).parent / "flow" / "net"
    forbidden = {"repro.flow.backends.queue", "repro.flow.fsck"}
    for path in sorted(net.glob("*.py")):
        package = "repro.flow.net"
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom):
                base = package.split(".")
                if node.level:
                    base = base[:len(base) - node.level + 1]
                    module = ".".join(base + ([node.module] if node.module else []))
                else:
                    module = node.module or ""
                names = [f"{module}.{alias.name}" for alias in node.names]
                targets = [module, *names]
            elif isinstance(node, ast.Import):
                targets = [alias.name for alias in node.names]
            else:
                continue
            for target in targets:
                assert not any(target == bad or target.startswith(bad + ".")
                               for bad in forbidden), f"{path.name} imports {target}"
