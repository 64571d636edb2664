"""Tests for the deterministic chaos harness and the failure semantics it
exercises: seeded fault plans, retry/backoff + quarantine in the queue
backend, partial-result degradation, worker lease-loss abandonment, the
cell deadline guard and ``repro fsck``.

The recovery-matrix tests follow one pattern: run a sweep under an
injected fault plan and assert the merged result is *bit-identical* to
the serial baseline (recoverable faults) or degrades to a structured
partial result (poison cells) — never a hang, never a corrupted merge.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

from repro.cli import main
from repro.flow import (
    ChaosStageError,
    FaultPlan,
    FaultRule,
    QueueExecutor,
    Sweep,
    SweepResult,
    fsck_queue,
    run_cell_safe,
    run_worker,
    set_active_plan,
)
from repro.flow.backends.queue import ensure_queue_dirs, write_json_atomic
from repro.flow.ledger import (
    HARD_CAP_FACTOR,
    RetryPolicy,
    payload_digest,
    sign_payload,
    verify_payload,
)
from repro.flow.chaos import CHAOS_SCHEMA, cell_label

NAMES = ["dk512", "ex4"]


def normalized(sweep_dict: dict) -> dict:
    """Strip timing/worker metadata; the rest must be bit-identical."""
    data = json.loads(json.dumps(sweep_dict))
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


def start_worker_thread(queue_dir: Path, worker_id: str, box: dict = None,
                        **kwargs) -> threading.Thread:
    kwargs.setdefault("poll_interval", 0.02)
    kwargs.setdefault("max_idle", 60.0)

    def run():
        stats = run_worker(queue_dir=queue_dir, worker_id=worker_id, **kwargs)
        if box is not None:
            box[worker_id] = stats

    thread = threading.Thread(target=run, daemon=True)
    thread.start()
    return thread


@pytest.fixture(scope="module")
def serial_sweep() -> SweepResult:
    return Sweep(NAMES, structures=("PST",), random_trials=2).run()


@pytest.fixture(autouse=True)
def no_leaked_plan():
    yield
    set_active_plan(None)


# ------------------------------------------------------------------ FaultPlan


class TestFaultPlan:
    def test_roundtrip_and_schema(self, tmp_path):
        plan = FaultPlan(seed=42, rules=(
            FaultRule(kind="worker-crash", match="flow:dk512:*", attempts=(1,)),
            FaultRule(kind="stage-delay", stage="excite", seconds=0.5,
                      probability=0.25),
        ))
        data = plan.to_dict()
        assert data["schema"] == CHAOS_SCHEMA
        assert FaultPlan.from_dict(data) == plan
        path = tmp_path / "plan.json"
        plan.save(path)
        assert FaultPlan.load(path) == plan

    def test_decide_is_deterministic(self):
        plan = FaultPlan(seed=3, rules=(
            FaultRule(kind="stage-error", match="flow:*", probability=0.5),
        ))
        draws = [plan.decide("stage-error", f"flow:m:PST:{i}") is not None
                 for i in range(64)]
        again = [plan.decide("stage-error", f"flow:m:PST:{i}") is not None
                 for i in range(64)]
        assert draws == again
        assert any(draws) and not all(draws)  # p=0.5 actually splits

    def test_seed_changes_draws(self):
        rule = FaultRule(kind="stage-error", probability=0.5)
        a = FaultPlan(seed=1, rules=(rule,))
        b = FaultPlan(seed=2, rules=(rule,))
        labels = [f"flow:m:PST:{i}" for i in range(64)]
        assert ([a.decide("stage-error", lbl) is not None for lbl in labels]
                != [b.decide("stage-error", lbl) is not None for lbl in labels])

    def test_match_stage_and_attempt_filters(self):
        plan = FaultPlan(seed=0, rules=(
            FaultRule(kind="stage-error", match="flow:dk512:*",
                      stage="excite", attempts=(2,)),
        ))
        hit = ("stage-error", "flow:dk512:PST:0")
        assert plan.decide(*hit, attempt=2, stage="excite") is not None
        assert plan.decide(*hit, attempt=1, stage="excite") is None
        assert plan.decide(*hit, attempt=2, stage="assign") is None
        assert plan.decide(*hit, attempt=2) is None  # stage rule, no stage
        assert plan.decide("stage-error", "flow:ex4:PST:0",
                           attempt=2, stage="excite") is None

    def test_empty_attempts_means_every_attempt(self):
        plan = FaultPlan(seed=0, rules=(
            FaultRule(kind="stage-error", attempts=()),
        ))
        assert all(plan.decide("stage-error", "flow:m:PST:0", attempt=n)
                   for n in (1, 2, 5, 99))

    def test_validation(self):
        with pytest.raises(ValueError, match="kind"):
            FaultRule(kind="eat-the-disk")
        with pytest.raises(ValueError, match="probability"):
            FaultRule(kind="stage-error", probability=1.5)
        with pytest.raises(ValueError, match="seconds"):
            FaultRule(kind="stage-delay", seconds=-1.0)
        with pytest.raises(ValueError, match="schema"):
            FaultPlan.from_dict({"schema": "repro.chaos/999", "seed": 0,
                                 "rules": []})

    def test_env_activation(self, tmp_path, monkeypatch):
        path = tmp_path / "plan.json"
        FaultPlan(seed=9, rules=(FaultRule(kind="worker-crash"),)).save(path)
        from repro.flow import chaos
        monkeypatch.setenv(chaos.CHAOS_ENV_VAR, str(path))
        active = chaos.active_plan()
        assert active is not None and active.seed == 9
        override = FaultPlan(seed=11)
        set_active_plan(override)
        assert chaos.active_plan() is override
        set_active_plan(None)
        monkeypatch.delenv(chaos.CHAOS_ENV_VAR)
        assert chaos.active_plan() is None


# ------------------------------------------------------ retry + integrity


class TestRetryPolicy:
    def test_exponential_backoff_with_cap(self):
        policy = RetryPolicy(max_attempts=5, backoff_base=0.25,
                             backoff_factor=2.0, backoff_max=1.0)
        assert [policy.delay_for(n) for n in (1, 2, 3, 4, 5)] == [
            0.25, 0.5, 1.0, 1.0, 1.0]

    def test_roundtrip(self):
        policy = RetryPolicy(max_attempts=7, backoff_base=0.1)
        assert RetryPolicy.from_dict(policy.to_dict()) == policy


class TestPayloadIntegrity:
    def test_sign_and_verify(self):
        body = {"cell": "c1", "task": {"kind": "flow"}}
        signed = sign_payload(body)
        assert signed["sha256"] == payload_digest(body)
        assert verify_payload(signed)

    def test_tamper_detected(self):
        signed = sign_payload({"cell": "c1", "task": {"kind": "flow"}})
        signed["cell"] = "c2"
        assert not verify_payload(signed)

    def test_legacy_unsigned_payload_accepted(self):
        assert verify_payload({"cell": "c1", "task": {}})


# ------------------------------------------------------- recovery matrix


class TestChaosRecovery:
    def test_recoverable_faults_keep_bit_identical_parity(
            self, serial_sweep, tmp_path):
        """One transient stage error, one corrupted result, one corrupted
        task and one heartbeat stall — the sweep retries through all of
        them and still merges bit-identically to serial, and the queue
        directory audits clean afterwards."""
        queue_dir = tmp_path / "queue"
        set_active_plan(FaultPlan(seed=7, rules=(
            FaultRule(kind="stage-error", match="flow:dk512:PST:0",
                      stage="excite", attempts=(1,)),
            FaultRule(kind="corrupt-result", match="flow:ex4:PST:0",
                      attempts=(1,)),
            FaultRule(kind="corrupt-task", match="baseline:dk512:PST:0",
                      attempts=(1,)),
            FaultRule(kind="heartbeat-stall", match="baseline:ex4:PST:0",
                      attempts=(1,), seconds=3.0),
        )))
        threads = [start_worker_thread(queue_dir, f"w{i}")
                   for i in range(2)]
        result = Sweep(
            NAMES, structures=("PST",), random_trials=2,
            backend=QueueExecutor(queue_dir, lease_timeout=1.0,
                                  poll_interval=0.02, timeout=120),
            retry_backoff=0.01,
        ).run()
        (queue_dir / "stop").touch()
        for thread in threads:
            thread.join(timeout=30)

        assert result.status == "complete"
        assert normalized(result.to_dict()) == normalized(serial_sweep.to_dict())
        executor = result.to_dict()["executor"]
        assert executor["retries"] >= 1          # transient stage error
        assert executor["corrupt_results"] >= 1  # corrupted result dropped
        assert executor["cells_lost"] >= 1       # corrupted task recovered
        assert executor["quarantined"] == []
        assert any(n > 1 for n in executor["cell_attempts"].values())
        report = fsck_queue(queue_dir, lease_timeout=60.0)
        assert report.clean, [i.to_dict() for i in report.issues]

    def test_worker_crash_mid_cell_recovers(self, serial_sweep, tmp_path):
        """A worker killed mid-cell (``os._exit``, no unwind) loses its
        lease; the cell is requeued to a surviving worker and the merged
        result is still bit-identical to serial."""
        queue_dir = tmp_path / "queue"
        plan_path = tmp_path / "plan.json"
        FaultPlan(seed=5, rules=(
            FaultRule(kind="worker-crash", match="flow:dk512:PST:0",
                      attempts=(1,)),
        )).save(plan_path)
        env = dict(os.environ, REPRO_CHAOS=str(plan_path))
        env["PYTHONPATH"] = str(Path(__file__).resolve().parents[1] / "src")
        procs = [
            subprocess.Popen(
                [sys.executable, "-m", "repro", "worker", str(queue_dir),
                 "--worker-id", f"sub{i}", "--poll-interval", "0.02",
                 "--max-idle", "60", "--quiet"],
                env=env,
            )
            for i in range(2)
        ]
        try:
            result = Sweep(
                NAMES, structures=("PST",), random_trials=2,
                backend=QueueExecutor(queue_dir, lease_timeout=1.0,
                                      poll_interval=0.02, timeout=120),
                retry_backoff=0.01,
            ).run()
        finally:
            ensure_queue_dirs(queue_dir)
            (queue_dir / "stop").touch()
            codes = [proc.wait(timeout=30) for proc in procs]
        assert 17 in codes, f"no worker crashed (exit codes {codes})"
        assert result.status == "complete"
        assert normalized(result.to_dict()) == normalized(serial_sweep.to_dict())
        assert result.to_dict()["executor"]["cells_requeued"] >= 1

    def test_lost_lease_is_detected_and_upload_abandoned(self, tmp_path):
        """Satellite regression: a stalled heartbeat must *surface* the
        lost lease (``heartbeats_lost``) and the duplicated execution
        must abandon its upload (``abandoned``) instead of racing the
        re-execution — the pre-chaos worker swallowed the OSError."""
        queue_dir = tmp_path / "queue"
        set_active_plan(FaultPlan(seed=1, rules=(
            FaultRule(kind="heartbeat-stall", match="flow:dk512:PST:0",
                      attempts=(1,), seconds=1.0),
            FaultRule(kind="stage-delay", match="flow:dk512:PST:0",
                      stage="minimize", attempts=(1,), seconds=3.0),
        )))
        stats_box: dict = {}
        thread = start_worker_thread(queue_dir, "w0", box=stats_box)
        result = Sweep(
            ["dk512"], structures=("PST",), random_trials=2,
            backend=QueueExecutor(queue_dir, lease_timeout=0.4,
                                  poll_interval=0.02, timeout=120),
            retry_backoff=0.01,
        ).run()
        (queue_dir / "stop").touch()
        thread.join(timeout=30)

        assert result.status == "complete"
        stats = stats_box["w0"]
        assert stats.heartbeats_lost >= 1
        assert stats.abandoned >= 1
        serial = Sweep(["dk512"], structures=("PST",), random_trials=2).run()
        assert normalized(result.to_dict()) == normalized(serial.to_dict())


# ------------------------------------------------- poison cells + degradation


class TestPoisonQuarantine:
    POISON = (FaultRule(kind="stage-error", match="flow:dk512:PST:0",
                        stage="minimize", attempts=()),)

    def test_non_strict_degrades_to_partial_with_quarantine(self, tmp_path):
        queue_dir = tmp_path / "queue"
        set_active_plan(FaultPlan(seed=1, rules=self.POISON))
        thread = start_worker_thread(queue_dir, "w0")
        result = Sweep(
            NAMES, structures=("PST",), random_trials=2, strict=False,
            backend=QueueExecutor(queue_dir, lease_timeout=10.0,
                                  poll_interval=0.02, timeout=120),
            max_attempts=3, retry_backoff=0.01,
        ).run()
        (queue_dir / "stop").touch()
        thread.join(timeout=30)

        assert result.status == "partial"
        assert len(result.failed_cells) == 1
        failed = result.failed_cells[0]
        assert (failed["fsm"], failed["structure"]) == ("dk512", "PST")
        # Two identical error records classify the fault as deterministic
        # — quarantined early, before max_attempts is burned.
        assert failed["attempts"] == 2
        assert [e["type"] for e in failed["errors"]] == ["ChaosStageError"] * 2
        quarantine = Path(failed["quarantined"])
        assert quarantine.parent == queue_dir / "failed"
        payload = json.loads(quarantine.read_text())
        assert payload["reason"] == "deterministic"
        assert len(payload["errors"]) == 2
        # Every healthy cell still delivered: partial, not empty.
        assert {r.fsm for r in result.results} == {"ex4"}
        assert set(result.baselines) == {"dk512", "ex4"}
        # Round-trip keeps the degradation metadata.
        again = SweepResult.from_dict(result.to_dict())
        assert again.status == "partial"
        assert len(again.failed_cells) == 1
        report = fsck_queue(queue_dir, lease_timeout=60.0)
        assert report.clean
        assert any("quarantined" in note for note in report.notes)

    def test_strict_mode_raises_with_attempt_count(self, tmp_path):
        queue_dir = tmp_path / "queue"
        set_active_plan(FaultPlan(seed=1, rules=self.POISON))
        thread = start_worker_thread(queue_dir, "w0")
        try:
            with pytest.raises(RuntimeError, match=r"after 2 attempt\(s\)"):
                Sweep(
                    ["dk512"], structures=("PST",), random_trials=2,
                    backend=QueueExecutor(queue_dir, lease_timeout=10.0,
                                          poll_interval=0.02, timeout=120),
                    retry_backoff=0.01,
                ).run()
        finally:
            (queue_dir / "stop").touch()
            thread.join(timeout=30)

    def test_transient_error_exhausts_max_attempts_before_quarantine(
            self, tmp_path):
        """Errors that differ between attempts read as transient — the
        executor burns every configured attempt before giving up."""
        queue_dir = tmp_path / "queue"
        set_active_plan(FaultPlan(seed=1, rules=(
            FaultRule(kind="stage-error", match="flow:dk512:PST:0",
                      stage="assign", attempts=(1, 3)),
            FaultRule(kind="stage-error", match="flow:dk512:PST:0",
                      stage="excite", attempts=(2,)),
        )))
        thread = start_worker_thread(queue_dir, "w0")
        result = Sweep(
            ["dk512"], structures=("PST",), random_trials=2, strict=False,
            backend=QueueExecutor(queue_dir, lease_timeout=10.0,
                                  poll_interval=0.02, timeout=120),
            max_attempts=3, retry_backoff=0.01,
        ).run()
        (queue_dir / "stop").touch()
        thread.join(timeout=30)
        assert result.status == "partial"
        failed = result.failed_cells[0]
        assert failed["attempts"] == 3
        stages = [e["message"] for e in failed["errors"]]
        assert "assign" in stages[0] and "excite" in stages[1]

    def test_serial_backend_degrades_without_retries(self):
        """Serial/pool backends have no retry loop but share the same
        structured degradation: non-strict yields a partial result after
        a single attempt."""
        set_active_plan(FaultPlan(seed=1, rules=self.POISON))
        result = Sweep(["dk512"], structures=("PST",), random_trials=2,
                       strict=False).run()
        assert result.status == "partial"
        assert result.failed_cells[0]["attempts"] == 1
        assert result.failed_cells[0]["errors"][0]["type"] == "ChaosStageError"

    def test_cell_deadline_is_a_deterministic_error(self):
        # The deadline is checked on *entry* to each stage, so the injected
        # slowdown sits before ``excite`` and the breach is observed at the
        # next boundary (``minimize``).
        set_active_plan(FaultPlan(seed=1, rules=(
            FaultRule(kind="stage-delay", match="flow:dk512:PST:0",
                      stage="excite", attempts=(), seconds=0.3),
        )))
        task = [t for t in Sweep(["dk512"], structures=("PST",),
                                 random_trials=2,
                                 cell_deadline=0.05).cells()
                if t["kind"] == "flow"][0]
        outcome = run_cell_safe(dict(task))
        assert outcome["error"]["type"] == "CellDeadlineExceeded"
        assert "deadline" in outcome["error"]["message"]

    def test_chaos_stage_error_is_raised_in_process(self):
        set_active_plan(FaultPlan(seed=1, rules=self.POISON))
        task = [t for t in Sweep(["dk512"], structures=("PST",),
                                 random_trials=2).cells()
                if t["kind"] == "flow"][0]
        from repro.flow.cells import run_cell
        with pytest.raises(ChaosStageError, match="minimize"):
            run_cell(dict(task))


# ----------------------------------------------------------- runaway hard cap


class TestRunawayHardCap:
    """The attempt hard cap quarantines runaway cells on *every*
    resubmission path — retry backoffs, corrupt-result backoffs, stale
    leases and lost cells alike — and records a structured outcome so a
    partial result comes back instead of a crash."""

    def _ledger(self, queue_dir, fake, max_attempts=1, backoff_base=0.0):
        """An executor's ledger holding one submitted cell."""
        paths = ensure_queue_dirs(queue_dir)
        executor = QueueExecutor(
            queue_dir, lease_timeout=30.0,
            retry=RetryPolicy(max_attempts=max_attempts, backoff_base=backoff_base),
            clock=lambda: fake["now"],
        )
        ledger = executor._ledger(paths)
        cid = "run0-cell"
        ledger.add(cid, {"kind": "flow", "cell": cid})
        return executor, paths, ledger, cid

    def test_backoff_cell_past_cap_quarantines_into_outcomes(self, tmp_path):
        """Regression: the runaway quarantine must record the cell's
        outcome — a missing outcome crashed the merge with KeyError
        instead of degrading."""
        fake = {"now": 1_000_000.0}
        _, paths, ledger, cid = self._ledger(tmp_path / "queue", fake)
        cell = ledger.cells[cid]
        cell.attempt = ledger.hard_cap  # the next resubmit breaches it
        cell.status, cell.resubmit_at = "backoff", fake["now"]
        ledger.serve_backoffs(fake["now"])
        assert cell.status == "failed"
        assert cell.outcome["quarantine_reason"] == "runaway"
        assert cell.outcome["error"]["type"] == "QueueRunawayError"
        assert cell.outcome["attempts"] == ledger.hard_cap + 1
        quarantine = paths.failed / f"{cid}.json"
        assert cell.outcome["quarantined"] == str(quarantine)
        assert json.loads(quarantine.read_text())["reason"] == "runaway"
        assert not (paths.tasks / f"{cid}.json").exists()

    def test_lost_cell_requeue_respects_hard_cap(self, tmp_path):
        """Regression: infra requeues (lost cells, stale leases) never
        back off, so a cap checked only in the backoff server let a
        corrupt-every-attempt fault cycle submit→drop→resubmit forever."""
        fake = {"now": 1_000_000.0}
        executor, paths, ledger, cid = self._ledger(tmp_path / "queue", fake)
        ledger.cells[cid].attempt = ledger.hard_cap
        # No task/claim/result file: the cell is lost and would resubmit.
        (paths.tasks / f"{cid}.json").unlink()
        executor._requeue_dead_cells(paths, ledger)
        assert ledger.counters["cells_lost"] == 1
        assert ledger.cells[cid].status == "failed"
        assert ledger.cells[cid].outcome["quarantine_reason"] == "runaway"
        assert not (paths.tasks / f"{cid}.json").exists()

    def test_corrupt_result_retries_with_backoff(self, tmp_path):
        """Regression: a corrupt result used to resubmit immediately —
        persistent corruption hot-looped at the poll interval and never
        reached the hard-cap check."""
        fake = {"now": 1_000_000.0}
        executor, paths, ledger, cid = self._ledger(
            tmp_path / "queue", fake, max_attempts=3, backoff_base=0.5)
        (paths.tasks / f"{cid}.json").unlink()  # claimed, then uploaded:
        (paths.results / f"{cid}.json").write_text("{not json")
        assert executor._consume_result(paths, ledger, cid)
        assert ledger.counters["corrupt_results"] == 1
        # In backoff, not resubmitted yet; served once the delay elapses.
        cell = ledger.cells[cid]
        assert (cell.status, cell.resubmit_at) == ("backoff", fake["now"] + 0.5)
        assert not (paths.results / f"{cid}.json").exists()
        assert not (paths.tasks / f"{cid}.json").exists()
        fake["now"] += 0.5
        ledger.serve_backoffs(fake["now"])
        assert cell.attempt == 2
        assert (paths.tasks / f"{cid}.json").exists()

    def test_corrupt_every_attempt_degrades_to_partial(self, serial_sweep,
                                                       tmp_path):
        """End to end: a result corrupted on *every* attempt — the exact
        adversary the cap guards against — terminates in a runaway
        quarantine and a partial result; healthy cells still deliver."""
        queue_dir = tmp_path / "queue"
        set_active_plan(FaultPlan(seed=3, rules=(
            FaultRule(kind="corrupt-result", match="flow:dk512:PST:0",
                      attempts=()),
        )))
        executor = QueueExecutor(
            queue_dir, lease_timeout=10.0, poll_interval=0.02, timeout=120,
            retry=RetryPolicy(max_attempts=1, backoff_base=0.01),
        )
        thread = start_worker_thread(queue_dir, "w0")
        result = Sweep(
            NAMES, structures=("PST",), random_trials=2, strict=False,
            backend=executor,
        ).run()
        (queue_dir / "stop").touch()
        thread.join(timeout=30)

        assert result.status == "partial"
        assert len(result.failed_cells) == 1
        failed = result.failed_cells[0]
        assert (failed["fsm"], failed["structure"]) == ("dk512", "PST")
        assert failed["errors"][0]["type"] == "QueueRunawayError"
        hard_cap = executor.retry.max_attempts * HARD_CAP_FACTOR
        assert failed["attempts"] == hard_cap + 1
        quarantine = Path(failed["quarantined"])
        assert json.loads(quarantine.read_text())["reason"] == "runaway"
        metadata = result.to_dict()["executor"]
        assert metadata["corrupt_results"] >= hard_cap
        # Every healthy cell still merged bit-identically to serial.
        assert {r.fsm for r in result.results} == {"ex4"}
        report = fsck_queue(queue_dir, lease_timeout=60.0)
        assert report.clean, [i.to_dict() for i in report.issues]


# --------------------------------------------------------- timeout diagnostics


class TestTimeoutDiagnostics:
    def test_timeout_names_pending_cells_and_attempts(self, tmp_path):
        queue_dir = tmp_path / "queue"
        executor = QueueExecutor(queue_dir, lease_timeout=5.0,
                                 poll_interval=0.02, timeout=0.3)
        sweep = Sweep(["dk512"], structures=("PST",), random_trials=2,
                      backend=executor)
        with pytest.raises(TimeoutError) as excinfo:
            sweep.run()
        message = str(excinfo.value)
        assert "repro worker" in message
        assert "pending, unclaimed" in message
        assert "attempt 1" in message
        # Queue should be left clean: leftover tasks withdrawn on abort.
        assert not list((queue_dir / "tasks").glob("*.json"))


# ----------------------------------------------------------------------- fsck


class TestFsck:
    def _mangled_queue(self, tmp_path) -> Path:
        queue_dir = tmp_path / "queue"
        paths = ensure_queue_dirs(queue_dir)
        # tmp leftover from an interrupted atomic write
        (paths.tasks / "junk.tmp").write_text("{")
        # corrupt (torn) task payload
        (paths.tasks / "torn.json").write_text('{"cell": "torn"')
        # integrity-violating claim (signed then tampered)
        bad = sign_payload({"cell": "tampered", "task": {}})
        bad["cell"] = "evil"
        write_json_atomic(paths.claims / "tampered.json", bad)
        # duplicate claim: claim + pending task for the same cell
        write_json_atomic(paths.tasks / "dup.json",
                          sign_payload({"cell": "dup", "task": {}}))
        write_json_atomic(paths.claims / "dup.json",
                          sign_payload({"cell": "dup", "task": {}}))
        # finished claim: claim + result for the same cell
        write_json_atomic(paths.results / "done.json",
                          sign_payload({"cell": "done", "outcome": {}}))
        write_json_atomic(paths.claims / "done.json",
                          sign_payload({"cell": "done", "task": {}}))
        # stale claim: heartbeat long dead, no result
        write_json_atomic(paths.claims / "stale.json",
                          sign_payload({"cell": "stale", "task": {}}))
        past = time.time() - 3600
        os.utime(paths.claims / "stale.json", (past, past))
        # stale worker registration
        write_json_atomic(paths.workers / "dead.json", {"worker": "dead"})
        os.utime(paths.workers / "dead.json", (past, past))
        return queue_dir

    def test_audit_finds_every_violation(self, tmp_path):
        queue_dir = self._mangled_queue(tmp_path)
        report = fsck_queue(queue_dir, lease_timeout=30.0)
        kinds = sorted(issue.kind for issue in report.issues)
        assert kinds == ["corrupt-claim", "corrupt-task", "duplicate-claim",
                         "finished-claim", "stale-claim", "stale-worker",
                         "tmp-file"]
        assert not report.clean
        assert report.repaired is False
        data = report.to_dict()
        assert data["schema"] == "repro.fsck/1"
        assert data["clean"] is False

    def test_repair_then_clean(self, tmp_path):
        queue_dir = self._mangled_queue(tmp_path)
        report = fsck_queue(queue_dir, repair=True, lease_timeout=30.0)
        assert all(issue.repair for issue in report.issues)
        requeued = [i for i in report.issues if i.kind == "stale-claim"]
        assert requeued and requeued[0].repair == "requeued to tasks/"
        assert (queue_dir / "tasks" / "stale.json").exists()
        # Second pass: the only survivor is the requeued stale task, which
        # is a *pending* task now — a valid state.
        again = fsck_queue(queue_dir, repair=False, lease_timeout=30.0)
        assert again.clean, [i.to_dict() for i in again.issues]

    def test_missing_root(self, tmp_path):
        report = fsck_queue(tmp_path / "nope")
        assert [i.kind for i in report.issues] == ["missing-root"]

    def test_cli_fsck(self, tmp_path, capsys):
        queue_dir = self._mangled_queue(tmp_path)
        assert main(["fsck", str(queue_dir), "--json"]) == 1
        data = json.loads(capsys.readouterr().out)
        assert data["schema"] == "repro.fsck/1" and not data["clean"]
        assert main(["fsck", str(queue_dir), "--repair"]) == 1
        capsys.readouterr()
        assert main(["fsck", str(queue_dir)]) == 0
        assert "clean" in capsys.readouterr().out


# ----------------------------------------------------------- CLI integration


class TestChaosCli:
    def test_allow_partial_flag_prints_degradation_warning(self, capsys):
        set_active_plan(FaultPlan(seed=1, rules=(
            FaultRule(kind="stage-error", match="flow:dk512:PST:0",
                      stage="minimize", attempts=()),
        )))
        exit_code = main(["sweep", "--machines", "dk512", "--structures",
                          "PST", "--allow-partial", "--json"])
        assert exit_code == 0
        captured = capsys.readouterr()
        data = json.loads(captured.out)
        assert data["status"] == "partial"
        assert len(data["failed_cells"]) == 1
        assert "partial" in captured.err
