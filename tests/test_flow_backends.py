"""Tests for the executor backend layer, work-queue worker daemon,
cache eviction and the execution-metadata surface."""

from __future__ import annotations

import ast
import json
import os
import threading
import time
from pathlib import Path

import pytest

import repro
from repro.cli import main
from repro.flow import (
    ArtifactCache,
    FlowConfig,
    LocalPoolExecutor,
    QueueExecutor,
    SerialExecutor,
    Sweep,
    SweepResult,
    resolve_backend,
    run_cell,
    run_cell_safe,
    run_worker,
)
from repro.flow.backends.queue import (
    _CellState,
    ensure_queue_dirs,
    read_json,
    write_json_atomic,
)
from repro.flow.sweep import _render_cell_error

#: The quick machine set the CI queue-backend job also sweeps.
NAMES = ["dk512", "ex4"]


def normalized(sweep_dict: dict) -> dict:
    """A sweep dict with timing/cache/worker-metadata fields stripped —
    everything left must be bit-identical across backends and worker
    counts."""
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


def start_worker_thread(queue_dir: Path, worker_id: str, **kwargs) -> threading.Thread:
    kwargs.setdefault("poll_interval", 0.02)
    kwargs.setdefault("max_idle", 60.0)
    thread = threading.Thread(
        target=run_worker,
        kwargs=dict(queue_dir=queue_dir, worker_id=worker_id, **kwargs),
        daemon=True,
    )
    thread.start()
    return thread


# ---------------------------------------------------------------- resolution


class TestResolveBackend:
    def test_jobs_back_compat_mapping(self):
        assert isinstance(resolve_backend(None, jobs=1), SerialExecutor)
        pool = resolve_backend(None, jobs=3)
        assert isinstance(pool, LocalPoolExecutor)
        assert pool.jobs == 3

    def test_names(self, tmp_path):
        assert isinstance(resolve_backend("serial"), SerialExecutor)
        assert isinstance(resolve_backend("pool", jobs=2), LocalPoolExecutor)
        queue = resolve_backend("queue", queue_dir=tmp_path / "q", lease_timeout=5.0)
        assert isinstance(queue, QueueExecutor)
        assert queue.lease_timeout == 5.0

    def test_instance_passthrough(self):
        executor = SerialExecutor()
        assert resolve_backend(executor) is executor

    def test_queue_requires_queue_dir(self):
        with pytest.raises(ValueError, match="queue_dir"):
            resolve_backend("queue")

    def test_unknown_backend(self):
        with pytest.raises(ValueError, match="unknown sweep backend"):
            resolve_backend("carrier-pigeon")

    def test_sweep_exposes_executor(self, tmp_path):
        assert Sweep(NAMES).executor.name == "serial"
        assert Sweep(NAMES, jobs=2).executor.name == "pool"
        assert Sweep(NAMES, backend="queue", queue_dir=tmp_path / "q").executor.name == "queue"


class TestProcessStartPolicy:
    """A run is one process; only the pool backend starts worker processes."""

    SPAWNERS = ("ProcessPoolExecutor", "multiprocessing")

    def test_only_the_pool_backend_imports_process_spawners(self):
        package = Path(repro.__file__).parent
        importers = set()
        for path in sorted(package.rglob("*.py")):
            tree = ast.parse(path.read_text(encoding="utf-8"))
            for node in ast.walk(tree):
                if isinstance(node, ast.Import):
                    names = [alias.name for alias in node.names]
                elif isinstance(node, ast.ImportFrom):
                    names = [node.module or ""] + [alias.name for alias in node.names]
                else:
                    continue
                if any(name.split(".")[0] in self.SPAWNERS for name in names):
                    importers.add(path.relative_to(package).as_posix())
        assert importers == {"flow/backends/pool.py"}


# -------------------------------------------------------------------- parity


class TestCrossBackendParity:
    @pytest.fixture(scope="class")
    def serial_sweep(self):
        return Sweep(NAMES, structures=("PST", "DFF"), random_trials=2).run()

    def test_serial_metadata(self, serial_sweep):
        executor = serial_sweep.to_dict()["executor"]
        assert executor["backend"] == "serial"
        assert executor["workers"] == 1
        assert executor["cells_requeued"] == 0
        assert all(cell["worker"] == "local" for cell in executor["cells"])

    def test_pool_matches_serial(self, serial_sweep):
        pooled = Sweep(NAMES, structures=("PST", "DFF"), random_trials=2, jobs=2).run()
        assert normalized(pooled.to_dict()) == normalized(serial_sweep.to_dict())
        assert pooled.to_dict()["executor"]["backend"] == "pool"

    @pytest.mark.parametrize("workers", [1, 2])
    def test_queue_matches_serial(self, serial_sweep, tmp_path, workers):
        queue_dir = tmp_path / "queue"
        threads = [
            start_worker_thread(queue_dir, f"w{i}") for i in range(workers)
        ]
        result = Sweep(
            NAMES, structures=("PST", "DFF"), random_trials=2,
            backend=QueueExecutor(queue_dir, lease_timeout=20, timeout=120),
        ).run()
        (queue_dir / "stop").touch()
        for thread in threads:
            thread.join(timeout=30)
        assert normalized(result.to_dict()) == normalized(serial_sweep.to_dict())
        executor = result.to_dict()["executor"]
        assert executor["backend"] == "queue"
        assert set(executor["workers_seen"]) == {f"w{i}" for i in range(workers)}
        assert all(cell["worker"] in executor["workers_seen"]
                   for cell in executor["cells"])

    def test_queue_merge_is_submission_order(self, serial_sweep, tmp_path):
        queue_dir = tmp_path / "queue"
        thread = start_worker_thread(queue_dir, "w0")
        result = Sweep(
            NAMES, structures=("PST", "DFF"), random_trials=2,
            backend=QueueExecutor(queue_dir, lease_timeout=20, timeout=120),
        ).run()
        (queue_dir / "stop").touch()
        thread.join(timeout=30)
        assert [(r.fsm, r.structure) for r in result.results] == [
            (r.fsm, r.structure) for r in serial_sweep.results
        ]


# ------------------------------------------------------- lease expiry/requeue


class TestLeaseExpiry:
    def test_dead_worker_lease_is_requeued(self, tmp_path):
        """A claim whose heartbeat stops (killed worker) must expire and be
        requeued to a live worker, with the requeue counted in the
        executor metadata and no effect on the merged result."""
        queue_dir = tmp_path / "queue"
        paths = ensure_queue_dirs(queue_dir)
        sweep = Sweep(
            NAMES, structures=("PST",), random_trials=2,
            backend=QueueExecutor(queue_dir, lease_timeout=0.5,
                                  poll_interval=0.02, timeout=120),
        )

        run_box: dict = {}

        def orchestrate():
            run_box["result"] = sweep.run()

        orchestrator = threading.Thread(target=orchestrate, daemon=True)
        orchestrator.start()
        # Simulate a worker that claims a cell and dies: rename one pending
        # task into claims/ and never heartbeat or finish it.
        deadline = time.monotonic() + 30
        stolen = None
        while stolen is None and time.monotonic() < deadline:
            pending = sorted(paths.tasks.glob("*.json"))
            for task_path in pending:
                claim = paths.claims / task_path.name
                try:
                    os.replace(task_path, claim)
                except OSError:
                    continue
                stolen = claim
                break
            time.sleep(0.01)
        assert stolen is not None, "no task appeared to steal"
        # Backdate the stolen claim so the lease is already stale.
        past = time.time() - 60
        os.utime(stolen, (past, past))

        thread = start_worker_thread(queue_dir, "alive", lease_timeout=0.5)
        orchestrator.join(timeout=120)
        (queue_dir / "stop").touch()
        thread.join(timeout=30)
        assert not orchestrator.is_alive(), "queue sweep did not finish"

        result = run_box["result"]
        executor = result.to_dict()["executor"]
        assert executor["cells_requeued"] >= 1
        serial = Sweep(NAMES, structures=("PST",), random_trials=2).run()
        assert normalized(result.to_dict()) == normalized(serial.to_dict())

    def test_duplicate_lease_is_idempotent(self):
        """Two workers racing the same cell (spurious requeue) produce
        bit-identical outcomes modulo the worker tag."""
        task = Sweep(NAMES, structures=("PST",)).cells()[0]
        first = run_cell(dict(task), worker="w-a")
        second = run_cell(dict(task), worker="w-b")

        def strip(outcome):
            data = json.loads(json.dumps(outcome))
            data.pop("worker")
            data["result"].pop("total_seconds")
            for stage in data["result"]["stages"]:
                stage.pop("seconds")
            return data

        assert strip(first) == strip(second)

    def test_worker_error_outcome_propagates(self, tmp_path):
        """A cell that raises worker-side must fail the sweep loudly, not
        vanish or hang."""
        queue_dir = tmp_path / "queue"
        paths = ensure_queue_dirs(queue_dir)
        sweep = Sweep(["dk512"], structures=("PST",),
                      backend=QueueExecutor(queue_dir, lease_timeout=20,
                                            poll_interval=0.02, timeout=60))
        tasks = sweep.cells()
        tasks[0]["config"]["structure"] = "BOGUS"  # breaks FlowConfig.from_dict
        sweep.cells = lambda: tasks  # type: ignore[method-assign]
        thread = start_worker_thread(queue_dir, "w0")
        with pytest.raises(RuntimeError, match="failed on worker"):
            sweep.run()
        (queue_dir / "stop").touch()
        thread.join(timeout=30)


class TestInjectableClock:
    def test_lease_expiry_without_sleeping(self, tmp_path):
        """With the clock seam, lease expiry is testable by advancing a
        fake clock — no sleeps, no backdated mtimes on a live sweep."""
        queue_dir = tmp_path / "queue"
        paths = ensure_queue_dirs(queue_dir)
        fake = {"now": 1_000_000.0}
        executor = QueueExecutor(queue_dir, lease_timeout=30.0,
                                 clock=lambda: fake["now"])
        cid = "00000-cell"
        claim = paths.claims / f"{cid}.json"
        write_json_atomic(claim, {"cell": cid, "task": {}, "lease_timeout": 30.0})
        os.utime(claim, (fake["now"], fake["now"]))

        states = {cid: _CellState(task={"cell": cid})}
        assert executor._expire_stale_leases(paths, [cid], states, {}) == 0
        fake["now"] += 29.0  # inside the lease window
        assert executor._expire_stale_leases(paths, [cid], states, {}) == 0
        fake["now"] += 2.0  # 31 s past the claim stamp: stale
        assert executor._expire_stale_leases(paths, [cid], states, {}) == 1
        assert (paths.tasks / f"{cid}.json").exists()
        assert not claim.exists()
        assert states[cid].attempt == 2  # the requeue consumed an attempt

    def test_finished_cells_are_never_requeued(self, tmp_path):
        queue_dir = tmp_path / "queue"
        paths = ensure_queue_dirs(queue_dir)
        fake = {"now": 1_000_000.0}
        executor = QueueExecutor(queue_dir, lease_timeout=1.0,
                                 clock=lambda: fake["now"])
        cid = "00000-cell"
        claim = paths.claims / f"{cid}.json"
        write_json_atomic(claim, {"cell": cid, "task": {}, "lease_timeout": 1.0})
        os.utime(claim, (fake["now"] - 100, fake["now"] - 100))
        done = _CellState(task={"cell": cid})
        done.done = True
        assert executor._expire_stale_leases(paths, [cid], {cid: done}, {}) == 0
        assert claim.exists()

    def test_default_clock_is_wall_clock(self, tmp_path):
        executor = QueueExecutor(tmp_path / "q")
        before = time.time()
        assert before - 1.0 <= executor._clock() <= time.time() + 1.0


class TestStructuredWorkerErrors:
    def test_error_payload_carries_type_message_traceback(self, tmp_path):
        """A worker-side exception lands in the result file as a structured
        payload — type, message and full traceback — so a fleet failure is
        diagnosable from the queue directory alone."""
        queue_dir = tmp_path / "queue"
        paths = ensure_queue_dirs(queue_dir)
        task = Sweep(["dk512"], structures=("PST",)).cells()[0]
        task["config"]["structure"] = "BOGUS"  # breaks FlowConfig.from_dict
        cid = "00000-cell"
        write_json_atomic(paths.tasks / f"{cid}.json",
                          {"cell": cid, "task": task, "lease_timeout": 5.0})

        stats = run_worker(queue_dir, worker_id="w-err", once=True)
        assert stats.cells == 1
        assert stats.failures == 1

        payload = read_json(paths.results / f"{cid}.json")
        assert payload is not None
        error = payload["outcome"]["error"]
        assert error["type"] == "ValueError"
        assert "BOGUS" in error["message"]
        assert "Traceback (most recent call last)" in error["traceback"]
        assert "ValueError" in error["traceback"].rstrip().splitlines()[-1]

    def test_sweep_failure_surfaces_type_and_traceback(self, tmp_path):
        """The orchestrator's RuntimeError carries the structured parts, so
        the root cause is in the failure message, not a worker's stderr."""
        queue_dir = tmp_path / "queue"
        sweep = Sweep(["dk512"], structures=("PST",),
                      backend=QueueExecutor(queue_dir, lease_timeout=20,
                                            poll_interval=0.02, timeout=60))
        tasks = sweep.cells()
        tasks[0]["config"]["structure"] = "BOGUS"
        sweep.cells = lambda: tasks  # type: ignore[method-assign]
        thread = start_worker_thread(queue_dir, "w0")
        with pytest.raises(RuntimeError) as excinfo:
            sweep.run()
        (queue_dir / "stop").touch()
        thread.join(timeout=30)
        message = str(excinfo.value)
        assert "failed on worker" in message
        assert "ValueError" in message
        assert "Traceback" in message

    @pytest.mark.parametrize("kind", ["faultsim-shard", "flwo"])
    def test_unknown_cell_kind_is_a_structured_error(self, kind):
        """Only ``flow`` and ``baseline`` cells run.  A retired kind (left in
        an old queue directory) or a misspelled one fails as a ValueError
        naming the kind, even with baseline fields present: it never falls
        through to the random baseline."""
        task = Sweep(["dk512"], structures=("PST",)).cells()[0]
        outcome = run_cell_safe(dict(task, kind=kind, trials=2, random_seed=1))
        assert outcome["result"] is None
        assert outcome["kind"] == kind
        assert outcome["error"]["type"] == "ValueError"
        assert repr(kind) in outcome["error"]["message"]

    def test_legacy_string_error_still_renders(self):
        assert _render_cell_error("boom") == "boom"
        rendered = _render_cell_error(
            {"type": "KeyError", "message": "'x'", "traceback": "tb-lines"}
        )
        assert rendered == "KeyError: 'x'\ntb-lines"
        assert _render_cell_error({"type": "OSError", "message": "gone"}) == "OSError: gone"


class TestQueueHygiene:
    def test_timeout_cleans_up_orphaned_queue_files(self, tmp_path):
        """An aborted sweep must not leave tasks behind for long-lived
        workers to burn time on."""
        queue_dir = tmp_path / "queue"
        sweep = Sweep(["dk512"], structures=("PST",),
                      backend=QueueExecutor(queue_dir, lease_timeout=20,
                                            poll_interval=0.01, timeout=0.1))
        with pytest.raises(TimeoutError, match="repro worker"):
            sweep.run()  # no workers running
        paths = ensure_queue_dirs(queue_dir)
        assert list(paths.tasks.glob("*.json")) == []
        assert list(paths.claims.glob("*.json")) == []
        assert list(paths.results.glob("*.json")) == []

    def test_stale_registration_not_counted_as_worker(self, tmp_path):
        """A kill -9'd worker's leftover registration file (old mtime) must
        not inflate the reported worker count."""
        queue_dir = tmp_path / "queue"
        paths = ensure_queue_dirs(queue_dir)
        from repro.flow.backends.queue import write_json_atomic

        write_json_atomic(paths.workers / "ghost.json", {"worker": "ghost"})
        past = time.time() - 3600
        os.utime(paths.workers / "ghost.json", (past, past))
        thread = start_worker_thread(queue_dir, "live")
        result = Sweep(["dk512"], structures=("PST",),
                       backend=QueueExecutor(queue_dir, lease_timeout=20,
                                             timeout=120)).run()
        (queue_dir / "stop").touch()
        thread.join(timeout=30)
        executor = result.to_dict()["executor"]
        assert "ghost" not in executor["workers_seen"]
        assert executor["workers"] == 1

    def test_task_payload_carries_lease_timeout(self, tmp_path):
        """Workers derive their heartbeat from the orchestrator's lease
        window shipped with each task, not from matching CLI flags."""
        queue_dir = tmp_path / "queue"
        paths = ensure_queue_dirs(queue_dir)
        executor = QueueExecutor(queue_dir, lease_timeout=7.5, timeout=5,
                                 poll_interval=0.01)
        box: dict = {}

        def run():
            try:
                executor.execute(Sweep(["dk512"], structures=("PST",)).cells())
            except TimeoutError:
                pass

        thread = threading.Thread(target=run, daemon=True)
        thread.start()
        deadline = time.monotonic() + 5
        while "payload" not in box and time.monotonic() < deadline:
            for task_file in paths.tasks.glob("*.json"):
                payload = read_json(task_file)
                if payload is not None:
                    box["payload"] = payload
                    break
            time.sleep(0.01)
        thread.join(timeout=30)
        assert box["payload"]["lease_timeout"] == 7.5
        assert box["payload"]["task"]["kind"] == "flow"


# -------------------------------------------------------------------- worker


class TestWorkerDaemon:
    def test_once_on_empty_queue_drains_immediately(self, tmp_path):
        stats = run_worker(tmp_path / "queue", once=True, worker_id="w0")
        assert stats.cells == 0
        assert stats.stopped_by == "drained"

    def test_stop_file_halts_worker(self, tmp_path):
        queue_dir = tmp_path / "queue"
        paths = ensure_queue_dirs(queue_dir)
        paths.stop.touch()
        stats = run_worker(queue_dir, worker_id="w0")
        assert stats.stopped_by == "stop-file"

    def test_worker_registration_is_cleaned_up(self, tmp_path):
        queue_dir = tmp_path / "queue"
        paths = ensure_queue_dirs(queue_dir)
        run_worker(queue_dir, once=True, worker_id="w0")
        assert not (paths.workers / "w0.json").exists()

    def test_worker_cache_dir_override(self, tmp_path):
        """A worker-local --cache-dir wins over the cell's payload value."""
        queue_dir = tmp_path / "queue"
        paths = ensure_queue_dirs(queue_dir)
        local_cache = tmp_path / "worker-cache"
        task = Sweep(["dk512"], structures=("PST",)).cells()[0]
        from repro.flow.backends.queue import write_json_atomic

        write_json_atomic(paths.tasks / "c0.json", {"cell": "c0", "task": task})
        stats = run_worker(queue_dir, once=True, worker_id="w0",
                           cache_dir=local_cache)
        assert stats.cells == 1
        assert len(ArtifactCache(local_cache)) > 0
        outcome = read_json(paths.results / "c0.json")["outcome"]
        assert outcome["worker"] == "w0"
        assert outcome["cache_stats"]["writes"] > 0


# ----------------------------------------------------- cache stats aggregation


class TestSweepCacheStats:
    def test_serial_sweep_aggregates_shared_cache_deltas(self, tmp_path):
        cache = ArtifactCache(tmp_path / "cache")
        cold = Sweep(NAMES, structures=("PST",), random_trials=1, cache=cache).run()
        assert cold.cache_stats["writes"] == cache.writes
        assert cold.cache_stats["misses"] == cache.misses
        assert cold.cache_stats["hits"] == 0

    def test_pooled_sweep_reports_worker_side_cache_stats(self, tmp_path):
        """With jobs > 1 the hit/miss/write counts happen in worker
        processes; they used to be silently dropped."""
        cache = ArtifactCache(tmp_path / "cache")
        cold = Sweep(NAMES, structures=("PST", "DFF"), random_trials=1,
                     cache=cache, jobs=2).run()
        assert cold.cache_stats["writes"] > 0
        assert cold.cache_stats["hits"] == 0
        warm = Sweep(NAMES, structures=("PST", "DFF"), random_trials=1,
                     cache=cache, jobs=2).run()
        assert warm.all_cached
        assert warm.cache_stats["hits"] > 0
        assert warm.cache_stats["writes"] == 0

    def test_cache_stats_in_cli_json(self, tmp_path, capsys):
        exit_code = main(["benchmarks", "--names", "dk512", "--trials", "1",
                          "--jobs", "2", "--cache-dir", str(tmp_path / "cache"),
                          "--json"])
        assert exit_code == 0
        data = json.loads(capsys.readouterr().out)
        assert data["cache_stats"]["writes"] > 0
        assert data["executor"]["backend"] == "pool"
        assert data["executor"]["workers"] == 2

    def test_round_trip_preserves_executor_and_cache_stats(self, tmp_path):
        cache = ArtifactCache(tmp_path / "cache")
        sweep = Sweep(["dk512"], structures=("PST",), cache=cache).run()
        data = sweep.to_dict()
        again = SweepResult.from_dict(data)
        assert again.to_dict() == data
        assert dict(again.cache_stats) == dict(sweep.cache_stats)


# ------------------------------------------------------------ baseline timing


class TestBaselineSeconds:
    def test_cached_baseline_reports_stored_compute_time(self, tmp_path):
        cache = ArtifactCache(tmp_path / "cache")
        cold = Sweep(["dk512"], structures=("PST",), random_trials=3,
                     cache=cache).run()
        warm = Sweep(["dk512"], structures=("PST",), random_trials=3,
                     cache=cache).run()
        cold_baseline = cold.baselines["dk512"]
        warm_baseline = warm.baselines["dk512"]
        assert not cold_baseline.cached and warm_baseline.cached
        # seconds means compute time: the warm pass serves the persisted
        # wall-clock of the original computation, not its cache lookup.
        assert warm_baseline.seconds == pytest.approx(
            round(cold_baseline.seconds, 6), abs=1e-6
        )
        assert warm_baseline.lookup_seconds < cold_baseline.seconds
        assert cold_baseline.lookup_seconds == 0.0
        # The lookup is not billed as recomputed work.
        assert warm.uncached_seconds == 0.0

    def test_legacy_cache_payload_without_seconds(self, tmp_path):
        """Old cache artifacts (pre-PR) lack the stored compute time;
        they must read back as 0.0, not crash."""
        cache = ArtifactCache(tmp_path / "cache")
        Sweep(["dk512"], structures=("PST",), random_trials=2, cache=cache).run()
        for path in cache._artifact_paths():
            payload = json.loads(path.read_text())
            if "average" in payload:  # the baseline artifact
                payload.pop("seconds")
                path.write_text(json.dumps(payload))
        warm = Sweep(["dk512"], structures=("PST",), random_trials=2,
                     cache=cache).run()
        assert warm.baselines["dk512"].cached
        assert warm.baselines["dk512"].seconds == 0.0


# ----------------------------------------------------------- cache eviction


class TestCacheEviction:
    def put_sized(self, cache: ArtifactCache, key: str, size: int) -> None:
        cache.put(key, {"pad": "x" * size})

    def test_gc_evicts_oldest_first(self, tmp_path):
        cache = ArtifactCache(tmp_path / "cache")
        keys = [f"{i:02x}{'0' * 62}" for i in range(4)]
        now = time.time()
        for age, key in enumerate(keys):
            self.put_sized(cache, key, 100)
            mtime = now - (len(keys) - age) * 100  # keys[0] oldest
            os.utime(cache.path_for(key), (mtime, mtime))
        report = cache.gc(max_bytes=2 * cache.path_for(keys[0]).stat().st_size)
        assert report["removed"] == 2
        assert cache.get(keys[0]) is None and cache.get(keys[1]) is None
        assert cache.get(keys[2]) is not None and cache.get(keys[3]) is not None
        assert cache.evictions == 2

    def test_hit_touch_protects_recently_used(self, tmp_path):
        cache = ArtifactCache(tmp_path / "cache")
        old_key, new_key = "aa" + "0" * 62, "bb" + "0" * 62
        self.put_sized(cache, old_key, 100)
        self.put_sized(cache, new_key, 100)
        past = time.time() - 1000
        for key in (old_key, new_key):
            os.utime(cache.path_for(key), (past, past))
        assert cache.get(old_key) is not None  # touch: now most recent
        size = cache.path_for(new_key).stat().st_size
        cache.gc(max_bytes=size)
        assert cache.get(old_key) is not None
        assert cache.get(new_key) is None

    def test_max_bytes_bounds_every_put(self, tmp_path):
        size_probe = ArtifactCache(tmp_path / "probe")
        self.put_sized(size_probe, "cc" + "0" * 62, 100)
        artifact_size = size_probe.path_for("cc" + "0" * 62).stat().st_size
        cache = ArtifactCache(tmp_path / "cache", max_bytes=3 * artifact_size)
        for i in range(8):
            self.put_sized(cache, f"{i:02x}{'1' * 62}", 100)
            time.sleep(0.01)  # distinct mtimes on coarse filesystems
        assert cache.total_bytes() <= 3 * artifact_size
        assert cache.evictions >= 5
        assert cache.get(f"{7:02x}{'1' * 62}") is not None

    def test_gc_without_bound_only_reports(self, tmp_path):
        cache = ArtifactCache(tmp_path / "cache")
        self.put_sized(cache, "dd" + "0" * 62, 50)
        report = cache.gc()
        assert report["removed"] == 0
        assert report["total_bytes"] == cache.total_bytes()

    def test_rejects_negative_bound(self, tmp_path):
        with pytest.raises(ValueError):
            ArtifactCache(tmp_path / "cache", max_bytes=-1)


# ---------------------------------------------------------------- cache CLI


class TestCacheCli:
    def warm(self, cache_dir: Path) -> None:
        assert main(["benchmarks", "--names", "dk512", "--trials", "1",
                     "--cache-dir", str(cache_dir), "--json"]) == 0

    def test_stats_clear_gc(self, tmp_path, capsys):
        cache_dir = tmp_path / "cache"
        self.warm(cache_dir)
        capsys.readouterr()

        assert main(["cache", "stats", "--cache-dir", str(cache_dir), "--json"]) == 0
        stats = json.loads(capsys.readouterr().out)
        assert stats["artifacts"] > 0 and stats["total_bytes"] > 0

        bound = stats["total_bytes"] // 2
        assert main(["cache", "gc", "--cache-dir", str(cache_dir),
                     "--max-bytes", str(bound), "--json"]) == 0
        gc_report = json.loads(capsys.readouterr().out)
        assert gc_report["removed"] >= 1
        assert gc_report["total_bytes"] <= bound

        assert main(["cache", "clear", "--cache-dir", str(cache_dir), "--json"]) == 0
        assert json.loads(capsys.readouterr().out)["removed"] >= 1
        assert main(["cache", "stats", "--cache-dir", str(cache_dir), "--json"]) == 0
        assert json.loads(capsys.readouterr().out)["artifacts"] == 0

    def test_gc_requires_max_bytes(self, tmp_path, capsys):
        assert main(["cache", "gc", "--cache-dir", str(tmp_path / "c")]) == 2
        assert "--max-bytes" in capsys.readouterr().err

    def test_no_cache_dir_errors(self, monkeypatch, capsys):
        monkeypatch.delenv("REPRO_FLOW_CACHE", raising=False)
        assert main(["cache", "stats"]) == 2
        assert "REPRO_FLOW_CACHE" in capsys.readouterr().err


# ------------------------------------------------------------------ CLI sweep


class TestSweepCli:
    def test_sweep_json_schema_and_grid(self, capsys):
        exit_code = main(["sweep", "--machines", "dk512", "--structures",
                          "PST,DFF", "--seeds", "0,1", "--json"])
        assert exit_code == 0
        data = json.loads(capsys.readouterr().out)
        assert data["schema"] == "repro.flow-sweep/3"
        assert data["seeds"] == [0, 1]
        assert len(data["results"]) == 4
        assert data["executor"]["backend"] == "serial"

    def test_sweep_text_mode_prints_execution_summary(self, capsys):
        exit_code = main(["sweep", "--machines", "dk512", "--structures", "PST"])
        assert exit_code == 0
        out = capsys.readouterr().out
        assert "Sweep cells" in out
        assert "Execution" in out
        assert "backend" in out

    def test_sweep_queue_backend_via_cli(self, tmp_path, capsys):
        queue_dir = tmp_path / "queue"
        thread = start_worker_thread(queue_dir, "cli-w0")
        exit_code = main(["sweep", "--machines", "dk512", "--structures", "PST",
                          "--backend", "queue", "--queue-dir", str(queue_dir),
                          "--queue-timeout", "120", "--json"])
        (queue_dir / "stop").touch()
        thread.join(timeout=30)
        assert exit_code == 0
        data = json.loads(capsys.readouterr().out)
        assert data["executor"]["backend"] == "queue"
        assert data["executor"]["cells"][0]["worker"] == "cli-w0"

    def test_benchmarks_backend_flags_parse(self):
        from repro.cli import build_parser

        args = build_parser().parse_args(
            ["benchmarks", "--backend", "queue", "--queue-dir", "/tmp/q",
             "--lease-timeout", "5", "--queue-timeout", "60"]
        )
        assert args.backend == "queue"
        assert args.queue_dir == Path("/tmp/q")
        assert args.lease_timeout == 5.0
        assert args.queue_timeout == 60.0
