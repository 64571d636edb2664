"""The two workloads: what each runs, how it is timed and how it is checked.

Every workload runs whole rounds of the same operations.  The first round's
outputs go through the reference checks of :mod:`checks`; every later
round, every warm re-run and every other backend must reproduce them
exactly.
"""

from __future__ import annotations

import gc
import json
import random
import shutil
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

import checks
import tracing
from fleet import Fleet, repro_env, stop_process

STRUCTURES = ("DFF", "PAT", "SIG", "PST")
TABLE3_SMALL = ("dk512", "dk16", "donfile", "ex4", "mark1", "modulo12")
#: Six small seed machines under every structure, plus one large ON-set cell.
TABLE3_CELLS = tuple((m, s) for m in TABLE3_SMALL for s in STRUCTURES) + (("tbk", "PST"),)
#: Patterns of the sampled fault check on every table3-espresso cell.
FAULT_PATTERNS = 1024
FLEET_MACHINES = ("dk512", "ex4", "mark1", "modulo12")
FLEET_SEEDS = 16
#: One word of random patterns per fleet cell: the faultsim stage stays cheap.
FLEET_PATTERNS = 256
#: Warm passes after each cold pass: the warm pass is short, and its fastest
#: repeat is steadier when there are more of them.
FLEET_WARM_PASSES = 2
#: Fleet cells re-run in-process and given the sampled fault check, per run.
FLEET_SAMPLE = 8
#: Warm re-runs of each in-process cell right after its cold run, per round.
WARM_PASSES = 20
#: Rounds every run makes, however long they take, so every cell is timed twice.
#: Repeated timings are reduced to their minimum: on a shared host whose speed
#: flips between levels from one fraction of a second to the next and drifts
#: over minutes, the fastest repeat is the steadiest figure from run to run.
MIN_ROUNDS = 2


class Run:
    """Operation counts and failures of one benchmark run."""

    def __init__(self, seed: int) -> None:
        self.attempted = 0
        self.failed = 0
        self.failures: List[str] = []
        self.rng = random.Random(f"oracle-{seed}")

    def record(self, label: str, problems: Sequence[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.failures.append(f"{label}: {problems[0]}")


def timed_rounds(seconds: float, one_round: Callable[[int], Any]) -> int:
    """Make ``MIN_ROUNDS`` rounds, then start more until ``seconds`` have
    passed; returns the round count."""
    start = time.monotonic()
    rounds = 0
    while rounds < MIN_ROUNDS or time.monotonic() - start < seconds:
        one_round(rounds)
        rounds += 1
    return rounds


def check_cell(run: Run, fsm: Any, result: Any,
               fault_sample: Optional[Tuple[int, int]] = None) -> Tuple[List[str], int]:
    """Cover, netlist and fault-stage checks of one materialised result.

    With ``fault_sample=(patterns, seed)`` the engine's detections on a
    seeded fault sample are checked too.  Returns the failures and the
    sample's detected count.
    """
    from repro.circuit.netlist import netlist_from_controller

    try:
        netlist = netlist_from_controller(result.controller)
        found = checks.check_synthesis(fsm, result, netlist, run.rng)
        total = result.metrics.get("fault_total")
        if total is not None:
            found += checks.check_fault_result(result, result.config["fault_patterns"])
        detected = 0
        if fault_sample is not None:
            patterns, seed = fault_sample
            sample, detected = checks.check_fault_sample(
                netlist, patterns, int(result.config["word_width"]), seed, run.rng, total
            )
            found += sample
        return found, detected
    except Exception as exc:  # a crashing check is a failed operation
        return [f"check raised {type(exc).__name__}: {exc}"], 0


def _sum_metric(results: Sequence[Any], name: str) -> int:
    return sum(int(r.metrics[name]) for r in results)


# ----------------------------------------------------------- table3


class Table3:
    """``table3-espresso``: serial ``run_flow`` calls.

    Each timed round writes through a fresh artifact cache, and every cell
    is re-run against it right after its cold run (the warm re-run a user
    gets from ``repro.ArtifactCache``).
    """

    name = "table3-espresso"
    cells = TABLE3_CELLS

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.reference: Dict[Tuple[str, str], Dict[str, Any]] = {}
        self.results: List[Any] = []
        self.detected = 0

    def config(self, structure: str, seed: int) -> Any:
        from repro.flow import FlowConfig

        return FlowConfig(structure=structure, seed=seed)

    def setup(self, work: Path) -> None:
        from repro.flow import resolve_fsm, run_flow

        self.work = work
        self.fsms = {m: resolve_fsm(m) for m, _ in self.cells}
        # Warm-up: a seed outside the timed set, with no cache.
        run_flow(resolve_fsm("dk512"), self.config("PST", self.seed + 7919))

    def stop(self) -> None:
        pass

    def one_round(self, run: Run, flow: Callable[..., Any], cache_dir: Path,
                  cold: Optional[Dict[Tuple[str, str], List[float]]] = None,
                  warm: Optional[Dict[Tuple[str, str], List[float]]] = None,
                  warm_passes: int = 0, fresh: bool = True) -> float:
        """One pass over the cells; returns its wall.

        Each cell's wall is appended to ``cold`` and its result checked;
        with ``warm_passes`` the cell is then re-run that many times against
        the cache it has just written, each wall appended to ``warm`` and
        each result checked.  The heap is collected before every timed
        cell, so that no cell pays for the garbage of a check or of the
        cell before it.
        """
        from repro.flow import ArtifactCache

        if fresh:
            shutil.rmtree(cache_dir, ignore_errors=True)
        cache = ArtifactCache(cache_dir)
        total = 0.0
        for key in self.cells:
            fsm, config = self.fsms[key[0]], self.config(key[1], self.seed)
            gc.collect()
            t0 = time.perf_counter()
            result = flow(fsm, config, cache=cache, materialize=True)
            wall = time.perf_counter() - t0
            total += wall
            if cold is not None:
                cold.setdefault(key, []).append(wall)
            self._check(run, key, result, warm=not fresh)
            if warm_passes:
                assert warm is not None
                reruns = []
                gc.collect()
                for _ in range(warm_passes):
                    t0 = time.perf_counter()
                    reruns.append(flow(fsm, config, cache=cache, materialize=True))
                    warm.setdefault(key, []).append(time.perf_counter() - t0)
                for again in reruns:
                    self._check(run, key, again, warm=True)
        return total

    def _check(self, run: Run, key: Tuple[str, str], result: Any, warm: bool) -> None:
        label = f"{self.name} {key[0]}/{key[1]}{' warm' if warm else ''}"
        data = checks.normalized(result.to_dict())
        if key in self.reference:
            problems = [] if data == self.reference[key] else ["differs from the first round"]
            if warm and not result.all_cached:
                problems.append("warm re-run recomputed a stage")
            run.record(label, problems)
            return
        problems, detected = check_cell(run, self.fsms[key[0]], result,
                                        (FAULT_PATTERNS, self.seed))
        run.record(label, problems)
        self.reference[key] = data
        self.results.append(result)
        # The cells simulate no faults; faults_detected counts the checked
        # sample's detections.
        self.detected += detected

    def measure(self, run: Run, seconds: float) -> Dict[str, float]:
        from repro.flow import run_flow

        cold: Dict[Tuple[str, str], List[float]] = {}
        warm: Dict[Tuple[str, str], List[float]] = {}
        cache_dir = self.work / "cache"
        timed_rounds(seconds, lambda _: self.one_round(
            run, run_flow, cache_dir, cold, warm, WARM_PASSES))
        return {
            "wall_s": sum(min(w) for w in cold.values()),
            "warm_wall_s": sum(min(w) for w in warm.values()),
            "product_terms": _sum_metric(self.results, "product_terms"),
            "multilevel_literals": _sum_metric(self.results, "multilevel_literals"),
            "faults_detected": self.detected,
        }

    def trace(self, run: Run) -> Dict[str, float]:
        from repro.flow import run_flow

        cache_dir = self.work / "cache"
        # The checked first round; its checks run between cells, outside the timer.
        untraced = self.one_round(run, run_flow, cache_dir)
        tracer = tracing.Tracer()
        tracing.install(tracer)
        try:
            start = time.monotonic()
            traced = self.one_round(run, tracer.wrap("flow.run_flow", run_flow), cache_dir)
            metrics = tracing.layer_metrics(tracer.spans, start, time.monotonic())
            warm_start = time.monotonic()
            self.one_round(run, tracer.wrap("flow.run_flow", run_flow), cache_dir,
                           fresh=False)
            warm = tracing.layer_metrics(tracer.spans, warm_start, time.monotonic())
        finally:
            tracer.uninstall()
        _warm_cache_metrics(metrics, warm)
        metrics["trace.overhead_s"] = traced - untraced
        return metrics


def _warm_cache_metrics(metrics: Dict[str, float], warm: Dict[str, float]) -> None:
    """Cache hits and misses come from the warm re-run; writes from the cold pass."""
    hits, misses = warm["flow.cache_hits"], warm["flow.cache_misses"]
    metrics["flow.cache_hits"] = hits
    metrics["flow.cache_misses"] = misses
    metrics["flow.warm_hit_ratio"] = hits / (hits + misses) if hits + misses else 0.0


# ----------------------------------------------------------------- fleet


class FleetHttp:
    """``fleet-http``: cheap cells through ``repro serve`` and two workers.

    A round is a cold pass (every cache tier emptied) and two warm passes,
    each with a fresh client cache and emptied worker caches, so every
    artifact is read through the coordinator tier.
    """

    name = "fleet-http"

    def __init__(self, seed: int) -> None:
        self.seed = seed
        pick = random.Random(f"fleet-{seed}")
        self.seeds = sorted(pick.sample(range(100_000), FLEET_SEEDS))
        self.fleet: Optional[Fleet] = None
        self.reference: List[Dict[str, Any]] = []
        self.results: List[Any] = []
        self.cell_problems: Dict[int, List[str]] = {}
        self.warm_window = (0.0, 0.0)

    def setup(self, work: Path, traced_spans: Optional[Path] = None) -> None:
        from repro.flow import resolve_fsm

        self.work = work
        self.fsms = [resolve_fsm(m) for m in FLEET_MACHINES]
        self.fleet = Fleet(work / "fleet", traced_spans).start()
        # Warm-up cells use a seed outside the timed set; the caches are
        # emptied before every timed pass anyway.
        self.sweep("http", work / "warmup-cache", seeds=[100_000 + self.seed])
        self.fleet.clear_caches()

    def stop(self) -> None:
        if self.fleet is not None:
            self.fleet.stop()
            self.fleet = None

    @property
    def cell_count(self) -> int:
        return len(FLEET_MACHINES) * len(STRUCTURES) * len(self.seeds)

    def sweep(self, backend: str, cache_dir: Path, seeds: Optional[List[int]] = None,
              queue_dir: Optional[Path] = None, fresh: bool = True) -> Tuple[Any, float]:
        from repro.flow import ArtifactCache, FlowConfig, Sweep

        if fresh:
            shutil.rmtree(cache_dir, ignore_errors=True)
        kwargs: Dict[str, Any] = {"backend": backend}
        if backend == "http":
            assert self.fleet is not None
            kwargs["coordinator_url"] = self.fleet.url
        elif backend == "pool":
            kwargs["jobs"] = 2
        elif backend == "queue":
            kwargs["queue_dir"] = queue_dir
        config = FlowConfig(fault_patterns=FLEET_PATTERNS, fault_seed=self.seed)
        sweep = Sweep(self.fsms, structures=STRUCTURES, seeds=seeds or self.seeds,
                      config=config, cache=ArtifactCache(cache_dir), **kwargs)
        t0 = time.perf_counter()
        result = sweep.run()
        return result, time.perf_counter() - t0

    def passes(self, run: Run, warm_passes: int = 1
               ) -> Tuple[float, List[float], Any, Any, Tuple[float, float]]:
        """One cold pass and ``warm_passes`` warm passes; returns the walls,
        the cold and the last warm result, and the cold window."""
        assert self.fleet is not None
        self.fleet.clear_caches()
        start = time.monotonic()
        cold, cold_wall = self.sweep("http", self.work / "client-cold")
        cold_window = (start, time.monotonic())
        warms, warm_walls = [], []
        for _ in range(warm_passes):
            self.fleet.clear_worker_caches()
            warm_start = time.monotonic()
            warm, warm_wall = self.sweep("http", self.work / "client-warm")
            self.warm_window = (warm_start, time.monotonic())
            warms.append(warm)
            warm_walls.append(warm_wall)
        if not self.reference:
            self.check_cold(run, cold)
        self.check_same(run, "cold", cold)
        for warm in warms:
            self.check_same(run, "warm", warm, warm=True)
        return cold_wall, warm_walls, cold, warms[-1], cold_window

    def check_cold(self, run: Run, sweep: Any) -> None:
        """Reference checks of every cell, read back through the coordinator tier."""
        from repro.flow import FlowConfig, RemoteCache, run_flow

        assert self.fleet is not None
        self.reference = [checks.normalized(r.to_dict()) for r in sweep.results]
        self.results = list(sweep.results)
        readback = RemoteCache(self.fleet.url, self.work / "check-cache")
        by_name = {fsm.name: fsm for fsm in self.fsms}
        sampled = set(run.rng.sample(range(len(sweep.results)), FLEET_SAMPLE))
        for index, result in enumerate(sweep.results):
            config = FlowConfig.from_dict(result.config)
            fsm = by_name[result.fsm]
            found: List[str] = []
            try:
                stored = run_flow(fsm, config, cache=readback, materialize=True)
                if not stored.all_cached:
                    found.append("artifacts missing from the coordinator tier")
                if checks.normalized(stored.to_dict()) != self.reference[index]:
                    found.append("coordinator artifacts disagree with the cell result")
                if index in sampled:
                    local = run_flow(fsm, config)
                    if checks.normalized(local.to_dict()) != self.reference[index]:
                        found.append("differs from an in-process serial run")
            except Exception as exc:  # a crashing check is a failed operation
                self.cell_problems[index] = [f"check raised {type(exc).__name__}: {exc}"]
                continue
            sample = (FLEET_PATTERNS, config.fault_seed) if index in sampled else None
            self.cell_problems[index] = found + check_cell(run, fsm, stored, sample)[0]
        if sweep.status != "complete" or len(sweep.results) != self.cell_count:
            self.cell_problems.setdefault(0, []).append(
                f"sweep {sweep.status} with {len(sweep.results)} of {self.cell_count} cells"
            )

    def check_same(self, run: Run, label: str, sweep: Any, warm: bool = False) -> None:
        data = [checks.normalized(r.to_dict()) for r in sweep.results]
        shared: List[str] = []
        if warm and (not sweep.all_cached or sweep.cache_stats.get("misses", 0)):
            shared.append(f"warm pass recomputed ({dict(sweep.cache_stats)})")
        for index in range(self.cell_count):
            problems = self.cell_problems.pop(index, []) + shared
            if index >= len(data) or data[index] != self.reference[index]:
                problems.append(f"{label} result differs from the first cold pass")
            run.record(f"fleet-http {label} cell {index}", problems)

    def quality(self) -> Dict[str, float]:
        return {
            "product_terms": _sum_metric(self.results, "product_terms"),
            "multilevel_literals": _sum_metric(self.results, "multilevel_literals"),
            "faults_detected": _sum_metric(self.results, "fault_detected"),
        }

    def measure(self, run: Run, seconds: float) -> Dict[str, float]:
        colds: List[float] = []
        warms: List[float] = []

        def one_round(_: int) -> None:
            cold, warm, _c, _w, _window = self.passes(run, FLEET_WARM_PASSES)
            colds.append(cold)
            warms.extend(warm)

        timed_rounds(seconds, one_round)
        metrics = {"wall_s": min(colds), "warm_wall_s": min(warms)}
        metrics.update(self.quality())
        return metrics

    def backend_walls(self, run: Run) -> Dict[str, float]:
        """Warm ms/cell of the serial, pool and queue backends on the same cells."""
        assert self.fleet is not None
        local = self.work / "local-cache"
        shutil.rmtree(local, ignore_errors=True)
        shutil.copytree(self.fleet.coordinator_cache, local)
        walls = {}
        for backend in ("serial", "pool", "queue"):
            queue = self.work / "queue"
            workers: List[subprocess.Popen] = []
            if backend == "queue":
                shutil.rmtree(queue, ignore_errors=True)
                workers = [subprocess.Popen(
                    [sys.executable, "-m", "repro", "worker", str(queue), "--worker-id",
                     f"q{i}", "--poll-interval", "0.02", "--quiet"],
                    env=repro_env(), stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
                ) for i in range(2)]
            try:
                result, wall = self.sweep(backend, local, queue_dir=queue, fresh=False)
                walls[backend] = wall / self.cell_count * 1000.0
                self.check_same(run, backend, result, warm=True)
            finally:
                if workers:
                    (queue / "stop").touch()
                    for proc in workers:
                        try:
                            proc.wait(timeout=15)
                        except subprocess.TimeoutExpired:
                            stop_process(proc)
        return walls

    def trace(self, run: Run) -> Dict[str, float]:
        self.passes(run)  # the checked first round
        cold_wall, (warm_wall,), cold, warm, _ = self.passes(run)
        cells = self.cell_count
        stage_seconds = sum(r.uncached_seconds for r in cold.results)
        metrics: Dict[str, float] = {
            "net.cold_ms_per_cell": (cold_wall * 2 - stage_seconds) / cells * 1000.0,
            "net.warm_ms_per_cell": warm_wall / cells * 1000.0,
            "net.requeues": sum(int(s.executor.get("cells_requeued", 0)) for s in (cold, warm)),
            "net.retries": sum(int(s.executor.get("retries", 0)) for s in (cold, warm)),
        }
        for backend, ms in self.backend_walls(run).items():
            metrics[f"backends.{backend}.warm_ms_per_cell"] = ms
        metrics["backends.http.warm_ms_per_cell"] = metrics["net.warm_ms_per_cell"]

        # The traced round: a fresh fleet whose workers carry the wrappers.
        self.stop()
        spans_dir = self.work / "spans"
        spans_dir.mkdir(exist_ok=True)
        self.fleet = Fleet(self.work / "traced-fleet", spans_dir).start()
        traced_cold, _, _, _, cold_window = self.passes(run)
        warm_window = self.warm_window
        self.stop()
        spans: List[Dict[str, Any]] = []
        for n, path in enumerate(sorted(spans_dir.glob("worker*.json"))):
            for span in json.loads(path.read_text()):
                span["id"] = f"{n}:{span['id']}"
                if span["parent"] is not None:
                    span["parent"] = f"{n}:{span['parent']}"
                spans.append(span)
        metrics.update(tracing.layer_metrics(spans, *cold_window))
        _warm_cache_metrics(metrics, tracing.layer_metrics(spans, *warm_window))
        busy = sum(s["end"] - s["start"] for s in spans if s["name"] == "net.run_cell"
                   and cold_window[0] <= s["start"] and s["end"] <= cold_window[1])
        metrics["net.worker_busy_ratio"] = busy / (traced_cold * 2)
        metrics["trace.overhead_s"] = traced_cold - cold_wall
        return metrics


def make(name: str, seed: int) -> Any:
    if name == "fleet-http":
        return FleetHttp(seed)
    return Table3(seed)
