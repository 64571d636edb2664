"""Benchmark of the self-testable FSM synthesis flow.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload table3-espresso --seed 1 --seconds 30 --trace 0

Runs one workload for about ``--seconds`` seconds of whole rounds, checks
every output against the reference checks in this directory, and prints
one JSON object as its last line: ``correct``, ``attempted``, ``failed``
and ``metrics`` — the end-to-end metrics of ``BENCHMARK.json`` with
``--trace 0``, its per-layer metrics with ``--trace 1``.  Exit code 0 when
the run completed; 2 when the checkout lacks the program's sources.
"""

from __future__ import annotations

import argparse
import json
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Any, Dict, List

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("table3-espresso", "fleet-http")
#: Set-ups timed per run, each in a fresh interpreter; the median is reported.
SETUP_PROBES = 3
READY = "perfbench setup ready"


def _spec() -> Dict[str, Any]:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def _work_dir(workload: str) -> Path:
    base = ROOT / ".perfbench_work"
    base.mkdir(exist_ok=True)
    return Path(tempfile.mkdtemp(prefix=f"{workload}-", dir=base))


def probe_setup(workload: str, seed: int) -> int:
    """Set up as a run does, report readiness, then tear down."""
    import workloads

    work = _work_dir(workload)
    bench = workloads.make(workload, seed)
    try:
        bench.setup(work)
        print(READY, flush=True)
    finally:
        bench.stop()
        shutil.rmtree(work, ignore_errors=True)
    return 0


def setup_seconds(workload: str, seed: int) -> float:
    """Median wall from interpreter start to a finished set-up (imports,
    machine resolution, fleet start and readiness, warm-up)."""
    samples = []
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, str(Path(__file__).resolve()), "--probe-setup",
             "--workload", workload, "--seed", str(seed)],
            stdout=subprocess.PIPE, text=True,
        )
        assert proc.stdout is not None
        line = proc.stdout.readline()
        samples.append(time.perf_counter() - t0)
        proc.stdout.read()
        proc.stdout.close()
        if proc.wait(timeout=120) != 0 or line.strip() != READY:
            raise RuntimeError(f"set-up probe failed: {line!r}")
    return statistics.median(samples)


def peak_rss_mb() -> float:
    """Peak resident set of this process plus its largest reaped child."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


def run(workload: str, seed: int, seconds: float, trace: bool) -> Dict[str, Any]:
    import workloads

    spec = _spec()
    section = spec["per_layer"] if trace else spec["end_to_end"]
    setup_s = None if trace else setup_seconds(workload, seed)
    work = _work_dir(workload)
    bench = workloads.make(workload, seed)
    outcome = workloads.Run(seed)
    try:
        bench.setup(work)
        values = bench.trace(outcome) if trace else bench.measure(outcome, seconds)
    finally:
        bench.stop()
        shutil.rmtree(work, ignore_errors=True)
    if not trace:
        values["setup_s"] = setup_s
        values["peak_rss_mb"] = peak_rss_mb()
    for failure in outcome.failures[:20]:
        print(f"FAILED {failure}", file=sys.stderr)
    metrics = {
        m["name"]: {"value": float(values.get(m["name"], 0.0)), "unit": m["unit"]}
        for m in section
    }
    return {
        "correct": outcome.failed == 0,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": metrics,
    }


def main(argv: List[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe-setup", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program sources at {ROOT / 'src' / 'repro'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    if args.probe_setup:
        return probe_setup(args.workload, args.seed)
    result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
