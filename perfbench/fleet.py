"""A local synthesis fleet: one ``repro serve`` and two HTTP workers.

Every process is a subprocess of the benchmark, started from the
checkout's own sources, and is stopped and waited for by :meth:`Fleet.stop`.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import time
import urllib.request
from pathlib import Path
from typing import List, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
READY_PREFIX = "repro serve ready "
WORKERS = 2


def repro_env() -> dict:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    env.pop("REPRO_CHAOS", None)
    return env


def stop_process(proc: subprocess.Popen, grace: float = 10.0) -> None:
    if proc.poll() is None:
        proc.terminate()
        try:
            proc.wait(timeout=grace)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()


class Fleet:
    """Coordinator plus workers under ``work``; ``traced_spans`` names the
    directory where traced worker launchers dump their spans on exit."""

    def __init__(self, work: Path, traced_spans: Optional[Path] = None) -> None:
        self.work = work
        self.coordinator_cache = work / "coordinator-cache"
        self.worker_caches = [work / f"worker{i}-cache" for i in range(WORKERS)]
        self.traced_spans = traced_spans
        self.procs: List[subprocess.Popen] = []
        self.url = ""

    def start(self, timeout: float = 60.0) -> "Fleet":
        deadline = time.monotonic() + timeout
        serve = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--host", "127.0.0.1", "--port", "0",
             "--cache-dir", str(self.coordinator_cache), "--quiet"],
            env=repro_env(), stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True,
        )
        self.procs.append(serve)
        assert serve.stdout is not None
        line = serve.stdout.readline()
        if not line.startswith(READY_PREFIX):
            self.stop()
            raise RuntimeError(f"repro serve did not report ready: {line!r}")
        self.url = line[len(READY_PREFIX):].strip()
        for i, cache_dir in enumerate(self.worker_caches):
            if self.traced_spans is not None:
                cmd = [sys.executable, str(HERE / "traced_worker.py"),
                       "--spans", str(self.traced_spans / f"worker{i}.json")]
            else:
                cmd = [sys.executable, "-m", "repro", "worker"]
            cmd += ["--url", self.url, "--cache-dir", str(cache_dir),
                    "--worker-id", f"w{i}", "--poll-interval", "0.02", "--quiet"]
            self.procs.append(subprocess.Popen(
                cmd, env=repro_env(), stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
            ))
        while len(self.stats().get("workers", {})) < WORKERS:
            if time.monotonic() > deadline or any(p.poll() is not None for p in self.procs):
                self.stop()
                raise RuntimeError("fleet workers did not register")
            time.sleep(0.02)
        return self

    def stats(self) -> dict:
        with urllib.request.urlopen(f"{self.url}/api/v1/stats", timeout=10) as response:
            return json.loads(response.read().decode("utf-8"))

    def clear_worker_caches(self) -> None:
        for path in self.worker_caches:
            shutil.rmtree(path, ignore_errors=True)

    def clear_caches(self) -> None:
        """Empty every cache tier (workers are idle between passes)."""
        self.clear_worker_caches()
        shutil.rmtree(self.coordinator_cache, ignore_errors=True)

    def stop(self) -> None:
        """Ask the workers to drain, then end and reap every process."""
        if self.url and self.procs and self.procs[0].poll() is None:
            try:
                request = urllib.request.Request(f"{self.url}/api/v1/stop", data=b"{}",
                                                 method="POST")
                urllib.request.urlopen(request, timeout=10).close()
            except OSError:
                pass  # the coordinator is gone already; terminate below
        for proc in self.procs[1:]:
            try:
                proc.wait(timeout=15)
            except subprocess.TimeoutExpired:
                stop_process(proc)
        for proc in self.procs:
            stop_process(proc)
            if proc.stdout is not None:
                proc.stdout.close()
        self.procs = []
