"""Client side of the HTTP coordinator: sweep executor and network worker.

:class:`HttpExecutor` implements the standard
:class:`~repro.flow.backends.SweepExecutor` contract over the coordinator
protocol — ``Sweep(backend="http", coordinator_url=...)`` submits the
batch, polls the run, and reassembles outcomes in submission order, so an
HTTP sweep is bit-identical to the serial backend at any worker count.

:func:`run_http_worker` is ``repro worker --url http://host:port``: the
shared worker loop of :mod:`repro.flow.worker` over :class:`HttpTransport`,
which claims cells, renews their leases and uploads their signed outcomes
over HTTP.
"""

from __future__ import annotations

import os
import socket
import time
import uuid
from typing import Any, Dict, List, Mapping, Optional, Sequence

from ..backends.base import ExecutionReport, SweepExecutor
from ..cache import ArtifactCache
from ..cells import run_cell
from ..ledger import RetryPolicy
from ..worker import Claim, TransportDown, WorkerStats, WorkerStop, serve
from .protocol import (
    NET_SCHEMA,
    CoordinatorError,
    check_schema,
    close_connections,
    request,
    request_with_retry,
)

__all__ = ["HttpExecutor", "HttpTransport", "run_http_worker"]


class HttpExecutor(SweepExecutor):
    """Run sweep cells through a ``repro serve`` coordinator.

    Args:
        url: coordinator base URL (``http://host:port``).
        lease_timeout: per-claim lease window shipped with the run.
        poll_interval: run-status polling period in seconds.
        timeout: overall deadline in seconds; ``None`` waits forever for
            workers.
        retry: per-cell retry/backoff/quarantine policy, enforced
            coordinator-side.
        request_timeout: socket timeout of each HTTP round trip.
        run_id: explicit run identifier (idempotency key); default is a
            generated nonce.
    """

    name = "http"
    in_process = False

    def __init__(
        self,
        url: str,
        lease_timeout: float = 30.0,
        poll_interval: float = 0.1,
        timeout: Optional[float] = None,
        retry: Optional[RetryPolicy] = None,
        request_timeout: float = 30.0,
        run_id: Optional[str] = None,
    ) -> None:
        if lease_timeout <= 0:
            raise ValueError("lease_timeout must be > 0")
        self.url = url.rstrip("/")
        self.lease_timeout = float(lease_timeout)
        self.poll_interval = max(0.01, float(poll_interval))
        self.timeout = timeout
        self.retry = retry or RetryPolicy()
        self.request_timeout = float(request_timeout)
        self.run_id = run_id

    def execute(
        self,
        tasks: Sequence[Mapping[str, Any]],
        *,
        fsms: Optional[Mapping[str, Any]] = None,
        cache: Optional[ArtifactCache] = None,
    ) -> ExecutionReport:
        if not tasks:
            return ExecutionReport(outcomes=[], backend=self.name, workers=0)
        try:
            return self._execute(tasks)
        finally:
            close_connections()

    def _execute(self, tasks: Sequence[Mapping[str, Any]]) -> ExecutionReport:
        """Submit, poll to completion and collect one run (one connection)."""
        # Identity, never content: the nonce only names this submission on
        # the coordinator so a resubmitted batch is a distinct run.
        run_id = self.run_id or f"run-{uuid.uuid4().hex[:12]}"  # repro: allow-determinism
        payload_tasks: List[Dict[str, Any]] = []
        for task in tasks:
            shipped = dict(task)
            # Workers resolve artifacts through the coordinator's shared
            # cache tier unless the task already names a different one.
            # The URL ships even when the client has no cache: a worker's
            # own --cache-dir then still reads and writes through it.
            if not shipped.get("cache_url"):
                shipped["cache_url"] = self.url
            payload_tasks.append(shipped)
        submission = {
            "schema": NET_SCHEMA,
            "run": run_id,
            "tasks": payload_tasks,
            "retry": self.retry.to_dict(),
            "lease_timeout": self.lease_timeout,
        }
        request_with_retry(
            f"{self.url}/api/v1/runs",
            "POST",
            body=submission,
            timeout=self.request_timeout,
            tries=5,
        )

        deadline = (
            time.monotonic() + self.timeout if self.timeout is not None else None
        )
        status_url = f"{self.url}/api/v1/runs/{run_id}"
        while True:
            status = request_with_retry(
                status_url, "GET", timeout=self.request_timeout, tries=5
            )
            check_schema(status)
            if status.get("status") in ("complete", "partial"):
                break
            if deadline is not None and time.monotonic() > deadline:
                detail = status.get("pending_detail") or []
                self._delete_run(run_id)
                raise TimeoutError(
                    f"http sweep run {run_id} timed out after "
                    f"{self.timeout}s with {len(detail)} unfinished cell(s): "
                    + "; ".join(
                        f"{entry.get('cell')} [{entry.get('state')}, "
                        f"attempt {entry.get('attempt')}]"
                        for entry in detail[:8]
                    )
                )
            time.sleep(self.poll_interval)

        self._delete_run(run_id)
        return ExecutionReport.from_summary(
            status, self.name, coordinator_url=self.url, run_id=run_id
        )

    def _delete_run(self, run_id: str) -> None:
        """Free the coordinator-side run state (best-effort)."""
        try:
            request_with_retry(
                f"{self.url}/api/v1/runs/{run_id}",
                "DELETE",
                timeout=self.request_timeout,
                tries=2,
            )
        except CoordinatorError:  # repro: allow-swallowed-exception -- cleanup is advisory; an orphaned terminal run holds no leases and is reaped by the operator via DELETE
            pass


class HttpTransport:
    """The worker side of the coordinator protocol.

    Claims, heartbeats and uploads are signed JSON round trips; each
    thread keeps its own persistent connection.  A heartbeat that fails
    in transit is tolerated — the lease window is four beats wide, so only
    a sustained outage expires it, which is the right outcome of one.
    """

    def __init__(self, url: str) -> None:
        self.url = url.rstrip("/")
        self.where = self.url

    def _post(self, route: str, body: Dict[str, Any], tries: int) -> Dict[str, Any]:
        return request_with_retry(f"{self.url}/api/v1/{route}", "POST", body=body,
                                  tries=tries)

    def register(self, worker: str) -> None:
        try:
            self._post("workers/register", {"worker": worker, "pid": os.getpid(),
                                            "host": socket.gethostname()}, tries=5)
        except CoordinatorError as exc:
            raise TransportDown(
                "coordinator-unreachable",
                f"cannot reach coordinator {self.url}: {exc}",
            ) from exc

    def claim(self, worker: str, stats: WorkerStats) -> Optional[Claim]:
        while True:
            try:
                reply = self._post("claim", {"worker": worker}, tries=3)
            except CoordinatorError as exc:
                raise TransportDown("coordinator-lost") from exc
            if reply.get("stop"):
                raise WorkerStop("stop")
            cid = reply.get("cell")
            if not cid:
                return None
            task = dict(reply.get("task") or {})
            if not task:
                stats.corrupt_tasks += 1
                continue
            return Claim(
                cell=str(cid),
                task=task,
                attempt=int(reply.get("attempt", 1)),
                lease_timeout=max(0.2, float(reply.get("lease_timeout", 30.0))),
            )

    def renew(self, claim: Claim, worker: str) -> bool:
        try:
            response = request(
                f"{self.url}/api/v1/heartbeat",
                "POST",
                body={"worker": worker, "cell": claim.cell},
                timeout=10.0,
            )
        except CoordinatorError:
            return True  # a missed beat is recoverable: the next one retries
        return bool(response.get("ok"))

    def upload(
        self, claim: Claim, worker: str, outcome: Dict[str, Any], corrupt: bool
    ) -> Optional[str]:
        upload: Dict[str, Any] = {"worker": worker, "cell": claim.cell, "outcome": outcome}
        if corrupt:
            # The signed envelope still parses, but the outcome is garbage
            # — the coordinator's corrupt-result recovery is under test.
            upload["outcome"] = "chaos: torn result payload"
        try:
            response = self._post(f"results?cell={claim.cell}", upload, tries=3)
        except CoordinatorError as exc:
            # Rejected (corrupt upload) or unreachable: either way the
            # coordinator's lease machinery recovers the cell.
            return f"upload failed ({exc})"
        if not response.get("accepted"):
            return f"upload not accepted ({response.get('reason')})"
        return None

    def deregister(self, worker: str) -> None:
        try:
            self._post("workers/deregister", {"worker": worker}, tries=2)
        except CoordinatorError:  # repro: allow-swallowed-exception -- deregistration is a courtesy; the coordinator ages out silent workers from /stats either way
            pass
        close_connections()

    def thread_exit(self) -> None:
        close_connections()


def run_http_worker(url: str, **options: Any) -> WorkerStats:
    """``repro worker --url``: the worker loop over a coordinator, until it
    answers a claim with ``stop``.

    ``options`` are those of :func:`repro.flow.worker.serve` (``cache_dir``,
    ``worker_id``, ``poll_interval``, ``max_idle``, ``max_cells``,
    ``drain``, ``log``).  Here ``cache_dir`` holds the artifacts this
    worker computes, in front of the shared remote tier; what it reads
    from the coordinator is held in memory per cell and never written.
    """
    # run_cell as bound in this module, so a wrapper installed on it (span
    # tracing of worker busy time) sees every execution.
    return serve(HttpTransport(url), run=run_cell, **options)
