"""The ``repro serve`` asyncio HTTP coordinator (schema ``repro.net/1``).

One long-running coordinator process turns the sweep layer into a
service: clients submit batches of cells over HTTP, any number of
``repro worker --url`` processes on any host claim/execute/upload them,
and a content-addressed artifact cache is served to the whole fleet —
no shared filesystem required (the limitation of the queue backend).

The protocol is the queue backend's lease/retry loop lifted onto HTTP::

    POST   /api/v1/runs            submit a batch of cells (idempotent by run id)
    GET    /api/v1/runs/<id>       poll a run; terminal polls carry the outcomes
    DELETE /api/v1/runs/<id>       acknowledge + free a finished run
    POST   /api/v1/claim           worker: claim the oldest pending cell (lease)
    POST   /api/v1/heartbeat       worker: renew a claim lease
    POST   /api/v1/results?cell=   worker: upload one signed outcome
    POST   /api/v1/workers/register | /api/v1/workers/deregister
    POST   /api/v1/cache           batched artifact exchange:
                                   {"get": [keys], "put": {key: payload}}
                                   -> {"found": {key: payload}}
    GET    /api/v1/stats (alias /stats)   machine-readable counters
    POST   /api/v1/stop            fleet teardown: claims answer ``stop: true``

Failure semantics are *identical* to the filesystem queue, by sharing its
code: :class:`~repro.flow.backends.queue.RetryPolicy` backoff, the
two-consecutive-identical-errors poison classifier, the runaway hard cap
on infra requeues, sha256-signed payloads (corrupt = drop + count +
resubmit, never a crash or hang), and lease expiry/requeue on worker
death.  A sweep through this coordinator is bit-identical to the serial
backend at any worker count — outcomes are reassembled in submission
order, and cells funnel through the same
:func:`~repro.flow.cells.run_cell` as every other backend.

The server is a deliberately small stdlib-only HTTP/1.1 implementation
over ``asyncio.start_server``: requests are JSON round trips of a few KB,
one event loop owns all coordinator state (no locks), and the two
server-side chaos seams (``net-5xx``, ``net-slow``) sit in the one
request funnel.  Connections are persistent: a connection serves
requests until the client closes it or sends ``Connection: close``, and
stopping the coordinator closes idle connections and lets busy ones
finish their reply first.
"""

from __future__ import annotations

import asyncio
import contextlib
import json
import re
import socket
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Set, Tuple, Union

from .. import chaos
from ..backends.queue import RetryPolicy, _same_error, verify_payload
from ..cache import ArtifactCache
from .protocol import NET_SCHEMA, TRY_HEADER, signed_body, site_label

__all__ = ["Coordinator", "CoordinatorHandle", "run_coordinator"]

#: Runaway guard, matching ``QueueExecutor``: a cell is force-quarantined
#: after ``max_attempts * factor`` total submissions, whatever the retry
#: policy says, so an adversarial always-corrupt fault cannot loop forever.
_HARD_CAP_FACTOR = 4

#: Shape of an artifact key (a sha256 hex digest, see
#: :func:`~repro.flow.cache.artifact_key`); anything else never reaches
#: the store, whose file layout is derived from the key.
_ARTIFACT_KEY = re.compile(r"[0-9a-f]{64}")

#: Reason phrases of the statuses the coordinator actually emits.
_REASONS = {
    200: "OK",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    500: "Internal Server Error",
}


@dataclass
class _NetCell:
    """Coordinator-side state of one submitted cell."""

    task: Dict[str, Any]
    attempt: int = 1
    status: str = "pending"  # pending | claimed | backoff | done | failed
    errors: List[Dict[str, Any]] = field(default_factory=list)
    claimed_by: Optional[str] = None
    lease_expires: float = 0.0
    resubmit_at: float = 0.0
    outcome: Optional[Dict[str, Any]] = None


@dataclass
class _Run:
    """One submitted batch: ordered cells plus its retry policy."""

    run_id: str
    ids: List[str]
    cells: Dict[str, _NetCell]
    retry: RetryPolicy
    lease_timeout: float
    counters: Dict[str, int] = field(
        default_factory=lambda: {"requeues": 0, "retries": 0, "corrupt_results": 0}
    )
    workers_seen: List[str] = field(default_factory=list)

    @property
    def hard_cap(self) -> int:
        return self.retry.max_attempts * _HARD_CAP_FACTOR

    @property
    def terminal(self) -> bool:
        return all(c.status in ("done", "failed") for c in self.cells.values())

    def saw_worker(self, worker: Optional[str]) -> None:
        if worker and worker not in self.workers_seen:
            self.workers_seen.append(worker)


class Coordinator:
    """The coordinator's state machine plus its asyncio HTTP frontend.

    Args:
        host / port: bind address (``port=0`` picks a free port; the
            bound port is available as :attr:`port` after startup).
        cache_dir: directory of the served artifact-cache tier (``None``
            disables the ``/api/v1/cache`` endpoint with 404s).
        lease_timeout: default lease window for runs that do not bring
            their own.
        sweep_interval: period of the lease-expiry/backoff sweeper task.
        max_cache_bytes: LRU bound of the served cache (``None``:
            unbounded).
        clock: monotonic clock seam for lease/backoff decisions —
            injectable so tests expire leases without sleeping.  All
            stamps compared against it are the coordinator's own, so no
            cross-host clock agreement is needed (an improvement over the
            queue backend's mtime leases).
        log: line sink for progress messages (``None``: silent).
    """

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        cache_dir: Optional[Union[str, Path]] = None,
        lease_timeout: float = 30.0,
        sweep_interval: float = 0.05,
        max_cache_bytes: Optional[int] = None,
        clock: Callable[[], float] = time.monotonic,
        log: Optional[Callable[[str], None]] = None,
    ) -> None:
        if lease_timeout <= 0:
            raise ValueError("lease_timeout must be > 0")
        self.host = host
        self.port = port
        self.lease_timeout = float(lease_timeout)
        self.sweep_interval = float(sweep_interval)
        self.cache: Optional[ArtifactCache] = (
            ArtifactCache(cache_dir, max_bytes=max_cache_bytes)
            if cache_dir is not None
            else None
        )
        self._clock = clock
        self._emit = log or (lambda line: None)
        self._runs: Dict[str, _Run] = {}
        self._cell_index: Dict[str, Tuple[str, str]] = {}
        self._workers: Dict[str, float] = {}
        self._stopping = False
        self._started = self._clock()
        self._totals: Dict[str, int] = {
            "runs_submitted": 0,
            "runs_completed": 0,
            "cells_submitted": 0,
            "cells_completed": 0,
            "cells_failed": 0,
            "requeues": 0,
            "retries": 0,
            "corrupt_results": 0,
            "corrupt_submissions": 0,
            "cache_gets": 0,
            "cache_puts": 0,
            "corrupt_cache_puts": 0,
            "requests": 0,
            "connections": 0,
        }
        self._server: Optional[asyncio.Server] = None
        # Connection handler tasks, and the writers of those waiting for
        # their next request (closed first on shutdown).
        self._connections: Set["asyncio.Task[None]"] = set()
        self._idle: Set[asyncio.StreamWriter] = set()
        self._closing = False

    # ----------------------------------------------------------- state core
    def _tick(self) -> None:
        """Expire stale leases and serve elapsed backoffs (the sweeper's beat)."""
        now = self._clock()
        for run in self._runs.values():
            for cid in run.ids:
                cell = run.cells[cid]
                if cell.status == "claimed" and now > cell.lease_expires:
                    run.counters["requeues"] += 1
                    self._totals["requeues"] += 1
                    self._emit(f"lease expired for {cid} "
                               f"(worker {cell.claimed_by}); requeueing")
                    self._resubmit(run, cid, cell)
                elif cell.status == "backoff" and now >= cell.resubmit_at:
                    self._resubmit(run, cid, cell)

    def _resubmit(self, run: _Run, cid: str, cell: _NetCell) -> None:
        """Bump the attempt and repend — or quarantine past the hard cap."""
        cell.claimed_by = None
        cell.attempt += 1
        if cell.attempt > run.hard_cap:
            self._quarantine(run, cid, cell, reason="runaway")
            return
        cell.status = "pending"

    def _quarantine(self, run: _Run, cid: str, cell: _NetCell, reason: str) -> None:
        """Mark a poison cell failed, with the queue backend's outcome shape."""
        cell.status = "failed"
        self._totals["cells_failed"] += 1
        last = cell.errors[-1] if cell.errors else {
            "type": "QueueRunawayError",
            "message": f"cell resubmitted {cell.attempt} times without a "
                       f"successful or failing execution",
            "traceback": None,
        }
        cell.outcome = {
            "kind": cell.task.get("kind"),
            "cell": cid,
            "result": None,
            "worker": last.get("worker"),
            "cache_stats": None,
            "error": {key: last.get(key) for key in ("type", "message", "traceback")},
            "error_attempts": list(cell.errors),
            "attempts": cell.attempt,
            "quarantined": f"coordinator:{run.run_id}/{cid}",
            "quarantine_reason": reason,
        }
        self._emit(f"quarantined {cid} ({reason}) after {cell.attempt} attempt(s)")

    def _corrupt_result(self, run: _Run, cid: str, cell: _NetCell) -> None:
        """A corrupt upload: drop it and resubmit with backoff (queue parity)."""
        run.counters["corrupt_results"] += 1
        self._totals["corrupt_results"] += 1
        cell.claimed_by = None
        cell.status = "backoff"
        cell.resubmit_at = self._clock() + run.retry.delay_for(cell.attempt)

    # ------------------------------------------------------------- handlers
    def _handle_submit(self, body: Dict[str, Any]) -> Tuple[int, Dict[str, Any]]:
        schema = body.get("schema", NET_SCHEMA)
        if schema != NET_SCHEMA:
            return 400, {"error": f"unsupported schema {schema!r}"}
        run_id = str(body.get("run", ""))
        tasks = body.get("tasks")
        if not run_id or not isinstance(tasks, list) or not tasks:
            return 400, {"error": "submission needs a run id and a task list"}
        if run_id in self._runs:
            # Idempotent resubmission (a dropped response, a client retry).
            return 200, {"run": run_id, "cells": len(self._runs[run_id].ids)}
        retry = RetryPolicy.from_dict(body.get("retry") or {})
        lease = float(body.get("lease_timeout", self.lease_timeout))
        ids: List[str] = []
        cells: Dict[str, _NetCell] = {}
        for index, task in enumerate(tasks):
            if not isinstance(task, dict):
                return 400, {"error": f"task {index} is not an object"}
            cid = f"{run_id}-{task.get('cell', f'{index:05d}')}"
            if cid in self._cell_index or cid in cells:
                return 400, {"error": f"duplicate cell id {cid}"}
            ids.append(cid)
            cells[cid] = _NetCell(task=dict(task))
        run = _Run(run_id=run_id, ids=ids, cells=cells, retry=retry,
                   lease_timeout=lease)
        self._runs[run_id] = run
        for cid in ids:
            self._cell_index[cid] = (run_id, cid)
        self._totals["runs_submitted"] += 1
        self._totals["cells_submitted"] += len(ids)
        self._emit(f"run {run_id}: {len(ids)} cell(s) submitted")
        return 200, {"run": run_id, "cells": len(ids)}

    def _handle_run_status(self, run_id: str) -> Tuple[int, Dict[str, Any]]:
        run = self._runs.get(run_id)
        if run is None:
            return 404, {"error": f"unknown run {run_id!r}"}
        states = {"pending": 0, "claimed": 0, "backoff": 0, "done": 0, "failed": 0}
        for cell in run.cells.values():
            states[cell.status] += 1
        payload: Dict[str, Any] = {
            "schema": NET_SCHEMA,
            "run": run_id,
            "cells": states,
            "total": len(run.ids),
            "counters": dict(run.counters),
            "workers_seen": sorted(run.workers_seen),
            "retry_policy": run.retry.to_dict(),
        }
        if run.terminal:
            payload["status"] = (
                "partial" if states["failed"] else "complete"
            )
            payload["outcomes"] = [run.cells[cid].outcome for cid in run.ids]
            payload["cell_attempts"] = {
                cid: run.cells[cid].attempt for cid in run.ids
            }
            payload["quarantined"] = sorted(
                cid for cid in run.ids if run.cells[cid].status == "failed"
            )
        else:
            payload["status"] = "running"
            payload["pending_detail"] = self._pending_detail(run)
        return 200, payload

    def _pending_detail(self, run: _Run) -> List[Dict[str, Any]]:
        """Diagnosable per-cell state for timeout messages (queue parity)."""
        now = self._clock()
        detail: List[Dict[str, Any]] = []
        for cid in run.ids:
            cell = run.cells[cid]
            if cell.status in ("done", "failed"):
                continue
            entry: Dict[str, Any] = {"cell": cid, "attempt": cell.attempt,
                                     "state": cell.status}
            if cell.status == "claimed":
                entry["worker"] = cell.claimed_by
                entry["lease_age"] = round(
                    now - (cell.lease_expires - run.lease_timeout), 3
                )
            elif cell.status == "backoff":
                entry["due_in"] = round(max(0.0, cell.resubmit_at - now), 3)
            detail.append(entry)
        return detail

    def _handle_run_delete(self, run_id: str) -> Tuple[int, Dict[str, Any]]:
        run = self._runs.pop(run_id, None)
        if run is None:
            return 404, {"error": f"unknown run {run_id!r}"}
        for cid in run.ids:
            self._cell_index.pop(cid, None)
        self._totals["runs_completed"] += 1
        return 200, {"run": run_id, "deleted": True}

    def _handle_claim(self, body: Dict[str, Any]) -> Tuple[int, Dict[str, Any]]:
        worker = str(body.get("worker", ""))
        if not worker:
            return 400, {"error": "claim needs a worker id"}
        self._workers[worker] = self._clock()
        if self._stopping:
            return 200, {"cell": None, "stop": True}
        for run in self._runs.values():
            for cid in run.ids:
                cell = run.cells[cid]
                if cell.status != "pending":
                    continue
                cell.status = "claimed"
                cell.claimed_by = worker
                cell.lease_expires = self._clock() + run.lease_timeout
                run.saw_worker(worker)
                return 200, {
                    "cell": cid,
                    "task": cell.task,
                    "attempt": cell.attempt,
                    "lease_timeout": run.lease_timeout,
                    "max_attempts": run.retry.max_attempts,
                    "stop": False,
                }
        return 200, {"cell": None, "stop": False}

    def _handle_heartbeat(self, body: Dict[str, Any]) -> Tuple[int, Dict[str, Any]]:
        worker = str(body.get("worker", ""))
        cid = str(body.get("cell", ""))
        self._workers[worker] = self._clock()
        located = self._cell_index.get(cid)
        if located is None:
            return 200, {"ok": False, "reason": "unknown-cell"}
        run = self._runs[located[0]]
        cell = run.cells[cid]
        if cell.status != "claimed" or cell.claimed_by != worker:
            # The lease was expired and the cell requeued (maybe even
            # reclaimed): the worker must abandon its execution's upload.
            return 200, {"ok": False, "reason": "lease-lost"}
        cell.lease_expires = self._clock() + run.lease_timeout
        return 200, {"ok": True}

    def _handle_result(
        self, cid: str, body: Optional[Dict[str, Any]]
    ) -> Tuple[int, Dict[str, Any]]:
        located = self._cell_index.get(cid)
        if located is None:
            return 200, {"accepted": False, "reason": "unknown-cell"}
        run = self._runs[located[0]]
        cell = run.cells[cid]
        if body is None or "outcome" not in body or not isinstance(body["outcome"], dict):
            # Corrupt upload (torn body, chaos, integrity failure): the
            # cell id travels in the query string precisely so this
            # recovery can fire without a parseable body.
            if cell.status == "claimed":
                self._corrupt_result(run, cid, cell)
            return 400, {"error": "corrupt result payload", "accepted": False}
        worker = str(body.get("worker", ""))
        if cell.status != "claimed" or cell.claimed_by != worker:
            # A stale duplicate (lease expired mid-cell).  Results are
            # bit-identical by construction, but the authoritative copy is
            # the re-execution's — mirror the queue's abandonment.
            return 200, {"accepted": False, "reason": "stale-lease"}
        outcome = dict(body["outcome"])
        run.saw_worker(worker or outcome.get("worker"))
        error = outcome.get("error")
        if not error:
            cell.status = "done"
            cell.outcome = outcome
            self._totals["cells_completed"] += 1
            return 200, {"accepted": True}
        record = dict(error)
        record["attempt"] = cell.attempt
        record["worker"] = worker or outcome.get("worker")
        cell.errors.append(record)
        deterministic = len(cell.errors) >= 2 and _same_error(
            cell.errors[-1], cell.errors[-2]
        )
        exhausted = len(cell.errors) >= run.retry.max_attempts
        if deterministic or exhausted:
            self._quarantine(
                run, cid, cell,
                reason="deterministic" if deterministic else "exhausted",
            )
        else:
            run.counters["retries"] += 1
            self._totals["retries"] += 1
            cell.claimed_by = None
            cell.status = "backoff"
            cell.resubmit_at = self._clock() + run.retry.delay_for(cell.attempt)
        return 200, {"accepted": True}

    def _handle_register(
        self, body: Dict[str, Any], leaving: bool
    ) -> Tuple[int, Dict[str, Any]]:
        worker = str(body.get("worker", ""))
        if not worker:
            return 400, {"error": "registration needs a worker id"}
        if leaving:
            self._workers.pop(worker, None)
            self._emit(f"worker {worker} deregistered")
        else:
            self._workers[worker] = self._clock()
            self._emit(f"worker {worker} registered "
                       f"(host {body.get('host', '?')}, pid {body.get('pid', '?')})")
        return 200, {"ok": True, "stop": self._stopping}

    def _handle_cache(self, body: Optional[Dict[str, Any]]) -> Tuple[int, Dict[str, Any]]:
        """One batched cache exchange: store ``put``, then look up ``get``.

        Puts land first, so an exchange that pushes and asks for one key
        finds it.  A put that is not a dict under an artifact key is
        counted in ``corrupt_cache_puts`` and never stored; so is an
        exchange whose body failed its integrity check, which may have
        carried puts.
        """
        if self.cache is None:
            return 404, {"error": "coordinator has no cache tier"}
        gets = body.get("get", []) if body is not None else None
        puts = body.get("put", {}) if body is not None else None
        if not isinstance(gets, list) or not isinstance(puts, dict):
            self._totals["corrupt_cache_puts"] += 1
            return 400, {"error": "corrupt cache exchange"}
        for key, payload in puts.items():
            if not isinstance(payload, dict) or not _ARTIFACT_KEY.fullmatch(key):
                self._totals["corrupt_cache_puts"] += 1
                continue
            self._totals["cache_puts"] += 1
            self.cache.put(key, payload)
        found: Dict[str, Any] = {}
        for key in gets:
            if not isinstance(key, str) or not _ARTIFACT_KEY.fullmatch(key):
                continue
            self._totals["cache_gets"] += 1
            payload = self.cache.get(key)
            if payload is not None:
                found[key] = payload
        return 200, {"found": found}

    def _handle_stats(self) -> Tuple[int, Dict[str, Any]]:
        now = self._clock()
        states = {"pending": 0, "claimed": 0, "backoff": 0, "done": 0, "failed": 0}
        for run in self._runs.values():
            for cell in run.cells.values():
                states[cell.status] += 1
        cache_block: Optional[Dict[str, Any]] = None
        if self.cache is not None:
            stats = self.cache.stats
            lookups = stats["hits"] + stats["misses"]
            cache_block = dict(stats)
            cache_block["hit_rate"] = (
                round(stats["hits"] / lookups, 4) if lookups else None
            )
            cache_block["root"] = str(self.cache.root)
        return 200, {
            "schema": NET_SCHEMA,
            "uptime_seconds": round(now - self._started, 3),
            "stopping": self._stopping,
            "runs": {"active": len(self._runs)},
            "cells": states,
            "counters": dict(self._totals),
            "workers": {
                wid: round(now - seen, 3)
                for wid, seen in sorted(self._workers.items())
            },
            "cache": cache_block,
        }

    def _handle_stop(self) -> Tuple[int, Dict[str, Any]]:
        self._stopping = True
        self._emit("stop requested: claims now answer stop=true")
        return 200, {"stopping": True}

    # ------------------------------------------------------------- dispatch
    def _dispatch(
        self, method: str, path: str, query: Dict[str, str],
        body: Optional[Dict[str, Any]],
    ) -> Tuple[int, Dict[str, Any]]:
        # Leases and backoffs are served by the periodic sweeper, not here:
        # a request costs no scan over every submitted cell.
        if path == "/api/v1/runs" and method == "POST":
            if body is None:
                return 400, {"error": "corrupt submission payload"}
            return self._handle_submit(body)
        if path.startswith("/api/v1/runs/"):
            run_id = path[len("/api/v1/runs/"):]
            if method == "GET":
                return self._handle_run_status(run_id)
            if method == "DELETE":
                return self._handle_run_delete(run_id)
            return 405, {"error": f"{method} not allowed on {path}"}
        if path == "/api/v1/claim" and method == "POST":
            return self._handle_claim(body or {})
        if path == "/api/v1/heartbeat" and method == "POST":
            return self._handle_heartbeat(body or {})
        if path == "/api/v1/results" and method == "POST":
            cid = query.get("cell", "")
            if not cid:
                return 400, {"error": "result upload needs ?cell=<id>"}
            return self._handle_result(cid, body)
        if path == "/api/v1/workers/register" and method == "POST":
            return self._handle_register(body or {}, leaving=False)
        if path == "/api/v1/workers/deregister" and method == "POST":
            return self._handle_register(body or {}, leaving=True)
        if path == "/api/v1/cache" and method == "POST":
            return self._handle_cache(body)
        if path in ("/api/v1/stats", "/stats") and method == "GET":
            return self._handle_stats()
        if path == "/api/v1/stop" and method == "POST":
            return self._handle_stop()
        if path == "/api/v1/health" and method == "GET":
            return 200, {"schema": NET_SCHEMA, "ok": True}
        return 404, {"error": f"no route for {method} {path}"}

    # ------------------------------------------------------------ http core
    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        """Serve one client connection until it closes (HTTP/1.1 keep-alive)."""
        task = asyncio.current_task()
        if task is not None:
            self._connections.add(task)
        self._totals["connections"] += 1
        try:
            keep_alive = True
            while keep_alive and not self._closing:
                self._idle.add(writer)
                try:
                    request_line = await reader.readline()
                finally:
                    self._idle.discard(writer)
                if not request_line:
                    break  # the client closed the connection between requests
                status, payload, keep_alive = await self._serve_one(request_line, reader)
                keep_alive = keep_alive and not self._closing
                self._totals["requests"] += 1
                body = signed_body(payload)
                head = (
                    f"HTTP/1.1 {status} {_REASONS.get(status, 'OK')}\r\n"
                    f"Content-Type: application/json\r\n"
                    f"Content-Length: {len(body)}\r\n"
                    f"Connection: {'keep-alive' if keep_alive else 'close'}\r\n\r\n"
                ).encode("ascii")
                writer.write(head + body)
                await writer.drain()
        except (ConnectionError, asyncio.IncompleteReadError):  # repro: allow-swallowed-exception -- a client that hung up mid-request needs no response; its retry loop recovers
            pass
        finally:
            if task is not None:
                self._connections.discard(task)
            try:
                writer.close()
                await writer.wait_closed()
            except OSError:  # repro: allow-swallowed-exception -- the socket is gone either way; nothing to flush to a dead peer
                pass

    async def _serve_one(
        self, request_line: bytes, reader: asyncio.StreamReader
    ) -> Tuple[int, Dict[str, Any], bool]:
        """Read the rest of one request and answer it.

        Returns ``(status, payload, keep_alive)``; ``keep_alive`` is false
        when the client asked to close (``Connection: close``, or HTTP/1.0
        without keep-alive) or the request cannot be framed.
        """
        parts = request_line.decode("latin-1").split()
        if len(parts) < 2:
            return 400, {"error": f"malformed request line {request_line!r}"}, False
        method, target = parts[0].upper(), parts[1]
        version = parts[2].upper() if len(parts) > 2 else "HTTP/1.0"
        headers: Dict[str, str] = {}
        while True:
            line = await reader.readline()
            if line in (b"\r\n", b"\n", b""):
                break
            name, _, value = line.decode("latin-1").partition(":")
            headers[name.strip().lower()] = value.strip()
        connection = headers.get("connection", "").lower()
        keep_alive = "close" not in connection and (
            version == "HTTP/1.1" or "keep-alive" in connection
        )
        length_field = headers.get("content-length", "0") or "0"
        if not length_field.isdigit():
            return 400, {"error": f"bad Content-Length {length_field!r}"}, False
        length = int(length_field)
        raw = await reader.readexactly(length) if length else b""
        path, _, query_string = target.partition("?")
        query: Dict[str, str] = {}
        for pair in query_string.split("&"):
            if "=" in pair:
                key, _, value = pair.partition("=")
                query[key] = value

        # Server-side chaos seams, keyed like the client-side ones: the
        # request's site label plus the sender's try number.
        plan = chaos.active_plan()
        if plan is not None:
            attempt = int(headers.get(TRY_HEADER.lower(), "1") or "1")
            label = site_label(method, path)
            slow = plan.decide("net-slow", label, attempt)
            if slow is not None:
                await asyncio.sleep(slow.seconds)
            if plan.decide("net-5xx", label, attempt) is not None:
                self._emit(f"chaos: answering 500 for {label} (try {attempt})")
                return 500, {"error": "chaos: injected server error"}, keep_alive

        body: Optional[Dict[str, Any]] = None
        if raw:
            body = self._parse_signed(raw)
        status, payload = self._dispatch(method, path, query, body)
        return status, payload, keep_alive

    @staticmethod
    def _parse_signed(raw: bytes) -> Optional[Dict[str, Any]]:
        """A verified request body, or ``None`` when corrupt."""
        try:
            payload = json.loads(raw.decode("utf-8"))
        except ValueError:  # repro: allow-swallowed-exception -- None IS the signal: every handler treats a corrupt body as a protocol state
            return None
        if not isinstance(payload, dict) or not verify_payload(payload):
            return None
        return payload

    # ------------------------------------------------------------ lifecycle
    async def start(self) -> None:
        """Bind the listening socket (resolves ``port=0`` to the real port)."""
        self._server = await asyncio.start_server(
            self._handle_connection, host=self.host, port=self.port
        )
        bound = self._server.sockets[0].getsockname()
        self.port = int(bound[1])
        self._emit(f"repro coordinator serving on http://{self.host}:{self.port} "
                   f"(cache: {self.cache.root if self.cache else 'disabled'})")

    async def serve_forever(self) -> None:
        """Serve until cancelled, running the periodic lease sweeper."""
        if self._server is None:
            await self.start()
        assert self._server is not None
        sweeper = asyncio.ensure_future(self._sweep_loop())
        try:
            async with self._server:
                try:
                    await self._server.serve_forever()
                finally:
                    await self.shutdown()
        finally:
            await _cancelled(sweeper)

    async def shutdown(self) -> None:
        """Stop accepting, close idle connections, and wait for busy ones.

        A connection waiting for its next request is closed at once; one
        in the middle of a request answers it with ``Connection: close``
        and then ends, so no handler is left to be cancelled.
        """
        self._closing = True
        if self._server is not None:
            self._server.close()
        for writer in list(self._idle):
            writer.close()
        if self._connections:
            await asyncio.wait(list(self._connections), timeout=5.0)

    async def _sweep_loop(self) -> None:
        """Expire leases even while no request is arriving."""
        while True:
            await asyncio.sleep(max(self.sweep_interval, 0.01))
            self._tick()

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"


class CoordinatorHandle:
    """A coordinator running on a background thread (tests, embedding).

    ``with CoordinatorHandle(cache_dir=...) as handle:`` starts the
    asyncio server on its own event loop thread, exposes ``handle.url``
    once the socket is bound, and tears everything down on exit.
    """

    def __init__(self, **kwargs: Any) -> None:
        self.coordinator = Coordinator(**kwargs)
        self._ready = threading.Event()
        self._stop: Optional[asyncio.Event] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._thread = threading.Thread(target=self._run, daemon=True)

    def _run(self) -> None:
        asyncio.run(self._main())

    async def _main(self) -> None:
        self._loop = asyncio.get_running_loop()
        self._stop = asyncio.Event()
        await self.coordinator.start()
        sweeper = asyncio.ensure_future(self.coordinator._sweep_loop())
        self._ready.set()
        assert self.coordinator._server is not None
        try:
            async with self.coordinator._server:
                await self._stop.wait()
                await self.coordinator.shutdown()
        finally:
            await _cancelled(sweeper)

    def start(self) -> "CoordinatorHandle":
        self._thread.start()
        if not self._ready.wait(timeout=10.0):
            raise RuntimeError("coordinator failed to start within 10s")
        return self

    def stop(self) -> None:
        if self._loop is not None and self._stop is not None:
            stop_event = self._stop
            self._loop.call_soon_threadsafe(stop_event.set)
        self._thread.join(timeout=10.0)

    @property
    def url(self) -> str:
        return self.coordinator.url

    def __enter__(self) -> "CoordinatorHandle":
        return self.start()

    def __exit__(self, *exc_info: Any) -> None:
        self.stop()


def run_coordinator(
    host: str = "127.0.0.1",
    port: int = 8520,
    cache_dir: Optional[Union[str, Path]] = None,
    lease_timeout: float = 30.0,
    max_cache_bytes: Optional[int] = None,
    log: Optional[Callable[[str], None]] = None,
    ready: Optional[Callable[[str], None]] = None,
) -> None:
    """Blocking ``repro serve`` entry point (Ctrl-C / SIGTERM to exit).

    ``ready`` (if given) receives the bound URL once the socket is
    listening — scripts starting a coordinator subprocess wait on that
    line instead of polling.
    """

    async def _main() -> None:
        coordinator = Coordinator(
            host=host,
            port=port,
            cache_dir=cache_dir,
            lease_timeout=lease_timeout,
            max_cache_bytes=max_cache_bytes,
            log=log,
        )
        await coordinator.start()
        if ready is not None:
            ready(coordinator.url)
        await coordinator.serve_forever()

    try:
        asyncio.run(_main())
    except KeyboardInterrupt:  # repro: allow-swallowed-exception -- Ctrl-C is the documented shutdown path of a foreground server
        pass


async def _cancelled(task: "asyncio.Task[None]") -> None:
    """Cancel a background task and wait until it has ended."""
    task.cancel()
    with contextlib.suppress(asyncio.CancelledError):
        await task


# Re-exported for socket-probing scripts that want a free port up front.
def free_port(host: str = "127.0.0.1") -> int:
    """An OS-assigned free TCP port (racy by nature; prefer ``port=0``)."""
    with socket.socket() as probe:
        probe.bind((host, 0))
        return int(probe.getsockname()[1])
