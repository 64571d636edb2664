"""Pluggable execution backends of the sweep orchestrator.

Three implementations of the :class:`SweepExecutor` interface:

* :class:`SerialExecutor` — in-process reference path,
* :class:`LocalPoolExecutor` — one shared local process pool
  (the former ``Sweep(jobs=N)`` behaviour),
* :class:`QueueExecutor` — a filesystem work-queue shared with
  ``repro worker`` daemons, for fan-out beyond one process or host,
* ``HttpExecutor`` (:mod:`repro.flow.net.client`) — a ``repro serve``
  HTTP coordinator servicing ``repro worker --url`` fleets across hosts
  with no shared filesystem at all.

All backends run cells through :func:`repro.flow.cells.run_cell` and
merge outcomes in submission order, so sweep results are bit-identical
across backends and worker counts (modulo timing/worker metadata).
"""

from __future__ import annotations

from pathlib import Path
from typing import Optional, Union

from .base import ExecutionReport, SweepExecutor
from .pool import LocalPoolExecutor
from ..ledger import RetryPolicy
from .queue import QueueExecutor
from .serial import SerialExecutor

__all__ = [
    "ExecutionReport",
    "SweepExecutor",
    "SerialExecutor",
    "LocalPoolExecutor",
    "QueueExecutor",
    "RetryPolicy",
    "BACKEND_NAMES",
    "resolve_backend",
]

#: The names ``resolve_backend`` (and the CLI ``--backend`` flag) accept.
BACKEND_NAMES = ("serial", "pool", "queue", "http")


def resolve_backend(
    spec: Optional[Union[str, SweepExecutor]] = None,
    *,
    jobs: int = 1,
    queue_dir: Optional[Union[str, Path]] = None,
    coordinator_url: Optional[str] = None,
    lease_timeout: float = 30.0,
    poll_interval: float = 0.05,
    timeout: Optional[float] = None,
    retry: Optional[RetryPolicy] = None,
) -> SweepExecutor:
    """Turn a backend spec into a :class:`SweepExecutor`.

    ``spec`` may be an executor instance (returned as-is), one of the
    names in :data:`BACKEND_NAMES`, or ``None`` for the back-compat
    mapping of the old ``Sweep(jobs=N)`` API: ``jobs > 1`` selects the
    local pool, otherwise the serial backend.
    """
    if isinstance(spec, SweepExecutor):
        return spec
    if spec is None:
        spec = "pool" if jobs > 1 else "serial"
    if spec == "serial":
        return SerialExecutor()
    if spec == "pool":
        return LocalPoolExecutor(jobs=jobs)
    if spec == "queue":
        if queue_dir is None:
            raise ValueError("the queue backend needs a queue_dir")
        return QueueExecutor(
            queue_dir,
            lease_timeout=lease_timeout,
            poll_interval=poll_interval,
            timeout=timeout,
            retry=retry,
        )
    if spec == "http":
        if coordinator_url is None:
            raise ValueError("the http backend needs a coordinator_url")
        # Lazy import: repro.flow.net sits above backends in the layering
        # (its client builds on this package's base/queue modules).
        from ..net.client import HttpExecutor

        return HttpExecutor(
            coordinator_url,
            lease_timeout=lease_timeout,
            poll_interval=max(poll_interval, 0.05),
            timeout=timeout,
            retry=retry,
        )
    raise ValueError(f"unknown sweep backend {spec!r} (expected one of {BACKEND_NAMES})")
