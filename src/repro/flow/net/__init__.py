"""Synthesis-as-a-service: the HTTP coordinator path of the sweep layer.

Stdlib-only (``asyncio`` + ``http.client``) networking that lets the
distributed sweep span hosts without a shared filesystem:

* :mod:`~repro.flow.net.coordinator` — the ``repro serve`` asyncio HTTP
  coordinator (cell submission/claim/lease/result endpoints, a shared
  content-addressed cache tier, ``/stats``),
* :mod:`~repro.flow.net.client` — :class:`HttpExecutor`
  (``Sweep(backend="http", coordinator_url=...)``) and the
  ``repro worker --url`` fleet loop,
* :mod:`~repro.flow.net.cache` — :class:`RemoteCache`, a read-through
  client of the coordinator's batched cache exchange that keeps what it
  reads in memory and only its own writes on disk,
* :mod:`~repro.flow.net.protocol` — the signed-JSON wire protocol
  (schema ``repro.net/1``) and its chaos seams.
"""

from .cache import RemoteCache
from .client import HttpExecutor, run_http_worker
from .coordinator import Coordinator, CoordinatorHandle, run_coordinator
from .protocol import (
    NET_SCHEMA,
    CoordinatorError,
    IntegrityError,
    NotFoundError,
    ServerError,
    TransportError,
)

__all__ = [
    "NET_SCHEMA",
    "Coordinator",
    "CoordinatorHandle",
    "CoordinatorError",
    "HttpExecutor",
    "IntegrityError",
    "NotFoundError",
    "RemoteCache",
    "ServerError",
    "TransportError",
    "run_coordinator",
    "run_http_worker",
]
