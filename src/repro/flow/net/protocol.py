"""Wire protocol of the HTTP coordinator path (schema ``repro.net/1``).

Both sides of every exchange speak JSON envelopes carrying the same
``sha256`` integrity signature the filesystem queue already uses
(:func:`repro.flow.backends.queue.sign_payload`): a payload corrupted in
transit — torn proxy buffer, injected chaos, bad NIC — is *detected*, not
trusted, and the drop/resubmit recovery of the queue backend applies
unchanged.

The client transport (:func:`request`, :func:`request_with_retry`) is
stdlib-only (``http.client``).  It keeps one persistent HTTP/1.1
connection per (thread, coordinator) — a worker's claim, cache exchange,
result upload and next claim all travel over one socket — reconnects once
when the coordinator has dropped an idle connection, and carries the two
client-side chaos seams of the network fault model:

* ``net-drop`` — the connection is dropped before the request is sent
  (the coordinator never sees it),
* ``net-corrupt`` — the response body bytes are corrupted before parsing.

Both are keyed by the request's site label ``"METHOD /path"`` plus the
transport's per-request *try* number (sent as the ``X-Repro-Try`` header,
which is also what the coordinator-side ``net-5xx`` / ``net-slow`` seams
key on), so a rule with ``attempts=[1]`` is a transient fault — the first
try fails and the retry goes through — and an unrestricted rule a hard
partition.
"""

from __future__ import annotations

import hashlib
import http.client
import json
import os
import threading
import time
from typing import Any, Dict, Mapping, Optional, Tuple
from urllib.parse import urlsplit

from .. import chaos
from ..backends.queue import canonical_json, verify_payload

__all__ = [
    "NET_SCHEMA",
    "TRY_HEADER",
    "CoordinatorError",
    "TransportError",
    "ServerError",
    "close_connections",
    "NotFoundError",
    "IntegrityError",
    "request",
    "request_with_retry",
    "signed_body",
    "site_label",
]

NET_SCHEMA = "repro.net/1"

#: Header carrying the sender's per-request try number — the attempt key
#: of every network chaos decision, client- and coordinator-side.
TRY_HEADER = "X-Repro-Try"

#: Default per-request socket timeout in seconds.
DEFAULT_TIMEOUT = 30.0


class CoordinatorError(RuntimeError):
    """Base class of every coordinator-path communication failure."""


class TransportError(CoordinatorError):
    """The request never completed (refused, dropped, timed out)."""


class ServerError(CoordinatorError):
    """The coordinator answered with a 5xx status."""

    def __init__(self, status: int, detail: str) -> None:
        super().__init__(f"coordinator returned {status}: {detail}")
        self.status = status


class NotFoundError(CoordinatorError):
    """The coordinator answered 404 (an unknown run, a cache miss)."""


class IntegrityError(CoordinatorError):
    """The response body failed to parse or failed its sha256 check."""


def site_label(method: str, path: str) -> str:
    """The chaos site label of one request: ``"METHOD /path"``."""
    return f"{method} {path}"


def signed_body(payload: Mapping[str, Any]) -> bytes:
    """Serialize a payload with its integrity signature (UTF-8 JSON).

    The payload is encoded once, canonically: the sha256 of those bytes is
    the signature, and the ``sha256`` field is spliced into them as the
    last member, so :func:`verify_payload` accepts the parsed body.
    """
    canonical = canonical_json(payload)
    digest = hashlib.sha256(canonical).hexdigest().encode("ascii")
    separator = b"," if len(canonical) > 2 else b""  # b"{}" has no members
    return canonical[:-1] + separator + b'"sha256":"' + digest + b'"}'


def _parse_response(raw: bytes) -> Dict[str, Any]:
    """Decode a response body; :class:`IntegrityError` when unusable."""
    try:
        payload = json.loads(raw.decode("utf-8"))
    except ValueError as exc:
        raise IntegrityError(f"unparseable response body: {exc}") from exc
    if not isinstance(payload, dict):
        raise IntegrityError("response body is not a JSON object")
    if not verify_payload(payload):
        raise IntegrityError("response body failed its sha256 integrity check")
    return payload


#: Per-thread pool of persistent coordinator connections, keyed by netloc.
_local = threading.local()

#: Failures of a *reused* connection that mean the coordinator closed it
#: while it sat idle (a restart, a stop, a dropped keep-alive): the request
#: is sent once more on a fresh connection.  A fresh connection that fails
#: is a :class:`TransportError` at once.
_STALE_ERRORS = (
    http.client.RemoteDisconnected,
    ConnectionResetError,
    ConnectionAbortedError,
    BrokenPipeError,
)


def _pool() -> Dict[str, http.client.HTTPConnection]:
    pool: Optional[Dict[str, http.client.HTTPConnection]] = getattr(_local, "pool", None)
    if pool is None:
        pool = {}
        _local.pool = pool
    return pool


def close_connections() -> None:
    """Close the calling thread's persistent coordinator connections."""
    pool = _pool()
    for connection in pool.values():
        connection.close()
    pool.clear()


# A forked child (the process-pool backend) must not talk over its
# parent's sockets: it drops its copies and connects on its own.
os.register_at_fork(after_in_child=close_connections)


def request(
    url: str,
    method: str = "GET",
    body: Optional[Mapping[str, Any]] = None,
    timeout: float = DEFAULT_TIMEOUT,
    attempt: int = 1,
) -> Dict[str, Any]:
    """One signed JSON round trip to the coordinator.

    ``url`` is the full endpoint URL.  The exchange reuses the calling
    thread's connection to the URL's host.  Raises :class:`TransportError`
    on connection failures, :class:`ServerError` on 5xx answers (both
    worth retrying), :class:`IntegrityError` on corrupt response bodies,
    and :class:`CoordinatorError` on 4xx protocol rejections (not retried
    — the coordinator understood the request and said no).
    """
    parts = urlsplit(url)
    path = parts.path or "/"
    # The query string stays out of the label: chaos site labels address
    # endpoints.
    label = site_label(method, path)
    if parts.scheme != "http" or not parts.netloc:
        raise TransportError(f"{label}: unsupported coordinator URL {url!r}")
    plan = chaos.active_plan()
    if plan is not None and plan.decide("net-drop", label, attempt) is not None:
        raise TransportError(f"chaos: dropped connection for {label} (try {attempt})")
    data = signed_body(body) if body is not None else None
    headers = {"Content-Type": "application/json", TRY_HEADER: str(attempt)}
    target = f"{path}?{parts.query}" if parts.query else path
    pool = _pool()
    connection = pool.get(parts.netloc)
    reused = connection is not None
    if connection is None:
        connection = http.client.HTTPConnection(parts.netloc, timeout=timeout)
        pool[parts.netloc] = connection
    while True:
        try:
            connection.timeout = timeout
            if connection.sock is not None:
                connection.sock.settimeout(timeout)
            connection.request(method, target, body=data, headers=headers)
            response = connection.getresponse()
            raw = response.read()
            status = int(response.status)
            break
        except (http.client.HTTPException, OSError) as exc:
            connection.close()
            if reused and isinstance(exc, _STALE_ERRORS):
                reused = False
                continue
            pool.pop(parts.netloc, None)
            raise TransportError(f"{label}: {exc}") from exc
    if plan is not None and plan.decide("net-corrupt", label, attempt) is not None:
        raw = b'{"chaos": "corrupt http payload...'
    if status >= 500:
        raise ServerError(status, _error_detail(raw))
    if status == 404:
        raise NotFoundError(f"{label}: {_error_detail(raw)}")
    if status >= 400:
        raise CoordinatorError(
            f"coordinator rejected {label} with {status}: {_error_detail(raw)}"
        )
    return _parse_response(raw)


def _error_detail(raw: bytes) -> str:
    """Best-effort human detail out of an error response body."""
    try:
        payload = json.loads(raw.decode("utf-8"))
    except ValueError:  # repro: allow-swallowed-exception -- error bodies are diagnostics only; the status code already carries the decision
        return raw.decode("utf-8", "replace")[:200]
    if isinstance(payload, dict) and "error" in payload:
        return str(payload["error"])
    return raw.decode("utf-8", "replace")[:200]


def request_with_retry(
    url: str,
    method: str = "GET",
    body: Optional[Mapping[str, Any]] = None,
    timeout: float = DEFAULT_TIMEOUT,
    tries: int = 3,
    backoff_base: float = 0.1,
) -> Dict[str, Any]:
    """:func:`request` with bounded retries on transport-level failures.

    Retries :class:`TransportError` / :class:`ServerError` /
    :class:`IntegrityError` with exponential backoff (``backoff_base * 2
    ^ (try - 1)``); 4xx rejections and successes return immediately.  The
    try number is passed through to the chaos seams, which is what makes
    an ``attempts=[1]`` network fault rule transient.
    """
    if tries < 1:
        raise ValueError("tries must be >= 1")
    last: Optional[CoordinatorError] = None
    for attempt in range(1, tries + 1):
        try:
            return request(url, method=method, body=body, timeout=timeout,
                           attempt=attempt)
        except (TransportError, ServerError, IntegrityError) as exc:
            last = exc
            if attempt < tries:
                time.sleep(backoff_base * 2.0 ** (attempt - 1))
    assert last is not None
    raise last


def check_schema(payload: Mapping[str, Any]) -> None:
    """Reject payloads from an incompatible coordinator/client."""
    schema = payload.get("schema", NET_SCHEMA)
    if schema != NET_SCHEMA:
        raise CoordinatorError(
            f"unsupported coordinator schema {schema!r} (expected {NET_SCHEMA!r})"
        )


def split_netloc(url: str) -> Tuple[str, int]:
    """``(host, port)`` of a coordinator URL (default port 8520)."""
    trimmed = url.split("://", 1)[-1].split("/", 1)[0]
    if ":" in trimmed:
        host, _, port = trimmed.rpartition(":")
        return host, int(port)
    return trimmed, 8520
