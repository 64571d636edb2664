"""Remote artifact-cache tier shared by a whole fleet (read-through).

:class:`RemoteCache` is an :class:`~repro.flow.cache.ArtifactCache` whose
local directory fronts the coordinator's content-addressed cache
endpoints: a local miss falls through to ``GET /api/v1/cache/<key>``, a
remote hit is stored locally (read-through populate, counted as part of
the read rather than as a write) so the next lookup never leaves the
host, and every write is pushed back with ``PUT`` so other workers and
clients see it.

The failure posture is strictly *degrade to local*: the remote tier can
only ever add hits.  A corrupt download (failed sha256 envelope, torn
body, chaos ``net-corrupt``) is a counted miss, never trusted; an
unreachable coordinator makes ``get`` a plain local cache and ``put``
best-effort.  No code path raises out of the cache because of the
network — cache failures must never fail a cell.
"""

from __future__ import annotations

from pathlib import Path
from typing import Any, Dict, Mapping, Optional, Union

from ..cache import ArtifactCache
from .protocol import (
    CoordinatorError,
    IntegrityError,
    NotFoundError,
    request_with_retry,
)

__all__ = ["RemoteCache"]


class RemoteCache(ArtifactCache):
    """A coordinator-backed cache tier over a local read-through directory.

    Args:
        url: coordinator base URL (``http://host:port``).
        root: local read-through directory (hits served from here never
            touch the network).
        max_bytes: LRU bound of the *local* tier (the coordinator bounds
            its own store).
        timeout: per-request socket timeout in seconds.
        tries: transport retries per remote operation (kept small — a
            slow remote tier must not stall stage work for long).
    """

    def __init__(
        self,
        url: str,
        root: Union[str, Path],
        max_bytes: Optional[int] = None,
        timeout: float = 10.0,
        tries: int = 2,
    ) -> None:
        super().__init__(root, max_bytes=max_bytes)
        #: Coordinator base URL; ``Sweep.cells()`` reads this attribute to
        #: ship ``cache_url`` with every task payload.
        self.url = url.rstrip("/")
        self.timeout = float(timeout)
        self.tries = int(tries)
        self.remote_hits = 0
        self.remote_misses = 0
        #: Downloads dropped by the integrity check (= served as misses).
        self.remote_corrupt = 0
        #: Remote operations abandoned on transport/server failures.
        self.remote_errors = 0

    def _endpoint(self, key: str) -> str:
        return f"{self.url}/api/v1/cache/{key}"

    # ----------------------------------------------------------------- tiers
    def get(self, key: str) -> Optional[Dict[str, Any]]:
        """Local tier first, then the coordinator; ``None`` only when both miss."""
        payload = self._load_local(key)
        if payload is not None:
            self.hits += 1
            return payload
        payload = self._remote_get(key)
        if payload is not None:
            self.remote_hits += 1
            self.hits += 1
            # Read-through populate: the next lookup is a local hit.  The
            # local tier's bound still applies; nothing is re-uploaded, and
            # the copy is part of this read, so it counts no write.
            self._store_local(key, payload)
            return payload
        self.misses += 1
        return None

    def _remote_get(self, key: str) -> Optional[Dict[str, Any]]:
        try:
            envelope = request_with_retry(
                self._endpoint(key), "GET", timeout=self.timeout, tries=self.tries
            )
        except NotFoundError:
            self.remote_misses += 1
            return None
        except IntegrityError:
            # Corrupt download = miss: recomputing the stage is always
            # correct, trusting a torn artifact never is.
            self.remote_corrupt += 1
            return None
        except CoordinatorError:
            self.remote_errors += 1
            return None
        payload = envelope.get("payload")
        if envelope.get("key") != key or not isinstance(payload, dict):
            self.remote_corrupt += 1
            return None
        return payload

    def put(self, key: str, payload: Mapping[str, Any]) -> None:
        """Store locally, then push to the coordinator (best-effort)."""
        super().put(key, payload)
        try:
            request_with_retry(
                self._endpoint(key),
                "PUT",
                body={"key": key, "payload": dict(payload)},
                timeout=self.timeout,
                tries=self.tries,
            )
        except CoordinatorError:
            # Covers transport, 5xx and integrity failures alike: the
            # local artifact is durable either way, and a later worker
            # will re-push the same content address.
            self.remote_errors += 1

    # ------------------------------------------------------------------ misc
    def warm(self, keys: Any) -> int:
        """Pull a batch of keys into the local tier; returns hits fetched."""
        fetched = 0
        for key in keys:
            if self._load_local(key) is not None:
                continue
            payload = self._remote_get(key)
            if payload is not None:
                self._store_local(key, payload)
                fetched += 1
        return fetched

    @property
    def stats(self) -> Dict[str, int]:
        data = super().stats
        data["remote_hits"] = self.remote_hits
        data["remote_misses"] = self.remote_misses
        data["remote_corrupt"] = self.remote_corrupt
        data["remote_errors"] = self.remote_errors
        return data

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"RemoteCache({self.url!r}, {str(self.root)!r}, "
            f"hits={self.hits}, remote_hits={self.remote_hits})"
        )
