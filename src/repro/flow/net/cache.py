"""Remote artifact-cache tier shared by a whole fleet (read-through).

:class:`RemoteCache` is an :class:`~repro.flow.cache.ArtifactCache` whose
local directory fronts the coordinator's content-addressed cache tier.
Every remote operation is one batched ``POST /api/v1/cache`` exchange
(``{"get": [keys], "put": {key: payload}}`` answered by ``{"found":
{...}}``):

* :meth:`~RemoteCache.warm` asks for a batch of keys in one exchange and
  stores what the coordinator found in the local tier (read-through
  populate, counted as part of the read rather than as a write); the keys
  it reported absent are remembered and never asked for again;
* a local miss on any other key falls through to a one-key exchange;
* :meth:`~RemoteCache.put` stores locally and queues the push, and
  :meth:`~RemoteCache.flush` pushes the queue in one exchange, so other
  workers and clients see the artifacts once it returns.

A fleet cell (:func:`~repro.flow.cells.run_cell`) therefore costs one
exchange before its flow and one after it.

The failure posture is strictly *degrade to local*: the remote tier can
only ever add hits.  A corrupt download (failed sha256 envelope, torn
body, chaos ``net-corrupt``) is a counted miss, never trusted; an
unreachable coordinator makes ``get`` a plain local cache and ``flush``
best-effort.  No code path raises out of the cache because of the
network — cache failures must never fail a cell.
"""

from __future__ import annotations

from pathlib import Path
from typing import Any, Dict, Iterable, List, Mapping, Optional, Set, Union

from ..cache import ArtifactCache
from .protocol import CoordinatorError, IntegrityError, NotFoundError, request_with_retry

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
        #: Remote exchanges abandoned on transport/server failures.
        self.remote_errors = 0
        # Keys the coordinator reported absent, and writes not yet pushed.
        self._absent: Set[str] = set()
        self._unpushed: Dict[str, Dict[str, Any]] = {}

    # ----------------------------------------------------------------- tiers
    def get(self, key: str) -> Optional[Dict[str, Any]]:
        """Local tier first, then the coordinator; ``None`` only when both miss."""
        payload = self._load_local(key)
        if payload is None and key not in self._absent:
            payload = self._fetch([key]).get(key)
        if payload is None:
            self.misses += 1
            return None
        self.hits += 1
        return payload

    def put(self, key: str, payload: Mapping[str, Any]) -> None:
        """Store locally and queue the push for the next :meth:`flush`."""
        super().put(key, payload)
        self._unpushed[key] = dict(payload)

    def warm(self, keys: Iterable[str]) -> int:
        """Pull a batch of keys into the local tier in one exchange.

        Returns the number of artifacts fetched.  Keys already held
        locally or reported absent before are not asked for.
        """
        wanted = [
            key for key in dict.fromkeys(keys)
            if key not in self._absent and self._load_local(key) is None
        ]
        return len(self._fetch(wanted)) if wanted else 0

    def flush(self) -> int:
        """Push every queued write in one exchange; returns the number pushed.

        A failed push counts one ``remote_errors`` and drops the queue:
        the local artifacts stay, and a later worker re-pushes the same
        content addresses.
        """
        if not self._unpushed:
            return 0
        batch, self._unpushed = self._unpushed, {}
        try:
            self._exchange({"put": batch})
        except CoordinatorError:
            # Transport, 5xx and integrity failures alike: the local
            # artifacts are durable either way.
            self.remote_errors += 1
            return 0
        return len(batch)

    # ------------------------------------------------------------- transport
    def _exchange(self, body: Dict[str, Any]) -> Dict[str, Any]:
        """One ``POST /api/v1/cache`` round trip; the verified response."""
        return request_with_retry(
            f"{self.url}/api/v1/cache", "POST", body=body,
            timeout=self.timeout, tries=self.tries,
        )

    def _fetch(self, keys: List[str]) -> Dict[str, Dict[str, Any]]:
        """Ask the coordinator for ``keys``; store and return what it found.

        Found artifacts are copied into the local tier (a read-through
        populate: part of the read, so no write is counted); keys the
        coordinator reported absent are remembered.
        """
        try:
            found = self._exchange({"get": keys}).get("found")
        except NotFoundError:
            found = {}  # a coordinator without a cache tier holds nothing
        except IntegrityError:
            found = None
        except CoordinatorError:
            self.remote_errors += 1
            return {}
        if not isinstance(found, dict):
            # Corrupt download = miss: recomputing the stage is always
            # correct, trusting a torn artifact never is.
            self.remote_corrupt += 1
            return {}
        fetched: Dict[str, Dict[str, Any]] = {}
        for key in keys:
            payload = found.get(key)
            if payload is None:
                self.remote_misses += 1
                self._absent.add(key)
            elif isinstance(payload, dict):
                self.remote_hits += 1
                self._store_local(key, payload)
                fetched[key] = payload
            else:
                self.remote_corrupt += 1
        return fetched

    # ------------------------------------------------------------------ misc
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
