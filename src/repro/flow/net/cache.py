"""Remote artifact-cache tier shared by a whole fleet (read-through).

:class:`RemoteCache` is an :class:`~repro.flow.cache.ArtifactCache` whose
local directory holds only what this process computed; everything else is
read through the coordinator's content-addressed cache tier.  Every
remote operation is one batched ``POST /api/v1/cache`` exchange
(``{"get": [keys], "put": {key: payload}}`` answered by ``{"found":
{...}}``):

* :meth:`~RemoteCache.warm` asks for a batch of keys in one exchange and
  holds what the coordinator found in memory, beside any of the keys
  already on local disk; the keys it reported absent are remembered and
  never asked for again;
* :meth:`~RemoteCache.get` serves a held artifact as a fresh copy, reads
  the local directory next, and falls through to a one-key exchange;
* :meth:`~RemoteCache.put` stores locally and queues the push, and
  :meth:`~RemoteCache.flush` pushes the queue in one exchange, so other
  workers and clients see the artifacts once it returns.

A fleet cell (:func:`~repro.flow.cells.run_cell`) builds one instance, so
what is held in memory is one cell's stage artifacts, and the cell costs
one exchange before its flow and one after it.  Nothing read from the
coordinator is written to disk: a fresh worker's directory stays empty
until it computes a stage itself.

The failure posture is strictly *degrade to local*: the remote tier can
only ever add hits.  A corrupt download (failed sha256 envelope, torn
body, chaos ``net-corrupt``) is a counted miss, never trusted; an
unreachable coordinator makes ``get`` a plain local cache and ``flush``
best-effort.  No code path raises out of the cache because of the
network — cache failures must never fail a cell.
"""

from __future__ import annotations

import pickle
from pathlib import Path
from typing import Any, Dict, Iterable, List, Mapping, Optional, Set, Union

from ..cache import ArtifactCache
from .protocol import CoordinatorError, IntegrityError, NotFoundError, request_with_retry

__all__ = ["RemoteCache"]


class RemoteCache(ArtifactCache):
    """A coordinator-backed cache tier over a local directory of own writes.

    Args:
        url: coordinator base URL (``http://host:port``).
        root: local directory of the artifacts this process writes (hits
            served from here never touch the network); artifacts read
            from the coordinator are held in memory, never stored here.
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
        # Artifacts read once (from the coordinator, or from disk by warm),
        # pickled so that every get unpickles its own copy; keys the
        # coordinator reported absent; and writes not yet pushed.
        self._held: Dict[str, bytes] = {}
        self._absent: Set[str] = set()
        self._unpushed: Dict[str, Dict[str, Any]] = {}

    # ----------------------------------------------------------------- tiers
    def get(self, key: str) -> Optional[Dict[str, Any]]:
        """Held artifacts, the local directory, then the coordinator.

        ``None`` only when every tier misses.  A held artifact is served
        as a fresh copy, so a caller that mutates its payload never changes
        what the next ``get`` of the key returns.
        """
        if key not in self._held:
            payload = self._load_local(key)
            if payload is not None:
                self.hits += 1
                return payload
            if key in self._absent or not self._fetch([key]):
                self.misses += 1
                return None
        self.hits += 1
        return pickle.loads(self._held[key])

    def put(self, key: str, payload: Mapping[str, Any]) -> None:
        """Store locally and queue the push for the next :meth:`flush`."""
        super().put(key, payload)
        self._unpushed[key] = dict(payload)

    def warm(self, keys: Iterable[str]) -> int:
        """Hold a batch of keys in memory, asking for the rest in one exchange.

        Keys on local disk are read here once and held; keys already held
        or reported absent before are not asked for.  Returns the number
        of artifacts fetched from the coordinator.
        """
        wanted: List[str] = []
        for key in dict.fromkeys(keys):
            if key in self._held or key in self._absent:
                continue
            payload = self._load_local(key)
            if payload is None:
                wanted.append(key)
            else:
                self._held[key] = pickle.dumps(payload, pickle.HIGHEST_PROTOCOL)
        return self._fetch(wanted) if wanted else 0

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

    def _fetch(self, keys: List[str]) -> int:
        """Ask the coordinator for ``keys``; returns how many it found.

        Found artifacts are held in memory; keys the coordinator reported
        absent are remembered.
        """
        try:
            found = self._exchange({"get": keys}).get("found")
        except NotFoundError:
            found = {}  # a coordinator without a cache tier holds nothing
        except IntegrityError:
            found = None
        except CoordinatorError:
            self.remote_errors += 1
            return 0
        if not isinstance(found, dict):
            # Corrupt download = miss: recomputing the stage is always
            # correct, trusting a torn artifact never is.
            self.remote_corrupt += 1
            return 0
        fetched = 0
        for key in keys:
            payload = found.get(key)
            if payload is None:
                self.remote_misses += 1
                self._absent.add(key)
            elif isinstance(payload, dict):
                self.remote_hits += 1
                self._held[key] = pickle.dumps(payload, pickle.HIGHEST_PROTOCOL)
                fetched += 1
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
