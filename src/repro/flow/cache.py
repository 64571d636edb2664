"""Content-addressed on-disk artifact cache of the flow pipeline.

Artifacts are JSON payloads keyed by ``(fsm digest, stage, config digest)``
— see :func:`artifact_key`.  A key addresses content, never identity, so a
re-run of a Table 2/3 sweep only recomputes the cells whose machine or
relevant configuration actually changed; everything else is served from
disk with zero stage work.

The layout is a two-level fan-out of JSON files (``ab/abcdef....json``)
under one root directory.  Writes are atomic (temp file + ``os.replace``)
so concurrent sweep workers sharing a cache directory never observe a torn
artifact; unparseable files are treated as misses and dropped.

The store is size-bounded on request: construct with ``max_bytes=`` (every
write then garbage-collects down to the bound) or call :meth:`gc`
explicitly.  Eviction is LRU by file mtime — hits touch their artifact, so
recently served results survive a collection (``repro cache gc`` from the
CLI drives the same code).
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
from pathlib import Path
from typing import Any, Dict, Iterable, Iterator, List, Mapping, Optional, Tuple, Union

from . import chaos

__all__ = ["ArtifactCache", "artifact_key", "default_cache_dir"]

#: Environment variable naming a default cache directory for CLI runs.
CACHE_ENV_VAR = "REPRO_FLOW_CACHE"

#: Generation tag mixed into every artifact key.  Bump whenever a stage
#: implementation changes its output for an unchanged configuration (a new
#: assignment heuristic, a different minimiser, ...) so persistent cache
#: directories from older code are invalidated instead of silently serving
#: stale results.
CACHE_GENERATION = 1


def artifact_key(fsm_digest: str, stage: str, config_digest: str) -> str:
    """The content address of one stage artifact."""
    payload = f"g{CACHE_GENERATION}\n{fsm_digest}\n{stage}\n{config_digest}"
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def default_cache_dir() -> Optional[Path]:
    """Cache directory named by ``$REPRO_FLOW_CACHE`` (or ``None``)."""
    value = os.environ.get(CACHE_ENV_VAR)
    return Path(value).expanduser() if value else None


class ArtifactCache:
    """A content-addressed JSON artifact store on the local filesystem."""

    def __init__(self, root: Union[str, Path], max_bytes: Optional[int] = None) -> None:
        if max_bytes is not None and max_bytes < 0:
            raise ValueError("max_bytes must be >= 0")
        self.root = Path(root).expanduser()
        self.max_bytes = max_bytes
        self.hits = 0
        self.misses = 0
        self.writes = 0
        self.evictions = 0
        # Corrupt artifacts encountered (and dropped) by get(); every one
        # also counts as a miss, so hit/miss accounting is unchanged.
        self.corrupt = 0
        # Approximate store size, maintained incrementally so bounded
        # writes do not rescan the whole store; authoritative totals come
        # from the full stat() pass inside gc().
        self._approx_bytes: Optional[int] = None

    @classmethod
    def from_env(cls) -> Optional["ArtifactCache"]:
        """The cache named by ``$REPRO_FLOW_CACHE``, or ``None``."""
        root = default_cache_dir()
        return cls(root) if root is not None else None

    # ------------------------------------------------------------------- I/O
    def path_for(self, key: str) -> Path:
        return self.root / key[:2] / f"{key}.json"

    def _load_local(self, key: str) -> Optional[Dict[str, Any]]:
        """Read the local artifact for ``key`` without hit/miss accounting.

        Corrupt artifacts (torn writes, injected chaos) are dropped and
        counted; the caller decides whether the ``None`` is a terminal
        miss or the trigger for a remote-tier lookup (see
        :class:`repro.flow.net.cache.RemoteCache`).
        """
        path = self.path_for(key)
        try:
            payload = json.loads(path.read_text())
        except OSError:  # repro: allow-swallowed-exception -- a missing/unreadable artifact IS the miss; the caller does the hit/miss accounting
            return None
        except ValueError:
            # A torn or corrupted artifact (bad JSON, bad UTF-8 — note
            # UnicodeDecodeError is a ValueError): drop it, treat as a miss.
            try:
                path.unlink()
            except OSError:  # repro: allow-swallowed-exception -- a concurrent reader dropped it first; the miss below is the record
                pass
            self.corrupt += 1
            return None
        if not isinstance(payload, dict):
            # Valid JSON but not a stage payload (e.g. a truncated "[]"):
            # same corrupt-artifact treatment.
            try:
                path.unlink()
            except OSError:  # repro: allow-swallowed-exception -- a concurrent reader dropped it first; the miss below is the record
                pass
            self.corrupt += 1
            return None
        try:
            os.utime(path)  # touch: LRU eviction spares recently served artifacts
        except OSError:  # repro: allow-swallowed-exception -- LRU recency is advisory; a failed touch only ages the entry
            pass
        return payload

    def get(self, key: str) -> Optional[Dict[str, Any]]:
        """The stored payload for ``key``, or ``None`` on a miss."""
        payload = self._load_local(key)
        if payload is None:
            self.misses += 1
            return None
        self.hits += 1
        return payload

    def put(self, key: str, payload: Mapping[str, Any]) -> None:
        """Store ``payload`` under ``key`` (atomic replace); counts a write."""
        self._store_local(key, payload)
        self.writes += 1

    def warm(self, keys: Iterable[str]) -> int:
        """Prefetch ``keys`` from a remote tier; the local store has none."""
        return 0

    def flush(self) -> int:
        """Push queued writes to a remote tier; local writes are already durable."""
        return 0

    def _store_local(self, key: str, payload: Mapping[str, Any]) -> None:
        """Store ``payload`` under ``key`` without write accounting.

        :class:`repro.flow.net.cache.RemoteCache` populates its local tier
        through here: copying what a lookup just read is part of the read,
        not a write.
        """
        path = self.path_for(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        fd, tmp_name = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
        try:
            with os.fdopen(fd, "w") as handle:
                json.dump(payload, handle, separators=(",", ":"))
            os.replace(tmp_name, path)
        except BaseException:
            try:
                os.unlink(tmp_name)
            except OSError:  # repro: allow-swallowed-exception -- best-effort tmp cleanup while re-raising the original error
                pass
            raise
        plan = chaos.active_plan()
        if plan is not None and plan.decide("corrupt-cache", key) is not None:
            # Chaos seam: corrupt the just-written artifact.  The recovery
            # under test is get()'s corrupt-entry-as-miss path — the next
            # reader drops the garbage and recomputes the stage.
            chaos.corrupt_file(path)
        if self.max_bytes is not None:
            if self._approx_bytes is None:
                self._approx_bytes = self.total_bytes()
            else:
                try:
                    self._approx_bytes += path.stat().st_size
                except OSError:  # repro: allow-swallowed-exception -- size delta is approximate by design; gc() re-measures
                    pass
            # Only pay the full eviction scan once the tracked total
            # crosses the bound (concurrent writers make the tracked
            # value approximate; gc() re-measures authoritatively).
            if self._approx_bytes > self.max_bytes:
                self.gc()

    # ------------------------------------------------------------ management
    def _artifact_paths(self) -> Iterator[Path]:
        if not self.root.exists():
            return iter(())
        return self.root.glob("*/*.json")

    def __len__(self) -> int:
        return sum(1 for _ in self._artifact_paths())

    def total_bytes(self) -> int:
        """The summed on-disk size of every stored artifact."""
        total = 0
        for path in self._artifact_paths():
            try:
                total += path.stat().st_size
            except OSError:  # repro: allow-swallowed-exception -- entry evicted mid-scan; the total is advisory
                pass
        return total

    def clear(self) -> int:
        """Delete every stored artifact; returns the number removed."""
        removed = 0
        for path in list(self._artifact_paths()):
            try:
                path.unlink()
                removed += 1
            except OSError:  # repro: allow-swallowed-exception -- entry vanished concurrently; removal count stays honest
                pass
        self._approx_bytes = 0
        return removed

    def gc(self, max_bytes: Optional[int] = None) -> Dict[str, int]:
        """Evict least-recently-used artifacts until the store fits.

        ``max_bytes`` overrides the instance bound for this collection
        (``None`` falls back to ``self.max_bytes``; with neither set the
        call only reports sizes).  Returns ``removed`` / ``freed_bytes`` /
        ``total_bytes`` (remaining).
        """
        bound = self.max_bytes if max_bytes is None else max_bytes
        entries: List[Tuple[float, int, Path]] = []
        total = 0
        for path in self._artifact_paths():
            try:
                stat = path.stat()
            except OSError:  # repro: allow-swallowed-exception -- entry vanished mid-scan; it costs no bytes to evict
                continue
            entries.append((stat.st_mtime, stat.st_size, path))
            total += stat.st_size
        removed = 0
        freed = 0
        if bound is not None and total > bound:
            entries.sort()  # oldest mtime first: LRU because hits touch
            for _, size, path in entries:
                if total <= bound:
                    break
                try:
                    path.unlink()
                except OSError:  # repro: allow-swallowed-exception -- a concurrent gc evicted it; totals reconcile below
                    continue
                total -= size
                removed += 1
                freed += size
        self.evictions += removed
        self._approx_bytes = total
        return {"removed": removed, "freed_bytes": freed, "total_bytes": total}

    @property
    def stats(self) -> Dict[str, int]:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "writes": self.writes,
            "evictions": self.evictions,
            "corrupt": self.corrupt,
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ArtifactCache({str(self.root)!r}, hits={self.hits}, misses={self.misses})"
