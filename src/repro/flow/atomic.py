"""Atomic file writes, the one way every flow-layer file lands on disk.

A file is written to a sibling temp file and ``os.replace``-d into place,
so a concurrent reader — a queue worker scanning ``tasks/``, a cache
lookup, a worker loading a chaos plan — sees the whole old file or the
whole new one, never a torn write.
"""

from __future__ import annotations

import os
import tempfile
from pathlib import Path
from typing import Union

__all__ = ["write_atomic"]


def write_atomic(path: Union[str, Path], data: bytes) -> None:
    """Write ``data`` to ``path`` through a temp file and ``os.replace``."""
    target = Path(path)
    target.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp_name = tempfile.mkstemp(dir=target.parent, suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as handle:
            handle.write(data)
        os.replace(tmp_name, target)
    except BaseException:
        try:
            os.unlink(tmp_name)
        except OSError:  # repro: allow-swallowed-exception -- best-effort tmp cleanup while re-raising the original error
            pass
        raise
