"""Content-addressed result cache: LRU front, optional JSON disk store.

Values are JSON-representable dicts (a solved cell plus its solve
metadata) keyed by :func:`repro.service.keys.task_key`.  The in-memory
front is a plain ordered-dict LRU; the optional persistent store is a
single human-readable JSON file, loaded on construction and rewritten
atomically (temp file + ``os.replace``) on :meth:`flush`.

The disk store mirrors the in-memory contents, so the LRU ``capacity``
also bounds the file; a corrupt or version-mismatched file is treated
as empty rather than an error (a cache must never take the service
down).
"""

from __future__ import annotations

import json
import os
import tempfile
import threading
from collections import OrderedDict
from collections.abc import Iterable
from dataclasses import dataclass
from pathlib import Path
from typing import Any

from repro.service.keys import SCHEMA_VERSION

_STORE_FORMAT = "repro.service.cache"


@dataclass
class CacheStats:
    """Lifetime counters of one cache instance."""

    hits: int = 0
    misses: int = 0
    evictions: int = 0
    stores: int = 0

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        """Hits over lookups; 0.0 before the first lookup."""
        return self.hits / self.lookups if self.lookups else 0.0


class ResultCache:
    """LRU cache of solved cells with an optional JSON file behind it.

    Parameters
    ----------
    capacity:
        Maximum number of entries held (and persisted).  Least recently
        *used* entries are evicted first.
    path:
        Optional JSON file for persistence across processes/runs.  The
        file is read once at construction; call :meth:`flush` to write
        back.  :class:`~repro.service.executor.SweepExecutor` flushes
        after every fresh cell it stores -- each MVA cell once its batch
        solve returns, each simulation cell as soon as its launch
        returns -- and once more at the end of the sweep.
    """

    def __init__(self, capacity: int = 4096,
                 path: str | os.PathLike[str] | None = None):
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity!r}")
        self.capacity = capacity
        self.path = Path(path) if path is not None else None
        self.stats = CacheStats()
        self._lock = threading.Lock()
        self._entries: OrderedDict[str, dict[str, Any]] = OrderedDict()
        self._dirty = False
        if self.path is not None:
            self._load()

    # -- mapping-ish interface -------------------------------------------

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: str) -> bool:
        return key in self._entries

    def get(self, key: str) -> dict[str, Any] | None:
        """Look up ``key``; counts a hit or a miss and refreshes LRU order."""
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                self.stats.misses += 1
                return None
            self._entries.move_to_end(key)
            self.stats.hits += 1
            return entry

    def put(self, key: str, value: dict[str, Any]) -> None:
        """Store ``value`` under ``key``, evicting the LRU tail if full."""
        with self._lock:
            if key in self._entries:
                self._entries.move_to_end(key)
            self._entries[key] = value
            self.stats.stores += 1
            self._dirty = True
            while len(self._entries) > self.capacity:
                self._entries.popitem(last=False)
                self.stats.evictions += 1

    def put_many(self, items: Iterable[tuple[str, dict[str, Any]]]) -> None:
        """Store every ``(key, value)`` pair under one lock acquisition.

        Semantically ``put`` in a loop (same LRU refresh, store counts
        and eviction policy); batch writers -- the coalescer lands
        hundreds of cells per flush -- use this to keep lock traffic
        off their per-cell path.
        """
        with self._lock:
            for key, value in items:
                if key in self._entries:
                    self._entries.move_to_end(key)
                self._entries[key] = value
                self.stats.stores += 1
            self._dirty = True
            while len(self._entries) > self.capacity:
                self._entries.popitem(last=False)
                self.stats.evictions += 1

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()
            self._dirty = True

    # -- persistence -----------------------------------------------------

    def _load(self) -> None:
        assert self.path is not None
        try:
            raw = json.loads(self.path.read_text())
        except (OSError, ValueError):
            return
        if (not isinstance(raw, dict)
                or raw.get("format") != _STORE_FORMAT
                or raw.get("schema") != SCHEMA_VERSION):
            return
        entries = raw.get("entries")
        if not isinstance(entries, dict):
            return
        for key, value in entries.items():
            if isinstance(key, str) and isinstance(value, dict):
                self._entries[key] = value
        while len(self._entries) > self.capacity:
            self._entries.popitem(last=False)

    def flush(self) -> None:
        """Atomically rewrite the disk store (no-op without a path or
        when nothing changed since the last flush)."""
        if self.path is None:
            return
        with self._lock:
            if not self._dirty:
                return
            document = {
                "format": _STORE_FORMAT,
                "schema": SCHEMA_VERSION,
                "entries": dict(self._entries),
            }
            self.path.parent.mkdir(parents=True, exist_ok=True)
            fd, tmp_name = tempfile.mkstemp(
                dir=self.path.parent, prefix=self.path.name, suffix=".tmp")
            try:
                with os.fdopen(fd, "w") as fh:
                    json.dump(document, fh, indent=1)
                os.replace(tmp_name, self.path)
            except BaseException:
                try:
                    os.unlink(tmp_name)
                except OSError:
                    pass
                raise
            self._dirty = False
