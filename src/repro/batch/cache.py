"""Content-addressed allocation cache: in-memory LRU + optional disk store.

Lookup order is memory -> disk; a disk hit is promoted into the LRU.
Keys are the ``fingerprint-invalidation`` addresses of
:mod:`repro.batch.serialize`, so "invalidation" needs no machinery here:
changed code or config simply addresses different entries, and editing
one function changes only that function's fingerprint (every other
entry keeps hitting -- property-tested in ``tests/test_batch_cache.py``).

The disk layout shards by the first two key characters
(``<dir>/ab/<key>.json``) and writes atomically (tmp file + ``os.replace``)
so concurrent batch runs sharing a cache dir never observe torn records.

The disk layer degrades instead of raising: a record that fails to parse
(torn by a crash, corrupted on disk) is **quarantined** -- moved aside to
``<dir>/quarantine/`` and counted -- and treated as a miss, and a failed
disk *write* is counted and swallowed (an allocation result must never be
lost to cache bookkeeping).  The fault-injection harness
(:mod:`repro.batch.faultinject`) can corrupt a write on purpose to drive
the quarantine path in tests.
"""

from __future__ import annotations

import os
import tempfile
from collections import OrderedDict
from dataclasses import dataclass
from typing import Dict, Optional

from repro.batch.serialize import (
    AllocationRecord,
    dumps_record,
    loads_record,
)


#: In-memory LRU entries an :class:`AllocationCache` keeps by default
#: (the batch engine's capacity; tests inject smaller ones).
CACHE_CAPACITY = 1024


@dataclass
class CacheStats:
    """Counters one :class:`AllocationCache` accumulates over its life."""

    hits: int = 0
    memory_hits: int = 0
    disk_hits: int = 0
    misses: int = 0
    evictions: int = 0
    disk_writes: int = 0
    quarantined: int = 0
    disk_write_errors: int = 0

    def as_dict(self) -> Dict[str, int]:
        return {
            "hits": self.hits,
            "memory_hits": self.memory_hits,
            "disk_hits": self.disk_hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "disk_writes": self.disk_writes,
            "quarantined": self.quarantined,
            "disk_write_errors": self.disk_write_errors,
        }


class AllocationCache:
    """LRU of :class:`AllocationRecord` with an optional persistent layer.

    Args:
        capacity: maximum in-memory entries; the least recently used entry
            is evicted (and counted) when a put would exceed it.
        cache_dir: directory of the persistent store; ``None`` disables
            the disk layer.
    """

    def __init__(self, capacity: int = CACHE_CAPACITY,
                 cache_dir: Optional[str] = None) -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self.cache_dir = cache_dir
        self.stats = CacheStats()
        self._lru: "OrderedDict[str, AllocationRecord]" = OrderedDict()
        if cache_dir:
            os.makedirs(cache_dir, exist_ok=True)

    def __len__(self) -> int:
        return len(self._lru)

    def _disk_path(self, key: str) -> str:
        assert self.cache_dir is not None
        return os.path.join(self.cache_dir, key[:2], f"{key}.json")

    # ------------------------------------------------------------------
    # lookup / insert
    # ------------------------------------------------------------------
    def get(self, key: str, record_stats: bool = True) -> Optional[AllocationRecord]:
        """The record stored under *key*, or ``None``.

        ``record_stats=False`` makes the probe invisible to the counters
        (used by ``peek``-style diagnostics)."""
        record = self._lru.get(key)
        if record is not None:
            self._lru.move_to_end(key)
            if record_stats:
                self.stats.hits += 1
                self.stats.memory_hits += 1
            return record
        if self.cache_dir:
            path = self._disk_path(key)
            if os.path.isfile(path):
                try:
                    with open(path, encoding="utf-8") as fh:
                        record = loads_record(fh.read())
                except (OSError, ValueError):
                    # Torn/stale/corrupt entry: quarantine it (so the bad
                    # bytes can be inspected and never answer again) and
                    # treat the probe as a miss; a fresh compute will
                    # store a clean record.
                    record = None
                    self._quarantine(path)
                if record is not None:
                    self._insert(key, record)
                    if record_stats:
                        self.stats.hits += 1
                        self.stats.disk_hits += 1
                    return record
        if record_stats:
            self.stats.misses += 1
        return None

    def source_of(self, key: str) -> Optional[str]:
        """``"memory"`` / ``"disk"`` / ``None`` without touching counters
        or LRU order (the engine asks before a counted :meth:`get`)."""
        if key in self._lru:
            return "memory"
        if self.cache_dir and os.path.isfile(self._disk_path(key)):
            return "disk"
        return None

    def _quarantine(self, path: str) -> None:
        """Move an unreadable disk record into ``<dir>/quarantine/``."""
        assert self.cache_dir is not None
        target_dir = os.path.join(self.cache_dir, "quarantine")
        try:
            os.makedirs(target_dir, exist_ok=True)
            os.replace(path, os.path.join(target_dir,
                                          os.path.basename(path)))
        except OSError:
            # Another process may have quarantined or replaced it first;
            # the entry already stopped answering, which is what matters.
            pass
        self.stats.quarantined += 1

    def put(self, key: str, record: AllocationRecord) -> None:
        """Insert (or refresh) *key*; writes through to disk when enabled.

        A disk-write failure (full/read-only/vanished filesystem) is
        counted, not raised: the in-memory layer already holds the
        record, and losing a cache write must never lose an allocation.
        """
        from repro.batch.faultinject import active_plan

        self._insert(key, record)
        if self.cache_dir:
            path = self._disk_path(key)
            try:
                os.makedirs(os.path.dirname(path), exist_ok=True)
                fd, tmp = tempfile.mkstemp(
                    dir=os.path.dirname(path), suffix=".tmp"
                )
                try:
                    with os.fdopen(fd, "w", encoding="utf-8") as fh:
                        fh.write(dumps_record(record))
                    os.replace(tmp, path)
                except BaseException:
                    if os.path.exists(tmp):
                        os.unlink(tmp)
                    raise
            except OSError:
                self.stats.disk_write_errors += 1
                return
            self.stats.disk_writes += 1
            active_plan().maybe_corrupt_disk_write(path)

    def _insert(self, key: str, record: AllocationRecord) -> None:
        self._lru[key] = record
        self._lru.move_to_end(key)
        while len(self._lru) > self.capacity:
            self._lru.popitem(last=False)
            self.stats.evictions += 1

    def clear_memory(self) -> None:
        """Drop the LRU layer (the disk store, if any, survives)."""
        self._lru.clear()
