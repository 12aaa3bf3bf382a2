"""LRU compile cache for the execution engine.

Compiling a circuit costs a Python pass over every wire; evaluating a cached
program costs one structural hash (O(edges) of hashing, amortised by the
hash cache on :class:`~repro.circuits.circuit.ThresholdCircuit`).  The cache
is keyed by ``(structural_hash, backend_name)`` so the same circuit compiled
for two backends occupies two slots, and re-building an identical circuit
from scratch — the common pattern in parameter sweeps — still hits.

The key deliberately does *not* distinguish how the program was compiled:
a circuit with template provenance and a structurally identical one
without it (a JSON-loaded circuit, or a copy with ``template_blocks``
cleared) compile to bit-identical programs, so they must alias to one slot
(either hits the entry the other stored).  That aliasing is only sound because ``structural_hash``
covers the full structure (inputs, every gate, outputs) and is invalidated
on mutation — anything cheaper would risk serving a stale program after an
eviction/refill cycle, which ``tests/test_engine.py`` pins down.

The aliasing also fixes the eviction accounting: a ``put`` of an
already-present key (the alias case) refreshes recency and replaces the
value without ever entering the eviction loop, so ``info().evictions`` only
counts entries actually pushed out — and ``capacity=0`` stores nothing and
never pops from an empty map.

When a :class:`~repro.engine.diskcache.DiskArtifactStore` is attached, a
memory miss probes the disk before reporting failure: a checksummed artifact
restores (counted under ``diskcache.*`` metrics, not as a memory hit), is
re-inserted into the memory LRU, and is returned without recompiling.
Fresh ``put``s symmetrically spill to disk so later processes warm-start.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import Callable, Hashable, Optional, Tuple

from repro.obs import get_registry

__all__ = ["CacheInfo", "CompileCache"]

CacheKey = Tuple[str, str]  # (structural hash, backend name)


def _backend_of(key: Hashable) -> str:
    """The backend label of a cache key (engine keys are (hash, backend))."""
    if isinstance(key, tuple) and len(key) == 2:
        return str(key[1])
    return "unknown"


def _is_engine_key(key: Hashable) -> bool:
    """Whether the key has the (structural_hash, backend) disk-cacheable shape."""
    return (
        isinstance(key, tuple)
        and len(key) == 2
        and isinstance(key[0], str)
        and isinstance(key[1], str)
    )


@dataclass(frozen=True)
class CacheInfo:
    """Counters describing cache behaviour since construction."""

    hits: int
    misses: int
    evictions: int
    size: int
    capacity: int
    disk_hits: int = 0
    disk_misses: int = 0

    def as_dict(self) -> dict:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "size": self.size,
            "capacity": self.capacity,
            "disk_hits": self.disk_hits,
            "disk_misses": self.disk_misses,
        }


class CompileCache:
    """A small LRU map from cache keys to compiled backend programs.

    ``disk`` optionally attaches a
    :class:`~repro.engine.diskcache.DiskArtifactStore`; ``spill`` maps a
    cached value to the picklable program to persist (or None to skip) and
    ``restore`` maps a restored program plus its key back to the cached
    value shape.  Both default to the identity, so the cache also works
    directly on bare programs.
    """

    def __init__(
        self,
        capacity: int,
        *,
        disk: Optional[object] = None,
        spill: Optional[Callable[[object], Optional[object]]] = None,
        restore: Optional[Callable[[object, CacheKey], object]] = None,
    ) -> None:
        if capacity < 0:
            raise ValueError(f"capacity must be >= 0, got {capacity}")
        self.capacity = capacity
        self.disk = disk
        self._spill = spill if spill is not None else (lambda value: value)
        self._restore = restore if restore is not None else (lambda program, key: program)
        self._entries: "OrderedDict[Hashable, object]" = OrderedDict()
        self._hits = 0
        self._misses = 0
        self._evictions = 0
        self._disk_hits = 0
        self._disk_misses = 0

    def _insert(self, key: Hashable, value: object) -> None:
        """Store under LRU discipline; no-op when capacity is 0.

        A refresh of an already-present key (template/CSR aliases share one
        slot) never evicts: the map size is unchanged, so the eviction loop
        body is unreachable and the counters stay put.
        """
        if self.capacity == 0:
            return
        if key in self._entries:
            self._entries.move_to_end(key)
            self._entries[key] = value
            return
        self._entries[key] = value
        registry = get_registry()
        while len(self._entries) > self.capacity:
            evicted_key, _ = self._entries.popitem(last=False)
            self._evictions += 1
            if registry.enabled:
                registry.counter(
                    "cache.evictions", backend=_backend_of(evicted_key)
                ).inc()

    def get(self, key: Hashable) -> Optional[object]:
        """Return the cached value for ``key`` (refreshing recency) or None.

        A memory miss with a disk store attached probes the artifact store;
        a verified artifact restores into the memory LRU and is returned.
        Disk traffic is counted separately (``disk_hits``/``disk_misses``)
        — a disk restore is *not* a memory hit.
        """
        registry = get_registry()
        entry = self._entries.get(key)
        if entry is not None:
            self._entries.move_to_end(key)
            self._hits += 1
            if registry.enabled:
                registry.counter("cache.hits", backend=_backend_of(key)).inc()
            return entry
        self._misses += 1
        if registry.enabled:
            registry.counter("cache.misses", backend=_backend_of(key)).inc()
        if self.disk is not None and _is_engine_key(key):
            program = self.disk.get(key[0], key[1])
            if program is not None:
                self._disk_hits += 1
                value = self._restore(program, key)
                self._insert(key, value)
                return value
            self._disk_misses += 1
        return None

    def put(self, key: Hashable, value: object, *, spill: bool = True) -> None:
        """Insert a compiled program, evicting the least recently used one.

        With a disk store attached the program is also spilled (even when
        ``capacity=0`` keeps nothing in memory); ``spill=False`` skips that
        — used when re-inserting a value that just came *from* disk.
        """
        if self.disk is not None and spill and _is_engine_key(key):
            program = self._spill(value)
            if program is not None:
                self.disk.put(key[0], key[1], program)
        self._insert(key, value)

    def clear(self) -> None:
        """Drop every in-memory entry (counters and disk artifacts persist)."""
        self._entries.clear()

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: Hashable) -> bool:
        return key in self._entries

    def info(self) -> CacheInfo:
        """Snapshot of the hit/miss/eviction counters."""
        return CacheInfo(
            hits=self._hits,
            misses=self._misses,
            evictions=self._evictions,
            size=len(self._entries),
            capacity=self.capacity,
            disk_hits=self._disk_hits,
            disk_misses=self._disk_misses,
        )
