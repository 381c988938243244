"""One bounded cache for the serving pyramid.

A CMIF document is dynamic (every edit bumps its revision) and
transportable (every environment plays its own adaptation), so what the
serving path reuses — schedules, requirement profiles, base, adapted
and navigation programs, a player's run plans — is cached per document
revision and environment.  :class:`LRUCache` is the one implementation
of that caching rule:

* a capacity bound, enforced least-recently-used first on insert;
* ``hits``/``misses`` counters, reported by :meth:`~LRUCache.describe`;
* revision-scoped eviction: an entry stored for an owner document at
  one revision evicts that owner's entries at every other revision.
  Lookups always key on the document's current revision, so those
  entries could never hit again; keeping them would leak one entry per
  edit.  A per-owner key index makes this O(that owner's entries);
* :meth:`~LRUCache.take`, which removes an owner's matching entries so
  the live-edit patcher can re-key them before the revision moves.

An owned entry holds a reference to its owner, so the owner's ``id()``
cannot be reused while any of its entries lives.
"""

from __future__ import annotations

import collections

from repro.core.errors import ValueError_


class LRUCache:
    """A bounded least-recently-used map with hit/miss counters."""

    #: How :meth:`describe` and the capacity error name this cache.
    name = "cache"

    def __init__(self, capacity: int = 8) -> None:
        if capacity <= 0:
            raise ValueError_(f"{self.name} capacity must be positive, "
                              f"got {capacity}")
        self.capacity = capacity
        self.hits = 0
        self.misses = 0
        #: key -> (value, owner or None), least recently used first.
        self._entries: collections.OrderedDict = collections.OrderedDict()
        #: id(owner) -> {key: revision} for every owned entry.
        self._owned: dict[int, dict] = {}

    def get(self, key):
        """The value stored under ``key`` (now the most recently used
        entry), or None; counts a hit or a miss."""
        entry = self._entries.get(key)
        if entry is None:
            self.misses += 1
            return None
        self._entries.move_to_end(key)
        self.hits += 1
        return entry[0]

    def put(self, key, value, *, owner=None, revision=None) -> None:
        """Store ``value`` under ``key`` as the most recently used entry.

        With an ``owner``, the owner's entries at any revision other
        than ``revision`` are evicted first.  Past the capacity, the
        least recently used entries go.
        """
        if owner is not None:
            keys = self._owned.setdefault(id(owner), {})
            stale = [old for old, seen in keys.items() if seen != revision]
            for old in stale:
                del keys[old]
                del self._entries[old]
            keys[key] = revision
        self._entries[key] = (value, owner)
        self._entries.move_to_end(key)
        while len(self._entries) > self.capacity:
            old, (_, old_owner) = self._entries.popitem(last=False)
            if old_owner is not None:
                self._forget(old, old_owner)

    def take(self, owner, predicate) -> list[tuple]:
        """Remove and return ``(key, value)`` for each of ``owner``'s
        entries for which ``predicate(key, value)`` holds, in the order
        they were first stored."""
        taken = []
        for key in self._owned.get(id(owner), ()):
            value = self._entries[key][0]
            if predicate(key, value):
                taken.append((key, value))
        for key, _ in taken:
            del self._entries[key]
            self._forget(key, owner)
        return taken

    def _forget(self, key, owner) -> None:
        keys = self._owned[id(owner)]
        del keys[key]
        if not keys:
            del self._owned[id(owner)]

    def clear(self) -> None:
        """Drop every entry (counters are kept)."""
        self._entries.clear()
        self._owned.clear()

    def __len__(self) -> int:
        return len(self._entries)

    def describe(self) -> str:
        return (f"{self.name}: {len(self._entries)} entr(y/ies), "
                f"{self.hits} hit(s), {self.misses} miss(es)")


__all__ = ["LRUCache"]
