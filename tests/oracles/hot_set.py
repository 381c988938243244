"""The full-scan space-saving tracker the heap-backed one replaced.

``ScanHotSetTracker.record`` is the earlier ``HotSetTracker.record``
verbatim: on eviction it scans every counter of the origin's sketch
with ``min()``.  Everything else (``hot_set``, ``demand``, ``origins``,
``reset``) is inherited, so a test comparing the two trackers compares
exactly the sketches their ``record`` methods build.
"""

from __future__ import annotations

from repro.store.placement import HotEntry, HotSetTracker


class ScanHotSetTracker(HotSetTracker):
    """Space-saving top-K sketch with an O(K) eviction scan."""

    def record(self, origin: str, descriptor_id: str,
               payload_bytes: int = 0) -> None:
        """Note one read of ``descriptor_id`` issued from ``origin``."""
        sketch = self._sketches.setdefault(origin, {})
        entry = sketch.get(descriptor_id)
        if entry is not None:
            entry.requests += 1
            entry.payload_bytes += payload_bytes
            return
        if len(sketch) < self.capacity:
            sketch[descriptor_id] = HotEntry(
                descriptor_id, requests=1, payload_bytes=payload_bytes)
            return
        # Space-saving eviction: recycle the minimum counter, the new
        # id inherits its counts as the overestimate bound.
        victim = min(sketch.values(),
                     key=lambda e: (e.requests, e.payload_bytes,
                                    e.descriptor_id))
        del sketch[victim.descriptor_id]
        sketch[descriptor_id] = HotEntry(
            descriptor_id,
            requests=victim.requests + 1,
            payload_bytes=victim.payload_bytes + payload_bytes,
            error=victim.requests)
