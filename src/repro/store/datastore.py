"""The attribute-indexed data block store (paper figure 2's DDBMS).

"A database management system may be used to locate and access various
data blocks based on the attributes in the data descriptors."  This
module is that optional component: an in-memory store mapping descriptor
ids to (descriptor, block) pairs with inverted indexes over the
attributes:

* a **keyword index** (member -> descriptor ids) for containment
  queries over the section-6 search keys;
* a **medium index** (Medium -> descriptor ids);
* **per-attribute equality indexes** (value -> descriptor ids) for any
  hashable attribute value;
* **sorted numeric indexes** (bisect-maintained ``(value, id)`` lists)
  for range queries, plus one over canonical-ms durations.

All indexes are maintained incrementally by :meth:`register`,
:meth:`unregister` and :meth:`update_attributes`.  Values the indexes
cannot represent exactly (unhashable attribute values, string-valued
keyword attributes with substring semantics, malformed durations) land
in per-index *dirty sets*, so the planner can still use an index as a
candidate superset and re-verify — index answers are never allowed to
drop a descriptor a full scan would have found.

The store instruments itself: ``payload_reads`` counts every access to
actual block payloads and ``attribute_reads`` every descriptor access —
**once per examined descriptor**, whether the descriptor came from an
index probe or a scan.  The section-6 experiment ("much of the work
associated with manipulating a document can be based on relatively
small clusters of data (the attributes) rather than the often massive
amounts of media-based data itself") is reproduced by showing searches
complete with ``payload_reads == 0``.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass, replace
from operator import itemgetter
from typing import Any, Callable, Iterator

from repro.core.channels import Medium
from repro.core.descriptors import DataBlock, DataDescriptor
from repro.core.errors import StoreError, ValueError_
from repro.core.timebase import TimeBase
from repro.ledger import Ledger
from repro.store.planner import Plan, build_plan, execute_plan
from repro.store.query import Query, criteria_query


@dataclass
class StoreStats(Ledger):
    """Access counters used by the attribute-manipulation experiments."""

    attribute_reads: int = 0
    payload_reads: int = 0
    payload_bytes: int = 0


@dataclass(frozen=True)
class StoreSummary:
    """A cheap, transferable summary of one store's index contents.

    The federation uses summaries to decide which sites a query could
    possibly match before paying any per-site request (Gray's
    locally-served principle: answer from local knowledge, touch remote
    sites only when they can actually contribute).  ``fuzzy_keywords``
    is True when the store holds keyword attributes the index cannot
    enumerate (string-valued, substring semantics) — such a site can
    never be pruned on keywords.
    """

    version: int
    count: int
    keywords: frozenset
    media: frozenset
    attribute_keys: frozenset
    fuzzy_keywords: bool = False


def _hashable(value: Any) -> bool:
    try:
        hash(value)
    except TypeError:
        return False
    return True


class DataStore:
    """In-memory DDBMS: descriptors under equality/keyword/medium/range
    inverted indexes, queried through :mod:`repro.store.planner`."""

    def __init__(self, name: str = "store", *,
                 timebase: TimeBase | None = None) -> None:
        self.name = name
        self.timebase = timebase or TimeBase()
        self._descriptors: dict[str, DataDescriptor] = {}
        self._blocks: dict[str, DataBlock] = {}
        # keyword member -> ids; members are indexed by raw (hashable)
        # value so numeric keywords keep dict-equality semantics.
        self._keyword_index: dict[Any, set[str]] = {}
        #: ids whose ``keywords`` attribute the index cannot enumerate
        #: (a plain string — substring containment — or unhashable
        #: members); always added to keyword candidate supersets.
        self._keyword_dirty: set[str] = set()
        self._medium_index: dict[Medium, set[str]] = {}
        # attribute name -> value -> ids (hashable values only).
        self._eq_index: dict[str, dict[Any, set[str]]] = {}
        #: attribute name -> ids whose value for it is unhashable.
        self._eq_dirty: dict[str, set[str]] = {}
        # attribute name -> sorted [(numeric value, id)] for bisect.
        self._numeric_index: dict[str, list[tuple[float, str]]] = {}
        #: attribute name -> ids whose numeric value is NaN (unordered,
        #: would corrupt the bisect invariant — yet NaN passes every
        #: Range check, so these ids join every range superset).
        self._numeric_dirty: dict[str, set[str]] = {}
        #: block id -> number of registered descriptors referencing it.
        self._block_refs: dict[str, int] = {}
        # sorted [(canonical duration ms, id)].
        self._duration_index: list[tuple[float, str]] = []
        #: ids whose duration attribute cannot be converted to ms.
        self._duration_dirty: set[str] = set()
        #: attribute names that ever held a tuple/list value — needed to
        #: decide when an equality index is a safe superset for
        #: ``matches``-style (containment-capable) criteria.  Grows
        #: monotonically; staying conservative is always safe.
        self._sequence_attrs: set[str] = set()
        #: registration rank per id — planned queries return results in
        #: registration order, exactly like a scan would.
        self._insertion_rank: dict[str, int] = {}
        self._next_rank = 0
        #: bumped on every mutation; keys summary caches and lets the
        #: federation detect stale site summaries.
        self.version = 0
        self._summary: StoreSummary | None = None
        self.stats = StoreStats()

    # -- registration -----------------------------------------------------

    def register(self, descriptor: DataDescriptor,
                 block: DataBlock | None = None) -> None:
        """Add a descriptor (and optionally its block) to the store."""
        if descriptor.descriptor_id in self._descriptors:
            raise StoreError(
                f"descriptor {descriptor.descriptor_id!r} registered twice")
        if block is not None:
            if descriptor.block_id not in (None, block.block_id):
                raise StoreError(
                    f"descriptor {descriptor.descriptor_id!r} names block "
                    f"{descriptor.block_id!r} but {block.block_id!r} was "
                    f"supplied")
            self._blocks[block.block_id] = block
        if descriptor.block_id is not None:
            self._block_refs[descriptor.block_id] = \
                self._block_refs.get(descriptor.block_id, 0) + 1
        self._descriptors[descriptor.descriptor_id] = descriptor
        self._insertion_rank[descriptor.descriptor_id] = self._next_rank
        self._next_rank += 1
        self._medium_index.setdefault(descriptor.medium, set()).add(
            descriptor.descriptor_id)
        self._index_attributes(descriptor)
        self._touch()

    def register_copy(self, descriptor: DataDescriptor,
                      block: DataBlock | None = None) -> None:
        """Register a replica of another store's descriptor and block.

        The replica owns a copy of the attribute dict, so an attribute
        update on either store never shows through the other.
        """
        self.register(replace(descriptor,
                              attributes=dict(descriptor.attributes)),
                      block)

    def unregister(self, descriptor_id: str) -> DataDescriptor:
        """Remove a descriptor (and its now-orphaned block, if any).

        Every index entry for the descriptor is withdrawn; the block is
        kept while any other descriptor still references it (figure-2
        sharing: several descriptors may describe one block).
        """
        descriptor = self.descriptor_by_id(descriptor_id)
        self._unindex_attributes(descriptor)
        ids = self._medium_index.get(descriptor.medium)
        if ids is not None:
            ids.discard(descriptor_id)
            if not ids:
                del self._medium_index[descriptor.medium]
        del self._descriptors[descriptor_id]
        del self._insertion_rank[descriptor_id]
        if descriptor.block_id is not None:
            remaining = self._block_refs.get(descriptor.block_id, 0) - 1
            if remaining > 0:
                self._block_refs[descriptor.block_id] = remaining
            else:
                self._block_refs.pop(descriptor.block_id, None)
                self._blocks.pop(descriptor.block_id, None)
        self._touch()
        return descriptor

    def update_attributes(self, descriptor_id: str,
                          **changes: Any) -> DataDescriptor:
        """Change a descriptor's attributes, keeping indexes consistent.

        A value of ``None`` removes the attribute (an absent attribute
        reads back as ``None`` anyway).  The medium is a descriptor
        field, not an attribute, and cannot be changed here.
        """
        descriptor = self.descriptor_by_id(descriptor_id)
        if "medium" in changes:
            raise StoreError("medium is not an attribute; re-register the "
                             "descriptor to change it")
        self._unindex_attributes(descriptor)
        for name, value in changes.items():
            if value is None:
                descriptor.attributes.pop(name, None)
            else:
                descriptor.attributes[name] = value
        self._index_attributes(descriptor)
        self._touch()
        return descriptor

    # -- index maintenance -------------------------------------------------

    def _touch(self) -> None:
        self.version += 1
        self._summary = None

    def _index_attributes(self, descriptor: DataDescriptor) -> None:
        did = descriptor.descriptor_id
        for name, value in descriptor.attributes.items():
            if isinstance(value, (tuple, list)):
                self._sequence_attrs.add(name)
            if _hashable(value):
                self._eq_index.setdefault(name, {}).setdefault(
                    value, set()).add(did)
            else:
                self._eq_dirty.setdefault(name, set()).add(did)
            if isinstance(value, (int, float)) \
                    and not isinstance(value, bool):
                if value != value:          # NaN: unsortable, matches
                    self._numeric_dirty.setdefault(name, set()).add(did)
                else:
                    bisect.insort(self._numeric_index.setdefault(name, []),
                                  (value, did))
        keywords = descriptor.get("keywords")
        if keywords is not None:
            if isinstance(keywords, (tuple, list, set, frozenset)):
                for member in keywords:
                    if _hashable(member):
                        self._keyword_index.setdefault(
                            member, set()).add(did)
                    else:
                        self._keyword_dirty.add(did)
            else:
                # A plain string has substring containment semantics
                # (or some other unenumerable container): unindexable.
                self._keyword_dirty.add(did)
        try:
            duration = descriptor.duration
        except ValueError_:
            self._duration_dirty.add(did)
        else:
            if duration is not None:
                bisect.insort(self._duration_index,
                              (self.timebase.to_ms(duration), did))

    def _unindex_attributes(self, descriptor: DataDescriptor) -> None:
        did = descriptor.descriptor_id
        for name, value in descriptor.attributes.items():
            if _hashable(value):
                buckets = self._eq_index.get(name)
                if buckets is not None:
                    ids = buckets.get(value)
                    if ids is not None:
                        ids.discard(did)
                        if not ids:
                            del buckets[value]
                    if not buckets:
                        del self._eq_index[name]
            else:
                dirty = self._eq_dirty.get(name)
                if dirty is not None:
                    dirty.discard(did)
                    if not dirty:
                        del self._eq_dirty[name]
            if isinstance(value, (int, float)) \
                    and not isinstance(value, bool):
                if value != value:
                    dirty = self._numeric_dirty.get(name)
                    if dirty is not None:
                        dirty.discard(did)
                        if not dirty:
                            del self._numeric_dirty[name]
                else:
                    self._numeric_remove(name, value, did)
        keywords = descriptor.get("keywords")
        if keywords is not None \
                and isinstance(keywords, (tuple, list, set, frozenset)):
            for member in keywords:
                if _hashable(member):
                    ids = self._keyword_index.get(member)
                    if ids is not None:
                        ids.discard(did)
                        if not ids:
                            del self._keyword_index[member]
        self._keyword_dirty.discard(did)
        self._duration_dirty.discard(did)
        try:
            duration = descriptor.duration
        except ValueError_:
            duration = None
        if duration is not None:
            self._sorted_remove(self._duration_index,
                               (self.timebase.to_ms(duration), did))

    def _numeric_remove(self, name: str, value: float, did: str) -> None:
        entries = self._numeric_index.get(name)
        if entries is None:
            return
        self._sorted_remove(entries, (value, did))
        if not entries:
            del self._numeric_index[name]

    @staticmethod
    def _sorted_remove(entries: list[tuple[float, str]],
                       entry: tuple[float, str]) -> None:
        position = bisect.bisect_left(entries, entry)
        if position < len(entries) and entries[position] == entry:
            entries.pop(position)

    # -- index probes (the planner's narrow interface) ---------------------

    def index_size(self) -> int:
        """Number of descriptors (no attribute reads charged)."""
        return len(self._descriptors)

    def eq_candidates(self, name: str,
                      value: Any) -> tuple[set[str], bool] | None:
        """Candidate ids for ``attribute == value``, or None.

        Returns ``(ids, exact)``.  ``None`` means the index cannot
        answer: an unhashable search value, or ``None`` (which also
        matches descriptors *lacking* the attribute — only a scan can
        enumerate those).
        """
        if value is None or not _hashable(value):
            return None
        if isinstance(value, float) and value != value:
            return set(), True      # NaN equals nothing
        ids = self._eq_index.get(name, {}).get(value)
        dirty = self._eq_dirty.get(name)
        if dirty:
            return (ids | dirty) if ids else set(dirty), False
        return ids if ids is not None else set(), True

    def keyword_candidates(self, item: Any) -> tuple[set[str], bool]:
        """Candidate ids for ``item in keywords`` (always answerable).

        The returned set may be a live index reference; callers must
        not mutate it.
        """
        if not _hashable(item):
            return set(self._keyword_dirty), False
        ids = self._keyword_index.get(item)
        if self._keyword_dirty:
            return ((ids | self._keyword_dirty) if ids
                    else set(self._keyword_dirty)), False
        return ids if ids is not None else set(), True

    def medium_candidates(self, medium: Medium) -> set[str]:
        """Ids whose medium is ``medium`` (exact by construction)."""
        return self._medium_index.get(medium, set())

    def numeric_estimate(self, name: str, minimum: float | None,
                         maximum: float | None) -> tuple[int, bool]:
        """Candidate count for a numeric range probe (two bisects,
        nothing materialized) plus exactness.

        Inexact when NaN values exist for the attribute: NaN passes
        every range comparison, so those ids join the superset and the
        leaf is re-verified.
        """
        dirty = self._numeric_dirty.get(name, ())
        entries = self._numeric_index.get(name)
        if not entries:
            return len(dirty), not dirty
        lo, hi = self._sorted_bounds(entries, minimum, maximum)
        return (hi - lo) + len(dirty), not dirty

    def numeric_candidates(self, name: str, minimum: float | None,
                           maximum: float | None) -> set[str]:
        """Candidate ids whose numeric ``name`` lies in the range."""
        dirty = self._numeric_dirty.get(name)
        entries = self._numeric_index.get(name)
        if not entries:
            return set(dirty) if dirty else set()
        lo, hi = self._sorted_bounds(entries, minimum, maximum)
        ids = {did for _, did in entries[lo:hi]}
        return ids | dirty if dirty else ids

    def duration_estimate(self, min_ms: float | None,
                          max_ms: float | None,
                          timebase: TimeBase) -> tuple[int, bool] | None:
        """Candidate count for a duration range probe, or None.

        The index holds canonical milliseconds under the *store's*
        timebase; a query under different conversion rates must fall
        back to the residual predicate.
        """
        if timebase != self.timebase:
            return None
        lo, hi = self._sorted_bounds(self._duration_index, min_ms, max_ms)
        return (hi - lo) + len(self._duration_dirty), \
            not self._duration_dirty

    def duration_candidates(self, min_ms: float | None,
                            max_ms: float | None,
                            timebase: TimeBase) -> set[str]:
        """Candidate ids for a duration range under the store timebase
        (call :meth:`duration_estimate` first to check applicability)."""
        lo, hi = self._sorted_bounds(self._duration_index, min_ms, max_ms)
        ids = {did for _, did in self._duration_index[lo:hi]}
        return ids | self._duration_dirty if self._duration_dirty else ids

    @staticmethod
    def _sorted_bounds(entries: list[tuple[float, str]],
                       minimum: float | None,
                       maximum: float | None) -> tuple[int, int]:
        lo = 0 if minimum is None else bisect.bisect_left(
            entries, minimum, key=itemgetter(0))
        hi = len(entries) if maximum is None else bisect.bisect_right(
            entries, maximum, key=itemgetter(0))
        return lo, max(hi, lo)

    def matches_candidates(self, name: str,
                           wanted: Any) -> tuple[set[str], bool] | None:
        """Candidate ids for a ``matches``-semantics criterion, or None.

        Containment-capable: a tuple/list stored value matches a scalar
        criterion by membership, so the equality index alone is only a
        safe superset when the attribute never held a sequence — except
        for ``keywords``, where the keyword index supplies the
        membership candidates.
        """
        if name == "medium":
            # matches() checks the medium *field*, not an attribute.
            try:
                medium = (wanted if isinstance(wanted, Medium)
                          else Medium.from_name(wanted))
            except Exception:
                return None         # the predicate will raise; scan it
            return self.medium_candidates(medium), True
        if wanted is None or not _hashable(wanted):
            return None
        if name != "keywords" and name in self._sequence_attrs \
                and not isinstance(wanted, (tuple, list)):
            return None             # membership matches are unindexed
        ids = set(self._eq_index.get(name, {}).get(wanted, ()))
        ids |= self._eq_dirty.get(name, set())
        if name == "keywords":
            member_ids, _ = self.keyword_candidates(wanted)
            ids |= member_ids
        return ids, False

    def summary(self) -> StoreSummary:
        """The store's current index summary (cached per version)."""
        if self._summary is None or self._summary.version != self.version:
            attribute_keys = (set(self._eq_index) | set(self._eq_dirty)
                              | set(self._numeric_index)
                              | set(self._numeric_dirty))
            if self._duration_index or self._duration_dirty:
                attribute_keys.add("duration")
            self._summary = StoreSummary(
                version=self.version,
                count=len(self._descriptors),
                keywords=frozenset(self._keyword_index),
                media=frozenset(self._medium_index),
                attribute_keys=frozenset(attribute_keys),
                fuzzy_keywords=bool(self._keyword_dirty),
            )
        return self._summary

    # -- lookup -------------------------------------------------------------

    def descriptor(self, descriptor_id: str) -> DataDescriptor:
        """Fetch a descriptor by id (counts as an attribute read)."""
        self.stats.attribute_reads += 1
        return self.descriptor_by_id(descriptor_id)

    def block_for(self, descriptor_id: str) -> DataBlock:
        """Fetch the payload block behind a descriptor (a payload read)."""
        return self.read_block(descriptor_id)[0]

    def read_block(self, descriptor_id: str) -> tuple[DataBlock, int]:
        """:meth:`block_for`'s read, returning the block with its size in
        bytes, taken once for the stats and the caller.  The descriptor
        lookup is not charged: the caller that examined the descriptor
        already paid its attribute read."""
        descriptor = self.descriptor_by_id(descriptor_id)
        if descriptor.block_id is None:
            raise StoreError(
                f"descriptor {descriptor_id!r} references no block")
        block = self._blocks.get(descriptor.block_id)
        if block is None:
            raise StoreError(
                f"block {descriptor.block_id!r} is not stored (descriptor "
                f"travelled without its data)")
        size = block.size_bytes
        self.stats.payload_reads += 1
        self.stats.payload_bytes += size
        return block, size

    def has_block(self, block_id: str) -> bool:
        """True when the block's payload is present locally."""
        return block_id in self._blocks

    def __len__(self) -> int:
        return len(self._descriptors)

    def __contains__(self, descriptor_id: str) -> bool:
        return descriptor_id in self._descriptors

    def descriptors(self) -> Iterator[DataDescriptor]:
        """All descriptors (each counted as an attribute read)."""
        for descriptor in self._descriptors.values():
            self.stats.attribute_reads += 1
            yield descriptor

    def blocks(self) -> Iterator[DataBlock]:
        """All stored blocks (payload reads; used by the packager)."""
        for block in self._blocks.values():
            self.stats.payload_reads += 1
            self.stats.payload_bytes += block.size_bytes
            yield block

    # -- attribute search -----------------------------------------------------

    def find(self, **criteria: Any) -> list[DataDescriptor]:
        """Attribute search through the query planner.

        Each criterion becomes one AST leaf (``medium`` checks the
        descriptor's medium field; a tuple-valued stored attribute
        matches a scalar criterion by containment).  The planner
        consults whichever indexes apply; ``attribute_reads`` is charged
        exactly once per examined descriptor, and payloads are never
        touched.
        """
        return self.find_where(criteria_query(criteria))

    def find_where(self, predicate: Callable[[DataDescriptor], bool]
                   ) -> list[DataDescriptor]:
        """Attribute search with a query AST or an arbitrary predicate.

        A :class:`~repro.store.query.Query` is planned against the
        inverted indexes (falling back to a scan only when no index
        applies); a bare callable always scans.
        """
        if isinstance(predicate, Query):
            return execute_plan(self, self.explain(predicate))
        return self.scan_where(predicate)

    def scan_where(self, predicate: Callable[[DataDescriptor], bool]
                   ) -> list[DataDescriptor]:
        """Full-scan attribute search (the pre-planner baseline path)."""
        results = []
        for descriptor in self._descriptors.values():
            self.stats.attribute_reads += 1
            if predicate(descriptor):
                results.append(descriptor)
        return results

    def explain(self, query) -> Plan:
        """The plan :meth:`find_where` would execute for ``query``."""
        return build_plan(self, query)

    def descriptor_by_id(self, descriptor_id: str) -> DataDescriptor:
        """Fetch a descriptor by id without charging an attribute read:
        the store's own lookups, and reads whose caller already paid
        for the descriptor."""
        try:
            return self._descriptors[descriptor_id]
        except KeyError:
            raise StoreError(f"no descriptor {descriptor_id!r} in store "
                             f"{self.name!r}") from None

    def in_registration_order(self, ids) -> list[str]:
        """Candidate ids sorted the way a scan would visit them."""
        return sorted(ids, key=self._insertion_rank.__getitem__)

    # -- document integration ---------------------------------------------------

    def resolver(self) -> Callable[[str], DataDescriptor | None]:
        """A resolver suitable for :meth:`CmifDocument.attach_resolver`.

        Document ``file`` attributes name descriptors; unknown names
        resolve to None so validation can warn rather than fail.
        """
        def resolve(file_id: str) -> DataDescriptor | None:
            self.stats.attribute_reads += 1
            return self._descriptors.get(file_id)
        return resolve

    def total_payload_bytes(self) -> int:
        """Total stored payload size (materializes generator blocks)."""
        return sum(block.size_bytes for block in self._blocks.values())
