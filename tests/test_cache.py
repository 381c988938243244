"""Tests for the serving pyramid's one bounded cache (repro.cache)."""

import pytest

from repro.cache import LRUCache
from repro.core.errors import ValueError_
from repro.pipeline.program import ProgramCache
from repro.timing.schedule import ScheduleCache
from repro.transport.requirements import RequirementsCache


class Owner:
    """A stand-in document: identity plus a revision."""

    def __init__(self, revision=0):
        self.revision = revision


class TestBound:
    def test_capacity_evicts_least_recently_used(self):
        cache = LRUCache(3)
        for key in "abc":
            cache.put(key, key.upper())
        assert cache.get("a") == "A"        # a is now the most recent
        cache.put("d", "D")                 # evicts b, the LRU entry
        assert len(cache) == 3
        assert cache.get("b") is None
        cache.put("e", "E")                 # evicts c
        assert [cache.get(key) for key in "acde"] == ["A", None, "D", "E"]

    def test_reput_refreshes_recency_without_growing(self):
        cache = LRUCache(2)
        cache.put("a", 1)
        cache.put("b", 2)
        cache.put("a", 3)
        cache.put("c", 4)
        assert len(cache) == 2
        assert cache.get("a") == 3
        assert cache.get("b") is None

    @pytest.mark.parametrize("capacity", [0, -1])
    def test_non_positive_capacity_rejected(self, capacity):
        with pytest.raises(ValueError_, match="capacity must be positive"):
            LRUCache(capacity)

    @pytest.mark.parametrize("cls", [ScheduleCache, ProgramCache,
                                     RequirementsCache])
    def test_domain_caches_reject_zero_capacity(self, cls):
        with pytest.raises(ValueError_):
            cls(capacity=0)


class TestCounters:
    def test_hits_and_misses(self):
        cache = LRUCache(4)
        assert cache.get("a") is None
        cache.put("a", 1)
        assert cache.get("a") == 1
        assert cache.get("a") == 1
        assert cache.get("b") is None
        assert (cache.hits, cache.misses) == (2, 2)
        assert cache.describe() == "cache: 1 entr(y/ies), 2 hit(s), " \
                                   "2 miss(es)"

    def test_clear_keeps_counters(self):
        cache = LRUCache(4)
        cache.put("a", 1, owner=Owner(), revision=0)
        cache.get("a")
        cache.clear()
        assert len(cache) == 0
        assert cache.get("a") is None
        assert (cache.hits, cache.misses) == (1, 1)


class TestRevisionScope:
    def test_new_revision_evicts_only_that_owners_old_revisions(self):
        cache = LRUCache(16)
        edited, bystander = Owner(), Owner()
        cache.put(("edited", 0, "x"), 1, owner=edited, revision=0)
        cache.put(("edited", 0, "y"), 2, owner=edited, revision=0)
        cache.put(("bystander", 0), 3, owner=bystander, revision=0)
        cache.put(("plain",), 4)
        cache.put(("edited", 1, "x"), 5, owner=edited, revision=1)
        assert len(cache) == 3
        assert cache.get(("edited", 0, "x")) is None
        assert cache.get(("edited", 0, "y")) is None
        assert cache.get(("edited", 1, "x")) == 5
        assert cache.get(("bystander", 0)) == 3
        assert cache.get(("plain",)) == 4

    def test_same_revision_entries_accumulate(self):
        cache = LRUCache(16)
        owner = Owner()
        for slot in range(4):
            cache.put((slot,), slot, owner=owner, revision=7)
        assert len(cache) == 4

    def test_capacity_eviction_drops_the_owner_index(self):
        cache = LRUCache(1)
        first, second = Owner(), Owner()
        cache.put("a", 1, owner=first, revision=0)
        cache.put("b", 2, owner=second, revision=0)
        assert cache.take(first, lambda key, value: True) == []
        assert cache._owned.keys() == {id(second)}


class TestTake:
    def test_take_returns_and_removes_only_matches(self):
        cache = LRUCache(16)
        owner, other = Owner(), Owner()
        cache.put(("k", 1), "one", owner=owner, revision=0)
        cache.put(("k", 2), "two", owner=owner, revision=0)
        cache.put(("k", 3), "three", owner=owner, revision=0)
        cache.put(("k", 4), "four", owner=other, revision=0)
        taken = cache.take(owner, lambda key, value: key[1] % 2 == 1)
        assert taken == [(("k", 1), "one"), (("k", 3), "three")]
        assert len(cache) == 2
        assert cache.get(("k", 1)) is None
        assert cache.get(("k", 2)) == "two"
        assert cache.get(("k", 4)) == "four"
        assert cache.take(owner, lambda key, value: True) == \
            [(("k", 2), "two")]
        assert cache.take(owner, lambda key, value: True) == []

    def test_take_of_unknown_owner_is_empty(self):
        cache = LRUCache(4)
        cache.put("a", 1)
        assert cache.take(Owner(), lambda key, value: True) == []
        assert len(cache) == 1
