"""Tests for the federated (distributed) store (repro.store.distributed)."""

import pytest

from repro.core.channels import Medium
from repro.core.descriptors import DataDescriptor
from repro.core.errors import StoreError
from repro.pipeline.capture import CaptureSession
from repro.store import (DataStore, FederatedStore, NetworkModel, Site)


def make_site(name, captures):
    """A site holding the given text captures."""
    store = DataStore(name)
    session = CaptureSession(store=store, seed=hash(name) % 1000)
    for file_id, keywords in captures:
        session.capture_text(file_id, keywords=keywords)
    return Site(name=name, store=store,
                network=NetworkModel(latency_ms=10.0))


@pytest.fixture()
def federation():
    local = make_site("amsterdam", [("local/intro", ("news",))])
    remote_a = make_site("delft", [("delft/story", ("news", "crime"))])
    remote_b = make_site("utrecht", [("utrecht/story", ("news", "art"))])
    return FederatedStore(local, [remote_a, remote_b])


class TestDescriptorResolution:
    def test_local_hit_is_free(self, federation):
        federation.descriptor("local/intro")
        assert federation.traffic.requests == 0
        assert federation.traffic.simulated_ms == 0.0

    def test_remote_hit_pays_latency(self, federation):
        federation.descriptor("delft/story")
        assert federation.traffic.requests == 1
        assert federation.traffic.descriptor_bytes == 512
        assert federation.traffic.simulated_ms > 10.0

    def test_descriptor_cache_prevents_refetch(self, federation):
        federation.descriptor("delft/story")
        first = federation.traffic.requests
        federation.descriptor("delft/story")
        assert federation.traffic.requests == first

    def test_missing_everywhere_raises(self, federation):
        with pytest.raises(StoreError, match="no site"):
            federation.descriptor("nowhere/ghost")

    def test_site_of(self, federation):
        assert federation.site_of("delft/story") == "delft"
        assert federation.site_of("local/intro") == "amsterdam"


class TestPayloadPath:
    def test_remote_payload_pays_by_size(self, federation):
        block = federation.block_for("utrecht/story")
        assert federation.traffic.payload_bytes == block.size_bytes
        assert federation.traffic.payload_bytes > 0

    def test_payloads_not_cached_by_default(self, federation):
        federation.block_for("utrecht/story")
        first = federation.traffic.payload_bytes
        federation.block_for("utrecht/story")
        assert federation.traffic.payload_bytes == 2 * first

    def test_payload_read_leaves_the_descriptor_remote(self, federation):
        """A payload read registers nothing at home: the id stays
        routed to its remote site, and its cached descriptor keeps
        serving for free."""
        federation.descriptor("delft/story")
        requests = federation.traffic.requests
        federation.block_for("delft/story")
        assert "delft/story" not in federation.local.store
        assert federation.site_of("delft/story") == "delft"
        federation.descriptor("delft/story")
        # The block transfer is the only new request.
        assert federation.traffic.requests == requests + 1


@pytest.mark.parametrize("site, read, expected", [
    ("amsterdam", lambda federation: federation.stream(["local/intro"]),
     (1, 1)),
    ("delft", lambda federation: federation.stream(["delft/story"]),
     (1, 1)),
    ("amsterdam",
     lambda federation: federation.local.store.block_for("local/intro"),
     (0, 1)),
], ids=["home stream", "remote stream", "block_for"])
def test_one_attribute_read_per_examined_descriptor(federation, site, read,
                                                    expected):
    """(attribute, payload) reads the serving store is charged: a
    streamed id is one descriptor examined and one payload read, and a
    block read is a payload read only."""
    stats = federation.site(site).store.stats
    stats.reset()
    read(federation)
    assert (stats.attribute_reads, stats.payload_reads) == expected


class TestFederatedSearch:
    def test_search_spans_all_sites(self, federation):
        results = federation.find(keywords="news")
        ids = {descriptor.descriptor_id for descriptor in results}
        assert ids == {"local/intro", "delft/story", "utrecht/story"}

    def test_search_moves_descriptor_bytes_only(self, federation):
        federation.find(keywords="news")
        assert federation.traffic.payload_bytes == 0
        assert federation.traffic.descriptor_bytes > 0

    def test_search_caches_matches(self, federation):
        federation.find(keywords="crime")
        requests_after_search = federation.traffic.requests
        federation.descriptor("delft/story")
        assert federation.traffic.requests == requests_after_search


class TestSummaryRouting:
    def test_search_skips_sites_that_cannot_match(self, federation):
        federation.find(keywords="crime")        # warms site summaries
        federation.traffic.reset()
        results = federation.find(keywords="crime")
        assert [d.descriptor_id for d in results] == ["delft/story"]
        # One request to the only site whose summary holds "crime";
        # the other remote was pruned without any traffic.
        assert federation.traffic.requests == 1
        assert federation.traffic.requests_avoided == 1

    def test_medium_pruning(self, federation):
        federation.find(keywords="news")         # warms site summaries
        federation.traffic.reset()
        federation.find(medium="video")
        # Every site is text-only: the whole fan-out is avoided.
        assert federation.traffic.requests == 0
        assert federation.traffic.requests_avoided == 2

    def test_matches_attr_medium_is_not_mispruned(self, federation):
        from repro.store import MatchesAttr
        results = federation.find_where(MatchesAttr("medium", "text"))
        ids = {descriptor.descriptor_id for descriptor in results}
        assert ids == {"local/intro", "delft/story", "utrecht/story"}

    def test_summary_refreshes_when_a_site_changes(self, federation):
        federation.find(keywords="crime")
        federation.traffic.reset()
        delft = federation.remotes[0]
        session_store = delft.store
        from repro.core.descriptors import DataDescriptor
        from repro.core.channels import Medium
        session_store.register(DataDescriptor(
            "delft/extra", Medium.TEXT,
            attributes={"keywords": ("fresh",)}))
        results = federation.find(keywords="fresh")
        assert [d.descriptor_id for d in results] == ["delft/extra"]
        assert federation.traffic.summary_bytes > 0

    def test_find_populates_routing_map(self, federation):
        federation.find(keywords="art")
        assert federation.site_of("utrecht/story") == "utrecht"

    def test_descriptor_uses_route_after_search(self, federation):
        federation.find(keywords="crime")
        requests = federation.traffic.requests
        federation.descriptor("delft/story")     # cache hit, no traffic
        assert federation.traffic.requests == requests


class TestCacheConsistency:
    def test_stale_route_falls_back_to_probing(self):
        local = make_site("a", [])
        remote = make_site("b", [("b/text", ("x",))])
        federation = FederatedStore(local, [remote])
        federation.find(keywords="x")
        remote.store.unregister("b/text")
        with pytest.raises(StoreError, match="nowhere"):
            federation.site_of("b/text")


class TestFederationHygiene:
    def test_duplicate_site_names_rejected(self):
        a = make_site("same", [])
        b = make_site("same", [])
        with pytest.raises(StoreError, match="duplicate"):
            FederatedStore(a, [b])

    def test_resolver_for_documents(self, federation):
        resolve = federation.resolver()
        assert resolve("delft/story") is not None
        assert resolve("ghost") is None

    def test_traffic_reset(self, federation):
        federation.descriptor("delft/story")
        federation.traffic.reset()
        assert federation.traffic.total_bytes == 0


class TestPlacementReport:
    def test_placement_maps_files_to_sites(self):
        local = make_site("here", [])
        remote = make_site("there", [("there/clip", ("x",))])
        federation = FederatedStore(local, [remote])

        from repro.core.builder import DocumentBuilder
        builder = DocumentBuilder("doc")
        builder.channel("caption", "text")
        builder.ext("c", file="there/clip", channel="caption")
        builder.ext("missing", file="lost/clip", channel="caption")
        document = builder.build(validate=False)

        placement = federation.placement_report(document)
        assert placement["there"] == ("there/clip",)
        assert placement["<missing>"] == ("lost/clip",)
        assert placement.sites["there"].descriptor_count == 1
        assert placement.sites["there"].payload_bytes > 0
        assert placement.replica_histogram == {1: 1}

    def test_document_schedules_through_federation(self):
        """A document whose media live on a remote site schedules via
        descriptor traffic only (the section-6 tendency)."""
        local = make_site("here", [])
        remote = make_site("there", [("there/cap", ("x",))])
        federation = FederatedStore(local, [remote])

        from repro.core.builder import DocumentBuilder
        from repro.timing import schedule_document
        builder = DocumentBuilder("doc")
        builder.channel("caption", "text")
        builder.ext("c", file="there/cap", channel="caption")
        document = builder.build(validate=False)
        document.attach_resolver(federation.resolver())

        schedule = schedule_document(document.compile())
        assert schedule.total_duration_ms > 0
        assert federation.traffic.payload_bytes == 0


class TestResetSplit:
    """traffic.reset() is counters-only; reset_traffic() is the cold
    reset — the split the warm-path benchmarks rely on."""

    def test_counter_reset_keeps_warm_caches(self, federation):
        federation.descriptor("delft/story")
        assert federation.traffic.requests == 1
        federation.traffic.reset()
        assert federation.traffic.requests == 0
        federation.descriptor("delft/story")
        # Served from the surviving descriptor cache: still free.
        assert federation.traffic.requests == 0
        assert federation.site_of("delft/story") == "delft"

    def test_counter_reset_clears_robustness_ledger(self, federation):
        federation.traffic.robustness.record_fault("site-outage")
        federation.traffic.robustness.recovered += 1
        federation.traffic.reset()
        assert federation.traffic.robustness.empty

    def test_reset_traffic_forgets_caches_by_default(self, federation):
        federation.descriptor("delft/story")
        federation.reset_traffic()
        assert federation.traffic.requests == 0
        federation.descriptor("delft/story")
        # Cold again: the refetch pays a request.
        assert federation.traffic.requests == 1
