"""Unit tests for environments, negotiation and packaging (repro.transport)."""

import base64
import json

import pytest

from repro.core.channels import Medium
from repro.core.errors import (DeviceConstraintError, StoreError,
                               TransportError)
from repro.store.datastore import DataStore, StoreStats
from repro.transport import (FILTERABLE, PERSONAL_SYSTEM, PLAYABLE,
                             SILENT_TERMINAL, SystemEnvironment,
                             UNPLAYABLE, WORKSTATION,
                             document_requirements,
                             externals_to_immediates, negotiate, pack,
                             unpack)
from repro.transport.package import _block_from_obj, _descriptor_from_obj


def as_v1(package: str) -> str:
    """The package a v1 sender would emit: version 1, each embedded
    payload hex-encoded instead of base64."""
    payload = json.loads(package)
    body = payload["cmif-package"]
    body["version"] = 1
    for obj in body["blocks"].values():
        obj["data"] = base64.b64decode(obj["data"]).hex()
    return json.dumps(payload, indent=1)


class TestEnvironments:
    def test_profiles_are_distinct(self):
        assert WORKSTATION.color_depth > PERSONAL_SYSTEM.color_depth
        assert SILENT_TERMINAL.audio_channels == 0

    def test_supports_respects_media_set_and_devices(self):
        assert WORKSTATION.supports(Medium.VIDEO)
        assert not SILENT_TERMINAL.supports(Medium.AUDIO)
        assert not SILENT_TERMINAL.supports(Medium.VIDEO)
        assert SILENT_TERMINAL.supports(Medium.TEXT)

    def test_latency_defaults_to_zero(self):
        bare = SystemEnvironment(name="bare")
        assert bare.latency_for(Medium.VIDEO) == 0.0

    def test_degraded_copies(self):
        degraded = WORKSTATION.degraded(color_depth=8)
        assert degraded.color_depth == 8
        assert WORKSTATION.color_depth == 24

    def test_invalid_construction(self):
        with pytest.raises(DeviceConstraintError):
            SystemEnvironment(name="x", color_depth=13)
        with pytest.raises(DeviceConstraintError):
            SystemEnvironment(name="x", audio_channels=-1)


class TestNegotiation:
    def test_requirements_derived_from_descriptors(self, news_corpus):
        requirements = document_requirements(news_corpus.document)
        assert Medium.VIDEO in requirements["media"]
        assert requirements["max_resolution"] == (320, 240)
        assert requirements["color_depth"] == 24
        assert requirements["bandwidth_bps"] > 0
        assert requirements["tightest_must_epsilon_ms"] == 250.0

    def test_workstation_playable(self, news_corpus):
        result = negotiate(news_corpus.document, WORKSTATION)
        assert result.verdict == PLAYABLE
        assert result.ok

    def test_personal_system_needs_filtering(self, news_corpus):
        result = negotiate(news_corpus.document, PERSONAL_SYSTEM)
        assert result.verdict == FILTERABLE
        unsatisfied = [f for f in result.findings if not f.satisfied]
        assert all(f.filterable for f in unsatisfied)

    def test_silent_terminal_unplayable(self, news_corpus):
        result = negotiate(news_corpus.document, SILENT_TERMINAL)
        assert result.verdict == UNPLAYABLE
        assert not result.ok
        unmet = [f for f in result.findings
                 if not f.satisfied and not f.filterable]
        assert any("audio" in f.requirement for f in unmet)

    def test_summary_readable(self, news_corpus):
        text = negotiate(news_corpus.document, WORKSTATION).summary()
        assert "workstation" in text
        assert "[ok]" in text


class TestPackaging:
    def test_structure_only_package(self, fragment_corpus):
        package = pack(fragment_corpus.document, fragment_corpus.store)
        result = unpack(package)
        assert result.embedded_blocks == 0
        # Descriptors travelled: scheduling works without the store.
        from repro.timing import schedule_document
        schedule = schedule_document(result.document.compile())
        assert schedule.total_duration_ms == pytest.approx(44_000.0)

    def test_self_contained_package(self, fragment_corpus):
        package = pack(fragment_corpus.document, fragment_corpus.store,
                       embed_data=True)
        result = unpack(package)
        assert result.embedded_blocks > 0
        assert result.verified_checksums == result.embedded_blocks
        block = result.store.block_for("story3/voice")
        original = fragment_corpus.store.block_for("story3/voice")
        import numpy as np
        assert np.array_equal(block.materialize(),
                              original.materialize())

    def test_corruption_detected(self, fragment_corpus):
        package = pack(fragment_corpus.document, fragment_corpus.store,
                       embed_data=True)
        import json
        payload = json.loads(package)
        blocks = payload["cmif-package"]["blocks"]
        first = next(iter(blocks.values()))
        flipped = "00" if not first["data"].startswith("00") else "ff"
        first["data"] = flipped + first["data"][2:]
        with pytest.raises(TransportError, match="checksum"):
            unpack(json.dumps(payload))

    def test_not_a_package(self):
        with pytest.raises(TransportError):
            unpack("{}")
        with pytest.raises(TransportError):
            unpack("not json at all")

    def test_missing_descriptor_fails_packing(self):
        from repro.core.builder import DocumentBuilder
        builder = DocumentBuilder("doc")
        builder.channel("v", "video")
        builder.ext("clip", file="ghost", channel="v", duration=100)
        document = builder.build(validate=False)
        with pytest.raises(TransportError, match="ghost"):
            pack(document)


class TestUnpackedStore:
    """``unpack`` builds its store on first read; a reader of the store
    sees what an eagerly built one held, and ``unpack`` itself still
    refuses what the store's registration refuses."""

    @staticmethod
    def _eager_store(package: str) -> DataStore:
        """The store as ``unpack`` used to build it: every received
        descriptor registered with its block, in package order."""
        body = json.loads(package)["cmif-package"]
        blocks = {block_id: _block_from_obj(obj, body["version"])
                  for block_id, obj in body["blocks"].items()}
        store = DataStore(name="unpacked")
        for obj in body["descriptors"].values():
            descriptor = _descriptor_from_obj(obj)
            store.register(descriptor, blocks.get(descriptor.block_id)
                           if descriptor.block_id else None)
        return store

    @staticmethod
    def _view(store: DataStore) -> dict:
        """Everything a reader of ``store`` can see, read in one order."""
        view = {"name": store.name, "version": store.version,
                "stats": store.stats.snapshot(),
                "descriptors": list(store.descriptors()),
                "blocks": [(block.block_id, block.checksum())
                           for block in store.blocks()],
                "summary": store.summary(),
                "index_size": store.index_size()}
        for criteria in ({"medium": "video"}, {"keywords": "news"},
                         {"language": "en"},
                         {"medium": "audio", "keywords": "paintings"}):
            view[repr(criteria)] = [descriptor.descriptor_id for descriptor
                                    in store.find(**criteria)]
        view["stats after"] = store.stats.snapshot()
        return view

    @pytest.mark.parametrize("embed_data", [False, True])
    def test_store_holds_what_the_eager_store_held(self, news_corpus,
                                                   embed_data):
        package = pack(news_corpus.document, news_corpus.store,
                       embed_data=embed_data)
        result = unpack(package)
        store = result.store
        assert store is result.store
        view = self._view(store)
        assert view == self._view(self._eager_store(package))
        assert view["stats"] == StoreStats()
        assert len(view["blocks"]) == result.embedded_blocks
        assert [id(descriptor) for descriptor in view["descriptors"]] \
            == [id(descriptor)
                for descriptor in result.document.descriptors.values()]

    def test_a_repeated_descriptor_id_is_refused_by_unpack(
            self, fragment_corpus):
        payload = json.loads(pack(fragment_corpus.document,
                                  fragment_corpus.store))
        descriptors = payload["cmif-package"]["descriptors"]
        first, second = list(descriptors.values())[:2]
        second["descriptor_id"] = first["descriptor_id"]
        with pytest.raises(StoreError, match="registered twice"):
            unpack(json.dumps(payload))

    def test_a_block_under_another_id_is_refused_by_unpack(
            self, fragment_corpus):
        payload = json.loads(pack(fragment_corpus.document,
                                  fragment_corpus.store, embed_data=True))
        block = next(iter(payload["cmif-package"]["blocks"].values()))
        block["block_id"] = "elsewhere"
        with pytest.raises(StoreError, match="'elsewhere' was supplied"):
            unpack(json.dumps(payload))


class TestExternalsToImmediates:
    def test_text_externals_become_immediate(self):
        """The no-common-storage-server transport of section 5.1."""
        from repro.core.builder import DocumentBuilder
        from repro.pipeline.capture import CaptureSession
        from repro.store.datastore import DataStore
        store = DataStore()
        session = CaptureSession(store=store, seed=9)
        caption = session.capture_text("cap/0", text="Inline me")
        builder = DocumentBuilder("doc")
        builder.channel("caption", "text")
        builder.channel("video", "video")
        builder.descriptor(caption.file_id, caption.descriptor)
        with builder.seq("track"):
            builder.ext("c", file="cap/0", channel="caption")
            video = session.capture_video("vid/0", 1000.0)
            builder.descriptor(video.file_id, video.descriptor)
            builder.ext("v", file="vid/0", channel="video")
        document = builder.build()
        rewritten = externals_to_immediates(document, store)
        assert rewritten == 1
        track = document.root.child_named("track")
        imm = track.child_named("c")
        assert imm.kind.value == "imm"
        assert imm.data == "Inline me"
        # Non-text media stay external.
        assert track.child_named("v").kind.value == "ext"

    def test_rewrite_preserves_document_order(self, fragment_corpus):
        from repro.corpus import make_paintings_fragment
        corpus = make_paintings_fragment()
        from repro.core.tree import iter_leaves
        before = [node.name for node in
                  iter_leaves(corpus.document.root)]
        externals_to_immediates(corpus.document, corpus.store)
        after = [node.name for node in iter_leaves(corpus.document.root)]
        assert before == after


class TestEnvironmentFingerprint:
    def test_latency_map_is_immutable_and_hashable(self):
        from repro.transport import LatencyMap
        latencies = WORKSTATION.start_latency_ms
        assert isinstance(latencies, LatencyMap)
        with pytest.raises(TypeError):
            latencies[Medium.TEXT] = 99.0
        assert latencies.get(Medium.VIDEO) == 20.0
        assert hash(latencies) == hash(LatencyMap(dict(latencies)))

    def test_environment_is_hashable_cache_key(self):
        table = {WORKSTATION: "ws", PERSONAL_SYSTEM: "ps"}
        assert table[WORKSTATION] == "ws"

    def test_fingerprint_ignores_name_only(self):
        twin = WORKSTATION.degraded(name="mirror")
        assert twin.fingerprint() == WORKSTATION.fingerprint()
        degraded = WORKSTATION.degraded(color_depth=8)
        assert degraded.fingerprint() != WORKSTATION.fingerprint()
        slower = WORKSTATION.degraded(
            start_latency_ms={Medium.VIDEO: 500.0})
        assert slower.fingerprint() != WORKSTATION.fingerprint()

    def test_fingerprints_distinguish_profiles(self):
        prints = {profile.fingerprint()
                  for profile in (WORKSTATION, PERSONAL_SYSTEM,
                                  SILENT_TERMINAL)}
        assert len(prints) == 3


class TestRequirementsProfile:
    def test_cache_reuses_profile_per_revision(self, news_corpus):
        from repro.transport import RequirementsCache
        cache = RequirementsCache()
        document = news_corpus.document
        first = cache.requirements_for(document)
        second = cache.requirements_for(document)
        assert first is second
        assert cache.hits == 1 and cache.misses == 1

    def test_cache_invalidates_on_revision_bump(self):
        from repro.corpus import make_media_document
        from repro.transport import RequirementsCache
        cache = RequirementsCache()
        document = make_media_document(4, events=10)
        first = cache.requirements_for(document)
        document.bump_revision()
        second = cache.requirements_for(document)
        assert first is not second
        assert second.revision == document.revision

    def test_negotiate_accepts_precomputed_profile(self, news_corpus):
        from repro.transport import requirements_for
        profile = requirements_for(news_corpus.document)
        result = negotiate(news_corpus.document, WORKSTATION,
                           requirements=profile)
        assert result.verdict == PLAYABLE

    def test_audio_channel_requirement_negotiated(self):
        from repro.core.builder import DocumentBuilder
        from repro.core.descriptors import DataDescriptor
        from repro.core.timebase import MediaTime
        builder = DocumentBuilder("stereo-doc")
        builder.channel("sound", "audio")
        builder.descriptor("stereo", DataDescriptor(
            descriptor_id="stereo", medium=Medium.AUDIO, block_id=None,
            attributes={"duration": MediaTime.ms(1000.0),
                        "sample-rate": 22050.0, "channels": 2}))
        builder.ext("clip", file="stereo", channel="sound")
        document = builder.build(validate=False)
        result = negotiate(document, PERSONAL_SYSTEM)
        channel_findings = [finding for finding in result.findings
                            if finding.requirement == "audio-channels"]
        assert len(channel_findings) == 1
        assert not channel_findings[0].satisfied
        assert channel_findings[0].filterable
        assert result.verdict == FILTERABLE
        assert negotiate(document, WORKSTATION).verdict == PLAYABLE

    def test_bandwidth_without_rate_knobs_is_unfilterable(self):
        """Honesty: a stream budget overrun that no rate subsampling
        can reduce must reject, not promise filtering."""
        from repro.core.builder import DocumentBuilder
        from repro.core.descriptors import DataDescriptor
        from repro.core.timebase import MediaTime
        builder = DocumentBuilder("firehose")
        builder.channel("caption", "text")
        builder.descriptor("feed", DataDescriptor(
            descriptor_id="feed", medium=Medium.TEXT, block_id=None,
            attributes={"duration": MediaTime.ms(1000.0),
                        "resources": {"bandwidth-bps": 10 ** 9}}))
        builder.ext("ticker", file="feed", channel="caption")
        document = builder.build(validate=False)
        result = negotiate(document, WORKSTATION)
        bandwidth = next(finding for finding in result.findings
                         if finding.requirement == "bandwidth")
        assert not bandwidth.satisfied
        assert not bandwidth.filterable
        assert result.verdict == UNPLAYABLE


class TestPackageVersions:
    def test_default_is_v2_base64(self, fragment_corpus):
        import json
        package = pack(fragment_corpus.document, fragment_corpus.store,
                       embed_data=True)
        body = json.loads(package)["cmif-package"]
        assert body["version"] == 2
        sample = next(iter(body["blocks"].values()))["data"]
        assert not all(char in "0123456789abcdef" for char in sample)

    def test_cross_version_round_trip(self, fragment_corpus):
        """v1 (hex) and v2 (base64) packages open to identical data."""
        import numpy as np
        v2 = pack(fragment_corpus.document, fragment_corpus.store,
                  embed_data=True)
        v1 = as_v1(v2)
        assert json.loads(v1)["cmif-package"]["version"] == 1
        assert len(v2) < len(v1)  # ~25% smaller payload encoding
        result_v1 = unpack(v1)
        result_v2 = unpack(v2)
        assert result_v1.embedded_blocks == result_v2.embedded_blocks
        assert result_v1.verified_checksums == result_v1.embedded_blocks
        block_v1 = result_v1.store.block_for("story3/voice")
        block_v2 = result_v2.store.block_for("story3/voice")
        assert np.array_equal(block_v1.materialize(),
                              block_v2.materialize())

    def test_v1_corruption_detected(self, fragment_corpus):
        """Checksums are verified whatever version a package declares."""
        v1 = as_v1(pack(fragment_corpus.document, fragment_corpus.store,
                        embed_data=True))
        payload = json.loads(v1)
        first = next(iter(payload["cmif-package"]["blocks"].values()))
        flipped = "00" if not first["data"].startswith("00") else "ff"
        first["data"] = flipped + first["data"][2:]
        with pytest.raises(TransportError, match="checksum"):
            unpack(json.dumps(payload))

    def test_unknown_versions_rejected(self, fragment_corpus):
        import json
        package = pack(fragment_corpus.document, fragment_corpus.store)
        payload = json.loads(package)
        payload["cmif-package"]["version"] = 99
        with pytest.raises(TransportError, match="version"):
            unpack(json.dumps(payload))

    def test_corrupt_base64_payload_detected(self, fragment_corpus):
        import json
        package = pack(fragment_corpus.document, fragment_corpus.store,
                       embed_data=True)
        payload = json.loads(package)
        first = next(iter(payload["cmif-package"]["blocks"].values()))
        first["data"] = "%%" + first["data"][2:]
        with pytest.raises(TransportError, match="corrupt"):
            unpack(json.dumps(payload))
