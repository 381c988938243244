"""Unit tests for pipeline stages 1-2 (capture, structure mapping)."""

import pytest

from repro.core.errors import MediaError
from repro.pipeline.capture import CaptureSession
from repro.pipeline.mapping import StructureMapper
from repro.store.datastore import DataStore
from repro.timing import schedule_document


class TestCaptureSession:
    def test_capture_fills_store(self):
        session = CaptureSession(store=DataStore(), seed=1)
        session.capture_text("t1")
        session.capture_audio("a1", 1000.0)
        session.capture_video("v1", 2000.0)
        session.capture_image("i1")
        assert len(session.store) == 4

    def test_descriptor_keyed_by_file_id(self):
        session = CaptureSession(store=DataStore(), seed=1)
        captured = session.capture_text("story/caption-1")
        assert captured.descriptor.descriptor_id == "story/caption-1"
        assert session.store.descriptor("story/caption-1") is not None

    def test_duplicate_file_id_rejected(self):
        session = CaptureSession(store=DataStore(), seed=1)
        session.capture_text("t1")
        with pytest.raises(MediaError, match="already used"):
            session.capture_text("t1")

    def test_sessions_deterministic_by_seed(self):
        first = CaptureSession(store=DataStore(), seed=7)
        second = CaptureSession(store=DataStore(), seed=7)
        a = first.capture_text("t")
        b = second.capture_text("t")
        assert a.block.payload == b.block.payload

    def test_sibling_captures_differ(self):
        session = CaptureSession(store=DataStore(), seed=7)
        a = session.capture_text("t1")
        b = session.capture_text("t2")
        assert a.block.payload != b.block.payload

    def test_capture_durations_recorded(self):
        session = CaptureSession(store=DataStore(), seed=1)
        captured = session.capture_video("v", 3000.0)
        assert captured.descriptor.duration_ms(
            session.timebase) == pytest.approx(3000.0)


class TestStructureMapper:
    def test_scene_and_sequence_compose(self):
        store = DataStore()
        session = CaptureSession(store=store, seed=2)
        mapper = StructureMapper.create("doc", store)
        mapper.channel("video", "video").channel("sound", "audio")
        mapper.scene("opening", {
            "video": session.capture_video("open/v", 2000.0),
            "sound": session.capture_audio("open/a", 2000.0),
        })
        mapper.sequence("clips", "video", [
            session.capture_video("clip/0", 1000.0),
            session.capture_video("clip/1", 1500.0),
        ])
        document = mapper.finish()
        schedule = schedule_document(document.compile())
        assert schedule.total_duration_ms == pytest.approx(4500.0)
        assert schedule.node_begin_ms("/clips") == pytest.approx(2000.0)

    def test_place_registers_descriptor(self):
        store = DataStore()
        session = CaptureSession(store=store, seed=2)
        mapper = StructureMapper.create("doc", store)
        mapper.channel("video", "video")
        node = mapper.place(session.capture_video("v", 500.0), "video",
                            name="clip")
        document = mapper.finish()
        assert document.resolve_descriptor("v") is not None
        assert node.file == "v"

    def test_finish_attaches_store_resolver(self):
        store = DataStore()
        session = CaptureSession(store=store, seed=2)
        captured = session.capture_video("v", 500.0)
        mapper = StructureMapper.create("doc", store)
        mapper.channel("video", "video")
        mapper.builder.ext("clip", file="v", channel="video")
        document = mapper.finish(validate=False)
        # The descriptor was never registered locally; the store's
        # resolver (the DDBMS path of figure 2) supplies it.
        assert document.resolve_descriptor("v").descriptor_id == "v"
        compiled = document.compile()
        assert compiled.events[0].duration_ms == pytest.approx(500.0)
