"""Unit tests for the presentation mapping tool (pipeline stage 3)."""

import pytest

from repro.core.builder import DocumentBuilder
from repro.core.errors import DeviceConstraintError
from repro.core.values import Rect
from repro.pipeline.presentation import (PresentationMapper, VIRTUAL_HEIGHT,
                                         VIRTUAL_WIDTH)


def build_document(channel_specs):
    builder = DocumentBuilder("doc")
    for name, medium, extra in channel_specs:
        builder.channel(name, medium, **extra)
    builder.imm("x", channel=channel_specs[0][0], data="x", duration=100)
    return builder.build(validate=False)


class TestAutomaticLayout:
    def test_columns_cover_screen_exactly(self):
        document = build_document([
            ("video", "video", {}),
            ("graphic", "image", {}),
            ("caption", "text", {}),
        ])
        presentation = PresentationMapper().map_document(document)
        rects = [presentation.region_for(name).rect
                 for name in ("video", "graphic", "caption")]
        assert sum(rect.width for rect in rects) == VIRTUAL_WIDTH
        assert all(rect.height == VIRTUAL_HEIGHT for rect in rects)

    def test_video_gets_widest_column(self):
        document = build_document([
            ("video", "video", {}),
            ("caption", "text", {}),
        ])
        presentation = PresentationMapper().map_document(document)
        assert (presentation.region_for("video").rect.width
                > presentation.region_for("caption").rect.width)

    def test_prefer_width_overrides_medium_weight(self):
        document = build_document([
            ("video", "video", {"prefer-width": 1}),
            ("caption", "text", {"prefer-width": 9}),
        ])
        presentation = PresentationMapper().map_document(document)
        assert (presentation.region_for("caption").rect.width
                > presentation.region_for("video").rect.width)


class TestHints:
    def test_region_hint_respected(self):
        document = build_document([
            ("video", "video", {"region-hint": (0, 0, 640, 840)}),
            ("caption", "text", {"region-hint": (0, 840, 1000, 160)}),
        ])
        presentation = PresentationMapper().map_document(document)
        assert presentation.region_for("video").rect == Rect(0, 0, 640, 840)
        assert presentation.region_for("caption").rect == Rect(
            0, 840, 1000, 160)

    def test_hint_as_dict(self):
        document = build_document([
            ("video", "video",
             {"region-hint": {"x": 1, "y": 2, "width": 3, "height": 4}}),
        ])
        presentation = PresentationMapper().map_document(document)
        assert presentation.region_for("video").rect == Rect(1, 2, 3, 4)

    def test_malformed_hint_raises(self):
        document = build_document([
            ("video", "video", {"region-hint": "big"}),
        ])
        with pytest.raises(DeviceConstraintError, match="region-hint"):
            PresentationMapper().map_document(document)



class TestAudioAllocation:
    def test_speakers_round_robin(self):
        document = build_document([
            ("video", "video", {}),
            ("narration", "audio", {}),
            ("effects", "audio", {}),
        ])
        presentation = PresentationMapper(
            speaker_count=2).map_document(document)
        assert presentation.speaker_for("narration").speaker == 0
        assert presentation.speaker_for("effects").speaker == 1

    def test_speaker_hint(self):
        document = build_document([
            ("video", "video", {}),
            ("narration", "audio", {"speaker-hint": 1}),
        ])
        presentation = PresentationMapper(
            speaker_count=2).map_document(document)
        assert presentation.speaker_for("narration").speaker == 1

    def test_no_speakers_for_audio_document_raises(self):
        document = build_document([
            ("video", "video", {}),
            ("narration", "audio", {}),
        ])
        with pytest.raises(DeviceConstraintError, match="no speakers"):
            PresentationMapper(speaker_count=0).map_document(document)

    def test_hint_out_of_range_raises(self):
        document = build_document([
            ("video", "video", {}),
            ("narration", "audio", {"speaker-hint": 5}),
        ])
        with pytest.raises(DeviceConstraintError, match="speaker"):
            PresentationMapper(speaker_count=2).map_document(document)


class TestMissingAllocations:
    def test_unallocated_channel_raises(self):
        document = build_document([("video", "video", {})])
        presentation = PresentationMapper().map_document(document)
        with pytest.raises(DeviceConstraintError, match="no allocated"):
            presentation.region_for("ghost")
        with pytest.raises(DeviceConstraintError, match="no allocated"):
            presentation.speaker_for("ghost")

    def test_describe_lists_everything(self):
        document = build_document([
            ("video", "video", {}),
            ("narration", "audio", {}),
        ])
        presentation = PresentationMapper().map_document(document)
        text = presentation.describe()
        assert "video" in text
        assert "narration" in text
