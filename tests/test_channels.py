"""Unit tests for synchronization channels (repro.core.channels)."""

import pytest

from repro.core.channels import (AURAL_MEDIA, Channel, ChannelDictionary,
                                 Medium, VISUAL_MEDIA)
from repro.core.errors import ChannelError


class TestMedium:
    def test_from_name(self):
        assert Medium.from_name("video") is Medium.VIDEO
        assert Medium.from_name(" AUDIO ") is Medium.AUDIO

    def test_unknown_medium_raises(self):
        with pytest.raises(ChannelError):
            Medium.from_name("smellovision")

    def test_visual_aural_partition(self):
        assert Medium.VIDEO in VISUAL_MEDIA
        assert Medium.TEXT in VISUAL_MEDIA
        assert Medium.AUDIO in AURAL_MEDIA
        assert Medium.AUDIO not in VISUAL_MEDIA


class TestChannel:
    def test_medium_coerced_from_string(self):
        channel = Channel("main", "video")
        assert channel.medium is Medium.VIDEO

    def test_visual_and_aural_flags(self):
        assert Channel("v", Medium.VIDEO).is_visual
        assert not Channel("v", Medium.VIDEO).is_aural
        assert Channel("a", Medium.AUDIO).is_aural

    def test_bad_name_rejected(self):
        with pytest.raises(Exception):
            Channel("has space", Medium.VIDEO)

    def test_declaration_includes_extras(self):
        channel = Channel("v", Medium.VIDEO, {"prefer-width": 3})
        declaration = channel.declaration()
        assert declaration["medium"] == "video"
        assert declaration["prefer-width"] == 3


class TestChannelDictionary:
    def test_declare_and_lookup(self):
        channels = ChannelDictionary()
        channels.declare_named("caption", "text")
        assert channels.lookup("caption").medium is Medium.TEXT

    def test_duplicate_name_rejected(self):
        channels = ChannelDictionary()
        channels.declare_named("a", "text")
        with pytest.raises(ChannelError):
            channels.declare_named("a", "audio")

    def test_lookup_unknown_raises_with_candidates(self):
        channels = ChannelDictionary()
        channels.declare_named("video", "video")
        with pytest.raises(ChannelError, match="video"):
            channels.lookup("vide0")

    def test_several_channels_same_medium(self):
        """The paper: 'It is possible to have several channels of the
        same medium type' — caption and label are both text."""
        channels = ChannelDictionary()
        channels.declare_named("caption", "text")
        channels.declare_named("label", "text")
        assert [channel.medium for channel in channels] \
            == [Medium.TEXT, Medium.TEXT]

    def test_declaration_order_preserved(self):
        channels = ChannelDictionary()
        for name in ("video", "audio", "graphic"):
            channels.declare_named(name, "video" if name == "video"
                                   else "audio" if name == "audio"
                                   else "image")
        assert channels.names() == ["video", "audio", "graphic"]

    def test_group_round_trip(self):
        channels = ChannelDictionary()
        channels.declare_named("video", "video", **{"prefer-width": 3})
        channels.declare_named("audio", "audio")
        rebuilt = ChannelDictionary.from_group(channels.to_group())
        assert rebuilt.names() == ["video", "audio"]
        assert rebuilt.lookup("video").extra == {"prefer-width": 3}

    def test_from_group_requires_medium(self):
        with pytest.raises(ChannelError):
            ChannelDictionary.from_group({"video": {"color": "blue"}})

    def test_contains_and_len(self):
        channels = ChannelDictionary()
        channels.declare_named("a", "text")
        assert "a" in channels
        assert "b" not in channels
        assert len(channels) == 1
