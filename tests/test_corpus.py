"""Tests for the Evening News corpus (repro.corpus.news).

These tests assert the paper-specified synchronization structure of
figures 4 and 10 holds in the *solved schedule* — they are the
fine-grained counterpart of the fig-10 bench.
"""

import pytest

from repro.corpus import make_paintings_fragment
from repro.corpus.generate import (make_deep_document, make_flat_document,
                                   make_random_document)
from repro.timing import schedule_document


class TestFragmentStructure:
    def test_five_channels(self, fragment_corpus):
        names = fragment_corpus.document.channels.names()
        assert names == ["video", "audio", "graphic", "label", "caption"]

    def test_tracks_parallel_under_story(self, fragment_corpus):
        story = fragment_corpus.document.root.child_named(
            "story-paintings")
        assert story.kind.value == "par"
        assert {child.name for child in story.children} == {
            "video-track", "audio-track", "graphic-track",
            "caption-track", "label-track"}

    def test_deterministic_by_seed(self):
        a = make_paintings_fragment(seed=5)
        b = make_paintings_fragment(seed=5)
        from repro.format import write_document
        assert write_document(a.document) == write_document(b.document)


class TestFigure10Synchronization:
    def test_graphic_starts_with_audio(self, fragment_schedule):
        assert fragment_schedule.node_begin_ms(
            "/story-paintings/graphic-track") == fragment_schedule.\
            node_begin_ms("/story-paintings/audio-track")

    def test_caption_starts_with_video(self, fragment_schedule):
        assert fragment_schedule.node_begin_ms(
            "/story-paintings/caption-track") == fragment_schedule.\
            node_begin_ms("/story-paintings/video-track")

    def test_offset_arc_places_second_graphic(self, fragment_schedule):
        """painting-two starts exactly 1s after the second caption ends."""
        location_end = fragment_schedule.event_for_path(
            "/story-paintings/caption-track/location").end_ms
        painting_two = fragment_schedule.event_for_path(
            "/story-paintings/graphic-track/painting-two").begin_ms
        assert painting_two == pytest.approx(location_end + 1000.0)

    def test_freeze_frame_hold_before_third_video(self, fragment_schedule):
        """'A new video sequence may not start until the caption text is
        over' — talking-head-2 waits for painting-value to end even
        though the previous video segment finished earlier."""
        crime_end = fragment_schedule.event_for_path(
            "/story-paintings/video-track/crime-scene-report").end_ms
        caption_end = fragment_schedule.event_for_path(
            "/story-paintings/caption-track/painting-value").end_ms
        head2_begin = fragment_schedule.event_for_path(
            "/story-paintings/video-track/talking-head-2").begin_ms
        assert caption_end > crime_end  # the hold is real
        assert head2_begin == pytest.approx(caption_end)

    def test_label_arcs_place_titles(self, fragment_schedule):
        museum = fragment_schedule.event_for_path(
            "/story-paintings/label-track/museum-name").begin_ms
        painting_one = fragment_schedule.event_for_path(
            "/story-paintings/graphic-track/painting-one").begin_ms
        assert museum == pytest.approx(painting_one + 10_000.0)
        announcer = fragment_schedule.event_for_path(
            "/story-paintings/label-track/announcer-name").begin_ms
        head2 = fragment_schedule.event_for_path(
            "/story-paintings/video-track/talking-head-2").begin_ms
        assert announcer == pytest.approx(head2)

    def test_total_span(self, fragment_schedule):
        assert fragment_schedule.total_duration_ms == pytest.approx(
            44_000.0)

    def test_no_channel_overlap(self, fragment_schedule):
        fragment_schedule.assert_channel_serialization()


class TestFullBroadcast:
    def test_stories_sequential(self, news_corpus):
        schedule = schedule_document(news_corpus.document.compile())
        story1_end = schedule.node_end_ms("/story-1")
        story2_begin = schedule.node_begin_ms("/story-2")
        assert story2_begin >= story1_end

    def test_opening_first_closing_last(self, news_corpus):
        schedule = schedule_document(news_corpus.document.compile())
        assert schedule.node_begin_ms("/opening") == 0.0
        closing_end = schedule.node_end_ms("/closing")
        assert closing_end == pytest.approx(schedule.total_duration_ms)

    def test_store_holds_all_referenced_media(self, news_corpus):
        for event in news_corpus.document.compile().events:
            if event.descriptor is not None:
                assert event.descriptor.descriptor_id in news_corpus.store

    def test_validation_clean(self, news_corpus):
        from repro.core.validate import ERROR, validate_document
        issues = validate_document(news_corpus.document)
        assert [i for i in issues if i.severity == ERROR] == []

    def test_story_count(self, news_corpus):
        assert news_corpus.story_count == 3  # 2 generic + paintings


class TestGenerators:
    def test_flat_document_shape(self):
        document = make_flat_document(20, channels=4)
        stats = document.stats()
        assert stats.imm_nodes == 20
        assert stats.max_depth == 2

    def test_deep_document_depth(self):
        document = make_deep_document(6)
        assert document.stats().max_depth >= 6

    def test_random_documents_schedulable(self):
        for seed in range(5):
            document = make_random_document(seed, events=30)
            schedule = schedule_document(document.compile())
            assert schedule.total_duration_ms > 0
            schedule.assert_channel_serialization()

    def test_random_document_deterministic(self):
        from repro.format import write_document
        assert write_document(make_random_document(3)) == \
            write_document(make_random_document(3))
