"""Unit tests for the document player (pipeline stage 5b)."""

import pytest

from repro.core.builder import DocumentBuilder
from repro.core.channels import Medium
from repro.core.errors import PlaybackError
from repro.core.timebase import MediaTime
from repro.pipeline.player import Player
from repro.timing import schedule_document
from repro.transport.environments import SystemEnvironment

PERFECT = SystemEnvironment(name="perfect", jitter_ms=0.0)


def arc_document(max_delay_ms=250.0, strictness="must"):
    builder = DocumentBuilder("doc")
    builder.channel("video", "video")
    builder.channel("caption", "text")
    with builder.par("scene"):
        # Immediate nodes default to the text medium (paper section 5.1),
        # so the video event declares its medium explicitly.
        builder.imm("v", channel="video", medium="video", data="x",
                    duration=4000)
        c = builder.imm("c", channel="caption", data="y", duration=1000)
    document = builder.build()
    builder.arc(c, source="../v", destination=".",
                strictness=strictness,
                min_delay=MediaTime.ms(-50),
                max_delay=MediaTime.ms(max_delay_ms))
    return document


def schedule_of(document):
    return schedule_document(document.compile())


class TestBasicPlayback:
    def test_perfect_device_plays_exactly(self):
        report = Player(PERFECT).play(schedule_of(arc_document()))
        assert report.max_skew_ms == 0.0
        assert report.must_violations == []
        assert all(audit.satisfied for audit in report.audits)

    def test_latency_shows_as_skew(self):
        slow = SystemEnvironment(
            name="slow", jitter_ms=0.0,
            start_latency_ms={Medium.VIDEO: 100.0, Medium.TEXT: 10.0})
        report = Player(slow).play(schedule_of(arc_document()))
        skews = report.skew_by_channel()
        assert skews["video"] == pytest.approx(100.0)
        assert skews["caption"] == pytest.approx(10.0)

    def test_jitter_is_deterministic_by_seed(self):
        env = SystemEnvironment(name="jittery", jitter_ms=20.0)
        schedule = schedule_of(arc_document())
        first = Player(env, seed=5).play(schedule)
        second = Player(env, seed=5).play(schedule)
        third = Player(env, seed=6).play(schedule)
        assert [e.actual_begin_ms for e in first.played] == [
            e.actual_begin_ms for e in second.played]
        assert [e.actual_begin_ms for e in first.played] != [
            e.actual_begin_ms for e in third.played]

    def test_channel_device_serializes_events(self):
        builder = DocumentBuilder("doc")
        builder.channel("v", "video")
        with builder.seq("track", channel="v"):
            builder.imm("a", data="x", duration=1000)
            builder.imm("b", data="y", duration=1000)
        document = builder.build()
        slow = SystemEnvironment(
            name="slow", jitter_ms=0.0,
            start_latency_ms={Medium.TEXT: 500.0})
        report = Player(slow).play(schedule_of(document))
        a, b = sorted(report.played, key=lambda e: e.actual_begin_ms)
        assert b.actual_begin_ms >= a.actual_end_ms


class TestArcAuditing:
    def test_must_violation_detected(self):
        """A destination channel 300ms slower than the arc's 250ms
        window must be flagged."""
        slow_caption = SystemEnvironment(
            name="slow-captions", jitter_ms=0.0,
            start_latency_ms={Medium.TEXT: 300.0, Medium.VIDEO: 0.0})
        report = Player(slow_caption).play(schedule_of(arc_document()))
        assert len(report.must_violations) == 1
        assert report.must_violations[0].violation_ms == pytest.approx(
            50.0)

    def test_may_violation_is_not_an_error(self):
        slow_caption = SystemEnvironment(
            name="slow-captions", jitter_ms=0.0,
            start_latency_ms={Medium.TEXT: 300.0})
        report = Player(slow_caption, strict=True).play(
            schedule_of(arc_document(strictness="may")))
        assert report.may_violations
        assert report.must_violations == []

    def test_strict_mode_raises_on_must_violation(self):
        slow_caption = SystemEnvironment(
            name="slow-captions", jitter_ms=0.0,
            start_latency_ms={Medium.TEXT: 300.0})
        with pytest.raises(PlaybackError, match="must"):
            Player(slow_caption, strict=True).play(
                schedule_of(arc_document()))

    def test_prefetch_absorbs_latency(self):
        """Pre-scheduling (paper section 5.3.1's note) lets a slow device
        meet its window: dispatch early, start on time."""
        slow_caption = SystemEnvironment(
            name="slow-captions", jitter_ms=0.0,
            start_latency_ms={Medium.TEXT: 300.0})
        schedule = schedule_of(arc_document())
        late = Player(slow_caption).play(schedule)
        assert late.must_violations
        prefetching = Player(slow_caption, prefetch_lead_ms=300.0).play(
            schedule)
        assert prefetching.must_violations == []

    def test_negative_prefetch_rejected(self):
        with pytest.raises(PlaybackError):
            Player(PERFECT, prefetch_lead_ms=-1.0)


class TestReaderControls:
    def test_slow_motion_scales_times(self):
        report = Player(PERFECT).play(schedule_of(arc_document()),
                                      rate=2.0)
        video = next(e for e in report.played if e.channel == "video")
        assert video.actual_end_ms == pytest.approx(8000.0)
        assert report.rate == 2.0

    def test_invalid_rate_rejected(self):
        with pytest.raises(PlaybackError):
            Player(PERFECT).play(schedule_of(arc_document()), rate=0.0)

    def test_freeze_frame_shifts_later_events(self):
        builder = DocumentBuilder("doc")
        builder.channel("v", "video")
        with builder.seq("track", channel="v"):
            builder.imm("a", data="x", duration=1000)
            builder.imm("b", data="y", duration=1000)
        document = builder.build()
        report = Player(PERFECT).play(schedule_of(document),
                                      freeze_at_ms=500.0,
                                      freeze_duration_ms=2000.0)
        a = next(e for e in report.played if e.node_path == "/track/a")
        b = next(e for e in report.played if e.node_path == "/track/b")
        # 'a' spans the freeze point: extended.  'b' starts after: shifted.
        assert a.actual_end_ms == pytest.approx(3000.0)
        assert b.actual_begin_ms == pytest.approx(3000.0)
        assert report.freezes_ms == 2000.0

    def test_freeze_does_not_break_arcs(self):
        """Arcs anchor at realized source times, so a freeze moves the
        window along with the events."""
        report = Player(PERFECT).play(schedule_of(arc_document()),
                                      freeze_at_ms=0.0,
                                      freeze_duration_ms=1000.0)
        assert report.must_violations == []

    def test_fast_forward_skips_events(self):
        builder = DocumentBuilder("doc")
        builder.channel("v", "video")
        with builder.seq("track", channel="v"):
            builder.imm("a", data="x", duration=1000)
            builder.imm("b", data="y", duration=1000)
            builder.imm("c", data="z", duration=1000)
        document = builder.build()
        report = Player(PERFECT).play(schedule_of(document),
                                      seek_to_ms=1500.0)
        paths = {event.node_path for event in report.played}
        assert paths == {"/track/b", "/track/c"}

    def test_fast_forward_reports_navigation_conflicts(self):
        builder = DocumentBuilder("doc")
        builder.channel("v", "video")
        with builder.seq("track", channel="v"):
            builder.imm("a", data="x", duration=1000)
            builder.imm("filler", data="f", duration=4000)
            c = builder.imm("c", data="z", duration=1000)
        document = builder.build()
        builder.arc(c, source="../a", destination=".", src_anchor="end",
                    max_delay=None)
        report = Player(PERFECT).play(schedule_of(document),
                                      seek_to_ms=2000.0)
        assert report.navigation_conflicts
        assert "invalid" in str(report.navigation_conflicts[0])

    def test_summary_mentions_violations(self):
        slow_caption = SystemEnvironment(
            name="slow-captions", jitter_ms=0.0,
            start_latency_ms={Medium.TEXT: 300.0})
        report = Player(slow_caption).play(schedule_of(arc_document()))
        assert "must arcs violated: 1" in report.summary()
