"""Tests for hyper-navigation sessions (repro.pipeline.navigation)."""

import pytest

from repro.core.builder import DocumentBuilder
from repro.core.errors import NavigationError
from repro.core.syncarc import ConditionalArc
from repro.pipeline.navigation import collect_links
from repro.timing import schedule_document
from tests.oracles.navigation import NavigationSession


@pytest.fixture()
def linked_schedule():
    """seq(intro, menu, chapter-1, chapter-2) with links from the menu."""
    builder = DocumentBuilder("hyperdoc")
    builder.channel("v", "video")
    with builder.seq("body", channel="v"):
        builder.imm("intro", data="i", duration=2000)
        menu = builder.imm("menu", data="m", duration=4000)
        builder.imm("chapter-1", data="1", duration=5000)
        builder.imm("chapter-2", data="2", duration=5000)
    document = builder.build()
    menu.add_arc(ConditionalArc(".", "../chapter-1",
                                condition="pick-chapter-1"))
    menu.add_arc(ConditionalArc(".", "../chapter-2",
                                condition="pick-chapter-2"))
    return schedule_document(document.compile())


class TestLinkCollection:
    def test_links_found_with_activity_windows(self, linked_schedule):
        links = collect_links(linked_schedule)
        assert len(links) == 2
        first = next(l for l in links if l.condition == "pick-chapter-1")
        # The menu runs 2000..6000; chapter-1 begins at 6000.
        assert first.active_from_ms == 2000.0
        assert first.active_until_ms == 6000.0
        assert first.target_time_ms == 6000.0

    def test_plain_arcs_are_not_links(self, linked_schedule):
        # The document's default arcs never appear as links.
        assert all(link.condition.startswith("pick-")
                   for link in collect_links(linked_schedule))

    def test_conditional_arcs_do_not_constrain_schedule(self,
                                                        linked_schedule):
        """Conditional arcs are runtime-only: the static schedule is the
        plain sequential one."""
        assert linked_schedule.total_duration_ms == 16_000.0


class TestSession:
    def test_links_only_active_while_source_on_screen(self,
                                                      linked_schedule):
        session = NavigationSession(linked_schedule)
        assert session.conditions_available() == []
        session.advance_to(3000.0)
        assert session.conditions_available() == ["pick-chapter-1",
                                                  "pick-chapter-2"]
        session.advance_to(7000.0)
        assert session.conditions_available() == []

    def test_follow_jumps_to_target(self, linked_schedule):
        session = NavigationSession(linked_schedule)
        session.advance_to(3000.0)
        jump = session.follow("pick-chapter-2")
        assert jump.to_ms == 11_000.0
        assert session.position_ms == 11_000.0
        assert session.on_screen() == ["/body/chapter-2"]

    def test_follow_unavailable_condition_raises(self, linked_schedule):
        session = NavigationSession(linked_schedule)
        with pytest.raises(NavigationError, match="no active link"):
            session.follow("pick-chapter-1")

    def test_jump_reports_invalidated_arcs(self):
        """A jump over an arc's source invalidates it (class 3)."""
        from repro.core.timebase import MediaTime
        builder = DocumentBuilder("doc")
        builder.channel("v", "video")
        with builder.seq("body", channel="v"):
            menu = builder.imm("menu", data="m", duration=2000)
            builder.imm("a", data="a", duration=3000)
            late = builder.imm("late", data="l", duration=2000)
        document = builder.build()
        # A relative must arc whose source ('a') would be skipped.
        builder.arc(late, source="../a", destination=".",
                    src_anchor="end", max_delay=None)
        menu.add_arc(ConditionalArc(".", "../late", condition="skip"))
        schedule = schedule_document(document.compile())
        session = NavigationSession(schedule)
        session.advance_to(1000.0)
        jump = session.follow("skip")
        assert jump.invalidated
        assert jump.invalidated[0].conflict_class == "navigation"

    def test_advance_backwards_requires_rewind(self, linked_schedule):
        session = NavigationSession(linked_schedule)
        session.advance_to(5000.0)
        with pytest.raises(NavigationError):
            session.advance_to(1000.0)
        session.rewind()
        assert session.position_ms == 0.0

    def test_history_recorded(self, linked_schedule):
        session = NavigationSession(linked_schedule)
        session.advance_to(3000.0)
        session.follow("pick-chapter-1")
        session.rewind()
        session.advance_to(3000.0)
        session.follow("pick-chapter-2")
        assert [jump.condition for jump in session.history] == [
            "pick-chapter-1", "pick-chapter-2"]

class TestSegmentsCover:
    """The merged-run coverage primitive both session flavors share."""

    def test_single_segment(self):
        from repro.pipeline.navigation import segments_cover
        assert segments_cover([(0.0, 4.0)], 1.0, 3.0)
        assert not segments_cover([(0.0, 4.0)], 1.0, 5.0)

    def test_overlapping_segments_merge_into_one_run(self):
        from repro.pipeline.navigation import segments_cover
        # Neither segment alone spans [1, 5]; their union does.
        assert segments_cover([(0.0, 4.0), (2.0, 6.0)], 1.0, 5.0)

    def test_gap_breaks_the_run(self):
        from repro.pipeline.navigation import segments_cover
        assert not segments_cover([(0.0, 4.0), (4.5, 6.0)], 1.0, 5.0)

    def test_adjacent_segments_chain(self):
        from repro.pipeline.navigation import segments_cover
        assert segments_cover([(0.0, 2.0), (2.0, 5.0)], 1.0, 4.0)

    def test_empty(self):
        from repro.pipeline.navigation import segments_cover
        assert not segments_cover([], 0.0, 1.0)


class TestRewatchAfterBackwardJump:
    """Regression: watched intervals must merge across backward jumps.

    A reader who jumps backwards re-watches part of an earlier pass;
    the arc-validity walk then judges sources against *overlapping*
    segments.  The old containment check anchored each test to the
    current segment's start, so a source spanning two overlapping
    passes was wrongly reported never-presented.

    (The interactive session does not use the linear-play
    ``invalid_arcs_after_seek`` helper at all — seek replays on the
    serving path do, and that analysis is per-seek, stateless, and was
    never affected.  The session-side bug lived only in the watched-
    interval merge exercised here.)
    """

    def build(self):
        from repro.core.timebase import MediaTime
        builder = DocumentBuilder("rewatch")
        builder.channel("v", "video")
        with builder.seq("body", channel="v"):
            builder.imm("a", data="a", duration=1000)
            b = builder.imm("b", data="b", duration=4000)
            c = builder.imm("c", data="c", duration=3000)
            tail = builder.imm("tail", data="t", duration=2000)
        document = builder.build()
        # A must arc whose source is 'b' (spans 1000..5000).
        builder.arc(tail, source="../b", destination=".",
                    src_anchor="end", max_delay=None)
        # 'again' jumps backwards into b's middle (begin + 1000ms).
        b.add_arc(ConditionalArc(".", ".", condition="again",
                                 offset=MediaTime.ms(1000)))
        c.add_arc(ConditionalArc(".", "../tail", condition="skip"))
        return schedule_document(document.compile())

    def test_source_watched_across_two_passes_stays_valid(self):
        schedule = self.build()
        session = NavigationSession(schedule)
        session.advance_to(3000.0)
        back = session.follow("again")
        assert back.to_ms == 2000.0
        session.advance_to(5500.0)
        forward = session.follow("skip")
        # b was watched as [1000, 3000] then [2000, 5500]: fully
        # presented across the two overlapping passes, so the arc out
        # of it must NOT be invalidated.
        assert forward.invalidated == []

    def test_compiled_session_agrees(self):
        from repro.pipeline.navprogram import compile_navigation
        schedule = self.build()
        session = compile_navigation(schedule).session()
        session.advance_to(3000.0)
        session.follow("again")
        session.advance_to(5500.0)
        assert session.follow("skip").invalidated == []

    def test_unwatched_source_still_reported(self):
        """Control: a genuine gap over the source still invalidates."""
        schedule = self.build()
        session = NavigationSession(schedule)
        session.advance_to(1500.0)
        back = session.follow("again")
        assert back.to_ms == 2000.0
        session.advance_to(5500.0)
        forward = session.follow("skip")
        # b was watched as [1000, 1500] and [2000, 5500]: the gap
        # (1500, 2000) means it never fully presented.
        assert [report.conflict_class for report in forward.invalidated] \
            == ["navigation"]
