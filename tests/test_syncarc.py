"""Unit tests for synchronization arcs (repro.core.syncarc)."""

import pytest

from repro.core.errors import SyncArcError
from repro.core.syncarc import (Anchor, ConditionalArc, Strictness, SyncArc)
from repro.core.timebase import MediaTime, TimeBase


class TestEnums:
    def test_anchor_from_name(self):
        assert Anchor.from_name("begin") is Anchor.BEGIN
        assert Anchor.from_name(" End ") is Anchor.END
        with pytest.raises(SyncArcError):
            Anchor.from_name("middle")

    def test_strictness_from_name(self):
        assert Strictness.from_name("may") is Strictness.MAY
        assert Strictness.from_name("MUST") is Strictness.MUST
        with pytest.raises(SyncArcError):
            Strictness.from_name("perhaps")


class TestSignConventions:
    """Paper section 5.3.1's sign rules for delta and epsilon."""

    def test_positive_min_delay_has_no_meaning(self):
        with pytest.raises(SyncArcError, match="positive minimum"):
            SyncArc("a", "b", min_delay=MediaTime.ms(10))

    def test_negative_max_delay_has_no_meaning(self):
        with pytest.raises(SyncArcError, match="negative maximum"):
            SyncArc("a", "b", max_delay=MediaTime.ms(-10))

    def test_negative_min_delay_allowed(self):
        """'A negative delay represents the ability to start the target
        node sooner than the indicated reference time.'"""
        arc = SyncArc("a", "b", min_delay=MediaTime.ms(-100),
                      max_delay=MediaTime.ms(0))
        assert arc.min_delay.value == -100

    def test_negative_offset_rejected(self):
        with pytest.raises(SyncArcError, match="offset"):
            SyncArc("a", "b", offset=MediaTime.ms(-1))


class TestHardSync:
    def test_default_arc_is_hard(self):
        """'A minimum delay of 0 units indicates a hard synchronization
        relationship' — and so does a maximum of 0."""
        assert SyncArc("a", "b").is_hard

    def test_windowed_arc_is_not_hard(self):
        arc = SyncArc("a", "b", max_delay=MediaTime.ms(100))
        assert not arc.is_hard

    def test_hard_constructor(self):
        arc = SyncArc.hard("a", "b", offset=MediaTime.seconds(1))
        assert arc.is_hard
        assert arc.offset.value == 1


class TestWindows:
    def test_window_in_ms(self):
        base = TimeBase()
        arc = SyncArc.window("a", "b", min_delay=MediaTime.ms(-50),
                             max_delay=MediaTime.ms(200))
        assert arc.window_ms(base) == (-50.0, 200.0)

    def test_window_with_media_units(self):
        base = TimeBase(frame_rate=25.0)
        arc = SyncArc.window("a", "b", min_delay=MediaTime.frames(-1),
                             max_delay=MediaTime.frames(2))
        delta, epsilon = arc.window_ms(base)
        assert delta == pytest.approx(-40.0)
        assert epsilon == pytest.approx(80.0)

    def test_unbounded_window(self):
        arc = SyncArc("a", "b", max_delay=None)
        delta, epsilon = arc.window_ms(TimeBase())
        assert delta == 0.0
        assert epsilon is None


class TestRendering:
    def test_type_field_matches_figure9(self):
        arc = SyncArc("a", "b", dst_anchor=Anchor.END,
                      strictness=Strictness.MAY)
        assert arc.type_field() == "end/may"

    def test_describe_contains_all_fields(self):
        arc = SyncArc("../x", "y", src_anchor=Anchor.END,
                      offset=MediaTime.seconds(1),
                      min_delay=MediaTime.ms(-5),
                      max_delay=None)
        text = arc.describe()
        assert "../x@end" in text
        assert "+1s" in text
        assert "inf" in text

    def test_empty_paths_render_as_dot(self):
        arc = SyncArc("", "")
        assert ".@begin" in arc.describe()


class TestConditionalArcs:
    def test_condition_recorded(self):
        arc = ConditionalArc("a", "b", condition="reader-selects-link")
        assert arc.condition == "reader-selects-link"
        assert "when[reader-selects-link]" in arc.describe()

    def test_conditional_is_a_sync_arc(self):
        assert isinstance(ConditionalArc("a", "b"), SyncArc)

    def test_conditional_inherits_sign_rules(self):
        with pytest.raises(SyncArcError):
            ConditionalArc("a", "b", min_delay=MediaTime.ms(1))


class TestImmutability:
    def test_arcs_are_frozen(self):
        arc = SyncArc("a", "b")
        with pytest.raises(Exception):
            arc.source = "c"  # type: ignore[misc]
