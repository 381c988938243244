"""Unit tests for synchronization windows (repro.timing.intervals)."""

import math

import pytest

from repro.core.errors import SyncArcError
from repro.core.syncarc import SyncArc
from repro.core.timebase import MediaTime, TimeBase
from repro.timing.intervals import Window, arc_window


class TestWindowBasics:
    def test_bounded_window(self):
        window = Window(10.0, 20.0)
        assert window.bounded
        assert not window.is_hard

    def test_unbounded_window(self):
        window = Window(10.0, None)
        assert not window.bounded

    def test_hard_window(self):
        assert Window(5.0, 5.0).is_hard

    def test_empty_window_rejected(self):
        with pytest.raises(SyncArcError):
            Window(10.0, 5.0)

    def test_infinite_low_rejected(self):
        with pytest.raises(SyncArcError):
            Window(math.inf, None)


class TestContainment:
    def test_contains_interior_and_edges(self):
        window = Window(10.0, 20.0)
        assert window.contains(10.0)
        assert window.contains(15.0)
        assert window.contains(20.0)
        assert not window.contains(9.0)
        assert not window.contains(21.0)

    def test_unbounded_contains_everything_late(self):
        assert Window(10.0, None).contains(1e12)

    def test_violation_sign_convention(self):
        window = Window(10.0, 20.0)
        assert window.violation_ms(5.0) == -5.0   # too early
        assert window.violation_ms(25.0) == 5.0   # too late
        assert window.violation_ms(15.0) == 0.0


class TestOperations:
    def test_shift(self):
        shifted = Window(10.0, 20.0).shifted(5.0)
        assert shifted.low_ms == 15.0
        assert shifted.high_ms == 25.0

    def test_shift_unbounded(self):
        assert Window(10.0, None).shifted(5.0).high_ms is None

    def test_str_rendering(self):
        assert "inf" in str(Window(1.0, None))


class TestArcWindow:
    def test_figure8_semantics(self):
        """The admissible start interval is
        [tref + offset + delta, tref + offset + epsilon]."""
        arc = SyncArc.window("a", "b",
                             min_delay=MediaTime.ms(-50),
                             max_delay=MediaTime.ms(200),
                             offset=MediaTime.seconds(1))
        window = arc_window(arc, tref_ms=5000.0, timebase=TimeBase())
        assert window.low_ms == 5950.0
        assert window.high_ms == 6200.0

    def test_hard_arc_degenerate_window(self):
        window = arc_window(SyncArc("a", "b"), 100.0, TimeBase())
        assert window.is_hard
        assert window.low_ms == 100.0

    def test_unbounded_arc(self):
        arc = SyncArc("a", "b", max_delay=None)
        window = arc_window(arc, 100.0, TimeBase())
        assert window.high_ms is None

    def test_media_units_resolve_through_timebase(self):
        base = TimeBase(frame_rate=25.0)
        arc = SyncArc.window("a", "b",
                             min_delay=MediaTime.frames(0),
                             max_delay=MediaTime.frames(5),
                             offset=MediaTime.frames(25))
        window = arc_window(arc, 0.0, base)
        assert window.low_ms == pytest.approx(1000.0)
        assert window.high_ms == pytest.approx(1200.0)
