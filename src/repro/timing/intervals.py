"""Interval arithmetic for synchronization windows (paper figure 8).

Figure 8 depicts the admissible start window of a destination node:
``[tref + min_delay, tref + max_delay]``.  :class:`Window` models such an
interval with an optionally unbounded upper end, supporting the
operations scheduling analysis needs: shifting (offsets), containment
tests (did the player hit the window?) and the distance to the window
(the skew the player reports).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.core.errors import SyncArcError
from repro.core.syncarc import SyncArc
from repro.core.timebase import TimeBase


@dataclass(frozen=True)
class Window:
    """A closed time interval ``[low_ms, high_ms]``; high may be None (+inf)."""

    low_ms: float
    high_ms: float | None = None

    def __post_init__(self) -> None:
        if not math.isfinite(self.low_ms):
            raise SyncArcError("window lower bound must be finite")
        if self.high_ms is not None:
            if not math.isfinite(self.high_ms):
                raise SyncArcError(
                    "window upper bound must be finite or None")
            if self.high_ms < self.low_ms:
                raise SyncArcError(
                    f"empty window [{self.low_ms}, {self.high_ms}]")

    @property
    def bounded(self) -> bool:
        """True when the window has a finite upper end."""
        return self.high_ms is not None

    @property
    def is_hard(self) -> bool:
        """True for a degenerate window (hard synchronization)."""
        return self.high_ms is not None and self.high_ms == self.low_ms

    def contains(self, time_ms: float, epsilon: float = 1e-6) -> bool:
        """True when ``time_ms`` lies inside the window (with tolerance)."""
        if time_ms < self.low_ms - epsilon:
            return False
        if self.high_ms is not None and time_ms > self.high_ms + epsilon:
            return False
        return True

    def violation_ms(self, time_ms: float) -> float:
        """Distance from the window (0 when inside).

        Negative values mean "too early" by that amount; positive values
        mean "too late".  The player reports these as skew measurements.
        """
        if time_ms < self.low_ms:
            return time_ms - self.low_ms
        if self.high_ms is not None and time_ms > self.high_ms:
            return time_ms - self.high_ms
        return 0.0

    def shifted(self, delta_ms: float) -> "Window":
        """The window translated by ``delta_ms``."""
        high = None if self.high_ms is None else self.high_ms + delta_ms
        return Window(self.low_ms + delta_ms, high)

    def __str__(self) -> str:
        high = "inf" if self.high_ms is None else f"{self.high_ms:g}"
        return f"[{self.low_ms:g}, {high}]ms"


def arc_window(arc: SyncArc, tref_ms: float,
               timebase: TimeBase) -> Window:
    """The figure-8 admissible window of an arc, anchored at ``tref_ms``.

    ``tref_ms`` is the source anchor's actual time; the arc's offset is
    added here, then the [delta, epsilon] tolerance spans the window.
    """
    delta_ms, epsilon_ms = arc.window_ms(timebase)
    offset_ms = timebase.to_ms(arc.offset)
    base = tref_ms + offset_ms
    high = None if epsilon_ms is None else base + epsilon_ms
    return Window(base + delta_ms, high)
