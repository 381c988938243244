"""Synchronization arcs (paper sections 3.1, 5.3.1 and 5.3.2).

An arc is "a directed connection between two event descriptors, under the
convention that the arc is drawn from the controlling event to the
controlled event".  Its tabular form (figure 9) is::

    type  source  offset  destination  min_delay  max_delay

where *type* combines an anchor ("whether this synchronization arc
concerns the beginning or the end of the event block being synchronized")
with a strictness ("a 'must' type or a 'may' type").  The governing
equation (section 5.3.1) is::

    tref + delta <= tactual <= tref + epsilon

with ``tref`` the anchored time of the source plus the arc's offset,
``delta`` the minimum acceptable delay and ``epsilon`` the maximum
tolerable delay.  The paper fixes the sign conventions enforced here:

* a *positive* minimum delay "has no meaning" — ``delta <= 0``;
* a *negative* maximum delay "has no meaning" — ``epsilon >= 0``;
* ``epsilon`` is "possibly infinite", represented as ``None``.

Arcs "can be placed at the beginning of an event or at the end of the
event", so the source carries its own anchor.  The section 3.2 discussion
of hyper-navigation ("conditional synchronization arcs that point to
events on separate channels") is implemented by :class:`ConditionalArc`;
:mod:`repro.pipeline.navigation` interprets it and
:mod:`repro.pipeline.navprogram` compiles it for the serving path.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from repro.core.errors import SyncArcError
from repro.core.timebase import MediaTime, TimeBase


class Anchor(enum.Enum):
    """Which end of an event an arc endpoint attaches to."""

    BEGIN = "begin"
    END = "end"

    @classmethod
    def from_name(cls, name: str) -> "Anchor":
        """Look an anchor up by its symbolic name."""
        anchor = _ANCHOR_NAMES.get(str(name).strip().lower())
        if anchor is None:
            raise SyncArcError(f"unknown anchor {name!r}; expected 'begin' "
                               f"or 'end'")
        return anchor


class Strictness(enum.Enum):
    """The may/must component of an arc's type field.

    MAY: "the requested type of synchronization is desirable but not
    essential" — the scheduler may relax (drop) the arc to resolve a
    conflict, and the player reports but tolerates violations.

    MUST: the environment "should do all it can to implement the requested
    type of synchronization, even at the expense of overall system
    performance" — never relaxed; a violated must arc is a hard error.
    """

    MAY = "may"
    MUST = "must"

    @classmethod
    def from_name(cls, name: str) -> "Strictness":
        """Look a strictness up by its symbolic name."""
        strictness = _STRICTNESS_NAMES.get(str(name).strip().lower())
        if strictness is None:
            raise SyncArcError(f"unknown strictness {name!r}; expected "
                               f"'may' or 'must'")
        return strictness


_ANCHOR_NAMES = {anchor.value: anchor for anchor in Anchor}
_STRICTNESS_NAMES = {strictness.value: strictness
                     for strictness in Strictness}


#: Hard synchronization: delta = epsilon = 0 (paper section 5.3.1).
ZERO = MediaTime.ms(0.0)


@dataclass(frozen=True)
class SyncArc:
    """One explicit synchronization arc.

    ``source`` and ``destination`` are relative node paths (paper section
    5.3.2: "a relative path name in the tree (by using named nodes)"); the
    empty string names the node the arc is attached to.  Paths are
    resolved against the owning node by :mod:`repro.core.paths`.

    ``offset`` is the paper's "integral positive offset from the start of
    the controlling node", generalized to any media-dependent unit and to
    either anchor of the source.
    """

    source: str
    destination: str
    src_anchor: Anchor = Anchor.BEGIN
    dst_anchor: Anchor = Anchor.BEGIN
    strictness: Strictness = Strictness.MUST
    offset: MediaTime = ZERO
    min_delay: MediaTime = ZERO
    max_delay: MediaTime | None = ZERO

    def __post_init__(self) -> None:
        if not isinstance(self.source, str):
            raise SyncArcError(f"arc source must be a path string, "
                               f"got {self.source!r}")
        if not isinstance(self.destination, str):
            raise SyncArcError(f"arc destination must be a path string, "
                               f"got {self.destination!r}")
        if self.offset.value < 0:
            raise SyncArcError(
                f"arc offset must be non-negative (the paper specifies an "
                f"'integral positive offset'), got {self.offset!r}")
        if self.min_delay.value > 0:
            raise SyncArcError(
                f"a positive minimum delay has no meaning (paper section "
                f"5.3.1), got {self.min_delay!r}")
        if self.max_delay is not None and self.max_delay.value < 0:
            raise SyncArcError(
                f"a negative maximum delay has no meaning (paper section "
                f"5.3.1), got {self.max_delay!r}")

    @property
    def is_hard(self) -> bool:
        """True for a hard synchronization relationship (delta = epsilon = 0)."""
        return (self.min_delay.value == 0
                and self.max_delay is not None
                and self.max_delay.value == 0)

    def window_ms(self, timebase: TimeBase) -> tuple[float, float | None]:
        """The admissible window (relative to tref) in milliseconds.

        Returns ``(delta_ms, epsilon_ms)`` with ``epsilon_ms`` None when
        the maximum delay is infinite.
        """
        delta = timebase.to_ms(self.min_delay)
        epsilon = (None if self.max_delay is None
                   else timebase.to_ms(self.max_delay))
        if epsilon is not None and delta > epsilon:
            raise SyncArcError(
                f"arc window is empty after unit conversion: "
                f"delta={delta}ms > epsilon={epsilon}ms")
        return delta, epsilon

    def type_field(self) -> str:
        """The figure-9 'type' column: destination anchor + strictness."""
        return f"{self.dst_anchor.value}/{self.strictness.value}"

    def describe(self) -> str:
        """A one-line human-readable rendering (figure-9 row order)."""
        epsilon = ("inf" if self.max_delay is None
                   else f"{self.max_delay.value:g}{self.max_delay.unit.value}")
        return (f"{self.type_field()}  "
                f"{self.source or '.'}@{self.src_anchor.value}  "
                f"+{self.offset.value:g}{self.offset.unit.value}  "
                f"{self.destination or '.'}@{self.dst_anchor.value}  "
                f"{self.min_delay.value:g}{self.min_delay.unit.value}  "
                f"{epsilon}")

    @classmethod
    def hard(cls, source: str, destination: str, *,
             src_anchor: Anchor = Anchor.BEGIN,
             dst_anchor: Anchor = Anchor.BEGIN,
             offset: MediaTime = ZERO,
             strictness: Strictness = Strictness.MUST) -> "SyncArc":
        """A hard arc: destination exactly at tref (delta = epsilon = 0)."""
        return cls(source, destination, src_anchor=src_anchor,
                   dst_anchor=dst_anchor, strictness=strictness,
                   offset=offset, min_delay=ZERO, max_delay=ZERO)

    @classmethod
    def window(cls, source: str, destination: str, *,
               min_delay: MediaTime, max_delay: MediaTime | None,
               src_anchor: Anchor = Anchor.BEGIN,
               dst_anchor: Anchor = Anchor.BEGIN,
               offset: MediaTime = ZERO,
               strictness: Strictness = Strictness.MUST) -> "SyncArc":
        """An arc with an explicit [delta, epsilon] tolerance window."""
        return cls(source, destination, src_anchor=src_anchor,
                   dst_anchor=dst_anchor, strictness=strictness,
                   offset=offset, min_delay=min_delay, max_delay=max_delay)


@dataclass(frozen=True)
class ConditionalArc(SyncArc):
    """A hyper-navigation arc (paper section 3.2).

    The arc only fires when ``condition`` is satisfied at presentation
    time; the player evaluates conditions against its interaction state
    (for example a reader selecting a link).  Unfired conditional arcs
    impose no scheduling constraint, which is how the paper's "non-linear
    ordering of data" coexists with a linear schedule.
    """

    condition: str = "always"

    def describe(self) -> str:
        return super().describe() + f"  when[{self.condition}]"
