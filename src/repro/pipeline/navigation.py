"""Hyper-navigation over conditional arcs (paper section 3.2).

"The entire question of hyper access to data is intimately related to
the concepts of document presentation synchronization. ... we suspect
that this general problem can be addressed via the definition of
conditional synchronization arcs that point to events on separate
channels" — the paper leaves the idea as future work.  This module
holds the shared vocabulary: the :class:`Link` rows
:func:`collect_links` extracts, the :class:`Jump` records a session
takes, and the :func:`segments_cover` rule jump validity is judged by.
:mod:`repro.pipeline.navprogram` lowers a schedule into precompiled
link/invalidation tables and runs the sessions, pinned bit-identical to
the interpretive session kept in ``tests/oracles/navigation.py``.

A :class:`ConditionalArc` carries a named condition.  During an
interactive session, firing a condition at some presentation time
*jumps* the reader: the arc's destination anchor becomes the new
playback position, computed through the ordinary offset mechanism.
Jump validity reuses the class-3 navigation analysis: after a jump,
relative arcs whose sources never executed are reported invalid,
because "the source of the arc must execute in order for a
synchronization condition to be true".
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.paths import node_path, resolve_path
from repro.core.syncarc import Anchor, ConditionalArc
from repro.core.tree import iter_preorder
from repro.timing.conflicts import ConflictReport
from repro.timing.schedule import Schedule


@dataclass(frozen=True)
class Link:
    """One followable hyper-link: a conditional arc with solved times."""

    condition: str
    owner_path: str
    source_path: str
    target_path: str
    active_from_ms: float
    active_until_ms: float
    target_time_ms: float

    def active_at(self, time_ms: float) -> bool:
        """True while the link's source event is on screen."""
        return self.active_from_ms <= time_ms < self.active_until_ms

    def __str__(self) -> str:
        return (f"[{self.condition}] {self.source_path} -> "
                f"{self.target_path} @ {self.target_time_ms:g}ms")


@dataclass
class Jump:
    """One navigation step taken during a session."""

    condition: str
    from_ms: float
    to_ms: float
    invalidated: list[ConflictReport] = field(default_factory=list)


def segments_cover(segments: list[tuple[float, float]],
                   begin_ms: float, end_ms: float) -> bool:
    """True when ``[begin_ms, end_ms]`` lies inside the segment union.

    Watched segments may overlap (a backward jump re-watches part of an
    earlier pass), so coverage must be judged against *merged* runs: an
    interval counts as watched when one contiguous union of segments
    spans it, even if no single segment does.  Both the interpretive
    session and the compiled one judge arc validity through this
    helper, so their reports cannot drift.
    """
    run_start = 0.0
    covered_until: float | None = None
    for start, end in sorted(segments):
        if covered_until is None or start > covered_until + 1e-9:
            run_start, covered_until = start, end
        elif end > covered_until:
            covered_until = end
        if begin_ms >= run_start - 1e-9 and end_ms <= covered_until + 1e-9:
            return True
    return False


def collect_links(schedule: Schedule) -> list[Link]:
    """Extract every conditional arc of a scheduled document as a link.

    A link is *active* while its source node is being presented — the
    reader can only follow what is on screen, the natural hypermedia
    rule.  The jump target is the destination anchor time plus the
    arc's offset.
    """
    document = schedule.compiled.document
    links: list[Link] = []
    for node in iter_preorder(document.root):
        for arc in node.arcs:
            if not isinstance(arc, ConditionalArc):
                continue
            source = resolve_path(node, arc.source)
            target = resolve_path(node, arc.destination)
            source_path = node_path(source)
            target_path = node_path(target)
            begin = schedule.node_begin_ms(source_path)
            end = schedule.node_end_ms(source_path)
            anchor_time = (schedule.node_begin_ms(target_path)
                           if arc.dst_anchor is Anchor.BEGIN
                           else schedule.node_end_ms(target_path))
            offset_ms = document.timebase.to_ms(arc.offset)
            links.append(Link(
                condition=arc.condition,
                owner_path=node_path(node),
                source_path=source_path,
                target_path=target_path,
                active_from_ms=begin,
                active_until_ms=end,
                target_time_ms=anchor_time + offset_ms,
            ))
    return links
