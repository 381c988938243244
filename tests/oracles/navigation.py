"""The interpretive navigation session the compiled one replaced.

``NavigationSession`` is the earlier :mod:`repro.pipeline.navigation`
class verbatim: it collects links with a tree walk per session and
re-walks the tree on every ``follow()`` to decide which ordinary arcs
a jump invalidated.  :class:`~repro.pipeline.navigation.Link`,
:class:`~repro.pipeline.navigation.Jump`, ``collect_links`` and
``segments_cover`` are imported from the shipped module, so sessions
compare equal across the two.

The shipped :class:`~repro.pipeline.navprogram.CompiledNavigationSession`
must reproduce this class's links, jumps, invalidation reports and
errors exactly (``tests/test_navprogram.py``);
``benchmarks/bench_navigation.py`` times its gate against it.
"""

from __future__ import annotations

from repro.core.errors import NavigationError
from repro.core.paths import node_path, resolve_path
from repro.core.syncarc import ConditionalArc
from repro.core.tree import iter_preorder
from repro.pipeline.navigation import (Jump, Link, collect_links,
                                       segments_cover)
from repro.timing.conflicts import NAVIGATION, ConflictReport
from repro.timing.schedule import Schedule


class NavigationSession:
    """An interactive reading of one scheduled document.

    Tracks the current presentation position; :meth:`follow` fires a
    condition, jumping to the linked target and recording which relative
    arcs the jump invalidated.  The document itself is never reordered —
    the paper's rule that "re-ordering requires re-editing the document"
    holds; navigation only moves the read position.
    """

    def __init__(self, schedule: Schedule) -> None:
        self.schedule = schedule
        self.links = collect_links(schedule)
        self.position_ms = 0.0
        self.history: list[Jump] = []
        #: Closed intervals of presentation time the reader has actually
        #: watched; jumps leave gaps.  Arc validity is judged against
        #: these, not against a linear-play assumption.
        self._played: list[tuple[float, float]] = []
        self._segment_start = 0.0

    def advance_to(self, time_ms: float) -> None:
        """Linear progress (the presentation playing forward)."""
        if time_ms < self.position_ms:
            raise NavigationError(
                f"advance_to({time_ms}) moves backwards; use follow() or "
                f"rewind()")
        self.position_ms = time_ms

    def rewind(self) -> None:
        """Back to the start (fast-reverse to zero is always valid)."""
        self._played.append((self._segment_start, self.position_ms))
        self.position_ms = 0.0
        self._segment_start = 0.0

    def active_links(self) -> list[Link]:
        """Links the reader can follow right now."""
        return [link for link in self.links
                if link.active_at(self.position_ms)]

    def conditions_available(self) -> list[str]:
        """The distinct condition names currently followable."""
        return sorted({link.condition for link in self.active_links()})

    def follow(self, condition: str) -> Jump:
        """Fire ``condition``: jump to the linked target.

        Raises :class:`NavigationError` when no active link carries the
        condition (the paper's arcs are only valid while their source
        executes).
        """
        for link in self.active_links():
            if link.condition == condition:
                jump = Jump(
                    condition=condition,
                    from_ms=self.position_ms,
                    to_ms=link.target_time_ms,
                )
                self._played.append((self._segment_start,
                                     self.position_ms))
                self.position_ms = link.target_time_ms
                self._segment_start = link.target_time_ms
                jump.invalidated = self._session_invalid_arcs()
                self.history.append(jump)
                return jump
        raise NavigationError(
            f"no active link for condition {condition!r} at "
            f"{self.position_ms:g}ms (active: "
            f"{self.conditions_available()})")

    def _was_played(self, begin_ms: float, end_ms: float) -> bool:
        """True when [begin_ms, end_ms] lies inside watched intervals.

        The current open segment counts as watched up to the present
        position.
        """
        return segments_cover(
            self._played + [(self._segment_start, self.position_ms)],
            begin_ms, end_ms)

    def _session_invalid_arcs(self) -> list[ConflictReport]:
        """Class-3 analysis against the session's watched intervals.

        An ordinary (non-conditional) arc is invalid when its source was
        never fully presented in this session while its destination is
        still ahead of the current position.  Conditional arcs are
        runtime links, not synchronization constraints, and are skipped.
        """
        reports: list[ConflictReport] = []
        document = self.schedule.compiled.document
        for node in iter_preorder(document.root):
            for arc in node.arcs:
                if isinstance(arc, ConditionalArc):
                    continue
                source = resolve_path(node, arc.source)
                destination = resolve_path(node, arc.destination)
                source_path = node_path(source)
                destination_path = node_path(destination)
                try:
                    src_begin = self.schedule.node_begin_ms(source_path)
                    src_end = self.schedule.node_end_ms(source_path)
                    dst_begin = self.schedule.node_begin_ms(
                        destination_path)
                except Exception:
                    continue
                if dst_begin < self.position_ms - 1e-9:
                    continue
                if self._was_played(src_begin, src_end):
                    continue
                reports.append(ConflictReport(
                    NAVIGATION, node_path(node),
                    f"in this session the source of {arc.describe()} "
                    f"was never presented; all incoming synchronization "
                    f"arcs are considered invalid"))
        return reports

    def on_screen(self) -> list[str]:
        """Node paths of the events presented at the current position."""
        return [event.event.node_path
                for event in self.schedule.events_at(self.position_ms)]
