"""Compiled navigation programs: hyper-navigation on the serving path.

An interpretive navigation session (kept as the test oracle
``tests/oracles/navigation.py``) pays document-shaped costs per session
and per jump: link collection is a full tree walk with per-arc path
resolution and schedule lookups, and every ``follow()`` re-walks the
tree to decide which ordinary arcs the jump invalidated.  All of that
is invariant per (schedule, revision) — only the reader's watched
intervals change between sessions.

:func:`compile_navigation` lowers a schedule once into a
:class:`NavigationProgram`:

* the resolved link table (the exact
  :class:`~repro.pipeline.navigation.Link` rows the interpretive
  session would collect, in the same preorder), plus parallel activity
  arrays for the follow loop;
* an invalidation table: one :class:`ArcGuard` row per ordinary arc
  with its solved source/destination times and a prebuilt class-3
  :class:`~repro.timing.conflicts.ConflictReport`, so a jump's
  invalidation pass is float compares over precompiled rows;
* the sorted set of distinct jump destinations, which
  :meth:`NavigationProgram.warm` uses to prime a
  :class:`~repro.pipeline.program.BatchPlayer`'s per-seek run plans —
  the per-destination playback-program fragments that make following a
  link an O(1) program swap + array seek.

A broken conditional arc defers: the interpretive reference raises
:class:`~repro.core.errors.PathError` (or a scheduling conflict) when a
session is *constructed*, so the compiled program records the error and
:class:`CompiledNavigationSession` raises the same one at construction —
never earlier, even when the program was compiled ahead of time at
admission or ingest.

Programs cache in the shared
:class:`~repro.pipeline.program.ProgramCache` under (schedule identity,
revision, tag), so a document edit invalidates navigation together with
every other compiled level.  Sessions themselves stay cheap per-reader
objects over the shared tables, pinned bit-identical to the
interpretive reference by ``tests/test_navprogram.py``.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from repro.core.errors import NavigationError, PathError, \
    SchedulingConflict
from repro.core.paths import node_path, resolve_path
from repro.core.syncarc import ConditionalArc
from repro.core.tree import iter_preorder
from repro.pipeline.navigation import (Jump, Link, collect_links,
                                       segments_cover)
from repro.pipeline.program import BatchPlayer, ProgramCache
from repro.timing.conflicts import NAVIGATION, ConflictReport
from repro.timing.schedule import Schedule

#: The :meth:`ProgramCache.get_derived` tag navigation programs live
#: under — one per (schedule identity, document revision).
NAVIGATION_TAG = "navigation"


@dataclass(frozen=True)
class ArcGuard:
    """One ordinary arc's precompiled session-invalidation row.

    ``report`` is the exact :class:`ConflictReport` the interpretive
    session would build when the arc's source was never presented;
    sharing one frozen instance across sessions is safe and keeps the
    per-jump loop allocation-free.
    """

    src_begin_ms: float
    src_end_ms: float
    dst_begin_ms: float
    report: ConflictReport


@dataclass(frozen=True)
class Choice:
    """One scripted choice-point: pause at ``at_ms``, fire ``condition``."""

    at_ms: float
    condition: str


class NavigationProgram:
    """One schedule's hyper-navigation, lowered to flat tables."""

    __slots__ = ("schedule", "revision", "links", "active_from",
                 "active_until", "conditions", "targets", "guards",
                 "destinations", "deferred_error")

    def __init__(self, schedule: Schedule, revision: int,
                 links: tuple[Link, ...], guards: tuple[ArcGuard, ...],
                 deferred_error: Exception | None) -> None:
        self.schedule = schedule
        self.revision = revision
        self.links = links
        self.active_from = [link.active_from_ms for link in links]
        self.active_until = [link.active_until_ms for link in links]
        self.conditions = [link.condition for link in links]
        self.targets = [link.target_time_ms for link in links]
        self.guards = guards
        self.destinations = tuple(sorted({link.target_time_ms
                                          for link in links}))
        self.deferred_error = deferred_error

    def session(self) -> "CompiledNavigationSession":
        """A fresh reader session over the shared tables."""
        return CompiledNavigationSession(self)

    def warm(self, player: BatchPlayer, *, rate: float = 1.0) -> int:
        """Prime ``player`` with every link destination's seek state.

        One cached :class:`~repro.pipeline.program.RunPlan` plus class-3
        analysis per distinct jump target — the per-destination playback
        fragments.  Returns how many destinations were warmed.
        """
        for target in self.destinations:
            player.prime_seek(target, rate=rate)
        return len(self.destinations)

    def describe(self) -> str:
        return (f"navigation program: {len(self.links)} link(s), "
                f"{len(self.guards)} guarded arc(s), "
                f"{len(self.destinations)} destination(s)")


def compile_navigation(schedule: Schedule) -> NavigationProgram:
    """Lower a schedule's conditional arcs into a navigation program.

    Pays the link-collection tree walk and the invalidation walk once
    per (schedule, revision); every session after that is table reads.
    """
    deferred: Exception | None = None
    try:
        links = tuple(collect_links(schedule))
    except (PathError, SchedulingConflict) as exc:
        # The interpretive session raises when constructed; defer so
        # compiled sessions fail at the same moment with the same error.
        links = ()
        deferred = exc

    guards: list[ArcGuard] = []
    if deferred is None:
        document = schedule.compiled.document
        for node in iter_preorder(document.root):
            for arc in node.attributes.get("sync-arc", ()):
                if isinstance(arc, ConditionalArc):
                    continue
                source = resolve_path(node, arc.source)
                destination = resolve_path(node, arc.destination)
                source_path = node_path(source)
                destination_path = node_path(destination)
                try:
                    src_begin = schedule.node_begin_ms(source_path)
                    src_end = schedule.node_end_ms(source_path)
                    dst_begin = schedule.node_begin_ms(destination_path)
                except Exception:
                    # The interpretive walk skips arcs without solved
                    # times on every jump; that choice only depends on
                    # the schedule, so it compiles away entirely.
                    continue
                guards.append(ArcGuard(
                    src_begin_ms=src_begin,
                    src_end_ms=src_end,
                    dst_begin_ms=dst_begin,
                    report=ConflictReport(
                        NAVIGATION, node_path(node),
                        f"in this session the source of {arc.describe()} "
                        f"was never presented; all incoming "
                        f"synchronization arcs are considered invalid")))

    return NavigationProgram(
        schedule=schedule,
        revision=schedule.compiled.document.revision,
        links=links, guards=tuple(guards), deferred_error=deferred)


def recompile_into(program: NavigationProgram,
                   schedule: Schedule) -> NavigationProgram:
    """Refresh a navigation program in place from an edited schedule.

    Live sessions (and the serving engine's player cache) hold the
    program object itself; delta-lowering an edit must update what they
    see without swapping objects.  Compiles fresh tables and moves them
    onto the existing instance — bit-identical to
    :func:`compile_navigation` by construction.
    """
    fresh = compile_navigation(schedule)
    for slot in NavigationProgram.__slots__:
        setattr(program, slot, getattr(fresh, slot))
    return program


def navigation_for(schedule: Schedule, *,
                   program_cache: ProgramCache | None = None
                   ) -> NavigationProgram:
    """The schedule's navigation program, compiled at most once.

    Cached under (schedule identity, document revision,
    :data:`NAVIGATION_TAG`) in the shared program cache, so edits
    invalidate it exactly when they invalidate the playback program.
    """
    if program_cache is not None:
        cached = program_cache.get_derived(schedule, NAVIGATION_TAG)
        if cached is not None:
            return cached
    program = compile_navigation(schedule)
    if program_cache is not None:
        program_cache.put_derived(schedule, NAVIGATION_TAG, program)
    return program


class CompiledNavigationSession:
    """An interactive reading over precompiled navigation tables.

    API- and bit-identical to the interpretive session of
    ``tests/oracles/navigation.py``: same
    :class:`Link` rows in the same order, same
    :class:`~repro.pipeline.navigation.Jump` history, same invalidation
    reports, same errors at the same moments — only the per-session and
    per-jump costs differ.
    """

    def __init__(self, program: NavigationProgram) -> None:
        if program.deferred_error is not None:
            raise program.deferred_error
        self.program = program
        self.schedule = program.schedule
        self.links = list(program.links)
        self.position_ms = 0.0
        self.history: list[Jump] = []
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
        position = self.position_ms
        program = self.program
        active_from = program.active_from
        active_until = program.active_until
        links = self.links
        return [links[index] for index in range(len(links))
                if active_from[index] <= position < active_until[index]]

    def conditions_available(self) -> list[str]:
        """The distinct condition names currently followable."""
        position = self.position_ms
        program = self.program
        active_from = program.active_from
        active_until = program.active_until
        conditions = program.conditions
        return sorted({conditions[index]
                       for index in range(len(conditions))
                       if active_from[index] <= position
                       < active_until[index]})

    def follow(self, condition: str) -> Jump:
        """Fire ``condition``: jump to the linked target."""
        position = self.position_ms
        program = self.program
        active_from = program.active_from
        active_until = program.active_until
        conditions = program.conditions
        for index in range(len(conditions)):
            if (active_from[index] <= position < active_until[index]
                    and conditions[index] == condition):
                target = program.targets[index]
                jump = Jump(condition=condition, from_ms=position,
                            to_ms=target)
                self._played.append((self._segment_start, position))
                self.position_ms = target
                self._segment_start = target
                jump.invalidated = self._session_invalid_arcs()
                self.history.append(jump)
                return jump
        raise NavigationError(
            f"no active link for condition {condition!r} at "
            f"{self.position_ms:g}ms (active: "
            f"{self.conditions_available()})")

    def _session_invalid_arcs(self) -> list[ConflictReport]:
        """The interpretive tree walk, reduced to precompiled rows."""
        reports: list[ConflictReport] = []
        segments = self._played + [(self._segment_start,
                                    self.position_ms)]
        position = self.position_ms
        for guard in self.program.guards:
            if guard.dst_begin_ms < position - 1e-9:
                continue
            if segments_cover(segments, guard.src_begin_ms,
                              guard.src_end_ms):
                continue
            reports.append(guard.report)
        return reports

    def on_screen(self) -> list[str]:
        """Node paths of the events presented at the current position."""
        return [event.event.node_path
                for event in self.schedule.events_at(self.position_ms)]


def random_trace(schedule: Schedule, rng: random.Random, *,
                 follows: int = 2,
                 program: NavigationProgram | None = None
                 ) -> list[Choice]:
    """A seeded, self-consistent scripted choice trace for a document.

    Simulates a reader on a compiled session so every generated choice
    is followable when replayed: the pause time always falls inside the
    chosen link's activity window at or after the reader's position.
    Documents without reachable links yield shorter (possibly empty)
    traces.
    """
    if program is None:
        program = compile_navigation(schedule)
    session = program.session()
    trace: list[Choice] = []
    for _ in range(follows):
        position = session.position_ms
        candidates = [
            link for link in session.links
            if max(position, link.active_from_ms)
            < link.active_until_ms - 1e-6]
        if not candidates:
            break
        link = candidates[rng.randrange(len(candidates))]
        start = max(position, link.active_from_ms)
        at_ms = start + rng.random() * (link.active_until_ms - start) * 0.9
        session.advance_to(at_ms)
        session.follow(link.condition)
        trace.append(Choice(at_ms=at_ms, condition=link.condition))
    return trace


__all__ = ["ArcGuard", "Choice", "CompiledNavigationSession",
           "NAVIGATION_TAG", "NavigationProgram", "compile_navigation",
           "navigation_for", "random_trace", "recompile_into"]
