"""The incremental scheduling engine for the authoring loop.

The paper's workflow is interactive: an author edits the tree or a sync
arc and immediately wants a feasible schedule back ("CMIF plays a role
in signalling problems" presumes the problems are found while the author
is still looking at the document).  The seed implementation re-ran the
whole compile → build-constraints → solve → wrap pipeline after every
edit; this engine keeps the pipeline's intermediate state alive and
updates it in place.  That state is the rows of one
:func:`~repro.timing.graph.compile_graph` lowering, the one every cold
solve runs on:

    edit (repro.core.edit)
      -> retired rows + added rows (the graph's own rule helpers)
        -> seeded re-relaxation (repro.timing.solver.IncrementalSolver)
          -> schedule patch (only moved events are rebuilt)
            -> ScheduleCache publish (repro.timing.schedule)

Attribute edits — :meth:`IncrementalScheduler.retime`,
:meth:`~IncrementalScheduler.add_arc`,
:meth:`~IncrementalScheduler.remove_arc` — take the incremental path.
Topology edits (:meth:`~IncrementalScheduler.reorder`,
:meth:`~IncrementalScheduler.splice`,
:meth:`~IncrementalScheduler.duplicate`,
:meth:`~IncrementalScheduler.remove`) rename positional node paths and
reshuffle channel orders, so they rebuild the pipeline from scratch, as
does any re-relaxation that uncovers a conflict needing *may*-arc
relaxation (which is inherently global).

Every path produces a schedule identical to a from-scratch
:func:`~repro.timing.schedule.schedule_document` call on the edited
document — the equivalence the randomized property tests assert — and
publishes it to the engine's :class:`ScheduleCache` under the document's
new revision, where the player, viewer and CLI pick it up.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core import edit as core_edit
from repro.core.document import CmifDocument
from repro.core.edit import EditReport
from repro.core.paths import resolve_path
from repro.core.syncarc import SyncArc
from repro.core.timebase import MediaTime
from repro.core.errors import SchedulingConflict
from repro.faults import RobustnessStats
from repro.ledger import Ledger
from repro.timing.graph import _arc_rows, _duration_rows, compile_graph
from repro.timing.schedule import (Schedule, ScheduleCache, event_order,
                                   make_schedule, wrap_event)
from repro.timing.solver import IncrementalSolver


@dataclass
class EngineStats(Ledger):
    """Bookkeeping for the edit→reschedule loop (benches assert on it).

    The ``*_patched`` / ``*_recompiled`` counters belong to the
    delta-lowering layer (:mod:`repro.pipeline.patch`): they measure
    how precisely each edit's invalidation was contained — programs and
    adaptations updated in place versus pyramid levels that had to be
    recompiled — which is what the live-edit bench gates on.
    """

    edits: int = 0
    incremental_solves: int = 0
    full_rebuilds: int = 0
    fallbacks: int = 0
    last_mode: str = ""
    last_changed_vars: int = 0
    #: Delta-lowering counters: each live edit's
    #: :class:`~repro.pipeline.patch.EditRecord` merges in by name.
    events_touched: int = 0
    programs_patched: int = 0
    programs_recompiled: int = 0
    adaptations_patched: int = 0
    adaptations_recompiled: int = 0
    navigations_patched: int = 0
    navigations_recompiled: int = 0
    #: Degradation ledger: conflicting edits that left the pyramid
    #: serving its last feasible revision land in ``degraded_edits``.
    robustness: RobustnessStats = field(default_factory=RobustnessStats)

    def describe(self) -> str:
        base = (f"{self.edits} edit(s): {self.incremental_solves} "
                f"incremental, {self.full_rebuilds} full rebuild(s), "
                f"{self.fallbacks} fallback(s)")
        if not (self.programs_patched or self.programs_recompiled
                or self.adaptations_patched
                or self.adaptations_recompiled):
            return base
        return (f"{base}; {self.events_touched} event(s) touched, "
                f"programs {self.programs_patched} patched / "
                f"{self.programs_recompiled} recompiled, adaptations "
                f"{self.adaptations_patched} patched / "
                f"{self.adaptations_recompiled} recompiled, navigation "
                f"{self.navigations_patched} patched / "
                f"{self.navigations_recompiled} recompiled")


class IncrementalScheduler:
    """One document's live schedule, kept current across edits.

    The engine wraps a :class:`~repro.core.document.CmifDocument` and
    mirrors the editing API of :mod:`repro.core.edit`; each method
    applies the edit to the document *and* brings the schedule up to
    date, incrementally where the edit allows it.  :attr:`schedule`
    is always the schedule of the document as currently edited.

    When an edit makes the document unschedulable (a cycle of must
    constraints), the editing method raises
    :class:`~repro.core.errors.SchedulingConflict`, the edit stays
    applied (the paper's tools signal problems rather than reverting
    work), and :attr:`schedule` raises until a later edit restores
    feasibility.
    """

    def __init__(self, document: CmifDocument, *,
                 cache: ScheduleCache | None = None,
                 schedule: Schedule | None = None) -> None:
        self.document = document
        self.cache = cache
        self.stats = EngineStats()
        self.solver: IncrementalSolver | None = None
        self._schedule: Schedule | None = None
        self._conflict: SchedulingConflict | None = None
        #: Node paths whose solved times the last edit moved — the
        #: changed schedule region delta-lowering patches from.  None
        #: means the last edit rebuilt the pipeline (no localized
        #: region exists); an empty set means a no-op edit.
        self.last_changed_paths: set[str] | None = None
        self._rebuild(schedule)

    # -- pipeline state --------------------------------------------------

    def _rebuild(self, served: Schedule | None = None) -> None:
        """From-scratch compile + solve (the slow path).

        ``served`` is a schedule already solved for the document's
        current revision, such as the one a serving engine publishes.
        The serving caches key compiled programs by schedule *identity*,
        so the engine starts from that very object and its compile
        (attribute edits write through ``self.compiled``'s events, which
        must be the events the schedule wraps); all solve paths are
        pinned bit-identical, so the solver agrees with it.  Without
        one, the document is compiled and the solve wrapped.
        """
        self.stats.full_rebuilds += 1
        self.solver = None
        self._schedule = None
        self.compiled = (served.compiled if served is not None
                         else self.document.compile())
        graph = compile_graph(self.compiled)
        try:
            solver = IncrementalSolver(graph)
        except SchedulingConflict as conflict:
            self._conflict = conflict
            raise
        self.solver = solver
        self._conflict = None
        if served is None:
            served = make_schedule(self.compiled, solver.result)
        self._schedule = served
        self._events_by_path = {event.event.node_path: event
                                for event in served.events}
        self._publish()

    def _publish(self) -> None:
        if self.cache is not None and self._schedule is not None:
            self.cache.put(self.document, self._schedule)

    @property
    def schedule(self) -> Schedule:
        """The schedule of the document as currently edited."""
        if self._schedule is None:
            if self._conflict is not None:
                # The stored conflict carries the offending cycle, so
                # authoring tools can display it (the paper's "CMIF
                # plays a role in signalling problems").
                raise self._conflict
            raise SchedulingConflict(
                "the last edit left the document unschedulable; edit "
                "again to restore feasibility")
        return self._schedule

    # -- incremental edit operations -------------------------------------

    def retime(self, leaf_path: str,
               duration: MediaTime | float) -> EditReport:
        """Change a leaf's duration and re-relax the affected region."""
        report = core_edit.retime(self.document, leaf_path, duration)
        self.stats.edits += 1
        if self.solver is None:
            self._full_path()
            return report
        node = resolve_path(self.document.root, report.subject)
        event = self.compiled.event_for(node)
        value = (duration if isinstance(duration, MediaTime)
                 else MediaTime.ms(float(duration)))
        event.duration_ms = self.document.timebase.to_ms(value)
        graph = self.solver.graph
        slot = graph.slots[report.subject]
        rows = _duration_rows(event, graph.begin_ids[slot],
                              graph.end_ids[slot])
        self._absorb(self.solver.live_rows(rows), rows)
        return report

    def add_arc(self, owner_path: str, arc: SyncArc) -> EditReport:
        """Attach an explicit arc and re-relax from its endpoints."""
        report = core_edit.add_arc(self.document, owner_path, arc)
        self.stats.edits += 1
        if self.solver is None:
            self._full_path()
            return report
        self._absorb([], self._arc_rows_at(report.subject, arc))
        return report

    def remove_arc(self, owner_path: str, index: int) -> EditReport:
        """Detach an arc; only times it was supporting are recomputed."""
        arcs = resolve_path(self.document.root, owner_path).arcs
        report = core_edit.remove_arc(self.document, owner_path, index)
        self.stats.edits += 1
        if self.solver is None:
            self._full_path()
            return report
        rows = self._arc_rows_at(report.subject, arcs[index])
        self._absorb(self.solver.live_rows(rows), ())
        return report

    def _arc_rows_at(self, owner_path: str, arc: SyncArc) -> tuple:
        """The rows ``arc`` contributes when the node at ``owner_path``
        (a canonical path) lists it."""
        nodes = self.compiled.nodes
        return _arc_rows(self.solver.graph,
                         resolve_path(self.document.root, owner_path),
                         owner_path, arc,
                         dict(zip(map(id, nodes), range(len(nodes)))),
                         self.document.timebase)

    # -- topology edit operations (full rebuild) --------------------------

    def reorder(self, parent_path: str, child_name: str,
                new_index: int) -> EditReport:
        """Reorder siblings; topology edits rebuild the pipeline."""
        return self._structural(core_edit.reorder, parent_path, child_name,
                                new_index)

    def splice(self, node_path: str, new_parent_path: str,
               index: int | None = None) -> EditReport:
        """Move a subtree; topology edits rebuild the pipeline."""
        return self._structural(core_edit.splice, node_path,
                                new_parent_path, index)

    def duplicate(self, node_path: str, new_name: str) -> EditReport:
        """Copy a subtree; topology edits rebuild the pipeline."""
        return self._structural(core_edit.duplicate, node_path, new_name)

    def remove(self, node_path: str) -> EditReport:
        """Delete a subtree; topology edits rebuild the pipeline."""
        return self._structural(core_edit.remove, node_path)

    def _structural(self, operation, *args) -> EditReport:
        report = operation(self.document, *args)
        self.stats.edits += 1
        self._full_path()
        return report

    # -- delta absorption --------------------------------------------------

    def _full_path(self) -> None:
        self.stats.last_mode = "rebuild"
        self.stats.last_changed_vars = -1
        self.last_changed_paths = None
        self._rebuild()

    def _absorb(self, retired: list[int], added) -> None:
        """Route an edit's rows through the solver and patch the
        schedule."""
        outcome = self.solver.apply(retired, added)
        self.stats.last_mode = outcome.mode
        if outcome.mode == "noop":
            # No scheduling effect (e.g. a conditional arc), but the
            # revision moved: republish the same schedule under it.
            self.stats.last_changed_vars = 0
            self.last_changed_paths = set()
            self._publish()
            return
        if outcome.mode == "full":
            # Fallbacks re-solve a freshly compiled graph: the greedy
            # may-drop choice is sensitive to row order, and a cold
            # lowering orders rows exactly as a from-scratch
            # schedule_document call would.
            self.stats.fallbacks += 1
            self._full_path()
            self.stats.last_mode = "full"
            return
        self.stats.incremental_solves += 1
        var_paths = self.solver.graph.var_paths
        self.stats.last_changed_vars = len(outcome.changed)
        self.last_changed_paths = {var_paths[var] for var in outcome.changed}
        self._patch_schedule(self.last_changed_paths)

    def _patch_schedule(self, changed_paths: set[str]) -> None:
        """Rebuild only the events whose solved times moved."""
        result = self.solver.result
        dist = result.times_ms.dist
        graph = self.solver.graph
        events_by_path = dict(self._events_by_path)
        for path in changed_paths:
            stale = events_by_path.get(path)
            if stale is None:
                continue  # container anchor: no event of its own
            slot = graph.slots[path]
            events_by_path[path] = wrap_event(
                stale.event, dist[graph.begin_ids[slot]],
                dist[graph.end_ids[slot]])
        events = sorted(events_by_path.values(), key=event_order)
        self._events_by_path = events_by_path
        self._schedule = Schedule(
            compiled=self.compiled,
            times_ms=result.times_ms,
            events=events,
            dropped_constraints=result.dropped,
            solver_iterations=result.iterations,
        )
        self._publish()
