"""The incremental scheduling engine for the authoring loop.

The paper's workflow is interactive: an author edits the tree or a sync
arc and immediately wants a feasible schedule back ("CMIF plays a role
in signalling problems" presumes the problems are found while the author
is still looking at the document).  The seed implementation re-ran the
whole compile → build-constraints → solve → wrap pipeline after every
edit; this engine keeps the pipeline's intermediate state alive and
updates it in place:

    edit (repro.core.edit)
      -> ConstraintDelta (repro.timing.constraints)
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
from repro.timing.constraints import (ConstraintDelta, ConstraintIndex,
                                      add_arc_delta, build_constraints,
                                      remove_arc_delta, retime_delta)
from repro.timing.schedule import (Schedule, ScheduleCache, event_order,
                                   make_schedule, wrap_event)
from repro.timing.solver import IncrementalSolver, RELAX_DROP_LAST


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
                 channel_serialization: bool = True,
                 relaxation_policy: str = RELAX_DROP_LAST,
                 cache: ScheduleCache | None = None) -> None:
        self.document = document
        self.channel_serialization = channel_serialization
        self.relaxation_policy = relaxation_policy
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
        self._rebuild()

    # -- pipeline state --------------------------------------------------

    def _rebuild(self) -> None:
        """From-scratch compile + build + solve + wrap (the slow path)."""
        self.stats.full_rebuilds += 1
        self.solver = None
        self._schedule = None
        self.compiled = self.document.compile()
        self.system = build_constraints(
            self.compiled,
            channel_serialization=self.channel_serialization)
        self.index = ConstraintIndex(self.system)
        try:
            solver = IncrementalSolver(
                self.system, relaxation_policy=self.relaxation_policy)
        except SchedulingConflict as conflict:
            self._conflict = conflict
            raise
        self.solver = solver
        self._conflict = None
        self._wrap_schedule()

    def _wrap_schedule(self) -> None:
        self._schedule = make_schedule(self.compiled, self.solver.result)
        self._events_by_path = {event.event.node_path: event
                                for event in self._schedule.events}
        self._publish()

    def _publish(self) -> None:
        if self.cache is not None and self._schedule is not None:
            self.cache.put(self.document, self._schedule,
                           channel_serialization=self.channel_serialization,
                           relaxation_policy=self.relaxation_policy)

    def adopt_schedule(self, schedule: Schedule) -> None:
        """Adopt an externally solved schedule object for this document.

        The serving caches key compiled programs by schedule *identity*:
        an editor attaching to an already-admitted document must speak
        about the same schedule object the engine published, or its
        first edit would orphan every cached program.  All solve paths
        are pinned bit-identical, so adopting swaps objects, never
        values.

        Adopts the schedule's compiled document too: attribute edits
        write through ``self.compiled``'s events (a retime updates the
        event's duration in place), and those must be the very event
        objects the adopted schedule wraps.
        """
        self.compiled = schedule.compiled
        self._schedule = schedule
        self._events_by_path = {event.event.node_path: event
                                for event in schedule.events}
        self._publish()

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
        delta = retime_delta(self.index, report.subject,
                             event.duration_ms, event_id=event.event_id)
        self._absorb(delta)
        return report

    def add_arc(self, owner_path: str, arc: SyncArc) -> EditReport:
        """Attach an explicit arc and re-relax from its endpoints."""
        report = core_edit.add_arc(self.document, owner_path, arc)
        self.stats.edits += 1
        if self.solver is None:
            self._full_path()
            return report
        owner = resolve_path(self.document.root, owner_path)
        delta = add_arc_delta(self.document, owner, arc)
        self._absorb(delta)
        return report

    def remove_arc(self, owner_path: str, index: int) -> EditReport:
        """Detach an arc; only times it was supporting are recomputed."""
        owner = resolve_path(self.document.root, owner_path)
        arcs = owner.arcs
        arc = arcs[index] if 0 <= index < len(arcs) else None
        report = core_edit.remove_arc(self.document, owner_path, index)
        self.stats.edits += 1
        if self.solver is None or arc is None:
            self._full_path()
            return report
        delta = remove_arc_delta(self.index, arc)
        self._absorb(delta)
        return report

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

    def _absorb(self, delta: ConstraintDelta) -> None:
        """Route a delta through the solver and patch the schedule."""
        if delta.full_rebuild:
            self._full_path()
            return
        if delta.empty:
            # No scheduling effect (e.g. a conditional arc), but the
            # revision moved: republish the same schedule under it.
            self.stats.last_mode = "noop"
            self.stats.last_changed_vars = 0
            self.last_changed_paths = set()
            self._publish()
            return
        self.index.apply(delta)
        outcome = self.solver.apply(delta)
        self.stats.last_mode = outcome.mode
        if outcome.mode == "full":
            # Fallbacks re-solve on a canonically rebuilt system: the
            # greedy may-drop choice is sensitive to constraint order,
            # and a rebuilt system orders constraints exactly as a
            # from-scratch schedule_document call would.
            self.stats.fallbacks += 1
            self._full_path()
            self.stats.last_mode = "full"
            return
        self.stats.incremental_solves += 1
        changed = outcome.changed or set()
        self.stats.last_changed_vars = len(changed)
        self.last_changed_paths = {var.path for var in changed}
        self._patch_schedule(changed)

    def _patch_schedule(self, changed_vars: set) -> None:
        """Rebuild only the events whose solved times moved."""
        result = self.solver.result
        times = result.times_ms
        events_by_path = dict(self._events_by_path)
        for path in {var.path for var in changed_vars}:
            stale = events_by_path.get(path)
            if stale is None:
                continue  # container anchor: no event of its own
            events_by_path[path] = wrap_event(stale.event, times)
        events = sorted(events_by_path.values(), key=event_order)
        self._events_by_path = events_by_path
        self._schedule = Schedule(
            compiled=self.compiled,
            times_ms=times,
            events=events,
            dropped_constraints=result.dropped,
            solver_iterations=result.iterations,
        )
        self._publish()
