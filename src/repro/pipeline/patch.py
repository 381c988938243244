"""Delta-lowering: one authoring edit becomes one program patch.

The paper's signature scenario is an author editing the Evening News
document *while it is on air*.  Before this module, that edit bumped the
document revision and invalidated the whole derived-cache pyramid —
schedule → :class:`~repro.pipeline.program.PlaybackProgram` →
:class:`~repro.pipeline.navprogram.NavigationProgram` →
:class:`~repro.pipeline.adaptation.AdaptationProgram` × N environments —
forcing O(document × environments) recompiles even though the
incremental solver already localized the *schedule* change to O(affected
events).

:class:`ProgramPatcher` closes that gap.  It takes the changed schedule
region (the ``last_changed_paths`` set the
:class:`~repro.timing.incremental.IncrementalScheduler` records per
edit) and lowers it onto the flat compiled arrays in place:

* begin/end columns — one write per moved event, at the slot the
  event's node path names;
* a canonical-order guard — only the patched slots' neighbour pairs are
  compared (unchanged adjacent pairs were ordered and did not move), so
  the check is O(affected events); an order change falls back;
* audit-arc and nav-arc row tables — rebuilt through the *same* row
  builders compilation uses (:func:`~repro.pipeline.program
  .build_audit_arc` / :func:`~repro.pipeline.program.build_nav_arc`)
  and slice-assigned into the shared lists, so a patched row can never
  drift from what a cold compile would emit;
* every cached :class:`AdaptationProgram` composition — adapted
  descriptors are untouched by timing edits, so each environment's
  entry is re-stamped at the new revision, never re-planned;
* the navigation program — refreshed in place
  (:func:`~repro.pipeline.navprogram.recompile_into`), preserving the
  object identity live readers hold.

Because environment-specialized programs share the base program's
arrays by identity (see :meth:`PlaybackProgram.specialized`), the
timing writes above update *all* cached environments at once; the
shared ``patch_epoch`` counter then flushes every
:class:`~repro.pipeline.program.BatchPlayer`'s derived caches lazily.

Structural edits (node add/remove/move, channel changes) defeat
patching and *detect themselves*: the scheduler records no localized
region (``last_changed_paths is None``) and the patcher falls back to a
targeted recompile — one base lowering slice-assigned into the live
arrays, one adaptation re-plan per *cached* environment fingerprint,
one navigation recompile — classified per pyramid level by
:meth:`~repro.pipeline.program.ProgramCache.level_of`.  Entries of
other schedules (other documents on the same engine) are never touched,
which the per-edit counters on :class:`EditRecord` (and the cumulative
:class:`~repro.timing.incremental.EngineStats`) make checkable.

:class:`LiveEditor` is the authoring-side entry point: it owns the
incremental scheduler and the patcher and applies JSON edit specs (the
CLI ``serve --edit-script`` / ``edit`` format) through the scheduler's
editing methods.  Every path is pinned
bit-identical to a cold recompile of the edited document by
``tests/test_live_edit.py``.
"""

from __future__ import annotations

import dataclasses
import time
from dataclasses import dataclass

from repro.core.document import CmifDocument
from repro.core.errors import (PathError, SchedulingConflict,
                               ValueError_)
from repro.core.paths import path_map, resolve_path
from repro.core.syncarc import (Anchor, ConditionalArc, Strictness,
                                SyncArc)
from repro.core.timebase import MediaTime
from repro.core.tree import iter_postorder, iter_preorder
from repro.ledger import Ledger
from repro.pipeline.adaptation import adaptation_for
from repro.pipeline.navprogram import (NAVIGATION_TAG, NavigationProgram,
                                       recompile_into)
from repro.pipeline.program import (PlaybackProgram, ProgramCache,
                                    audit_row, build_audit_arc,
                                    build_nav_arc, compile_program,
                                    event_slot_map)
from repro.timing.constraints import begin_var, end_var
from repro.timing.incremental import IncrementalScheduler
from repro.timing.schedule import Schedule, ScheduleCache
from repro.timing.solver import RELAX_DROP_LAST
from repro.transport.environments import SystemEnvironment

#: :class:`EditRecord.mode` values.
PATCHED = "patched"
RECOMPILED = "recompiled"
NOOP = "noop"
CONFLICT = "conflict"


@dataclass
class EditRecord(Ledger):
    """What one live edit cost, per pyramid level (``explain`` output).

    ``mode`` classifies the whole edit: ``patched`` (in-place array
    patch), ``recompiled`` (structural fallback — targeted per-level
    recompile), ``noop`` (no derived state existed or changed), or
    ``conflict`` (the edit left the document unschedulable).  The
    ``*_patched``/``*_recompiled`` pairs count cached entries per level,
    which is what proves invalidation precision: a retime against eight
    cached environments should read ``programs 9 patched / 0
    recompiled``, never the other way around.
    """

    op: str
    subject: str
    mode: str = NOOP
    events_touched: int = 0
    programs_patched: int = 0
    programs_recompiled: int = 0
    adaptations_patched: int = 0
    adaptations_recompiled: int = 0
    navigations_patched: int = 0
    navigations_recompiled: int = 0
    wall_seconds: float = 0.0

    def explain(self) -> str:
        return (f"edit {self.op} {self.subject or '.'}: {self.mode}, "
                f"{self.events_touched} event(s) touched, programs "
                f"{self.programs_patched}p/{self.programs_recompiled}r, "
                f"adaptations {self.adaptations_patched}p/"
                f"{self.adaptations_recompiled}r, navigation "
                f"{self.navigations_patched}p/"
                f"{self.navigations_recompiled}r "
                f"({self.wall_seconds * 1000:.2f}ms)")


def arc_from_spec(spec: dict) -> SyncArc:
    """Build a :class:`SyncArc` (or conditional) from a JSON edit spec."""
    max_delay = spec.get("max_delay_ms", 0.0)
    kwargs = dict(
        source=spec.get("source", ""),
        destination=spec.get("destination", ""),
        src_anchor=Anchor.from_name(spec.get("src_anchor", "begin")),
        dst_anchor=Anchor.from_name(spec.get("dst_anchor", "begin")),
        strictness=Strictness.from_name(spec.get("strictness", "may")),
        offset=MediaTime.ms(float(spec.get("offset_ms", 0.0))),
        min_delay=MediaTime.ms(float(spec.get("min_delay_ms", 0.0))),
        max_delay=(None if max_delay is None
                   else MediaTime.ms(float(max_delay))))
    condition = spec.get("condition")
    if condition is not None:
        return ConditionalArc(condition=str(condition), **kwargs)
    return SyncArc(**kwargs)


def compiled_arc_rows(schedule: Schedule) -> tuple[list, list]:
    """The (audit, nav) row tables of a schedule, as compilation emits.

    Shares the row builders (and the loop order) with
    :func:`~repro.pipeline.program.compile_program`; the patcher
    slice-assigns the result into the live shared lists, so an arc edit
    costs O(nodes + arcs) — no solve, no per-environment work.
    """
    compiled = schedule.compiled
    document = compiled.document
    paths = path_map(document.root)
    timebase = document.timebase
    event_slot = event_slot_map(schedule)
    audit = []
    for node in iter_postorder(document.root):
        for arc in node.arcs:
            if isinstance(arc, ConditionalArc):
                continue
            audit.append(build_audit_arc(node, arc, paths, timebase,
                                         compiled, event_slot))
    nav = []
    for node in iter_preorder(document.root):
        for arc in node.arcs:
            nav.append(build_nav_arc(node, arc, paths, compiled,
                                     event_slot))
    return audit, nav


class ProgramPatcher:
    """Lower one edit's schedule delta onto the cached program pyramid.

    Owns the fingerprint → :class:`SystemEnvironment` registry the
    structural fallback needs to re-plan adaptations for exactly the
    environments that are actually cached; a cached fingerprint with no
    registered environment is dropped (and lazily recompiled on its
    next probe) rather than guessed at.
    """

    def __init__(self, program_cache: ProgramCache) -> None:
        self.program_cache = program_cache
        self.environments: dict[tuple, SystemEnvironment] = {}

    def register_environment(self, environment: SystemEnvironment) -> None:
        self.environments[environment.fingerprint()] = environment

    # -- entry point -------------------------------------------------------

    def lower(self, old_schedule: Schedule, new_schedule: Schedule,
              changed_paths: set[str] | None, *, arcs_changed: bool,
              record: EditRecord) -> None:
        """Patch (or selectively recompile) everything cached for
        ``old_schedule`` and re-key it under ``new_schedule``.

        Must run before anything is published to the program cache for
        the new revision: :meth:`ProgramCache.take` is the only path on
        which a superseded-revision entry survives an edit (the cache
        otherwise evicts prior revisions on insert).
        """
        taken = self.program_cache.take(old_schedule)
        programs = {slot: value for slot, value in taken.items()
                    if isinstance(value, PlaybackProgram)}
        navigation = taken.get(("derived", NAVIGATION_TAG))
        if not isinstance(navigation, NavigationProgram):
            navigation = None
        if changed_paths is None:
            self._rebuild(new_schedule, programs, navigation, record)
            return
        if not self._patch(new_schedule, old_schedule, changed_paths,
                           arcs_changed, programs, navigation, record):
            # The edit reordered the canonical event sequence (or a
            # slot went missing): the flat arrays no longer mean what
            # they meant, so this edit pays the structural path.
            self._rebuild(new_schedule, programs, navigation, record)

    # -- the O(affected events) patch --------------------------------------

    def _patch(self, new_schedule: Schedule, old_schedule: Schedule,
               changed_paths: set[str], arcs_changed: bool,
               programs: dict, navigation, record: EditRecord) -> bool:
        times = new_schedule.times_ms
        touched = 0
        try:
            for group in self._array_groups(programs):
                written = self._patch_group(group, old_schedule,
                                            changed_paths, times)
                if written < 0:
                    return False
                touched = max(touched, written)
        except (KeyError, PathError):
            return False
        if arcs_changed and programs:
            audit, nav = compiled_arc_rows(new_schedule)
            for group in self._array_groups(programs):
                group.audit_arcs[:] = audit
                group._audit_rows[:] = [audit_row(arc) for arc in audit]
                group.nav_arcs[:] = nav
                # The compiled kernel views bake the audit-arc columns
                # in; timing-only patches keep them valid (begin/end
                # ride in per-run plans), arc edits do not.
                group._kernel_views.clear()
        record.mode = PATCHED if (touched or arcs_changed) else NOOP
        record.events_touched = touched
        self._rekey(new_schedule, programs, navigation, record,
                    patched=True)
        return True

    def _patch_group(self, group: PlaybackProgram,
                     old_schedule: Schedule, changed_paths: set[str],
                     times: dict) -> int:
        """Write the moved times into one shared-array generation.

        Returns the number of event slots written, or -1 when the edit
        broke the canonical order (fallback required).  Partial writes
        before a -1 are harmless: the fallback slice-assigns every
        array from a fresh lowering anyway.
        """
        slot_of = {path: index
                   for index, path in enumerate(group.node_paths)}
        begin, end = group.begin_ms, group.end_ms
        touched: list[int] = []
        for path in changed_paths:
            slot = slot_of.get(path)
            if slot is None:
                continue  # container anchor: no event of its own
            begin[slot] = times[begin_var(path)]
            end[slot] = times[end_var(path)]
            touched.append(slot)
        if not touched:
            return 0
        # Canonical-order guard, O(affected): an array stays sorted iff
        # every adjacent pair is ordered, and pairs not involving a
        # patched slot were ordered before and did not move.
        ids = [scheduled.event.event_id
               for scheduled in old_schedule.ordered_events()]
        last = group.n_events - 1
        for slot in touched:
            if slot > 0 and ((begin[slot - 1], end[slot - 1],
                              ids[slot - 1])
                             > (begin[slot], end[slot], ids[slot])):
                return -1
            if slot < last and ((begin[slot], end[slot], ids[slot])
                                > (begin[slot + 1], end[slot + 1],
                                   ids[slot + 1])):
                return -1
        return len(touched)

    # -- the structural fallback (targeted per-level recompile) ------------

    def _rebuild(self, new_schedule: Schedule, programs: dict,
                 navigation, record: EditRecord) -> None:
        record.mode = RECOMPILED
        if not programs and navigation is None:
            return  # nothing cached: later probes compile lazily
        fresh = compile_program(new_schedule) if programs else None
        if fresh is not None:
            record.events_touched = fresh.n_events
            record.programs_recompiled += 1
            for group in self._array_groups(programs):
                group.begin_ms[:] = fresh.begin_ms
                group.end_ms[:] = fresh.end_ms
                group.channel_index[:] = fresh.channel_index
                group.medium_index[:] = fresh.medium_index
                group.audit_arcs[:] = fresh.audit_arcs
                group._audit_rows[:] = fresh._audit_rows
                group.nav_arcs[:] = fresh.nav_arcs
                group._kernel_views.clear()
            for program in self._distinct(programs):
                program.n_events = fresh.n_events
                program.node_paths = fresh.node_paths
                program.channels = fresh.channels
                program.media = fresh.media
        self._rekey(new_schedule, programs, navigation, record,
                    patched=False)

    # -- shared re-keying / metadata refresh -------------------------------

    def _rekey(self, new_schedule: Schedule, programs: dict, navigation,
               record: EditRecord, *, patched: bool) -> None:
        revision = new_schedule.compiled.document.revision
        base = programs.get(None)
        for epoch in {id(program.patch_epoch): program.patch_epoch
                      for program in programs.values()}.values():
            epoch[0] += 1
        for program in self._distinct(programs):
            program.schedule = new_schedule
            program.revision = revision
        for slot, program in programs.items():
            if slot is None:
                self.program_cache.restore(new_schedule, None, program)
                record.programs_patched += 1 if patched else 0
                continue
            if patched:
                # Timing edits never touch descriptors: re-stamp the
                # composition at the new revision, keep the plan.
                if program.adaptation is not None \
                        and program.adaptation.revision != revision:
                    program.adaptation = dataclasses.replace(
                        program.adaptation, revision=revision)
                    record.adaptations_patched += 1
                self.program_cache.restore(new_schedule, slot, program)
                record.programs_patched += 1
                continue
            program = self._readapt(new_schedule, slot, program, base,
                                    record)
            if program is not None:
                self.program_cache.restore(new_schedule, slot, program)
        if navigation is not None:
            recompile_into(navigation, new_schedule)
            if patched:
                record.navigations_patched += 1
            else:
                record.navigations_recompiled += 1
            self.program_cache.restore(
                new_schedule, ("derived", NAVIGATION_TAG), navigation)

    def _readapt(self, new_schedule: Schedule, slot, program, base,
                 record: EditRecord):
        """Structural path: re-plan one cached environment composition.

        Returns the entry to restore under the fingerprint, or None to
        drop it (unregistered environment — recompiled lazily later).
        """
        environment = self.environments.get(slot)
        if environment is None:
            record.adaptations_recompiled += 1
            return None
        adaptation = adaptation_for(new_schedule, environment)
        record.adaptations_recompiled += 1
        if adaptation.identity:
            # Cold compilation caches the base program itself for
            # identity environments; match that structure.
            if base is not None:
                return base
            program.adaptation = None
            return program
        if program.adaptation is not None:
            program.adaptation = adaptation
            return program
        # The entry *was* the shared base (identity before the edit);
        # the edit introduced real filtering, so compose a clone.
        return program.specialized(adaptation)

    # -- helpers -----------------------------------------------------------

    @staticmethod
    def _array_groups(programs: dict) -> list[PlaybackProgram]:
        """One representative per shared-array generation.

        Every environment-specialized clone shares its base's arrays by
        identity, so normally there is exactly one group; mixed
        generations (a base evicted and recompiled under live clones)
        each get their own writes.
        """
        groups: dict[int, PlaybackProgram] = {}
        for program in programs.values():
            groups.setdefault(id(program.begin_ms), program)
        return list(groups.values())

    @staticmethod
    def _distinct(programs: dict) -> list[PlaybackProgram]:
        distinct: dict[int, PlaybackProgram] = {}
        for program in programs.values():
            distinct.setdefault(id(program), program)
        return list(distinct.values())


class LiveEditor:
    """Author against a hot serving fleet: edits become program patches.

    Wraps one document's :class:`IncrementalScheduler` and a
    :class:`ProgramPatcher` over the serving caches; :meth:`apply`
    dispatches each edit to the scheduler's editing method, lowers the
    re-solved delta onto all cached compiled programs, and returns an
    :class:`EditRecord`.  When the schedule cache already holds the
    document's schedule (the document is being served), the scheduler
    adopts that exact object so the cached program pyramid stays
    reachable across the editor's attach.
    """

    def __init__(self, document: CmifDocument, *,
                 schedule_cache: ScheduleCache | None = None,
                 program_cache: ProgramCache | None = None,
                 channel_serialization: bool = True,
                 relaxation_policy: str = RELAX_DROP_LAST) -> None:
        self.document = document
        existing = (schedule_cache.get(
            document, channel_serialization=channel_serialization,
            relaxation_policy=relaxation_policy)
            if schedule_cache is not None else None)
        self.scheduler = IncrementalScheduler(
            document, cache=schedule_cache,
            channel_serialization=channel_serialization,
            relaxation_policy=relaxation_policy)
        if existing is not None:
            self.scheduler.adopt_schedule(existing)
        self.patcher = (ProgramPatcher(program_cache)
                        if program_cache is not None else None)
        self.records: list[EditRecord] = []

    @property
    def schedule(self) -> Schedule:
        return self.scheduler.schedule

    @property
    def stats(self):
        return self.scheduler.stats

    def register_environment(self, environment: SystemEnvironment) -> None:
        if self.patcher is not None:
            self.patcher.register_environment(environment)

    # -- JSON edit specs (the --edit-script format) -----------------------

    def apply(self, spec: dict) -> EditRecord:
        """Dispatch one JSON edit spec: ``{"op": ..., ...}``.

        Ops: ``retime`` (path, duration_ms), ``add_arc`` (owner +
        :func:`arc_from_spec` fields; a ``condition`` makes it
        conditional), ``remove_arc`` (owner, index), ``reorder``
        (parent, child, index), ``splice`` (path, parent, index?),
        ``duplicate`` (path, name), ``remove`` (path).
        """
        op = spec.get("op")
        scheduler = self.scheduler
        if op == "retime":
            return self._edited(op, spec["path"], scheduler.retime,
                                spec["path"], float(spec["duration_ms"]),
                                arcs_changed=False)
        if op == "add_arc":
            return self._edited(op, spec["owner"], scheduler.add_arc,
                                spec["owner"], arc_from_spec(spec))
        if op == "remove_arc":
            owner, index = spec["owner"], int(spec["index"])
            return self._edited(op, f"{owner}[{index}]",
                                scheduler.remove_arc, owner, index)
        if op == "reorder":
            parent, child = spec["parent"], spec["child"]
            return self._edited(op, f"{parent}/{child}", scheduler.reorder,
                                parent, child, int(spec["index"]))
        if op == "splice":
            index = spec.get("index")
            return self._edited(op, spec["path"], scheduler.splice,
                                spec["path"], spec["parent"],
                                None if index is None else int(index))
        if op == "duplicate":
            return self._edited(op, spec["path"], scheduler.duplicate,
                                spec["path"], spec["name"])
        if op == "remove":
            return self._edited(op, spec["path"], scheduler.remove,
                                spec["path"])
        raise ValueError_(f"unknown edit op {op!r}; expected retime, "
                          f"add_arc, remove_arc, reorder, splice, "
                          f"duplicate or remove")

    # -- internals ---------------------------------------------------------

    def _edited(self, op: str, subject: str, edit, *args,
                arcs_changed: bool = True) -> EditRecord:
        """Apply ``edit(*args)`` (an :class:`IncrementalScheduler` edit
        method), then lower its schedule delta onto the cached
        pyramid."""
        try:
            old_schedule: Schedule | None = self.scheduler.schedule
        except SchedulingConflict:
            old_schedule = None
        start = time.perf_counter()
        record = EditRecord(op=op, subject=subject)
        try:
            edit(*args)
        except (SchedulingConflict, PathError):
            # The edit stays applied (tools signal problems, they do
            # not revert work); the cached pyramid keeps serving the
            # last feasible revision until a later edit restores one.
            # PathError covers edits that orphan an arc endpoint — a
            # cold compile of the edited document raises it too.
            record.mode = CONFLICT
            record.wall_seconds = time.perf_counter() - start
            self.records.append(record)
            self.scheduler.stats.robustness.degraded_edits += 1
            raise
        changed = self.scheduler.last_changed_paths
        new_schedule = self.scheduler.schedule
        if self.patcher is not None and old_schedule is not None:
            self.patcher.lower(old_schedule, new_schedule, changed,
                               arcs_changed=arcs_changed, record=record)
        else:
            record.mode = (RECOMPILED if changed is None
                           else PATCHED if (changed or arcs_changed)
                           else NOOP)
        record.wall_seconds = time.perf_counter() - start
        self.records.append(record)
        # The lifetime stats share the record's per-level counters.
        self.scheduler.stats.merge(record)
        return record


__all__ = ["CONFLICT", "EditRecord", "LiveEditor", "NOOP", "PATCHED",
           "ProgramPatcher", "RECOMPILED", "arc_from_spec",
           "compiled_arc_rows"]
