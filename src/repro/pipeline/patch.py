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
* audit-arc and nav-arc row tables — rebuilt by
  :func:`~repro.pipeline.program.compiled_arc_rows`, the function
  compilation itself builds them with, and slice-assigned into the
  shared lists, so a patched row can never drift from what a cold
  compile would emit;
* every cached :class:`AdaptationProgram` composition — an edit that
  keeps the compiled document keeps every descriptor, channel and
  medium the plans were lowered from, so each environment's entry is
  re-stamped at the new revision, never re-planned;
* the navigation program — refreshed in place
  (:func:`~repro.pipeline.navprogram.recompile_into`), preserving the
  object identity live readers hold.

Because environment-specialized programs share the base program's
arrays by identity (see :meth:`PlaybackProgram.specialized`), the
timing writes above update *all* cached environments at once; the
shared ``patch_epoch`` counter then flushes every
:class:`~repro.pipeline.program.BatchPlayer`'s derived caches and
every kernel's compiled view lazily.

Two kinds of edit defeat patching.  A retime that reorders the
canonical event sequence keeps the compiled document: the patcher
slice-assigns one fresh base lowering into the live arrays, recompiles
the navigation program, and re-stamps every composition as above.
Structural edits (node add/remove/move, channel changes, and solves
that must drop may arcs) *detect themselves*: the scheduler records no
localized region (``last_changed_paths is None``) and compiles the
document afresh, so on top of the array rebuild each cached
composition is re-planned once, for the environment its program-cache
entry was compiled for, from one requirement profile of the new
revision (derived through the serving engine's
:class:`~repro.transport.requirements.RequirementsCache`, where the
admissions after the edit find it).  No cached composition is dropped.
Entries of other schedules (other documents on the same engine) are
never touched, which the per-edit counters on :class:`EditRecord` (and
the cumulative :class:`~repro.timing.incremental.EngineStats`) make
checkable.

:class:`LiveEditor` is the authoring-side entry point: it owns the
incremental scheduler and the patcher and applies JSON edit specs (the
CLI ``serve --edit-script`` / ``edit`` format, checked by
:func:`check_edit_spec`) through the scheduler's editing methods.
Every path is pinned
bit-identical to a cold recompile of the edited document by
``tests/test_live_edit.py``.
"""

from __future__ import annotations

import dataclasses
import math
import time
from dataclasses import dataclass

from repro.core.document import CmifDocument
from repro.core.errors import (PathError, SchedulingConflict,
                               ValueError_)
from repro.core.syncarc import (Anchor, ConditionalArc, Strictness,
                                SyncArc)
from repro.core.timebase import MediaTime
from repro.ledger import Ledger
from repro.pipeline.adaptation import adaptation_for
from repro.pipeline.navprogram import NAVIGATION_TAG, recompile_into
from repro.pipeline.program import (PlaybackProgram, ProgramCache,
                                    audit_row, compile_program,
                                    compiled_arc_rows)
from repro.timing.constraints import begin_var, end_var
from repro.timing.incremental import IncrementalScheduler
from repro.timing.schedule import Schedule, ScheduleCache
from repro.transport.environments import SystemEnvironment
from repro.transport.requirements import (DocumentRequirements,
                                          RequirementsCache,
                                          requirements_for)

#: :class:`EditRecord.mode` values.
PATCHED = "patched"
RECOMPILED = "recompiled"
NOOP = "noop"
CONFLICT = "conflict"


@dataclass
class EditRecord(Ledger):
    """What one live edit cost, per pyramid level (``explain`` output).

    ``mode`` classifies the whole edit: ``patched`` (in-place array
    patch), ``recompiled`` (the arrays lowered afresh — targeted
    per-level recompile), ``noop`` (no derived state existed or
    changed), or
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


#: Each edit op's required fields (the :meth:`LiveEditor.apply` format).
_EDIT_FIELDS = {
    "retime": ("path", "duration_ms"), "add_arc": ("owner",),
    "remove_arc": ("owner", "index"), "reorder": ("parent", "child", "index"),
    "splice": ("path", "parent"), "duplicate": ("path", "name"),
    "remove": ("path",)}

#: What each known field reads as; null leaves a splice's ``index`` and
#: an arc's ``max_delay_ms`` at their defaults.
_FIELD_KINDS = {
    **dict.fromkeys(("path", "owner", "parent", "child", "name", "source",
                     "destination", "src_anchor", "dst_anchor",
                     "strictness"), str),
    **dict.fromkeys(("duration_ms", "offset_ms", "min_delay_ms",
                     "max_delay_ms"), float),
    **dict.fromkeys(("index", "at_step", "document"), int)}
_KIND_NOUNS = {str: "a string", float: "a finite number",
               int: "a non-negative integer"}


def check_edit_spec(spec) -> None:
    """Refuse a malformed JSON edit spec with :class:`ValueError_`.

    The boundary check of :meth:`LiveEditor.apply`, ``serve``'s edit
    scripts and the CLI's, so that a bad script fails with one typed
    error before any of its edits applies.
    """
    op = spec.get("op") if isinstance(spec, dict) else None
    if not isinstance(op, str) or op not in _EDIT_FIELDS:
        raise ValueError_(f"an edit spec is an object whose op is one of "
                          f"{', '.join(_EDIT_FIELDS)}; got {spec!r}")
    for name in _EDIT_FIELDS[op]:
        if spec.get(name) is None:
            raise ValueError_(f"edit {op} needs a {name!r} field")
    for name, value in spec.items():
        kind = _FIELD_KINDS.get(name)
        if kind is None or value is None and name in ("index",
                                                      "max_delay_ms"):
            continue
        try:
            valid = isinstance(value, str) if kind is str else (
                math.isfinite(kind(value))
                and (kind is float or kind(value) >= 0))
        except (TypeError, ValueError, OverflowError):
            valid = False
        if not valid:
            raise ValueError_(f"edit {op}: {name!r} must be "
                              f"{_KIND_NOUNS[kind]}, got {value!r}")


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


class ProgramPatcher:
    """Lower one edit's schedule delta onto the cached program pyramid.

    Everything the patcher needs comes out of the program cache: each
    composition's entry carries the :class:`SystemEnvironment` it was
    compiled for, so a structural edit re-plans exactly the
    compositions that are cached, each for its own environment, from
    one profile derived through ``requirements_cache`` when given.
    """

    def __init__(self, program_cache: ProgramCache,
                 requirements_cache: RequirementsCache | None = None
                 ) -> None:
        self.program_cache = program_cache
        self.requirements_cache = requirements_cache

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
        programs = {slot: value for slot, (value, _) in taken.items()
                    if isinstance(value, PlaybackProgram)}
        patched = changed_paths is not None and self._patch(
            new_schedule, old_schedule, changed_paths, arcs_changed,
            programs, record)
        if not patched:
            # A structural edit, or one that reordered the canonical
            # event sequence (or lost a slot): the flat arrays no longer
            # mean what they meant, so they are lowered afresh.
            self._rebuild(new_schedule, programs, record)
        # Retimes, arc edits and no-ops keep the compiled document, and
        # with it every descriptor, channel and medium the plans were
        # lowered from, whether or not the arrays could be patched.
        self._rekey(new_schedule, taken, programs, record, patched=patched,
                    kept=new_schedule.compiled is old_schedule.compiled)

    # -- the O(affected events) patch --------------------------------------

    def _patch(self, new_schedule: Schedule, old_schedule: Schedule,
               changed_paths: set[str], arcs_changed: bool,
               programs: dict, record: EditRecord) -> bool:
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
        record.mode = PATCHED if (touched or arcs_changed) else NOOP
        record.events_touched = touched
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
                 record: EditRecord) -> None:
        record.mode = RECOMPILED
        if not programs:
            return  # no program cached: later probes compile lazily
        fresh = compile_program(new_schedule)
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
        for program in self._distinct(programs):
            program.n_events = fresh.n_events
            program.node_paths = fresh.node_paths
            program.channels = fresh.channels
            program.media = fresh.media

    # -- shared re-keying / metadata refresh -------------------------------

    def _rekey(self, new_schedule: Schedule, taken: dict, programs: dict,
               record: EditRecord, *, patched: bool, kept: bool) -> None:
        compiled = new_schedule.compiled
        revision = compiled.document.revision
        base = programs.get(None)
        requirements = None
        for epoch in {id(program.patch_epoch): program.patch_epoch
                      for program in programs.values()}.values():
            epoch[0] += 1
        for program in self._distinct(programs):
            program.schedule = new_schedule
            program.revision = revision
        for slot, program in programs.items():
            environment = taken[slot][1]
            if patched:
                record.programs_patched += 1
            if kept:
                # Every plan survived: re-stamp it at the new revision.
                if program.adaptation is not None \
                        and program.adaptation.revision != revision:
                    program.adaptation = dataclasses.replace(
                        program.adaptation, revision=revision)
                    record.adaptations_patched += 1
            elif slot is not None:
                if requirements is None:
                    # One profile of the new revision serves every
                    # re-plan, and the admissions after the edit.
                    requirements = requirements_for(
                        compiled.document, cache=self.requirements_cache,
                        compiled=compiled)
                program = self._readapt(new_schedule, program, base,
                                        environment, requirements, record)
            self.program_cache.restore(new_schedule, slot, program,
                                       environment)
        navigation = taken.get(("derived", NAVIGATION_TAG), (None,))[0]
        if navigation is not None:
            recompile_into(navigation, new_schedule)
            if patched:
                record.navigations_patched += 1
            else:
                record.navigations_recompiled += 1
            self.program_cache.restore(
                new_schedule, ("derived", NAVIGATION_TAG), navigation)

    def _readapt(self, new_schedule: Schedule, program, base,
                 environment: SystemEnvironment,
                 requirements: DocumentRequirements, record: EditRecord
                 ) -> PlaybackProgram:
        """Structural path: re-plan one cached composition for the
        environment its entry was compiled for; returns the program to
        restore under the fingerprint."""
        adaptation = adaptation_for(new_schedule, environment,
                                    requirements=requirements)
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
    starts from that exact object, so the cached program pyramid stays
    reachable across the editor's attach.  The editor schedules as
    serving does: with channel serialization and the ``drop-last``
    relaxation policy.
    """

    def __init__(self, document: CmifDocument, *,
                 schedule_cache: ScheduleCache | None = None,
                 program_cache: ProgramCache | None = None,
                 requirements_cache: RequirementsCache | None = None
                 ) -> None:
        self.document = document
        existing = (schedule_cache.get(document)
                    if schedule_cache is not None else None)
        self.scheduler = IncrementalScheduler(document, cache=schedule_cache,
                                              schedule=existing)
        self.patcher = (ProgramPatcher(program_cache, requirements_cache)
                        if program_cache is not None else None)
        #: The most recent edit's record (None before the first edit);
        #: the lifetime totals live in :attr:`stats`.
        self.last_record: EditRecord | None = None

    @property
    def schedule(self) -> Schedule:
        return self.scheduler.schedule

    @property
    def stats(self):
        return self.scheduler.stats

    # -- JSON edit specs (the --edit-script format) -----------------------

    def apply(self, spec: dict) -> EditRecord:
        """Dispatch one JSON edit spec: ``{"op": ..., ...}``.

        Ops: ``retime`` (path, duration_ms), ``add_arc`` (owner +
        :func:`arc_from_spec` fields; a ``condition`` makes it
        conditional), ``remove_arc`` (owner, index), ``reorder``
        (parent, child, index), ``splice`` (path, parent, index?),
        ``duplicate`` (path, name), ``remove`` (path).  A malformed spec
        raises :class:`ValueError_` (see :func:`check_edit_spec`) and
        leaves the document untouched.
        """
        check_edit_spec(spec)
        op = spec["op"]
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
        return self._edited(op, spec["path"], scheduler.remove,
                            spec["path"])

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
            self.last_record = record
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
        self.last_record = record
        # The lifetime stats share the record's per-level counters.
        self.scheduler.stats.merge(record)
        return record


__all__ = ["CONFLICT", "EditRecord", "LiveEditor", "NOOP", "PATCHED",
           "ProgramPatcher", "RECOMPILED", "arc_from_spec",
           "check_edit_spec"]
