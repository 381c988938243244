"""Compiled playback programs: the batch replay engine (serving path).

One authored document is replayed thousands of times under different
seeds, rates, seeks and target environments — the "locally served,
centrally authored" consumption pattern.  The interpretive player pays
document-shaped costs on every run: schedule copies for rate/freeze
transforms, per-event dict lookups, a tree walk plus per-arc path
resolution for the audit, and an object allocation per played event.
All of that is invariant across runs.

This module lowers a solved :class:`~repro.timing.schedule.Schedule`
into a flat :class:`PlaybackProgram` once:

* parallel arrays of event begin/end times, channel and medium indices;
* a fully resolved arc table (endpoint event-index lists, anchor flags,
  offset/delta/epsilon already converted to milliseconds, owner paths
  and figure-9 descriptions preformatted);
* a second arc table in preorder for the class-3 seek analysis;
* per-environment latency tables indexed by medium position.

A :class:`BatchPlayer` then replays the program with a per-run inner
loop that is pure array arithmetic: rate, freeze-frame and seek are
arithmetic transforms of the time arrays (cached per configuration),
and every run produces a :class:`CompactReport` whose
``PlayedEvent``/``ArcAudit``/``ConflictReport`` objects are only built
when accessed.  ``Player.play`` runs on top of this engine and stays
bit-identical to the interpretive path (``Player.play_reference``),
which the equivalence tests and the playback bench both gate.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field

from repro.cache import LRUCache
from repro.core.channels import Medium
from repro.core.errors import PathError, PlaybackError
from repro.kernel import PYTHON_KERNEL, resolve_kernel
from repro.core.paths import resolve_path
from repro.core.syncarc import Anchor, ConditionalArc, Strictness
from repro.core.tree import iter_postorder, iter_preorder
from repro.timing.conflicts import (ConflictReport,
                                    navigation_conflict_report)
from repro.timing.intervals import Window
from repro.timing.schedule import Schedule, ScheduleCache, schedule_for
from repro.transport.environments import SystemEnvironment, WORKSTATION


@dataclass(frozen=True)
class AuditArc:
    """One explicit arc, resolved and unit-converted at compile time.

    ``source_events``/``dest_events`` are indices into the program's
    event arrays — the leaf events under each resolved endpoint.  A
    node's realized interval is the (min begin, max end) envelope of its
    played leaves, which is exactly what the interpretive player's
    postorder composition computes.
    """

    owner_path: str
    description: str
    strictness: Strictness
    src_begin: bool
    dst_begin: bool
    offset_ms: float
    delta_ms: float
    epsilon_ms: float | None
    source_events: tuple[int, ...]
    dest_events: tuple[int, ...]


@dataclass(frozen=True)
class NavArc:
    """One arc as the seek analysis sees it (preorder, conditionals too).

    ``error`` carries a deferred :class:`PathError` for conditional arcs
    whose endpoints do not resolve: the interpretive path only resolves
    them when a seek actually happens, so the compiled path must not
    raise any earlier.
    """

    owner_path: str
    description: str
    strictness: Strictness
    source_events: tuple[int, ...]
    dest_events: tuple[int, ...]
    error: PathError | None = None


@dataclass(frozen=True)
class RunPlan:
    """One configuration's precomputed run state (see ``plan()``).

    Shared by every replay of a (transform, seek, environment)
    configuration; the arrays are read-only from the run loop's side.
    """

    tb: list[float]
    te: list[float]
    active: list[int]
    played: list[bool]
    ready_base: list[float]
    duration: list[float]


class PlaybackProgram:
    """A schedule lowered to flat arrays, replayable without the tree.

    ``adaptation`` is None for the shared base program; an environment-
    specialized program (see :meth:`specialized`) carries its compiled
    :class:`~repro.pipeline.adaptation.AdaptationProgram` while sharing
    every array with the base — per-descriptor filtering never changes
    event timing (durations are authored, not derived from rates), so
    specialization is metadata, not a re-lowering.
    """

    __slots__ = ("schedule", "revision", "n_events", "begin_ms", "end_ms",
                 "node_paths", "channels", "channel_index", "media",
                 "medium_index", "audit_arcs", "nav_arcs", "_audit_rows",
                 "_kernel_views", "patch_epoch", "adaptation")

    def __init__(self, schedule: Schedule, revision: int,
                 begin_ms: list[float], end_ms: list[float],
                 node_paths: tuple[str, ...], channels: tuple[str, ...],
                 channel_index: list[int], media: tuple[Medium, ...],
                 medium_index: list[int],
                 audit_arcs: "tuple[AuditArc, ...] | list[AuditArc]",
                 nav_arcs: "tuple[NavArc, ...] | list[NavArc]",
                 adaptation=None) -> None:
        self.schedule = schedule
        self.revision = revision
        self.n_events = len(begin_ms)
        self.begin_ms = begin_ms
        self.end_ms = end_ms
        self.node_paths = node_paths
        self.channels = channels
        self.channel_index = channel_index
        self.media = media
        self.medium_index = medium_index
        # Arc tables are lists so the live-edit patcher can splice rows
        # in place; every environment-specialized clone shares the same
        # list objects (see :meth:`specialized`), so one splice updates
        # all of them.
        self.audit_arcs = list(audit_arcs)
        self.nav_arcs = list(nav_arcs)
        self.adaptation = adaptation
        #: Per-kernel compiled views, built and kept current by
        #: :mod:`repro.kernel` and shared with every specialized clone.
        self._kernel_views: dict = {}
        #: One-element shared generation counter: the live-edit patcher
        #: bumps it when it mutates the compiled arrays in place, and
        #: every :class:`BatchPlayer` over this program (or any clone)
        #: flushes its per-configuration caches on the next use.
        self.patch_epoch: list[int] = [0]
        # The audit loop's hot view of the arc table: plain tuples
        # unpack far faster than seven dataclass attribute reads.
        self._audit_rows = [audit_row(arc) for arc in self.audit_arcs]

    def specialized(self, adaptation) -> "PlaybackProgram":
        """An environment-specialized view sharing all compiled arrays."""
        clone = PlaybackProgram(
            self.schedule, self.revision, self.begin_ms, self.end_ms,
            self.node_paths, self.channels, self.channel_index,
            self.media, self.medium_index, (), (),
            adaptation=adaptation)
        # Share the mutable tables by identity (the constructor copies
        # its arguments): an in-place patch of the base must be visible
        # through every clone.
        clone.audit_arcs = self.audit_arcs
        clone.nav_arcs = self.nav_arcs
        clone._audit_rows = self._audit_rows
        clone._kernel_views = self._kernel_views
        clone.patch_epoch = self.patch_epoch
        return clone

    # -- per-run execution (pure array arithmetic) ------------------------

    def plan(self, tb: list[float], te: list[float], seek_to_ms: float,
             latencies: list[float], prefetch_lead_ms: float
             ) -> "RunPlan":
        """Everything run-invariant for one configuration, precomputed.

        The seek skip test, the prefetch dispatch clamp, the device
        latency add and the event duration are all functions of the
        (transform, seek, environment) configuration only; batching
        thousands of replays under one configuration should not repeat
        them.  The arithmetic mirrors the interpretive loop exactly:
        ``ready_base[i]`` is its ``dispatch + latency`` partial sum, to
        which each run adds only the jitter draw.
        """
        n = self.n_events
        active: list[int] = []
        played = [False] * n
        ready_base = [0.0] * n
        duration = [0.0] * n
        seeking = seek_to_ms > 0
        for i in range(n):
            end = te[i]
            if end <= seek_to_ms:
                continue
            begin = tb[i]
            dispatch = begin - prefetch_lead_ms
            if seeking and dispatch < seek_to_ms:
                dispatch = seek_to_ms
            ready_base[i] = dispatch + latencies[i]
            duration[i] = end - begin
            played[i] = True
            active.append(i)
        return RunPlan(tb=tb, te=te, active=active, played=played,
                       ready_base=ready_base, duration=duration)

    def run(self, plan: "RunPlan", jitter_ms: float,
            rng: random.Random):
        """One simulated run: the per-replay arithmetic and nothing else.

        Returns ``(actual_begin, actual_end)`` parallel arrays.  The
        jitter draw order matches the interpretive player exactly: one
        draw per non-skipped event, in canonical order, only when the
        environment has jitter at all — and ``rng.uniform(0.0, j)`` is
        exactly ``0.0 + (j - 0.0) * rng.random()``, so calling the
        C-level ``random()`` directly keeps the sequence bit-identical
        while skipping the Python wrapper per event.
        """
        n = self.n_events
        actual_begin = [0.0] * n
        actual_end = [0.0] * n
        channel_free = [0.0] * len(self.channels)
        channel_index = self.channel_index
        tb = plan.tb
        ready_base = plan.ready_base
        duration = plan.duration
        if jitter_ms > 0:
            random_f = rng.random
            for i in plan.active:
                ready = ready_base[i] + jitter_ms * random_f()
                start = tb[i]
                if ready > start:
                    start = ready
                lane = channel_index[i]
                free = channel_free[lane]
                if free > start:
                    start = free
                stop = start + duration[i]
                channel_free[lane] = stop
                actual_begin[i] = start
                actual_end[i] = stop
        else:
            for i in plan.active:
                ready = ready_base[i] + 0.0
                start = tb[i]
                if ready > start:
                    start = ready
                lane = channel_index[i]
                free = channel_free[lane]
                if free > start:
                    start = free
                stop = start + duration[i]
                channel_free[lane] = stop
                actual_begin[i] = start
                actual_end[i] = stop
        return actual_begin, actual_end

    def audit(self, actual_begin: list[float], actual_end: list[float],
              played: list[bool]):
        """Evaluate every audit arc against realized times.

        Returns one entry per arc: ``None`` when an endpoint has no
        played leaves (the interpretive path emits no audit then), else
        ``(actual_ms, violation_ms, low_ms, high_ms)``.
        """
        results = []
        append = results.append
        for (source_events, src_begin, dest_events, dst_begin,
             offset_ms, delta_ms, epsilon_ms) in self._audit_rows:
            # Leaf-to-leaf arcs (one event per endpoint) dominate; skip
            # the envelope loop for them.
            if len(source_events) == 1:
                j = source_events[0]
                tref = ((actual_begin[j] if src_begin else actual_end[j])
                        if played[j] else None)
            else:
                tref = _endpoint_time(source_events, src_begin,
                                      actual_begin, actual_end, played)
            if tref is None:
                append(None)
                continue
            if len(dest_events) == 1:
                j = dest_events[0]
                actual = ((actual_begin[j] if dst_begin
                           else actual_end[j]) if played[j] else None)
            else:
                actual = _endpoint_time(dest_events, dst_begin,
                                        actual_begin, actual_end, played)
            if actual is None:
                append(None)
                continue
            base = tref + offset_ms
            low = base + delta_ms
            high = None if epsilon_ms is None else base + epsilon_ms
            if actual < low:
                violation = actual - low
            elif high is not None and actual > high:
                violation = actual - high
            else:
                violation = 0.0
            append((actual, violation, low, high))
        return results

    def navigation_conflicts(self, tb: list[float], te: list[float],
                             seek_to_ms: float) -> list[ConflictReport]:
        """The class-3 reports for a seek, from the precompiled table."""
        reports: list[ConflictReport] = []
        for arc in self.nav_arcs:
            if arc.error is not None:
                raise arc.error
            if not arc.source_events or not arc.dest_events:
                continue
            source_end = max(te[i] for i in arc.source_events)
            destination_begin = min(tb[i] for i in arc.dest_events)
            if source_end < seek_to_ms and destination_begin >= seek_to_ms:
                reports.append(navigation_conflict_report(
                    arc.owner_path, arc.description, arc.strictness,
                    seek_to_ms))
        return reports

    def event_latencies(self, environment: SystemEnvironment
                        ) -> list[float]:
        """Per-event start latency under ``environment``."""
        table = environment.latency_table(self.media)
        return [table[m] for m in self.medium_index]


def check_prefetch_lead(lead_ms: float) -> None:
    """Refuse a prefetch lead that is negative or not finite."""
    if not 0.0 <= lead_ms < math.inf:
        raise PlaybackError("the prefetch lead must be a finite number of "
                            "milliseconds at or above 0")


def check_play_controls(rate: float, seek_to_ms: float,
                        freeze_at_ms: float | None,
                        freeze_duration_ms: float) -> None:
    """Refuse a rate that is not a positive finite number, or a seek
    point, a given freeze point or a freeze hold that is negative or not
    finite (NaN included).  The messages do not echo the value: a
    refused NaN or infinity stays out of every line the program
    prints."""
    if not 0.0 < rate < math.inf:
        raise PlaybackError("the rate must be positive and finite")
    if not 0.0 <= seek_to_ms < math.inf:
        raise PlaybackError("the seek point must be a finite time at or "
                            "after 0")
    if freeze_at_ms is not None and not 0.0 <= freeze_at_ms < math.inf:
        raise PlaybackError("the freeze point must be a finite time at "
                            "or after 0")
    if not 0.0 <= freeze_duration_ms < math.inf:
        raise PlaybackError("the freeze hold must be a finite duration "
                            "at or above 0")


def check_rate_span(rate: float, last_end_ms: float) -> None:
    """Refuse a rate that scales the timeline's last end past every
    finite time; like :func:`check_play_controls`, without echoing it."""
    if not math.isfinite(rate * last_end_ms):
        raise PlaybackError("the rate stretches the timeline past the "
                            "largest finite time")


def audit_row(arc: AuditArc) -> tuple:
    """The audit loop's hot-tuple form of one :class:`AuditArc` row."""
    return (arc.source_events, arc.src_begin, arc.dest_events,
            arc.dst_begin, arc.offset_ms, arc.delta_ms, arc.epsilon_ms)


def event_slot_map(schedule: Schedule) -> dict[int, int]:
    """``id(event) -> program array slot`` in canonical event order."""
    return {id(scheduled.event): index
            for index, scheduled in enumerate(schedule.ordered_events())}


def events_under(node, compiled, event_slot: dict[int, int]
                 ) -> tuple[int, ...]:
    """Array slots of the scheduled leaf events under ``node``."""
    indices = []
    for leaf in iter_preorder(node):
        if leaf.is_leaf:
            event = compiled.by_node.get(id(leaf))
            if event is not None:
                slot = event_slot.get(id(event))
                if slot is not None:
                    indices.append(slot)
    return tuple(indices)


def build_audit_arc(node, arc, paths: dict[int, str], timebase,
                    compiled, event_slot: dict[int, int]) -> AuditArc:
    """One arc's :class:`AuditArc` row, exactly as compilation emits it.

    Shared by :func:`compile_program` and the live-edit patcher
    (:mod:`repro.pipeline.patch`), so a patched-in row can never drift
    from what a from-scratch compile would produce.
    """
    source = resolve_path(node, arc.source)
    destination = resolve_path(node, arc.destination)
    delta_ms, epsilon_ms = arc.window_ms(timebase)
    return AuditArc(
        owner_path=paths[id(node)],
        description=arc.describe(),
        strictness=arc.strictness,
        src_begin=arc.src_anchor is Anchor.BEGIN,
        dst_begin=arc.dst_anchor is Anchor.BEGIN,
        offset_ms=timebase.to_ms(arc.offset),
        delta_ms=delta_ms,
        epsilon_ms=epsilon_ms,
        source_events=events_under(source, compiled, event_slot),
        dest_events=events_under(destination, compiled, event_slot))


def build_nav_arc(node, arc, paths: dict[int, str],
                  compiled, event_slot: dict[int, int]) -> NavArc:
    """One arc's :class:`NavArc` row, exactly as compilation emits it."""
    try:
        source = resolve_path(node, arc.source)
        destination = resolve_path(node, arc.destination)
    except PathError as exc:
        # Only conditional arcs can defer: explicit arcs with broken
        # endpoints already raised in the audit pass, like every
        # interpretive play() does.
        return NavArc(
            owner_path=paths[id(node)],
            description=arc.describe(),
            strictness=arc.strictness,
            source_events=(), dest_events=(), error=exc)
    return NavArc(
        owner_path=paths[id(node)],
        description=arc.describe(),
        strictness=arc.strictness,
        source_events=events_under(source, compiled, event_slot),
        dest_events=events_under(destination, compiled, event_slot))


def compiled_arc_rows(schedule: Schedule) -> tuple[list, list]:
    """A schedule's (audit, nav) arc rows: postorder audit rows, which
    skip conditional arcs, then preorder nav rows.

    :func:`compile_program` builds its arc tables here, and an arc edit
    slice-assigns a fresh pair into the live shared lists, so a patch
    and a cold compile share one loop order.  Paths and the preorder
    come from the compile (an arc edit keeps the tree's shape).
    """
    compiled = schedule.compiled
    document = compiled.document
    paths = dict(zip(map(id, compiled.nodes), compiled.paths))
    timebase = document.timebase
    event_slot = event_slot_map(schedule)
    audit = []
    for node in iter_postorder(document.root):
        for arc in node.attributes.get("sync-arc", ()):
            if isinstance(arc, ConditionalArc):
                continue
            audit.append(build_audit_arc(node, arc, paths, timebase,
                                         compiled, event_slot))
    nav = []
    for node in compiled.nodes:
        for arc in node.attributes.get("sync-arc", ()):
            nav.append(build_nav_arc(node, arc, paths, compiled,
                                     event_slot))
    return audit, nav


def compile_program(schedule: Schedule,
                    cache: "ProgramCache | None" = None
                    ) -> PlaybackProgram:
    """Lower a schedule into a :class:`PlaybackProgram`.

    Everything invariant across runs is paid here once: the canonical
    event order, the node path map, arc endpoint resolution, unit
    conversion of arc windows, and the figure-9 descriptions the report
    objects carry.
    """
    if cache is not None:
        return cache.program_for(schedule)
    document = schedule.compiled.document
    ordered = schedule.ordered_events()

    begin_ms = [event.begin_ms for event in ordered]
    end_ms = [event.end_ms for event in ordered]
    node_paths = tuple(event.event.node_path for event in ordered)
    channel_slots: dict[str, int] = {}
    channel_index: list[int] = []
    medium_slots: dict[Medium, int] = {}
    medium_index: list[int] = []
    for scheduled in ordered:
        name = scheduled.event.channel
        channel_index.append(
            channel_slots.setdefault(name, len(channel_slots)))
        medium = scheduled.event.medium
        medium_index.append(
            medium_slots.setdefault(medium, len(medium_slots)))

    audit_arcs, nav_arcs = compiled_arc_rows(schedule)
    return PlaybackProgram(
        schedule=schedule,
        revision=document.revision,
        begin_ms=begin_ms, end_ms=end_ms, node_paths=node_paths,
        channels=tuple(channel_slots), channel_index=channel_index,
        media=tuple(medium_slots), medium_index=medium_index,
        audit_arcs=tuple(audit_arcs), nav_arcs=tuple(nav_arcs))


def _endpoint_time(events: tuple[int, ...], anchor_begin: bool,
                   actual_begin: list[float], actual_end: list[float],
                   played: list[bool]) -> float | None:
    """A node envelope's anchored time: min begin or max end of leaves."""
    value: float | None = None
    if anchor_begin:
        for index in events:
            if played[index]:
                candidate = actual_begin[index]
                if value is None or candidate < value:
                    value = candidate
    else:
        for index in events:
            if played[index]:
                candidate = actual_end[index]
                if value is None or candidate > value:
                    value = candidate
    return value


class ProgramCache(LRUCache):
    """Compiled programs keyed by (schedule identity, revision,
    environment fingerprint).

    The serving path replays one schedule across many runs, rates and
    environments; the base program only changes when the schedule does,
    and each environment-specialized program (base + compiled
    adaptation) is keyed by the environment's capability fingerprint —
    so capability-identical environments share one entry regardless of
    their names.  Like the schedule cache, entries pin their schedule
    so ``id()`` reuse is impossible, and a document edit (revision
    bump) moves the key.

    Entries are owned by the schedule's document, so inserting an entry
    evicts the document's entries at other revisions (see
    :mod:`repro.cache`).  The live-edit patcher instead calls
    :meth:`take` *before* the revision moves, re-keying the still-valid
    compiled programs it patched in place.

    The key's third slot is the pyramid level an entry belongs to —
    ``None`` for the base playback program, an environment fingerprint
    for an adaptation composition, ``("derived", tag)`` for
    schedule-derived artifacts such as navigation programs.  A
    composition's entry also keeps the :class:`SystemEnvironment` that
    compiled it, so the patcher can re-plan every cached composition
    after a structural edit from the cache alone.
    """

    name = "program cache"

    @staticmethod
    def _key(schedule: Schedule, slot) -> tuple:
        return (id(schedule), schedule.compiled.document.revision, slot)

    def _lookup(self, schedule: Schedule, slot):
        entry = super().get(self._key(schedule, slot))
        return None if entry is None else entry[1]

    def _insert(self, schedule: Schedule, slot, value,
                environment: SystemEnvironment | None = None) -> None:
        document = schedule.compiled.document
        super().put(self._key(schedule, slot),
                    (schedule, value, environment),
                    owner=document, revision=document.revision)

    def get(self, schedule: Schedule, *,
            environment: SystemEnvironment | None = None
            ) -> PlaybackProgram | None:
        return self._lookup(schedule, None if environment is None
                            else environment.fingerprint())

    def put(self, schedule: Schedule, program: PlaybackProgram, *,
            environment: SystemEnvironment | None = None) -> None:
        self._insert(schedule, None if environment is None
                     else environment.fingerprint(), program, environment)

    def get_derived(self, schedule: Schedule, tag: str):
        """A derived compiled artifact keyed by (schedule, revision, tag).

        Navigation programs (and any future schedule-derived compile
        product) ride in the same table as playback programs: a tag
        slot distinguishes them from environment fingerprints, the
        schedule is pinned identically, and a document edit (revision
        bump) invalidates the whole pyramid level in one move.
        """
        return self._lookup(schedule, ("derived", tag))

    def put_derived(self, schedule: Schedule, tag: str, value) -> None:
        self._insert(schedule, ("derived", tag), value)

    def take(self, schedule: Schedule) -> dict:
        """Remove and return every entry pinned to ``schedule``.

        The result maps each entry's level slot to its cached value and
        the environment stored with it (None outside the composition
        level).  The live-edit patcher calls this before a document's
        revision moves, patches the values in place, and re-inserts
        them under the successor schedule with :meth:`restore` — the
        only path on which a superseded entry survives an edit.
        """
        taken = super().take(schedule.compiled.document,
                             lambda key, entry: entry[0] is schedule)
        return {key[2]: entry[1:] for key, entry in taken}

    def restore(self, schedule: Schedule, slot, value,
                environment: SystemEnvironment | None = None) -> None:
        """Re-insert a :meth:`take`-n entry under ``schedule``'s key."""
        self._insert(schedule, slot, value, environment)

    def program_for(self, schedule: Schedule) -> PlaybackProgram:
        """The schedule's base (environment-free) program, compiled at
        most once.  Environment-specialized programs go through
        :func:`repro.pipeline.adaptation.adapted_program_for`."""
        cached = self.get(schedule)
        if cached is not None:
            return cached
        program = compile_program(schedule)
        self.put(schedule, program)
        return program


class CompactReport:
    """One run's outcome in array-backed form.

    Summary statistics (skew, violation counts) read the arrays
    directly; ``PlayedEvent``/``ArcAudit``/``PlaybackReport`` objects
    are only built when a consumer actually asks for them, so a batch
    of thousands of replays allocates almost nothing per run.
    """

    __slots__ = ("program", "environment", "rate", "freezes_ms",
                 "seek_to_ms", "_scheduled_begin", "_scheduled_end",
                 "_actual_begin", "_actual_end", "_played_mask",
                 "_arc_results", "_nav", "_report")

    def __init__(self, program: PlaybackProgram, environment: str,
                 rate: float, freezes_ms: float, seek_to_ms: float,
                 scheduled_begin: list[float], scheduled_end: list[float],
                 actual_begin: list[float], actual_end: list[float],
                 played_mask: list[bool], arc_results,
                 navigation: list[ConflictReport]) -> None:
        self.program = program
        self.environment = environment
        self.rate = rate
        self.freezes_ms = freezes_ms
        self.seek_to_ms = seek_to_ms
        self._scheduled_begin = scheduled_begin
        self._scheduled_end = scheduled_end
        self._actual_begin = actual_begin
        self._actual_end = actual_end
        self._played_mask = played_mask
        self._arc_results = arc_results
        self._nav = navigation
        self._report = None

    # -- array-side statistics (no object materialization) ---------------

    @property
    def played_count(self) -> int:
        """How many events the run presented (post-seek)."""
        return sum(self._played_mask)

    @property
    def max_skew_ms(self) -> float:
        """The worst realized start skew across all events."""
        mask = self._played_mask
        actual = self._actual_begin
        scheduled = self._scheduled_begin
        worst = 0.0
        empty = True
        for index, hit in enumerate(mask):
            if not hit:
                continue
            empty = False
            skew = float(actual[index] - scheduled[index])
            if skew < 0:
                skew = -skew
            if skew > worst:
                worst = skew
        return 0.0 if empty else worst

    def _violation_count(self, strictness: Strictness) -> int:
        count = 0
        for arc, result in zip(self.program.audit_arcs, self._arc_results):
            if (result is not None and result[1] != 0.0
                    and arc.strictness is strictness):
                count += 1
        return count

    @property
    def must_violation_count(self) -> int:
        return self._violation_count(Strictness.MUST)

    @property
    def may_violation_count(self) -> int:
        return self._violation_count(Strictness.MAY)

    def skew_by_channel(self) -> dict[str, float]:
        """Worst absolute start skew per channel, from the arrays."""
        mask = self._played_mask
        worst: dict[str, float] = {}
        channels = self.program.channels
        channel_index = self.program.channel_index
        for index, hit in enumerate(mask):
            if not hit:
                continue
            name = channels[channel_index[index]]
            skew = float(self._actual_begin[index]
                         - self._scheduled_begin[index])
            if skew < 0:
                skew = -skew
            if skew > worst.get(name, -1.0):
                worst[name] = skew
        return worst

    # -- lazy object materialization --------------------------------------

    @property
    def navigation_conflicts(self) -> list[ConflictReport]:
        # Fresh list: the underlying one is the BatchPlayer's shared
        # per-configuration cache, which a caller must not mutate.
        return list(self._nav)

    @property
    def played(self):
        return self.materialize().played

    @property
    def audits(self):
        return self.materialize().audits

    @property
    def must_violations(self):
        return self.materialize().must_violations

    @property
    def may_violations(self):
        return self.materialize().may_violations

    def summary(self) -> str:
        return self.materialize().summary()

    def materialize(self):
        """The full :class:`~repro.pipeline.player.PlaybackReport`.

        Built once and cached; bit-identical to what the interpretive
        player returns for the same schedule, controls and RNG.
        """
        if self._report is not None:
            return self._report
        from repro.pipeline.player import (ArcAudit, PlaybackReport,
                                           PlayedEvent)
        program = self.program
        report = PlaybackReport(environment=self.environment,
                                rate=self.rate,
                                freezes_ms=self.freezes_ms)
        report.navigation_conflicts = list(self._nav)
        channels = program.channels
        channel_index = program.channel_index
        scheduled_begin = self._scheduled_begin
        scheduled_end = self._scheduled_end
        actual_begin = self._actual_begin
        actual_end = self._actual_end
        for index, hit in enumerate(self._played_mask):
            if not hit:
                continue
            report.played.append(PlayedEvent(
                node_path=program.node_paths[index],
                channel=channels[channel_index[index]],
                scheduled_begin_ms=scheduled_begin[index],
                scheduled_end_ms=scheduled_end[index],
                actual_begin_ms=actual_begin[index],
                actual_end_ms=actual_end[index]))
        for arc, result in zip(program.audit_arcs, self._arc_results):
            if result is None:
                continue
            actual, violation, low, high = result
            report.audits.append(ArcAudit(
                owner_path=arc.owner_path,
                arc_description=arc.description,
                strictness=arc.strictness,
                window=str(Window(low, high)),
                actual_ms=actual,
                violation_ms=violation))
        self._report = report
        return report


#: Distinct configurations a BatchPlayer keeps per cache table; past
#: this the least-recently-used entry (and its O(events) arrays) goes.
CONFIG_CACHE_CAPACITY = 64


@dataclass
class SweepCell:
    """One (environment, rate, seek) point of a sweep with its runs."""

    environment: str
    rate: float
    seek_to_ms: float
    reports: list[CompactReport] = field(default_factory=list)

    @property
    def worst_skew_ms(self) -> float:
        return max((report.max_skew_ms for report in self.reports),
                   default=0.0)

    @property
    def must_violations(self) -> int:
        return sum(report.must_violation_count for report in self.reports)

    @property
    def may_violations(self) -> int:
        return sum(report.may_violation_count for report in self.reports)

    @property
    def events_played(self) -> int:
        return sum(report.played_count for report in self.reports)


class BatchPlayer:
    """Replay one compiled program many times, cheaply.

    The program is compiled (or fetched from ``program_cache``) once at
    construction; rate/freeze transforms of the time arrays and the
    per-seek navigation analysis are cached per configuration, and
    per-environment latency tables per environment — so a thousand
    replays under one configuration pay the inner array loop and the
    jitter draws, nothing else.
    """

    def __init__(self, schedule: Schedule,
                 environment: SystemEnvironment = WORKSTATION, *,
                 seed: int = 0, prefetch_lead_ms: float = 0.0,
                 strict: bool = False,
                 program: PlaybackProgram | None = None,
                 program_cache: "ProgramCache | None" = None,
                 kernel=None) -> None:
        check_prefetch_lead(prefetch_lead_ms)
        self.environment = environment
        self.seed = seed
        self.prefetch_lead_ms = prefetch_lead_ms
        self.strict = strict
        self.kernel = resolve_kernel(kernel)
        self.program = (program if program is not None
                        else compile_program(schedule, cache=program_cache))
        #: The program patch generation this player's caches reflect;
        #: a live edit bumps the program's shared epoch and the next
        #: :meth:`_transformed` call flushes everything derived from
        #: the patched arrays.
        self._patch_seen = self.program.patch_epoch[0]
        # Per-configuration caches, all LRU-bounded: a long-lived
        # serving player sees arbitrary per-reader rates/seeks, and
        # each entry holds O(events) arrays — these must not grow with
        # the number of distinct configurations ever seen.
        #: (rate, freeze_at, freeze_duration) -> (begin, end) arrays
        self._transforms = LRUCache(CONFIG_CACHE_CAPACITY)
        #: (transform key, seek) -> shared ConflictReport list
        self._nav = LRUCache(CONFIG_CACHE_CAPACITY)
        #: id(environment) -> (environment, per-event latency array)
        self._latencies = LRUCache(CONFIG_CACHE_CAPACITY)
        #: (transform key, seek, id(environment))
        #:     -> (environment, backend, plan)
        self._plans = LRUCache(CONFIG_CACHE_CAPACITY)

    @classmethod
    def for_document(cls, document,
                     environment: SystemEnvironment = WORKSTATION, *,
                     cache: ScheduleCache | None = None,
                     **kwargs) -> "BatchPlayer":
        """Schedule (through ``cache``, if any) and wrap a document."""
        return cls(schedule_for(document, cache=cache), environment,
                   **kwargs)

    def rng_for(self, replay: int = 0) -> random.Random:
        """The jitter RNG of the ``replay``-th run (seed + replay)."""
        return random.Random(self.seed + replay)

    # -- cached per-configuration state -----------------------------------

    def _transformed(self, rate: float, freeze_at_ms: float | None,
                     freeze_duration_ms: float
                     ) -> tuple[tuple, list[float], list[float]]:
        """Time arrays under rate scaling then freeze-frame insertion.

        Returns ``(key, begin, end)`` — the normalized configuration
        key is computed here only, so the transform, navigation and
        plan caches can never disagree on it.  The arithmetic mirrors
        the interpretive ``_scaled``/``_frozen`` schedule copies
        exactly (including the order: scale first, then freeze against
        the scaled clock) without building any ``Schedule`` or
        ``ScheduledEvent`` objects.
        """
        epoch = self.program.patch_epoch[0]
        if epoch != self._patch_seen:
            # A live edit patched the compiled arrays in place: every
            # cache derived from them is stale.  ``_transformed`` is
            # the single entry every replay and seek goes through, so
            # checking here covers all four tables.
            self._patch_seen = epoch
            self._transforms.clear()
            self._nav.clear()
            self._plans.clear()
            self._latencies.clear()
        freezing = freeze_at_ms is not None and freeze_duration_ms > 0
        key = (rate, freeze_at_ms if freezing else None,
               freeze_duration_ms if freezing else 0.0)
        cached = self._transforms.get(key)
        if cached is not None:
            return key, cached[0], cached[1]
        tb = self.program.begin_ms
        te = self.program.end_ms
        if rate != 1.0:
            check_rate_span(rate, max(te, default=0.0))
            tb = [value * rate for value in tb]
            te = [value * rate for value in te]
        if freezing:
            frozen_begin, frozen_end = [], []
            for begin, end in zip(tb, te):
                if begin >= freeze_at_ms:
                    begin += freeze_duration_ms
                    end += freeze_duration_ms
                elif end > freeze_at_ms:
                    end += freeze_duration_ms
                frozen_begin.append(begin)
                frozen_end.append(end)
            tb, te = frozen_begin, frozen_end
        self._transforms.put(key, (tb, te))
        return key, tb, te

    def _navigation(self, transform_key: tuple, tb: list[float],
                    te: list[float], seek_to_ms: float
                    ) -> list[ConflictReport]:
        key = (transform_key, seek_to_ms)
        cached = self._nav.get(key)
        if cached is None:
            cached = self.program.navigation_conflicts(tb, te, seek_to_ms)
            self._nav.put(key, cached)
        return cached

    def _latency_for(self, environment: SystemEnvironment) -> list[float]:
        entry = self._latencies.get(id(environment))
        if entry is None or entry[0] is not environment:
            entry = (environment,
                     self.program.event_latencies(environment))
            self._latencies.put(id(environment), entry)
        return entry[1]

    def _plan_for(self, transform_key: tuple, tb: list[float],
                  te: list[float], seek_to_ms: float,
                  environment: SystemEnvironment) -> tuple:
        """``(backend, plan)`` for one configuration.

        A jittered run draws once per event into a serial recurrence,
        which only the scalar reference evaluates; the configured
        kernel serves quiet environments.  The test is the draw rule of
        :meth:`PlaybackProgram.run`, so the routing never changes bits.
        """
        key = (transform_key, seek_to_ms, id(environment))
        entry = self._plans.get(key)
        if entry is None or entry[0] is not environment:
            backend = (PYTHON_KERNEL if environment.jitter_ms > 0
                       else self.kernel)
            plan = backend.build_plan(
                self.program, tb, te, seek_to_ms,
                self._latency_for(environment), self.prefetch_lead_ms)
            entry = (environment, backend, plan)
            self._plans.put(key, entry)
        return entry[1], entry[2]

    def prime_seek(self, seek_to_ms: float, *, rate: float = 1.0,
                   environment: SystemEnvironment | None = None) -> None:
        """Precompute one seek destination's run state (cache warming).

        After this, a ``run_one(seek_to_ms=...)`` for the destination
        is a pure O(1) swap to the cached :class:`RunPlan` plus the
        per-run array loop — the navigation layer warms every link
        target of a document this way, so following a link never pays
        plan or class-3 analysis work on the interactive path.
        """
        env = environment if environment is not None else self.environment
        transform_key, tb, te = self._transformed(rate, None, 0.0)
        if seek_to_ms > 0:
            self._navigation(transform_key, tb, te, seek_to_ms)
        self._plan_for(transform_key, tb, te, seek_to_ms, env)

    # -- entry points ------------------------------------------------------

    def run_one(self, *, rate: float = 1.0,
                freeze_at_ms: float | None = None,
                freeze_duration_ms: float = 0.0,
                seek_to_ms: float = 0.0,
                environment: SystemEnvironment | None = None,
                rng: random.Random | None = None,
                replay: int = 0) -> CompactReport:
        """One replay, returned in compact (lazy) form."""
        check_play_controls(rate, seek_to_ms, freeze_at_ms,
                            freeze_duration_ms)
        env = environment if environment is not None else self.environment
        transform_key, tb, te = self._transformed(rate, freeze_at_ms,
                                                  freeze_duration_ms)
        navigation: list[ConflictReport] = []
        if seek_to_ms > 0:
            navigation = self._navigation(transform_key, tb, te,
                                          seek_to_ms)
        if rng is None:
            rng = self.rng_for(replay)
        backend, plan = self._plan_for(transform_key, tb, te, seek_to_ms,
                                       env)
        actual_begin, actual_end = backend.run(self.program, plan,
                                               env.jitter_ms, rng)
        played = plan.played
        arc_results = backend.audit(self.program, actual_begin,
                                    actual_end, played, plan=plan)
        report = CompactReport(
            program=self.program, environment=env.name, rate=rate,
            freezes_ms=(freeze_duration_ms if freeze_at_ms is not None
                        else 0.0),
            seek_to_ms=seek_to_ms,
            scheduled_begin=tb, scheduled_end=te,
            actual_begin=actual_begin, actual_end=actual_end,
            played_mask=played, arc_results=arc_results,
            navigation=navigation)
        if self.strict and report.must_violation_count:
            worst = report.must_violations[0]
            raise PlaybackError(
                f"must synchronization violated on {env.name}: {worst}")
        return report

    def replay_many(self, replays: int, *, rate: float = 1.0,
                    freeze_at_ms: float | None = None,
                    freeze_duration_ms: float = 0.0,
                    seek_to_ms: float = 0.0,
                    environment: SystemEnvironment | None = None,
                    first_replay: int = 0) -> list[CompactReport]:
        """``replays`` runs with jitter seeds ``seed+first_replay..``."""
        if replays < 1:
            raise PlaybackError(
                f"replay count must be at least 1, got {replays}")
        return [self.run_one(rate=rate, freeze_at_ms=freeze_at_ms,
                             freeze_duration_ms=freeze_duration_ms,
                             seek_to_ms=seek_to_ms,
                             environment=environment,
                             replay=first_replay + index)
                for index in range(replays)]

    def sweep(self, environments=None, rates=(1.0,), seeks_ms=(0.0,), *,
              replays: int = 1) -> list[SweepCell]:
        """Replay across an environment × rate × seek grid.

        The program, transforms and navigation analyses are shared
        across the whole grid; each cell holds its compact reports.
        """
        targets = (tuple(environments) if environments is not None
                   else (self.environment,))
        cells: list[SweepCell] = []
        for env in targets:
            for rate in rates:
                for seek in seeks_ms:
                    cells.append(SweepCell(
                        environment=env.name, rate=rate, seek_to_ms=seek,
                        reports=self.replay_many(
                            replays, rate=rate, seek_to_ms=seek,
                            environment=env)))
        return cells
