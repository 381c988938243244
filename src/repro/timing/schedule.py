"""Schedules: the solved timeline of a document (paper figure 3).

A :class:`Schedule` assigns every node a begin and end time and every
event a slot on its channel — the machine form of the paper's figure-3
view (channels as columns, event descriptors as boxes, time flowing
downward).  It is the input to the presentation player and to the
viewing tools.
"""

from __future__ import annotations

import bisect
from collections.abc import Iterable, Mapping
from dataclasses import dataclass, field

from repro.cache import LRUCache
from repro.core.descriptors import EventDescriptor
from repro.core.document import CmifDocument, CompiledDocument
from repro.core.errors import SchedulingConflict, ValueError_
from repro.core.timebase import times_close
from repro.timing.constraints import (Constraint, TimeVar, begin_var,
                                      build_constraints, end_var)
from repro.timing.graph import compile_graph, solve_graph
from repro.timing.solver import (RELAX_DROP_LAST, SolverResult, solve)

#: Cold-path solve engines: the pinned object-form reference, and the
#: compiled-graph lowering (bit-identical, benched >=5x on corpus
#: documents — see benchmarks/bench_ingest.py).
ENGINE_REFERENCE = "reference"
ENGINE_GRAPH = "graph"
SCHEDULE_ENGINES = (ENGINE_REFERENCE, ENGINE_GRAPH)


@dataclass(frozen=True)
class ScheduledEvent:
    """One event with its solved presentation interval."""

    event: EventDescriptor
    begin_ms: float
    end_ms: float

    @property
    def duration_ms(self) -> float:
        """Scheduled duration (equals the event's declared duration)."""
        return self.end_ms - self.begin_ms

    @property
    def channel(self) -> str:
        """The channel the event plays on."""
        return self.event.channel

    def overlaps(self, other: "ScheduledEvent") -> bool:
        """True when the two presentation intervals intersect."""
        return (self.begin_ms < other.end_ms - 1e-9
                and other.begin_ms < self.end_ms - 1e-9)

    def active_at(self, time_ms: float) -> bool:
        """True when the event is being presented at ``time_ms``."""
        return self.begin_ms - 1e-9 <= time_ms < self.end_ms - 1e-9

    def __str__(self) -> str:
        return (f"[{self.begin_ms:8.1f} .. {self.end_ms:8.1f}] "
                f"{self.event.event_id} on {self.channel}")


@dataclass
class Schedule:
    """The complete solved timeline of one compiled document."""

    compiled: CompiledDocument
    times_ms: Mapping[TimeVar, float]
    events: list[ScheduledEvent] = field(default_factory=list)
    dropped_constraints: list[Constraint] = field(default_factory=list)
    solver_iterations: int = 1
    #: lazily-cached canonical event order; schedules are treated as
    #: immutable after construction (edits produce new Schedule
    #: objects), which is what makes the cache safe.
    _ordered: tuple[ScheduledEvent, ...] | None = field(
        default=None, repr=False, compare=False)
    #: lazily-cached channel lanes (see :meth:`by_channel`); treat the
    #: returned mapping as immutable.
    _by_channel: dict[str, list["ScheduledEvent"]] | None = field(
        default=None, repr=False, compare=False)
    #: lazily-cached sorted distinct change points.
    _change_points: list[float] | None = field(
        default=None, repr=False, compare=False)
    #: lazily-cached :meth:`events_at` support: begin times when
    #: ``self.events`` is begin-sorted (the canonical case), else None
    #: to fall back to the linear scan.
    _begin_index: list[float] | None = field(
        default=None, repr=False, compare=False)
    _begin_sorted: bool | None = field(
        default=None, repr=False, compare=False)

    # -- queries ---------------------------------------------------------

    def ordered_events(self) -> tuple[ScheduledEvent, ...]:
        """Events in canonical :func:`event_order`, computed once.

        The player replays a schedule many times (``--replays N``,
        seeks, rate changes); caching the sort keeps each replay
        O(E) instead of O(E log E).
        """
        if self._ordered is None:
            self._ordered = tuple(sorted(self.events, key=event_order))
        return self._ordered

    @property
    def total_duration_ms(self) -> float:
        """End of the last event (the document's presentation length)."""
        if not self.events:
            return 0.0
        return max(event.end_ms for event in self.events)

    def node_begin_ms(self, path: str) -> float:
        """Begin time of the node at root-relative ``path``."""
        return self._lookup(begin_var(path))

    def node_end_ms(self, path: str) -> float:
        """End time of the node at root-relative ``path``."""
        return self._lookup(end_var(path))

    def _lookup(self, var: TimeVar) -> float:
        value = self.times_ms.get(var)
        if value is None:
            raise SchedulingConflict(f"no scheduled time for {var}")
        return value

    def by_channel(self) -> dict[str, list[ScheduledEvent]]:
        """Events grouped per channel, ordered by begin time.

        Computed once and cached — the viewer, the serialization
        invariant and conflict analysis all re-request the lanes of the
        same immutable schedule.  Treat the result as read-only.
        """
        if self._by_channel is None:
            lanes: dict[str, list[ScheduledEvent]] = {
                name: [] for name in self.compiled.per_channel}
            for event in self.events:
                lanes.setdefault(event.channel, []).append(event)
            for lane in lanes.values():
                lane.sort(key=lambda e: (e.begin_ms, e.end_ms))
            self._by_channel = lanes
        return self._by_channel

    def events_at(self, time_ms: float) -> list[ScheduledEvent]:
        """Every event active at ``time_ms`` (the figure-4a screen state).

        When ``self.events`` is begin-sorted (the canonical order
        :func:`make_schedule` produces), a cached begin index cuts the
        scan to events that have begun by ``time_ms``; otherwise the
        seed's full linear scan runs, so results — including their
        ``self.events`` ordering — never change.
        """
        if self._begin_sorted is None:
            begins = [event.begin_ms for event in self.events]
            self._begin_sorted = all(
                earlier <= later
                for earlier, later in zip(begins, begins[1:]))
            self._begin_index = begins if self._begin_sorted else None
        if not self._begin_sorted:
            return [event for event in self.events
                    if event.active_at(time_ms)]
        # active_at admits begins up to time_ms + 1e-9; bisect on that.
        cut = bisect.bisect_right(self._begin_index, time_ms + 1e-9)
        return [event for event in self.events[:cut]
                if event.active_at(time_ms)]

    def event_for_path(self, node_path: str) -> ScheduledEvent:
        """The scheduled event originating from the leaf at ``node_path``."""
        for event in self.events:
            if event.event.node_path == node_path:
                return event
        raise SchedulingConflict(f"no event scheduled for {node_path}")

    def change_points(self) -> list[float]:
        """Sorted distinct times where any event begins or ends.

        Cached on first call (the viewer and analyses sweep the same
        immutable schedule's change points repeatedly); a fresh list is
        returned each time so callers may slice or mutate freely.
        """
        if self._change_points is None:
            points: set[float] = set()
            for event in self.events:
                points.add(round(event.begin_ms, 6))
                points.add(round(event.end_ms, 6))
            self._change_points = sorted(points)
        return list(self._change_points)

    def channel_utilization(self) -> dict[str, float]:
        """Fraction of the document span each channel is busy.

        A channel's busy time is the sum of its event durations; the
        channel-serialization invariant guarantees no double counting.
        """
        total = self.total_duration_ms
        if total <= 0:
            return {name: 0.0 for name in self.compiled.per_channel}
        busy: dict[str, float] = {name: 0.0
                                  for name in self.compiled.per_channel}
        for event in self.events:
            busy[event.channel] = busy.get(event.channel, 0.0) \
                + event.duration_ms
        return {name: value / total for name, value in busy.items()}

    # -- invariants ---------------------------------------------------------

    def assert_channel_serialization(self) -> None:
        """Check no two events on one channel overlap (section 3.1)."""
        for channel, lane in self.by_channel().items():
            for before, after in zip(lane, lane[1:]):
                if before.overlaps(after):
                    raise SchedulingConflict(
                        f"events overlap on channel {channel!r}: "
                        f"{before} and {after}")

    def shifted(self, delta_ms: float) -> "Schedule":
        """A copy with every time moved by ``delta_ms`` (for previews)."""
        return Schedule(
            compiled=self.compiled,
            times_ms={var: t + delta_ms
                      for var, t in self.times_ms.items()},
            events=[ScheduledEvent(e.event, e.begin_ms + delta_ms,
                                   e.end_ms + delta_ms)
                    for e in self.events],
            dropped_constraints=list(self.dropped_constraints),
            solver_iterations=self.solver_iterations,
        )


class ScheduleCache(LRUCache):
    """Solved schedules keyed by document revision (LRU, bounded).

    The authoring loop and the player re-request the same timeline many
    times — across seeks, replays, and view refreshes — while the
    document itself only changes when an edit bumps
    :attr:`~repro.core.document.CmifDocument.revision`.  The cache keys
    on ``(document identity, revision, solve parameters)``, so a stale
    schedule can never be served: any edit moves the document to a new
    key.  Entries are owned by their document, which both pins the
    identity and evicts superseded revisions (see :mod:`repro.cache`).

    The incremental engine (:mod:`repro.timing.incremental`) publishes
    its patched schedule here after every edit, so cache consumers get
    incremental re-solves for free.
    """

    name = "schedule cache"

    @staticmethod
    def _key(document: CmifDocument, channel_serialization: bool,
             relaxation_policy: str) -> tuple:
        return (id(document), document.revision, channel_serialization,
                relaxation_policy)

    def get(self, document: CmifDocument, *,
            channel_serialization: bool = True,
            relaxation_policy: str = RELAX_DROP_LAST) -> Schedule | None:
        """The cached schedule for the document's current revision."""
        return super().get(self._key(document, channel_serialization,
                                     relaxation_policy))

    def put(self, document: CmifDocument, schedule: Schedule, *,
            channel_serialization: bool = True,
            relaxation_policy: str = RELAX_DROP_LAST) -> None:
        """Store a schedule under the document's current revision,
        evicting the document's entries at other revisions."""
        super().put(self._key(document, channel_serialization,
                              relaxation_policy),
                    schedule, owner=document, revision=document.revision)

    def schedule_for(self, document: CmifDocument, *,
                     engine: str = ENGINE_REFERENCE,
                     compiled: CompiledDocument | None = None) -> Schedule:
        """The document's schedule, compiled and solved at most once.

        On a miss this pays the full compile → build → solve → wrap
        pipeline (``compiled`` skips the compile when the caller already
        holds the document's current compile); every further call at
        the same revision is a lookup.  The two engines are
        bit-identical, so the key ignores ``engine`` and a graph-warmed
        entry (corpus ingest) serves reference-path consumers directly.
        """
        cached = self.get(document)
        if cached is not None:
            return cached
        schedule = schedule_document(
            compiled if compiled is not None else document.compile(),
            engine=engine)
        self.put(document, schedule)
        return schedule


def schedule_document(compiled: CompiledDocument, *,
                      channel_serialization: bool = True,
                      relaxation_policy: str = RELAX_DROP_LAST,
                      cache: ScheduleCache | None = None,
                      engine: str = ENGINE_REFERENCE) -> Schedule:
    """Compile-to-timeline in one call: build constraints, solve, wrap.

    This is the main scheduling entry point used by the player, viewer
    and benches.  With ``cache``, the solve is skipped whenever the
    document's revision already has a schedule.  ``engine`` selects the
    cold-path solver: ``"reference"`` is the pinned object-form solve,
    ``"graph"`` the compiled-graph lowering
    (:mod:`repro.timing.graph`) — bit-identical output, so cache keys
    deliberately ignore the engine.
    """
    if engine not in SCHEDULE_ENGINES:
        raise ValueError_(f"unknown schedule engine {engine!r}; expected "
                          f"one of {SCHEDULE_ENGINES}")
    if cache is not None:
        cached = cache.get(compiled.document,
                           channel_serialization=channel_serialization,
                           relaxation_policy=relaxation_policy)
        if cached is not None:
            return cached
    if engine == ENGINE_GRAPH:
        graph = compile_graph(
            compiled, channel_serialization=channel_serialization)
        result = solve_graph(graph, relaxation_policy=relaxation_policy)
        dist = result.times_ms.dist
        schedule = make_schedule(compiled, result, zip(
            map(dist.__getitem__, graph.event_begin),
            map(dist.__getitem__, graph.event_end)))
    else:
        system = build_constraints(
            compiled, channel_serialization=channel_serialization)
        result = solve(system, relaxation_policy=relaxation_policy)
        schedule = make_schedule(compiled, result)
    if cache is not None:
        cache.put(compiled.document, schedule,
                  channel_serialization=channel_serialization,
                  relaxation_policy=relaxation_policy)
    return schedule


def wrap_event(event: EventDescriptor, begin: float,
               end: float) -> ScheduledEvent:
    """One event's solved interval, checked against its duration.

    The single place the span-equals-duration contract lives; the full
    wrap below (from either engine) and the incremental engine's
    schedule patch all use it, so the paths cannot drift apart.
    """
    if not times_close(end - begin, event.duration_ms, 1e-3):
        raise SchedulingConflict(
            f"solver assigned {event.event_id} a span of "
            f"{end - begin:g}ms but its duration is "
            f"{event.duration_ms:g}ms")
    return ScheduledEvent(event, begin, end)


def event_order(event: ScheduledEvent) -> tuple[float, float, str]:
    """The canonical sort key of a schedule's event list."""
    return (event.begin_ms, event.end_ms, event.event.event_id)


def make_schedule(compiled: CompiledDocument, result: SolverResult,
                  spans: Iterable[tuple[float, float]] | None = None
                  ) -> Schedule:
    """Wrap a solver result into a :class:`Schedule`.

    Engine-agnostic: both the reference solve and the graph solve
    produce the same :class:`SolverResult` shape.  ``spans``, each
    event's ``(begin, end)`` in ``compiled.events`` order (the graph
    engine's read off its solve), defaults to ``result.times_ms``'s.
    """
    if spans is None:
        times = result.times_ms
        spans = [(times[begin_var(event.node_path)],
                  times[end_var(event.node_path)])
                 for event in compiled.events]
    events = [wrap_event(event, begin, end)
              for event, (begin, end) in zip(compiled.events, spans)]
    events.sort(key=event_order)
    return Schedule(
        compiled=compiled,
        times_ms=result.times_ms,
        events=events,
        dropped_constraints=result.dropped,
        solver_iterations=result.iterations,
    )


def schedule_for(document: CmifDocument, *,
                 cache: ScheduleCache | None = None,
                 engine: str = ENGINE_REFERENCE,
                 kernel=None,
                 compiled: CompiledDocument | None = None) -> Schedule:
    """The document's schedule, through a cache when one is given.

    The one cache-or-solve branch the player, viewer, CLI and session
    engine share; ``compiled``, the document's current compile, spares
    a solve the compile.  ``kernel`` is accepted and ignored: the solve
    has a single scalar implementation, and callers that name a replay
    kernel everywhere may still pass it here.
    """
    if cache is not None:
        return cache.schedule_for(document, engine=engine,
                                  compiled=compiled)
    return schedule_document(
        compiled if compiled is not None else document.compile(),
        engine=engine)
