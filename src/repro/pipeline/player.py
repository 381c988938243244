"""Pipeline stage 5b: the document player (discrete-event simulation).

Stands in for a real-time presentation engine (DESIGN.md substitution
table).  The player executes a :class:`~repro.timing.schedule.Schedule`
against per-channel device models (start latency + deterministic jitter,
taken from a :class:`~repro.transport.environments.SystemEnvironment`)
and *audits* the resulting actual times against every explicit
synchronization arc: the paper's synchronization equation ``tref + delta
<= tactual <= tref + epsilon`` is checked literally, with *must*
violations reported as errors and *may* violations as warnings.

Reader controls from the paper are supported: "it is possible to alter
the rate of presentation (such as freeze-framing or using slow-motion),
[but] it is not possible to alter the order of events" — rate scaling,
freeze-frame holds, and fast-forward navigation (which triggers the
class-3 conflict analysis of section 5.3.3).  Pre-scheduling is modelled
by a prefetch lead: events may be dispatched to their device early,
which is what makes negative minimum delays realizable ("this might be
possible to a limited degree if an implementation environment supports
pre-fetching and pre-scheduling of events").

Since the compiled-playback PR, :meth:`Player.play` runs on the batch
replay engine (:mod:`repro.pipeline.program`): the schedule is lowered
to a :class:`~repro.pipeline.program.PlaybackProgram` once per
(schedule, revision) and each run is array arithmetic.  The original
interpretive loop survives as :meth:`Player.play_reference`; the two
paths are bit-identical, which the equivalence tests and the playback
bench gate.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from repro.core.errors import PlaybackError
from repro.core.nodes import Node
from repro.core.paths import resolve_path
from repro.core.syncarc import Anchor, ConditionalArc, Strictness
from repro.core.tree import iter_postorder
from repro.pipeline.program import (BatchPlayer, check_play_controls,
                                    check_prefetch_lead, check_rate_span)
from repro.timing.conflicts import (ConflictReport, invalid_arcs_after_seek)
from repro.timing.intervals import arc_window
from repro.timing.schedule import Schedule
from repro.transport.environments import SystemEnvironment, WORKSTATION


@dataclass(frozen=True)
class PlayedEvent:
    """One event's realized presentation, next to its scheduled times."""

    node_path: str
    channel: str
    scheduled_begin_ms: float
    scheduled_end_ms: float
    actual_begin_ms: float
    actual_end_ms: float

    @property
    def begin_skew_ms(self) -> float:
        """Realized start minus scheduled start (positive = late)."""
        return self.actual_begin_ms - self.scheduled_begin_ms


@dataclass(frozen=True)
class ArcAudit:
    """The audit of one explicit arc against realized times."""

    owner_path: str
    arc_description: str
    strictness: Strictness
    window: str
    actual_ms: float
    violation_ms: float

    @property
    def satisfied(self) -> bool:
        """True when the destination landed inside the arc's window."""
        return self.violation_ms == 0.0

    def __str__(self) -> str:
        state = ("ok" if self.satisfied
                 else f"violated by {self.violation_ms:+.1f}ms")
        return (f"{self.strictness.value} arc at {self.owner_path}: "
                f"window {self.window}, actual {self.actual_ms:.1f}ms "
                f"[{state}]")


@dataclass
class PlaybackReport:
    """The full outcome of one playback run."""

    environment: str
    played: list[PlayedEvent] = field(default_factory=list)
    audits: list[ArcAudit] = field(default_factory=list)
    navigation_conflicts: list[ConflictReport] = field(default_factory=list)
    freezes_ms: float = 0.0
    rate: float = 1.0

    @property
    def played_count(self) -> int:
        """Events played — duck-compatible with ``CompactReport``, so
        serving callers can consume either report shape."""
        return len(self.played)

    def materialize(self) -> "PlaybackReport":
        """This report already is the full form — duck-compatible with
        ``CompactReport.materialize()`` for consumers that may hold
        either shape (a degraded replay hands them this one)."""
        return self

    @property
    def must_violations(self) -> list[ArcAudit]:
        """Audits of must arcs that missed their window (hard errors)."""
        return [audit for audit in self.audits
                if audit.strictness is Strictness.MUST
                and not audit.satisfied]

    @property
    def may_violations(self) -> list[ArcAudit]:
        """Audits of may arcs that missed their window (tolerated)."""
        return [audit for audit in self.audits
                if audit.strictness is Strictness.MAY
                and not audit.satisfied]

    @property
    def max_skew_ms(self) -> float:
        """The worst realized start skew across all events."""
        if not self.played:
            return 0.0
        return max(abs(event.begin_skew_ms) for event in self.played)

    def skew_by_channel(self) -> dict[str, float]:
        """Worst absolute start skew per channel."""
        worst: dict[str, float] = {}
        for event in self.played:
            worst[event.channel] = max(worst.get(event.channel, 0.0),
                                       abs(event.begin_skew_ms))
        return worst

    def summary(self) -> str:
        lines = [
            f"playback on {self.environment}: {len(self.played)} events, "
            f"rate {self.rate:g}x, max skew {self.max_skew_ms:.1f}ms",
            f"  must arcs violated: {len(self.must_violations)}, "
            f"may arcs violated: {len(self.may_violations)}",
        ]
        for audit in self.must_violations:
            lines.append(f"  !! {audit}")
        for report in self.navigation_conflicts:
            lines.append(f"  ~ {report}")
        return "\n".join(lines)


class Player:
    """Discrete-event playback of a schedule on a device model.

    Jitter is *deterministic*: every run draws from an explicit
    :class:`random.Random` — either one passed to :meth:`play` or a
    fresh ``random.Random(seed)`` per run — never from the module-level
    ``random`` state.  Replays with the same seed therefore reproduce
    the same report bit for bit, which is what lets the schedule cache
    reuse one solved timeline across replays and seeks.

    :meth:`play` executes through a compiled playback program held in a
    one-slot cache keyed on (schedule identity, document revision) — the
    same guard the schedule cache uses, so an edited document can never
    be audited against a stale path map.  :meth:`play_reference` is the
    original interpretive loop, kept as the engine's oracle.
    """

    def __init__(self, environment: SystemEnvironment = WORKSTATION, *,
                 seed: int = 0, prefetch_lead_ms: float = 0.0,
                 strict: bool = False) -> None:
        self.environment = environment
        self.seed = seed
        check_prefetch_lead(prefetch_lead_ms)
        self.prefetch_lead_ms = prefetch_lead_ms
        self.strict = strict
        # One-slot compiled-program engine (see class docstring).
        self._batch: BatchPlayer | None = None

    def _batch_for(self, schedule: Schedule) -> BatchPlayer:
        """The compiled engine for ``schedule``, rebuilt on change.

        The slot also tracks the player's own mutable settings
        (environment, seed, prefetch, strict): the seed loop read them
        live on every run, so a player reconfigured between plays must
        get a fresh engine rather than a stale one.
        """
        revision = schedule.compiled.document.revision
        batch = self._batch
        same_program = (batch is not None
                        and batch.program.schedule is schedule
                        and batch.program.revision == revision)
        if (not same_program
                or batch.environment is not self.environment
                or batch.seed != self.seed
                or batch.prefetch_lead_ms != self.prefetch_lead_ms
                or batch.strict != self.strict):
            batch = BatchPlayer(schedule, self.environment,
                                seed=self.seed,
                                prefetch_lead_ms=self.prefetch_lead_ms,
                                strict=self.strict,
                                program=(batch.program if same_program
                                         else None))
            self._batch = batch
        return batch

    def rng_for(self, replay: int = 0) -> random.Random:
        """The jitter RNG of the ``replay``-th run (seed + replay)."""
        return random.Random(self.seed + replay)

    # -- core playback -----------------------------------------------------

    def play(self, schedule: Schedule, *, rate: float = 1.0,
             freeze_at_ms: float | None = None,
             freeze_duration_ms: float = 0.0,
             seek_to_ms: float = 0.0,
             rng: random.Random | None = None) -> PlaybackReport:
        """Simulate one presentation run (compiled engine).

        ``rate`` scales presentation time (2.0 = slow motion at half
        speed); ``freeze_at_ms``/``freeze_duration_ms`` hold the
        presentation (freeze-frame) at a point, shifting everything after
        it; ``seek_to_ms`` fast-forwards past the beginning, skipping
        events that end before the seek point and triggering the class-3
        navigation analysis.  ``rng`` injects the jitter source; when
        omitted, a fresh ``random.Random(self.seed)`` makes the run
        reproducible.

        The run executes over the schedule's compiled
        :class:`~repro.pipeline.program.PlaybackProgram`; the report is
        bit-identical to :meth:`play_reference` on the same inputs.
        """
        batch = self._batch_for(schedule)
        if rng is None:
            rng = self.rng_for(0)
        compact = batch.run_one(rate=rate, freeze_at_ms=freeze_at_ms,
                                freeze_duration_ms=freeze_duration_ms,
                                seek_to_ms=seek_to_ms, rng=rng)
        return compact.materialize()

    def play_reference(self, schedule: Schedule, *, rate: float = 1.0,
                       freeze_at_ms: float | None = None,
                       freeze_duration_ms: float = 0.0,
                       seek_to_ms: float = 0.0,
                       rng: random.Random | None = None
                       ) -> PlaybackReport:
        """The interpretive run: tree walks, schedule copies, dicts.

        This is the original (pre-compilation) playback loop, kept as
        the oracle the batch engine is audited against — the equivalence
        tests and ``benchmarks/bench_playback.py`` both compare against
        it.  Events are dispatched in the schedule's canonical
        :func:`~repro.timing.schedule.event_order` (begin, end, id).
        """
        check_play_controls(rate, seek_to_ms, freeze_at_ms,
                            freeze_duration_ms)
        working = schedule
        if rate != 1.0:
            check_rate_span(rate, schedule.total_duration_ms)
            working = _scaled(schedule, rate)
        if freeze_at_ms is not None and freeze_duration_ms > 0:
            working = _frozen(working, freeze_at_ms, freeze_duration_ms)

        report = PlaybackReport(environment=self.environment.name,
                                rate=rate,
                                freezes_ms=freeze_duration_ms
                                if freeze_at_ms is not None else 0.0)
        if seek_to_ms > 0:
            report.navigation_conflicts = invalid_arcs_after_seek(
                working, seek_to_ms)

        if rng is None:
            rng = self.rng_for(0)
        channel_free: dict[str, float] = {}
        actual_times: dict[str, tuple[float, float]] = {}
        for scheduled in working.ordered_events():
            if scheduled.end_ms <= seek_to_ms:
                continue
            medium = scheduled.event.medium
            latency = self.environment.latency_for(medium)
            jitter = (rng.uniform(0.0, self.environment.jitter_ms)
                      if self.environment.jitter_ms > 0 else 0.0)
            # Prefetch may pre-roll before the presentation starts (the
            # device loads media during setup), but never before a seek
            # point — the reader only just decided to jump there.
            dispatch = scheduled.begin_ms - self.prefetch_lead_ms
            if seek_to_ms > 0:
                dispatch = max(dispatch, seek_to_ms)
            ready = dispatch + latency + jitter
            free = channel_free.get(scheduled.event.channel, 0.0)
            actual_begin = max(scheduled.begin_ms, ready, free)
            actual_end = actual_begin + scheduled.duration_ms
            channel_free[scheduled.event.channel] = actual_end
            played = PlayedEvent(
                node_path=scheduled.event.node_path,
                channel=scheduled.event.channel,
                scheduled_begin_ms=scheduled.begin_ms,
                scheduled_end_ms=scheduled.end_ms,
                actual_begin_ms=actual_begin,
                actual_end_ms=actual_end,
            )
            report.played.append(played)
            actual_times[played.node_path] = (actual_begin, actual_end)

        report.audits = self._audit_arcs(working, actual_times)
        if self.strict and report.must_violations:
            worst = report.must_violations[0]
            raise PlaybackError(
                f"must synchronization violated on "
                f"{self.environment.name}: {worst}")
        return report

    # -- arc auditing ---------------------------------------------------------

    def _audit_arcs(self, schedule: Schedule,
                    actual_times: dict[str, tuple[float, float]]
                    ) -> list[ArcAudit]:
        compiled = schedule.compiled
        document = compiled.document
        paths = dict(zip(map(id, compiled.nodes), compiled.paths))
        node_times = _node_actual_times(document.root, actual_times,
                                        paths)
        audits: list[ArcAudit] = []
        for node in _nodes_with_arcs(document.root):
            for arc in node.arcs:
                if isinstance(arc, ConditionalArc):
                    continue
                source = resolve_path(node, arc.source)
                destination = resolve_path(node, arc.destination)
                source_times = node_times.get(id(source))
                destination_times = node_times.get(id(destination))
                if source_times is None or destination_times is None:
                    continue  # endpoint skipped by a seek
                tref = (source_times[0] if arc.src_anchor is Anchor.BEGIN
                        else source_times[1])
                actual = (destination_times[0]
                          if arc.dst_anchor is Anchor.BEGIN
                          else destination_times[1])
                # Windows anchor at the *realized* source time, so rate
                # changes and freezes shift them automatically; only the
                # [delta, epsilon] tolerance stays authored-real-time.
                window = arc_window(arc, tref, document.timebase)
                audits.append(ArcAudit(
                    owner_path=paths[id(node)],
                    arc_description=arc.describe(),
                    strictness=arc.strictness,
                    window=str(window),
                    actual_ms=actual,
                    violation_ms=window.violation_ms(actual),
                ))
        return audits


def _nodes_with_arcs(root: Node):
    for node in iter_postorder(root):
        if node.arcs:
            yield node


def _node_actual_times(root: Node,
                       leaf_times: dict[str, tuple[float, float]],
                       paths: dict[int, str]
                       ) -> dict[int, tuple[float, float]]:
    """Realized (begin, end) for every node, composed up from leaves.

    ``paths`` must cover every node of ``root``'s tree — callers pass
    the paths the compile recorded, so the walk never falls back to
    per-node parent-chain recomputation.
    """
    times: dict[int, tuple[float, float]] = {}
    for node in iter_postorder(root):
        if node.is_leaf:
            played = leaf_times.get(paths[id(node)])
            if played is not None:
                times[id(node)] = played
            continue
        child_times = [times[id(child)] for child in node.children
                       if id(child) in times]
        if child_times:
            times[id(node)] = (min(t[0] for t in child_times),
                               max(t[1] for t in child_times))
    return times


def _scaled(schedule: Schedule, rate: float) -> Schedule:
    """The schedule with all times multiplied by ``rate``.

    A positive scale preserves the canonical event order, so the copy
    is built from (and pre-seeds) the cached order.
    """
    from repro.timing.schedule import ScheduledEvent
    events = [ScheduledEvent(e.event, e.begin_ms * rate, e.end_ms * rate)
              for e in schedule.ordered_events()]
    scaled = Schedule(
        compiled=schedule.compiled,
        times_ms={var: t * rate for var, t in schedule.times_ms.items()},
        events=events,
        dropped_constraints=list(schedule.dropped_constraints),
        solver_iterations=schedule.solver_iterations,
    )
    scaled._ordered = tuple(events)
    return scaled


def _frozen(schedule: Schedule, at_ms: float,
            duration_ms: float) -> Schedule:
    """The schedule with a freeze-frame hold inserted at ``at_ms``.

    Events beginning at or after the freeze point shift later by the
    hold; events spanning the point are extended (their display persists
    through the hold — the freeze-frame video operation the paper's
    news example needs).
    """
    from repro.timing.schedule import ScheduledEvent
    shifted_events = []
    # Built in cached canonical order: the hold shifts every event at or
    # after the freeze point by the same amount, which cannot reorder
    # begin times, so the copy pre-seeds its order cache.
    for event in schedule.ordered_events():
        begin, end = event.begin_ms, event.end_ms
        if begin >= at_ms:
            begin += duration_ms
            end += duration_ms
        elif end > at_ms:
            end += duration_ms
        shifted_events.append(ScheduledEvent(event.event, begin, end))
    shifted_times = {}
    for var, t in schedule.times_ms.items():
        shifted_times[var] = t + duration_ms if t >= at_ms else t
    frozen = Schedule(
        compiled=schedule.compiled,
        times_ms=shifted_times,
        events=shifted_events,
        dropped_constraints=list(schedule.dropped_constraints),
        solver_iterations=schedule.solver_iterations,
    )
    frozen._ordered = tuple(shifted_events)
    return frozen
